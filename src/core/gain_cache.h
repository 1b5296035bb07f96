// Incremental marginal-gain engine: keeps the SDGA/SRA stage profit matrix
// (gain(A[p], r, p) of Definition 8 for every pair) alive across stage
// commits instead of rebuilding all P×R entries per stage, and caches the
// local-search group folds behind ScoreWithReplacement. Selected by
// GainMode (core/cra.h) / the registry knob `gains=rebuild|incremental`.
//
// Why exact deltas are possible (the contract everything here rests on):
// gain(A[p], r, p) reads the group vector g→ only at topics in reviewer
// r's support — for t with r[t] = 0 ≤ g[t] the kernel skips the topic no
// matter what g[t] is (core::MarginalGainVectors and its bit-identical
// sparse twin). So after a commit changes g→ of paper p at topic set Δ,
// the only entries that can change are (p, r) for r in the CSC columns
// of Δ (sparse/topic_index.h), and every entry outside that set would be
// recomputed to the *same double, bit for bit* by a full rebuild. The
// cache therefore re-scores that set (on the lane path below, the whole
// row of a paper whose g→ changed) with bit-identical kernels and leaves
// the rest untouched, which is why `gains=incremental` equals
// `gains=rebuild` exactly — same scores, same assignments, at any thread
// count (tests/gain_cache_test.cc).
//
// The int64 domain: what the cache maintains exactly is the stage integer
// program — the 1e9-scaled int64 profits (la::ScaleTransportProfit) every
// stage backend optimizes (Jonker–Volgenant, min-cost flow and the
// auction all scale their inputs through it, so there is exactly one
// integer program per stage in both gain modes).
// Maintenance in the rounded domain cannot be arithmetic (llround is not
// additive — llround(a+b) ≠ llround(a)+llround(b)), so the cache keeps
// the pre-quantization doubles, whose bit-exactness (above) makes the
// derived integers exact: an entry is stored as the identical double the
// rebuild would produce, hence scales to the identical int64. Storing the
// doubles rather than the integers also keeps assembly a straight masked
// copy (no per-entry division back out of the fixed point) — the int64
// view is exposed through ScaledGain() and pinned by the equivalence
// tests.
//
// Row scoring: on dense topic storage with c, cP or cD, whole rows — the
// initial build, the full-row structural patches, and the note-diff patch
// of every paper whose group vector changed (no CSC walk) — are scored
// with one core::GainLanes call (simd::MarginalGainLanes over a T×R
// topic-major copy of the reviewer matrix, one SIMD lane per reviewer),
// then finalized as lanes[r] / PaperMass(p) + BidBonus(r, p): the very
// additions and the very arithmetic of Assignment::MarginalGain, so every
// stored double keeps its bits. Such a row visits only the paper's
// nonzero topics. Everywhere else the cache scores cell by cell with
// Assignment::MarginalGain behind the CSC candidate walk: on sparse views
// (where the walk finds a handful of candidates at low density; lane rows
// alone made the 1%-density patches 1.8–2.8× slower in a prototype, and
// no benchmark workload uses sparse views) and for cR, whose lane row
// visits all T topics of every reviewer — on dense storage of 3%-density
// profiles that made the note-diff patch 3× slower dispatched and 12×
// slower on the scalar backend (BM_GainCacheVsRebuild, bench/BASELINES.md).
//
// Cost: a stage commit on the lane path costs one lane row,
// O(R·nnz(p)) lane steps, per paper whose group vector changed; on the
// cell path it costs O(Σ_p Σ_{t∈Δ_p} degree(t)) candidate work plus one
// MarginalGain call per candidate. Papers are independent and fanned over
// the ThreadPool; assembly is an O(rows × R) copy. The rebuild path costs
// O(P·R) scalar kernel calls per stage. BM_GainCacheVsRebuild and
// BM_SdgaStage in bench/BASELINES.md record both.
#ifndef WGRAP_CORE_GAIN_CACHE_H_
#define WGRAP_CORE_GAIN_CACHE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/gain_lanes.h"
#include "core/instance.h"
#include "sparse/topic_index.h"

namespace wgrap {
class ThreadPool;
}  // namespace wgrap

namespace wgrap::core {

/// Delta-maintained stage profit matrix over a topic-inverted index.
///
/// Usage protocol (cra_sdga.cc / cra_sra.cc):
///   GainCache cache(&instance);
///   loop {
///     cache.Refresh(assignment, pool);     // first call = full build
///     cache.AssembleStageProfit(...);      // mask + emit LAP matrix
///     ... solve stage, then for every commit:
///     assignment.Add(p, r);  cache.NoteAdd(p, r);      // or
///     assignment.Remove(p, r); cache.NoteRemove(p, r);
///   }
/// Every mutation of the tracked assignment between Refresh calls must be
/// noted — an unnoted change makes cached entries silently stale. Not
/// thread-safe; one cache per solver loop, mutated only between parallel
/// regions (Refresh itself fans out internally, touched papers are row-
/// disjoint).
class GainCache {
 public:
  /// ScaledGain's value for conflict-of-interest pairs (stored as the
  /// forbidden profit marker, which has no scaled representation).
  static constexpr int64_t kConflictSentinel =
      std::numeric_limits<int64_t>::min();

  /// Builds the CSC reviewer index (from the CSR views when the instance
  /// carries them, else by inverting the dense matrix). No gains are
  /// computed until the first Refresh.
  explicit GainCache(const Instance* instance);

  bool initialized() const { return initialized_; }

  /// Records a committed Add/Remove on the tracked assignment. O(1); the
  /// work happens at the next Refresh.
  ///
  /// Both directions deliberately funnel into the same direction-less
  /// note: Refresh never replays the operation, it diffs the paper's group
  /// vector against the snapshot, and an add and a remove of reviewer r
  /// can change that vector only at topics in r's support — exactly the
  /// set the note feeds into the sparse diff scan (an add raises the max
  /// only where r carries weight; a remove lowers it only where r held
  /// the max). The direction adds no information, so a remove-then-re-add
  /// epoch refreshes back to the bit-identical cache (regression test:
  /// tests/gain_cache_test.cc NoteDirectionIsIrrelevant).
  void NoteAdd(int paper, int reviewer) { Note(paper, reviewer); }
  void NoteRemove(int paper, int reviewer) { Note(paper, reviewer); }

  /// First call: full O(P·R) gain build against `assignment` (exactly the
  /// entries a stage rebuild would compute). Later calls: diffs the group
  /// vectors of noted papers against the snapshot, walks the CSC columns
  /// of the changed topics, and re-scores only those (p, r) entries — all
  /// on `pool`, bit-identical at any thread count. Out-of-range or
  /// non-finite gains are stored as-is and rejected later by the LAP,
  /// exactly like the rebuild path.
  void Refresh(const Assignment& assignment, ThreadPool* pool);

  /// Emits the LAP profit matrix for `papers` (one row per paper, in
  /// order): kTransportForbidden where capacity[r] <= 0, (r, p) is a COI,
  /// or r already reviews p — the same mask the rebuild path applies —
  /// and the cached gain (the rebuild's exact double) elsewhere.
  /// `stage_profit` is resized to papers.size() × R. Requires a Refresh
  /// with no notes pending.
  void AssembleStageProfit(const std::vector<int>& papers,
                           const std::vector<int>& capacity,
                           const Assignment& assignment, ThreadPool* pool,
                           Matrix* stage_profit) const;

  /// The cached gain double for (paper, reviewer); kTransportForbidden on
  /// COI pairs. Requires initialized().
  double Gain(int paper, int reviewer) const {
    return gains_[static_cast<size_t>(paper) * num_reviewers_ + reviewer];
  }

  /// The entry's value in the stage integer program — the 1e9-scaled
  /// int64 every LAP backend optimizes — or kConflictSentinel on COI
  /// pairs. Test and diagnostics hook; requires initialized().
  int64_t ScaledGain(int paper, int reviewer) const;

  /// Entries re-scored by Refresh patches (excludes the initial build) —
  /// the targeted-invalidation tests and BM_GainCacheVsRebuild read this.
  /// Whole-row and whole-column re-scores (structural patches, lane-row
  /// note-diff patches) count all their cells, COI cells included; a
  /// candidate-walk patch counts the non-COI candidates it re-scored.
  int64_t patched_entries() const { return patched_entries_; }
  /// Rows scored by one GainLanes kernel call, the initial build included
  /// (always 0 on sparse views and for cR, which score cell by cell).
  int64_t lane_rows() const { return lane_rows_; }

  /// Adds this cache's work to the process counters
  /// wgrap_gain_cache_{patched_cells,full_builds,lane_rows}_total (once
  /// per solver run, when the cache is dropped).
  void PublishCounters() const;
  /// Completed full builds (1 after the first Refresh).
  int64_t full_builds() const { return full_builds_; }

  const sparse::TopicIndex& reviewer_index() const { return reviewer_index_; }

  /// --- Online-update hooks (core/update.h) -------------------------------
  /// Called by InstanceUpdater *after* it patches the bound Instance, so a
  /// live cache survives instance mutations without a full rebuild. Each
  /// hook repairs the cache geometry immediately (row/column moves of the
  /// stored doubles, never a re-score) and schedules the minimal re-score
  /// set for the next Refresh: a full row for a new/retopiced paper, a
  /// full column for a new/retopiced reviewer, a single cell for a bid or
  /// lifted-COI change. Re-scores use the same kernels as the initial
  /// build, and moved entries are the identical doubles a fresh build
  /// would produce, so after Refresh the cache is bit-identical to one
  /// built from scratch against the mutated instance
  /// (tests/update_equivalence_test.cc).
  ///
  /// For the remove hooks, `paper`/`reviewer` are pre-removal ids; the
  /// add hooks apply to the id instance->num_papers()-1 /
  /// num_reviewers()-1 that the updater just appended. Evictions from the
  /// tracked assignment are reported separately via NoteAdd/NoteRemove as
  /// usual (before the geometry hook, with pre-removal ids).
  void UpdateAddPaper();
  void UpdateRemovePaper(int paper);
  void UpdateAddReviewer();
  void UpdateRemoveReviewer(int reviewer);
  /// Paper p's topic vector (and mass) changed: full-row re-score.
  void UpdatePaperChanged(int paper);
  /// Reviewer r's topic vector changed: rebuilds the CSC index and
  /// schedules a full-column re-score. The updater additionally calls
  /// UpdatePaperChanged for every paper whose group contains r — their
  /// group vectors moved at topics of r's *old* support, which the
  /// note-diff scan (walking the new support) could miss.
  void UpdateReviewerChanged(int reviewer);
  /// COI flip for (paper, reviewer). On: the entry takes the forbidden
  /// marker immediately (what a fresh build stores). Off: the entry is
  /// re-scored at the next Refresh.
  void UpdateConflictChanged(int paper, int reviewer, bool conflicted);
  /// bids(paper, reviewer) changed: single-cell re-score (the bid bonus is
  /// per-pair, so no other entry moves).
  void UpdateBidChanged(int paper, int reviewer);

 private:
  void Note(int paper, int reviewer) {
    pending_.emplace_back(paper, reviewer);
  }
  void Initialize(const Assignment& assignment, ThreadPool* pool);
  /// Rebuilds the CSC index and the lanes' topic-major copy.
  void RebuildReviewerIndex();
  /// Re-scores every entry of row `paper` (COI cells get the forbidden
  /// marker): one lane row when lanes_ is set, else one MarginalGain call
  /// per cell. Safe to call for distinct papers concurrently.
  void ScoreFullRow(const Assignment& assignment, int paper);
  /// Processes pending_rows_/pending_cols_/pending_cells_ (Refresh phase 1,
  /// before the note-diff patch).
  void ApplyStructuralPatches(const Assignment& assignment, ThreadPool* pool);
  bool HasStructuralWork() const {
    return !pending_rows_.empty() || !pending_cols_.empty() ||
           !pending_cells_.empty();
  }

  const Instance* instance_;
  int num_reviewers_ = 0;
  sparse::TopicIndex reviewer_index_;  // topic → reviewers carrying it
  /// Set on dense topic storage with c, cP or cD: rows are scored as lane
  /// rows (see the file comment). Unset: cell-by-cell scoring.
  std::optional<GainLanes> lanes_;
  /// P×R gain doubles; the snapshot holds the group vectors they were
  /// last scored against (the diff base for changed-topic detection).
  std::vector<double> gains_;
  Matrix group_snapshot_;  // P×T
  std::vector<std::pair<int, int>> pending_;  // noted (paper, reviewer)
  /// Re-score work scheduled by the online-update hooks, consumed by the
  /// next Refresh before the note-diff patch.
  std::vector<int> pending_rows_;   // papers needing a full-row re-score
  std::vector<int> pending_cols_;   // reviewers needing a full-column one
  std::vector<std::pair<int, int>> pending_cells_;  // single entries
  bool initialized_ = false;
  int64_t patched_entries_ = 0;
  int64_t full_builds_ = 0;
  int64_t lane_rows_ = 0;
};

/// Local-search companion: caches, per paper, the δp "leave one member
/// out" group folds (max-vector and bid sum), so a replacement score folds
/// one cached vector plus the incoming reviewer instead of re-folding all
/// δp members. Score() is bit-identical to Assignment::
/// ScoreWithReplacement — max-folding is exact and order-independent, the
/// cached bid partial sums keep the group's summation order, and the final
/// merge/ScoreVectors call is the same kernel — so the `gains` knob never
/// changes a local-search trajectory (asserted in tests/gain_cache_test.cc).
///
/// Protocol (cra_local_search.cc): Prepare() the papers a proposal batch
/// touches (parallel, builds only stale entries), Score() read-only from
/// any thread, Invalidate() the papers mutated by an applied move — kept
/// or rolled back, since a rollback can reorder the group and with bids
/// the per-paper score is summed in group order.
class ReplacementFoldCache {
 public:
  explicit ReplacementFoldCache(const Instance* instance);

  /// Drops the cached folds of `paper`.
  void Invalidate(int paper) { papers_[paper].fresh = false; }

  /// (Re)builds folds for every stale paper in `papers`, in parallel.
  void Prepare(const Assignment& assignment, const std::vector<int>& papers,
               ThreadPool* pool);

  /// Score of `paper` with member `drop` replaced by `add`; requires a
  /// Prepare'd paper whose group still matches the build (drop must be a
  /// member). Safe to call concurrently after Prepare.
  double Score(int paper, int drop, int add) const;

 private:
  struct PaperFolds {
    bool fresh = false;
    std::vector<int> members;  // group order at build time
    // Per member i, the fold of the other members: dense max-vector
    // (length T) on dense instances, or sorted (ids, values) support on
    // sparse ones, plus the Σ bid bonus of the kept members (summed in
    // group order, matching ScoreWithReplacement).
    std::vector<std::vector<double>> fold_values;
    std::vector<std::vector<int>> fold_ids;  // sparse instances only
    std::vector<double> kept_bids;
  };

  const Instance* instance_;
  std::vector<PaperFolds> papers_;
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_GAIN_CACHE_H_
