#include "core/gain_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "la/transportation.h"
#include "obs/metrics.h"
#include "simd/kernels.h"
#include "sparse/sparse_scoring.h"

namespace wgrap::core {

namespace {

// Parallel-for grain for per-paper row work — matches the stage scoring
// loops in cra_sdga.cc so the chunking (and thus determinism reasoning)
// is the same.
constexpr int64_t kPaperGrain = 8;

// Per-worker lane scratch, reused across rows, chunks and Refresh calls.
std::vector<int>& ScratchTopics() {
  static thread_local std::vector<int> topics;
  return topics;
}
std::vector<double>& ScratchSums(int num_reviewers) {
  static thread_local std::vector<double> sums;
  if (static_cast<int>(sums.size()) < num_reviewers) {
    sums.resize(static_cast<size_t>(num_reviewers));
  }
  return sums;
}

}  // namespace

GainCache::GainCache(const Instance* instance)
    : instance_(instance),
      num_reviewers_(instance->num_reviewers()),
      reviewer_index_(
          instance->has_sparse_topics()
              ? sparse::TopicIndex::FromSparse(instance->ReviewerSparseMatrix())
              : sparse::TopicIndex::FromMatrix(instance->ReviewerMatrix())) {
  if (!instance->has_sparse_topics() &&
      instance->scoring() != ScoringFunction::kReviewerCoverage) {
    lanes_.emplace(instance);
  }
}

void GainCache::ScoreFullRow(const Assignment& assignment, int paper) {
  const int R = num_reviewers_;
  double* row = &gains_[static_cast<size_t>(paper) * R];
  if (!lanes_) {
    for (int r = 0; r < R; ++r) {
      row[r] = instance_->IsConflict(r, paper)
                   ? la::kTransportForbidden
                   : assignment.MarginalGain(paper, r);
    }
    return;
  }
  std::vector<int>& topics = ScratchTopics();
  lanes_->RowTopics(paper, &topics);
  std::vector<double>& sums = ScratchSums(R);
  lanes_->RowSums(assignment.GroupVector(paper), paper, topics, sums.data());
  const double mass = instance_->PaperMass(paper);
  WGRAP_CHECK(mass > 0.0);
  // Assignment::MarginalGain's arithmetic: sum / mass + bid bonus.
  for (int r = 0; r < R; ++r) {
    row[r] = instance_->IsConflict(r, paper)
                 ? la::kTransportForbidden
                 : sums[r] / mass + instance_->BidBonus(r, paper);
  }
}

void GainCache::Initialize(const Assignment& assignment, ThreadPool* pool) {
  const int P = instance_->num_papers();
  const int R = num_reviewers_;
  const int T = instance_->num_topics();
  gains_.assign(static_cast<size_t>(P) * R, 0.0);
  group_snapshot_ = Matrix(P, T);
  // Exactly the entries a stage rebuild would compute (ScoreFullRow keeps
  // MarginalGain's bits); conflicts hold the forbidden marker permanently.
  pool->ParallelFor(0, P, kPaperGrain, [&](int64_t p64) {
    const int p = static_cast<int>(p64);
    ScoreFullRow(assignment, p);
    const double* gv = assignment.GroupVector(p);
    std::copy(gv, gv + T, group_snapshot_.Row(p));
  });
  if (lanes_) lane_rows_ += P;
  initialized_ = true;
  ++full_builds_;
}

void GainCache::RebuildReviewerIndex() {
  reviewer_index_ =
      instance_->has_sparse_topics()
          ? sparse::TopicIndex::FromSparse(instance_->ReviewerSparseMatrix())
          : sparse::TopicIndex::FromMatrix(instance_->ReviewerMatrix());
  if (lanes_) lanes_->Rebuild();
}

void GainCache::ApplyStructuralPatches(const Assignment& assignment,
                                       ThreadPool* pool) {
  const int P = instance_->num_papers();
  const int R = num_reviewers_;
  const int T = instance_->num_topics();
  auto dedup = [](std::vector<int>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };
  dedup(&pending_rows_);
  dedup(&pending_cols_);
  // Full rows first: they reset the snapshot row, so any note-diff patch
  // for the same paper later this Refresh sees no spurious changes. The
  // same row scoring and conflict marker as Initialize, row-disjoint.
  pool->ParallelFor(0, static_cast<int64_t>(pending_rows_.size()),
                    /*grain=*/1, [&](int64_t i) {
    const int p = pending_rows_[i];
    ScoreFullRow(assignment, p);
    const double* gv = assignment.GroupVector(p);
    std::copy(gv, gv + T, group_snapshot_.Row(p));
  });
  if (lanes_) lane_rows_ += static_cast<int64_t>(pending_rows_.size());
  patched_entries_ += static_cast<int64_t>(pending_rows_.size()) * R;
  // Full columns next (column-disjoint). A cell covered by both a row and
  // a column re-score is simply computed twice to the same double.
  pool->ParallelFor(0, static_cast<int64_t>(pending_cols_.size()),
                    /*grain=*/1, [&](int64_t i) {
    const int r = pending_cols_[i];
    for (int p = 0; p < P; ++p) {
      gains_[static_cast<size_t>(p) * R + r] =
          instance_->IsConflict(r, p) ? la::kTransportForbidden
                                      : assignment.MarginalGain(p, r);
    }
  });
  patched_entries_ += static_cast<int64_t>(pending_cols_.size()) * P;
  for (const auto& [p, r] : pending_cells_) {
    gains_[static_cast<size_t>(p) * R + r] =
        instance_->IsConflict(r, p) ? la::kTransportForbidden
                                    : assignment.MarginalGain(p, r);
    ++patched_entries_;
  }
  pending_rows_.clear();
  pending_cols_.clear();
  pending_cells_.clear();
}

void GainCache::UpdateAddPaper() {
  if (!initialized_) return;
  const int P = instance_->num_papers();  // includes the appended paper
  const int T = instance_->num_topics();
  gains_.resize(static_cast<size_t>(P) * num_reviewers_, 0.0);
  Matrix snapshot(P, T);
  for (int p = 0; p < P - 1; ++p) {
    const double* src = group_snapshot_.Row(p);
    std::copy(src, src + T, snapshot.Row(p));
  }
  group_snapshot_ = std::move(snapshot);
  pending_rows_.push_back(P - 1);
}

void GainCache::UpdateRemovePaper(int paper) {
  if (!initialized_) return;
  const int P = instance_->num_papers();  // already excludes `paper`
  const int T = instance_->num_topics();
  gains_.erase(gains_.begin() + static_cast<int64_t>(paper) * num_reviewers_,
               gains_.begin() +
                   static_cast<int64_t>(paper + 1) * num_reviewers_);
  Matrix snapshot(P, T);
  for (int p = 0; p < P; ++p) {
    const double* src = group_snapshot_.Row(p < paper ? p : p + 1);
    std::copy(src, src + T, snapshot.Row(p));
  }
  group_snapshot_ = std::move(snapshot);
  // Remap every pending paper id past the removed one; work queued for the
  // removed paper itself is moot.
  auto remap = [paper](int p) { return p < paper ? p : p - 1; };
  std::vector<std::pair<int, int>> notes;
  for (const auto& [p, r] : pending_) {
    if (p != paper) notes.emplace_back(remap(p), r);
  }
  pending_ = std::move(notes);
  std::vector<int> rows;
  for (int p : pending_rows_) {
    if (p != paper) rows.push_back(remap(p));
  }
  pending_rows_ = std::move(rows);
  std::vector<std::pair<int, int>> cells;
  for (const auto& [p, r] : pending_cells_) {
    if (p != paper) cells.emplace_back(remap(p), r);
  }
  pending_cells_ = std::move(cells);
}

void GainCache::UpdateAddReviewer() {
  RebuildReviewerIndex();
  const int R = instance_->num_reviewers();  // includes the appended one
  if (initialized_) {
    const int P = instance_->num_papers();
    // Repack the row stride from R-1 to R; the moved entries are the
    // identical doubles a fresh build would compute for those pairs.
    std::vector<double> gains(static_cast<size_t>(P) * R, 0.0);
    for (int p = 0; p < P; ++p) {
      const double* src = &gains_[static_cast<size_t>(p) * num_reviewers_];
      std::copy(src, src + num_reviewers_, &gains[static_cast<size_t>(p) * R]);
    }
    gains_ = std::move(gains);
    pending_cols_.push_back(R - 1);
  }
  num_reviewers_ = R;
}

void GainCache::UpdateRemoveReviewer(int reviewer) {
  RebuildReviewerIndex();
  const int R = instance_->num_reviewers();  // already excludes `reviewer`
  if (initialized_) {
    const int P = instance_->num_papers();
    std::vector<double> gains(static_cast<size_t>(P) * R);
    for (int p = 0; p < P; ++p) {
      const double* src = &gains_[static_cast<size_t>(p) * num_reviewers_];
      double* dst = &gains[static_cast<size_t>(p) * R];
      std::copy(src, src + reviewer, dst);
      std::copy(src + reviewer + 1, src + num_reviewers_, dst + reviewer);
    }
    gains_ = std::move(gains);
    auto remap = [reviewer](int r) { return r < reviewer ? r : r - 1; };
    // A note whose reviewer is gone can no longer drive the sparse diff
    // scan (its support row left the instance); promote the paper to a
    // full-row re-score, which subsumes the diff.
    std::vector<std::pair<int, int>> notes;
    for (const auto& [p, r] : pending_) {
      if (r == reviewer) {
        pending_rows_.push_back(p);
      } else {
        notes.emplace_back(p, remap(r));
      }
    }
    pending_ = std::move(notes);
    std::vector<int> cols;
    for (int r : pending_cols_) {
      if (r != reviewer) cols.push_back(remap(r));
    }
    pending_cols_ = std::move(cols);
    std::vector<std::pair<int, int>> cells;
    for (const auto& [p, r] : pending_cells_) {
      if (r != reviewer) cells.emplace_back(p, remap(r));
    }
    pending_cells_ = std::move(cells);
  }
  num_reviewers_ = R;
}

void GainCache::UpdatePaperChanged(int paper) {
  if (!initialized_) return;
  pending_rows_.push_back(paper);
}

void GainCache::UpdateReviewerChanged(int reviewer) {
  RebuildReviewerIndex();
  if (!initialized_) return;
  pending_cols_.push_back(reviewer);
}

void GainCache::UpdateConflictChanged(int paper, int reviewer,
                                      bool conflicted) {
  if (!initialized_) return;
  if (conflicted) {
    gains_[static_cast<size_t>(paper) * num_reviewers_ + reviewer] =
        la::kTransportForbidden;
  } else {
    pending_cells_.emplace_back(paper, reviewer);
  }
}

void GainCache::UpdateBidChanged(int paper, int reviewer) {
  if (!initialized_) return;
  pending_cells_.emplace_back(paper, reviewer);
}

void GainCache::Refresh(const Assignment& assignment, ThreadPool* pool) {
  if (!initialized_) {
    // Whatever was noted is subsumed by the full build.
    pending_.clear();
    pending_rows_.clear();
    pending_cols_.clear();
    pending_cells_.clear();
    Initialize(assignment, pool);
    return;
  }
  if (HasStructuralWork()) ApplyStructuralPatches(assignment, pool);
  if (pending_.empty()) return;
  const int T = instance_->num_topics();
  // Group the notes by paper: [begin, end) ranges into the sorted,
  // deduplicated note list.
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  struct Touched {
    int paper;
    size_t begin;
    size_t end;
  };
  std::vector<Touched> touched;
  for (size_t i = 0; i < pending_.size();) {
    size_t j = i;
    while (j < pending_.size() && pending_[j].first == pending_[i].first) ++j;
    touched.push_back({pending_[i].first, i, j});
    i = j;
  }

  std::vector<int64_t> paper_patched(touched.size(), 0);
  pool->ParallelForChunks(
      0, static_cast<int64_t>(touched.size()), kPaperGrain,
      [&](int64_t chunk_begin, int64_t chunk_end) {
        // Per-worker scratch, reused across chunks and Refresh calls (the
        // steady-state patch is small, so per-chunk allocation would be a
        // visible fraction of it). `seen` is a reviewer stamp set cleared
        // via the candidate list after every paper — that invariant is
        // what lets it persist — so dedup costs O(collected), not a sort.
        static thread_local std::vector<int> changed_topics;
        static thread_local std::vector<double> changed_floor;
        static thread_local std::vector<int> candidates;
        static thread_local std::vector<uint8_t> seen;
        if (static_cast<int>(seen.size()) < num_reviewers_) {
          seen.assign(static_cast<size_t>(num_reviewers_), 0);
        }
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          const Touched& item = touched[i];
          const int p = item.paper;
          const double* now = assignment.GroupVector(p);
          double* snap = group_snapshot_.Row(p);
          if (lanes_) {
            // Lane path: a changed group vector re-scores the whole row
            // with one kernel call instead of walking the CSC columns — a
            // lane row visits only the paper's support, and on dense
            // storage each walked candidate would cost a T-topic call.
            if (std::equal(now, now + T, snap)) continue;
            std::copy(now, now + T, snap);
            ScoreFullRow(assignment, p);
            paper_patched[i] = num_reviewers_;
            continue;
          }
          // A changed topic invalidates reviewer r only when
          // r[t] > min(old max, new max): the Definition 8 per-topic term
          // is gated by the strict r[t] > g[t] test, so a reviewer at or
          // below both maxima contributed exactly 0.0 before and after.
          // `changed_floor` records that threshold per changed topic.
          changed_topics.clear();
          changed_floor.clear();
          const auto record_if_changed = [&](int t) {
            if (snap[t] != now[t]) {
              changed_topics.push_back(t);
              changed_floor.push_back(std::min(snap[t], now[t]));
              snap[t] = now[t];
            }
          };
          if (instance_->has_sparse_topics()) {
            // Every change sits inside a noted reviewer's support: an Add
            // raises the max only there, a Remove lowers it only where the
            // victim held the max. Diff just that union (snap is updated
            // as we go, so a topic shared by two noted reviewers cannot
            // be reported twice).
            for (size_t k = item.begin; k < item.end; ++k) {
              const sparse::SparseVector row =
                  instance_->ReviewerSparse(pending_[k].second);
              for (int e = 0; e < row.nnz; ++e) record_if_changed(row.ids[e]);
            }
          } else {
            for (int t = 0; t < T; ++t) record_if_changed(t);
          }
          if (changed_topics.empty()) continue;
          // Union the CSC columns of the changed topics, filtered to
          // reviewers above the per-topic floor — only their gains can
          // have moved.
          candidates.clear();
          for (size_t c = 0; c < changed_topics.size(); ++c) {
            const sparse::SparseVector column =
                reviewer_index_.Column(changed_topics[c]);
            const double floor = changed_floor[c];
            for (int k = 0; k < column.nnz; ++k) {
              if (column.values[k] <= floor) continue;
              const int r = column.ids[k];
              if (!seen[r]) {
                seen[r] = 1;
                candidates.push_back(r);
              }
            }
          }
          // Candidates stay in stamp insertion order (a merge of sorted
          // columns — already near-ascending; a tidy-up sort measurably
          // costs more than it buys). Patch values are order-independent,
          // so determinism is untouched.
          double* row = &gains_[static_cast<size_t>(p) * num_reviewers_];
          for (int r : candidates) {
            seen[r] = 0;  // reset the stamp set for the next paper
            if (instance_->IsConflict(r, p)) continue;
            row[r] = assignment.MarginalGain(p, r);
            ++paper_patched[i];
          }
        }
      });
  pending_.clear();
  for (int64_t count : paper_patched) {
    patched_entries_ += count;
    if (lanes_ && count > 0) ++lane_rows_;  // each was one lane row
  }
}

void GainCache::AssembleStageProfit(const std::vector<int>& papers,
                                    const std::vector<int>& capacity,
                                    const Assignment& assignment,
                                    ThreadPool* pool,
                                    Matrix* stage_profit) const {
  WGRAP_CHECK_MSG(initialized_ && pending_.empty() && !HasStructuralWork(),
                  "AssembleStageProfit requires a Refresh with no notes "
                  "pending");
  const int R = num_reviewers_;
  const int rows = static_cast<int>(papers.size());
  if (stage_profit->rows() != rows || stage_profit->cols() != R) {
    *stage_profit = Matrix(rows, R);
  }
  // Same mask as the rebuild loop in cra_sdga.cc, restated as a bulk row
  // copy plus sparse overwrites: conflicts already hold the forbidden
  // marker in storage, the (typically few) exhausted reviewers are listed
  // once, and the δp already-assigned reviewers are masked per row — no
  // per-entry branch or Contains lookup on the O(rows × R) path.
  std::vector<int> exhausted;
  for (int r = 0; r < R; ++r) {
    if (capacity[r] <= 0) exhausted.push_back(r);
  }
  pool->ParallelFor(0, rows, kPaperGrain, [&](int64_t i) {
    const int p = papers[i];
    double* out = stage_profit->Row(static_cast<int>(i));
    const double* row = &gains_[static_cast<size_t>(p) * R];
    std::copy(row, row + R, out);
    for (int r : exhausted) out[r] = la::kTransportForbidden;
    for (int member : assignment.GroupFor(p)) {
      out[member] = la::kTransportForbidden;
    }
  });
}

void GainCache::PublishCounters() const {
  static obs::Counter* const patched = obs::Registry::Global().GetCounter(
      "wgrap_gain_cache_patched_cells_total");
  if (patched) patched->Add(patched_entries_);
  static obs::Counter* const builds = obs::Registry::Global().GetCounter(
      "wgrap_gain_cache_full_builds_total");
  if (builds) builds->Add(full_builds_);
  static obs::Counter* const lane_rows = obs::Registry::Global().GetCounter(
      "wgrap_gain_cache_lane_rows_total");
  if (lane_rows) lane_rows->Add(lane_rows_);
}

int64_t GainCache::ScaledGain(int paper, int reviewer) const {
  const double gain = Gain(paper, reviewer);
  if (gain <= la::kTransportForbidden / 2) return kConflictSentinel;
  return la::ScaleTransportProfit(gain);
}

ReplacementFoldCache::ReplacementFoldCache(const Instance* instance)
    : instance_(instance), papers_(instance->num_papers()) {}

void ReplacementFoldCache::Prepare(const Assignment& assignment,
                                   const std::vector<int>& papers,
                                   ThreadPool* pool) {
  std::vector<int> stale;
  for (int p : papers) {
    if (!papers_[p].fresh) stale.push_back(p);
  }
  if (stale.empty()) return;
  const int T = instance_->num_topics();
  pool->ParallelFor(0, static_cast<int64_t>(stale.size()), /*grain=*/4,
                    [&](int64_t i) {
    const int p = stale[i];
    PaperFolds& folds = papers_[p];
    const std::vector<int>& group = assignment.GroupFor(p);
    const int n = static_cast<int>(group.size());
    folds.members = group;
    folds.fold_values.assign(n, {});
    folds.fold_ids.assign(n, {});
    folds.kept_bids.assign(n, 0.0);
    for (int skip = 0; skip < n; ++skip) {
      if (instance_->has_sparse_topics()) {
        sparse::SparseGroupAccumulator& acc =
            sparse::ThreadLocalGroupAccumulator();
        acc.Reset(T);
        for (int j = 0; j < n; ++j) {
          if (j == skip) continue;
          acc.Fold(instance_->ReviewerSparse(group[j]));
          folds.kept_bids[skip] += instance_->BidBonus(group[j], p);
        }
        const std::vector<int>& ids = acc.SortedTouched();
        folds.fold_ids[skip] = ids;
        folds.fold_values[skip].resize(ids.size());
        for (size_t k = 0; k < ids.size(); ++k) {
          folds.fold_values[skip][k] = acc.ValueAt(ids[k]);
        }
      } else {
        std::vector<double>& fold = folds.fold_values[skip];
        fold.assign(T, 0.0);
        for (int j = 0; j < n; ++j) {
          if (j == skip) continue;
          simd::MaxFold(fold.data(), instance_->ReviewerVector(group[j]), T);
          folds.kept_bids[skip] += instance_->BidBonus(group[j], p);
        }
      }
    }
    folds.fresh = true;
  });
}

double ReplacementFoldCache::Score(int paper, int drop, int add) const {
  const PaperFolds& folds = papers_[paper];
  WGRAP_CHECK_MSG(folds.fresh, "Score requires a Prepare'd paper");
  const auto it =
      std::find(folds.members.begin(), folds.members.end(), drop);
  WGRAP_CHECK_MSG(it != folds.members.end(), "drop is not a group member");
  const int skip = static_cast<int>(it - folds.members.begin());
  const int T = instance_->num_topics();
  // Total the bids before adding them to the score: ScoreWithReplacement
  // accumulates all bid bonuses into one term and adds it to the score
  // once, and fp addition is not associative — (score + kept) + add_bid
  // would differ in the low bits.
  const double bids =
      folds.kept_bids[skip] + instance_->BidBonus(add, paper);
  if (instance_->has_sparse_topics()) {
    sparse::SparseGroupAccumulator& acc =
        sparse::ThreadLocalGroupAccumulator();
    acc.Reset(T);
    acc.Fold(sparse::SparseVector{
        folds.fold_ids[skip].data(), folds.fold_values[skip].data(),
        static_cast<int>(folds.fold_ids[skip].size()), T});
    acc.Fold(instance_->ReviewerSparse(add));
    return acc.Score(instance_->scoring(), instance_->PaperSparse(paper),
                     instance_->PaperMass(paper)) +
           bids;
  }
  static thread_local std::vector<double> gv;
  gv.assign(folds.fold_values[skip].begin(), folds.fold_values[skip].end());
  simd::MaxFold(gv.data(), instance_->ReviewerVector(add), T);
  return ScoreVectors(instance_->scoring(), gv.data(),
                      instance_->PaperVector(paper), T,
                      instance_->PaperMass(paper)) +
         bids;
}

}  // namespace wgrap::core
