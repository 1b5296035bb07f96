// Tests for the incremental marginal-gain engine (core/gain_cache.h):
// solver-level equivalence of gains=incremental vs gains=rebuild — scores
// AND assignments, compared with EXPECT_EQ on purpose, because the
// contract is bit-identical, not approximately equal — across solvers,
// topic representations and thread counts, plus targeted invalidation
// units (COI pairs, exhausted reviewers, add/removal epochs) against a
// freshly built cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cra.h"
#include "core/gain_cache.h"
#include "core/registry.h"
#include "data/synthetic_dblp.h"
#include "la/transportation.h"

namespace wgrap::core {
namespace {

// The generated reviewer pool a test runs on. `topic_density` < 1
// generates genuinely sparse profiles; the instance carries CSR views
// when `sparse_views` is set (and the density is below 1). Without views
// the dense path runs even under the CI runs that force
// WGRAP_SPARSE_TOPICS=1 — on density < 1 data that is dense storage with
// zero-weight topics, which lane rows skip for c, cP and cD.
struct PoolShape {
  int reviewers = 14;
  int papers = 10;
  int group_size = 3;
  uint64_t seed = 1;
  double topic_density = 1.0;
  bool sparse_views = true;
  int workload = 0;
  int num_topics = 12;
  ScoringFunction scoring = ScoringFunction::kWeightedCoverage;
};

Instance MakePool(const PoolShape& shape) {
  data::SyntheticDblpConfig config;
  config.num_topics = shape.num_topics;
  config.seed = shape.seed;
  config.topic_density = shape.topic_density;
  auto dataset =
      data::GenerateReviewerPool(shape.reviewers, shape.papers, config);
  WGRAP_CHECK(dataset.ok());
  InstanceParams params;
  params.group_size = shape.group_size;
  params.reviewer_workload = shape.workload;
  params.scoring = shape.scoring;
  const bool views = shape.sparse_views && shape.topic_density < 1.0;
  params.sparse_topics = views;
  auto instance = Instance::FromDataset(*dataset, params);
  WGRAP_CHECK(instance.ok());
  if (!views) instance->DropSparseTopics();
  return std::move(instance).value();
}

Instance PoolInstance(int reviewers, int papers, int group_size,
                      uint64_t seed, double topic_density = 1.0,
                      int workload = 0) {
  PoolShape shape;
  shape.reviewers = reviewers;
  shape.papers = papers;
  shape.group_size = group_size;
  shape.seed = seed;
  shape.topic_density = topic_density;
  shape.workload = workload;
  return MakePool(shape);
}

// Random bids in [0, 1) at weight 0.5.
void AddBids(Instance* instance, uint64_t seed) {
  Matrix bids(instance->num_papers(), instance->num_reviewers());
  Rng rng(seed);
  for (int p = 0; p < bids.rows(); ++p) {
    for (int r = 0; r < bids.cols(); ++r) bids(p, r) = rng.NextDouble();
  }
  WGRAP_CHECK(instance->SetBids(std::move(bids), 0.5).ok());
}

// Every cached entry — the stored double and its scaled integer — equals
// a cache built from scratch against `assignment`, and every non-COI
// entry equals the scalar oracle Assignment::MarginalGain.
void ExpectCacheMatchesFreshBuild(const GainCache& cache,
                                  const Assignment& assignment,
                                  ThreadPool* pool) {
  const Instance& instance = assignment.instance();
  GainCache fresh(&instance);
  fresh.Refresh(assignment, pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (!instance.IsConflict(r, p)) {
        ASSERT_EQ(cache.Gain(p, r), assignment.MarginalGain(p, r))
            << "(" << p << ", " << r << ")";
      }
      ASSERT_EQ(cache.Gain(p, r), fresh.Gain(p, r))
          << "(" << p << ", " << r << ")";
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

void ExpectSameAssignment(const Assignment& a, const Assignment& b) {
  EXPECT_EQ(a.TotalScore(), b.TotalScore());
  for (int p = 0; p < a.instance().num_papers(); ++p) {
    EXPECT_EQ(a.GroupFor(p), b.GroupFor(p)) << "paper " << p;
  }
}

// The headline contract: for every solver that builds stage profits or
// replacement scores, `gains=incremental` reproduces `gains=rebuild`
// exactly — every scoring function, dense storage and sparse views at two
// densities, with and without bids and conflicts, at 1 and 8 threads.
TEST(GainCacheTest, SolversAreBitIdenticalAcrossGainModes) {
  const auto& registry = SolverRegistry::Default();
  for (ScoringFunction scoring :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    for (double density : {1.0, 0.25, 0.03}) {
      for (bool bids : {false, true}) {
        for (bool conflicts : {false, true}) {
          PoolShape shape;
          shape.seed = 401;
          shape.topic_density = density;
          shape.scoring = scoring;
          Instance instance = MakePool(shape);
          if (bids) AddBids(&instance, 9);
          if (conflicts) {
            for (int p = 0; p < instance.num_papers(); ++p) {
              instance.AddConflict((3 * p) % instance.num_reviewers(), p);
              instance.AddConflict((5 * p + 1) % instance.num_reviewers(), p);
            }
          }
          for (const char* algo : {"sdga", "sdga-sra", "sdga-ls"}) {
            for (const char* threads : {"1", "8"}) {
              SCOPED_TRACE(std::string(algo) + " scoring=" +
                           ScoringFunctionName(scoring) + " density=" +
                           std::to_string(density) + " bids=" +
                           std::to_string(bids) + " coi=" +
                           std::to_string(conflicts) + " threads=" + threads);
              SolverRunOptions rebuild;
              rebuild.seed = 77;
              rebuild.extra["threads"] = threads;
              rebuild.extra["gains"] = "rebuild";
              SolverRunOptions incremental = rebuild;
              incremental.extra["gains"] = "incremental";
              auto a = registry.SolveCra(algo, instance, rebuild);
              auto b = registry.SolveCra(algo, instance, incremental);
              ASSERT_TRUE(a.ok()) << a.status().ToString();
              ASSERT_TRUE(b.ok()) << b.status().ToString();
              ExpectSameAssignment(*a, *b);
            }
          }
        }
      }
    }
  }
}

// δp ∤ δr exercises the relaxed-capacity retry inside the stage loop, and
// conflicts exercise the COI masking, in both modes.
TEST(GainCacheTest, ModesAgreeWithConflictsAndUnevenWorkload) {
  Instance instance = PoolInstance(8, 10, 3, 402, /*topic_density=*/1.0,
                                   /*workload=*/4);
  for (int r = 0; r < 4; ++r) instance.AddConflict(r, 0);
  instance.AddConflict(5, 3);
  SdgaOptions rebuild;
  rebuild.gains = GainMode::kRebuild;
  SdgaOptions incremental;
  incremental.gains = GainMode::kIncremental;
  auto a = SolveCraSdga(instance, rebuild);
  auto b = SolveCraSdga(instance, incremental);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameAssignment(*a, *b);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(std::count(b->GroupFor(0).begin(), b->GroupFor(0).end(), r), 0)
        << "conflicted reviewer " << r << " assigned";
  }
}

// Add-epoch unit: after committed Adds, a patched cache must equal a cache
// built from scratch against the mutated assignment — every scaled entry.
TEST(GainCacheTest, AddEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 2, 404, /*topic_density=*/0.3);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int r = p % instance.num_reviewers();
    ASSERT_TRUE(assignment.Add(p, r).ok());
    cache.NoteAdd(p, r);
  }
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
  // On a sparse instance the patch is targeted: far fewer entries than a
  // full P×R rebuild touches.
  EXPECT_GT(cache.patched_entries(), 0);
  EXPECT_LT(cache.patched_entries(),
            static_cast<int64_t>(instance.num_papers()) *
                instance.num_reviewers());
}

// SRA removal epoch: a Remove lowers group maxima (where the victim held
// them); the patched cache must again equal a fresh build.
TEST(GainCacheTest, RemovalEpochPatchesMatchFreshBuild) {
  Instance instance = PoolInstance(12, 8, 3, 405, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.NoteRemove(p, victim);
  }
  cache.Refresh(assignment, &pool);

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// The Note(paper, reviewer) funnel is direction-less by design (see the
// header doc at NoteAdd/NoteRemove): Refresh diffs the group vector
// against its snapshot, so a remove-then-re-add epoch — whose net group
// vectors are unchanged at some papers and changed at others — must
// refresh back to the bit-identical cache a from-scratch build produces,
// without a full rebuild.
TEST(GainCacheTest, NoteDirectionIsIrrelevant) {
  Instance instance = PoolInstance(12, 8, 3, 409, /*topic_density=*/0.3);
  auto solved = SolveCraSdga(instance);
  ASSERT_TRUE(solved.ok());
  Assignment assignment = *solved;
  ThreadPool pool(1);
  GainCache cache(&instance);
  cache.Refresh(assignment, &pool);
  ASSERT_EQ(cache.full_builds(), 1);
  for (int p = 0; p < instance.num_papers(); ++p) {
    const int victim = assignment.GroupFor(p).front();
    ASSERT_TRUE(assignment.Remove(p, victim).ok());
    cache.NoteRemove(p, victim);
    if (p % 2 == 0) {
      // Re-add the same reviewer: the group vector lands back exactly
      // where it was, and the second note adds no information the first
      // did not already carry.
      ASSERT_TRUE(assignment.Add(p, victim).ok());
      cache.NoteAdd(p, victim);
    }
  }
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.full_builds(), 1);  // patched, not rebuilt

  GainCache fresh(&instance);
  fresh.Refresh(assignment, &pool);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      ASSERT_EQ(cache.ScaledGain(p, r), fresh.ScaledGain(p, r))
          << "(" << p << ", " << r << ")";
    }
  }
}

// Add and removal epochs for every scoring function, on sparse views and
// on dense storage of sparse data (papers with zero-weight topics, which
// lane rows skip for c, cP and cD; cR scores cell by cell): the patched
// cache equals a fresh build cell by cell.
TEST(GainCacheTest, EpochPatchesMatchFreshBuildForEveryScoring) {
  for (ScoringFunction scoring :
       {ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
        ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct}) {
    for (bool views : {true, false}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(ScoringFunctionName(scoring) +
                     (views ? " sparse views" : " dense storage") +
                     " threads=" + std::to_string(threads));
        PoolShape shape;
        shape.reviewers = 16;
        shape.papers = 12;
        shape.seed = 410;
        shape.topic_density = 0.3;
        shape.sparse_views = views;
        shape.scoring = scoring;
        Instance instance = MakePool(shape);
        AddBids(&instance, 11);
        instance.AddConflict(/*reviewer=*/2, /*paper=*/1);
        ThreadPool pool(threads);

        // Add epoch: one committed reviewer per paper on an empty cache.
        Assignment assignment(&instance);
        GainCache cache(&instance);
        cache.Refresh(assignment, &pool);
        for (int p = 0; p < instance.num_papers(); ++p) {
          const int r = (p + 3) % instance.num_reviewers();
          ASSERT_TRUE(assignment.Add(p, r).ok());
          cache.NoteAdd(p, r);
        }
        cache.Refresh(assignment, &pool);
        EXPECT_EQ(cache.full_builds(), 1);
        // Lane rows only on dense storage, and never for cR.
        EXPECT_EQ(cache.lane_rows() > 0,
                  !views && scoring != ScoringFunction::kReviewerCoverage);
        ExpectCacheMatchesFreshBuild(cache, assignment, &pool);

        // Removal epoch on a solved assignment.
        auto solved = SolveCraSdga(instance);
        ASSERT_TRUE(solved.ok()) << solved.status().ToString();
        Assignment complete = *solved;
        GainCache round(&instance);
        round.Refresh(complete, &pool);
        for (int p = 0; p < instance.num_papers(); ++p) {
          const int victim = complete.GroupFor(p)[p % 3];
          ASSERT_TRUE(complete.Remove(p, victim).ok());
          round.NoteRemove(p, victim);
        }
        round.Refresh(complete, &pool);
        EXPECT_EQ(round.full_builds(), 1);
        ExpectCacheMatchesFreshBuild(round, complete, &pool);
      }
    }
  }
}

// COI pairs carry the sentinel and assemble as forbidden; an exhausted
// reviewer's whole column assembles as forbidden; live entries round-trip
// the exact scaled integer the rebuild path would hand the LAP.
TEST(GainCacheTest, ConflictAndExhaustedReviewerMasking) {
  Instance instance = PoolInstance(6, 4, 2, 406);
  instance.AddConflict(/*reviewer=*/2, /*paper=*/1);
  ThreadPool pool(1);
  Assignment assignment(&instance);
  ASSERT_TRUE(assignment.Add(0, 3).ok());
  GainCache cache(&instance);
  cache.NoteAdd(0, 3);
  cache.Refresh(assignment, &pool);
  EXPECT_EQ(cache.ScaledGain(1, 2), GainCache::kConflictSentinel);

  std::vector<int> papers;
  for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
  std::vector<int> capacity(instance.num_reviewers(),
                            instance.reviewer_workload());
  capacity[4] = 0;  // exhausted
  Matrix profit;
  cache.AssembleStageProfit(papers, capacity, assignment, &pool, &profit);
  ASSERT_EQ(profit.rows(), instance.num_papers());
  ASSERT_EQ(profit.cols(), instance.num_reviewers());
  EXPECT_EQ(profit(1, 2), la::kTransportForbidden);  // COI
  for (int p = 0; p < instance.num_papers(); ++p) {
    EXPECT_EQ(profit(p, 4), la::kTransportForbidden);  // no capacity
  }
  EXPECT_EQ(profit(0, 3), la::kTransportForbidden);  // already assigned
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r = 0; r < instance.num_reviewers(); ++r) {
      if (profit(p, r) == la::kTransportForbidden) continue;
      // What the LAP re-quantizes must be the stored integer, and that
      // integer must be what a rebuild's fresh gain would scale to.
      EXPECT_EQ(la::ScaleTransportProfit(profit(p, r)),
                cache.ScaledGain(p, r));
      EXPECT_EQ(cache.ScaledGain(p, r),
                la::ScaleTransportProfit(assignment.MarginalGain(p, r)));
    }
  }
}

// ReplacementFoldCache unit: cached leave-one-out folds reproduce
// Assignment::ScoreWithReplacement bit for bit — dense and sparse, with
// bids in the mix.
TEST(GainCacheTest, ReplacementFoldCacheMatchesScoreWithReplacement) {
  for (double density : {1.0, 0.3}) {
    SCOPED_TRACE("density=" + std::to_string(density));
    Instance instance = PoolInstance(10, 6, 3, 407, density);
    Matrix bids(instance.num_papers(), instance.num_reviewers());
    Rng rng(21);
    for (int p = 0; p < bids.rows(); ++p) {
      for (int r = 0; r < bids.cols(); ++r) bids(p, r) = rng.NextDouble();
    }
    ASSERT_TRUE(instance.SetBids(std::move(bids), 0.25).ok());
    auto solved = SolveCraSdga(instance);
    ASSERT_TRUE(solved.ok());
    const Assignment& assignment = *solved;
    ThreadPool pool(4);
    ReplacementFoldCache folds(&instance);
    std::vector<int> papers;
    for (int p = 0; p < instance.num_papers(); ++p) papers.push_back(p);
    folds.Prepare(assignment, papers, &pool);
    std::vector<double> scratch;
    for (int p = 0; p < instance.num_papers(); ++p) {
      for (int drop : assignment.GroupFor(p)) {
        for (int add = 0; add < instance.num_reviewers(); ++add) {
          if (add == drop || assignment.Contains(p, add)) continue;
          EXPECT_EQ(folds.Score(p, drop, add),
                    assignment.ScoreWithReplacement(p, drop, add, &scratch))
              << "p=" << p << " drop=" << drop << " add=" << add;
        }
      }
    }
  }
}

// The incremental path is itself thread-count invariant (the rebuild
// equivalence above pins it to the rebuild path at each thread count; this
// pins incremental-1 to incremental-8 directly on a sparse instance).
TEST(GainCacheTest, IncrementalModeIsThreadCountInvariant) {
  Instance instance = PoolInstance(16, 12, 3, 408, /*topic_density=*/0.25);
  const auto& registry = SolverRegistry::Default();
  for (const char* algo : {"sdga", "sdga-sra"}) {
    SCOPED_TRACE(algo);
    SolverRunOptions one;
    one.seed = 5;
    one.extra["gains"] = "incremental";
    one.extra["threads"] = "1";
    SolverRunOptions eight = one;
    eight.extra["threads"] = "8";
    auto a = registry.SolveCra(algo, instance, one);
    auto b = registry.SolveCra(algo, instance, eight);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameAssignment(*a, *b);
  }
}

}  // namespace
}  // namespace wgrap::core
