// Metrics tests: ideal assignment dominance and bit-exactness against the
// per-reviewer reference scan, optimality/superiority ratios (including
// the undefined ratio at c(AI) = 0), lowest coverage, Fig. 7 closed
// forms, and the case-study report.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/string_util.h"
#include "core/case_study.h"
#include "core/cra.h"
#include "core/metrics.h"
#include "data/synthetic_dblp.h"
#include "fuzz_util.h"
#include "service/reports.h"

namespace wgrap::core {
namespace {

struct Fixture {
  data::RapDataset dataset;
  Instance instance;
};

Fixture MakeFixture(int reviewers, int papers, int group_size, uint64_t seed) {
  data::SyntheticDblpConfig config;
  config.num_topics = 8;
  config.seed = seed;
  auto dataset = data::GenerateReviewerPool(reviewers, papers, config);
  EXPECT_TRUE(dataset.ok());
  InstanceParams params;
  params.group_size = group_size;
  auto instance = Instance::FromDataset(*dataset, params);
  EXPECT_TRUE(instance.ok());
  return Fixture{std::move(dataset).value(), std::move(instance).value()};
}

TEST(IdealAssignmentTest, DominatesEveryFeasibleSolver) {
  Fixture f = MakeFixture(10, 8, 3, 91);
  auto ideal = BuildIdealAssignment(f.instance);
  ASSERT_TRUE(ideal.ok());
  auto greedy = SolveCraGreedy(f.instance);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(greedy.ok() && sdga.ok());
  EXPECT_GE(ideal->TotalScore(), greedy->TotalScore() - 1e-9);
  EXPECT_GE(ideal->TotalScore(), sdga->TotalScore() - 1e-9);
  // Per-paper: the ideal group is at least as good as any feasible group.
  for (int p = 0; p < f.instance.num_papers(); ++p) {
    EXPECT_GE(ideal->PaperScore(p), sdga->PaperScore(p) - 1e-9);
  }
}

TEST(IdealAssignmentTest, IgnoresWorkloads) {
  // One super-expert: the ideal assignment reuses them for every paper.
  data::RapDataset dataset;
  dataset.num_topics = 2;
  dataset.reviewers.push_back({"star", {0.5, 0.5}, 1});
  dataset.reviewers.push_back({"weak", {0.98, 0.02}, 1});
  for (int i = 0; i < 4; ++i) {
    dataset.papers.push_back({"p", {0.5, 0.5}, "V"});
  }
  InstanceParams params;
  params.group_size = 1;
  params.reviewer_workload = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  auto ideal = BuildIdealAssignment(*instance);
  ASSERT_TRUE(ideal.ok());
  EXPECT_EQ(ideal->LoadOf(0), 4);  // far above δr = 2
  EXPECT_NEAR(ideal->TotalScore(), 4.0, 1e-9);
}

// The per-reviewer scan BuildIdealAssignment ran before the lane kernel:
// one Assignment::MarginalGain call per eligible reviewer and pick, the
// lowest-index strict maximum wins. Kept as the bit-exactness oracle.
Result<Assignment> ReferenceIdeal(const Instance& instance) {
  Assignment ideal(&instance);
  const int R = instance.num_reviewers();
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int pick = 0; pick < instance.group_size(); ++pick) {
      int best = -1;
      double best_gain = -1.0;
      for (int r = 0; r < R; ++r) {
        if (ideal.Contains(p, r) || instance.IsConflict(r, p)) continue;
        const double gain = ideal.MarginalGain(p, r);
        if (gain > best_gain) {
          best_gain = gain;
          best = r;
        }
      }
      if (best < 0) return Status::Infeasible("not enough eligible reviewers");
      WGRAP_RETURN_IF_ERROR(ideal.AddUnchecked(p, best));
    }
  }
  return ideal;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

enum class PoolKind { kDense, kTieHeavySparse, kCoiHeavy };

// A 30-paper pool of one of three shapes: dense T=30 profiles; T=100
// profiles with 3 topics each (nnz/T = 0.03, so most reviewers have zero
// gain on a paper) plus exact duplicates of the first 10 reviewers (ties
// at positive gain); or dense profiles with 40% of the pairs conflicted.
// Reviewer counts are not multiples of the 4-lane width.
Result<Instance> MakeIdealCase(PoolKind kind, ScoringFunction scoring,
                               bool sparse_views, bool bids, int group_size,
                               uint64_t seed) {
  data::SyntheticDblpConfig dblp;
  dblp.seed = seed;
  int reviewers = 37;
  if (kind == PoolKind::kTieHeavySparse) {
    dblp.num_topics = 100;
    dblp.topic_density = 0.03;
    reviewers = 43;
  }
  auto dataset = data::GenerateReviewerPool(reviewers, 30, dblp);
  WGRAP_RETURN_IF_ERROR(dataset.status());
  if (kind == PoolKind::kTieHeavySparse) {
    for (int r = 0; r < 10; ++r) {
      dataset->reviewers.push_back(dataset->reviewers[r]);
    }
  }
  FuzzInstanceConfig perturb;
  perturb.reviewers = static_cast<int>(dataset->reviewers.size());
  perturb.papers = 30;
  perturb.conflict_rate = kind == PoolKind::kCoiHeavy ? 0.4 : 0.0;
  perturb.with_bids = bids;
  perturb.seed = seed;
  InstanceParams params;
  params.group_size = group_size;
  params.scoring = scoring;
  auto instance = Instance::FromDataset(*dataset, params);
  WGRAP_RETURN_IF_ERROR(instance.status());
  // Explicit either way, so a WGRAP_SPARSE_TOPICS=1 run still covers the
  // dense views.
  if (sparse_views) {
    instance->BuildSparseTopics();
  } else {
    instance->DropSparseTopics();
  }
  WGRAP_RETURN_IF_ERROR(PerturbInstance(perturb, &*instance));
  return instance;
}

TEST(IdealAssignmentTest, BitIdenticalToReferenceScan) {
  constexpr ScoringFunction kScorings[] = {
      ScoringFunction::kWeightedCoverage, ScoringFunction::kReviewerCoverage,
      ScoringFunction::kPaperCoverage, ScoringFunction::kDotProduct};
  constexpr PoolKind kKinds[] = {PoolKind::kDense, PoolKind::kTieHeavySparse,
                                 PoolKind::kCoiHeavy};
  int cases = 0;
  uint64_t seed = 500;
  for (const PoolKind kind : kKinds) {
    for (const ScoringFunction scoring : kScorings) {
      for (const bool sparse_views : {false, true}) {
        for (const bool bids : {false, true}) {
          for (const int group_size : {1, 3, 5}) {
            ++seed;
            const std::string label = StrFormat(
                "kind=%d f=%s sparse=%d bids=%d dp=%d",
                static_cast<int>(kind), ScoringFunctionName(scoring).c_str(),
                sparse_views, bids, group_size);
            auto instance = MakeIdealCase(kind, scoring, sparse_views, bids,
                                          group_size, seed);
            ASSERT_TRUE(instance.ok())
                << label << ": " << instance.status().ToString();
            auto got = BuildIdealAssignment(*instance);
            auto want = ReferenceIdeal(*instance);
            ASSERT_EQ(got.ok(), want.ok()) << label;
            if (!want.ok()) continue;
            ++cases;
            for (int p = 0; p < instance->num_papers(); ++p) {
              ASSERT_EQ(got->GroupFor(p), want->GroupFor(p))
                  << label << " p=" << p;
              ASSERT_EQ(Bits(got->PaperScore(p)), Bits(want->PaperScore(p)))
                  << label << " p=" << p;
            }
            ASSERT_EQ(Bits(got->TotalScore()), Bits(want->TotalScore()))
                << label;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 4 * 2 * 2 * 3);  // no case fell back to Infeasible
}

TEST(IdealAssignmentTest, TieHeavyPoolPicksLowestIndexZeroGainReviewers) {
  // nnz/T = 0.03: once a paper's few topics are covered, every remaining
  // reviewer has gain 0 and the lowest eligible index must be picked.
  auto instance = MakeIdealCase(PoolKind::kTieHeavySparse,
                                ScoringFunction::kWeightedCoverage,
                                /*sparse_views=*/true, /*bids=*/false,
                                /*group_size=*/5, /*seed=*/7);
  ASSERT_TRUE(instance.ok());
  auto ideal = BuildIdealAssignment(*instance);
  ASSERT_TRUE(ideal.ok());
  int zero_gain_picks = 0;
  for (int p = 0; p < instance->num_papers(); ++p) {
    Assignment replay(&*instance);
    for (const int r : ideal->GroupFor(p)) {
      if (replay.MarginalGain(p, r) == 0.0) {
        ++zero_gain_picks;
        // r is the lowest-index reviewer not yet in the group.
        for (int lower = 0; lower < r; ++lower) {
          EXPECT_TRUE(replay.Contains(p, lower)) << "p=" << p << " r=" << r;
        }
      }
      ASSERT_TRUE(replay.AddUnchecked(p, r).ok());
    }
  }
  EXPECT_GT(zero_gain_picks, 0);
}

TEST(IdealAssignmentTest, DisjointTopicsGiveZeroBoundAndUndefinedRatio) {
  // Valid input (every vector has positive mass) where no reviewer shares
  // a topic with any paper: c(AI) = 0, so the optimality ratio is
  // undefined — it must be reported as such, not abort the process.
  data::RapDataset dataset;
  dataset.num_topics = 2;
  for (int r = 0; r < 4; ++r) {
    dataset.reviewers.push_back({StrFormat("r%d", r), {1.0, 0.0}, 1});
  }
  for (int p = 0; p < 2; ++p) {
    dataset.papers.push_back({StrFormat("p%d", p), {0.0, 1.0}, "V"});
  }
  InstanceParams params;
  params.group_size = 2;
  auto instance = Instance::FromDataset(dataset, params);
  ASSERT_TRUE(instance.ok());
  auto ideal = BuildIdealAssignment(*instance);
  ASSERT_TRUE(ideal.ok());
  EXPECT_EQ(ideal->TotalScore(), 0.0);
  EXPECT_FALSE(OptimalityRatio(*ideal, *ideal).has_value());
  const std::string report = service::EvaluationReport(*instance, *ideal);
  EXPECT_NE(report.find("optimality ratio: n/a\n"), std::string::npos)
      << report;
  const std::string line =
      service::SolveReportLine("sdga", *instance, *ideal, "");
  EXPECT_NE(line.find("(optimality n/a)"), std::string::npos) << line;
}

TEST(MetricsTest, OptimalityRatioInUnitRange) {
  Fixture f = MakeFixture(10, 8, 3, 92);
  auto ideal = BuildIdealAssignment(f.instance);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(ideal.ok() && sdga.ok());
  const std::optional<double> ratio = OptimalityRatio(*sdga, *ideal);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_GT(*ratio, 0.0);
  EXPECT_LE(*ratio, 1.0 + 1e-12);
  EXPECT_DOUBLE_EQ(OptimalityRatio(*ideal, *ideal).value(), 1.0);
}

TEST(MetricsTest, SuperiorityRatioReflexive) {
  Fixture f = MakeFixture(8, 6, 2, 93);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const Superiority s = SuperiorityRatio(*sdga, *sdga);
  EXPECT_DOUBLE_EQ(s.better_or_equal, 1.0);
  EXPECT_DOUBLE_EQ(s.tie, 1.0);
}

TEST(MetricsTest, SuperiorityOfIdealIsTotal) {
  Fixture f = MakeFixture(8, 6, 2, 94);
  auto ideal = BuildIdealAssignment(f.instance);
  auto greedy = SolveCraGreedy(f.instance);
  ASSERT_TRUE(ideal.ok() && greedy.ok());
  EXPECT_DOUBLE_EQ(SuperiorityRatio(*ideal, *greedy).better_or_equal, 1.0);
}

TEST(MetricsTest, LowestCoverageIsMinimum) {
  Fixture f = MakeFixture(8, 6, 2, 95);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const double lowest = LowestCoverage(*sdga);
  for (int p = 0; p < f.instance.num_papers(); ++p) {
    EXPECT_LE(lowest, sdga->PaperScore(p) + 1e-12);
  }
  EXPECT_GE(lowest, 0.0);
}

TEST(Fig7ClosedFormsTest, MatchPaperValues) {
  // Integral case: 1 - (1 - 1/δp)^δp; general: exponent δp - 1.
  EXPECT_NEAR(SdgaRatioIntegral(2), 0.75, 1e-12);
  EXPECT_NEAR(SdgaRatioGeneral(2), 0.5, 1e-12);       // Theorem 2 floor
  EXPECT_NEAR(SdgaRatioGeneral(3), 5.0 / 9.0, 1e-12); // quoted in Sec. 4.3
  EXPECT_NEAR(SdgaRatioGeneral(5), 0.5904, 1e-4);     // quoted in Sec. 4.3
  // Monotone increasing in δp, approaching 1 - 1/e.
  for (int dp = 2; dp < 10; ++dp) {
    EXPECT_LT(SdgaRatioGeneral(dp), SdgaRatioGeneral(dp + 1));
    EXPECT_GE(SdgaRatioGeneral(dp), 0.5 - 1e-12);
  }
  EXPECT_NEAR(SdgaRatioIntegral(1000), 1.0 - 1.0 / M_E, 1e-3);
}

TEST(CaseStudyTest, TopTopicsSortedByPaperWeight) {
  Fixture f = MakeFixture(6, 4, 2, 96);
  const auto top = TopTopics(f.instance, 0, 5);
  ASSERT_EQ(top.size(), 5u);
  const double* pv = f.instance.PaperVector(0);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(pv[top[i - 1]], pv[top[i]]);
  }
}

TEST(CaseStudyTest, ReportContainsPaperAndGroupRows) {
  Fixture f = MakeFixture(6, 4, 2, 97);
  auto sdga = SolveCraSdga(f.instance);
  ASSERT_TRUE(sdga.ok());
  const auto report = BuildCaseStudy(f.instance, *sdga, f.dataset, 0, 5);
  ASSERT_EQ(report.rows.size(), 1u + 2u);  // paper + δp reviewers
  EXPECT_EQ(report.rows[0].label, "Paper");
  EXPECT_EQ(report.rows[0].weights.size(), 5u);
  EXPECT_NEAR(report.group_score, sdga->PaperScore(0), 1e-12);
  const std::string text = FormatCaseStudy(report, "SDGA");
  EXPECT_NE(text.find("SDGA (Score ="), std::string::npos);
  EXPECT_NE(text.find("Paper"), std::string::npos);
}

}  // namespace
}  // namespace wgrap::core
