// Transportation tests: equivalence with Hungarian when all capacities
// are 1, capacity handling, demand > 1, forbidden pairs, infeasibility
// detection, the int64 headroom guard, and a tie-heavy randomized sweep of
// the Jonker–Volgenant solver against the min-cost-flow reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "la/hungarian.h"
#include "la/transportation.h"
#include "obs/metrics.h"

namespace wgrap::la {
namespace {

TEST(TransportationTest, SimpleTwoByTwo) {
  Matrix profit(2, 2);
  profit.At(0, 0) = 0.9;
  profit.At(0, 1) = 0.1;
  profit.At(1, 0) = 0.8;
  profit.At(1, 1) = 0.7;
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 0);
  EXPECT_EQ(result->task_to_agent[1], 1);
  EXPECT_NEAR(result->profit, 1.6, 1e-9);
}

TEST(TransportationTest, CapacityAllowsReuse) {
  // One strong agent with capacity 2 should take both tasks.
  Matrix profit(2, 2);
  profit.At(0, 0) = 1.0;
  profit.At(0, 1) = 0.1;
  profit.At(1, 0) = 1.0;
  profit.At(1, 1) = 0.1;
  auto result = SolveTransportation(profit, {2, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 0);
  EXPECT_EQ(result->task_to_agent[1], 0);
}

TEST(TransportationTest, CapacityForcesSpread) {
  Matrix profit(2, 2);
  profit.At(0, 0) = 1.0;
  profit.At(0, 1) = 0.9;
  profit.At(1, 0) = 1.0;
  profit.At(1, 1) = 0.1;
  // Agent 0 can take only one; the optimal split gives task 0 to agent 1.
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 1);
  EXPECT_EQ(result->task_to_agent[1], 0);
  EXPECT_NEAR(result->profit, 1.9, 1e-9);
}

TEST(TransportationTest, InsufficientCapacityInfeasible) {
  Matrix profit(3, 2, 1.0);
  auto result = SolveTransportation(profit, {1, 1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(TransportationTest, ForbiddenPairAvoided) {
  Matrix profit(2, 2, 0.5);
  profit.At(0, 0) = kTransportForbidden;
  auto result = SolveTransportation(profit, {1, 1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->task_to_agent[0], 1);
}

TEST(TransportationTest, AllForbiddenForTaskInfeasible) {
  Matrix profit(1, 2, kTransportForbidden);
  auto result = SolveTransportation(profit, {1, 1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(TransportationTest, DemandAssignsDistinctAgents) {
  Matrix profit(1, 4);
  for (int a = 0; a < 4; ++a) profit.At(0, a) = 0.1 * (a + 1);
  auto result = SolveTransportationWithDemand(profit, {1, 1, 1, 1}, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->task_to_agents[0].size(), 3u);
  // Best three agents: 1, 2, 3.
  EXPECT_NEAR(result->profit, 0.2 + 0.3 + 0.4, 1e-9);
}

TEST(TransportationTest, ZeroDemandIsEmpty) {
  Matrix profit(2, 2, 1.0);
  auto result = SolveTransportationWithDemand(profit, {1, 1}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->task_to_agents[0].empty());
  EXPECT_DOUBLE_EQ(result->profit, 0.0);
}

// Regression for the int64 profit-scaling hardening: profits at the
// documented boundary still solve, anything beyond it (other than the
// forbidden marker, which is skipped before scaling) is rejected with
// kInvalidArgument instead of silently scaling into garbage.
TEST(TransportationTest, RejectsProfitsOutsideScalableRange) {
  Matrix at_boundary(1, 2, 0.5);
  at_boundary.At(0, 0) = kMaxTransportProfit;
  at_boundary.At(0, 1) = -kMaxTransportProfit;
  auto ok = SolveTransportation(at_boundary, {1, 1});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->task_to_agent[0], 0);

  for (const double bad :
       {kMaxTransportProfit * (1.0 + 1e-6), -2e6,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    Matrix profit(1, 2, 0.5);
    profit.At(0, 0) = bad;
    auto rejected = SolveTransportation(profit, {1, 1});
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }

  // The forbidden marker is not a profit — still accepted (skipped).
  Matrix with_forbidden(1, 2, 0.5);
  with_forbidden.At(0, 0) = kTransportForbidden;
  auto skipped = SolveTransportation(with_forbidden, {1, 1});
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->task_to_agent[0], 1);
}

int64_t ScaledObjective(const Matrix& profit,
                        const std::vector<int>& task_to_agent) {
  int64_t total = 0;
  for (int t = 0; t < profit.rows(); ++t) {
    total += ScaleTransportProfit(profit.At(t, task_to_agent[t]));
  }
  return total;
}

// The Jonker–Volgenant distances and potentials stay within
// (2T+2)·max|scaled profit|, which must not pass INT64_MAX/4. At the
// largest admitted |profit| (1e15 scaled) that holds up to T = 1151.
TEST(TransportationTest, RejectsProfitsBeyondInt64Headroom) {
  for (const int tasks : {1151, 1152}) {
    // Even tasks want agent 0, odd tasks agent 1; agent 0 is one slot
    // short, so one even task must take its -1e6 pair.
    Matrix profit(tasks, 2);
    for (int t = 0; t < tasks; ++t) {
      const double sign = t % 2 == 0 ? 1.0 : -1.0;
      profit.At(t, 0) = sign * kMaxTransportProfit;
      profit.At(t, 1) = -sign * kMaxTransportProfit;
    }
    const int evens = (tasks + 1) / 2;
    auto solved = SolveTransportation(profit, {evens - 1, tasks - evens + 1});
    if (tasks == 1151) {
      ASSERT_TRUE(solved.ok()) << solved.status().ToString();
      const int64_t scaled_max = ScaleTransportProfit(kMaxTransportProfit);
      EXPECT_EQ(ScaledObjective(profit, solved->task_to_agent),
                (tasks - 2) * scaled_max);
    } else {
      ASSERT_FALSE(solved.ok());
      EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
    }
  }
  // The guard scales with the profits: unit-range profits at the same
  // task count are far inside it.
  auto small = SolveTransportation(Matrix(1152, 2, 0.5), {576, 576});
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST(TransportationTest, CountsAugmentationsAndSettledAgents) {
  obs::Counter* augmentations =
      obs::Registry::Global().GetCounter("wgrap_lap_augmentations_total");
  obs::Counter* settled =
      obs::Registry::Global().GetCounter("wgrap_lap_settled_agents_total");
  if (augmentations == nullptr || settled == nullptr) {
    GTEST_SKIP() << "telemetry disabled";
  }
  // Saturated 3×3 with every task preferring agent 0: the second and
  // third tasks must reroute, so they settle more than one agent.
  Matrix profit(3, 3, 0.1);
  for (int t = 0; t < 3; ++t) profit.At(t, 0) = 0.9;
  const int64_t augmentations_before = augmentations->Value();
  const int64_t settled_before = settled->Value();
  ASSERT_TRUE(SolveTransportation(profit, {1, 1, 1}).ok());
  EXPECT_EQ(augmentations->Value() - augmentations_before, 3);
  const int64_t settled_once = settled->Value() - settled_before;
  EXPECT_GT(settled_once, 3);
  // Deterministic: the same solve does the same work.
  ASSERT_TRUE(SolveTransportation(profit, {1, 1, 1}).ok());
  EXPECT_EQ(settled->Value() - settled_before, 2 * settled_once);
}

// Tie-heavy randomized sweep of the Jonker–Volgenant solver against the
// min-cost-flow reference: profits on a {0, .25, .5, .75} grid (so most
// instances have many tied optima), forbidden density 0–0.6, agents with
// zero capacity, and slack as well as exactly saturated capacities.
TEST(TransportationTest, TieHeavySweepMatchesMinCostFlow) {
  Rng rng(20261018);
  int feasible = 0;
  int infeasible = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const bool large = iter % 8 == 7;
    const int tasks = rng.NextInt(0, large ? 40 : 12);
    const int agents = rng.NextInt(1, large ? 30 : 9);
    const double forbidden = 0.6 * rng.NextDouble();
    Matrix profit(tasks, agents, kTransportForbidden);
    for (int t = 0; t < tasks; ++t) {
      for (int a = 0; a < agents; ++a) {
        if (rng.NextDouble() < forbidden) continue;
        profit.At(t, a) = 0.25 * rng.NextInt(0, 3);
      }
    }
    std::vector<int> capacity(agents, 0);
    if (iter % 2 == 0) {
      for (int a = 0; a < agents; ++a) capacity[a] = rng.NextInt(0, 4);
    } else {
      // Saturated: exactly `tasks` units spread over the agents, which
      // leaves some of them at zero.
      for (int u = 0; u < tasks; ++u) ++capacity[rng.NextBounded(agents)];
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    auto jv = SolveTransportation(profit, capacity);
    auto mcf = SolveTransportationWithDemand(profit, capacity, 1);
    ASSERT_EQ(jv.ok(), mcf.ok()) << jv.status().ToString() << " vs "
                                 << mcf.status().ToString();
    if (!mcf.ok()) {
      EXPECT_EQ(jv.status().code(), StatusCode::kInfeasible);
      EXPECT_EQ(mcf.status().code(), StatusCode::kInfeasible);
      ++infeasible;
      continue;
    }
    ++feasible;
    std::vector<int> mcf_agent(tasks);
    for (int t = 0; t < tasks; ++t) mcf_agent[t] = mcf->task_to_agents[t][0];
    EXPECT_EQ(ScaledObjective(profit, jv->task_to_agent),
              ScaledObjective(profit, mcf_agent));
    ASSERT_EQ(static_cast<int>(jv->task_to_agent.size()), tasks);
    std::vector<int> load(agents, 0);
    for (int t = 0; t < tasks; ++t) {
      const int a = jv->task_to_agent[t];
      ASSERT_GE(a, 0);
      ASSERT_LT(a, agents);
      EXPECT_GT(profit.At(t, a), kTransportForbidden / 2) << "task " << t;
      ++load[a];
    }
    for (int a = 0; a < agents; ++a) EXPECT_LE(load[a], capacity[a]);
    auto repeat = SolveTransportation(profit, capacity);
    ASSERT_TRUE(repeat.ok());
    EXPECT_EQ(repeat->task_to_agent, jv->task_to_agent);
    EXPECT_EQ(repeat->profit, jv->profit);
  }
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 500);
}

class TransportationVsHungarianTest : public ::testing::TestWithParam<int> {};

TEST_P(TransportationVsHungarianTest, UnitCapacitiesMatchHungarian) {
  Rng rng(3000 + GetParam());
  const int tasks = 2 + GetParam() % 4;
  const int agents = tasks + GetParam() % 3;
  Matrix profit(tasks, agents);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) profit.At(t, a) = rng.NextDouble();
  }
  auto transport = SolveTransportation(profit, std::vector<int>(agents, 1));
  auto hungarian = SolveMaxProfitAssignment(profit);
  ASSERT_TRUE(transport.ok());
  ASSERT_TRUE(hungarian.ok());
  EXPECT_NEAR(transport->profit, hungarian->objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, TransportationVsHungarianTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace wgrap::la
