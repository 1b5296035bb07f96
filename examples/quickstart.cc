// Quickstart: assign reviewers to a small synthetic conference with the
// paper's recommended pipeline (SDGA + stochastic refinement) and inspect
// the result.
//
//   build/examples/quickstart
#include <cstdio>

#include "wgrap.h"

int main() {
  using namespace wgrap;

  // 1) Get a dataset: reviewers and papers with topic vectors. Here we
  //    generate a synthetic pool; real deployments would extract vectors
  //    from publication records via the topic/ module (see
  //    examples/conference_assignment.cc).
  data::SyntheticDblpConfig data_config;
  data_config.num_topics = 20;
  auto dataset = data::GenerateReviewerPool(/*num_reviewers=*/40,
                                            /*num_papers=*/60, data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // 2) Build the WGRAP instance: 3 reviewers per paper, minimal balanced
  //    workload (δr = ⌈P·δp/R⌉), weighted-coverage objective.
  core::InstanceParams params;
  params.group_size = 3;
  auto instance = core::Instance::FromDataset(*dataset, params);
  if (!instance.ok()) {
    std::fprintf(stderr, "instance: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  std::printf("instance: %d papers, %d reviewers, T=%d topics, dp=%d, "
              "dr=%d\n",
              instance->num_papers(), instance->num_reviewers(),
              instance->num_topics(), instance->group_size(),
              instance->reviewer_workload());

  // 3) Solve: SDGA (1/2-approximation) + stochastic refinement, dispatched
  //    by name through the solver registry (`wgrap_cli solvers` lists all).
  core::SolverRunOptions options;
  options.time_limit_seconds = 5.0;
  auto assignment = core::SolverRegistry::Default().SolveCra(
      "sdga-sra", *instance, options);
  if (!assignment.ok()) {
    std::fprintf(stderr, "solve: %s\n",
                 assignment.status().ToString().c_str());
    return 1;
  }

  // 4) Inspect: total coverage, the worst-covered paper, one example group.
  auto ideal = core::BuildIdealAssignment(*instance);
  std::printf("total coverage score: %.3f (%.1f%% of the ideal "
              "workload-free assignment)\n",
              assignment->TotalScore(),
              100.0 * core::OptimalityRatio(*assignment, *ideal).value());
  std::printf("lowest per-paper coverage: %.3f\n",
              core::LowestCoverage(*assignment));
  std::printf("\npaper 0 (\"%s\") is reviewed by:\n",
              dataset->papers[0].title.c_str());
  for (int r : assignment->GroupFor(0)) {
    std::printf("  %-28s c(r,p)=%.3f\n", dataset->reviewers[r].name.c_str(),
                instance->PairScore(r, 0));
  }
  std::printf("group coverage c(g,p) = %.3f\n", assignment->PaperScore(0));
  return 0;
}
