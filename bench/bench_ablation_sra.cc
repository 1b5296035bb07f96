// Ablation (DESIGN.md §5): the data-driven removal probability of Eq. 10
// vs the uniform model P(r|p) = 1/R that Sec. 4.4 dismisses. Both refine
// the same SDGA start under the same time budget.
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/metrics.h"

int main() {
  using namespace wgrap;
  const double kBudget = 10.0;
  std::printf("=== Ablation: SRA probability model (Eq. 10 vs uniform), "
              "dp = 3, %.0fs budget ===\n\n",
              kBudget);
  TablePrinter table({"dataset", "SDGA start", "SRA (Eq. 10)",
                      "SRA (uniform 1/R)"});
  for (data::Area area : {data::Area::kDatabases, data::Area::kDataMining}) {
    auto setup = bench::MakeConference(area, 2008, /*group_size=*/3);
    auto ideal = core::BuildIdealAssignment(setup.instance);
    bench::DieOnError(ideal.status(), "ideal");
    auto sdga = core::SolveCraSdga(setup.instance);
    bench::DieOnError(sdga.status(), "SDGA");

    auto run = [&](bool uniform) {
      core::SraOptions options;
      options.uniform_probability = uniform;
      options.time_limit_seconds = kBudget;
      options.convergence_window = 1000;  // spend the full budget
      auto refined = core::RefineSra(setup.instance, *sdga, options);
      bench::DieOnError(refined.status(), "SRA");
      return StrFormat(
          "%.2f%%", 100.0 * core::OptimalityRatio(*refined, *ideal).value());
    };
    table.AddRow({bench::DatasetLabel(area, 2008),
                  StrFormat(
                      "%.2f%%",
                      100.0 * core::OptimalityRatio(*sdga, *ideal).value()),
                  run(false), run(true)});
  }
  table.Print();
  std::printf("\nExpected: Eq. 10 converges to a better ratio than the "
              "uniform model under the same budget.\n");
  return 0;
}
