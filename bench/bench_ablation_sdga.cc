// Ablation (DESIGN.md §5): (1) the per-stage workload confinement ⌈δr/δp⌉
// that SDGA's approximation proof relies on — disabling it lets early
// stages exhaust the strongest reviewers; (2) the LAP backend (min-cost
// flow vs the capacitated Jonker–Volgenant "hungarian" backend), which
// must agree on the objective and differ only in speed.
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/metrics.h"

int main() {
  using namespace wgrap;
  std::printf("=== Ablation: SDGA stage confinement and LAP backend ===\n\n");
  TablePrinter table({"dataset", "confined (flow)", "unconfined (flow)",
                      "confined (hungarian)"});
  for (data::Area area : {data::Area::kDatabases, data::Area::kDataMining}) {
    auto setup = bench::MakeConference(area, 2008, /*group_size=*/3);
    auto ideal = core::BuildIdealAssignment(setup.instance);
    bench::DieOnError(ideal.status(), "ideal");

    auto run = [&](core::SdgaOptions options) {
      Stopwatch watch;
      auto assignment = core::SolveCraSdga(setup.instance, options);
      bench::DieOnError(assignment.status(), "SDGA");
      return StrFormat("%.2f%% in %.1fs",
                       100.0 * core::OptimalityRatio(*assignment, *ideal),
                       watch.ElapsedSeconds());
    };
    core::SdgaOptions confined_flow;
    confined_flow.backend = core::LapBackend::kMinCostFlow;
    core::SdgaOptions unconfined_flow = confined_flow;
    unconfined_flow.confine_stage_workload = false;
    core::SdgaOptions confined_hungarian;
    confined_hungarian.backend = core::LapBackend::kHungarian;
    table.AddRow({bench::DatasetLabel(area, 2008), run(confined_flow),
                  run(unconfined_flow), run(confined_hungarian)});
  }
  table.Print();
  std::printf("\nExpected: confinement >= unconfined quality (it reserves "
              "experts for tail stages, Sec. 4.2 example); backends agree "
              "on quality and differ in time.\n");
  return 0;
}
