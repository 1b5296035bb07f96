// Figure 16 (Appendix C): the effect of the convergence threshold ω on
// SDGA-SRA (δp = 3): assignment quality (optimality ratio, bars) and
// response time (line). Expected shape (paper): quality creeps up with ω
// while time grows faster; ω = 10 is the chosen trade-off.
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/metrics.h"

int main() {
  using namespace wgrap;
  // The paper runs DB08/DM08; at those scales a refinement round costs ~1 s
  // and the omega sweep is dominated by any practical time cap, which hides
  // the trend. The Theory datasets have the same shape at a quarter of the
  // round cost, letting every omega run to natural convergence.
  std::printf("=== Figure 16: the effect of omega (dp = 3; T08/T09 scale, "
              "run to convergence) ===\n\n");
  for (int year : {2008, 2009}) {
    auto setup = bench::MakeConference(data::Area::kTheory, year,
                                       /*group_size=*/3);
    auto ideal = core::BuildIdealAssignment(setup.instance);
    bench::DieOnError(ideal.status(), "ideal");
    auto sdga = core::SolveCraSdga(setup.instance);
    bench::DieOnError(sdga.status(), "SDGA");

    std::printf("--- %s ---\n",
                bench::DatasetLabel(data::Area::kTheory, year).c_str());
    TablePrinter table({"omega", "optimality ratio", "refine time (s)"});
    for (int omega : {2, 5, 10, 20, 40}) {
      core::SraOptions options;
      options.convergence_window = omega;
      options.max_iterations = 500;
      Stopwatch watch;
      auto refined = core::RefineSra(setup.instance, *sdga, options);
      bench::DieOnError(refined.status(), "SRA");
      table.AddRow({std::to_string(omega),
                    TablePrinter::Num(
                        100.0 *
                            core::OptimalityRatio(*refined, *ideal).value(),
                        2) + "%",
                    TablePrinter::Num(watch.ElapsedSeconds(), 1)});
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
