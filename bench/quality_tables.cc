#include "quality_tables.h"

#include <cstdio>
#include <map>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/metrics.h"

namespace wgrap::bench {

int RunQualityTables(const QualityConfig& config) {
  const auto methods = PaperCraMethods();

  for (const auto& [area, year] : config.datasets) {
    const std::string label = DatasetLabel(area, year);
    std::printf("--- dataset %s (scoring %s%s) ---\n", label.c_str(),
                core::ScoringFunctionName(config.scoring).c_str(),
                config.scale_by_h_index ? ", h-index scaled" : "");

    TablePrinter optimality({"dp", "SM", "ILP", "BRGG", "Greedy", "SDGA",
                             "SDGA-SRA"});
    TablePrinter superiority(
        {"dp", "vs SM (>=, tie)", "vs ILP (>=, tie)", "vs BRGG (>=, tie)",
         "vs Greedy (>=, tie)"});
    TablePrinter lowest({"dp", "SM", "ILP", "BRGG", "Greedy", "SDGA-SRA"});

    for (int dp : config.group_sizes) {
      auto setup = MakeConference(area, year, dp, config.scoring,
                                  config.scale_by_h_index);
      auto ideal = core::BuildIdealAssignment(setup.instance);
      DieOnError(ideal.status(), "BuildIdealAssignment");

      std::map<std::string, core::Assignment> results;
      std::vector<std::string> opt_row = {std::to_string(dp)};
      for (const auto& method : methods) {
        auto assignment =
            method.run(setup.instance, config.sra_budget_seconds);
        DieOnError(assignment.status(), method.name);
        opt_row.push_back(StrFormat(
            "%.1f%%",
            100.0 * core::OptimalityRatio(*assignment, *ideal).value()));
        results.emplace(method.name, std::move(assignment).value());
      }
      optimality.AddRow(std::move(opt_row));

      const core::Assignment& champion = results.at("SDGA-SRA");
      std::vector<std::string> sup_row = {std::to_string(dp)};
      for (const char* rival : {"SM", "ILP", "BRGG", "Greedy"}) {
        const auto s = core::SuperiorityRatio(champion, results.at(rival));
        sup_row.push_back(StrFormat("%.1f%% (%.1f%%)",
                                    100.0 * s.better_or_equal,
                                    100.0 * s.tie));
      }
      superiority.AddRow(std::move(sup_row));

      std::vector<std::string> low_row = {std::to_string(dp)};
      for (const char* name : {"SM", "ILP", "BRGG", "Greedy", "SDGA-SRA"}) {
        low_row.push_back(
            TablePrinter::Num(core::LowestCoverage(results.at(name)), 2));
      }
      lowest.AddRow(std::move(low_row));
    }

    if (config.print_optimality) {
      std::printf("optimality ratio c(A)/c(AI):\n");
      optimality.Print();
    }
    if (config.print_superiority) {
      std::printf("superiority ratio of SDGA-SRA (better-or-equal, ties):\n");
      superiority.Print();
    }
    if (config.print_lowest) {
      std::printf("lowest coverage score min_p c(g,p):\n");
      lowest.Print();
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace wgrap::bench
