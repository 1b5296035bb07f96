// perfbench: the repository benchmark binary. Usage:
//
//   perfbench --workload conf-sra|pool-sdga|service-mixed --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Prints "# ..." report lines, then one JSON line with the metrics.
// perfbench/run.py builds and runs it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload conf-sra|pool-sdga|"
               "service-mixed --seed N --seconds S --trace 0|1 [--smoke]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed: not a number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("--seconds: not a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace: 0 or 1");
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Now();  // starts the run clock
  perfbench::PrintMachineProfile();
  perfbench::Run run;
  int status = 0;
  if (args.workload == "conf-sra" || args.workload == "pool-sdga") {
    status = perfbench::RunBatch(args, &run);
  } else if (args.workload == "service-mixed") {
    status = perfbench::RunServiceMixed(args, &run);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (status != 0) return status;
  perfbench::Info("wall %.3f s, operations attempted %lld, failed %lld",
                  perfbench::Now(), static_cast<long long>(run.attempted()),
                  static_cast<long long>(run.failed()));
  run.PrintJson();
  return 0;
}
