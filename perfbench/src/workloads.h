// The three benchmark workloads. Each generates its inputs from
// args.seed, measures for about args.seconds (service-mixed for exactly
// that long; the batch workloads size their rounds from it), checks its
// outputs, and adds the end-to-end metrics (args.trace false) or the
// per-layer metrics (true) to `run`. A non-zero return means the workload
// could not run at all.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// conf-sra and pool-sdga: repeated solves of one generated instance, then
/// a read phase (JRA top-3 queries and evaluate) on the solved instance.
int RunBatch(const Args& args, Run* run);

/// service-mixed: two reader clients and one writer client in a closed
/// loop through service::HandleCommand on one in-process ServiceApi.
int RunServiceMixed(const Args& args, Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
