// The metric tables and the per-layer probes every workload shares.
//
// End-to-end metrics are measured untraced; a traced run (--trace 1)
// repeats the workload with an obs::Tracer attached, reports the
// traced-minus-untraced difference of every end-to-end metric as
// overhead.<name>, and adds the per-layer numbers below. Layers a
// workload does not exercise are reported as 0 with a base count of 0.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "core/assignment.h"
#include "core/cra.h"
#include "core/instance.h"

namespace perfbench {

/// The ten end-to-end metrics of one pass over a workload.
struct EndToEnd {
  double solve_s = 0.0;
  double setup_s = 0.0;
  double coverage = 0.0;
  double lowest_coverage = 0.0;
  double peak_rss_mb = 0.0;
  double read_p50_ms = 0.0;
  double read_p90_ms = 0.0;
  double write_mean_ms = 0.0;
  double ops_per_s = 0.0;
  double success_rate = 0.0;
};

/// `raw` at the reference machine speed (see Calibration): times
/// multiplied, rates divided by `factor`.
EndToEnd AtReferenceSpeed(EndToEnd raw, double factor);

/// Adds the end-to-end metrics to `run` (the --trace 0 result).
void EmitEndToEnd(const EndToEnd& metrics, Run* run);
/// Prints both passes and adds overhead.<name> = traced − untraced.
void EmitOverhead(const EndToEnd& traced, const EndToEnd& untraced, Run* run);

/// Per-layer values by metric name; EmitLayers fills absent names with 0.
using LayerValues = std::map<std::string, double>;
/// Adds every per-layer metric to `run` and prints each with its base.
void EmitLayers(const LayerValues& values, Run* run);

/// Median parse (data::DatasetFromCsv) and instance build
/// (Instance::FromDataset) seconds over repeated set-ups.
struct SetupTimes {
  std::vector<double> parse_s;
  std::vector<double> build_s;
  std::vector<double> total_s;
};

/// Parses `csv` and builds the instance `reps` times, timing each step;
/// returns the last instance built.
wgrap::Result<wgrap::core::Instance> TimedSetup(
    const std::string& csv, const wgrap::core::InstanceParams& params,
    int reps, SetupTimes* times);

/// The solver configuration a workload's layer probes replay.
struct SolveConfig {
  wgrap::core::SdgaOptions sdga;
  bool refine = false;  // SRA after SDGA
  wgrap::core::SraOptions sra;
};

/// Traced SolveCraSdga (+ RefineSra) on `instance`, twice: fills
/// core.sdga.*, core.sra.* and the gain-cache counters from the spans and
/// counter deltas, checks the two repetitions did identical work, and
/// returns the final assignment in `result`.
void ProbeSolveLayers(const wgrap::core::Instance& instance,
                      const SolveConfig& config, LayerValues* values,
                      wgrap::core::Assignment* result, Run* run);

/// Fills core.sdga.* / core.sra.* from the spans of an already traced
/// solve pass (one `sdga` span, optionally one `sra` span, per solve) and
/// the gain-cache counts from the work counters of its first solve.
/// `instance_of[i]` names solve i's input: solves of one input must have
/// done identical work, which is checked.
void LayersFromSpans(const wgrap::obs::Tracer& tracer,
                     const std::vector<WorkCounters>& per_solve,
                     const std::vector<int>& instance_of, LayerValues* values,
                     Run* run);

/// Times core::BuildIdealAssignment and service::SolveReportLine +
/// AssignmentCsv on `assignment` (core.metrics.ideal_s, service.report_s).
void ProbeReportLayers(const wgrap::core::Instance& instance,
                       const wgrap::core::Assignment& assignment,
                       const std::string& algo, LayerValues* values,
                       Run* run);

/// The stage-LAP replay: rebuilds one saturated completion stage (the SDGA
/// result minus one reviewer per paper) and the first, slack SDGA stage
/// from outside with GainCache, times la::SolveTransportation on both, and
/// cross-checks its objective against la::SolveAuctionTransportation.
void ProbeStageReplay(const wgrap::core::Instance& instance,
                      const wgrap::core::Assignment& sdga_result, int threads,
                      LayerValues* values, Run* run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
