#include "layers.h"

#include <cstdio>

#include "common/matrix.h"
#include "common/thread_pool.h"
#include "core/gain_cache.h"
#include "core/metrics.h"
#include "data/io.h"
#include "la/auction.h"
#include "la/transportation.h"
#include "service/reports.h"

namespace perfbench {
namespace {

namespace core = wgrap::core;
namespace la = wgrap::la;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"solve_s", "s"},          {"setup_s", "s"},
    {"coverage", "score"},     {"lowest_coverage", "score"},
    {"peak_rss_mb", "MiB"},    {"read_p50_ms", "ms"},
    {"read_p90_ms", "ms"},     {"write_mean_ms", "ms"},
    {"ops_per_s", "ops/s"},    {"success_rate", "ratio"},
};

// Per-layer metrics with the name of the value that is their base.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* base;  // another LayerValues key, or nullptr
};

constexpr LayerSpec kLayers[] = {
    {"data.parse_s", "s", "setup.reps"},
    {"core.instance.build_s", "s", "setup.reps"},
    {"core.sdga.solve_s", "s", "core.sdga.solves"},
    {"core.sdga.stage1_s", "s", "core.sdga.solves"},
    {"core.sdga.stage2_s", "s", "core.sdga.solves"},
    {"core.sdga.stage3_s", "s", "core.sdga.solves"},
    {"core.sra.refine_s", "s", "core.sra.rounds"},
    {"core.sra.rounds", "count", nullptr},
    {"core.sra.round_s", "s", "core.sra.rounds"},
    {"la.stage_lap_saturated_s", "s", "la.saturated_cells"},
    {"la.stage_lap_slack_s", "s", "la.slack_cells"},
    {"la.objective_mismatches", "count", "la.cross_checks"},
    {"la.auction_failures", "count", "la.cross_checks"},
    {"la.auction.bids", "count", nullptr},
    {"la.auction.rounds", "count", nullptr},
    {"core.gain_cache.assemble_s", "s", "replay.patched_cells"},
    {"core.gain_cache.full_build_s", "s", "la.slack_cells"},
    {"core.gain_cache.patched_cells", "count", nullptr},
    {"core.gain_cache.rebuilt_cells", "count", nullptr},
    {"core.gain_cache.full_builds", "count", nullptr},
    {"core.metrics.ideal_s", "s", "report.reps"},
    {"service.report_s", "s", "report.reps"},
    {"service.jra_run_ms", "ms", "service.jra_jobs"},
    {"service.evaluate_ms", "ms", "service.probe_reps"},
    {"service.queue_wait_ms", "ms", "service.jra_jobs"},
    {"service.resolve_run_ms", "ms", "service.resolve_jobs"},
    {"core.update.mutate_ms", "ms", "service.probe_reps"},
    {"service.protocol_ms", "ms", "service.probe_reps"},
    {"service.jra_jobs", "count", nullptr},
    {"service.resolve_jobs", "count", nullptr},
    {"solve.unattributed_s", "s", nullptr},
};

constexpr int kReportReps = 5;

double Value(const LayerValues& values, const std::string& name) {
  auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double Field(const EndToEnd& e, int i) {
  const double fields[] = {e.solve_s,     e.setup_s,     e.coverage,
                           e.lowest_coverage, e.peak_rss_mb, e.read_p50_ms,
                           e.read_p90_ms, e.write_mean_ms, e.ops_per_s,
                           e.success_rate};
  return fields[i];
}

// Σ of the 1e9-scaled profits of a matching — the integer objective every
// LAP backend optimizes, so two exact backends must agree on it exactly.
int64_t ScaledObjective(const wgrap::Matrix& profit,
                        const std::vector<int>& task_to_agent) {
  int64_t total = 0;
  for (size_t t = 0; t < task_to_agent.size(); ++t) {
    total += la::ScaleTransportProfit(
        profit(static_cast<int>(t), task_to_agent[t]));
  }
  return total;
}

// Times la::SolveTransportation on one replayed stage and cross-checks its
// objective against the auction.
void ReplayLap(const char* shape, const wgrap::Matrix& profit,
               const std::vector<int>& capacity, wgrap::ThreadPool* pool,
               double* lap_seconds, LayerValues* values, Run* run) {
  double start = Now();
  auto flow = la::SolveTransportation(profit, capacity);
  *lap_seconds = Now() - start;
  run->Op(flow.status(), std::string("la replay ") + shape + " mcf");
  if (!flow.ok()) return;

  la::AuctionOptions auction_options;
  auction_options.pool = pool;
  const WorkCounters before = WorkCounters::Read();
  start = Now();
  auto auction = la::SolveAuctionTransportation(profit, capacity,
                                                auction_options);
  const double auction_seconds = Now() - start;
  const WorkCounters work = WorkCounters::Read().Minus(before);
  (*values)["la.cross_checks"] += 1;
  (*values)["la.auction.bids"] += work.Get("wgrap_lap_auction_bids_total");
  (*values)["la.auction.rounds"] +=
      work.Get("wgrap_lap_auction_rounds_total");
  const int64_t flow_objective = ScaledObjective(profit, flow->task_to_agent);
  if (!auction.ok()) {
    // The auction gave up (its work budget) — reported, not a mismatch.
    (*values)["la.auction_failures"] += 1;
    Info("la cross-check %s: mcf objective %lld, auction failed after %.3f s: "
         "%s",
         shape, static_cast<long long>(flow_objective), auction_seconds,
         auction.status().ToString().c_str());
    return;
  }
  const int64_t auction_objective =
      ScaledObjective(profit, auction->task_to_agent);
  const bool match = flow_objective == auction_objective;
  if (!match) (*values)["la.objective_mismatches"] += 1;
  Info("la cross-check %s: mcf objective %lld, auction %lld (%.3f s): %s",
       shape, static_cast<long long>(flow_objective),
       static_cast<long long>(auction_objective), auction_seconds,
       match ? "equal" : "MISMATCH");
}

}  // namespace

EndToEnd AtReferenceSpeed(EndToEnd raw, double factor) {
  raw.solve_s *= factor;
  raw.setup_s *= factor;
  raw.read_p50_ms *= factor;
  raw.read_p90_ms *= factor;
  raw.write_mean_ms *= factor;
  raw.ops_per_s /= factor;
  return raw;
}

void EmitEndToEnd(const EndToEnd& metrics, Run* run) {
  for (int i = 0; i < static_cast<int>(std::size(kEndToEnd)); ++i) {
    run->Metric(kEndToEnd[i].name, kEndToEnd[i].unit, Field(metrics, i));
  }
}

void EmitOverhead(const EndToEnd& traced, const EndToEnd& untraced,
                  Run* run) {
  for (int i = 0; i < static_cast<int>(std::size(kEndToEnd)); ++i) {
    const double delta = Field(traced, i) - Field(untraced, i);
    Info("e2e %-16s untraced %.6g  traced %.6g  overhead %+.6g %s",
         kEndToEnd[i].name, Field(untraced, i), Field(traced, i), delta,
         kEndToEnd[i].unit);
    run->Metric(std::string("overhead.") + kEndToEnd[i].name,
                kEndToEnd[i].unit, delta);
  }
}

void EmitLayers(const LayerValues& values, Run* run) {
  for (const LayerSpec& spec : kLayers) {
    const double value = Value(values, spec.name);
    if (spec.base != nullptr) {
      Info("layer %-32s %14.6g %-5s base %s=%.0f", spec.name, value, spec.unit,
           spec.base, Value(values, spec.base));
    } else {
      Info("layer %-32s %14.6g %s", spec.name, value, spec.unit);
    }
    run->Metric(spec.name, spec.unit, value);
  }
}

wgrap::Result<core::Instance> TimedSetup(const std::string& csv,
                                         const core::InstanceParams& params,
                                         int reps, SetupTimes* times) {
  wgrap::Result<core::Instance> instance =
      wgrap::Status::Internal("no set-up ran");
  for (int i = 0; i < reps; ++i) {
    const double start = Now();
    auto dataset = wgrap::data::DatasetFromCsv(csv);
    const double parsed = Now();
    if (!dataset.ok()) return dataset.status();
    instance = core::Instance::FromDataset(*dataset, params);
    const double built = Now();
    if (!instance.ok()) return instance.status();
    times->parse_s.push_back(parsed - start);
    times->build_s.push_back(built - parsed);
    times->total_s.push_back(built - start);
  }
  return instance;
}

void LayersFromSpans(const wgrap::obs::Tracer& tracer,
                     const std::vector<WorkCounters>& per_solve,
                     const std::vector<int>& instance_of, LayerValues* values,
                     Run* run) {
  const std::vector<double> sdga = SpanSeconds(tracer, "sdga");
  const std::vector<double> stages = SpanSeconds(tracer, "sdga_stage");
  const std::vector<double> sra = SpanSeconds(tracer, "sra");
  (*values)["core.sdga.solves"] = static_cast<double>(sdga.size());
  (*values)["core.sdga.solve_s"] = Median(sdga);
  // One sdga_stage span per stage, δp per solve, in stage order.
  const size_t per_solve_stages =
      sdga.empty() ? 0 : stages.size() / sdga.size();
  for (size_t k = 0; k < per_solve_stages && k < 3; ++k) {
    std::vector<double> stage_k;
    for (size_t i = k; i < stages.size(); i += per_solve_stages) {
      stage_k.push_back(stages[i]);
    }
    (*values)["core.sdga.stage" + std::to_string(k + 1) + "_s"] =
        Median(stage_k);
  }
  if (!sra.empty()) (*values)["core.sra.refine_s"] = Median(sra);
  if (per_solve.empty()) return;
  // Work counters must repeat exactly: same input, same seed, same work.
  std::map<int, const WorkCounters*> first_of;
  bool repeat = true;
  for (size_t i = 0; i < per_solve.size(); ++i) {
    auto [it, inserted] = first_of.emplace(instance_of[i], &per_solve[i]);
    repeat = repeat && (inserted || *it->second == per_solve[i]);
  }
  Info("work counters per traced solve (%zu solves of %zu inputs, %s); "
       "input 0: %s",
       per_solve.size(), first_of.size(), repeat ? "identical" : "DIFFER",
       per_solve.front().ToString().c_str());
  run->Op(repeat, "work counters repeat exactly across traced solves");
  const WorkCounters& work = per_solve.front();
  const double rounds = static_cast<double>(work.Get("wgrap_sra_rounds_total"));
  (*values)["core.sra.rounds"] = rounds;
  if (rounds > 0) {
    (*values)["core.sra.round_s"] =
        Value(*values, "core.sra.refine_s") / rounds;
  }
  (*values)["core.gain_cache.patched_cells"] =
      static_cast<double>(work.Get("wgrap_gain_cache_patched_cells_total"));
  (*values)["core.gain_cache.rebuilt_cells"] =
      static_cast<double>(work.Get("wgrap_gain_cache_rebuilt_cells_total"));
  (*values)["core.gain_cache.full_builds"] =
      static_cast<double>(work.Get("wgrap_gain_cache_full_builds_total"));
}

void ProbeSolveLayers(const core::Instance& instance, const SolveConfig& config,
                      LayerValues* values, core::Assignment* result, Run* run) {
  wgrap::obs::Tracer tracer;
  std::vector<WorkCounters> per_solve;
  for (int rep = 0; rep < 2; ++rep) {
    wgrap::obs::ScopedTracerAttach attach(&tracer);
    const WorkCounters before = WorkCounters::Read();
    auto sdga = core::SolveCraSdga(instance, config.sdga);
    run->Op(sdga.status(), "probe SolveCraSdga");
    if (!sdga.ok()) return;
    *result = *sdga;
    if (config.refine) {
      auto refined = core::RefineSra(instance, *sdga, config.sra);
      run->Op(refined.status(), "probe RefineSra");
      if (!refined.ok()) return;
      *result = *refined;
    }
    per_solve.push_back(WorkCounters::Read().Minus(before));
  }
  LayersFromSpans(tracer, per_solve, std::vector<int>(per_solve.size(), 0),
                  values, run);
}

void ProbeReportLayers(const core::Instance& instance,
                       const core::Assignment& assignment,
                       const std::string& algo, LayerValues* values,
                       Run* run) {
  std::vector<double> ideal_s;
  std::vector<double> report_s;
  for (int rep = 0; rep < kReportReps; ++rep) {
    double start = Now();
    auto ideal = core::BuildIdealAssignment(instance);
    ideal_s.push_back(Now() - start);
    start = Now();
    const std::string line =
        wgrap::service::SolveReportLine(algo, instance, assignment, "");
    const std::string csv = wgrap::service::AssignmentCsv(assignment);
    report_s.push_back(Now() - start);
    run->Op(ideal.status(), "probe BuildIdealAssignment");
    run->Op(!line.empty() && !csv.empty(), "probe report render");
  }
  (*values)["report.reps"] = kReportReps;
  (*values)["core.metrics.ideal_s"] = Median(ideal_s);
  (*values)["service.report_s"] = Median(report_s);
}

void ProbeStageReplay(const core::Instance& instance,
                      const core::Assignment& sdga_result, int threads,
                      LayerValues* values, Run* run) {
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  const int dp = instance.group_size();
  const int dr = instance.reviewer_workload();
  // GainCache needs a pool; a 1-thread pool runs inline.
  wgrap::ThreadPool pool(threads);
  std::vector<int> papers(P);
  for (int p = 0; p < P; ++p) papers[p] = p;
  Info("la replay: Hungarian has no public (profit, capacity) entry point; "
       "the cross-check compares mcf with the auction only");

  // Saturated shape: the SDGA result minus one reviewer per paper (the
  // member at position p mod δp of its group) — one SRA completion round.
  // The cache is built on the complete assignment first, so the timed
  // Refresh is the incremental patch an SRA round performs.
  {
    core::Assignment partial = sdga_result;
    core::GainCache cache(&instance);
    cache.Refresh(partial, &pool);
    for (int p = 0; p < P; ++p) {
      const std::vector<int>& group = partial.GroupFor(p);
      const int reviewer = group[p % group.size()];
      run->Op(partial.Remove(p, reviewer), "replay remove");
      cache.NoteRemove(p, reviewer);
    }
    std::vector<int> capacity(R);
    for (int r = 0; r < R; ++r) capacity[r] = dr - partial.LoadOf(r);
    wgrap::Matrix profit;
    const double start = Now();
    cache.Refresh(partial, &pool);
    cache.AssembleStageProfit(papers, capacity, partial, &pool, &profit);
    (*values)["core.gain_cache.assemble_s"] = Now() - start;
    (*values)["replay.patched_cells"] =
        static_cast<double>(cache.patched_entries());
    (*values)["la.saturated_cells"] = static_cast<double>(P) * R;
    double lap_s = 0.0;
    ReplayLap("saturated", profit, capacity, &pool, &lap_s, values, run);
    (*values)["la.stage_lap_saturated_s"] = lap_s;
  }

  // Slack shape: stage 1 of SDGA — the empty assignment, capacity ⌈δr/δp⌉.
  {
    core::Assignment empty(&instance);
    core::GainCache cache(&instance);
    std::vector<int> capacity(R, (dr + dp - 1) / dp);
    wgrap::Matrix profit;
    const double start = Now();
    cache.Refresh(empty, &pool);
    cache.AssembleStageProfit(papers, capacity, empty, &pool, &profit);
    (*values)["core.gain_cache.full_build_s"] = Now() - start;
    (*values)["la.slack_cells"] = static_cast<double>(P) * R;
    double lap_s = 0.0;
    ReplayLap("slack", profit, capacity, &pool, &lap_s, values, run);
    (*values)["la.stage_lap_slack_s"] = lap_s;
  }
}

}  // namespace perfbench
