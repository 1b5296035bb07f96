// conf-sra and pool-sdga: what `wgrap_cli solve` does after loading,
// repeated on several generated instances, followed by a read
// phase of the queries `wgrap_cli jra` and `wgrap_cli evaluate` answer.
// One client, closed loop.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/cra.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "data/io.h"
#include "data/synthetic_dblp.h"
#include "layers.h"
#include "service/reports.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = wgrap::core;
namespace data = wgrap::data;

// conf-sra refines for exactly this many SRA rounds (ω = max_iterations),
// so every input gets the same amount of refinement; see README.md.
constexpr int kConfSraRounds = 8;
// --seconds sets the amount of work, not a deadline: each phase runs
// max(2, ⌊seconds / kSecondsPerRound⌋) whole rounds. The minimum over more
// repeats reads lower, so every run must take its minima over the same
// number of them, whatever the machine's speed.
constexpr double kSecondsPerRound = 8.0;
constexpr int kJraTopK = 3;
constexpr int kSetupsPerCalibration = 20;

struct BatchSpec {
  std::string algo;  // the report label
  int threads = 1;
  // Inputs per run, each generated from --seed and its index, so that a
  // run's figures average over several inputs rather than one draw. The
  // first `solved` are solved; JRA reads (which need no assignment) spread
  // over all of them, since their cost depends on the data most.
  int inputs = 81;
  int solved = 3;  // inputs solved per round
  // The read list. With repeated reads, every read round repeats the list
  // and each query counts at its fastest; otherwise the list is read once.
  int read_queries = 270;
  bool repeat_reads = true;
  // Every read_cycle-th read is an evaluate, the others JRA queries. The
  // read statistics count each evaluate timing evaluate_weight times, so
  // that they describe one evaluate per four JRA queries, as in
  // service-mixed: (read_cycle - 1) / evaluate_weight == 4. An evaluate is
  // a deterministic repeat on one of the solved inputs, so it needs fewer
  // timings than the JRA queries, whose cost varies with the data.
  int read_cycle = 5;
  int evaluate_weight = 1;
  int reads_per_calibration = 36;
  core::InstanceParams params;
  SolveConfig config;
};

wgrap::Result<data::RapDataset> Generate(const Args& args,
                                         const BatchSpec& spec, int index) {
  data::SyntheticDblpConfig config;
  config.seed = args.seed * spec.inputs + index;
  if (args.workload == "conf-sra") {
    config.num_topics = 30;
    if (args.smoke) return data::GenerateReviewerPool(30, 40, config);
    // T09: Theory 2009 at Table 3 scale.
    return data::GenerateConferenceDataset(data::Area::kTheory, 2009, config);
  }
  config.num_topics = 100;
  config.topic_density = 0.05;
  if (args.smoke) return data::GenerateReviewerPool(45, 60, config);
  return data::GenerateReviewerPool(300, 400, config);
}

BatchSpec MakeSpec(const Args& args) {
  BatchSpec spec;
  spec.params.group_size = 3;
  spec.params.reviewer_workload = 0;  // minimal δr
  if (args.workload == "conf-sra") {
    // The registry's sdga-sra defaults (lap=mcf, gains=incremental,
    // threads=1, fixed seed) with a fixed round budget.
    spec.algo = "sdga-sra";
    spec.config.refine = true;
    spec.config.sra.convergence_window = kConfSraRounds;
    spec.config.sra.max_iterations = kConfSraRounds;
    // The JRA cost of T09 queries varies most between the papers queried,
    // so the read budget goes to distinct queries, 48 on each input, not
    // to repeats; see README.md.
    spec.read_queries = 3969;  // 3888 JRA queries, 81 evaluates
    spec.repeat_reads = false;
    spec.read_cycle = 49;
    spec.evaluate_weight = 12;
    spec.reads_per_calibration = 144;
  } else {
    spec.algo = "sdga";
    spec.threads = 4;
    // Solves are quicker here, and lowest_coverage varies more by input.
    spec.solved = 4;
    spec.config.sdga.num_threads = spec.threads;
  }
  return spec;
}

wgrap::Result<core::Assignment> Solve(const BatchSpec& spec,
                                      const core::Instance& instance) {
  if (spec.config.refine) {
    return core::SolveCraSdgaSra(instance, spec.config.sdga, spec.config.sra);
  }
  // Default sdga through the registry at threads=4.
  core::SolverRunOptions options;
  options.extra = {{"threads", std::to_string(spec.threads)}};
  return core::SolverRegistry::Default().SolveCra(spec.algo, instance,
                                                  options);
}

struct PassOutput {
  EndToEnd metrics;
  std::vector<std::optional<core::Assignment>> last;  // per instance
  std::vector<double> solve_s;   // per solve, report rendering included
  std::vector<double> render_s;  // per solve, SolveReportLine + AssignmentCsv
  std::vector<int> instance_of;  // per solve
  std::vector<WorkCounters> per_solve;  // traced passes only
};

bool Complete(const PassOutput& pass) {
  for (const auto& assignment : pass.last) {
    if (!assignment.has_value()) return false;
  }
  return true;
}

// Mean over the solved inputs of each input's median solve time. A solve
// is deterministic, so its repeats differ only by machine noise, which the
// median filters; every input weighs the same.
double SolveSeconds(const PassOutput& pass) {
  std::vector<std::vector<double>> per_input(pass.last.size());
  for (size_t i = 0; i < pass.solve_s.size(); ++i) {
    per_input[pass.instance_of[i]].push_back(pass.solve_s[i]);
  }
  double sum = 0.0;
  for (const std::vector<double>& times : per_input) sum += Median(times);
  return sum / static_cast<double>(per_input.size());
}

// One measured pass: the solve phase (`rounds` rounds over the solved
// instances), then the read phase (`rounds` rounds over the read list, or
// one without BatchSpec::repeat_reads).
// With a tracer, every solve runs attached to it and its work counters are
// recorded.
PassOutput BatchPass(const BatchSpec& spec,
                     const std::vector<core::Instance>& instances,
                     const SetupTimes& setup, double setup_factor,
                     int rounds,
                     wgrap::obs::Tracer* tracer,
                     std::vector<std::string>* reference_csv, Run* run) {
  const int count = spec.solved;
  PassOutput out;
  out.last.resize(count);
  const int64_t attempted_before = run->attempted();
  const int64_t failed_before = run->failed();
  // The calibration kernel of each phase, before every solve and every
  // BatchSpec::reads_per_calibration reads; see Calibration.
  Calibration solve_calibration;
  Calibration read_calibration;
  auto solve_one = [&](int k) {
    solve_calibration.Sample();
    const core::Instance& instance = instances[k];
    std::optional<wgrap::obs::ScopedTracerAttach> attach;
    if (tracer != nullptr) attach.emplace(tracer);
    const WorkCounters before = WorkCounters::Read();
    const double t0 = Now();
    auto assignment = Solve(spec, instance);
    const double t1 = Now();
    std::string csv;
    std::string line;
    if (assignment.ok()) {
      line = wgrap::service::SolveReportLine(spec.algo, instance, *assignment,
                                             "");
      csv = wgrap::service::AssignmentCsv(*assignment);
    }
    const double t2 = Now();
    out.solve_s.push_back(t2 - t0);
    out.render_s.push_back(t2 - t1);
    out.instance_of.push_back(k);
    if (tracer != nullptr) {
      out.per_solve.push_back(WorkCounters::Read().Minus(before));
    }
    run->Op(assignment.status(), "solve " + spec.algo);
    if (!assignment.ok()) {
      out.last[k].reset();  // marks the pass incomplete
      return false;
    }
    run->Op(assignment->ValidateComplete(), "solve result ValidateComplete");
    std::string& reference = (*reference_csv)[k];
    if (reference.empty()) reference = csv;
    run->Op(csv == reference && !line.empty(),
            "AssignmentCsv identical across repetitions");
    out.last[k].emplace(*assignment);
    return true;
  };
  const double start = Now();
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < count; ++k) {
      if (!solve_one(k)) return out;
    }
  }
  const double solve_end = Now();

  // The read phase: rounds over a fixed list of queries, every read
  // repeated in every round.
  const auto& registry = core::SolverRegistry::Default();
  const int64_t inputs = static_cast<int64_t>(instances.size());
  auto read_one = [&](int64_t i) {
    const double t0 = Now();
    if (i % spec.read_cycle == spec.read_cycle - 1) {
      const int k = static_cast<int>((i / spec.read_cycle) % count);
      const std::string report =
          wgrap::service::EvaluationReport(instances[k], *out.last[k]);
      const double ms = 1e3 * (Now() - t0);
      run->Op(report.find("feasible: yes") != std::string::npos,
              "evaluate reports feasible");
      return ms;
    }
    const int64_t query = i - i / spec.read_cycle;  // JRA queries so far
    const core::Instance& instance = instances[query % inputs];
    const int paper = static_cast<int>((query / inputs * 7919) %
                                       instance.num_papers());
    auto groups = registry.SolveJraTopK("bba", instance, paper, kJraTopK);
    std::string report;
    if (groups.ok()) report = wgrap::service::JraReport(*groups);
    const double ms = 1e3 * (Now() - t0);
    run->Op(groups.status(), "jra bba topk");
    run->Op(groups.ok() && !groups->empty() && !report.empty(),
            "jra returns groups");
    return ms;
  };
  const int read_rounds = spec.repeat_reads ? rounds : 1;
  std::vector<double> best_ms(spec.read_queries,
                              std::numeric_limits<double>::infinity());
  for (int round = 0; round < read_rounds; ++round) {
    for (int i = 0; i < spec.read_queries; ++i) {
      if (i % spec.reads_per_calibration == 0) read_calibration.Sample();
      best_ms[i] = std::min(best_ms[i], read_one(i));
    }
  }
  const double end = Now();
  // The read mix the statistics describe, each evaluate weighted.
  std::vector<double> mix_ms;
  for (int i = 0; i < spec.read_queries; ++i) {
    const bool evaluate = i % spec.read_cycle == spec.read_cycle - 1;
    mix_ms.insert(mix_ms.end(), evaluate ? spec.evaluate_weight : 1,
                  best_ms[i]);
  }

  EndToEnd raw;
  std::vector<double> strict_lowest;
  for (const auto& assignment : out.last) {
    raw.coverage += assignment->TotalScore() / count;
    raw.lowest_coverage += LowestDecileCoverage(*assignment) / count;
    strict_lowest.push_back(core::LowestCoverage(*assignment));
  }
  raw.solve_s = SolveSeconds(out);
  raw.setup_s = Median(setup.total_s);
  raw.peak_rss_mb = PeakRssMb();
  raw.read_p50_ms = Quantile(mix_ms, 0.50);
  raw.read_p90_ms = Quantile(mix_ms, 0.90);
  double solve_sum_s = 0.0;
  for (double seconds : out.solve_s) solve_sum_s += seconds;
  raw.write_mean_ms =
      1e3 * solve_sum_s / static_cast<double>(out.solve_s.size());
  // One client's read throughput on the mix, each query at its best time.
  double mix_sum_ms = 0.0;
  for (double ms : mix_ms) mix_sum_ms += ms;
  raw.ops_per_s = 1e3 * static_cast<double>(mix_ms.size()) / mix_sum_ms;
  const int64_t attempted = run->attempted() - attempted_before;
  const int64_t failed = run->failed() - failed_before;
  raw.success_rate = static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted);
  // Timing metrics at the reference speed, each scaled by the kernel's
  // times in its own phase.
  const double solve_factor = solve_calibration.Factor();
  const double read_factor = read_calibration.Factor();
  EndToEnd& m = out.metrics;
  m = raw;
  m.solve_s *= solve_factor;
  m.setup_s *= setup_factor;
  m.write_mean_ms *= solve_factor;
  m.read_p50_ms *= read_factor;
  m.read_p90_ms *= read_factor;
  m.ops_per_s /= read_factor;
  Info("pass%s: %zu solves in %.3f s, %d read rounds of %d in %.3f s; raw "
       "solve_s %.4f s, read p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.1f "
       "ops/s, setup_s %.5f s; speed factor set-up %.4f, solve %.4f (%zu "
       "calibrations), read %.4f (%zu); strict lowest paper min %.4f",
       tracer != nullptr ? " (traced)" : "", out.solve_s.size(),
       solve_end - start, read_rounds, spec.read_queries, end - solve_end,
       raw.solve_s, raw.read_p50_ms, raw.read_p90_ms, Quantile(mix_ms, 0.99),
       raw.ops_per_s, raw.setup_s, setup_factor, solve_factor,
       solve_calibration.samples(),
       read_factor, read_calibration.samples(),
       Quantile(strict_lowest, 0.0));
  std::string times;
  for (size_t i = 0; i < out.solve_s.size(); ++i) {
    char entry[48];
    std::snprintf(entry, sizeof(entry), " %d:%.4f", out.instance_of[i],
                  out.solve_s[i]);
    times += entry;
  }
  Info("solve times (input:seconds):%s", times.c_str());
  return out;
}

}  // namespace

int RunBatch(const Args& args, Run* run) {
  const BatchSpec spec = MakeSpec(args);
  std::vector<std::string> csvs;
  for (int k = 0; k < spec.inputs; ++k) {
    auto dataset = Generate(args, spec, k);
    if (!dataset.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    csvs.push_back(data::DatasetToCsv(*dataset));
    if (k >= spec.solved) continue;
    Info("workload %s input %d (solved): P=%d R=%d T=%d dp=%d algo=%s "
         "threads=%d seed=%llu seconds=%g csv=%zu bytes%s",
         args.workload.c_str(), k, dataset->num_papers(),
         dataset->num_reviewers(), dataset->num_topics,
         spec.params.group_size, spec.algo.c_str(), spec.threads,
         static_cast<unsigned long long>(args.seed), args.seconds,
         csvs.back().size(), args.smoke ? " (smoke)" : "");
  }
  Info("workload %s inputs %d..%d: reads only", args.workload.c_str(),
       spec.solved, spec.inputs - 1);

  // Set-up: every input parsed and built once, with the calibration kernel
  // timed before every kSetupsPerCalibration inputs. Each pass covers its
  // own set-up and peak resident set.
  auto set_up = [&](SetupTimes* times, Calibration* calibration,
                    std::vector<core::Instance>* out) {
    out->clear();
    ResetPeakRss();
    for (size_t k = 0; k < csvs.size(); ++k) {
      if (k % kSetupsPerCalibration == 0) calibration->Sample();
      auto instance = TimedSetup(csvs[k], spec.params, 1, times);
      run->Op(instance.status(), "set-up");
      if (!instance.ok()) return false;
      out->push_back(std::move(instance).value());
    }
    return true;
  };
  SetupTimes setup;
  Calibration setup_calibration;
  std::vector<core::Instance> instances;
  if (!set_up(&setup, &setup_calibration, &instances)) return 1;
  std::vector<std::string> reference_csv(spec.solved);
  const int rounds =
      std::max(2, static_cast<int>(args.seconds / kSecondsPerRound));
  PassOutput untraced = BatchPass(spec, instances, setup,
                                  setup_calibration.Factor(), rounds,
                                  nullptr, &reference_csv, run);
  if (!Complete(untraced)) return 1;
  if (!args.trace) {
    EmitEndToEnd(untraced.metrics, run);
    return 0;
  }

  // The traced pass sets up its own instances (the same, rebuilt) in place
  // of the untraced ones, whose assignments go first.
  untraced.last.clear();
  SetupTimes traced_setup;
  Calibration traced_setup_calibration;
  wgrap::obs::Tracer tracer;
  {
    wgrap::obs::ScopedTracerAttach attach(&tracer);
    if (!set_up(&traced_setup, &traced_setup_calibration, &instances)) {
      return 1;
    }
  }
  PassOutput traced = BatchPass(spec, instances, traced_setup,
                                traced_setup_calibration.Factor(), rounds,
                                &tracer, &reference_csv, run);
  if (!Complete(traced)) return 1;
  EmitOverhead(traced.metrics, untraced.metrics, run);

  LayerValues values;
  values["setup.reps"] = spec.inputs;
  values["data.parse_s"] = Median(traced_setup.parse_s);
  values["core.instance.build_s"] = Median(traced_setup.build_s);
  LayersFromSpans(tracer, traced.per_solve, traced.instance_of, &values, run);
  // Report, ideal bound and stage replay: instance 0. The replay starts
  // from the SDGA result (conf-sra's solve also refines).
  ProbeReportLayers(instances[0], *traced.last[0], spec.algo, &values, run);
  auto sdga = core::SolveCraSdga(instances[0], spec.config.sdga);
  run->Op(sdga.status(), "replay SolveCraSdga");
  if (sdga.ok()) {
    ProbeStageReplay(instances[0], *sdga, spec.threads, &values, run);
  }
  // Per traced solve: wall time minus the sdga and sra spans and the
  // report rendering.
  const std::vector<double> sdga_spans = SpanSeconds(tracer, "sdga");
  const std::vector<double> sra_spans = SpanSeconds(tracer, "sra");
  std::vector<double> unattributed;
  for (size_t i = 0; i < traced.solve_s.size() && i < sdga_spans.size(); ++i) {
    unattributed.push_back(traced.solve_s[i] - traced.render_s[i] -
                           sdga_spans[i] -
                           (i < sra_spans.size() ? sra_spans[i] : 0.0));
  }
  values["solve.unattributed_s"] = Median(unattributed);
  EmitLayers(values, run);
  return 0;
}

}  // namespace perfbench
