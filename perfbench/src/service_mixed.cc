// service-mixed: one in-process ServiceApi (default 2 job workers) driven
// through service::HandleCommand by three blocking clients — two readers
// looping on `submit jra bba topk=3` + `wait` with one `evaluate` per four
// JRA queries, and one writer looping on `mutate` (two set_coi toggles) →
// `resolve refine=ls` → `wait`. Closed loop: each client sends its next
// request only after the previous reply is decoded. The service hosts
// kSessions sessions, each from its own generated pool; every client takes
// them in turn, so the per-run medians average over several inputs.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "data/io.h"
#include "data/synthetic_dblp.h"
#include "layers.h"
#include "service/api.h"
#include "service/protocol.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = wgrap::core;
namespace data = wgrap::data;
namespace service = wgrap::service;

constexpr int kSessions = 9;
constexpr int kSetupRepsPerSession = 2;
constexpr int kReaders = 2;
constexpr int kReadCycle = 5;  // one evaluate per four JRA queries
constexpr int kProbeReps = 20;
// Each pass is cut into this many equal windows; see WindowedMedian.
constexpr int kWindows = 6;
// The calibration kernel runs on the otherwise idle main thread once per
// this many seconds during each pass.
constexpr double kCalibrationPeriodSeconds = 0.5;

struct Pair {
  int paper = 0;
  int reviewer = 0;
};

struct Session {
  std::string name;
  std::string csv;
  int papers = 0;
  std::vector<Pair> pairs;  // the installed assignment after set-up
  std::optional<core::Instance> local;  // built from csv, COI-free
};

// Samples of one quantity, each with the time its operation completed.
struct Samples {
  std::vector<double> at;  // Now() at completion
  std::vector<double> values;

  void Add(double value) {
    at.push_back(Now());
    values.push_back(value);
  }
  void Append(const Samples& other) {
    at.insert(at.end(), other.at.begin(), other.at.end());
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  size_t size() const { return values.size(); }
};

// What one client measured during a pass.
struct ClientLog {
  Samples read_ms;
  Samples write_ms;
  Samples jra_run_ms;     // traced passes only
  Samples queue_wait_ms;  // traced passes only
  Samples resolve_run_s;
};

// One command through the protocol layer; counts it as an operation.
service::Reply Call(service::ServiceApi& api, const std::string& line,
                    const std::string& payload, Run* run) {
  service::Reply reply = service::HandleCommand(api, line, payload);
  run->Op(reply.status, line.substr(0, 48));
  return reply;
}

// "job <id>\n" → id (0 on a malformed reply).
int64_t JobId(const service::Reply& reply) {
  if (!reply.status.ok() || reply.payload.rfind("job ", 0) != 0) return 0;
  return std::strtoll(reply.payload.c_str() + 4, nullptr, 10);
}

std::string ToggleScript(const std::vector<Pair>& pairs, int64_t cycle) {
  // Cycle 2k turns COI on for two assigned pairs (evicting them, so the
  // resolve has papers to repair); cycle 2k+1 turns the same two off.
  const int64_t n = static_cast<int64_t>(pairs.size());
  const int64_t k = cycle / 2;
  const Pair& a = pairs[(k * 7) % n];
  const Pair& b = pairs[(k * 7 + n / 2) % n];
  const char* mode = cycle % 2 == 0 ? "on" : "off";
  return "set_coi " + std::to_string(a.reviewer) + " " +
         std::to_string(a.paper) + " " + mode + "\nset_coi " +
         std::to_string(b.reviewer) + " " + std::to_string(b.paper) + " " +
         mode + "\n";
}

void ReaderLoop(service::ServiceApi& api, const std::vector<Session>& sessions,
                int client, bool traced, const std::atomic<bool>& stop,
                ClientLog* log, Run* run) {
  const int64_t count = static_cast<int64_t>(sessions.size());
  for (int64_t i = 0; !stop.load(); ++i) {
    const Session& session = sessions[i % count];
    const int64_t q = i / count;
    const double t0 = Now();
    if (q % kReadCycle == kReadCycle - 1) {
      Call(api, "evaluate " + session.name, "", run);
      log->read_ms.Add(1e3 * (Now() - t0));
      continue;
    }
    const int64_t paper = (client * 104729 + q * 7919) % session.papers;
    const int64_t job = JobId(Call(api,
                                   "submit " + session.name +
                                       " jra bba paper=" +
                                       std::to_string(paper) + " topk=3",
                                   "", run));
    const service::Reply reply =
        Call(api, "wait " + std::to_string(job), "", run);
    const double ms = 1e3 * (Now() - t0);
    log->read_ms.Add(ms);
    run->Op(reply.status.ok() && reply.payload.rfind("#1 score", 0) == 0,
            "jra reply lists groups");
    if (traced && job > 0) {
      auto result = api.GetJobResult(job);
      if (result.ok()) {
        log->jra_run_ms.Add(1e3 * result->seconds);
        log->queue_wait_ms.Add(ms - 1e3 * result->seconds);
      }
    }
  }
}

void WriterLoop(service::ServiceApi& api, const std::vector<Session>& sessions,
                const std::atomic<bool>& stop, ClientLog* log, Run* run) {
  const int64_t count = static_cast<int64_t>(sessions.size());
  for (int64_t i = 0; !stop.load(); ++i) {
    const Session& session = sessions[i % count];
    const int64_t cycle = i / count;
    const double t0 = Now();
    Call(api, "mutate " + session.name, ToggleScript(session.pairs, cycle),
         run);
    // The resolve refines with local search (refine=ls), each cycle with
    // its own seed; see README.md for why not SRA.
    const int64_t job = JobId(Call(api,
                                   "resolve " + session.name +
                                       " refine=ls seed=" +
                                       std::to_string(cycle),
                                   "", run));
    const service::Reply reply =
        Call(api, "wait " + std::to_string(job), "", run);
    log->write_ms.Add(1e3 * (Now() - t0));
    run->Op(reply.status.ok() &&
                reply.payload.find("feasible: yes") != std::string::npos,
            "resolve reports feasible");
    if (job > 0) {
      auto result = api.GetJobResult(job);
      if (result.ok()) log->resolve_run_s.Add(result->seconds);
    }
  }
}

// Every session must evaluate feasible; its coverage is recomputed on the
// local instance (set_coi toggles do not change scores) and must match the
// service's report. Fills the mean coverage metrics over sessions.
void CheckFinalSessions(service::ServiceApi& api,
                        const std::vector<Session>& sessions,
                        EndToEnd* metrics, Run* run) {
  for (const Session& session : sessions) {
    const service::Reply evaluate =
        Call(api, "evaluate " + session.name, "", run);
    run->Op(evaluate.payload.find("feasible: yes") != std::string::npos,
            "final session evaluates feasible");
    const service::Reply csv = Call(api, "assignment " + session.name, "", run);
    auto pairs = data::AssignmentPairsFromCsv(csv.payload);
    run->Op(pairs.status(), "parse final assignment");
    if (!pairs.ok()) continue;
    core::Assignment assignment(&*session.local);
    wgrap::Status rebuilt;
    for (const auto& [p, r] : *pairs) {
      if (rebuilt.ok()) rebuilt = assignment.AddUnchecked(p, r);
    }
    run->Op(rebuilt, "rebuild final assignment");
    metrics->coverage += assignment.TotalScore() / sessions.size();
    metrics->lowest_coverage +=
        LowestDecileCoverage(assignment) / sessions.size();
    const size_t at = evaluate.payload.find("coverage score: ");
    const double reported =
        at == std::string::npos
            ? -1.0
            : std::strtod(evaluate.payload.c_str() + at + 16, nullptr);
    run->Op(std::abs(reported - assignment.TotalScore()) < 1e-3,
            "service coverage matches the recomputed coverage");
  }
}

struct PassOutput {
  EndToEnd metrics;  // at the reference speed
  EndToEnd raw;      // as measured; the layer values compare with these
  ClientLog all;  // every client's samples, merged
};

// The median over the pass's kWindows equal time windows of `stat` applied
// to the samples completed in each window (windows without samples are
// skipped): a slowdown of the machine during a minority of the windows
// leaves it unchanged.
template <typename Stat>
double WindowedMedian(const Samples& samples, double start, double seconds,
                      Stat stat) {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < samples.size(); ++i) {
    const int w =
        static_cast<int>((samples.at[i] - start) / seconds * kWindows);
    if (w >= 0 && w < kWindows) windows[w].push_back(samples.values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& values : windows) {
    if (!values.empty()) per_window.push_back(stat(values));
  }
  return Median(per_window);
}

// One pass of `seconds` on a set-up service whose set-up took `setup_s`
// (median). The calibration kernel runs throughout the pass, and every
// timing metric is reported at the reference speed (see Calibration).
PassOutput ServicePass(service::ServiceApi& api,
                       const std::vector<Session>& sessions, double seconds,
                       double setup_s, bool traced, Run* run) {
  const int64_t attempted_before = run->attempted();
  const int64_t failed_before = run->failed();
  Calibration calibration;
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(kReaders + 1);
  const double start = Now();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kReaders; ++c) {
      clients.emplace_back([&, c] {
        ReaderLoop(api, sessions, c, traced, stop, &logs[c], run);
      });
    }
    clients.emplace_back(
        [&] { WriterLoop(api, sessions, stop, &logs[kReaders], run); });
    const double end = start + seconds;
    for (double next = start; next < end; next += kCalibrationPeriodSeconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(next - Now()));
      calibration.Sample();
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(end - Now()));
    stop.store(true);
  }  // joins every client
  const double elapsed = Now() - start;

  PassOutput out;
  for (const ClientLog& log : logs) {
    out.all.read_ms.Append(log.read_ms);
    out.all.write_ms.Append(log.write_ms);
    out.all.jra_run_ms.Append(log.jra_run_ms);
    out.all.queue_wait_ms.Append(log.queue_wait_ms);
    out.all.resolve_run_s.Append(log.resolve_run_s);
  }
  auto windowed = [&](const Samples& samples, double q) {
    return WindowedMedian(samples, start, seconds,
                          [q](const std::vector<double>& values) {
                            return Quantile(values, q);
                          });
  };
  Samples ops;  // every completed read and write, valued 1
  ops.at = out.all.read_ms.at;
  ops.at.insert(ops.at.end(), out.all.write_ms.at.begin(),
                out.all.write_ms.at.end());
  ops.values.assign(ops.at.size(), 1.0);
  auto windowed_mean = [&](const Samples& samples) {
    return WindowedMedian(samples, start, seconds,
                          [](const std::vector<double>& values) {
                            double sum = 0.0;
                            for (double value : values) sum += value;
                            return sum / static_cast<double>(values.size());
                          });
  };
  EndToEnd m;
  m.solve_s = windowed_mean(out.all.resolve_run_s);
  m.setup_s = setup_s;
  m.read_p50_ms = windowed(out.all.read_ms, 0.50);
  m.read_p90_ms = windowed(out.all.read_ms, 0.90);
  m.write_mean_ms = windowed_mean(out.all.write_ms);
  m.ops_per_s = WindowedMedian(
      ops, start, seconds, [seconds](const std::vector<double>& values) {
        return static_cast<double>(values.size()) / (seconds / kWindows);
      });
  CheckFinalSessions(api, sessions, &m, run);
  m.peak_rss_mb = PeakRssMb();
  const int64_t attempted = run->attempted() - attempted_before;
  const int64_t failed = run->failed() - failed_before;
  m.success_rate = static_cast<double>(attempted - failed) /
                   static_cast<double>(attempted);
  Info("pass%s: %.3f s, %zu reads, %zu writes; raw (medians over %d "
       "windows) read p50 %.3f ms, p90 %.3f ms, write mean %.3f ms, resolve "
       "run mean %.4f s, %.1f ops/s, setup_s %.4f s; speed factor %.4f (%zu "
       "calibrations)",
       traced ? " (traced)" : "", elapsed, out.all.read_ms.size(),
       out.all.write_ms.size(), kWindows, m.read_p50_ms, m.read_p90_ms,
       m.write_mean_ms, m.solve_s, m.ops_per_s, m.setup_s,
       calibration.Factor(), calibration.samples());
  out.raw = m;
  out.metrics = AtReferenceSpeed(m, calibration.Factor());
  return out;
}

// Median ServiceApi::Evaluate, ServiceApi::Mutate and protocol
// (HandleCommand minus ServiceApi for `wait` of a finished JRA job) times,
// on one quiescent session. As in the writer's cycles, every mutate is
// followed by an untimed resolve, so each one meets a complete assignment.
void ProbeServiceLayers(service::ServiceApi& api, const Session& session,
                        LayerValues* values, Run* run) {
  std::vector<double> evaluate_ms;
  std::vector<double> mutate_ms;
  std::vector<double> protocol_ms;
  const int64_t job = JobId(Call(
      api, "submit " + session.name + " jra bba paper=0 topk=3", "", run));
  Call(api, "wait " + std::to_string(job), "", run);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    double t0 = Now();
    run->Op(api.Evaluate(session.name).status(), "probe Evaluate");
    evaluate_ms.push_back(1e3 * (Now() - t0));

    service::MutateRequest mutate;
    mutate.session = session.name;
    mutate.script = ToggleScript(session.pairs, rep);
    t0 = Now();
    run->Op(api.Mutate(mutate).status(), "probe Mutate");
    mutate_ms.push_back(1e3 * (Now() - t0));
    const int64_t resolve = JobId(Call(
        api, "resolve " + session.name + " refine=ls seed=" +
                 std::to_string(rep),
        "", run));
    Call(api, "wait " + std::to_string(resolve), "", run);

    t0 = Now();
    const service::Reply reply =
        service::HandleCommand(api, "wait " + std::to_string(job), "");
    const double protocol = Now() - t0;
    t0 = Now();
    auto direct = api.WaitJob(job);
    const double direct_s = Now() - t0;
    run->Op(reply.status.ok() && direct.ok(), "probe wait");
    protocol_ms.push_back(1e3 * (protocol - direct_s));
  }
  (*values)["service.probe_reps"] = kProbeReps;
  (*values)["service.evaluate_ms"] = Median(evaluate_ms);
  (*values)["core.update.mutate_ms"] = Median(mutate_ms);
  (*values)["service.protocol_ms"] = Median(protocol_ms);
}

}  // namespace

// Opens `session` (closing it first when `reopen`) and installs one sdga
// solve, as the set-up does; returns the seconds taken.
double Install(service::ServiceApi& api, const Session& session, bool reopen,
               Run* run) {
  const double t0 = Now();
  if (reopen) Call(api, "close " + session.name, "", run);
  Call(api, "open " + session.name + " dp=3", session.csv, run);
  const int64_t job =
      JobId(Call(api, "submit " + session.name + " solve sdga", "", run));
  Call(api, "wait " + std::to_string(job), "", run);
  return Now() - t0;
}

std::vector<Pair> InstalledPairs(service::ServiceApi& api,
                                 const Session& session, Run* run) {
  std::vector<Pair> pairs;
  auto installed = data::AssignmentPairsFromCsv(
      Call(api, "assignment " + session.name, "", run).payload);
  run->Op(installed.status(), "parse installed assignment");
  if (installed.ok()) {
    for (const auto& [p, r] : *installed) pairs.push_back(Pair{p, r});
  }
  return pairs;
}

bool SamePairs(const std::vector<Pair>& a, const std::vector<Pair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].paper != b[i].paper || a[i].reviewer != b[i].reviewer) {
      return false;
    }
  }
  return true;
}

// Set-up of a fresh service: every session installed kSetupRepsPerSession
// times, the last installation staying for the clients. Each pass gets its
// own service, so that the traced pass starts from the same state as the
// untraced one and inherits neither its sessions nor its job history.
bool SetUp(service::ServiceApi& api, std::vector<Session>* sessions,
           std::vector<double>* setup_s, Run* run) {
  ResetPeakRss();
  for (Session& session : *sessions) {
    for (int rep = 0; rep < kSetupRepsPerSession; ++rep) {
      setup_s->push_back(Install(api, session, rep > 0, run));
    }
    const std::vector<Pair> pairs = InstalledPairs(api, session, run);
    if (pairs.empty()) return false;
    if (session.pairs.empty()) {
      session.pairs = pairs;
    } else {
      run->Op(SamePairs(pairs, session.pairs),
              "set-up installs the same assignment again");
    }
  }
  return true;
}

int RunServiceMixed(const Args& args, Run* run) {
  service::ServiceOptions options;  // default: 2 job workers
  core::InstanceParams params;
  params.group_size = 3;
  std::vector<Session> sessions(kSessions);
  for (int k = 0; k < kSessions; ++k) {
    Session& session = sessions[k];
    data::SyntheticDblpConfig config;
    config.seed = args.seed * kSessions + k;
    config.num_topics = 30;
    auto dataset = args.smoke ? data::GenerateReviewerPool(40, 30, config)
                              : data::GenerateReviewerPool(189, 146, config);
    if (!dataset.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    session.name = "bench" + std::to_string(k);
    session.csv = data::DatasetToCsv(*dataset);
    session.papers = dataset->num_papers();
    Info("workload service-mixed session %s: P=%d R=%d T=%d dp=3 workers=%d "
         "readers=%d writers=1 seed=%llu seconds=%g csv=%zu bytes%s",
         session.name.c_str(), session.papers, dataset->num_reviewers(),
         dataset->num_topics, options.job_workers, kReaders,
         static_cast<unsigned long long>(args.seed), args.seconds,
         session.csv.size(), args.smoke ? " (smoke)" : "");
    // The local copy for the coverage check and the core layer probes.
    SetupTimes unused;
    auto local = TimedSetup(session.csv, params, 1, &unused);
    run->Op(local.status(), "local instance");
    if (!local.ok()) return 1;
    session.local.emplace(std::move(local).value());
  }

  PassOutput untraced;
  std::vector<double> setup_s;
  {
    service::ServiceApi api(options);
    if (!SetUp(api, &sessions, &setup_s, run)) return 1;
    untraced =
        ServicePass(api, sessions, args.seconds, Median(setup_s), false, run);
  }
  if (!args.trace) {
    EmitEndToEnd(untraced.metrics, run);
    return 0;
  }

  // The traced pass also looks up each job's run time. Solver spans would
  // be emitted on the job workers, which carry no tracer, so the solver
  // layers are probed directly on a local instance below.
  service::ServiceApi api(options);
  std::vector<double> traced_setup_s;
  if (!SetUp(api, &sessions, &traced_setup_s, run)) return 1;
  PassOutput traced = ServicePass(api, sessions, args.seconds,
                                  Median(traced_setup_s), true, run);
  EmitOverhead(traced.metrics, untraced.metrics, run);

  LayerValues values;
  values["service.jra_jobs"] =
      static_cast<double>(traced.all.jra_run_ms.size());
  values["service.resolve_jobs"] =
      static_cast<double>(traced.all.resolve_run_s.size());
  values["service.jra_run_ms"] = Median(traced.all.jra_run_ms.values);
  values["service.queue_wait_ms"] = Median(traced.all.queue_wait_ms.values);
  values["service.resolve_run_ms"] = 1e3 * traced.raw.solve_s;
  const Session& probe = sessions[0];
  Install(api, probe, true, run);
  ProbeServiceLayers(api, probe, &values, run);

  SetupTimes probe_setup;
  run->Op(TimedSetup(probe.csv, params, kProbeReps, &probe_setup).status(),
          "probe set-up");
  values["setup.reps"] = kProbeReps;
  values["data.parse_s"] = Median(probe_setup.parse_s);
  values["core.instance.build_s"] = Median(probe_setup.build_s);
  // The session's solver: sdga, as installed. The writer's resolves refine
  // by local search, so the SRA layers read 0.
  SolveConfig solve;
  const core::Instance& instance = *probe.local;
  core::Assignment installed(&instance);
  ProbeSolveLayers(instance, solve, &values, &installed, run);
  ProbeReportLayers(instance, installed, "sdga", &values, run);
  auto sdga = core::SolveCraSdga(instance, solve.sdga);
  run->Op(sdga.status(), "replay SolveCraSdga");
  if (sdga.ok()) ProbeStageReplay(instance, *sdga, 1, &values, run);
  // The write cycle's share outside mutate and the resolve job: protocol,
  // queueing behind reads, and the job hand-off.
  values["solve.unattributed_s"] =
      1e-3 * (traced.raw.write_mean_ms - values["core.update.mutate_ms"] -
              values["service.resolve_run_ms"]);
  EmitLayers(values, run);
  return 0;
}

}  // namespace perfbench
