#include "core/registry.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace wgrap::core {

Result<int> SolverRunOptions::ExtraInt(const std::string& key,
                                       int fallback) const {
  auto it = extra.find(key);
  if (it == extra.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("option '" + key + "': '" + it->second +
                                   "' is not an integer in range");
  }
  return static_cast<int>(v);
}

Result<double> SolverRunOptions::ExtraDouble(const std::string& key,
                                             double fallback) const {
  auto it = extra.find(key);
  if (it == extra.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("option '" + key + "': '" + it->second +
                                   "' is not a number");
  }
  return v;
}

Result<bool> SolverRunOptions::ExtraBool(const std::string& key,
                                         bool fallback) const {
  auto it = extra.find(key);
  if (it == extra.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  return Status::InvalidArgument("option '" + key + "': '" + v +
                                 "' is not a boolean (use true/false, 1/0 "
                                 "or on/off)");
}

std::string SolverRunOptions::ExtraString(const std::string& key,
                                          const std::string& fallback) const {
  auto it = extra.find(key);
  return it == extra.end() ? fallback : it->second;
}

SolverRunOptions SolverRunOptions::RestrictedTo(
    const std::vector<KnobSpec>& specs) const {
  SolverRunOptions out = *this;
  out.extra.clear();
  for (const KnobSpec& spec : specs) {
    auto it = extra.find(spec.name);
    if (it != extra.end()) out.extra.emplace(it->first, it->second);
  }
  return out;
}

const char* KnobTypeToString(KnobType type) {
  switch (type) {
    case KnobType::kInt:
      return "int";
    case KnobType::kDouble:
      return "double";
    case KnobType::kBool:
      return "bool";
    case KnobType::kEnum:
      return "enum";
    case KnobType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

// "mcf, hungarian or auction" — the style the pre-schema error messages
// used, kept so migrated callers see familiar diagnostics.
std::string JoinForProse(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += (i + 1 == values.size()) ? " or " : ", ";
    out += values[i];
  }
  return out;
}

// Renders a numeric bound without trailing zeros ("1", "0.05", "256").
std::string FormatBound(double v, KnobType type) {
  if (type == KnobType::kInt) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RangeSuffix(const KnobSpec& spec) {
  if (spec.min_value && spec.max_value) {
    return " in [" + FormatBound(*spec.min_value, spec.type) + ", " +
           FormatBound(*spec.max_value, spec.type) + "]";
  }
  if (spec.min_value) {
    return " >= " + FormatBound(*spec.min_value, spec.type);
  }
  if (spec.max_value) {
    return " <= " + FormatBound(*spec.max_value, spec.type);
  }
  return "";
}

}  // namespace

std::string FormatKnobSpec(const KnobSpec& spec) {
  std::string out = spec.name + " (";
  if (spec.type == KnobType::kEnum) {
    out += "enum ";
    for (size_t i = 0; i < spec.enum_values.size(); ++i) {
      if (i > 0) out += "|";
      out += spec.enum_values[i];
    }
  } else {
    out += KnobTypeToString(spec.type);
    out += RangeSuffix(spec);
  }
  if (!spec.default_value.empty()) {
    out += ", default " + spec.default_value;
  }
  out += ")";
  if (!spec.doc.empty()) {
    out += " — " + spec.doc;
  }
  return out;
}

Status ValidateKnobValue(const KnobSpec& spec, const std::string& value) {
  switch (spec.type) {
    case KnobType::kInt: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0' ||
          v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("option '" + spec.name + "': '" +
                                       value + "' is not an integer in range");
      }
      if ((spec.min_value && v < *spec.min_value) ||
          (spec.max_value && v > *spec.max_value)) {
        return Status::InvalidArgument("option '" + spec.name + "' must be" +
                                       RangeSuffix(spec));
      }
      return Status::OK();
    }
    case KnobType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("option '" + spec.name + "': '" +
                                       value + "' is not a number");
      }
      if ((spec.min_value && v < *spec.min_value) ||
          (spec.max_value && v > *spec.max_value)) {
        return Status::InvalidArgument("option '" + spec.name + "' must be" +
                                       RangeSuffix(spec));
      }
      return Status::OK();
    }
    case KnobType::kBool: {
      if (value == "true" || value == "1" || value == "on" ||
          value == "false" || value == "0" || value == "off") {
        return Status::OK();
      }
      return Status::InvalidArgument("option '" + spec.name + "': '" + value +
                                     "' is not a boolean (use true/false, "
                                     "1/0 or on/off)");
    }
    case KnobType::kEnum: {
      for (const std::string& legal : spec.enum_values) {
        if (value == legal) return Status::OK();
      }
      return Status::InvalidArgument("option '" + spec.name + "': '" + value +
                                     "' (use " + JoinForProse(spec.enum_values) +
                                     ")");
    }
    case KnobType::kString:
      return Status::OK();
  }
  return Status::Internal("unhandled knob type");
}

Status ValidateKnobs(const std::string& owner,
                     const std::vector<KnobSpec>& specs,
                     const std::map<std::string, std::string>& extra) {
  for (const auto& [key, value] : extra) {
    const KnobSpec* spec = nullptr;
    for (const KnobSpec& candidate : specs) {
      if (candidate.name == key) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      if (specs.empty()) {
        return Status::InvalidArgument("'" + owner + "' takes no options "
                                       "(got '" + key + "')");
      }
      std::string declared;
      for (const KnobSpec& candidate : specs) {
        if (!declared.empty()) declared += ", ";
        declared += candidate.name;
      }
      return Status::InvalidArgument("'" + owner + "' does not take option '" +
                                     key + "' (declared knobs: " + declared +
                                     ")");
    }
    WGRAP_RETURN_IF_ERROR(ValidateKnobValue(*spec, value));
  }
  return Status::OK();
}

const KnobSpec* SolverDescriptor::FindKnob(const std::string& knob) const {
  for (const KnobSpec& spec : knobs) {
    if (spec.name == knob) return &spec;
  }
  return nullptr;
}

namespace {

// --- Declared knob schemas -------------------------------------------------
// One builder per knob so descriptors compose their schema from shared
// definitions and `solvers --verbose` shows identical docs everywhere.

KnobSpec ThreadsKnob() {
  KnobSpec s;
  s.name = "threads";
  s.type = KnobType::kInt;
  s.default_value = "1";
  s.doc =
      "worker threads for the parallel hot paths; output is bit-identical "
      "at any value";
  s.min_value = 1;
  s.max_value = 256;
  return s;
}

KnobSpec LapKnob() {
  KnobSpec s;
  s.name = "lap";
  s.type = KnobType::kEnum;
  s.default_value = "hungarian";
  s.doc =
      "LAP backend for the per-stage linear-assignment solves (hungarian = "
      "capacitated Jonker-Volgenant; mcf = min-cost flow network)";
  s.enum_values = {"mcf", "hungarian", "auction"};
  return s;
}

// ilp's single transportation solve has demand dp > 1, which the
// Jonker-Volgenant backend (demand 1 only) does not cover — its schema
// offers min-cost flow (the default) and the auction instead of rejecting
// 'hungarian' deep inside the factory.
KnobSpec IlpLapKnob() {
  KnobSpec s = LapKnob();
  s.default_value = "mcf";
  s.doc = "backend for the demand-dp transportation solve";
  s.enum_values = {"mcf", "auction"};
  return s;
}

KnobSpec LapTopKKnob() {
  KnobSpec s;
  s.name = "lap_topk";
  s.type = KnobType::kInt;
  s.default_value = "0";
  s.doc =
      "lap=auction only: build each stage from the top-K gains per paper "
      "with an exactness guard (0 = dense)";
  s.min_value = 0;
  return s;
}

KnobSpec LapEpsilonKnob() {
  KnobSpec s;
  s.name = "lap_epsilon";
  s.type = KnobType::kDouble;
  s.default_value = "0";
  s.doc =
      "lap=auction only: initial epsilon of the scaling schedule in profit "
      "units (0 = auto)";
  s.min_value = 0.0;
  return s;
}

KnobSpec GainsKnob() {
  KnobSpec s;
  s.name = "gains";
  s.type = KnobType::kEnum;
  s.default_value = "incremental";
  s.doc =
      "marginal-gain maintenance: delta-maintained caches or per-stage "
      "rebuild (bit-identical either way)";
  s.enum_values = {"rebuild", "incremental"};
  return s;
}

KnobSpec SraOmegaKnob() {
  KnobSpec s;
  s.name = "sra_omega";
  s.type = KnobType::kInt;
  s.default_value = std::to_string(SraOptions{}.convergence_window);
  s.doc = "SRA convergence window: stop after this many rounds without "
          "improvement (Sec. 4.4)";
  s.min_value = 1;
  return s;
}

KnobSpec SraLambdaKnob() {
  KnobSpec s;
  s.name = "sra_lambda";
  s.type = KnobType::kDouble;
  s.default_value = FormatBound(SraOptions{}.decay_lambda, KnobType::kDouble);
  s.doc = "SRA decay rate of the data-driven removal model (Eq. 10)";
  return s;
}

KnobSpec TopicsKnob() {
  KnobSpec s;
  s.name = "topics";
  s.type = KnobType::kEnum;
  s.default_value = "dense";
  s.doc =
      "scoring-kernel selector; 'sparse' requires an instance carrying CSR "
      "topic views and is bit-identical to 'dense'";
  s.enum_values = {"dense", "sparse"};
  return s;
}

KnobSpec BbaBoundingKnob() {
  KnobSpec s;
  s.name = "bba_bounding";
  s.type = KnobType::kBool;
  s.default_value = "true";
  s.doc = "prune with the Eq. 3 cursor upper bound (ablation knob)";
  return s;
}

KnobSpec BbaGainBranchingKnob() {
  KnobSpec s;
  s.name = "bba_gain_branching";
  s.type = KnobType::kBool;
  s.default_value = "true";
  s.doc = "branch on the max-marginal-gain cursor reviewer (Definition 8)";
  return s;
}

KnobSpec UpdateRefineKnob() {
  KnobSpec s;
  s.name = "update_refine";
  s.type = KnobType::kEnum;
  s.default_value = "sra";
  s.doc = "refinement pass run on the repaired assignment after an "
          "instance update";
  s.enum_values = {"sra", "ls", "none"};
  return s;
}

// Schema of the SDGA stage pipeline (shared by sdga / sdga-ls and, with
// the SRA additions, sdga-sra / sra).
std::vector<KnobSpec> SdgaPipelineKnobs() {
  return {ThreadsKnob(), LapKnob(),   LapTopKKnob(),
          LapEpsilonKnob(), GainsKnob(), TopicsKnob()};
}

std::vector<KnobSpec> SraPipelineKnobs() {
  std::vector<KnobSpec> knobs = SdgaPipelineKnobs();
  knobs.push_back(SraOmegaKnob());
  knobs.push_back(SraLambdaKnob());
  return knobs;
}

// The knobs shared by the SDGA/SRA/LS pipeline factories, decoded from
// SolverRunOptions::extra once per dispatch. Schema validation has already
// run by the time a factory decodes, so the checks here are defensive;
// the cross-knob constraint (lap_topk/lap_epsilon need lap=auction) is
// enforced here because KnobSpec is per-knob.
struct PipelineKnobs {
  int threads = 1;
  LapBackend backend = SdgaOptions{}.backend;
  int lap_topk = 0;
  double lap_epsilon = 0.0;
  GainMode gains = SdgaOptions{}.gains;
  int sra_omega = SraOptions{}.convergence_window;
  double sra_lambda = SraOptions{}.decay_lambda;
  bool sparse_topics = false;  // the "topics" knob requested "sparse"
  bool bba_bounding = BbaOptions{}.use_bounding;
  bool bba_gain_branching = BbaOptions{}.use_gain_branching;
};

// `lap_knob` supplies the default of the "lap" knob: the stage solvers
// and ilp declare different ones.
Result<PipelineKnobs> ParsePipelineKnobs(const SolverRunOptions& options,
                                         const KnobSpec& lap_knob = LapKnob()) {
  PipelineKnobs knobs;
  auto threads = options.ExtraInt("threads", knobs.threads);
  if (!threads.ok()) return threads.status();
  // Bound the pool size: each worker is a real OS thread, so an absurd
  // request must fail cleanly rather than exhaust the process.
  if (*threads < 1 || *threads > 256) {
    return Status::InvalidArgument("option 'threads' must be in [1, 256]");
  }
  knobs.threads = *threads;
  const std::string lap = options.ExtraString("lap", lap_knob.default_value);
  if (lap == "mcf") {
    knobs.backend = LapBackend::kMinCostFlow;
  } else if (lap == "hungarian") {
    knobs.backend = LapBackend::kHungarian;
  } else if (lap == "auction") {
    knobs.backend = LapBackend::kAuction;
  } else {
    return Status::InvalidArgument("option 'lap': '" + lap +
                                   "' (use mcf, hungarian or auction)");
  }
  auto lap_topk = options.ExtraInt("lap_topk", knobs.lap_topk);
  if (!lap_topk.ok()) return lap_topk.status();
  if (*lap_topk < 0) {
    return Status::InvalidArgument("option 'lap_topk' must be >= 0");
  }
  knobs.lap_topk = *lap_topk;
  auto lap_epsilon = options.ExtraDouble("lap_epsilon", knobs.lap_epsilon);
  if (!lap_epsilon.ok()) return lap_epsilon.status();
  if (*lap_epsilon < 0.0) {
    return Status::InvalidArgument("option 'lap_epsilon' must be >= 0");
  }
  knobs.lap_epsilon = *lap_epsilon;
  const std::string gains = options.ExtraString("gains", "incremental");
  if (gains == "rebuild") {
    knobs.gains = GainMode::kRebuild;
  } else if (gains == "incremental") {
    knobs.gains = GainMode::kIncremental;
  } else {
    return Status::InvalidArgument("option 'gains': '" + gains +
                                   "' (use rebuild or incremental)");
  }
  if (knobs.backend != LapBackend::kAuction &&
      (knobs.lap_topk != 0 || knobs.lap_epsilon != 0.0)) {
    return Status::InvalidArgument(
        "options 'lap_topk'/'lap_epsilon' require lap=auction");
  }
  auto omega = options.ExtraInt("sra_omega", knobs.sra_omega);
  if (!omega.ok()) return omega.status();
  if (*omega <= 0) {
    return Status::InvalidArgument("option 'sra_omega' must be > 0");
  }
  knobs.sra_omega = *omega;
  auto lambda = options.ExtraDouble("sra_lambda", knobs.sra_lambda);
  if (!lambda.ok()) return lambda.status();
  knobs.sra_lambda = *lambda;
  const std::string topics = options.ExtraString("topics", "dense");
  if (topics == "sparse") {
    knobs.sparse_topics = true;
  } else if (topics != "dense") {
    return Status::InvalidArgument("option 'topics': '" + topics +
                                   "' (use dense or sparse)");
  }
  auto bounding = options.ExtraBool("bba_bounding", knobs.bba_bounding);
  if (!bounding.ok()) return bounding.status();
  knobs.bba_bounding = *bounding;
  auto gain_branching =
      options.ExtraBool("bba_gain_branching", knobs.bba_gain_branching);
  if (!gain_branching.ok()) return gain_branching.status();
  knobs.bba_gain_branching = *gain_branching;
  return knobs;
}

// The "topics" knob's contract check, shared by every dispatch: asking for
// the sparse kernels only makes sense on an instance that carries the CSR
// views (building them mutates the instance, which dispatch — taking
// const Instance& — must not do behind the caller's back).
Status CheckTopicsKnob(const SolverRunOptions& options,
                       const Instance& instance) {
  if (options.ExtraString("topics", "dense") == "sparse" &&
      !instance.has_sparse_topics()) {
    return Status::InvalidArgument(
        "option 'topics': 'sparse' requires an instance with sparse topic "
        "views — call Instance::BuildSparseTopics() (or pass --topics "
        "sparse to wgrap_cli, which does)");
  }
  return Status::OK();
}

// Adapts RRAP's unconstrained per-paper lists into an Assignment via
// AddUnchecked so it can flow through the same evaluation pipeline as the
// feasible solvers. The result intentionally fails ValidateComplete —
// that imbalance (Fig. 1(a)) is the point of the baseline.
Result<Assignment> SolveRrapAsAssignment(const Instance& instance,
                                         const SolverRunOptions& options) {
  CraOptions cra;
  cra.time_limit_seconds = options.time_limit_seconds;
  cra.cancel = options.cancel;
  auto raw = SolveCraRrap(instance, cra);
  WGRAP_RETURN_IF_ERROR(raw.status());
  Assignment assignment(&instance);
  for (int p = 0; p < instance.num_papers(); ++p) {
    for (int r : raw->reviewers_of_paper[p]) {
      WGRAP_RETURN_IF_ERROR(assignment.AddUnchecked(p, r));
    }
  }
  return assignment;
}

SolverRegistry BuildDefaultRegistry() {
  SolverRegistry registry;
  auto add_cra = [&registry](std::string name, std::string paper_name,
                             std::string summary, std::vector<KnobSpec> knobs,
                             CraSolverFn fn, bool feasible = true) {
    SolverDescriptor d;
    d.name = std::move(name);
    d.family = SolverFamily::kCra;
    d.paper_name = std::move(paper_name);
    d.summary = std::move(summary);
    d.produces_feasible = feasible;
    d.knobs = std::move(knobs);
    d.cra = std::move(fn);
    const Status status = registry.Register(std::move(d));
    WGRAP_CHECK_MSG(status.ok(), "built-in solver registration failed");
  };
  auto add_jra = [&registry](std::string name, std::string paper_name,
                             std::string summary, std::vector<KnobSpec> knobs,
                             JraSolverFn fn) {
    SolverDescriptor d;
    d.name = std::move(name);
    d.family = SolverFamily::kJra;
    d.paper_name = std::move(paper_name);
    d.summary = std::move(summary);
    d.knobs = std::move(knobs);
    d.jra = std::move(fn);
    const Status status = registry.Register(std::move(d));
    WGRAP_CHECK_MSG(status.ok(), "built-in solver registration failed");
  };

  // --- CRA: whole-conference solvers (Sec. 4 / Sec. 5.2 line-up) ---------
  add_cra("greedy", "Greedy (Long et al. [22], Eq. 4)",
          "pair-at-a-time lazy-heap greedy, 1/3-approximation",
          {TopicsKnob()},
          [](const Instance& instance, const SolverRunOptions& options) {
            CraOptions cra;
            cra.time_limit_seconds = options.time_limit_seconds;
            cra.cancel = options.cancel;
            return SolveCraGreedy(instance, cra);
          });
  add_cra("brgg", "BRGG (best reviewer-group greedy)",
          "commits the best whole (group, paper) pair per round",
          {ThreadsKnob(), TopicsKnob()},
          [](const Instance& instance,
             const SolverRunOptions& options) -> Result<Assignment> {
            auto knobs = ParsePipelineKnobs(options);
            WGRAP_RETURN_IF_ERROR(knobs.status());
            CraOptions cra;
            cra.time_limit_seconds = options.time_limit_seconds;
            cra.num_threads = knobs->threads;
            cra.cancel = options.cancel;
            return SolveCraBrgg(instance, cra);
          });
  add_cra("sdga", "SDGA (Algorithm 2)",
          "stage-deepening greedy: dp linear-assignment stages, "
          "1/2-approximation",
          SdgaPipelineKnobs(),
          [](const Instance& instance,
             const SolverRunOptions& options) -> Result<Assignment> {
            auto knobs = ParsePipelineKnobs(options);
            WGRAP_RETURN_IF_ERROR(knobs.status());
            SdgaOptions sdga;
            sdga.time_limit_seconds = options.time_limit_seconds;
            sdga.num_threads = knobs->threads;
            sdga.backend = knobs->backend;
            sdga.lap_topk = knobs->lap_topk;
            sdga.lap_epsilon = knobs->lap_epsilon;
            sdga.gains = knobs->gains;
            sdga.cancel = options.cancel;
            sdga.progress = options.progress;
            return SolveCraSdga(instance, sdga);
          });
  add_cra("sdga-sra", "SDGA + SRA (Algorithms 2+3)",
          "the paper's recommended pipeline: SDGA then stochastic refinement",
          SraPipelineKnobs(),
          [](const Instance& instance,
             const SolverRunOptions& options) -> Result<Assignment> {
            auto knobs = ParsePipelineKnobs(options);
            WGRAP_RETURN_IF_ERROR(knobs.status());
            SdgaOptions sdga;
            sdga.num_threads = knobs->threads;
            sdga.backend = knobs->backend;
            sdga.lap_topk = knobs->lap_topk;
            sdga.lap_epsilon = knobs->lap_epsilon;
            sdga.gains = knobs->gains;
            sdga.cancel = options.cancel;
            sdga.progress = options.progress;
            SraOptions sra;
            sra.time_limit_seconds = options.time_limit_seconds;
            sra.seed = options.seed;
            sra.num_threads = knobs->threads;
            sra.backend = knobs->backend;
            sra.lap_topk = knobs->lap_topk;
            sra.lap_epsilon = knobs->lap_epsilon;
            sra.gains = knobs->gains;
            sra.convergence_window = knobs->sra_omega;
            sra.decay_lambda = knobs->sra_lambda;
            sra.cancel = options.cancel;
            sra.progress = options.progress;
            return SolveCraSdgaSra(instance, sdga, sra);
          });
  add_cra("sdga-ls", "SDGA + LS (Fig. 12 baseline)",
          "SDGA then plain hill-climbing local search",
          SdgaPipelineKnobs(),
          [](const Instance& instance,
             const SolverRunOptions& options) -> Result<Assignment> {
            auto knobs = ParsePipelineKnobs(options);
            WGRAP_RETURN_IF_ERROR(knobs.status());
            SdgaOptions sdga;
            sdga.num_threads = knobs->threads;
            sdga.backend = knobs->backend;
            sdga.lap_topk = knobs->lap_topk;
            sdga.lap_epsilon = knobs->lap_epsilon;
            sdga.gains = knobs->gains;
            sdga.cancel = options.cancel;
            sdga.progress = options.progress;
            auto initial = SolveCraSdga(instance, sdga);
            WGRAP_RETURN_IF_ERROR(initial.status());
            LocalSearchOptions ls;
            ls.time_limit_seconds = options.time_limit_seconds;
            ls.seed = options.seed;
            ls.num_threads = knobs->threads;
            ls.gains = knobs->gains;
            ls.cancel = options.cancel;
            ls.progress = options.progress;
            return RefineLocalSearch(instance, *initial, ls);
          });
  add_cra("sm", "SM (stable matching)",
          "Gale-Shapley college-admissions baseline",
          {TopicsKnob()},
          [](const Instance& instance, const SolverRunOptions& options) {
            CraOptions cra;
            cra.time_limit_seconds = options.time_limit_seconds;
            cra.cancel = options.cancel;
            return SolveCraStableMatching(instance, cra);
          });
  add_cra("ilp", "ILP (exact ARAP)",
          "exact per-pair-objective assignment via one transportation "
          "solve (lap=mcf or auction)",
          {ThreadsKnob(), IlpLapKnob(), LapEpsilonKnob(), TopicsKnob()},
          [](const Instance& instance,
             const SolverRunOptions& options) -> Result<Assignment> {
            auto knobs = ParsePipelineKnobs(options, IlpLapKnob());
            WGRAP_RETURN_IF_ERROR(knobs.status());
            // Defensive: the declared schema (IlpLapKnob) already rejects
            // 'hungarian' at dispatch; keep the factory honest for direct
            // callers.
            if (knobs->backend == LapBackend::kHungarian) {
              return Status::InvalidArgument(
                  "option 'lap': 'hungarian' is not supported by ilp "
                  "(use mcf or auction)");
            }
            IlpArapOptions ilp;
            ilp.time_limit_seconds = options.time_limit_seconds;
            ilp.num_threads = knobs->threads;
            ilp.backend = knobs->backend;
            ilp.lap_epsilon = knobs->lap_epsilon;
            ilp.cancel = options.cancel;
            ilp.progress = options.progress;
            return SolveCraIlpArap(instance, ilp);
          });
  add_cra("rrap", "RRAP (Definition 4, retrieval baseline)",
          "each reviewer takes their top-dr papers; group sizes "
          "unconstrained (diagnostic baseline)",
          {TopicsKnob()}, SolveRrapAsAssignment, /*feasible=*/false);

  // --- CRA refinement-only entries (refine-from-initial hook) ------------
  auto add_refine = [&registry](std::string name, std::string paper_name,
                                std::string summary,
                                std::vector<KnobSpec> knobs, CraRefineFn fn) {
    SolverDescriptor d;
    d.name = std::move(name);
    d.family = SolverFamily::kCra;
    d.paper_name = std::move(paper_name);
    d.summary = std::move(summary);
    d.knobs = std::move(knobs);
    d.refine = std::move(fn);
    const Status status = registry.Register(std::move(d));
    WGRAP_CHECK_MSG(status.ok(), "built-in solver registration failed");
  };
  add_refine("sra", "SRA (Algorithm 3)",
             "stochastic refinement of an existing assignment "
             "(requires an initial assignment; use RefineCra / --refine)",
             SraPipelineKnobs(),
             [](const Instance& instance, const Assignment& initial,
                const SolverRunOptions& options) -> Result<Assignment> {
               auto knobs = ParsePipelineKnobs(options);
               WGRAP_RETURN_IF_ERROR(knobs.status());
               SraOptions sra;
               sra.time_limit_seconds = options.time_limit_seconds;
               sra.seed = options.seed;
               sra.num_threads = knobs->threads;
               sra.backend = knobs->backend;
               sra.lap_topk = knobs->lap_topk;
               sra.lap_epsilon = knobs->lap_epsilon;
               sra.gains = knobs->gains;
               sra.convergence_window = knobs->sra_omega;
               sra.decay_lambda = knobs->sra_lambda;
               sra.cancel = options.cancel;
               sra.progress = options.progress;
               return RefineSra(instance, initial, sra);
             });
  add_refine("ls", "LS (Fig. 12 baseline)",
             "hill-climbing refinement of an existing assignment "
             "(requires an initial assignment; use RefineCra / --refine)",
             {ThreadsKnob(), GainsKnob(), TopicsKnob()},
             [](const Instance& instance, const Assignment& initial,
                const SolverRunOptions& options) -> Result<Assignment> {
               auto knobs = ParsePipelineKnobs(options);
               WGRAP_RETURN_IF_ERROR(knobs.status());
               LocalSearchOptions ls;
               ls.time_limit_seconds = options.time_limit_seconds;
               ls.seed = options.seed;
               ls.num_threads = knobs->threads;
               ls.gains = knobs->gains;
               ls.cancel = options.cancel;
               ls.progress = options.progress;
               return RefineLocalSearch(instance, initial, ls);
             });

  // --- JRA: single-paper solvers (Sec. 3 / Sec. 5.1 line-up) -------------
  {
    SolverDescriptor d;
    d.name = "bba";
    d.family = SolverFamily::kJra;
    d.paper_name = "BBA (Algorithm 1)";
    d.summary =
        "branch-and-bound with the Eq. 3 upper bound and max-gain "
        "branching (bba_bounding / bba_gain_branching knobs; top-k via "
        "SolveJraTopK)";
    d.knobs = {TopicsKnob(), BbaBoundingKnob(), BbaGainBranchingKnob()};
    d.jra = [](const Instance& instance, int paper,
               const SolverRunOptions& options) -> Result<JraResult> {
      auto knobs = ParsePipelineKnobs(options);
      WGRAP_RETURN_IF_ERROR(knobs.status());
      BbaOptions bba;
      bba.time_limit_seconds = options.time_limit_seconds;
      bba.use_bounding = knobs->bba_bounding;
      bba.use_gain_branching = knobs->bba_gain_branching;
      bba.cancel = options.cancel;
      return SolveJraBba(instance, paper, bba);
    };
    // The size-k best-so-far heap variant (Sec. 3, final remark / Fig. 15)
    // shares the knob decoding with the single-best entry point.
    d.jra_topk = [](const Instance& instance, int paper, int k,
                    const SolverRunOptions& options)
        -> Result<std::vector<JraResult>> {
      auto knobs = ParsePipelineKnobs(options);
      WGRAP_RETURN_IF_ERROR(knobs.status());
      BbaOptions bba;
      bba.time_limit_seconds = options.time_limit_seconds;
      bba.use_bounding = knobs->bba_bounding;
      bba.use_gain_branching = knobs->bba_gain_branching;
      bba.cancel = options.cancel;
      return SolveJraBbaTopK(instance, paper, k, bba);
    };
    const Status status = registry.Register(std::move(d));
    WGRAP_CHECK_MSG(status.ok(), "built-in solver registration failed");
  }
  add_jra("bfs", "BFS (brute force)",
          "enumerates all C(R, dp) groups — exact but exponential",
          {TopicsKnob()},
          [](const Instance& instance, int paper,
             const SolverRunOptions& options) {
            JraOptions jra;
            jra.time_limit_seconds = options.time_limit_seconds;
            jra.cancel = options.cancel;
            return SolveJraBruteForce(instance, paper, jra);
          });
  add_jra("jra-ilp", "ILP (MIP formulation)",
          "mixed-integer formulation on the lp/ simplex + B&B solver",
          {TopicsKnob()},
          [](const Instance& instance, int paper,
             const SolverRunOptions& options) {
            JraOptions jra;
            jra.time_limit_seconds = options.time_limit_seconds;
            jra.cancel = options.cancel;
            return SolveJraIlp(instance, paper, jra);
          });
  add_jra("jra-cp", "CP (constraint programming)",
          "generic CP search over the cp/ select-k substrate",
          {TopicsKnob()},
          [](const Instance& instance, int paper,
             const SolverRunOptions& options) {
            JraOptions jra;
            jra.time_limit_seconds = options.time_limit_seconds;
            jra.cancel = options.cancel;
            return SolveJraCp(instance, paper, jra);
          });

  return registry;
}

}  // namespace

const std::vector<KnobSpec>& IncrementalResolveKnobSpecs() {
  static const std::vector<KnobSpec>* specs = [] {
    auto* s = new std::vector<KnobSpec>(SraPipelineKnobs());
    s->push_back(UpdateRefineKnob());
    return s;
  }();
  return *specs;
}

SolverRegistry& SolverRegistry::Default() {
  static SolverRegistry* registry = new SolverRegistry(BuildDefaultRegistry());
  return *registry;
}

Status SolverRegistry::Register(SolverDescriptor descriptor) {
  if (descriptor.name.empty()) {
    return Status::InvalidArgument("solver name must be non-empty");
  }
  if (descriptor.family == SolverFamily::kCra) {
    if ((!descriptor.cra && !descriptor.refine) || descriptor.jra ||
        descriptor.jra_topk) {
      return Status::InvalidArgument(
          "a CRA descriptor must set cra and/or refine, and not "
          "jra/jra_topk");
    }
  } else {
    if (!descriptor.jra || descriptor.cra || descriptor.refine) {
      return Status::InvalidArgument(
          "a JRA descriptor must set jra (optionally jra_topk), and not "
          "cra/refine");
    }
  }
  std::string name = descriptor.name;
  auto [it, inserted] = solvers_.emplace(std::move(name), std::move(descriptor));
  if (!inserted) {
    return Status::FailedPrecondition("solver already registered: " +
                                      it->first);
  }
  return Status::OK();
}

const SolverDescriptor* SolverRegistry::Find(const std::string& name) const {
  auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

std::vector<const SolverDescriptor*> SolverRegistry::List() const {
  std::vector<const SolverDescriptor*> out;
  out.reserve(solvers_.size());
  for (const auto& [name, descriptor] : solvers_) out.push_back(&descriptor);
  return out;
}

std::vector<const SolverDescriptor*> SolverRegistry::List(
    SolverFamily family) const {
  std::vector<const SolverDescriptor*> out;
  for (const auto& [name, descriptor] : solvers_) {
    if (descriptor.family == family) out.push_back(&descriptor);
  }
  return out;
}

std::string SolverRegistry::KeysCsv(SolverFamily family) const {
  std::string csv;
  for (const SolverDescriptor* descriptor : List(family)) {
    if (!csv.empty()) csv += ", ";
    csv += descriptor->name;
  }
  return csv;
}

Result<SolverResponse> SolverRegistry::Run(const SolverRequest& request,
                                           const Instance& instance) const {
  using Kind = SolverRequest::Kind;
  const bool wants_jra =
      request.kind == Kind::kSolveJra || request.kind == Kind::kSolveJraTopK;
  const SolverDescriptor* descriptor = Find(request.solver);
  if (descriptor == nullptr) {
    return Status::NotFound(
        std::string("unknown ") + (wants_jra ? "JRA" : "CRA") + " solver '" +
        request.solver + "' (have: " +
        KeysCsv(wants_jra ? SolverFamily::kJra : SolverFamily::kCra) + ")");
  }
  if (wants_jra && descriptor->family != SolverFamily::kJra) {
    return Status::InvalidArgument("'" + request.solver +
                                   "' is a CRA solver; use SolveCra");
  }
  if (!wants_jra && descriptor->family != SolverFamily::kCra) {
    return Status::InvalidArgument("'" + request.solver +
                                   "' is a JRA solver; use SolveJra");
  }
  switch (request.kind) {
    case Kind::kSolveCra:
      if (!descriptor->cra) {
        return Status::InvalidArgument(
            "'" + request.solver + "' refines an existing assignment and "
            "cannot build one from scratch; use RefineCra (wgrap_cli: "
            "--refine)");
      }
      break;
    case Kind::kRefineCra:
      if (!descriptor->refine) {
        return Status::InvalidArgument(
            "'" + request.solver + "' has no refine-from-initial hook "
            "(refiners: sra, ls)");
      }
      if (request.initial == nullptr) {
        return Status::InvalidArgument(
            "RefineCra requires an initial assignment");
      }
      break;
    case Kind::kSolveJra:
      break;
    case Kind::kSolveJraTopK:
      if (!descriptor->jra_topk) {
        return Status::InvalidArgument("'" + request.solver +
                                       "' has no top-k hook (top-k solvers: "
                                       "bba)");
      }
      if (request.k < 1) {
        return Status::InvalidArgument("top-k requires k >= 1");
      }
      break;
  }
  // One validation pass against the declared schema — unknown or ill-typed
  // knobs never reach a factory — then the shared topics contract check.
  WGRAP_RETURN_IF_ERROR(
      ValidateKnobs(descriptor->name, descriptor->knobs, request.options.extra));
  WGRAP_RETURN_IF_ERROR(CheckTopicsKnob(request.options, instance));

  Stopwatch timer;
  SolverResponse response;
  switch (request.kind) {
    case Kind::kSolveCra: {
      auto result = descriptor->cra(instance, request.options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.assignment = std::move(result).value();
      break;
    }
    case Kind::kRefineCra: {
      auto result =
          descriptor->refine(instance, *request.initial, request.options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.assignment = std::move(result).value();
      break;
    }
    case Kind::kSolveJra: {
      auto result = descriptor->jra(instance, request.paper, request.options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.jra.push_back(std::move(result).value());
      break;
    }
    case Kind::kSolveJraTopK: {
      auto result = descriptor->jra_topk(instance, request.paper, request.k,
                                         request.options);
      WGRAP_RETURN_IF_ERROR(result.status());
      response.jra = std::move(result).value();
      break;
    }
  }
  response.seconds = timer.ElapsedSeconds();
  return response;
}

Result<Assignment> SolverRegistry::SolveCra(
    const std::string& name, const Instance& instance,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveCra;
  request.solver = name;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(*response->assignment);
}

Result<Assignment> SolverRegistry::RefineCra(
    const std::string& name, const Instance& instance,
    const Assignment& initial, const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kRefineCra;
  request.solver = name;
  request.initial = &initial;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(*response->assignment);
}

Result<JraResult> SolverRegistry::SolveJra(
    const std::string& name, const Instance& instance, int paper,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveJra;
  request.solver = name;
  request.paper = paper;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(response->jra.front());
}

Result<std::vector<JraResult>> SolverRegistry::SolveJraTopK(
    const std::string& name, const Instance& instance, int paper, int k,
    const SolverRunOptions& options) const {
  SolverRequest request;
  request.kind = SolverRequest::Kind::kSolveJraTopK;
  request.solver = name;
  request.paper = paper;
  request.k = k;
  request.options = options;
  auto response = Run(request, instance);
  WGRAP_RETURN_IF_ERROR(response.status());
  return std::move(response->jra);
}

}  // namespace wgrap::core
