#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <thread>

#include "obs/metrics.h"
#include "simd/dispatch.h"

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Now() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);  // freed heap leaves the resident set first
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double LowestDecileCoverage(const wgrap::core::Assignment& assignment) {
  const int papers = assignment.instance().num_papers();
  std::vector<double> scores(papers);
  for (int p = 0; p < papers; ++p) scores[p] = assignment.PaperScore(p);
  std::sort(scores.begin(), scores.end());
  const int k = std::max(1, (papers + 9) / 10);
  double sum = 0.0;
  for (int i = 0; i < k && i < papers; ++i) sum += scores[i];
  return papers == 0 ? 0.0 : sum / k;
}

void Calibration::Sample() {
  static const std::vector<uint32_t> keys = [] {
    std::vector<uint32_t> values(1 << 17);
    uint64_t x = 88172645463325252ull;  // xorshift64
    for (uint32_t& value : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      value = static_cast<uint32_t>(x);
    }
    return values;
  }();
  const double t0 = Now();
  uint32_t check = 0;
  for (int rep = 0; rep < 4; ++rep) {
    std::vector<uint32_t> copy = keys;
    std::sort(copy.begin(), copy.end());
    check ^= copy[copy.size() / 2];
  }
  seconds_.push_back(Now() - t0);
  // Keeps the sorts from being optimised away.
  if (check == 1) Info("calibration check %u", check);
}

double Calibration::Factor() const {
  return kReferenceSeconds / Median(seconds_);
}

void Run::Op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Cap the log: a systematic failure would otherwise flood stdout.
  if (failed_ <= 20) std::printf("# FAILED %s\n", what.c_str());
}

void Run::Op(const wgrap::Status& status, const std::string& what) {
  Op(status.ok(), status.ok() ? what : what + ": " + status.ToString());
}

void Run::Metric(const std::string& name, const std::string& unit,
                 double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{unit, value};
}

int64_t Run::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Run::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void Run::PrintJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  bool finite = true;
  std::string metrics;
  for (const std::string& name : order_) {
    const Entry& entry = metrics_.at(name);
    finite = finite && std::isfinite(entry.value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.value) ? entry.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               entry.unit + "\"}";
  }
  const bool correct = finite && failed_ == 0 && attempted_ > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

void Info(const char* format, ...) {
  std::printf("# ");
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
}

void PrintMachineProfile() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Info("machine cpu=\"%s\" nproc=%u build=%s simd=%s telemetry=%s",
       cpu.c_str(), std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
       wgrap::simd::ActiveBackendName(),
       wgrap::obs::Enabled() ? "on" : "off");
}

WorkCounters WorkCounters::Read() {
  WorkCounters counters;
  wgrap::obs::Registry& registry = wgrap::obs::Registry::Global();
  for (const char* name :
       {"wgrap_sra_rounds_total", "wgrap_gain_cache_patched_cells_total",
        "wgrap_gain_cache_rebuilt_cells_total",
        "wgrap_gain_cache_full_builds_total", "wgrap_lap_auction_bids_total",
        "wgrap_lap_auction_rounds_total"}) {
    wgrap::obs::Counter* counter = registry.GetCounter(name);
    counters.values[name] = counter == nullptr ? 0 : counter->Value();
  }
  return counters;
}

WorkCounters WorkCounters::Minus(const WorkCounters& before) const {
  WorkCounters delta;
  for (const auto& [name, value] : values) {
    delta.values[name] = value - before.Get(name);
  }
  return delta;
}

int64_t WorkCounters::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

std::string WorkCounters::ToString() const {
  std::string out;
  for (const auto& [name, value] : values) {
    if (!out.empty()) out += " ";
    out += name + "=" + std::to_string(value);
  }
  return out;
}

std::vector<double> SpanSeconds(const wgrap::obs::Tracer& tracer,
                                const std::string& name) {
  std::vector<double> seconds;
  for (const wgrap::obs::SpanRecord& span : tracer.spans()) {
    if (span.name == name) seconds.push_back(span.duration_ns * 1e-9);
  }
  return seconds;
}

}  // namespace perfbench
