// Shared plumbing of the perfbench binary: order statistics, the run
// record (metrics, operation outcomes, the final JSON line), the machine
// profile and the obs counter/span readers the traced runs use.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/assignment.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy-size inputs: every workload finishes in about a second.
  bool smoke = false;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Linearly interpolated quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Seconds since the first call (the run's wall clock).
double Now();

/// Peak resident set of this process since the last ResetPeakRss (or
/// since it started), MiB (VmHWM).
double PeakRssMb();
/// Returns freed heap to the system and resets the VmHWM high-water mark to
/// the current resident set (Linux /proc/self/clear_refs), so that each
/// pass measures its own peak.
void ResetPeakRss();

/// Mean coverage of the ⌈P/10⌉ least-covered papers of a complete
/// assignment — the benchmark's `lowest_coverage` (see README.md).
double LowestDecileCoverage(const wgrap::core::Assignment& assignment);

/// The machine-speed reference. The host this benchmark was defined on
/// slows down by a third or more for minutes at a time, and CPU time slows
/// with wall time. Each workload therefore times a fixed kernel that does
/// not involve wgrap — sorting a copy of 2^17 pseudo-random 32-bit keys,
/// four times — between (batch) or right around (service) its measured
/// operations, and reports each timing metric t as
/// t · kReferenceSeconds / c, where c is the kernel's median time in the
/// same phase of the run. A faster or slower wgrap moves the reported
/// times exactly as it moves the raw ones.
class Calibration {
 public:
  /// The kernel's time on the machine the benchmark was defined on (a
  /// 4-vCPU Intel Xeon VM, quiet), so reported times read as seconds there.
  static constexpr double kReferenceSeconds = 0.035;

  /// Runs the kernel once and records its time.
  void Sample();
  /// kReferenceSeconds / the median kernel time: a raw time times the
  /// factor is the time at the reference speed.
  double Factor() const;
  size_t samples() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_;
};

/// The run record. Thread-safe: service clients report from their own
/// threads.
class Run {
 public:
  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// marks the run incorrect. `what` names the operation in the log line.
  void Op(bool ok, const std::string& what);
  void Op(const wgrap::Status& status, const std::string& what);

  void Metric(const std::string& name, const std::string& unit, double value);
  int64_t attempted() const;
  int64_t failed() const;

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson() const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
  };
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
};

/// "# ..." informational stdout line (everything before the JSON line).
void Info(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Prints the machine profile: CPU model, nproc, build type, SIMD backend.
void PrintMachineProfile();

/// Snapshot of the obs work counters the traced runs compare.
struct WorkCounters {
  std::map<std::string, int64_t> values;

  static WorkCounters Read();
  WorkCounters Minus(const WorkCounters& before) const;
  int64_t Get(const std::string& name) const;
  std::string ToString() const;
  bool operator==(const WorkCounters& other) const {
    return values == other.values;
  }
};

/// Durations (seconds) of every span named `name`, in record order.
std::vector<double> SpanSeconds(const wgrap::obs::Tracer& tracer,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
