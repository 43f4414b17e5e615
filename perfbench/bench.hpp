// Shared pieces of the dynsched benchmark harness: run arguments, the
// report that becomes the final JSON line, sample statistics, and the span
// tracer.
//
// Spans are recorded only around calls the harness itself makes into the
// library's public functions; the library is measured from outside and not
// modified. A span's self time is its duration minus the time covered by
// its child spans (children of one span run on the span's own thread, one
// after another, so their durations add up without overlap).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>


namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for sockets, journals and span logs (relative to
  /// the working directory, created by run.py).
  std::string workdir = ".bench_build/perfbench-run";
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// Highest percentile (p99, p90, p50 in that order of preference) that has
/// at least ten samples beyond it, as the fraction q, or 0.5 if none has.
double tailQuantile(std::size_t samples);

/// Collects metrics, correctness failures and operation counts, and prints
/// the final result line.
class Report {
 public:
  /// Adds (or replaces) a metric; printed in insertion order.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failing check makes the run incorrect
  /// and is printed to stderr with `what`.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  /// Keeps exactly the metrics `names` (name, unit), in that order. A
  /// missing one is reported as 0 when `missingIsZero`, else it fails a
  /// check.
  void select(const std::vector<std::pair<std::string, std::string>>& names,
              bool missingIsZero);
  /// Converts every timing metric to the host probe's reference speed:
  /// values in s, ms and us are multiplied by `factor`, rates in 1/s
  /// divided by it.
  void normalizeTimes(double factor);

  bool correct() const { return failures_.empty(); }
  /// One JSON object: correct, attempted, failed, metrics.
  std::string json() const;
  /// Human-readable "name value unit" lines.
  std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Aggregate of all closed spans of one name.
struct SpanStats {
  std::size_t count = 0;
  double totalSeconds = 0;
  double selfSeconds = 0;         ///< total minus time covered by children
  std::vector<double> durations;  ///< per span, seconds
};

/// Process-wide span recorder. Disabled spans cost one branch.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// Aggregate of the recorded spans named `name` (empty if none).
  static SpanStats stats(const std::string& name);
  /// Number of spans recorded.
  static std::size_t count();
  /// Writes one CSV line per span (id, parent, request, name, start and
  /// end in microseconds since the first span); false when unwritable.
  static bool write(const std::string& path);
};

/// RAII span around one call. `name` must be a string literal (spans keep
/// the pointer). `request` groups the spans of one request or step.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parentId_ = 0;
  Span* parent_ = nullptr;
  double childSeconds_ = 0;
  Clock::time_point start_;
};

/// Host speed probe. The machines this benchmark runs on are shared, and
/// the speed of the same single-threaded work drifts by tens of per cent in
/// phases of seconds to minutes, with the work of other tenants. The probe
/// is a fixed dense LU factorisation with partial pivoting (200 x 200, a
/// few ms), written here and not in the library, so no change to the
/// library can move it. It runs between units of measured work throughout
/// a run, and the run's end-to-end timings are converted to the reference
/// speed with its median time over the run. Call from one thread only.
class HostProbe {
 public:
  /// Probe time that defines the reference speed, seconds. It only sets the
  /// scale of the converted times.
  static constexpr double kReferenceSeconds = 1.2e-3;
  /// Runs the probe if kIntervalSeconds have passed since its last run.
  static void tick();
  /// Runs the probe now.
  static void sample();
  static std::size_t samples();
  /// Median probe time over the run so far, seconds.
  static double medianSeconds();
  /// kReferenceSeconds / medianSeconds(): a time measured in this run,
  /// multiplied by it, is the time at the reference speed.
  static double factor();

 private:
  static constexpr double kIntervalSeconds = 0.05;
};

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
double peakRssMb();

/// Workload entry points. Each fills `report` with every end-to-end metric
/// (trace off) or every per-layer metric (trace on), and returns normally
/// even when a check failed; the caller decides the exit code.
void runIlpStudy(const Args& args, Report& report);
void runDynpSim(const Args& args, Report& report);
void runServeMix(const Args& args, Report& report);

/// Every per-layer metric name with its unit, in output order. A workload
/// reports the layers it exercises; the rest are emitted as 0 (no work).
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

}  // namespace perfbench
