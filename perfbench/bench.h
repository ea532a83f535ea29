// Shared vocabulary of the end-to-end benchmark (perfbench/).
//
// Every workload is a closed loop over the library's public calls, timed
// from outside with std::chrono::steady_clock. A workload fills a
// WorkloadResult: the end-to-end metrics when tracing is off, the per-layer
// metrics when it is on (the two are separate runs, so tracing never
// perturbs the end-to-end numbers). Spans are recorded by the benchmark's
// own code around the calls into each layer, kept in memory, and written as
// a Chrome trace-event file when the run ends.

#ifndef LUBT_PERFBENCH_BENCH_H_
#define LUBT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/sink_set.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< nominal length of the timed loop
  bool trace = false;     ///< per-layer run instead of end-to-end
  std::string out_dir;    ///< scratch directory (spill files, trace file)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. Every operation is checked; a wrong
/// answer counts as a failed operation, exactly like an error status.
struct WorkloadResult {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Free-form facts printed before the result line (tail percentile,
  /// sample count, thread count, ...).
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> failures;  ///< first few failure messages

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Count one checked operation; `ok` false records a failure.
  void Check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------- stats

double Median(std::vector<double> v);

/// The tail rule: the highest percentile that still has at least
/// `kTailBeyond` samples strictly beyond it. For n sorted samples that is
/// the (kTailBeyond + 1)-th largest, at percentile 100 * (n - kTailBeyond)
/// / n (nearest rank). Requires n > kTailBeyond.
inline constexpr int kTailBeyond = 10;
struct Tail {
  bool valid = false;
  double value = 0.0;
  double percentile = 0.0;
};
Tail TailOf(std::vector<double> v);

/// The run length is fixed work: as many whole passes as fit in `seconds`
/// at the pass time measured on the reference machine (a 4-vCPU VM), and
/// at least enough passes of `ops_per_pass` operations for a tail
/// percentile to exist (kTailBeyond + 1 samples). The operation count, and with it the tail's percentile, is
/// then the same on every run of a workload and on both sides of a
/// comparison; a faster program finishes sooner instead of measuring a
/// higher percentile.
int PassesFor(double seconds, double nominal_pass_seconds, int ops_per_pass);

/// Set-up time bookkeeping. Set-up is a sequence of units (an instance
/// generated and solved, a session opened); the reported set-up time is
/// units x median unit time, which equals the set-up's wall time when the
/// units cost alike and is not moved by one unit that a neighbour slowed.
class SetupTimer {
 public:
  void AddUnit(double seconds) { units_.push_back(seconds); }
  double SetupSeconds() const;
  std::size_t Units() const { return units_.size(); }

 private:
  std::vector<double> units_;
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Emit the five latency/throughput/set-up metrics every workload shares
/// (cost_ratio is workload specific) plus the tail's percentile and
/// sample count as info. `peak_rss_mb` is PeakRssMb() read when the
/// workload's own work ended, before any check that needs memory of its
/// own.
void AddLoopMetrics(const std::vector<double>& op_ms, double timed_seconds,
                    const SetupTimer& setup, double peak_rss_mb,
                    WorkloadResult* out);

/// Spreads a single-threaded loop over every CPU the process may run on:
/// each Next() pins the calling thread to the next of those CPUs in turn.
/// On a shared host a CPU can run 20-30% slower than its neighbours for
/// minutes, and a thread the scheduler leaves on one CPU measures that
/// CPU. On a 4-vCPU VM, eco-stream runs of one seed left unpinned gave
/// p50 84 or 106 ms, depending on the run; rotating before every operation
/// kept them within 100-111 ms. serve-mix's threads spread over the CPUs
/// by themselves. Call Next() outside the timed region: the migration
/// happens inside it.
class CpuRotation {
 public:
  CpuRotation();
  void Next();
  std::size_t Cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------- trace

/// One recorded span. `parent` is the index of the enclosing span in the
/// tracer's span list (-1 for a root); spans of one operation share `op`.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;
  long long op = -1;
  int thread = 0;
};

/// In-memory span recorder. Thread-safe; each thread keeps its own stack
/// of open spans. Disabled tracers record nothing and cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span under the calling thread's innermost open span; returns
  /// its index (or -1 when disabled).
  int Begin(const std::string& name, long long op);
  void End(int index);

  std::vector<Span> Spans() const;

  /// Seconds spent inside Begin/End bookkeeping so far (the work tracing
  /// adds to an operation besides its spans' own clock reads).
  double BookkeepingSeconds() const;

  /// Write the spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double bookkeeping_ = 0.0;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, long long op)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// children are clipped to the parent's interval).
double SelfSeconds(const std::vector<Span>& spans, int index);

/// Per-name totals over spans: count, summed duration, summed self time.
struct SpanTotals {
  long long count = 0;
  double seconds = 0.0;
  double self_seconds = 0.0;
};
SpanTotals TotalsFor(const std::vector<Span>& spans, const std::string& name);

/// Trace coverage: over root spans named `op_name`, the summed duration of
/// their direct children divided by their summed duration.
double Coverage(const std::vector<Span>& spans, const std::string& op_name);

// ------------------------------------------------------------ workloads

/// Workload entry points. Each one builds its inputs from config.seed,
/// runs the closed loop for config.seconds, checks every operation and
/// fills `out`.
void RunColdSolve(const RunConfig& config, Tracer* tracer,
                  WorkloadResult* out);
void RunEcoStream(const RunConfig& config, Tracer* tracer,
                  WorkloadResult* out);
void RunServeMix(const RunConfig& config, Tracer* tracer,
                 WorkloadResult* out);
void RunTopoSearch(const RunConfig& config, Tracer* tracer,
                   WorkloadResult* out);

// ------------------------------------------------------------- inputs

/// Deterministic 64-bit mix of two values (splitmix64 finalizer), used to
/// derive per-instance and per-client seeds from the workload seed.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// A uniform random instance: `sinks` sinks on a 1000 x 1000 die with the
/// source at its centre, deterministic per `instance_seed`.
lubt::SinkSet UniformInstance(int sinks, std::uint64_t instance_seed);

/// A uniformly random permutation of 0..n-1 drawn from `rng`.
std::vector<int> Permutation(int n, lubt::Rng* rng);

/// Format a double with all its digits.
std::string Num(double v);

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_BENCH_H_
