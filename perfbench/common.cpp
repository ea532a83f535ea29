#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"

namespace perfbench {

void WorkloadResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  if (v.size() <= static_cast<std::size_t>(kTailBeyond)) return tail;
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - static_cast<std::size_t>(kTailBeyond);
  tail.valid = true;
  tail.value = v[rank - 1];
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int PassesFor(double seconds, double nominal_pass_seconds, int ops_per_pass) {
  const int by_time =
      static_cast<int>(std::lround(seconds / nominal_pass_seconds));
  const int for_tail = (kTailBeyond + ops_per_pass) / ops_per_pass;
  return std::max(by_time, for_tail);
}

double SetupTimer::SetupSeconds() const {
  return static_cast<double>(units_.size()) * Median(units_);
}

void AddLoopMetrics(const std::vector<double>& op_ms, double timed_seconds,
                    const SetupTimer& setup, double peak_rss_mb,
                    WorkloadResult* out) {
  const Tail tail = TailOf(op_ms);
  out->Add("setup_s", setup.SetupSeconds(), "s");
  out->Add("peak_rss_mb", peak_rss_mb, "MB");
  out->Add("p50_ms", Median(op_ms), "ms");
  out->Add("tail_ms", tail.valid ? tail.value : 0.0, "ms");
  out->Add("ops_per_s",
           timed_seconds > 0.0
               ? static_cast<double>(op_ms.size()) / timed_seconds
               : 0.0,
           "1/s");
  out->Info("samples", std::to_string(op_ms.size()));
  out->Info("tail_percentile", tail.valid ? Num(tail.percentile) : "none");
  out->Info("setup_units", std::to_string(setup.Units()));
  out->Info("timed_seconds", Num(timed_seconds));
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(set), &set);
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

lubt::SinkSet UniformInstance(int sinks, std::uint64_t instance_seed) {
  const lubt::BBox die({0.0, 0.0}, {1000.0, 1000.0});
  return lubt::RandomSinkSet(sinks, die, instance_seed, /*with_source=*/true);
}

std::vector<int> Permutation(int n, lubt::Rng* rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng->UniformInt(0, i))]);
  }
  return order;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
