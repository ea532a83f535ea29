#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <utility>

#include "bench.h"

namespace perfbench {
namespace {

// Per-thread stack of open span indices, keyed by tracer so two tracers in
// one process (the self-test) do not share stacks.
std::vector<int>& OpenStack(const Tracer* tracer) {
  thread_local std::map<const Tracer*, std::vector<int>> stacks;
  return stacks[tracer];
}

// Small sequential thread ids for the trace file.
int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

std::vector<std::vector<int>> ChildIndex(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0) kids[static_cast<std::size_t>(parent)].push_back(
        static_cast<int>(i));
  }
  return kids;
}

double SelfSecondsOf(const std::vector<Span>& spans,
                     const std::vector<int>& children, int index) {
  const Span& parent = spans[static_cast<std::size_t>(index)];
  std::vector<std::pair<double, double>> kids;
  for (const int k : children) {
    const Span& s = spans[static_cast<std::size_t>(k)];
    const double lo = std::max(s.start, parent.start);
    const double hi = std::min(s.end, parent.end);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double run_lo = 0.0;
  double run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : kids) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (parent.end - parent.start) - covered;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int Tracer::Begin(const std::string& name, long long op) {
  const Clock::time_point entered = Clock::now();
  std::vector<int>& stack = OpenStack(this);
  Span span;
  span.name = name;
  span.parent = stack.empty() ? -1 : stack.back();
  span.op = op;
  span.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  stack.push_back(index);
  const Clock::time_point now = Clock::now();
  spans_.back().start = std::chrono::duration<double>(now - epoch_).count();
  bookkeeping_ += std::chrono::duration<double>(now - entered).count();
  return index;
}

void Tracer::End(int index) {
  const Clock::time_point now = Clock::now();
  std::vector<int>& stack = OpenStack(this);
  if (!stack.empty() && stack.back() == index) stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end =
      std::chrono::duration<double>(now - epoch_).count();
  bookkeeping_ += SecondsSince(now);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::BookkeepingSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bookkeeping_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %lld, \"parent\": %d}}%s\n",
                 s.name.c_str(), s.thread, s.start * 1e6,
                 (s.end - s.start) * 1e6, s.op, s.parent,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double SelfSeconds(const std::vector<Span>& spans, int index) {
  std::vector<int> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == index) children.push_back(static_cast<int>(i));
  }
  return SelfSecondsOf(spans, children, index);
}

SpanTotals TotalsFor(const std::vector<Span>& spans, const std::string& name) {
  const std::vector<std::vector<int>> kids = ChildIndex(spans);
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    ++totals.count;
    totals.seconds += spans[i].end - spans[i].start;
    totals.self_seconds += SelfSecondsOf(spans, kids[i], static_cast<int>(i));
  }
  return totals;
}

double Coverage(const std::vector<Span>& spans, const std::string& op_name) {
  const std::vector<std::vector<int>> kids = ChildIndex(spans);
  double op_total = 0.0;
  double child_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != op_name || s.parent != -1) continue;
    const double dur = s.end - s.start;
    op_total += dur;
    child_total += dur - SelfSecondsOf(spans, kids[i], static_cast<int>(i));
  }
  return op_total > 0.0 ? child_total / op_total : 0.0;
}

}  // namespace perfbench
