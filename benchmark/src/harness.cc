#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

namespace webcc::benchmark {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Outcome::Gate(bool ok, const std::string& what) {
  if (ok) return;
  gate_failures.push_back(what);
  ++failed;
}

void Outcome::Add(std::string name, double value, std::string unit,
                  std::string base) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(base)});
}

void Setups::Report(const Options& opts, std::string_view label,
                    Outcome& outcome) const {
  outcome.Gate(std::all_of(digests.begin(), digests.end(),
                           [&](std::uint64_t d) { return d == digests[0]; }),
               std::string(label) + " digests differ within one run");
  outcome.input_digest = digests.front();
  if (opts.trace) return;
  outcome.Add("setup_s", Median(seconds), "s",
              "median of n=" + std::to_string(seconds.size()) +
                  " set-ups spread over the run");
}

namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int Report(const Options& opts, unsigned workers, Outcome& outcome) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.tiny ? "tiny" : "full");
  std::printf("# stamp nproc=%u workers=%u build=%s compiler=\"%s\" "
              "optimized=%s\n",
              opts.nproc, workers, WEBCC_BENCHMARK_BUILD_TYPE,
              CompilerName().c_str(), OptimizedBuild() ? "yes" : "NO");
  if (!OptimizedBuild()) {
    std::printf("# WARNING: unoptimized build; figures are not comparable\n");
    std::fprintf(stderr, "warning: unoptimized benchmark build\n");
  }

  for (const Metric& metric : outcome.metrics) {
    std::printf("%-32s %16.6g %-10s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.base.c_str());
  }
  for (const std::string& failure : outcome.gate_failures) {
    std::printf("# GATE FAILED: %s\n", failure.c_str());
  }
  if (outcome.attempted == 0) outcome.attempted = 1;
  std::printf("# failed_fraction=%.6g (%llu of %llu)\n",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));

  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"input_digest\": " +
          JsonString(std::to_string(outcome.input_digest));
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(metric.name) + ": {\"value\": " +
            JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}

// --- spans ------------------------------------------------------------------

namespace {

thread_local std::vector<std::uint64_t> tls_span_stack;

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

void SpanLog::Add(Span span) {
  const util::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

bool SpanLog::WriteAndSummarize(const std::string& path) {
  const util::MutexLock lock(mu_);
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  // Length of [start, end) covered by the union of the child intervals.
  const auto covered = [&](const Span& span) {
    const auto it = children.find(span.id);
    if (it == children.end()) return std::int64_t{0};
    std::vector<Interval>& intervals = it->second;
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : intervals) {
      const std::int64_t from = std::max(begin, reach);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        total += to - from;
        reach = to;
      }
    }
    return total;
  };
  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Total> totals;
  std::ofstream out(path);
  for (const Span& span : spans_) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    const std::int64_t self = duration - covered(span);
    Total& total = totals[span.name];
    ++total.count;
    total.total_ns += duration;
    total.self_ns += self;
    out << "{\"name\":" << JsonString(span.name) << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op
        << ",\"thread\":" << span.thread << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"self_ns\":" << self << "}\n";
  }
  std::vector<std::pair<std::string, Total>> rows(totals.begin(), totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::printf("# spans: %zu written to %s\n", spans_.size(), path.c_str());
  std::printf("# %-34s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, total] : rows) {
    std::printf("# %-34s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(total.count),
                static_cast<double>(total.total_ns) * 1e-6,
                static_cast<double>(total.self_ns) * 1e-6);
  }
  return static_cast<bool>(out);
}

std::uint64_t CurrentSpanId() {
  return tls_span_stack.empty() ? 0 : tls_span_stack.back();
}

SpanParent::SpanParent(std::uint64_t parent) {
  tls_span_stack.push_back(parent);
}

SpanParent::~SpanParent() { tls_span_stack.pop_back(); }

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t op)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = log_->NextId();
  span_.parent = CurrentSpanId();
  span_.op = op;
  span_.thread = ThreadIndex();
  tls_span_stack.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  tls_span_stack.pop_back();
  log_->Add(std::move(span_));
}

}  // namespace webcc::benchmark
