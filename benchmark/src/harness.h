// Shared plumbing of the benchmark driver: clocks and quantiles, the
// outcome every workload run returns, correctness gates, the result line,
// and the span recorder of the traced run.
//
// Everything here times the benchmark's own calls into webcc's public
// functions from outside; nothing reaches into the libraries.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace webcc::benchmark {

// --- clocks and order statistics --------------------------------------------

std::int64_t NowNs();  // steady clock
double SecondsSince(std::int64_t start_ns);

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// "n=<count> <what>", the count base printed beside a metric.
inline std::string Count(std::uint64_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// --- run options ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs for the self-test: same code paths, a few seconds in all.
  bool tiny = false;
  // The traced run writes its spans here (inside the checkout).
  std::string out_dir = ".bench_build/out";
  unsigned nproc = 1;
};

// --- outcome ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // The count the value was derived from ("n=81234 fetches"), printed
  // beside it so a figure is never read without its sample size.
  std::string base;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::vector<Metric> metrics;
  // Digest of the run's generated inputs; run.py compares it across
  // processes of the same seed and sources.
  std::uint64_t input_digest = 0;

  bool correct() const { return gate_failures.empty(); }

  // A failing gate is recorded, counted as one failed operation, and makes
  // the run exit nonzero.
  void Gate(bool ok, const std::string& what);

  void Add(std::string name, double value, std::string unit,
           std::string base = "");
};

// The timed set-ups of one run. Each workload sets up once before it
// measures and again after every measured round, so the samples
// spread over the whole run; setup_s is their median. Every set-up's input
// digest must equal the first one's.
struct Setups {
  std::vector<double> seconds;
  std::vector<std::uint64_t> digests;

  void Record(double s, std::uint64_t digest) {
    seconds.push_back(s);
    digests.push_back(digest);
  }
  // Gates the digests within the run, hands the first to the outcome and,
  // untraced, adds setup_s.
  void Report(const Options& opts, std::string_view label,
              Outcome& outcome) const;
};

// Prints the human-readable report and, as the last line, a JSON object
// with correct/attempted/failed, the input digest and every measured metric
// with its unit. run.py checks that line against BENCHMARK.json and prints
// the result. Returns the process exit code.
int Report(const Options& opts, unsigned workers, Outcome& outcome);

// --- spans (traced run only) ------------------------------------------------

// In-memory span log: a span is (name, start, end, parent, op id) around one
// benchmark call into a public webcc function. Spans nest per thread (and
// across threads through SpanParent); the log is written out when the run
// ends, with each span's self time: its duration minus the part of it that
// its child spans cover (children on concurrent threads overlap, so this is
// the union of their intervals, not the sum).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t op = 0;      // caller-chosen operation id
    std::uint32_t thread = 0;
  };

  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span);

  // Writes every span as one JSON line to `path` and prints a per-name
  // summary (count, total, self time). Returns false if the file failed.
  bool WriteAndSummarize(const std::string& path);

 private:
  std::atomic<std::uint64_t> next_id_{0};
  util::Mutex mu_;
  std::vector<Span> spans_ WEBCC_GUARDED_BY(mu_);
};

// The innermost open span on this thread (0 if none).
std::uint64_t CurrentSpanId();

// While alive, spans this thread opens get `parent` as their parent, so
// work handed to another thread stays under the span that handed it over.
class SpanParent {
 public:
  explicit SpanParent(std::uint64_t parent);
  ~SpanParent();
  SpanParent(const SpanParent&) = delete;
  SpanParent& operator=(const SpanParent&) = delete;
};

// RAII span; a no-op when `log` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Renames the span before it closes (a Fetch span learns its outcome
  // only after the call returns).
  void Rename(std::string name) { span_.name = std::move(name); }

 private:
  SpanLog* log_;
  SpanLog::Span span_;
};

}  // namespace webcc::benchmark
