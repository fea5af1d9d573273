// webcc_benchmark: runs one named workload and prints its metrics.
//
//   webcc_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--size full|tiny] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// invocation that records spans and prints the per-layer metrics. The last
// line of stdout is a JSON object of every measured metric, which run.py
// checks against BENCHMARK.json; the exit code is 0 only when every
// correctness gate passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "harness.h"
#include "workloads.h"

using namespace webcc::benchmark;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: webcc_benchmark --workload "
               "paper-tables|write-storm --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseNumber(std::string_view text, double& out) {
  char* end = nullptr;
  const std::string copy(text);
  out = std::strtod(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool seeded = false;
  opts.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string_view value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed" && ParseNumber(value, number) && number >= 0) {
      opts.seed = static_cast<std::uint64_t>(number);
      seeded = true;
    } else if (arg == "--seconds" && ParseNumber(value, number) &&
               number > 0) {
      opts.seconds = number;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      opts.trace = value == "1";
    } else if (arg == "--size" && (value == "full" || value == "tiny")) {
      opts.tiny = value == "tiny";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else {
      return Usage("bad flag or value");
    }
  }

  unsigned (*run)(const Options&, SpanLog*, Outcome&) = nullptr;
  if (opts.workload == "paper-tables") run = RunPaperTables;
  if (opts.workload == "write-storm") run = RunWriteStorm;
  if (run == nullptr) return Usage("unknown or missing --workload");
  if (!seeded) return Usage("missing --seed");

  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  SpanLog span_log;
  SpanLog* spans = opts.trace ? &span_log : nullptr;
  Outcome outcome;
  unsigned workers = 1;
  {
    const ScopedSpan root(spans, "run " + opts.workload);
    workers = run(opts, spans, outcome);
  }
  if (opts.trace) {
    const std::string path = opts.out_dir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".jsonl";
    outcome.Gate(span_log.WriteAndSummarize(path),
                 "could not write spans to " + path);
  }
  return Report(opts, workers, outcome);
}
