// paper-tables and write-storm: replay throughput and per-request engine
// cost, measured around RunReplay and Farm::RunAll, and the traced run's
// layer drivers.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "inputs.h"
#include "layers.h"
#include "live_driver.h"
#include "replay/engine.h"
#include "replay/farm.h"
#include "workloads.h"

namespace webcc::benchmark {
namespace {

// Everything a replay workload runs: its cells and, for the layer drivers,
// the request+write streams those cells replay.
struct ReplayJob {
  struct Stream {
    const trace::Trace* trace = nullptr;
    std::vector<Op> ops;
    std::uint32_t pseudo_clients = 4;
    std::uint64_t cache_bytes = 0;
  };
  std::vector<replay::ReplayConfig> configs;
  std::vector<Stream> streams;
  unsigned workers = 1;
  // The untraced run replays this many identical copies of `configs` side
  // by side, one per worker. A single
  // replay's throughput swung by 15-30% from run to run with the speed of
  // the one core it ran on; the aggregate over several cores holds within
  // a few percent. Each copy is still one single-threaded replay.
  unsigned replicas = 1;
};

std::vector<replay::ReplayMetrics> RunCells(
    const std::vector<replay::ReplayConfig>& configs, unsigned workers,
    SpanLog* spans, const char* label) {
  if (configs.size() == 1) {
    const ScopedSpan span(spans, std::string("replay.RunReplay") + label);
    return {replay::RunReplay(configs.front())};
  }
  const ScopedSpan span(spans, std::string("replay.Farm::RunAll") + label);
  return replay::Farm::RunAll(configs, workers);
}

// Strong consistency held and every request completed.
void GateCells(const std::vector<replay::ReplayMetrics>& cells,
               Outcome& outcome) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const replay::ReplayMetrics& cell = cells[i];
    outcome.attempted += cell.requests_issued + cell.requests_skipped;
    outcome.failed += cell.request_timeouts + cell.requests_skipped;
    const std::string id = "cell " + std::to_string(i) + ": ";
    outcome.Gate(cell.strong_violations == 0,
                 id + std::to_string(cell.strong_violations) +
                     " strong-consistency violations");
    outcome.Gate(cell.request_timeouts == 0 && cell.requests_skipped == 0,
                 id + "requests timed out or were skipped");
  }
}

// Rounds of one replay of every cell and one timed set-up, repeated until
// --seconds is spent, so both samples spread over the same stretch of time.
void MeasureUntraced(const Options& opts, const ReplayJob& job,
                     const std::function<void()>& setup, Outcome& outcome) {
  std::vector<replay::ReplayConfig> configs;
  for (unsigned r = 0; r < job.replicas; ++r) {
    configs.insert(configs.end(), job.configs.begin(), job.configs.end());
  }
  std::vector<double> rates;
  std::vector<double> per_request_us;
  std::vector<replay::ReplayMetrics> reference;
  std::size_t rounds = 0;
  const std::int64_t run_start = NowNs();
  do {
    const std::int64_t start = NowNs();
    const std::vector<replay::ReplayMetrics> cells =
        RunCells(configs, job.workers, nullptr, "");
    const double span_s = SecondsSince(start);
    GateCells(cells, outcome);
    if (reference.empty()) {
      reference.assign(cells.begin(), cells.begin() + job.configs.size());
    }
    // Every replica of every call must repeat the first call's simulation.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      outcome.Gate(replay::SameSimulation(reference[i % reference.size()],
                                          cells[i]),
                   "cell " + std::to_string(i % reference.size()) +
                       " differs between runs of one seed");
    }
    std::uint64_t requests = 0;
    for (const replay::ReplayMetrics& cell : cells) {
      requests += cell.requests_issued;
      per_request_us.push_back(cell.host_seconds * 1e6 /
                               static_cast<double>(cell.requests_issued));
    }
    rates.push_back(static_cast<double>(requests) / span_s);
    if (rounds == 0) {
      // Every later round repeats this one, so the program's peak memory is
      // reached here; reading it now keeps the benchmark's own growing
      // sample buffers out of the figure.
      outcome.Add("peak_rss_mb", PeakRssMb(), "MB",
                  "setup + first round");
    }
    setup();
    ++rounds;
  } while (SecondsSince(run_start) < opts.seconds);

  const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  outcome.Add("requests_per_s", Median(rates), "1/s",
              "median of " + Count(rates.size(), "calls") + ", range " +
                  std::to_string(std::lround(*lo)) + ".." +
                  std::to_string(std::lround(*hi)));
  const std::string cell_runs =
      Count(per_request_us.size(), "cell runs (host us/request)");
  outcome.Add("request_p50_us", Quantile(per_request_us, 0.5), "us",
              "p50 of " + cell_runs);
  outcome.Add("request_p90_us", Quantile(per_request_us, 0.9), "us",
              "p90 of " + cell_runs);
}

void MeasureTraced(const ReplayJob& job, SpanLog& spans, Outcome& outcome) {
  ReplayPass pass;
  pass.workers = std::min<unsigned>(
      job.workers, static_cast<unsigned>(job.configs.size()));
  // The first call pays page faults and allocator growth; keep them out of
  // both sides of the tracing overhead.
  GateCells(RunCells(job.configs, job.workers, &spans, " (warm-up)"),
            outcome);

  std::vector<std::unique_ptr<RecordingSink>> sinks;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<replay::ReplayConfig> traced = job.configs;
  for (replay::ReplayConfig& config : traced) {
    sinks.push_back(std::make_unique<RecordingSink>());
    registries.push_back(std::make_unique<obs::MetricsRegistry>());
    config.trace_sink = sinks.back().get();
    config.metrics = registries.back().get();
    pass.sinks.push_back(sinks.back().get());
    pass.registries.push_back(registries.back().get());
  }
  std::int64_t start = NowNs();
  pass.traced = RunCells(traced, job.workers, &spans, " (traced)");
  pass.traced_span_s = SecondsSince(start);
  GateCells(pass.traced, outcome);
  start = NowNs();
  pass.untraced = RunCells(job.configs, job.workers, &spans, "");
  pass.untraced_span_s = SecondsSince(start);
  GateCells(pass.untraced, outcome);
  AddReplayLayerMetrics(pass, outcome);

  LayerTotals totals;
  for (const ReplayJob::Stream& stream : job.streams) {
    const ScopedSpan span(&spans, "layers.DriveLayers");
    DriveLayers(*stream.trace, stream.ops, stream.pseudo_clients,
                stream.cache_bytes, totals);
  }
  {
    const ScopedSpan span(&spans, "layers.DriveObs");
    totals.obs = DriveObs(pass.sinks);
  }
  AddDriverMetrics(totals, outcome);
}

// The live layer's driver: one lock-step pass of `ops` over a fresh live
// stack loaded with `trace`'s documents.
void DriveLive(const trace::Trace& trace, const std::vector<Op>& ops,
               SpanLog& spans, Outcome& outcome) {
  const ScopedSpan span(&spans, "layers.DriveLive");
  const std::unique_ptr<LiveStack> stack = StartStack(trace);
  if (stack == nullptr) {
    outcome.Gate(false, "live stack failed to start");
    return;
  }
  LiveResult result;
  RunLivePass(trace, ops, *stack, &spans, result);
  GateLive(result, outcome);
  AddLiveLayerMetrics(result, outcome);
}

// Ops the live driver replays on write-storm: a prefix, about a second on
// the live stack.
constexpr std::size_t kLivePrefixOps = 20000;

// trace.generate_s for a scenario workload: trace::GenerateTrace on the
// scenario's shape (see inputs.h, PresetShapeOf).
void AddTraceGeneratorMetric(const synth::ScenarioConfig& scenario,
                             SpanLog& spans, Outcome& outcome) {
  const std::int64_t start = NowNs();
  {
    const ScopedSpan span(&spans, "trace.GenerateTrace (scenario shape)");
    trace::GenerateTrace(PresetShapeOf(scenario));
  }
  outcome.Add("trace.generate_s", SecondsSince(start), "s",
              "n=1 GenerateTrace call on the scenario's shape");
}

}  // namespace

unsigned RunPaperTables(const Options& opts, SpanLog* spans,
                        Outcome& outcome) {
  Setups setups;
  const auto generate = [&] {
    const std::int64_t start = NowNs();
    PaperInputs generated = GeneratePaperInputs(opts.seed, opts.tiny, spans);
    setups.Record(SecondsSince(start), generated.digest);
    return generated;
  };
  const PaperInputs inputs = generate();

  ReplayJob job;
  job.workers = std::max(1u, std::min(opts.nproc, 4u));
  job.configs = PaperTableConfigs(inputs);
  // One stream per Table 3/4 experiment: its trace and modifier schedule
  // (the cells of a row share both; the two-tier cell repeats SASK's).
  for (std::size_t i = 0; i + 1 < job.configs.size(); i += 3) {
    const replay::ReplayConfig& config = job.configs[i];
    ReplayJob::Stream stream;
    stream.trace = config.trace;
    stream.ops = MergeStream(*config.trace, ModifierSchedule(config));
    stream.pseudo_clients = config.num_pseudo_clients;
    stream.cache_bytes = config.proxy_cache_bytes;
    job.streams.push_back(std::move(stream));
  }

  if (spans != nullptr) {
    outcome.Add("trace.generate_s", setups.seconds.front(), "s",
                "n=5 GenerateTrace calls");
    // synth::Generate on the five preset shapes (see ScenarioShapeOf).
    double synth_s = 0.0;
    std::uint64_t records = 0;
    for (const trace::WorkloadConfig& preset :
         PaperPresetConfigs(opts.seed, opts.tiny)) {
      const std::int64_t start = NowNs();
      const ScopedSpan span(spans, "synth.Generate (preset shape)");
      const synth::SynthWorkload generated =
          synth::Generate(ScenarioShapeOf(preset));
      synth_s += SecondsSince(start);
      records += generated.trace.records.size() + generated.writes.size();
    }
    outcome.Add("synth.generate_s", synth_s, "s",
                "n=5 Generate calls on the preset shapes");
    outcome.Add("synth.records", static_cast<double>(records), "count",
                "requests + writes, preset shapes");
    MeasureTraced(job, *spans, outcome);
    // The live driver replays the experiment with the most writes.
    const auto most_writes = std::max_element(
        job.streams.begin(), job.streams.end(),
        [](const ReplayJob::Stream& a, const ReplayJob::Stream& b) {
          const auto writes = [](const ReplayJob::Stream& s) {
            return std::count_if(s.ops.begin(), s.ops.end(),
                                 [](const Op& op) { return op.write; });
          };
          return writes(a) < writes(b);
        });
    DriveLive(*most_writes->trace, most_writes->ops, *spans, outcome);
  } else {
    MeasureUntraced(opts, job, [&] { generate(); }, outcome);
  }
  setups.Report(opts, "presets", outcome);
  return job.workers;
}

unsigned RunWriteStorm(const Options& opts, SpanLog* spans,
                       Outcome& outcome) {
  const synth::ScenarioConfig scenario =
      WriteStormScenario(opts.seed, opts.tiny);
  Setups setups;
  const auto generate = [&] {
    const std::int64_t start = NowNs();
    synth::SynthWorkload generated;
    {
      const ScopedSpan span(spans, "synth.Generate");
      generated = synth::Generate(scenario);
    }
    setups.Record(SecondsSince(start), synth::WorkloadDigest(generated));
    return generated;
  };
  const synth::SynthWorkload workload = generate();

  ReplayJob job;
  job.workers = std::max(1u, std::min(opts.nproc, 4u));
  job.replicas = job.workers;
  job.configs.push_back(ScenarioReplayConfig(workload));
  ReplayJob::Stream stream;
  stream.trace = &workload.trace;
  stream.ops = MergeStream(workload.trace, workload.writes);
  stream.pseudo_clients = job.configs[0].num_pseudo_clients;
  stream.cache_bytes = job.configs[0].proxy_cache_bytes;
  job.streams.push_back(std::move(stream));

  if (spans != nullptr) {
    outcome.Add("synth.generate_s", setups.seconds.front(), "s",
                "n=1 Generate call");
    outcome.Add("synth.records",
                static_cast<double>(workload.trace.records.size() +
                                    workload.writes.size()),
                "count", "requests + writes");
    AddTraceGeneratorMetric(scenario, *spans, outcome);
    MeasureTraced(job, *spans, outcome);
    const std::vector<Op>& ops = job.streams.front().ops;
    const std::vector<Op> prefix(
        ops.begin(), ops.begin() + std::min(ops.size(), kLivePrefixOps));
    DriveLive(workload.trace, prefix, *spans, outcome);
  } else {
    MeasureUntraced(opts, job, [&] { generate(); }, outcome);
  }
  setups.Report(opts, "scenario", outcome);
  return job.workers;
}

}  // namespace webcc::benchmark
