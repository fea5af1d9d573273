#include "inputs.h"

#include <algorithm>

#include "replay/experiments.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace webcc::benchmark {
namespace {

// SplitMix64 finalizer: decorrelates the benchmark seed from the small
// per-preset and per-scenario constants it is combined with.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<Op> MergeStream(const trace::Trace& trace,
                            const std::vector<trace::ModEvent>& writes) {
  std::vector<Op> ops;
  ops.reserve(trace.records.size() + writes.size());
  for (const trace::TraceRecord& record : trace.records) {
    ops.push_back(Op{record.timestamp, record.doc, record.client, false});
  }
  for (const trace::ModEvent& write : writes) {
    ops.push_back(Op{write.at, write.doc, 0, true});
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.at != b.at) return a.at < b.at;
    return !a.write && b.write;
  });
  return ops;
}

std::uint64_t TraceDigest(const trace::Trace& trace) {
  synth::SynthWorkload workload;
  workload.trace = trace;
  return synth::WorkloadDigest(workload);
}

std::vector<trace::WorkloadConfig> PaperPresetConfigs(std::uint64_t seed,
                                                      bool tiny) {
  std::vector<trace::WorkloadConfig> configs;
  for (const trace::TraceName name : trace::AllTraces()) {
    trace::WorkloadConfig config = trace::GetPreset(name).workload;
    config.seed = Mix(seed, config.seed);
    if (tiny) {
      config.total_requests =
          std::max<std::uint64_t>(200, config.total_requests / 40);
    }
    configs.push_back(config);
  }
  return configs;
}

PaperInputs GeneratePaperInputs(std::uint64_t seed, bool tiny,
                                SpanLog* spans) {
  PaperInputs inputs;
  std::uint64_t digest = 1469598103934665603ull;
  const std::vector<trace::WorkloadConfig> configs =
      PaperPresetConfigs(seed, tiny);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    {
      const ScopedSpan span(spans, "trace.GenerateTrace", i);
      inputs.traces.push_back(trace::GenerateTrace(configs[i]));
    }
    digest = (digest ^ TraceDigest(inputs.traces.back())) * 1099511628211ull;
  }
  inputs.digest = digest;
  return inputs;
}

std::vector<replay::ReplayConfig> PaperTableConfigs(
    const PaperInputs& inputs) {
  std::vector<replay::ReplayConfig> configs;
  for (const replay::ExperimentSpec& spec : replay::AllTableExperiments()) {
    const trace::Trace& trace =
        inputs.traces[static_cast<std::size_t>(spec.trace)];
    for (const core::Protocol protocol :
         {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
          core::Protocol::kInvalidation}) {
      configs.push_back(replay::MakeReplayConfig(spec, protocol, trace));
    }
  }
  // Section 6: SASK under two-tier leases (a regular lease spanning the
  // trace for repeat viewers, nothing for one-shot GETs).
  const replay::ExperimentSpec sask = replay::Table3Experiments()[1];
  replay::ReplayConfig two_tier = replay::MakeReplayConfig(
      sask, core::Protocol::kInvalidation,
      inputs.traces[static_cast<std::size_t>(sask.trace)]);
  two_tier.lease.mode = core::LeaseMode::kTwoTier;
  two_tier.lease.duration = 8 * kDay;
  two_tier.lease.short_duration = 0;
  configs.push_back(two_tier);
  return configs;
}

std::vector<trace::ModEvent> ModifierSchedule(
    const replay::ReplayConfig& config) {
  trace::ModifierConfig mod;
  mod.duration = config.trace->duration;
  mod.num_documents =
      static_cast<std::uint32_t>(config.trace->documents.size());
  mod.mean_lifetime = config.mean_lifetime;
  mod.seed = config.modifier_seed;
  return trace::GenerateModifierSchedule(mod);
}

synth::ScenarioConfig WriteStormScenario(std::uint64_t seed, bool tiny) {
  synth::ScenarioConfig config;
  config.name = "write-storm";
  config.duration = kDay;
  config.requests = tiny ? 6000 : 100000;
  config.sites = tiny ? 3000 : 100000;
  config.documents = tiny ? 600 : 20000;
  config.doc_zipf = 0.9;
  config.site_zipf = 0.6;
  config.write_fraction = 0.032;
  config.write_zipf = 1.0;
  config.locality = 0.3;
  config.seed = Mix(seed, 0x5701);
  synth::Phase flash;
  flash.kind = synth::PhaseKind::kFlashCrowd;
  flash.start = 11 * kHour;
  flash.duration = 2 * kHour;
  flash.rate_multiplier = 4.0;
  flash.write_multiplier = 3.0;
  flash.focus = 0.5;
  flash.hot_docs = tiny ? 5 : 40;
  config.phases.push_back(flash);
  return config;
}

synth::ScenarioConfig ScenarioShapeOf(const trace::WorkloadConfig& preset) {
  synth::ScenarioConfig config;
  config.name = preset.name;
  config.duration = preset.duration;
  config.requests = preset.total_requests;
  config.sites = preset.num_clients;
  config.documents = preset.num_documents;
  config.doc_zipf = preset.doc_zipf_exponent;
  config.site_zipf = preset.client_zipf_exponent;
  config.mean_size_bytes = preset.mean_file_size_bytes;
  config.size_sigma = preset.file_size_sigma;
  config.seed = preset.seed;
  return config;
}

trace::WorkloadConfig PresetShapeOf(const synth::ScenarioConfig& scenario) {
  trace::WorkloadConfig config;
  config.name = scenario.name;
  config.duration = scenario.duration;
  config.total_requests = scenario.requests;
  config.num_clients = scenario.sites;
  config.num_documents = scenario.documents;
  config.doc_zipf_exponent = scenario.doc_zipf;
  config.client_zipf_exponent = scenario.site_zipf;
  config.mean_file_size_bytes = scenario.mean_size_bytes;
  config.file_size_sigma = scenario.size_sigma;
  config.seed = scenario.seed;
  return config;
}

replay::ReplayConfig ScenarioReplayConfig(
    const synth::SynthWorkload& workload) {
  replay::ReplayConfig config;
  config.protocol = core::Protocol::kInvalidation;
  config.trace = &workload.trace;
  config.explicit_modifications = workload.writes;
  config.suppress_generated_modifications = true;
  return config;
}

}  // namespace webcc::benchmark
