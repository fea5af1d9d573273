// The benchmark's inputs, every one a pure function of --seed (and of the
// tiny/full size switch): the five preset traces behind the paper tables,
// and the synth scenario behind write-storm. The program under test only
// ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.h"
#include "replay/config.h"
#include "synth/generate.h"
#include "synth/scenario.h"
#include "trace/modifier.h"
#include "trace/record.h"
#include "trace/workload.h"

namespace webcc::benchmark {

// One operation of a workload's request+write stream, in time order; the
// layer drivers and the live workload consume this.
struct Op {
  Time at = 0;
  trace::DocId doc = 0;
  trace::ClientId client = 0;
  bool write = false;
};

// Merges a trace's requests with a write schedule; at equal times requests
// come first (the engine's lock-step interval applies touches after the
// interval's requests were issued).
std::vector<Op> MergeStream(const trace::Trace& trace,
                            const std::vector<trace::ModEvent>& writes);

// FNV-1a digest of a trace through synth::WorkloadDigest's canonical form.
std::uint64_t TraceDigest(const trace::Trace& trace);

// --- paper-tables -----------------------------------------------------------

struct PaperInputs {
  std::vector<trace::Trace> traces;  // indexed by trace::TraceName
  std::uint64_t digest = 0;          // over all five, in TraceName order
};

// The five preset workload configs in TraceName order, re-seeded from
// `seed` (and cut to a fortieth of the requests when `tiny`).
std::vector<trace::WorkloadConfig> PaperPresetConfigs(std::uint64_t seed,
                                                      bool tiny);

// Generates the five preset traces from PaperPresetConfigs; every
// GenerateTrace call gets its own span.
PaperInputs GeneratePaperInputs(std::uint64_t seed, bool tiny,
                                SpanLog* spans);

// The 18 Table 3/4 cells (six experiments x TTL, polling, invalidation)
// followed by the Section 6 two-tier SASK cell.
std::vector<replay::ReplayConfig> PaperTableConfigs(const PaperInputs& inputs);

// The modifier schedule RunReplay derives for a generated-modifier config.
std::vector<trace::ModEvent> ModifierSchedule(
    const replay::ReplayConfig& config);

// --- synth scenarios --------------------------------------------------------

synth::ScenarioConfig WriteStormScenario(std::uint64_t seed, bool tiny);

// The same input shape (requests, documents, clients, duration, Zipf and
// size parameters, seed) for the other generator. Each traced run times
// both generators on its workload's shape, so a change that merges them
// (one input path) shows on every workload.
synth::ScenarioConfig ScenarioShapeOf(const trace::WorkloadConfig& preset);
trace::WorkloadConfig PresetShapeOf(const synth::ScenarioConfig& scenario);

// The replay configuration write-storm uses: plain invalidation — no lease,
// serialized fan-out — over the generated trace with its write stream as
// the modification schedule.
replay::ReplayConfig ScenarioReplayConfig(const synth::SynthWorkload& workload);

}  // namespace webcc::benchmark
