// Heap-allocation budget of the replay's request path (ctest label: perf).
//
// The replay carries document and site ids end to end (DESIGN.md §16) and
// keeps its events and cache entries in reused slab slots (DESIGN.md §17):
// a simulated request builds no string and allocates nothing of its own,
// so what heap traffic remains is setup and container growth. This binary
// replaces the global operator new with a counting one and asserts a
// ceiling on heap allocations per replayed request, so a change that puts
// strings (or any other per-request allocation) back on the path fails
// here instead of only showing up as lost throughput.
//
// It is its own executable because the replacement operator new is global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "replay/engine.h"
#include "replay/experiments.h"
#include "synth/generate.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, so each allocation pairs with a matching free
// (std::stable_sort's buffer, for one, uses the nothrow form).
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace webcc::replay {
namespace {

// Heap allocations per replayed request over one RunReplay, input
// generation excluded.
double AllocationsPerRequest(const ReplayConfig& config) {
  const std::uint64_t before = g_allocations.load();
  const ReplayMetrics metrics = RunReplay(config);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_GT(metrics.requests_issued, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  const double per_request = static_cast<double>(allocations) /
                             static_cast<double>(metrics.requests_issued);
  std::printf("allocations/request: %.2f (%llu over %llu requests)\n",
              per_request, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(metrics.requests_issued));
  return per_request;
}

// Measured with the flat hot path: 1.32 allocations per request on the
// ClarkNet cell and 1.62 on the write-heavy scenario (6.1 and 8.2 before it,
// 17.6 and 22.3 when every layer rebuilt and re-interned strings). No
// per-request allocation remains: every hot-path capture fits sim::Task's
// inline storage, every reliable-send completion fits its callback's, the
// event heap, its FIFO lane and the proxy cache reuse freed slots, and
// their indexes grow only to the run's peak. What is counted, sampled by
// call site on the write-heavy cell: per-run setup (the id space's names,
// the document store, the per-client record slices; about 0.75 per
// request), growth of the accelerator's per-URL site lists (about 0.35),
// and one WriteDelivery map node per invalidation target (about 0.38: 2282
// over 198 writes). The ceilings are those figures plus 25%.
constexpr double kClarkNetCeiling = 1.65;
constexpr double kWriteHeavyCeiling = 2.03;

TEST(AllocationBudget, ClarkNetInvalidationCell) {
  trace::WorkloadConfig workload =
      trace::GetPreset(trace::TraceName::kClarkNet).workload;
  workload.total_requests = 20000;
  const trace::Trace trace = trace::GenerateTrace(workload);
  ExperimentSpec spec;
  for (const ExperimentSpec& candidate : AllTableExperiments()) {
    if (candidate.trace == trace::TraceName::kClarkNet) spec = candidate;
  }
  const ReplayConfig config =
      MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);
  EXPECT_LE(AllocationsPerRequest(config), kClarkNetCeiling);
}

TEST(AllocationBudget, WriteHeavySynthScenario) {
  synth::ScenarioConfig scenario;
  scenario.name = "alloc-budget";
  scenario.duration = kHour;
  scenario.requests = 6000;
  scenario.sites = 3000;
  scenario.documents = 600;
  scenario.doc_zipf = 0.9;
  scenario.write_fraction = 0.032;
  scenario.write_zipf = 1.0;
  scenario.locality = 0.3;
  scenario.seed = 5;
  const synth::SynthWorkload workload = synth::Generate(scenario);
  ReplayConfig config;
  config.protocol = core::Protocol::kInvalidation;
  config.trace = &workload.trace;
  config.explicit_modifications = workload.writes;
  config.suppress_generated_modifications = true;
  EXPECT_LE(AllocationsPerRequest(config), kWriteHeavyCeiling);
}

}  // namespace
}  // namespace webcc::replay
