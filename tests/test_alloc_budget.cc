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
#include <string_view>

#include "core/id_space.h"
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

// Measured: 0.78 allocations per request on the ClarkNet cell and 0.67 on
// the write-heavy scenario. No per-request allocation remains: every
// hot-path capture fits sim::Task's inline storage, every reliable-send
// completion fits its callback's, the event heap, its FIFO lane and the
// proxy cache reuse freed slots, and their indexes grow only to the run's
// peak. The largest shares, sampled by call site on the write-heavy cell:
// growth of the accelerator's per-URL site lists (about 0.35 per request),
// per-run setup (the document store about 0.11, the id space's name blocks
// and bucket arrays about 0.03), and about four per write (the fan-out
// list, its WriteDelivery target vector, the pending-write entry, the site
// snapshot; about 0.09). The ceilings are those figures plus 25%.
constexpr double kClarkNetCeiling = 0.98;
constexpr double kWriteHeavyCeiling = 0.84;

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

// The id space's own cost: a short name lives inside its std::string, so
// interning allocates only the name deque's blocks and the bucket array's
// doublings. A node-based map allocated at least once per name.
TEST(AllocationBudget, InterningShortNamesAllocatesPerBlockNotPerName) {
  constexpr int kNames = 100000;
  const std::uint64_t before = g_allocations.load();
  {
    core::Interner interner;
    char name[16];
    for (int i = 0; i < kNames; ++i) {
      const int length =
          std::snprintf(name, sizeof(name), "10.0.%d.%d", i / 256, i % 256);
      interner.Intern(std::string_view(name, static_cast<std::size_t>(length)));
    }
    EXPECT_EQ(interner.size(), static_cast<std::size_t>(kNames));
  }
  const double per_name =
      static_cast<double>(g_allocations.load() - before) / kNames;
  std::printf("allocations/name: %.3f\n", per_name);
  EXPECT_LE(per_name, 0.1);
}

}  // namespace
}  // namespace webcc::replay
