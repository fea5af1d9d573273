// Microbenchmarks (google-benchmark) for the hot data structures and codecs
// underlying the replay engine and live prototype.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "http/eviction/expiry_heap.h"
#include "obs/trace_sink.h"
#include "core/accelerator.h"
#include "core/analysis.h"
#include "core/id_space.h"
#include "core/invalidation_table.h"
#include "http/cache_key.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/wire.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "sim/simulator.h"
#include "trace/presets.h"
#include "trace/workload.h"
#include "util/distributions.h"
#include "util/rng.h"

using namespace webcc;

namespace {

// --- invalidation table -----------------------------------------------------------

void BM_InvalidationTableRegister(benchmark::State& state) {
  core::IdSpace ids;
  core::InvalidationTable table(core::LeaseConfig{}, ids);
  const core::DocId doc = ids.docs.Intern("/doc");
  std::vector<core::SiteId> clients;
  for (int i = 0; i < 1024; ++i) {
    clients.push_back(ids.sites.Intern("10.0." + std::to_string(i / 256) +
                                       "." + std::to_string(i % 256)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    table.Register(doc, clients[i++ & 1023], net::MessageType::kGet, 0);
  }
}
BENCHMARK(BM_InvalidationTableRegister);

void BM_InvalidationTableTakeSites(benchmark::State& state) {
  const auto list_length = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::IdSpace ids;
    core::InvalidationTable table(core::LeaseConfig{}, ids);
    const core::DocId doc = ids.docs.Intern("/doc");
    for (int i = 0; i < list_length; ++i) {
      table.Register(doc, ids.sites.Intern("client-" + std::to_string(i)),
                     net::MessageType::kGet, 0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(table.TakeSitesWithLeases(doc, 0));
  }
  state.SetItemsProcessed(state.iterations() * list_length);
}
BENCHMARK(BM_InvalidationTableTakeSites)->Arg(16)->Arg(256)->Arg(4096);

// --- proxy cache -------------------------------------------------------------------

// Client "c"'s copy of document i, keyed as the string-facing callers key it.
std::string MicroKey(std::uint64_t i) {
  return http::ComposeCacheKey("/doc" + std::to_string(i), "c");
}

http::CacheEntry MicroEntry(int i, Time ttl) {
  http::CacheEntry entry;
  entry.url = "/doc" + std::to_string(i);
  entry.owner = "c";
  entry.key = MicroKey(i);
  entry.size_bytes = 4096;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

void BM_ProxyCacheLookupHit(benchmark::State& state) {
  http::ProxyCache cache(1 << 26, http::ReplacementPolicy::kLru);
  for (int i = 0; i < 4096; ++i) cache.Insert(MicroEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::string key = MicroKey(rng.NextBelow(4096));
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_ProxyCacheLookupHit);

void BM_ProxyCacheInsertWithEviction(benchmark::State& state) {
  // Cache holds 1024 entries; every insert evicts.
  http::ProxyCache cache(4096 * 1024, http::ReplacementPolicy::kLru);
  int i = 0;
  for (auto _ : state) {
    cache.Insert(MicroEntry(i++, 1 << 20), 0);
  }
}
BENCHMARK(BM_ProxyCacheInsertWithEviction);

void BM_ProxyCacheExpiredFirstEviction(benchmark::State& state) {
  http::ProxyCache cache(4096 * 1024,
                         http::ReplacementPolicy::kExpiredFirstLru);
  int i = 0;
  for (auto _ : state) {
    // Half the entries are already expired at insertion time of later ones.
    cache.Insert(MicroEntry(i, (i % 2 == 0) ? i : 1 << 30), i);
    ++i;
  }
}
BENCHMARK(BM_ProxyCacheExpiredFirstEviction);

// --- eviction-kernel dispatch ------------------------------------------------------
//
// The eviction refactor replaced ProxyCache's two-value enum branch inside
// EvictOne with a virtual PickVictim (plus OnInsert/OnHit/OnErase hooks).
// LegacyInlinedCache replicates the pre-refactor cache structure for
// structure — the same Interner tables, entry index, per-url index,
// lazy-deletion ExpiryHeap, stats counters, and kEviction emission; only
// the victim choice is the old inlined branch and the lifecycle hooks are
// absent. Timing it against the kernel-backed ProxyCache on identical
// streams therefore isolates the dispatch cost. The custom main() below
// does the measured comparison, checks the victim sequences are identical
// for the two legacy policies, and records the "cache_kernel" key in
// BENCH_farm.json with the same ≤1% hot-path bar the consistency-kernel
// refactor used.

class LegacyInlinedCache {
 public:
  struct Entry {
    std::string key;
    std::string url;
    std::string owner;
    std::uint64_t size_bytes = 0;
    std::uint64_t version = 0;
    Time ttl_expires = http::kNeverExpires;
    std::uint64_t heap_stamp = 0;
    core::InternId key_id = core::kNoInternId;
    core::InternId url_id = core::kNoInternId;
    bool heap_record_live = false;
  };

  LegacyInlinedCache(std::uint64_t capacity_bytes, bool expired_first)
      : capacity_bytes_(capacity_bytes), expired_first_(expired_first) {}

  Entry* Lookup(const std::string& key) {
    const core::InternId id = keys_.Find(key);
    if (id == core::kNoInternId) return nullptr;
    const auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &*it->second;
  }

  void Insert(Entry entry, Time now) {
    entry.key_id = keys_.Intern(entry.key);
    entry.url_id = urls_.Intern(entry.url);
    EraseById(entry.key_id);
    if (entry.size_bytes > capacity_bytes_) return;  // uncacheable
    while (bytes_used_ + entry.size_bytes > capacity_bytes_) EvictOne(now);
    entry.heap_stamp = next_stamp_++;
    bytes_used_ += entry.size_bytes;
    lru_.push_front(std::move(entry));
    index_[lru_.front().key_id] = lru_.begin();
    url_index_[lru_.front().url_id].push_back(lru_.front().key_id);
    if (lru_.front().ttl_expires != http::kNeverExpires) {
      ttl_heap_.Push(lru_.front().ttl_expires, lru_.front().heap_stamp,
                     lru_.front().key_id);
      lru_.front().heap_record_live = true;
    }
  }

  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

 private:
  using LruList = std::list<Entry>;

  // The pre-refactor EvictOne: the two-policy choice is an inlined branch
  // over the same heap/index state the kernel's PickVictim reads.
  void EvictOne(Time now) {
    if (expired_first_) {
      while (!ttl_heap_.empty()) {
        const http::eviction::ExpiryRecord top = ttl_heap_.Top();
        const auto it = index_.find(top.key);
        const bool live =
            it != index_.end() && it->second->heap_stamp == top.stamp;
        if (!live) {
          ttl_heap_.PopStale();
          continue;
        }
        if (top.expires > now) break;
        it->second->heap_record_live = false;
        ttl_heap_.PopLive();
        EvictEntry(it->second, now, /*expired_rule=*/true);
        return;
      }
    }
    EvictEntry(std::prev(lru_.end()), now, /*expired_rule=*/false);
  }

  void EvictEntry(LruList::iterator it, Time now, bool expired_rule) {
    obs::Emit(trace_sink_, {.type = obs::EventType::kEviction,
                            .at = now,
                            .url = it->url,
                            .site = it->owner,
                            .detail = expired_rule ? 1 : 0});
    RemoveEntry(it);
  }

  void EraseById(core::InternId key_id) {
    const auto it = index_.find(key_id);
    if (it != index_.end()) RemoveEntry(it->second);
  }

  void RemoveEntry(LruList::iterator it) {
    if (it->heap_record_live) ttl_heap_.NoteStale();
    const auto url_it = url_index_.find(it->url_id);
    if (url_it != url_index_.end()) {
      std::vector<core::InternId>& keys = url_it->second;
      keys.erase(std::find(keys.begin(), keys.end(), it->key_id));
      if (keys.empty()) url_index_.erase(url_it);
    }
    index_.erase(it->key_id);
    bytes_used_ -= it->size_bytes;
    lru_.erase(it);
    ttl_heap_.CompactIfStale([this](const http::eviction::ExpiryRecord& r) {
      const auto live_it = index_.find(r.key);
      return live_it != index_.end() && live_it->second->heap_stamp == r.stamp;
    });
  }

  std::uint64_t capacity_bytes_;
  bool expired_first_;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t next_stamp_ = 1;
  core::Interner keys_;
  core::Interner urls_;
  LruList lru_;
  std::unordered_map<core::InternId, LruList::iterator> index_;
  std::unordered_map<core::InternId, std::vector<core::InternId>> url_index_;
  http::eviction::ExpiryHeap ttl_heap_;
  obs::TraceSink* trace_sink_ = nullptr;
};

LegacyInlinedCache::Entry LegacyEntry(int i, Time ttl) {
  LegacyInlinedCache::Entry entry;
  entry.key = MicroKey(i);
  entry.url = "/doc" + std::to_string(i);
  entry.owner = "c";
  entry.size_bytes = 4096;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

// Insert stream shared by the timed comparison: 1024-entry capacity, every
// insert evicts, every other entry already expired (the stream where the
// expired-first branch actually runs).
Time StreamTtl(int i) { return (i % 2 == 0) ? Time(i) : Time(1) << 30; }

template <http::ReplacementPolicy P>
void BM_CacheInsertEvict(benchmark::State& state) {
  http::ProxyCache cache(4096 * 1024, P);
  int i = 0;
  for (auto _ : state) {
    cache.Insert(MicroEntry(i, StreamTtl(i)), i);
    ++i;
  }
}
BENCHMARK_TEMPLATE(BM_CacheInsertEvict, http::ReplacementPolicy::kLru);
BENCHMARK_TEMPLATE(BM_CacheInsertEvict,
                   http::ReplacementPolicy::kExpiredFirstLru);
BENCHMARK_TEMPLATE(BM_CacheInsertEvict, http::ReplacementPolicy::kGds);

void BM_CacheInsertEvictInlined(benchmark::State& state) {
  LegacyInlinedCache cache(4096 * 1024, /*expired_first=*/true);
  int i = 0;
  for (auto _ : state) {
    cache.Insert(LegacyEntry(i, StreamTtl(i)), i);
    ++i;
  }
}
BENCHMARK(BM_CacheInsertEvictInlined);

void BM_CacheLookupHit(benchmark::State& state) {
  http::ProxyCache cache(1 << 26, http::ReplacementPolicy::kExpiredFirstLru);
  for (int i = 0; i < 4096; ++i) cache.Insert(MicroEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::string key = MicroKey(rng.NextBelow(4096));
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupHitInlined(benchmark::State& state) {
  LegacyInlinedCache cache(1 << 26, /*expired_first=*/true);
  for (int i = 0; i < 4096; ++i) cache.Insert(LegacyEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::string key = MicroKey(rng.NextBelow(4096));
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_CacheLookupHitInlined);

// --- simulator ------------------------------------------------------------------------

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.At((i * 7919) % 100000, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(65536);

// --- string interner --------------------------------------------------------------------

void BM_InternerInternHit(benchmark::State& state) {
  core::Interner interner;
  std::vector<std::string> urls;
  for (int i = 0; i < 4096; ++i) {
    urls.push_back("/docs/" + std::to_string(i) + ".html");
    interner.Intern(urls.back());
  }
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.Intern(urls[rng.NextBelow(4096)]));
  }
}
BENCHMARK(BM_InternerInternHit);

// --- replay engine ----------------------------------------------------------------------

void BM_ReplaySmallTrace(benchmark::State& state) {
  // End-to-end replay of a miniature EPA row; counters report the hot
  // loop's throughput (simulator events per host second) and its working
  // set (the event queue's high-water mark).
  const auto spec = replay::Table3Experiments()[0];
  trace::WorkloadConfig small = trace::GetPreset(spec.trace).workload;
  small.total_requests /= 50;
  small.num_documents /= 10;
  small.num_clients /= 10;
  const trace::Trace trace = trace::GenerateTrace(small);
  const replay::ReplayConfig config =
      replay::MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);

  replay::ReplayMetrics last;
  for (auto _ : state) {
    last = replay::RunReplay(config);
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.sim_events_executed));
  state.counters["events/s"] = last.events_per_second();
  state.counters["requests/s"] = last.requests_per_second();
  state.counters["peak_queue"] =
      static_cast<double>(last.sim_peak_queue_depth);
}
BENCHMARK(BM_ReplaySmallTrace)->Unit(benchmark::kMillisecond);

// --- wire codec ------------------------------------------------------------------------

void BM_WireEncodeRequest(benchmark::State& state) {
  net::Request request;
  request.type = net::MessageType::kIfModifiedSince;
  request.url = "/docs/00042.html";
  request.client_id = "10.1.2.3";
  request.if_modified_since = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EncodeLine(request));
  }
}
BENCHMARK(BM_WireEncodeRequest);

void BM_WireDecodeReply(benchmark::State& state) {
  net::Reply reply;
  reply.type = net::MessageType::kReply200;
  reply.url = "/docs/00042.html";
  reply.body_bytes = 21504;
  reply.last_modified = 99;
  reply.version = 3;
  reply.lease_until = 987654321;
  const std::string line = net::EncodeLine(reply);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeLine(line));
  }
}
BENCHMARK(BM_WireDecodeReply);

// --- distributions & trace generation ----------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfDistribution zipf(
      static_cast<std::size_t>(state.range(0)), 0.9);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_GenerateTrace(benchmark::State& state) {
  trace::WorkloadConfig config;
  config.total_requests = static_cast<std::uint64_t>(state.range(0));
  config.num_documents = 1000;
  config.num_clients = 500;
  config.duration = kDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::GenerateTrace(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateTrace)->Arg(10000)->Arg(50000);

// --- analytic model -----------------------------------------------------------------------

void BM_SequenceSimulation(benchmark::State& state) {
  util::Rng rng(3);
  std::string sequence;
  for (int i = 0; i < 10000; ++i) sequence += rng.NextBool(0.8) ? 'r' : 'm';
  const auto events = core::ParseSequence(sequence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimulateInvalidationSequence(events));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SequenceSimulation);

// --- consistency-kernel dispatch -----------------------------------------------------------

// The same hit-decision stream through the pre-refactor inlined switch
// (bench::InlinedOnHit) and through the kernel's virtual dispatch. The
// absolute delta is a few ns/op; BENCH_farm.json (bench_farm) records it as
// a fraction of the replay hot path's per-request cost, which is the ≤1%
// acceptance bar for the refactor.

void BM_ConsistencyOnHitInlinedSwitch(benchmark::State& state) {
  const bench::DispatchWorkload workload = bench::MakeDispatchWorkload(1 << 16);
  std::size_t i = 0;
  const std::size_t mask = workload.entries.size() - 1;
  for (auto _ : state) {
    const std::size_t j = i++ & mask;
    benchmark::DoNotOptimize(
        bench::InlinedOnHit(workload.protocols[j], workload.entries[j], 1));
  }
}
BENCHMARK(BM_ConsistencyOnHitInlinedSwitch);

void BM_ConsistencyOnHitKernelDispatch(benchmark::State& state) {
  const bench::DispatchWorkload workload = bench::MakeDispatchWorkload(1 << 16);
  std::size_t i = 0;
  const std::size_t mask = workload.entries.size() - 1;
  for (auto _ : state) {
    const std::size_t j = i++ & mask;
    benchmark::DoNotOptimize(
        workload.policies[j]->OnHit(workload.entries[j], 1));
  }
}
BENCHMARK(BM_ConsistencyOnHitKernelDispatch);

// --- accelerator end-to-end ----------------------------------------------------------------

void BM_AcceleratorRequestPath(benchmark::State& state) {
  http::DocumentStore docs;
  for (int i = 0; i < 1000; ++i) {
    docs.Add("/doc" + std::to_string(i), 4096, 0);
  }
  core::Accelerator accel(docs, core::LeaseConfig{});
  util::Rng rng(11);
  for (auto _ : state) {
    net::Request request;
    request.type = net::MessageType::kGet;
    request.url = "/doc" + std::to_string(rng.NextBelow(1000));
    request.client_id = "10.0.0." + std::to_string(rng.NextBelow(256));
    benchmark::DoNotOptimize(accel.HandleRequest(request, 0));
  }
}
BENCHMARK(BM_AcceleratorRequestPath);

// --- cache_kernel gate ---------------------------------------------------------------
//
// The measured (not sampled) version of the BM_CacheInsertEvict /
// BM_CacheLookupHit pairs above: fixed-op-count streams through both caches,
// victim sequences compared entry by entry, and the worst per-op delta
// expressed against the replay hot path's per-request cost. Written to
// BENCH_farm.json under "cache_kernel"; the exit code is the ≤1% bar.

using GateClock = std::chrono::steady_clock;

double GateMillisSince(GateClock::time_point start) {
  return std::chrono::duration<double, std::milli>(GateClock::now() - start)
      .count();
}

// Collects the urls of real evictions (oversize rejections, detail 2, never
// name a victim; this stream produces none anyway).
class VictimSink : public obs::TraceSink {
 public:
  void Emit(const obs::TraceEvent& event) override {
    if (event.type == obs::EventType::kEviction && event.detail != 2) {
      victims_.emplace_back(event.url);
    }
  }
  void WriteRaw(std::string_view) override {}
  const std::vector<std::string>& victims() const { return victims_; }

 private:
  std::vector<std::string> victims_;
};

constexpr std::size_t kGateInsertOps = std::size_t{1} << 18;
constexpr std::size_t kGateLookupOps = std::size_t{1} << 21;

struct StreamTiming {
  double ns_per_op = 0.0;
  std::vector<std::string> victims;  // insert streams only
  std::uint64_t hits = 0;            // lookup streams only
};

// Each stream runs twice: an untimed pass with a recording sink for the
// victim sequence, then a timed pass with tracing off (matching how the
// replay uses the cache), so the sink's string materialization never lands
// in the measured region.
StreamTiming TimeKernelInserts(http::ReplacementPolicy policy) {
  StreamTiming timing;
  {
    http::ProxyCache cache(4096 * 1024, policy);
    VictimSink sink;
    cache.set_trace_sink(&sink);
    for (std::size_t i = 0; i < kGateInsertOps; ++i) {
      const int n = static_cast<int>(i);
      cache.Insert(MicroEntry(n, StreamTtl(n)), static_cast<Time>(i));
    }
    timing.victims = sink.victims();
  }
  http::ProxyCache cache(4096 * 1024, policy);
  const auto start = GateClock::now();
  for (std::size_t i = 0; i < kGateInsertOps; ++i) {
    const int n = static_cast<int>(i);
    cache.Insert(MicroEntry(n, StreamTtl(n)), static_cast<Time>(i));
  }
  timing.ns_per_op =
      GateMillisSince(start) * 1e6 / static_cast<double>(kGateInsertOps);
  return timing;
}

StreamTiming TimeInlinedInserts(bool expired_first) {
  StreamTiming timing;
  {
    LegacyInlinedCache cache(4096 * 1024, expired_first);
    VictimSink sink;
    cache.set_trace_sink(&sink);
    for (std::size_t i = 0; i < kGateInsertOps; ++i) {
      const int n = static_cast<int>(i);
      cache.Insert(LegacyEntry(n, StreamTtl(n)), static_cast<Time>(i));
    }
    timing.victims = sink.victims();
  }
  LegacyInlinedCache cache(4096 * 1024, expired_first);
  const auto start = GateClock::now();
  for (std::size_t i = 0; i < kGateInsertOps; ++i) {
    const int n = static_cast<int>(i);
    cache.Insert(LegacyEntry(n, StreamTtl(n)), static_cast<Time>(i));
  }
  timing.ns_per_op =
      GateMillisSince(start) * 1e6 / static_cast<double>(kGateInsertOps);
  return timing;
}

StreamTiming TimeKernelLookups() {
  http::ProxyCache cache(1 << 26, http::ReplacementPolicy::kExpiredFirstLru);
  for (int i = 0; i < 4096; ++i) cache.Insert(MicroEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  StreamTiming timing;
  const auto start = GateClock::now();
  for (std::size_t i = 0; i < kGateLookupOps; ++i) {
    const std::string key = MicroKey(rng.NextBelow(4096));
    if (cache.Lookup(key) != nullptr) ++timing.hits;
  }
  timing.ns_per_op =
      GateMillisSince(start) * 1e6 / static_cast<double>(kGateLookupOps);
  return timing;
}

StreamTiming TimeInlinedLookups() {
  LegacyInlinedCache cache(1 << 26, /*expired_first=*/true);
  for (int i = 0; i < 4096; ++i) cache.Insert(LegacyEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  StreamTiming timing;
  const auto start = GateClock::now();
  for (std::size_t i = 0; i < kGateLookupOps; ++i) {
    const std::string key = MicroKey(rng.NextBelow(4096));
    if (cache.Lookup(key) != nullptr) ++timing.hits;
  }
  timing.ns_per_op =
      GateMillisSince(start) * 1e6 / static_cast<double>(kGateLookupOps);
  return timing;
}

bool SameVictims(const std::vector<std::string>& kernel_urls,
                 const std::vector<std::string>& inlined_urls) {
  return kernel_urls == inlined_urls;
}

double ReplayNsPerRequest() {
  const auto spec = replay::Table3Experiments()[0];
  trace::WorkloadConfig small = trace::GetPreset(spec.trace).workload;
  small.total_requests /= 50;
  small.num_documents /= 10;
  small.num_clients /= 10;
  const trace::Trace trace = trace::GenerateTrace(small);
  const replay::ReplayConfig config =
      replay::MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);
  const auto start = GateClock::now();
  const replay::ReplayMetrics metrics = replay::RunReplay(config);
  return GateMillisSince(start) * 1e6 /
         static_cast<double>(std::max<std::uint64_t>(
             metrics.requests_issued, 1));
}

int RunCacheKernelGate() {
  const StreamTiming inlined_lru = TimeInlinedInserts(/*expired_first=*/false);
  const StreamTiming kernel_lru =
      TimeKernelInserts(http::ReplacementPolicy::kLru);
  const StreamTiming inlined_ef = TimeInlinedInserts(/*expired_first=*/true);
  const StreamTiming kernel_ef =
      TimeKernelInserts(http::ReplacementPolicy::kExpiredFirstLru);
  const StreamTiming kernel_gds =
      TimeKernelInserts(http::ReplacementPolicy::kGds);
  const StreamTiming inlined_lookup = TimeInlinedLookups();
  const StreamTiming kernel_lookup = TimeKernelLookups();

  const bool lru_identical = SameVictims(kernel_lru.victims, inlined_lru.victims);
  const bool ef_identical = SameVictims(kernel_ef.victims, inlined_ef.victims);
  const bool lookups_identical =
      kernel_lookup.hits == kGateLookupOps &&
      inlined_lookup.hits == kGateLookupOps;

  const double replay_ns = ReplayNsPerRequest();
  const double insert_delta =
      std::max(kernel_lru.ns_per_op - inlined_lru.ns_per_op,
               kernel_ef.ns_per_op - inlined_ef.ns_per_op);
  const double lookup_delta =
      kernel_lookup.ns_per_op - inlined_lookup.ns_per_op;
  const double worst_delta = std::max({insert_delta, lookup_delta, 0.0});
  const double overhead_percent = 100.0 * worst_delta / replay_ns;

  std::printf(
      "\n=== cache_kernel gate (%zu inserts, %zu lookups per stream) ===\n"
      "insert  lru:           inlined %.1f ns/op, kernel %.1f ns/op, "
      "victims %s\n"
      "insert  expired_first: inlined %.1f ns/op, kernel %.1f ns/op, "
      "victims %s\n"
      "insert  gds:           kernel %.1f ns/op (no pre-refactor twin)\n"
      "lookup  hit:           inlined %.1f ns/op, kernel %.1f ns/op, "
      "all-hit %s\n"
      "replay hot path: %.0f ns/request -> worst-case dispatch overhead "
      "%.4f%% (bar: <= 1%%)\n",
      kGateInsertOps, kGateLookupOps, inlined_lru.ns_per_op,
      kernel_lru.ns_per_op, lru_identical ? "identical" : "DIVERGED",
      inlined_ef.ns_per_op, kernel_ef.ns_per_op,
      ef_identical ? "identical" : "DIVERGED", kernel_gds.ns_per_op,
      inlined_lookup.ns_per_op, kernel_lookup.ns_per_op,
      lookups_identical ? "yes" : "NO", replay_ns, overhead_percent);

  const bool pass = lru_identical && ef_identical && lookups_identical &&
                    overhead_percent <= 1.0;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"cache_kernel\", \"insert_ops\": %zu, "
      "\"lookup_ops\": %zu, \"insert\": ["
      "{\"policy\": \"lru\", \"inlined_ns_per_op\": %.2f, "
      "\"kernel_ns_per_op\": %.2f, \"victims_identical\": %s}, "
      "{\"policy\": \"expired_first_lru\", \"inlined_ns_per_op\": %.2f, "
      "\"kernel_ns_per_op\": %.2f, \"victims_identical\": %s}, "
      "{\"policy\": \"gds\", \"kernel_ns_per_op\": %.2f}], "
      "\"lookup\": {\"inlined_ns_per_op\": %.2f, \"kernel_ns_per_op\": %.2f, "
      "\"all_hits\": %s}, \"replay_ns_per_request\": %.0f, "
      "\"hot_path_overhead_percent\": %.4f, \"pass\": %s}",
      kGateInsertOps, kGateLookupOps, inlined_lru.ns_per_op,
      kernel_lru.ns_per_op, lru_identical ? "true" : "false",
      inlined_ef.ns_per_op, kernel_ef.ns_per_op,
      ef_identical ? "true" : "false", kernel_gds.ns_per_op,
      inlined_lookup.ns_per_op, kernel_lookup.ns_per_op,
      lookups_identical ? "true" : "false", replay_ns, overhead_percent,
      pass ? "true" : "false");
  bench::WriteBenchJsonKey("BENCH_farm.json", "cache_kernel", json);
  return pass ? 0 : 1;
}

}  // namespace

// Custom main (instead of benchmark_main): the sampled google-benchmark
// suite runs first, then the measured cache_kernel gate decides the exit
// code and records its BENCH_farm.json key. `--gate-only` skips the
// sampled suite.
int main(int argc, char** argv) {
  bool gate_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gate-only") {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      gate_only = true;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!gate_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunCacheKernelGate();
}
