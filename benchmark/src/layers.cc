#include "layers.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>

#include "core/accelerator.h"
#include "core/consistency/policy.h"
#include "http/cache_key.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/wire.h"
#include "sim/simulator.h"

namespace webcc::benchmark {
namespace {

// Sink for driver results the optimizer must not discard; drivers may run
// on several threads at once.
std::atomic<std::uint64_t> g_keep_alive{0};

void KeepAlive(std::uint64_t value) {
  g_keep_alive.fetch_add(value, std::memory_order_relaxed);
}

double PerOp(std::int64_t ns, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(count);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void RecordingSink::Emit(const obs::TraceEvent& event) {
  ++events_;
  if (kept_.size() >= keep_) return;
  Owned owned;
  owned.event = event;
  owned.event.url = {};
  owned.event.site = {};
  owned.event.label = {};
  owned.url = event.url;
  owned.site = event.site;
  owned.label = event.label;
  kept_.push_back(std::move(owned));
}

void CoreResult::Merge(const CoreResult& other) {
  register_ns += other.register_ns;
  registers += other.registers;
  write_ns += other.write_ns;
  invalidations += other.invalidations;
  sitelist_entries += other.sitelist_entries;
}

CoreResult DriveCore(const trace::Trace& trace, const std::vector<Op>& ops) {
  CoreResult result;
  http::DocumentStore store;
  for (const trace::DocumentInfo& doc : trace.documents) {
    store.Add(doc.path, doc.size_bytes, -kDay);
  }
  core::Accelerator accel(store, core::LeaseConfig{});
  net::Request request;
  request.type = net::MessageType::kGet;

  // Requests are timed in batches (the runs between two writes) so the
  // clock's own cost stays out of a sub-microsecond figure; each write is
  // timed on its own, so the registrations around it stay out.
  std::int64_t batch_start = 0;
  std::uint64_t batch = 0;
  std::uint64_t answered = 0;
  const auto close_batch = [&] {
    if (batch == 0) return;
    result.register_ns += NowNs() - batch_start;
    result.registers += batch;
    batch = 0;
  };
  for (const Op& op : ops) {
    const std::string& path = trace.documents[op.doc].path;
    if (!op.write) {
      if (batch == 0) batch_start = NowNs();
      request.url = path;
      request.client_id = trace.clients[op.client];
      answered += accel.HandleRequest(request, op.at).has_value();
      ++batch;
      continue;
    }
    close_batch();
    const std::int64_t start = NowNs();
    store.Touch(path, op.at);
    const std::size_t sent =
        accel.HandleNotify(net::Notify{path}, op.at).size();
    result.write_ns += NowNs() - start;
    result.invalidations += sent;
  }
  close_batch();
  KeepAlive(answered);
  result.sitelist_entries = accel.table().TotalEntries();
  return result;
}

void HttpResult::Merge(const HttpResult& other) {
  lookups += other.lookups;
  ops += other.ops;
  ns += other.ns;
  decisions += other.decisions;
  decision_ns += other.decision_ns;
}

HttpResult DriveHttp(const trace::Trace& trace, const std::vector<Op>& ops,
                     std::uint32_t pseudo_clients,
                     std::uint64_t cache_bytes) {
  constexpr std::size_t kMaxHits = 500000;
  struct Hit {
    core::consistency::EntryMeta meta;
    Time now;
  };
  HttpResult result;
  std::vector<std::unique_ptr<http::ProxyCache>> caches;
  for (std::uint32_t i = 0; i < pseudo_clients; ++i) {
    caches.push_back(std::make_unique<http::ProxyCache>(
        cache_bytes, http::eviction::EvictionPolicyKind::kExpiredFirstLru));
  }
  std::vector<Hit> hits;

  const std::int64_t start = NowNs();
  for (const Op& op : ops) {
    const trace::DocumentInfo& doc = trace.documents[op.doc];
    if (op.write) {
      for (const auto& cache : caches) cache->EraseByUrl(doc.path);
      result.ops += caches.size();
      continue;
    }
    const std::string& owner = trace.clients[op.client];
    std::string key = http::ComposeCacheKey(doc.path, owner);
    http::ProxyCache& cache = *caches[op.client % pseudo_clients];
    ++result.lookups;
    ++result.ops;
    if (const http::CacheEntry* entry = cache.Lookup(key, op.at)) {
      if (hits.size() < kMaxHits) {
        hits.push_back(Hit{{entry->last_modified, entry->fetched_at,
                            entry->ttl_expires, entry->lease_expires,
                            entry->questionable},
                           op.at});
      }
      continue;
    }
    http::CacheEntry entry;
    entry.key = std::move(key);
    entry.url = doc.path;
    entry.owner = owner;
    entry.size_bytes = doc.size_bytes;
    entry.last_modified = -kDay;
    entry.fetched_at = op.at;
    cache.Insert(std::move(entry), op.at);
    ++result.ops;
  }
  result.ns = NowNs() - start;

  const std::unique_ptr<const core::consistency::ConsistencyPolicy> policy =
      core::consistency::MakePolicy(core::Protocol::kInvalidation,
                                    core::AdaptiveTtlConfig{});
  std::uint64_t served = 0;
  const std::int64_t decide_start = NowNs();
  for (const Hit& hit : hits) {
    served += policy->OnHit(hit.meta, hit.now).action ==
              core::consistency::HitAction::kServeLocal;
  }
  result.decision_ns = NowNs() - decide_start;
  result.decisions = hits.size();
  KeepAlive(served);
  return result;
}

CountedNs DriveSim(const std::vector<Op>& ops, Time interval) {
  sim::Simulator sim;
  std::uint64_t handled = 0;
  const std::int64_t start = NowNs();
  std::size_t i = 0;
  while (i < ops.size()) {
    const Time end = (ops[i].at / interval + 1) * interval;
    for (; i < ops.size() && ops[i].at < end; ++i) {
      if (ops[i].write) {
        sim.At(ops[i].at, [&handled] { ++handled; });
      } else {
        sim.At(ops[i].at, [&sim, &handled] {
          ++handled;
          sim.After(kMillisecond, [&handled] { ++handled; });
        });
      }
    }
    sim.RunUntil(end);
  }
  sim.Run();
  CountedNs result{sim.executed(), NowNs() - start};
  KeepAlive(handled);
  return result;
}

CountedNs DriveNet(const trace::Trace& trace, const std::vector<Op>& ops) {
  CountedNs result;
  std::uint64_t decoded = 0;
  const auto round_trip = [&](const net::Message& message) {
    decoded += net::DecodeLine(net::EncodeLine(message)).has_value();
    ++result.count;
  };
  const std::int64_t start = NowNs();
  for (const Op& op : ops) {
    const trace::DocumentInfo& doc = trace.documents[op.doc];
    const std::string& client = trace.clients[op.client];
    if (op.write) {
      net::Invalidation invalidation;
      invalidation.url = doc.path;
      invalidation.client_id = client;
      round_trip(invalidation);
      continue;
    }
    net::Request request;
    request.url = doc.path;
    request.client_id = client;
    round_trip(request);
    net::Reply reply;
    reply.url = doc.path;
    reply.body_bytes = doc.size_bytes;
    reply.last_modified = op.at;
    reply.version = 1;
    round_trip(reply);
  }
  result.ns = NowNs() - start;
  KeepAlive(decoded);
  return result;
}

CountedNs DriveObs(const std::vector<const RecordingSink*>& sinks) {
  std::ostringstream out;
  obs::JsonlTraceSink jsonl(out);
  CountedNs result;
  const std::int64_t start = NowNs();
  for (const RecordingSink* sink : sinks) {
    for (const RecordingSink::Owned& owned : sink->kept()) {
      obs::TraceEvent event = owned.event;
      event.url = owned.url;
      event.site = owned.site;
      event.label = owned.label;
      jsonl.Emit(event);
      ++result.count;
    }
  }
  result.ns = NowNs() - start;
  KeepAlive(static_cast<std::uint64_t>(out.tellp()));
  return result;
}

void DriveLayers(const trace::Trace& trace, const std::vector<Op>& ops,
                 std::uint32_t pseudo_clients, std::uint64_t cache_bytes,
                 LayerTotals& totals) {
  totals.core.Merge(DriveCore(trace, ops));
  totals.http.Merge(DriveHttp(trace, ops, pseudo_clients, cache_bytes));
  totals.sim.Merge(DriveSim(ops, replay::ReplayConfig{}.lockstep_interval));
  totals.net.Merge(DriveNet(trace, ops));
}

void AddReplayLayerMetrics(const ReplayPass& pass, Outcome& outcome) {
  double engine_s = 0.0;
  double longest_s = 0.0;
  for (const replay::ReplayMetrics& cell : pass.untraced) {
    engine_s += cell.host_seconds;
    longest_s = std::max(longest_s, cell.host_seconds);
  }
  const double worker_s = pass.untraced_span_s * pass.workers;
  const std::string cells = Count(pass.untraced.size(), "cells");
  outcome.Add("replay.engine_s", engine_s, "s", cells);
  outcome.Add("replay.outside_engine_s", worker_s - engine_s, "s",
              "span x " + std::to_string(pass.workers) + " workers");
  outcome.Add("replay.longest_cell_s", longest_s, "s", cells);
  outcome.Add("replay.farm_busy_share", Ratio(engine_s, worker_s), "ratio",
              cells);

  for (std::size_t i = 0; i < pass.traced.size(); ++i) {
    outcome.Gate(replay::SameSimulation(pass.untraced[i], pass.traced[i]),
                 "cell " + std::to_string(i) +
                     ": traced replay is not SameSimulation with untraced");
  }

  std::uint64_t requests = 0, events = 0, peak_queue = 0, hits = 0,
                evictions = 0, invalidations = 0, writes = 0,
                fan_out_writes = 0, sitelist = 0, messages = 0, bytes = 0,
                trace_events = 0;
  for (std::size_t i = 0; i < pass.registries.size(); ++i) {
    const obs::MetricsRegistry& r = *pass.registries[i];
    requests += r.CounterValue("replay.requests_issued");
    events += r.CounterValue("replay.sim_events_executed");
    peak_queue =
        std::max(peak_queue, r.CounterValue("replay.sim_peak_queue_depth"));
    hits += r.CounterValue("replay.cache_hits");
    evictions += r.CounterValue("replay.proxy_evictions");
    const std::uint64_t generated =
        r.CounterValue("accelerator.invalidations_generated");
    invalidations += generated;
    const std::uint64_t mods = r.CounterValue("replay.modifications_applied");
    writes += mods;
    if (r.CounterValue("accelerator.requests") > 0) fan_out_writes += mods;
    sitelist += r.CounterValue("replay.sitelist_entries");
    messages += r.CounterValue("replay.total_messages");
    bytes += r.CounterValue("replay.message_bytes");
    trace_events += pass.sinks[i]->events();
  }
  const double req = static_cast<double>(requests);
  const std::string per_request = Count(requests, "requests");
  outcome.Add("sim.events", static_cast<double>(events), "count",
              per_request);
  outcome.Add("sim.events_per_request", Ratio(events, req), "events/req",
              per_request);
  outcome.Add("sim.peak_queue_depth", static_cast<double>(peak_queue),
              "count", "max over " + cells);
  outcome.Add("http.cache_hit_ratio", Ratio(hits, req), "ratio", per_request);
  outcome.Add("http.cache_evictions", static_cast<double>(evictions),
              "count", cells);
  outcome.Add("core.invalidations_generated",
              static_cast<double>(invalidations), "count",
              Count(writes, "writes"));
  outcome.Add("core.invalidations_per_write",
              Ratio(invalidations, fan_out_writes), "inv/write",
              Count(fan_out_writes, "writes under invalidation"));
  outcome.Add("core.sitelist_entries", static_cast<double>(sitelist), "count",
              "end of run, " + cells);
  outcome.Add("net.messages_per_request", Ratio(messages, req), "msgs/req",
              per_request);
  outcome.Add("net.bytes_per_request", Ratio(bytes, req), "B/req",
              per_request);
  outcome.Add("obs.events_per_request", Ratio(trace_events, req),
              "events/req", Count(trace_events, "events"));
  outcome.Add("obs.tracing_overhead_pct",
              100.0 * (pass.traced_span_s - pass.untraced_span_s) /
                  pass.untraced_span_s,
              "%", "traced vs untraced call span");
}

void AddDriverMetrics(const LayerTotals& totals, Outcome& outcome) {
  outcome.Add("sim.ns_per_event", PerOp(totals.sim.ns, totals.sim.count),
              "ns", Count(totals.sim.count, "driver events"));
  outcome.Add("http.cache_lookups", static_cast<double>(totals.http.lookups),
              "count",
              "http driver's ProxyCache::Lookup calls, one per request of "
              "the driven stream");
  outcome.Add("http.cache_ns_per_op", PerOp(totals.http.ns, totals.http.ops),
              "ns", Count(totals.http.ops, "lookup/insert/erase"));
  outcome.Add("core.register_ns_per_op",
              PerOp(totals.core.register_ns, totals.core.registers), "ns",
              Count(totals.core.registers, "registrations"));
  outcome.Add("core.fanout_ns_per_site",
              PerOp(totals.core.write_ns, totals.core.invalidations), "ns",
              Count(totals.core.invalidations, "invalidations"));
  outcome.Add("core.kernel_ns_per_decision",
              PerOp(totals.http.decision_ns, totals.http.decisions), "ns",
              Count(totals.http.decisions, "OnHit"));
  outcome.Add("net.codec_ns_per_msg", PerOp(totals.net.ns, totals.net.count),
              "ns", Count(totals.net.count, "encode+decode"));
  outcome.Add("obs.emit_ns_per_event", PerOp(totals.obs.ns, totals.obs.count),
              "ns", Count(totals.obs.count, "events"));
}

}  // namespace webcc::benchmark
