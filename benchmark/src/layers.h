// Layer drivers and per-layer metric assembly for the traced run.
//
// Each driver feeds a workload's own request and write stream (inputs.h's
// Op stream) through one layer's public API and times it from outside:
//
//   sim   Simulator::At / Step
//   http  ProxyCache::Lookup / Insert / EraseByUrl
//   core  Accelerator::HandleRequest (site registration) and HandleNotify
//         (detection + fan-out), plus ConsistencyPolicy::OnHit
//   net   wire EncodeLine / DecodeLine
//   obs   JsonlTraceSink::Emit
//
// These are isolated costs of each layer on the real input streams, not
// self time inside RunReplay: the replay interleaves the layers with its
// own bookkeeping, which the drivers leave out. Counts (events, hits,
// invalidations) come from the replays' MetricsRegistry and TraceSink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "replay/metrics.h"
#include "trace/record.h"

namespace webcc::benchmark {

// A TraceSink that counts every event and keeps the first `keep` of them
// (strings copied) so the obs driver can re-emit real events.
class RecordingSink final : public obs::TraceSink {
 public:
  struct Owned {
    obs::TraceEvent event;
    std::string url;
    std::string site;
    std::string label;
  };

  explicit RecordingSink(std::size_t keep = 10000) : keep_(keep) {}

  void Emit(const obs::TraceEvent& event) override;
  void WriteRaw(std::string_view) override {}

  std::uint64_t events() const { return events_; }
  const std::vector<Owned>& kept() const { return kept_; }

 private:
  std::size_t keep_;
  std::uint64_t events_ = 0;
  std::vector<Owned> kept_;
};

struct CoreResult {
  std::int64_t register_ns = 0;
  std::uint64_t registers = 0;
  // Host time of the writes' server-side path: DocumentStore::Touch plus
  // Accelerator::HandleNotify (detection and INVALIDATE generation).
  std::int64_t write_ns = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t sitelist_entries = 0;  // table size after the stream

  void Merge(const CoreResult& other);
};

// Replays `ops` against one accelerator: every request registers its site,
// every write is touched and checked in.
CoreResult DriveCore(const trace::Trace& trace, const std::vector<Op>& ops);

struct HttpResult {
  std::uint64_t lookups = 0;
  std::uint64_t ops = 0;  // lookups + inserts + erases
  std::int64_t ns = 0;
  std::uint64_t decisions = 0;  // OnHit calls
  std::int64_t decision_ns = 0;

  void Merge(const HttpResult& other);
};

// Per-client proxy caches split across `pseudo_clients` as the replay does
// (client mod N, keys namespaced per real client); a write erases every
// copy of its URL. Each hit's entry is then judged by the invalidation
// policy's OnHit, timed separately.
HttpResult DriveHttp(const trace::Trace& trace, const std::vector<Op>& ops,
                     std::uint32_t pseudo_clients, std::uint64_t cache_bytes);

struct CountedNs {
  std::uint64_t count = 0;
  std::int64_t ns = 0;
  void Merge(const CountedNs& other) {
    count += other.count;
    ns += other.ns;
  }
};

// One event per op plus a reply event per request, scheduled lock-step
// interval by interval and stepped through. count = events executed.
CountedNs DriveSim(const std::vector<Op>& ops, Time interval);

// Encodes and decodes a GET and its 200 per request and an INVALIDATE per
// write. count = messages.
CountedNs DriveNet(const trace::Trace& trace, const std::vector<Op>& ops);

// Re-emits every kept event of `sinks` into one JsonlTraceSink.
CountedNs DriveObs(const std::vector<const RecordingSink*>& sinks);

// All five drivers over one stream, summed across streams by the caller.
struct LayerTotals {
  CoreResult core;
  HttpResult http;
  CountedNs sim;
  CountedNs net;
  CountedNs obs;
};

void DriveLayers(const trace::Trace& trace, const std::vector<Op>& ops,
                 std::uint32_t pseudo_clients, std::uint64_t cache_bytes,
                 LayerTotals& totals);

// --- metric assembly --------------------------------------------------------

// A traced replay pass over a set of cells: the untraced run's results and
// call span, and the traced run's registries and sinks.
struct ReplayPass {
  std::vector<replay::ReplayMetrics> untraced;
  std::vector<replay::ReplayMetrics> traced;
  std::vector<const obs::MetricsRegistry*> registries;
  std::vector<const RecordingSink*> sinks;
  double untraced_span_s = 0.0;
  double traced_span_s = 0.0;
  unsigned workers = 1;
};

// replay.*, sim.* counts, http.* hit and eviction counts, core.* counts, net.* per-request
// ratios and obs.* from the pass; checks that every traced cell is
// SameSimulation with its untraced twin.
void AddReplayLayerMetrics(const ReplayPass& pass, Outcome& outcome);

// The drivers' ns-per-op figures and http.cache_lookups, the Lookup calls
// the http driver made (ProxyCache keeps no lookup counter of its own).
void AddDriverMetrics(const LayerTotals& totals, Outcome& outcome);

}  // namespace webcc::benchmark
