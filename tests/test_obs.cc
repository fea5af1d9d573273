// Tests for the webcc::obs observability layer: JSONL sink format and
// interning, the metrics registry, the trace reader, the farm's
// deterministic trace merge, and the event/counter reconciliation
// identities against ReplayMetrics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace webcc::obs {
namespace {

// --- event taxonomy ---------------------------------------------------------------

TEST(EventNames, RoundTripEveryType) {
  for (int t = 0; t <= static_cast<int>(EventType::kJournalRebuild); ++t) {
    const auto type = static_cast<EventType>(t);
    const std::string_view name = EventTypeName(type);
    ASSERT_FALSE(name.empty());
    EventType back;
    ASSERT_TRUE(ParseEventTypeName(name, back)) << name;
    EXPECT_EQ(back, type);
  }
  EventType unused;
  EXPECT_FALSE(ParseEventTypeName("no_such_event", unused));
  EXPECT_FALSE(ParseEventTypeName("", unused));
}

// --- JSONL sink -------------------------------------------------------------------

TEST(JsonlSink, GoldenFormat) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin, .at = 0, .label = "demo run"});
  sink.Emit({.type = EventType::kGetSent,
             .at = 5,
             .trace_time = 3,
             .url = "/a",
             .site = "c1"});
  sink.Emit({.type = EventType::kImsSent,
             .at = 9,
             .url = "/a",
             .site = "c1",
             .detail = 1});
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"e\":\"run_begin\",\"l\":\"demo run\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
            "{\"e\":\"intern\",\"id\":1,\"n\":\"c1\"}\n"
            "{\"t\":5,\"e\":\"get_sent\",\"tt\":3,\"u\":0,\"s\":1}\n"
            "{\"t\":9,\"e\":\"ims_sent\",\"u\":0,\"s\":1,\"d\":1}\n");
  EXPECT_EQ(sink.events_written(), 3u);
}

TEST(JsonlSink, InternScopeResetsAtRunBegin) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin, .at = 0});
  sink.Emit({.type = EventType::kGetSent, .at = 1, .url = "/a"});
  sink.Emit({.type = EventType::kGetSent, .at = 2, .url = "/a"});
  sink.Emit({.type = EventType::kRunBegin, .at = 0});
  sink.Emit({.type = EventType::kGetSent, .at = 1, .url = "/b"});
  // "/a" interned once (second use reuses the id); the new run restarts the
  // id space so "/b" also gets id 0.
  const std::string text = out.str();
  EXPECT_EQ(text,
            "{\"t\":0,\"e\":\"run_begin\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
            "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n"
            "{\"t\":2,\"e\":\"get_sent\",\"u\":0}\n"
            "{\"t\":0,\"e\":\"run_begin\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/b\"}\n"
            "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n");
  // The concatenation-shaped stream must read back clean.
  std::istringstream in(text);
  const TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.runs, 2u);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.undefined_ids, 0u);
}

TEST(JsonlSink, EscapesLabelStrings) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin,
             .at = 0,
             .label = "quote\" slash\\ tab\t nl\n bell\x07"});
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"e\":\"run_begin\","
            "\"l\":\"quote\\\" slash\\\\ tab\\t nl\\n bell\\u0007\"}\n");
}

TEST(EmitHelper, NullSinkIsANoOp) {
  // The disabled-tracing hot path: a null sink pointer must be safe and
  // side-effect free at every call site.
  Emit(nullptr, {.type = EventType::kGetSent, .at = 1, .url = "/a"});
  NullTraceSink null_sink;
  Emit(&null_sink, {.type = EventType::kGetSent, .at = 1, .url = "/a"});
}

TEST(BufferSink, TakeTextDrainsBuffer) {
  BufferTraceSink sink;
  sink.Emit({.type = EventType::kRunBegin, .at = 7});
  const std::string text = sink.Text();
  EXPECT_EQ(text, "{\"t\":7,\"e\":\"run_begin\"}\n");
  EXPECT_EQ(sink.TakeText(), text);
}

// --- metrics registry -------------------------------------------------------------

TEST(Metrics, CounterPointersAreStable) {
  MetricsRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("a.count");
  counter->Add();
  // Insert enough other names that a non-node-based container would move.
  for (int i = 0; i < 100; ++i) {
    registry.FindOrCreateCounter("filler." + std::to_string(i));
  }
  counter->Add(4);
  EXPECT_EQ(registry.CounterValue("a.count"), 5u);
  EXPECT_EQ(registry.FindOrCreateCounter("a.count"), counter);
}

TEST(Metrics, WriteJsonSortsAcrossKinds) {
  MetricsRegistry registry;
  registry.SetCounter("b.counter", 2);
  registry.SetGauge("a.gauge", 1.5);
  registry.FindOrCreateHistogram("c.hist")->Record(10.0);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"a.gauge\": 1.5,\n"
            "  \"b.counter\": 2,\n"
            "  \"c.hist\": {\"count\":1,\"mean\":10,\"min\":10,\"max\":10,"
            "\"p50\":10,\"p95\":10,\"p99\":10}\n"
            "}\n");
}

TEST(Metrics, MergeFromPrefixesAndAccumulates) {
  MetricsRegistry a;
  a.SetCounter("hits", 3);
  a.SetGauge("util", 0.25);
  a.FindOrCreateHistogram("lat")->Record(1.0);

  MetricsRegistry merged;
  merged.MergeFrom(a, "run1.");
  merged.MergeFrom(a, "run1.");  // counters add, gauges overwrite
  EXPECT_EQ(merged.CounterValue("run1.hits"), 6u);
  EXPECT_EQ(merged.GaugeValue("run1.util"), 0.25);
  EXPECT_EQ(merged.FindOrCreateHistogram("run1.lat")->samples.count(), 2u);
  EXPECT_EQ(merged.CounterValue("hits"), 0u);  // unprefixed name untouched
}

// --- trace reader -----------------------------------------------------------------

TEST(TraceReader, FlagsMalformedUnknownAndUndefined) {
  std::istringstream in(
      "{\"t\":0,\"e\":\"run_begin\"}\n"
      "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
      "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n"
      "{\"t\":2,\"e\":\"get_sent\",\"u\":7}\n"      // id 7 never interned
      "{\"t\":3,\"e\":\"mystery_event\"}\n"          // unknown type
      "this is not json\n"                            // malformed
      "{\"t\":4,\"e\":\"run_end\"}\n");
  const TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.runs, 1u);
  EXPECT_EQ(summary.intern_lines, 1u);
  EXPECT_EQ(summary.total_events, 4u);  // unknown lines are tallied apart
  EXPECT_EQ(summary.unknown_events, 1u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_EQ(summary.undefined_ids, 1u);
  EXPECT_EQ(summary.first_at, 0);
  EXPECT_EQ(summary.last_at, 4);
  EXPECT_EQ(summary.CountOf(EventType::kGetSent), 2u);
}

TEST(TraceReader, SummaryReportMentionsProblems) {
  TraceSummary summary;
  summary.total_events = 3;
  summary.malformed_lines = 2;
  summary.undefined_ids = 1;
  summary.by_type[static_cast<std::size_t>(EventType::kGetSent)] = 3;
  std::ostringstream out;
  WriteTraceSummary(out, summary);
  const std::string report = out.str();
  EXPECT_NE(report.find("get_sent"), std::string::npos);
  EXPECT_NE(report.find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace webcc::obs

namespace webcc::replay {
namespace {

// --- replay integration: farm trace merge + reconciliation --------------------

trace::Trace SmallTrace() {
  trace::WorkloadConfig config = trace::GetPreset(trace::TraceName::kEpa).workload;
  config.total_requests /= 100;
  config.num_documents /= 10;
  config.num_clients /= 10;
  return trace::GenerateTrace(config);
}

std::vector<ReplayConfig> SmallConfigs(const trace::Trace& trace) {
  std::vector<ReplayConfig> configs;
  for (const core::Protocol protocol :
       {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
        core::Protocol::kInvalidation}) {
    configs.push_back(
        MakeReplayConfig(Table3Experiments()[0], protocol, trace));
  }
  return configs;
}

std::string MergedTrace(const std::vector<ReplayConfig>& configs,
                        unsigned workers) {
  obs::BufferTraceSink merged;
  Farm farm(workers);
  farm.set_merged_trace_sink(&merged);
  for (const ReplayConfig& config : configs) farm.Submit(config);
  farm.Collect();
  return merged.TakeText();
}

TEST(FarmTrace, MergeIsBitIdenticalAcrossWorkerCounts) {
  const trace::Trace trace = SmallTrace();
  const auto configs = SmallConfigs(trace);
  const std::string serial = MergedTrace(configs, 1);
  const std::string farmed = MergedTrace(configs, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, farmed);
  // And the merged stream is structurally sound: one run per config, ids
  // always defined (scopes restart at each run_begin).
  std::istringstream in(serial);
  const obs::TraceSummary summary = obs::SummarizeTrace(in);
  EXPECT_EQ(summary.runs, configs.size());
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.undefined_ids, 0u);
  EXPECT_EQ(summary.unknown_events, 0u);
}

TEST(Reconciliation, EventCountsMatchReplayCounters) {
  // The taxonomy's contract: each mirrored event type is emitted at exactly
  // the site that increments its ReplayMetrics counter.
  const trace::Trace trace = SmallTrace();
  for (const core::Protocol protocol :
       {core::Protocol::kAdaptiveTtl, core::Protocol::kInvalidation}) {
    ReplayConfig config =
        MakeReplayConfig(Table3Experiments()[0], protocol, trace);
    obs::BufferTraceSink sink;
    config.trace_sink = &sink;
    const ReplayMetrics m = RunReplay(config);

    std::istringstream in(sink.TakeText());
    const obs::TraceSummary s = obs::SummarizeTrace(in);
    EXPECT_EQ(s.runs, 1u);
    EXPECT_EQ(s.malformed_lines, 0u);
    EXPECT_EQ(s.undefined_ids, 0u);
    EXPECT_EQ(s.CountOf(obs::EventType::kGetSent), m.get_requests);
    EXPECT_EQ(s.CountOf(obs::EventType::kImsSent), m.ims_requests);
    EXPECT_EQ(s.CountOf(obs::EventType::kReply200), m.replies_200);
    EXPECT_EQ(s.CountOf(obs::EventType::kReply304), m.replies_304);
    EXPECT_EQ(s.CountOf(obs::EventType::kStaleHit), m.stale_serves);
    EXPECT_EQ(s.CountOf(obs::EventType::kModification),
              m.modifications_applied);
    EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateGenerated),
              m.invalidations_sent);
    EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateDelivered),
              m.invalidations_delivered);
    EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateRefused) +
                  s.CountOf(obs::EventType::kInvalidateGaveUp),
              m.invalidations_refused);
    EXPECT_EQ(s.CountOf(obs::EventType::kEviction), m.proxy_evictions);
    EXPECT_EQ(s.CountOf(obs::EventType::kRequestTimeout), m.request_timeouts);
    EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateServer), m.invsrv_sent);
    // Every issued request resolves as served or timed out.
    EXPECT_EQ(s.CountOf(obs::EventType::kRequestServed) +
                  s.CountOf(obs::EventType::kRequestTimeout),
              m.requests_issued);
  }
}

TEST(Reconciliation, RegistryExportIsASuperset) {
  const trace::Trace trace = SmallTrace();
  ReplayConfig config = MakeReplayConfig(
      Table3Experiments()[0], core::Protocol::kInvalidation, trace);
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const ReplayMetrics m = RunReplay(config);

  EXPECT_EQ(registry.CounterValue("replay.get_requests"), m.get_requests);
  EXPECT_EQ(registry.CounterValue("replay.ims_requests"), m.ims_requests);
  EXPECT_EQ(registry.CounterValue("replay.replies_200"), m.replies_200);
  EXPECT_EQ(registry.CounterValue("replay.replies_304"), m.replies_304);
  EXPECT_EQ(registry.CounterValue("replay.local_hits"), m.local_hits);
  EXPECT_EQ(registry.CounterValue("replay.cache_hits"), m.cache_hits());
  EXPECT_EQ(registry.CounterValue("replay.requests_issued"),
            m.requests_issued);
  // Component registries ride along under their prefixes.
  EXPECT_EQ(registry.CounterValue("accelerator.requests"),
            m.get_requests + m.ims_requests);
  EXPECT_GT(registry.CounterValue("network.messages_delivered"), 0u);
  // And the dump itself is stable: two identical runs, byte-identical JSON
  // once the one host-timing gauge is masked (the registry's analogue of
  // SameSimulation() excluding host_seconds).
  obs::MetricsRegistry again;
  ReplayConfig config2 = MakeReplayConfig(
      Table3Experiments()[0], core::Protocol::kInvalidation, trace);
  config2.metrics = &again;
  RunReplay(config2);
  registry.SetGauge("replay.host_seconds", 0.0);
  again.SetGauge("replay.host_seconds", 0.0);
  std::ostringstream dump1, dump2;
  registry.WriteJson(dump1);
  again.WriteJson(dump2);
  EXPECT_EQ(dump1.str(), dump2.str());
}

}  // namespace
}  // namespace webcc::replay
