// Integration and property tests for the replay engine.
//
// These bind the full system together: the engine's message counts must
// obey the Table 1 identities and match the core/analysis exact simulators
// on single-client sequences; strong protocols must never violate their
// consistency contract, with or without injected failures; and runs must be
// deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace webcc::replay {
namespace {

using core::Protocol;

trace::Trace SmallTrace(std::uint64_t seed = 5, std::uint64_t requests = 1500) {
  trace::WorkloadConfig config;
  config.duration = 3 * kHour;
  config.total_requests = requests;
  config.num_documents = 120;
  config.num_clients = 60;
  config.seed = seed;
  return trace::GenerateTrace(config);
}

ReplayConfig BaseConfig(const trace::Trace& trace, Protocol protocol) {
  ReplayConfig config;
  config.protocol = protocol;
  config.trace = &trace;
  config.mean_lifetime = 12 * kHour;  // plenty of modifications
  return config;
}

// --- cross-protocol invariants ---------------------------------------------------

class ProtocolTest : public ::testing::TestWithParam<Protocol> {
 protected:
  static const trace::Trace& Trace() {
    static const trace::Trace trace = SmallTrace();
    return trace;
  }
};

TEST_P(ProtocolTest, EveryRequestResolvesExactlyOnce) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.requests_issued, Trace().records.size());
  EXPECT_EQ(metrics.requests_skipped, 0u);
  EXPECT_EQ(metrics.request_timeouts, 0u);
  // Each request ends as a local hit, a validated (304) hit, or a transfer.
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
}

TEST_P(ProtocolTest, RepliesMatchRequests) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.get_requests + metrics.ims_requests,
            metrics.replies_200 + metrics.replies_304);
  // GETs always produce transfers.
  EXPECT_GE(metrics.replies_200, metrics.get_requests);
  // 304s only answer IMS.
  EXPECT_LE(metrics.replies_304, metrics.ims_requests);
}

TEST_P(ProtocolTest, NoStrongViolationsEver) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST_P(ProtocolTest, Deterministic) {
  const ReplayMetrics a = RunReplay(BaseConfig(Trace(), GetParam()));
  const ReplayMetrics b = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(a.get_requests, b.get_requests);
  EXPECT_EQ(a.ims_requests, b.ims_requests);
  EXPECT_EQ(a.replies_200, b.replies_200);
  EXPECT_EQ(a.replies_304, b.replies_304);
  EXPECT_EQ(a.invalidations_sent, b.invalidations_sent);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
  EXPECT_EQ(a.stale_serves, b.stale_serves);
  EXPECT_EQ(a.wall_duration, b.wall_duration);
  EXPECT_DOUBLE_EQ(a.latency_ms.mean(), b.latency_ms.mean());
}

TEST_P(ProtocolTest, ServerLoadAccounted) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_GT(metrics.server_cpu_utilization, 0.0);
  EXPECT_LE(metrics.server_cpu_utilization, 1.0);
  EXPECT_GT(metrics.disk_writes_per_second, 0.0);
  EXPECT_GT(metrics.wall_duration, 0);
}

TEST_P(ProtocolTest, LatencyRecordedPerRequest) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.latency_ms.count(), metrics.requests_issued);
  EXPECT_GT(metrics.latency_ms.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolTest,
                         ::testing::Values(Protocol::kAdaptiveTtl,
                                           Protocol::kPollEveryTime,
                                           Protocol::kInvalidation),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           switch (info.param) {
                             case Protocol::kAdaptiveTtl:
                               return "AdaptiveTtl";
                             case Protocol::kPollEveryTime:
                               return "PollEveryTime";
                             case Protocol::kInvalidation:
                               return "Invalidation";
                           }
                           return "Unknown";
                         });

// --- protocol-specific behaviour -----------------------------------------------------

TEST(ReplayPolling, NeverServesLocally) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kPollEveryTime));
  EXPECT_EQ(metrics.local_hits, 0u);
  EXPECT_EQ(metrics.stale_serves, 0u);
  // Every request goes to the server.
  EXPECT_EQ(metrics.get_requests + metrics.ims_requests,
            metrics.requests_issued);
}

TEST(ReplayInvalidation, NoImsWithoutLeasesOrFailures) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_EQ(metrics.ims_requests, 0u);
  EXPECT_EQ(metrics.replies_304, 0u);
  EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight);
}

TEST(ReplayInvalidation, InvalidationsDelivered) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_GT(metrics.invalidations_sent, 0u);
  EXPECT_EQ(metrics.invalidations_delivered, metrics.invalidations_sent);
  EXPECT_EQ(metrics.invalidations_refused, 0u);
}

TEST(ReplayInvalidation, SerializedSendsInflateWorstCaseLatency) {
  const trace::Trace trace = SmallTrace(/*seed=*/6, /*requests=*/3000);
  ReplayConfig serialized = BaseConfig(trace, Protocol::kInvalidation);
  serialized.mean_lifetime = 6 * kHour;
  // Amplify the per-message send cost so the fan-out dominates the worst
  // case the way the big traces' thousand-site lists do.
  serialized.server_costs.invalidation_send_cpu = 200 * kMillisecond;
  ReplayConfig decoupled = serialized;
  decoupled.serialized_invalidation = false;
  const ReplayMetrics with_blocking = RunReplay(serialized);
  const ReplayMetrics without_blocking = RunReplay(decoupled);
  // The paper's prototype artifact: fan-out blocks request handling.
  EXPECT_GT(with_blocking.latency_ms.max(),
            without_blocking.latency_ms.max());
  // Decoupling leaves the traffic itself unchanged.
  EXPECT_EQ(with_blocking.invalidations_sent,
            without_blocking.invalidations_sent);
  EXPECT_EQ(with_blocking.replies_200, without_blocking.replies_200);
}

TEST(ReplayAdaptiveTtl, StaleHitsHappenUnderShortLifetimes) {
  const trace::Trace trace = SmallTrace(/*seed=*/7, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.mean_lifetime = 2 * kHour;  // aggressive modification rate
  config.fixed_initial_age = 30 * kDay;  // long TTLs -> stale windows
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.stale_serves, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);  // weak protocol: not checked
}

TEST(ReplayAdaptiveTtl, ValidationsProduce304s) {
  const trace::Trace trace = SmallTrace(/*seed=*/8, /*requests=*/2500);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.fixed_initial_age = kHour;  // young docs: short TTLs, many misses
  config.ttl.min_ttl = kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.ims_requests, 0u);
  EXPECT_EQ(metrics.validated_hits, metrics.replies_304);
}

TEST(ReplayPollingVsInvalidation, PollingSendsMoreMessages) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics polling =
      RunReplay(BaseConfig(trace, Protocol::kPollEveryTime));
  const ReplayMetrics invalidation =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_GT(polling.total_messages(), invalidation.total_messages());
  // ...but similar bytes (transfers dominate), within 5%.
  EXPECT_NEAR(static_cast<double>(polling.message_bytes),
              static_cast<double>(invalidation.message_bytes),
              0.05 * static_cast<double>(invalidation.message_bytes));
}

TEST(ReplayInvalidation, HighModificationRateStillNoViolations) {
  // Minute-scale lifetimes put many modifications inside every lock-step
  // interval, exercising the touch -> notify -> fan-out -> delivery window
  // under maximal interleaving with client requests.
  const trace::Trace trace = SmallTrace(/*seed=*/21, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 10 * kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.modifications_applied, 1000u);
  EXPECT_GT(metrics.invalidations_sent, 100u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight);
}

TEST(ReplayInvalidation, DecoupledModeAlsoViolationFree) {
  const trace::Trace trace = SmallTrace(/*seed=*/22, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 20 * kMinute;
  config.serialized_invalidation = false;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.invalidations_delivered, metrics.invalidations_sent);
}

TEST(ReplayNetwork, WanProfileRaisesLatencyNotCounts) {
  const trace::Trace trace = SmallTrace(/*seed=*/23);
  ReplayConfig lan = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig wan = lan;
  wan.network = sim::NetworkConfig::Wan();
  const ReplayMetrics lan_run = RunReplay(lan);
  const ReplayMetrics wan_run = RunReplay(wan);
  EXPECT_GT(wan_run.latency_ms.mean(), lan_run.latency_ms.mean());
  // Same-interval wall-order races shift a handful of messages (the
  // paper's lock-step testbed behaves identically); counts agree to <1%.
  EXPECT_NEAR(static_cast<double>(wan_run.total_messages()),
              static_cast<double>(lan_run.total_messages()),
              0.01 * static_cast<double>(lan_run.total_messages()));
  EXPECT_EQ(wan_run.strong_violations, 0u);
}

TEST(ReplayClients, PseudoClientCountDoesNotChangeTraffic) {
  // The paper's 4-pseudo-client split is an artifact of the testbed; the
  // message counts must be invariant to it (caches are per real client).
  const trace::Trace trace = SmallTrace(/*seed=*/24);
  ReplayConfig four = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig eight = four;
  eight.num_pseudo_clients = 8;
  const ReplayMetrics a = RunReplay(four);
  const ReplayMetrics b = RunReplay(eight);
  // Identical up to same-interval wall-order races (<1%).
  EXPECT_NEAR(static_cast<double>(a.replies_200),
              static_cast<double>(b.replies_200),
              0.01 * static_cast<double>(a.replies_200));
  EXPECT_NEAR(static_cast<double>(a.invalidations_sent),
              static_cast<double>(b.invalidations_sent),
              1.0 + 0.02 * static_cast<double>(a.invalidations_sent));
  EXPECT_EQ(a.strong_violations + b.strong_violations, 0u);
}

TEST(ReplaySharedProxy, SharingRaisesHitsAndShrinksState) {
  const trace::Trace trace = SmallTrace(/*seed=*/25, /*requests=*/4000);
  ReplayConfig per_client = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig shared = per_client;
  shared.shared_proxy_cache = true;
  const ReplayMetrics separate = RunReplay(per_client);
  const ReplayMetrics merged = RunReplay(shared);
  EXPECT_GT(merged.cache_hits(), separate.cache_hits());
  EXPECT_LT(merged.replies_200, separate.replies_200);
  EXPECT_LT(merged.sitelist_entries, separate.sitelist_entries);
  EXPECT_EQ(merged.strong_violations, 0u);
  // One site per proxy: lists can never exceed the proxy count.
  EXPECT_LE(merged.sitelist_max_len_end, 4u);
}

TEST(ReplaySharedProxy, AllProtocolsStayConsistent) {
  const trace::Trace trace = SmallTrace(/*seed=*/26);
  for (const Protocol protocol :
       {Protocol::kAdaptiveTtl, Protocol::kPollEveryTime,
        Protocol::kInvalidation}) {
    ReplayConfig config = BaseConfig(trace, protocol);
    config.shared_proxy_cache = true;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u);
    EXPECT_EQ(metrics.local_hits + metrics.validated_hits +
                  metrics.replies_200,
              metrics.requests_issued);
  }
}

// --- hierarchy (Worrell configuration) -------------------------------------------------

TEST(ReplayHierarchy, RequestsResolveAndConsistencyHolds) {
  const trace::Trace trace = SmallTrace(/*seed=*/27, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
  EXPECT_EQ(metrics.request_timeouts, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_GT(metrics.parent_hits, 0u);
  EXPECT_GT(metrics.parent_fetches, 0u);
}

TEST(ReplayHierarchy, ServerInvalidatesOnlyTheParent) {
  const trace::Trace trace = SmallTrace(/*seed=*/28, /*requests=*/4000);
  ReplayConfig flat = BaseConfig(trace, Protocol::kInvalidation);
  flat.mean_lifetime = 4 * kHour;
  ReplayConfig hier = flat;
  hier.hierarchical = true;
  const ReplayMetrics flat_run = RunReplay(flat);
  const ReplayMetrics hier_run = RunReplay(hier);
  // At most one server-sent invalidation per modification.
  EXPECT_LE(hier_run.invalidations_sent, hier_run.modifications_applied);
  EXPECT_LT(hier_run.invalidations_sent, flat_run.invalidations_sent);
  // The parent absorbs cross-client fetches: far fewer server transfers.
  EXPECT_LT(hier_run.parent_fetches, flat_run.replies_200);
  EXPECT_LT(hier_run.server_cpu_utilization, flat_run.server_cpu_utilization);
  // Forwards reach the interested leaves only.
  EXPECT_LE(hier_run.hierarchy_forwards,
            hier_run.invalidations_sent * 4);
  EXPECT_EQ(hier_run.strong_violations, 0u);
}

TEST(ReplayHierarchy, DeterministicAndStaleOnlyInFlight) {
  const trace::Trace trace = SmallTrace(/*seed=*/29, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  config.mean_lifetime = 2 * kHour;  // heavy modification traffic
  const ReplayMetrics a = RunReplay(config);
  const ReplayMetrics b = RunReplay(config);
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.parent_hits, b.parent_hits);
  EXPECT_EQ(a.strong_violations, 0u);
  EXPECT_EQ(a.stale_serves, a.stale_while_invalidation_in_flight);
}

// Tallies the sites invalidation deliveries address, and keeps the whole
// JSONL stream for a digest.
class DeliverySiteSink final : public obs::TraceSink {
 public:
  void Emit(const obs::TraceEvent& event) override {
    buffer_.Emit(event);
    if (event.type != obs::EventType::kInvalidateDelivered) return;
    if (event.site.rfind("proxy-", 0) == 0) ++to_proxy_sites;
    if (event.site == "parent") ++to_parent;
    if (event.site.rfind("leaf-", 0) == 0) ++to_leaf_names;
  }
  void WriteRaw(std::string_view jsonl) override { buffer_.WriteRaw(jsonl); }
  std::uint64_t Digest() const { return obs::DigestJsonl(buffer_.Text()); }

  std::uint64_t to_proxy_sites = 0;
  std::uint64_t to_parent = 0;
  std::uint64_t to_leaf_names = 0;

 private:
  obs::BufferTraceSink buffer_;
};

TEST(ReplayHierarchy, LeafForwardsAddressProxySitesPinned) {
  // The parent's interest table keys on each leaf's proxy site, so every
  // forward is addressed (in its bytes and its events) to "proxy-<index>".
  // Pins the run's byte count and event stream, so any drift in how
  // forwards are named, sized or ordered shows up here.
  const trace::Trace trace = SmallTrace(/*seed=*/29, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  config.mean_lifetime = 2 * kHour;
  DeliverySiteSink sink;
  config.trace_sink = &sink;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(sink.to_leaf_names, 0u);
  EXPECT_EQ(sink.to_proxy_sites, metrics.hierarchy_forwards);
  EXPECT_EQ(sink.to_parent + sink.to_proxy_sites,
            metrics.invalidations_delivered);
  EXPECT_EQ(metrics.hierarchy_forwards, 351u);
  EXPECT_EQ(metrics.message_bytes, 21968427u);
  EXPECT_EQ(sink.Digest(), 5211911277328473339u);
}

// --- conformance with the analytic model ----------------------------------------------

// Builds a single-client single-document trace plus explicit modification
// schedule from an "rrmmr" sequence, spacing events two lock-step intervals
// apart so replay ordering matches sequence ordering exactly.
struct SequenceFixture {
  trace::Trace trace;
  std::vector<trace::ModEvent> modifications;
};

SequenceFixture MakeSequenceFixture(const std::string& sequence) {
  constexpr Time kSpacing = 15 * kMinute;
  SequenceFixture fixture;
  fixture.trace.name = "seq";
  fixture.trace.duration =
      kSpacing * static_cast<Time>(sequence.size() + 1);
  fixture.trace.documents = {{"/doc", 4096}};
  fixture.trace.clients = {"c0"};
  Time at = kSpacing;
  for (char c : sequence) {
    if (c == 'r') {
      fixture.trace.records.push_back(trace::TraceRecord{at, 0, 0});
    } else {
      fixture.modifications.push_back(trace::ModEvent{at, 0});
    }
    at += kSpacing;
  }
  return fixture;
}

class SequenceConformanceTest : public ::testing::TestWithParam<int> {};

TEST_P(SequenceConformanceTest, ReplayMatchesExactSimulators) {
  util::Rng rng(GetParam());
  std::string sequence;
  for (int i = 0; i < 40; ++i) sequence += rng.NextBool(0.7) ? 'r' : 'm';

  const SequenceFixture fixture = MakeSequenceFixture(sequence);
  const auto events = core::ParseSequence(sequence, 15 * kMinute);

  // Polling.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kPollEveryTime);
    config.explicit_modifications = fixture.modifications;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected =
        core::SimulatePollingSequence(events);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.ims_requests, expected.ims) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.replies_304, expected.replies_304) << sequence;
  }

  // Invalidation.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kInvalidation);
    config.explicit_modifications = fixture.modifications;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected =
        core::SimulateInvalidationSequence(events);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.invalidations_sent, expected.invalidations) << sequence;
    EXPECT_EQ(metrics.strong_violations, 0u) << sequence;
  }

  // Adaptive TTL, with the initial age pinned so both sides agree.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kAdaptiveTtl);
    config.explicit_modifications = fixture.modifications;
    config.fixed_initial_age = 10 * kDay;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected = core::SimulateAdaptiveTtlSequence(
        events, config.ttl, -10 * kDay);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.ims_requests, expected.ims) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.replies_304, expected.replies_304) << sequence;
    EXPECT_EQ(metrics.stale_serves, expected.stale_hits) << sequence;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceConformanceTest,
                         ::testing::Range(100, 115));

// --- leases ------------------------------------------------------------------------------

TEST(ReplayLease, FixedLeaseBoundsSiteLists) {
  const trace::Trace trace = SmallTrace(/*seed=*/9, /*requests=*/3000);
  ReplayConfig unbounded = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig leased = unbounded;
  leased.lease.mode = core::LeaseMode::kFixed;
  leased.lease.duration = 30 * kMinute;
  const ReplayMetrics without = RunReplay(unbounded);
  const ReplayMetrics with = RunReplay(leased);
  EXPECT_LT(with.sitelist_entries, without.sitelist_entries);
  EXPECT_LT(with.sitelist_storage_bytes, without.sitelist_storage_bytes);
  // Expired leaseholders revalidate instead of trusting their copy.
  EXPECT_GT(with.lease_renewal_ims, 0u);
  EXPECT_EQ(with.strong_violations, 0u);
}

TEST(ReplayLease, TwoTierFiltersOneTimeViewers) {
  const trace::Trace trace = SmallTrace(/*seed=*/10, /*requests=*/3000);
  ReplayConfig simple = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig two_tier = simple;
  two_tier.lease.mode = core::LeaseMode::kTwoTier;
  two_tier.lease.duration = trace.duration;  // generous regular lease
  two_tier.lease.short_duration = 0;
  const ReplayMetrics without = RunReplay(simple);
  const ReplayMetrics with = RunReplay(two_tier);
  // Only repeat viewers occupy the table; one-time GETs are filtered.
  EXPECT_LT(with.sitelist_entries, without.sitelist_entries);
  // The cost: one extra IMS per repeat viewer's second request.
  EXPECT_GT(with.ims_requests, 0u);
  EXPECT_EQ(with.strong_violations, 0u);
  // Invalidation traffic can only shrink.
  EXPECT_LE(with.invalidations_sent, without.invalidations_sent);
}

// --- failure injection ---------------------------------------------------------------------

TEST(ReplayFailure, ProxyCrashSkipsAndRecoversQuestionable) {
  const trace::Trace trace = SmallTrace(/*seed=*/11, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.failures = {
      {trace.duration / 4, FailureKind::kProxyCrash, 0},
      {trace.duration / 2, FailureKind::kProxyRecover, 0},
  };
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.requests_skipped, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  // The recovered proxy revalidates its questionable entries.
  EXPECT_GT(metrics.ims_requests, 0u);
}

TEST(ReplayFailure, InvalidationToDeadProxyRefusedNotRetried) {
  const trace::Trace trace = SmallTrace(/*seed=*/12, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 3 * kHour;
  config.failures = {
      {trace.duration / 4, FailureKind::kProxyCrash, 1},
      {3 * trace.duration / 4, FailureKind::kProxyRecover, 1},
  };
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.invalidations_refused, 0u);
  EXPECT_EQ(metrics.invalidations_delivered + metrics.invalidations_refused,
            metrics.invalidations_sent);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, ServerCrashCausesTimeoutsRecoverySendsInvsrv) {
  const trace::Trace trace = SmallTrace(/*seed=*/13, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.client_costs.request_timeout = 5 * kSecond;
  // The paper's blanket recovery broadcast (journal-less).
  config.journaled_recovery = false;
  config.failures = {
      {trace.duration / 4, FailureKind::kServerCrash, 0},
      {trace.duration / 2, FailureKind::kServerRecover, 0},
  };
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.request_timeouts, 0u);
  EXPECT_GT(metrics.invsrv_sent, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, JournaledRecoverySendsTargetedInvalidations) {
  const trace::Trace trace = SmallTrace(/*seed=*/13, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.client_costs.request_timeout = 5 * kSecond;
  config.failures = {
      {trace.duration / 4, FailureKind::kServerCrash, 0},
      {trace.duration / 2, FailureKind::kServerRecover, 0},
  };
  const ReplayMetrics metrics = RunReplay(config);
  // The write-ahead journal replaces the blanket INVSRV broadcast with
  // targeted invalidations for documents modified during the downtime.
  EXPECT_EQ(metrics.invsrv_sent, 0u);
  EXPECT_EQ(metrics.journal_rebuilds, 1u);
  EXPECT_EQ(metrics.journal_damaged_recoveries, 0u);
  EXPECT_GT(metrics.recovery_invalidations_sent, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, JournaledAndBroadcastRecoveryBothUpholdStrong) {
  // Identical scenario either way: neither recovery flavour may violate
  // strong consistency, and both must complete every write eventually.
  for (const bool journaled : {false, true}) {
    const trace::Trace trace = SmallTrace(/*seed=*/21, /*requests=*/2500);
    ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
    config.client_costs.request_timeout = 5 * kSecond;
    config.journaled_recovery = journaled;
    config.failures = {
        {trace.duration / 3, FailureKind::kServerCrash, 0},
        {trace.duration / 3 + 30 * kMinute, FailureKind::kServerRecover, 0},
    };
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u) << "journaled=" << journaled;
  }
}

TEST(ReplayFailure, PartitionRetriesDeliverAfterHeal) {
  const trace::Trace trace = SmallTrace(/*seed=*/14, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 3 * kHour;
  config.client_costs.request_timeout = 5 * kSecond;
  config.failures = {
      {trace.duration / 4, FailureKind::kPartition, 0},
      {trace.duration / 4 + 20 * kMinute, FailureKind::kHeal, 0},
  };
  const ReplayMetrics metrics = RunReplay(config);
  // Everything eventually lands; stale serves during the partition are
  // in-contract (the write has not completed).
  EXPECT_EQ(metrics.invalidations_delivered + metrics.invalidations_refused,
            metrics.invalidations_sent);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

// --- cache pressure ---------------------------------------------------------------------------

TEST(ReplayCache, PressureCausesEvictionsButNoViolations) {
  const trace::Trace trace = SmallTrace(/*seed=*/15, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.proxy_cache_bytes = 64 * 1024;  // severe pressure
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.proxy_evictions, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
}

TEST(ReplayCache, ExpiredFirstEvictsUnderTtl) {
  const trace::Trace trace = SmallTrace(/*seed=*/16, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.proxy_cache_bytes = 256 * 1024;
  config.fixed_initial_age = 2 * kHour;  // short TTLs expire during the run
  config.ttl.min_ttl = kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.proxy_expired_evictions, 0u);
}

}  // namespace
}  // namespace webcc::replay
