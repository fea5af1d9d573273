// Differential harness: the replay engine and the live (real-TCP) stack
// must make identical consistency decisions, because both dispatch through
// the core/consistency kernel.
//
// One scripted request/write sequence is driven through (a) a replay of an
// equivalent synthetic trace and (b) a localhost LiveServer + LiveProxy
// pair, for every protocol × lease mode. Both runs record their structured
// trace events; after normalizing away the things that legitimately differ
// (clock values, the live stack's "@port" client-id suffix, timing-only
// event types), the two decision traces must be event-for-event identical,
// and the counters both stacks expose under shared meanings must agree.
//
// The script pins one step per replay lockstep interval so the global event
// order in the simulator matches the sequential order of the live script,
// and the TTL configurations are chosen so that trace-time and wall-time
// decisions coincide (script spans ≪ min_ttl, or ttl == 0 for PCV).
// Both stacks honor WEBCC_TEST_SHARDS (default 1): the CI shard-sweep job
// re-runs this whole suite with the accelerator split across several
// consistent-hashed shards, asserting the decision trace is shard-count
// invariant by construction, not by luck.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "live/live_proxy.h"
#include "live/live_server.h"
#include "obs/event.h"
#include "obs/trace_sink.h"
#include "replay/config.h"
#include "replay/engine.h"
#include "trace/record.h"

namespace webcc {
namespace {

using core::LeaseMode;
using core::Protocol;
using http::eviction::EvictionPolicyKind;

// --- normalized decision events ---------------------------------------------

struct NormEvent {
  obs::EventType type = obs::EventType::kRunBegin;
  std::string url;
  std::string site;
  std::int64_t detail = 0;

  bool operator==(const NormEvent& other) const {
    return type == other.type && url == other.url && site == other.site &&
           detail == other.detail;
  }
};

std::ostream& operator<<(std::ostream& out, const NormEvent& event) {
  return out << obs::EventTypeName(event.type) << " url=" << event.url
             << " site=" << event.site << " detail=" << event.detail;
}

// Strips the live stack's "@port" callback suffix so sites compare equal to
// the replay's bare client names. Only an all-digit suffix is stripped —
// a client name containing '@' stays intact.
std::string StripCallbackPort(std::string_view site) {
  const std::size_t at = site.rfind('@');
  if (at == std::string_view::npos || at + 1 == site.size()) {
    return std::string(site);
  }
  for (std::size_t i = at + 1; i < site.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(site[i])) == 0) {
      return std::string(site);
    }
  }
  return std::string(site.substr(0, at));
}

// Records the protocol-decision subset of the event stream in arrival
// order, plus cache evictions: given identical request sequences both
// stacks must pick identical victims (the proxy cache's decisions are
// clock-independent under the script's TTL configurations). Purely
// timing-dependent types (stale-serve accounting, run framing, lease-expiry
// pruning) stay excluded: they either exist in only one stack or depend on
// clock values.
class RecordingSink final : public obs::TraceSink {
 public:
  void Emit(const obs::TraceEvent& event) override {
    std::int64_t detail = 0;
    switch (event.type) {
      case obs::EventType::kImsSent:        // lease_renewal flag
      case obs::EventType::kRequestServed:  // ServeKind
      case obs::EventType::kEviction:       // victim rule / tier detail code
        detail = event.detail;
        break;
      case obs::EventType::kGetSent:
      case obs::EventType::kReply200:
      case obs::EventType::kReply304:
      case obs::EventType::kLeaseGrant:  // detail is a clock value: dropped
      case obs::EventType::kNotify:
      case obs::EventType::kInvalidateGenerated:
      case obs::EventType::kInvalidateDelivered:
      case obs::EventType::kModification:
        break;
      default:
        return;
    }
    const std::scoped_lock lock(mu_);
    events_.push_back(NormEvent{event.type, std::string(event.url),
                                StripCallbackPort(event.site), detail});
  }
  void WriteRaw(std::string_view) override {}

  std::vector<NormEvent> Take() {
    const std::scoped_lock lock(mu_);
    return std::move(events_);
  }

 private:
  std::mutex mu_;
  std::vector<NormEvent> events_;
};

// Accelerator shard count for both stacks, from WEBCC_TEST_SHARDS.
std::uint32_t TestShards() {
  const char* env = std::getenv("WEBCC_TEST_SHARDS");
  if (env == nullptr) return 1;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<std::uint32_t>(value) : 1;
}

// --- the scripted sequence ---------------------------------------------------

struct Combo {
  Protocol protocol;
  LeaseMode lease;
  EvictionPolicyKind policy = EvictionPolicyKind::kExpiredFirstLru;
  // 0 keeps each stack's roomy default (no eviction pressure); the
  // eviction combos shrink it below kSizeA + kSizeB so every policy has
  // victims to choose.
  std::uint64_t cache_bytes = 0;
  bool tiered = false;

  http::TierConfig tier() const {
    http::TierConfig tier;
    if (tiered) {
      tier.tier2_capacity_bytes = 70000;  // holds one /b plus an /a
      tier.promotion_hits = 2;
    }
    return tier;
  }
};

struct Step {
  enum Kind { kFetch, kTouch };
  Kind kind;
  const char* client;  // kFetch only
  const char* url;
};

// Exercises: cold miss, repeat hit, per-client namespacing, a write with
// (protocol-dependent) fan-out, post-write refetch, a second document whose
// fetch carries the PCV/PSI piggybacks, and a second write.
constexpr Step kScript[] = {
    {Step::kFetch, "alice", "/a"}, {Step::kFetch, "alice", "/a"},
    {Step::kFetch, "bob", "/a"},   {Step::kTouch, nullptr, "/a"},
    {Step::kFetch, "alice", "/a"}, {Step::kFetch, "alice", "/b"},
    {Step::kFetch, "bob", "/a"},   {Step::kTouch, nullptr, "/b"},
    {Step::kFetch, "alice", "/b"}, {Step::kFetch, "bob", "/b"},
    {Step::kFetch, "alice", "/a"},
};

constexpr std::uint64_t kSizeA = 4096;
constexpr std::uint64_t kSizeB = 65536;

// TTL configuration under which trace-time (replay) and wall-time (live)
// decisions coincide: the whole script spans far less than min_ttl, so a
// TTL-governed copy is fresh in both stacks — except for PCV, which runs
// with ttl == 0 so every copy immediately becomes a piggyback candidate in
// both stacks.
core::AdaptiveTtlConfig TtlFor(Protocol protocol) {
  core::AdaptiveTtlConfig ttl;
  if (protocol == Protocol::kPiggybackValidation) {
    ttl.factor = 0.0;
    ttl.min_ttl = 0;
  } else {
    ttl.min_ttl = kHour;
  }
  return ttl;
}

// Leases long against the script (fixed / two-tier regular tier) or
// instantly lapsing (two-tier GET tier), so both clocks agree on every
// active/expired judgement.
core::LeaseConfig LeaseFor(LeaseMode mode) {
  core::LeaseConfig lease;
  lease.mode = mode;
  lease.duration = kHour;
  lease.short_duration = 0;
  return lease;
}

// Counters both stacks expose under shared meanings: INVALIDATEs applied at
// the proxy, PCV copies dropped on an invalid verdict, copies purged by PSI
// notices, and replies the server sent.
struct Counters {
  std::uint64_t invalidations_delivered = 0;
  std::uint64_t pcv_invalidated = 0;
  std::uint64_t psi_entries_erased = 0;
  std::uint64_t replies = 0;

  bool operator==(const Counters& other) const {
    return invalidations_delivered == other.invalidations_delivered &&
           pcv_invalidated == other.pcv_invalidated &&
           psi_entries_erased == other.psi_entries_erased &&
           replies == other.replies;
  }
};

std::ostream& operator<<(std::ostream& out, const Counters& counters) {
  return out << "invalidations_delivered=" << counters.invalidations_delivered
             << " pcv_invalidated=" << counters.pcv_invalidated
             << " psi_entries_erased=" << counters.psi_entries_erased
             << " replies=" << counters.replies;
}

struct StackRun {
  std::vector<NormEvent> events;
  Counters counters;
};

// --- live run ----------------------------------------------------------------

template <typename Predicate>
bool WaitFor(Predicate predicate,
             std::chrono::milliseconds budget = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

StackRun RunLive(const Combo& combo) {
  const Protocol protocol = combo.protocol;
  RecordingSink sink;

  live::LiveServer::Options server_options;
  server_options.protocol = protocol;
  server_options.lease = LeaseFor(combo.lease);
  server_options.shards = TestShards();
  server_options.trace_sink = &sink;
  live::LiveServer server(server_options);
  EXPECT_TRUE(server.Start());
  server.AddDocument("/a", kSizeA);
  server.AddDocument("/b", kSizeB);

  live::LiveProxy::Options proxy_options;
  proxy_options.server_port = server.port();
  proxy_options.protocol = protocol;
  proxy_options.ttl = TtlFor(protocol);
  proxy_options.eviction_policy = combo.policy;
  if (combo.cache_bytes > 0) proxy_options.cache_bytes = combo.cache_bytes;
  proxy_options.cache_tier = combo.tier();
  proxy_options.trace_sink = &sink;
  live::LiveProxy proxy(proxy_options);
  EXPECT_TRUE(proxy.Start());

  for (const Step& step : kScript) {
    if (step.kind == Step::kFetch) {
      EXPECT_TRUE(proxy.Fetch(step.client, step.url).ok)
          << step.client << " " << step.url;
    } else {
      const std::uint64_t before = proxy.invalidations_received();
      const std::size_t pushed = server.TouchDocument(step.url);
      // Deliveries are asynchronous; the next step must observe them (the
      // replay's serialized fan-out completes within the touch interval).
      EXPECT_TRUE(WaitFor([&] {
        return proxy.invalidations_received() >= before + pushed;
      })) << "invalidation for " << step.url << " never arrived";
    }
  }

  proxy.Stop();
  server.Stop();
  return StackRun{sink.Take(),
                  Counters{proxy.invalidations_received(),
                           proxy.pcv_invalidated(), proxy.psi_purged(),
                           server.requests_served()}};
}

// --- replay run --------------------------------------------------------------

StackRun RunReplayScript(const Combo& combo) {
  const Protocol protocol = combo.protocol;
  // One step per lockstep interval: the coordinator barrier makes the
  // simulator's global event order equal the script order.
  constexpr Time kStep = kMinute;

  trace::Trace trace;
  trace.name = "differential";
  trace.documents = {{"/a", kSizeA}, {"/b", kSizeB}};
  trace.clients = {"alice", "bob"};

  std::vector<trace::ModEvent> modifications;
  Time at = 0;
  for (const Step& step : kScript) {
    at += kStep;
    const trace::DocId doc = step.url == std::string("/a") ? 0 : 1;
    if (step.kind == Step::kFetch) {
      const trace::ClientId client = step.client == std::string("alice") ? 0 : 1;
      trace.records.push_back({at, client, doc});
    } else {
      modifications.push_back({at, doc});
    }
  }
  trace.duration = at + kStep;
  EXPECT_EQ(trace.Validate(), "");

  RecordingSink sink;
  replay::ReplayConfig config;
  config.protocol = protocol;
  config.trace = &trace;
  config.explicit_modifications = modifications;
  config.num_pseudo_clients = 1;  // the live side is one shared proxy
  config.ttl = TtlFor(protocol);
  config.lease = LeaseFor(combo.lease);
  config.eviction_policy = combo.policy;
  if (combo.cache_bytes > 0) config.proxy_cache_bytes = combo.cache_bytes;
  config.proxy_tier = combo.tier();
  config.accelerator_shards = TestShards();
  config.lockstep_interval = kStep;
  config.fixed_initial_age = 0;  // documents born at t=0, as in live
  config.trace_sink = &sink;
  const replay::ReplayMetrics metrics = replay::RunReplay(config);
  return StackRun{sink.Take(),
                  Counters{metrics.invalidations_delivered,
                           metrics.pcv_invalidated, metrics.psi_entries_erased,
                           metrics.replies_200 + metrics.replies_304}};
}

// --- the differential assertion ---------------------------------------------

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  std::string name = core::ToString(info.param.protocol);
  name += "_";
  name += core::ToString(info.param.lease);
  if (info.param.cache_bytes > 0) {
    name += "_";
    name += http::eviction::ToString(info.param.policy);
    name += info.param.tiered ? "_tiered" : "_flat";
  }
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

class DifferentialTest : public ::testing::TestWithParam<Combo> {};

TEST_P(DifferentialTest, ReplayAndLiveStacksDecideIdentically) {
  const StackRun replay_run = RunReplayScript(GetParam());
  const StackRun live_run = RunLive(GetParam());
  const std::vector<NormEvent>& replayed = replay_run.events;
  const std::vector<NormEvent>& lived = live_run.events;

  // The script exercises real traffic: an empty trace means the harness is
  // broken, not that the stacks agree.
  ASSERT_FALSE(replayed.empty());

  const std::size_t common = std::min(replayed.size(), lived.size());
  for (std::size_t i = 0; i < common; ++i) {
    ASSERT_EQ(replayed[i], lived[i]) << "first divergence at event " << i;
  }
  ASSERT_EQ(replayed.size(), lived.size());
  EXPECT_EQ(replay_run.counters, live_run.counters);
}

constexpr Protocol kAllProtocols[] = {
    Protocol::kAdaptiveTtl,          Protocol::kPollEveryTime,
    Protocol::kInvalidation,         Protocol::kPiggybackValidation,
    Protocol::kPiggybackInvalidation};

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos;
  // Protocol × lease sweep at the roomy default capacity (no evictions).
  for (const Protocol protocol : kAllProtocols) {
    for (const LeaseMode lease :
         {LeaseMode::kNone, LeaseMode::kFixed, LeaseMode::kTwoTier}) {
      combos.push_back(Combo{protocol, lease});
    }
  }
  // Protocol × policy × tiering sweep under eviction pressure: the cache
  // cannot hold /a plus /b, so every Insert past the first few displaces a
  // victim, and both stacks must displace the same one (kEviction events
  // are part of the compared stream).
  for (const Protocol protocol : kAllProtocols) {
    for (const EvictionPolicyKind policy :
         {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
          EvictionPolicyKind::kGds}) {
      for (const bool tiered : {false, true}) {
        Combo combo{protocol, LeaseMode::kNone};
        combo.policy = policy;
        combo.cache_bytes = 66000;  // < kSizeA + kSizeB
        combo.tiered = tiered;
        combos.push_back(combo);
      }
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(AllProtocolsAndLeases, DifferentialTest,
                         ::testing::ValuesIn(AllCombos()), ComboName);

}  // namespace
}  // namespace webcc
