// Invariant grid: every protocol × modification-rate combination must
// uphold the engine's conservation and consistency invariants.
//
// This is the broadest net in the suite: it does not check specific
// numbers, only the properties that define a correct run, across the whole
// parameter plane the paper's evaluation moves in (lifetimes from minutes
// to months, all five protocols, every fan-out mode).
#include <gtest/gtest.h>

#include <string>

#include "replay/engine.h"
#include "trace/workload.h"
#include "util/check.h"

namespace webcc::replay {
namespace {

using core::Protocol;

struct GridPoint {
  Protocol protocol;
  Time mean_lifetime;
  FanOut fan_out = FanOut::kSerialized;
};

std::string GridName(const ::testing::TestParamInfo<GridPoint>& info) {
  std::string name;
  switch (info.param.protocol) {
    case Protocol::kAdaptiveTtl:
      name = "Ttl";
      break;
    case Protocol::kPollEveryTime:
      name = "Poll";
      break;
    case Protocol::kInvalidation:
      name = "Inval";
      break;
    case Protocol::kPiggybackValidation:
      name = "Pcv";
      break;
    case Protocol::kPiggybackInvalidation:
      name = "Psi";
      break;
  }
  name += "Life" + std::to_string(info.param.mean_lifetime / kMinute) + "m";
  name += info.param.fan_out == FanOut::kSerialized ? "Ser" : "Dec";
  return name;
}

class InvariantGridTest : public ::testing::TestWithParam<GridPoint> {
 protected:
  static const trace::Trace& Trace() {
    static const trace::Trace trace = [] {
      trace::WorkloadConfig config;
      config.duration = 3 * kHour;
      config.total_requests = 2500;
      config.num_documents = 150;
      config.num_clients = 70;
      config.revisit_probability = 0.2;
      config.seed = 77;
      return trace::GenerateTrace(config);
    }();
    return trace;
  }
};

TEST_P(InvariantGridTest, ConservationAndConsistency) {
  const GridPoint point = GetParam();
  ReplayConfig config;
  config.protocol = point.protocol;
  config.trace = &Trace();
  config.mean_lifetime = point.mean_lifetime;
  config.fan_out = point.fan_out;

  const ReplayMetrics m = RunReplay(config);

  // Conservation: every request resolves exactly once.
  EXPECT_EQ(m.requests_issued, Trace().records.size());
  EXPECT_EQ(m.local_hits + m.validated_hits + m.replies_200,
            m.requests_issued);
  EXPECT_EQ(m.request_timeouts, 0u);
  EXPECT_EQ(m.requests_skipped, 0u);

  // Request/reply pairing at the server.
  EXPECT_EQ(m.get_requests + m.ims_requests, m.replies_200 + m.replies_304);
  EXPECT_EQ(m.validated_hits, m.replies_304);

  // Consistency: strong protocols never violate; polling never serves
  // locally; invalidation's stale serves are all in-flight.
  EXPECT_EQ(m.strong_violations, 0u);
  if (point.protocol == Protocol::kPollEveryTime) {
    EXPECT_EQ(m.local_hits, 0u);
    EXPECT_EQ(m.stale_serves, 0u);
  }
  if (point.protocol == Protocol::kInvalidation) {
    EXPECT_EQ(m.stale_serves, m.stale_while_invalidation_in_flight);
    EXPECT_EQ(m.invalidations_delivered + m.invalidations_refused,
              m.invalidations_sent);
    EXPECT_EQ(m.invalidations_refused, 0u);  // nobody crashes in this grid
  } else {
    EXPECT_EQ(m.invalidations_sent, 0u);
  }

  // Latency sanity: one sample per request, positive, min <= mean <= max.
  EXPECT_EQ(m.latency_ms.count(), m.requests_issued);
  EXPECT_GT(m.latency_ms.min(), 0.0);
  EXPECT_LE(m.latency_ms.min(), m.latency_ms.mean());
  EXPECT_LE(m.latency_ms.mean(), m.latency_ms.max());

  // Load accounting present and bounded.
  EXPECT_GT(m.server_cpu_utilization, 0.0);
  EXPECT_LE(m.server_cpu_utilization, 1.0);
  EXPECT_GT(m.message_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Plane, InvariantGridTest,
    ::testing::Values(
        // Modification rates from frantic (minutes) to web-typical (weeks),
        // across all five protocols.
        GridPoint{Protocol::kAdaptiveTtl, 15 * kMinute},
        GridPoint{Protocol::kAdaptiveTtl, 4 * kHour},
        GridPoint{Protocol::kAdaptiveTtl, 30 * kDay},
        GridPoint{Protocol::kPollEveryTime, 15 * kMinute},
        GridPoint{Protocol::kPollEveryTime, 4 * kHour},
        GridPoint{Protocol::kPollEveryTime, 30 * kDay},
        GridPoint{Protocol::kInvalidation, 15 * kMinute},
        GridPoint{Protocol::kInvalidation, 15 * kMinute, FanOut::kDecoupled},
        GridPoint{Protocol::kInvalidation, 4 * kHour},
        GridPoint{Protocol::kInvalidation, 4 * kHour, FanOut::kDecoupled},
        GridPoint{Protocol::kInvalidation, 30 * kDay},
        GridPoint{Protocol::kPiggybackValidation, 15 * kMinute},
        GridPoint{Protocol::kPiggybackValidation, 4 * kHour},
        GridPoint{Protocol::kPiggybackValidation, 30 * kDay},
        GridPoint{Protocol::kPiggybackInvalidation, 15 * kMinute},
        GridPoint{Protocol::kPiggybackInvalidation, 4 * kHour},
        GridPoint{Protocol::kPiggybackInvalidation, 30 * kDay}),
    GridName);

// The same net over the deployment variants of the invalidation protocol.
struct VariantPoint {
  FanOut fan_out;
  bool shared;
  bool hierarchical;
  const char* name;
};

class VariantGridTest : public ::testing::TestWithParam<VariantPoint> {};

TEST_P(VariantGridTest, ConservationAndConsistency) {
  const VariantPoint point = GetParam();
  trace::WorkloadConfig workload;
  workload.duration = 2 * kHour;
  workload.total_requests = 2000;
  workload.num_documents = 120;
  workload.num_clients = 60;
  workload.seed = 78;
  const trace::Trace trace = trace::GenerateTrace(workload);

  ReplayConfig config;
  config.protocol = Protocol::kInvalidation;
  config.trace = &trace;
  config.mean_lifetime = 3 * kHour;
  config.fan_out = point.fan_out;
  config.shared_proxy_cache = point.shared;
  config.hierarchical = point.hierarchical;

  const ReplayMetrics m = RunReplay(config);
  EXPECT_EQ(m.local_hits + m.validated_hits + m.replies_200,
            m.requests_issued);
  EXPECT_EQ(m.strong_violations, 0u);
  EXPECT_EQ(m.request_timeouts, 0u);
  EXPECT_EQ(m.stale_serves, m.stale_while_invalidation_in_flight);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantGridTest,
    ::testing::Values(
        // Every fan-out mode on the flat topology...
        VariantPoint{FanOut::kSerialized, false, false, "flat"},
        VariantPoint{FanOut::kDecoupled, false, false, "decoupled"},
        VariantPoint{FanOut::kBatched, false, false, "batched"},
        VariantPoint{FanOut::kMulticast, false, false, "multicast"},
        VariantPoint{FanOut::kSerialized, true, false, "shared"},
        VariantPoint{FanOut::kBatched, true, false, "sharedBatched"},
        VariantPoint{FanOut::kMulticast, true, false, "sharedMulticast"},
        // ...and every one the hierarchy accepts (batched is refused there).
        VariantPoint{FanOut::kSerialized, false, true, "hierarchical"},
        VariantPoint{FanOut::kDecoupled, false, true,
                     "hierarchicalDecoupled"},
        VariantPoint{FanOut::kMulticast, false, true,
                     "hierarchicalMulticast"}),
    [](const ::testing::TestParamInfo<VariantPoint>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace webcc::replay
