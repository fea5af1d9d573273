// Sharded accelerator tier (ctest label: differential companion): the
// consistent-hash ring's determinism/balance/stability contract, the
// per-shard outbox's coalescing and deterministic drain order, and the
// tier's central promise — the observable decision stream is shard-count
// invariant. Event streams from the core facade, replay decision traces
// for all five protocols, and journal recovery all must be identical at
// 1/2/4/8 shards (the one documented exception: sitelist_storage_bytes,
// which per-shard site interning duplicates).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/hash_ring.h"
#include "core/outbox.h"
#include "core/sharded_accelerator.h"
#include "fault/plan.h"
#include "http/document_store.h"
#include "net/message.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "trace/workload.h"
#include "util/time.h"

namespace webcc {
namespace {

using core::HashRing;
using core::InvalidationOutbox;
using core::ShardedAccelerator;

std::vector<std::string> SampleUrls(std::size_t count) {
  std::vector<std::string> urls;
  urls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    urls.push_back("/docs/page-" + std::to_string(i) + ".html");
  }
  return urls;
}

// --- hash ring --------------------------------------------------------------

TEST(HashRing, DeterministicAcrossInstances) {
  const HashRing a(8);
  const HashRing b(8);
  for (const std::string& url : SampleUrls(500)) {
    EXPECT_EQ(a.ShardOf(url), b.ShardOf(url)) << url;
  }
}

TEST(HashRing, SingleShardMapsEverythingToZero) {
  const HashRing ring(1);
  for (const std::string& url : SampleUrls(100)) {
    EXPECT_EQ(ring.ShardOf(url), 0u);
  }
}

TEST(HashRing, BalancedWithinLooseBoundsAtEightShards) {
  const HashRing ring(8);
  const std::vector<std::string> urls = SampleUrls(4000);
  std::array<std::size_t, 8> counts{};
  for (const std::string& url : urls) counts[ring.ShardOf(url)]++;
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    const double share = static_cast<double>(counts[shard]) / urls.size();
    // Uniform would be 0.125; 64 virtual points keep every shard well away
    // from starvation and from absorbing the ring.
    EXPECT_GT(share, 0.03) << "shard " << shard << " starved";
    EXPECT_LT(share, 0.30) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, GrowthMovesOnlyCapturedKeysOntoTheNewShard) {
  const HashRing before(4);
  const HashRing after(5);
  const std::vector<std::string> urls = SampleUrls(4000);
  std::size_t moved = 0;
  for (const std::string& url : urls) {
    const std::uint32_t old_shard = before.ShardOf(url);
    const std::uint32_t new_shard = after.ShardOf(url);
    if (old_shard == new_shard) continue;
    ++moved;
    // Consistent hashing: the existing shards' points are unchanged, so a
    // key can only move because a NEW point captured its arc.
    EXPECT_EQ(new_shard, 4u) << url << " moved between old shards";
  }
  // ~1/5 of keys in theory; anything under 40% keeps the bound meaningful.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / urls.size(), 0.4);
}

// --- per-shard outbox -------------------------------------------------------

// The outbox queues (site, doc) ids; the tests name both through one space.
core::IdSpace& OutboxIds() {
  static core::IdSpace ids;
  return ids;
}
core::SiteId Site(std::string_view name) {
  return OutboxIds().sites.Intern(name);
}
core::DocId Doc(std::string_view path) { return OutboxIds().docs.Intern(path); }
std::string SiteOf(const InvalidationOutbox::Batch& batch) {
  return OutboxIds().SiteName(batch.site);
}
std::vector<std::string> UrlsOf(const InvalidationOutbox::Batch& batch) {
  std::vector<std::string> urls;
  for (const core::DocId doc : batch.docs) {
    urls.push_back(OutboxIds().DocName(doc));
  }
  return urls;
}
std::vector<InvalidationOutbox::Batch> DrainAll(
    InvalidationOutbox& outbox,
    const std::function<bool(core::SiteId)>& ready = nullptr) {
  return outbox.Drain(OutboxIds().sites, ready);
}

TEST(Outbox, CoalescesDupWritesIntoOneEntry) {
  InvalidationOutbox outbox;
  EXPECT_FALSE(outbox.Add(Site("site-a"), Doc("/x"), 11, 100));
  // dup-write: coalesced
  EXPECT_TRUE(outbox.Add(Site("site-a"), Doc("/x"), 12, 250));
  EXPECT_EQ(outbox.pending_urls(), 1u);

  const std::vector<InvalidationOutbox::Batch> batches = DrainAll(outbox);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(SiteOf(batches[0]), "site-a");
  EXPECT_EQ(UrlsOf(batches[0]), (std::vector<std::string>{"/x"}));
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(batches[0].oldest_queued, 100);
  EXPECT_TRUE(outbox.empty());
}

TEST(Outbox, RetriedQueueAcksEachWriteOnce) {
  // Regression (ISSUE 7): Add() appended the write id without a dup check,
  // so a sender retry of the same (site, url, write_id) — e.g. after a
  // dropped frame — made the drained batch ack the same delivery machine
  // twice. The retry must coalesce to a no-op.
  InvalidationOutbox outbox;
  EXPECT_FALSE(outbox.Add(Site("site-a"), Doc("/x"), 11, 100));
  // A retry of the same write, a distinct write (kept), and a retry of that.
  EXPECT_TRUE(outbox.Add(Site("site-a"), Doc("/x"), 11, 250));
  EXPECT_TRUE(outbox.Add(Site("site-a"), Doc("/x"), 12, 300));
  EXPECT_TRUE(outbox.Add(Site("site-a"), Doc("/x"), 12, 350));

  const std::vector<InvalidationOutbox::Batch> batches = DrainAll(outbox);
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{11, 12}));
}

TEST(Outbox, DrainsSitesSortedAndUrlsFirstQueued) {
  InvalidationOutbox outbox;
  outbox.Add(Site("zeta"), Doc("/b"), 1, 10);
  outbox.Add(Site("alpha"), Doc("/z"), 2, 20);
  outbox.Add(Site("zeta"), Doc("/a"), 3, 30);
  outbox.Add(Site("alpha"), Doc("/a"), 4, 40);

  const std::vector<InvalidationOutbox::Batch> batches = DrainAll(outbox);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(SiteOf(batches[0]), "alpha");
  EXPECT_EQ(UrlsOf(batches[0]), (std::vector<std::string>{"/z", "/a"}));
  EXPECT_EQ(batches[0].oldest_queued, 20);
  EXPECT_EQ(SiteOf(batches[1]), "zeta");
  EXPECT_EQ(UrlsOf(batches[1]), (std::vector<std::string>{"/b", "/a"}));
  EXPECT_EQ(batches[1].oldest_queued, 10);
}

TEST(Outbox, ReadyPredicateHoldsUnreachableSites) {
  InvalidationOutbox outbox;
  outbox.Add(Site("reachable"), Doc("/a"), 1, 10);
  outbox.Add(Site("partitioned"), Doc("/b"), 2, 20);

  const auto only_reachable = [](core::SiteId site) {
    return site == Site("reachable");
  };
  std::vector<InvalidationOutbox::Batch> batches =
      DrainAll(outbox, only_reachable);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(SiteOf(batches[0]), "reachable");
  EXPECT_FALSE(outbox.empty());
  EXPECT_EQ(outbox.pending_sites(), 1u);

  // The held site keeps coalescing while partitioned: two writes of /b
  // become ONE entry carrying both write ids, delivered after the heal.
  EXPECT_TRUE(outbox.Add(Site("partitioned"), Doc("/b"), 3, 30));
  batches = DrainAll(outbox);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(SiteOf(batches[0]), "partitioned");
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(outbox.empty());
}

// --- sharded facade: event streams invariant across shard counts ------------

// Drives one fixed request/notify/prune/recover sequence and returns the
// full JSONL event text plus every invalidation the facade handed back.
struct FacadeRun {
  std::string events;
  std::vector<std::string> invalidations;  // "type url site" lines
  std::vector<core::InvalidationTable::Snapshot> entries;
};

void AppendInvalidations(const std::vector<net::Invalidation>& invs,
                         std::vector<std::string>& out) {
  for (const net::Invalidation& inv : invs) {
    out.push_back(std::to_string(static_cast<int>(inv.type)) + " " + inv.url +
                  " " + inv.client_id);
  }
}

FacadeRun DriveFacade(std::uint32_t shards) {
  const std::vector<std::string> urls = SampleUrls(40);
  http::DocumentStore docs;
  for (const std::string& url : urls) docs.Add(url, 1024, 0);

  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kFixed;
  lease.duration = 10 * kMinute;

  obs::BufferTraceSink sink;
  ShardedAccelerator accel(docs, lease, shards);
  accel.set_trace_sink(&sink);
  accel.EnableJournal(true);

  FacadeRun run;
  Time now = kMinute;
  // Register three sites over every URL, staggered so lease expiries differ.
  for (const char* site : {"site-a", "site-b", "site-c"}) {
    for (const std::string& url : urls) {
      net::Request request;
      request.url = url;
      request.client_id = site;
      request.type = net::MessageType::kGet;
      EXPECT_TRUE(accel.HandleRequest(request, now).has_value()) << url;
    }
    now += kMinute;
  }
  // Touch a quarter of the documents: fan-out.
  for (std::size_t i = 0; i < urls.size(); i += 4) {
    docs.Touch(urls[i], now);
    AppendInvalidations(accel.HandleNotify(net::Notify{urls[i]}, now),
                        run.invalidations);
  }
  // Let the first registration wave's leases lapse and prune.
  now = kMinute + lease.duration + kMinute;
  accel.PruneExpired(now);
  // Crash and journal-rebuild: the targeted recovery pass.
  for (std::size_t i = 1; i < urls.size(); i += 8) docs.Touch(urls[i], now);
  accel.Crash();
  ShardedAccelerator::RecoveryOutcome outcome = accel.RecoverFromJournal(now);
  EXPECT_FALSE(outcome.journal_damaged);
  AppendInvalidations(outcome.invalidations, run.invalidations);

  run.entries = accel.SnapshotEntries();
  run.events = sink.TakeText();
  return run;
}

TEST(ShardedAccelerator, ObservableBehaviorInvariantAcrossShardCounts) {
  const FacadeRun baseline = DriveFacade(1);
  ASSERT_FALSE(baseline.events.empty());
  ASSERT_FALSE(baseline.invalidations.empty());
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const FacadeRun sharded = DriveFacade(shards);
    EXPECT_EQ(sharded.events, baseline.events) << shards << " shards";
    EXPECT_EQ(sharded.invalidations, baseline.invalidations)
        << shards << " shards";
    ASSERT_EQ(sharded.entries.size(), baseline.entries.size())
        << shards << " shards";
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      EXPECT_EQ(sharded.entries[i].url, baseline.entries[i].url);
      EXPECT_EQ(sharded.entries[i].site, baseline.entries[i].site);
      EXPECT_EQ(sharded.entries[i].lease_until, baseline.entries[i].lease_until);
    }
  }
}

TEST(ShardedAccelerator, RecoverBroadcastsUnionOfShardRegistries) {
  const std::vector<std::string> urls = SampleUrls(24);
  http::DocumentStore docs;
  for (const std::string& url : urls) docs.Add(url, 512, 0);

  const auto drive = [&urls, &docs](std::uint32_t shards) {
    ShardedAccelerator accel(docs, core::LeaseConfig{}, shards);
    for (std::size_t i = 0; i < urls.size(); ++i) {
      net::Request request;
      request.url = urls[i];
      request.client_id = "site-" + std::to_string(i % 5);
      request.type = net::MessageType::kGet;
      accel.HandleRequest(request, kMinute);
    }
    accel.Crash();
    std::vector<std::string> sites;
    for (const net::Invalidation& inv : accel.Recover()) {
      EXPECT_EQ(inv.type, net::MessageType::kInvalidateServer);
      sites.push_back(inv.client_id);
    }
    return sites;
  };

  const std::vector<std::string> baseline = drive(1);
  ASSERT_EQ(baseline.size(), 5u);  // deduplicated union
  EXPECT_TRUE(std::is_sorted(baseline.begin(), baseline.end()));
  EXPECT_EQ(drive(4), baseline);
  EXPECT_EQ(drive(8), baseline);
}

// --- name order survives ids ------------------------------------------------

// Records (url, site) for every event of one type, in emission order.
class SiteOrderSink final : public obs::TraceSink {
 public:
  explicit SiteOrderSink(obs::EventType type) : type_(type) {}
  void Emit(const obs::TraceEvent& event) override {
    if (event.type == type_) {
      pairs.emplace_back(std::string(event.url), std::string(event.site));
    }
  }
  void WriteRaw(std::string_view) override {}
  std::vector<std::pair<std::string, std::string>> pairs;

 private:
  obs::EventType type_;
};

std::vector<std::string> ClientsOf(const std::vector<net::Invalidation>& invs) {
  std::vector<std::string> sites;
  for (const net::Invalidation& inv : invs) sites.push_back(inv.client_id);
  return sites;
}

TEST(ShardedAccelerator, PublishedListsStayInNameOrderNotIdOrder) {
  // Site ids follow first sight, and these sites are first seen in an order
  // that is not name order: as strings "10.0.0.10" < "10.0.0.100" <
  // "10.0.0.2" < "10.0.0.9". Every list the tier publishes must come out in
  // name order, exactly as when it keyed on strings — at 1 and 4 shards.
  const std::vector<std::string> first_seen = {"10.0.0.9", "10.0.0.10",
                                               "10.0.0.2", "10.0.0.100"};
  const std::vector<std::string> by_name = {"10.0.0.10", "10.0.0.100",
                                            "10.0.0.2", "10.0.0.9"};
  const std::vector<std::string> urls = SampleUrls(8);
  std::vector<std::string> sorted_urls = urls;
  std::sort(sorted_urls.begin(), sorted_urls.end());

  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    http::DocumentStore docs;
    for (const std::string& url : urls) docs.Add(url, 512, 0);
    core::LeaseConfig lease;
    lease.mode = core::LeaseMode::kFixed;
    lease.duration = 10 * kMinute;
    ShardedAccelerator accel(docs, lease, shards);
    SiteOrderSink expiries(obs::EventType::kLeaseExpiry);
    accel.set_trace_sink(&expiries);
    for (const std::string& site : first_seen) {
      for (const std::string& url : urls) {
        net::Request request;
        request.url = url;
        request.client_id = site;
        ASSERT_TRUE(accel.HandleRequest(request, kMinute).has_value());
      }
    }

    // Snapshot (and, at 4 shards, its cross-shard merge): (url, site) order.
    std::vector<std::pair<std::string, std::string>> expected;
    for (const std::string& url : sorted_urls) {
      for (const std::string& site : by_name) expected.emplace_back(url, site);
    }
    std::vector<std::pair<std::string, std::string>> snapshot;
    for (const core::InvalidationTable::Snapshot& entry :
         accel.SnapshotEntries()) {
      snapshot.emplace_back(entry.url, entry.site);
    }
    EXPECT_EQ(snapshot, expected);

    // Invalidation fan-out for one write: site-name order.
    docs.Touch(urls[0], 2 * kMinute);
    EXPECT_EQ(ClientsOf(accel.HandleNotify(net::Notify{urls[0]}, 2 * kMinute)),
              by_name);

    // Lease-expiry emission from the (merged) prune: (url, site) order.
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [&urls](const auto& pair) {
                                    return pair.first == urls[0];
                                  }),
                   expected.end());
    accel.PruneExpired(kHour);
    EXPECT_EQ(expiries.pairs, expected);

    // Recovery broadcast over the union of the shard registries.
    accel.Crash();
    EXPECT_EQ(ClientsOf(accel.Recover()), by_name);
  }
}

// --- replay: serialized decision traces invariant across shard counts -------

const trace::Trace& ShardTrace() {
  static const trace::Trace trace = [] {
    trace::WorkloadConfig config;
    config.duration = kHour;
    config.total_requests = 500;
    config.num_documents = 40;
    config.num_clients = 12;
    config.seed = 11;
    return trace::GenerateTrace(config);
  }();
  return trace;
}

replay::ReplayConfig ShardBaseConfig(core::Protocol protocol) {
  replay::ReplayConfig config;
  config.protocol = protocol;
  config.trace = &ShardTrace();
  config.mean_lifetime = 2 * kHour;  // plenty of writes
  return config;
}

struct ReplayRun {
  replay::ReplayMetrics metrics;
  std::string digest;
};

ReplayRun RunSharded(replay::ReplayConfig config, std::uint32_t shards) {
  obs::BufferTraceSink sink;
  config.accelerator_shards = shards;
  config.trace_sink = &sink;
  ReplayRun run;
  run.metrics = replay::RunReplay(config);
  run.digest = obs::DigestJsonl(sink.TakeText());
  return run;
}

// SameSimulation modulo the one documented exception: per-shard site
// interning makes sitelist_storage_bytes grow with the shard count.
bool SameModuloStorage(const replay::ReplayMetrics& a,
                       replay::ReplayMetrics b) {
  b.sitelist_storage_bytes = a.sitelist_storage_bytes;
  return replay::SameSimulation(a, b);
}

TEST(ShardInvariance, SerializedReplayIdenticalForAllProtocols) {
  const core::Protocol protocols[] = {
      core::Protocol::kAdaptiveTtl,          core::Protocol::kPollEveryTime,
      core::Protocol::kInvalidation,         core::Protocol::kPiggybackValidation,
      core::Protocol::kPiggybackInvalidation};
  for (const core::Protocol protocol : protocols) {
    replay::ReplayConfig config = ShardBaseConfig(protocol);
    if (protocol == core::Protocol::kInvalidation) {
      config.lease.mode = core::LeaseMode::kTwoTier;
      config.lease.duration = 20 * kMinute;
      config.lease.short_duration = 5 * kMinute;
    }
    const ReplayRun baseline = RunSharded(config, 1);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      const ReplayRun sharded = RunSharded(config, shards);
      EXPECT_EQ(sharded.digest, baseline.digest)
          << core::ToString(protocol) << " diverged at " << shards
          << " shards";
      EXPECT_TRUE(SameModuloStorage(baseline.metrics, sharded.metrics))
          << core::ToString(protocol) << " metrics diverged at " << shards
          << " shards";
    }
  }
}

}  // namespace
}  // namespace webcc
