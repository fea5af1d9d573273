// The proxy cache's eviction contract: each policy picks the documented
// victims with deterministic tie-breaks, the TTL expiry heap stays bounded
// under renewal churn (the stale-record leak), oversize inserts are counted
// and traced, and the optional second tier preserves every
// consistency-facing semantic (TakeExpired, EraseByUrl,
// MarkAllQuestionable) across both tiers. The randomized cross-check
// against a model cache lives in test_cache_model.cc; these are the
// targeted unit cases.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "http/cache_key.h"
#include "http/eviction/expiry_heap.h"
#include "http/eviction/policy.h"
#include "http/proxy_cache.h"
#include "named_cache.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace webcc::http {
namespace {

using eviction::EvictionPolicyKind;
using eviction::ExpiryHeap;

struct RecordedEvent {
  obs::EventType type;
  Time at;
  std::string url;
  std::int64_t detail;
};

struct RecordingSink final : obs::TraceSink {
  std::vector<RecordedEvent> events;
  void Emit(const obs::TraceEvent& event) override {
    events.push_back({event.type, event.at, std::string(event.url),
                      event.detail});
  }
  void WriteRaw(std::string_view) override {}
  std::size_t CountDetail(std::int64_t detail) const {
    std::size_t n = 0;
    for (const RecordedEvent& e : events) {
      if (e.type == obs::EventType::kEviction && e.detail == detail) ++n;
    }
    return n;
  }
};

CacheEntry MakeEntry(const std::string& url, std::uint64_t size, Time ttl,
                     const std::string& owner = "c") {
  CacheEntry entry;
  entry.url = url;
  entry.owner = owner;
  entry.key = ComposeCacheKey(url, owner);
  entry.size_bytes = size;
  entry.ttl_expires = ttl;
  return entry;
}

// --- kind spellings ---------------------------------------------------------

TEST(EvictionPolicyKindTest, ToStringParseRoundTrip) {
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    EvictionPolicyKind parsed = EvictionPolicyKind::kLru;
    ASSERT_TRUE(
        eviction::ParseEvictionPolicyKind(eviction::ToString(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  EvictionPolicyKind out = EvictionPolicyKind::kGds;
  EXPECT_FALSE(eviction::ParseEvictionPolicyKind("mru", out));
  EXPECT_EQ(out, EvictionPolicyKind::kGds);  // untouched on failure
}

// --- expiry heap ------------------------------------------------------------

TEST(ExpiryHeapTest, PopsByExpiryThenStamp) {
  // Same tie-break as the pre-kernel TtlHeapItem: expiry first, then the
  // insertion stamp, regardless of push order.
  ExpiryHeap heap;
  heap.Push(50, 7, 1);
  heap.Push(10, 9, 2);
  heap.Push(10, 3, 3);
  heap.Push(50, 2, 4);
  std::vector<core::InternId> order;
  while (!heap.empty()) {
    order.push_back(heap.Top().key);
    heap.PopLive();
  }
  EXPECT_EQ(order, (std::vector<core::InternId>{3, 2, 4, 1}));
}

TEST(ExpiryHeapTest, CompactionDropsOnlyStaleRecords) {
  ExpiryHeap heap;
  // 100 records; every even stamp goes stale. Below 2x live nothing
  // compacts; one more stale record crosses the threshold.
  for (std::uint64_t i = 0; i < 100; ++i) heap.Push(1000 + i, i, 1);
  for (std::uint64_t i = 0; i < 50; ++i) heap.NoteStale();
  const auto is_live = [](const eviction::ExpiryRecord& r) {
    return r.stamp % 2 == 1;
  };
  heap.CompactIfStale(is_live);
  EXPECT_EQ(heap.size(), 100u);  // 100 <= 2 * 50: not yet
  heap.NoteStale();
  const auto is_live_after = [](const eviction::ExpiryRecord& r) {
    return r.stamp % 2 == 1 && r.stamp != 1;
  };
  heap.CompactIfStale(is_live_after);
  EXPECT_EQ(heap.size(), 49u);
  EXPECT_EQ(heap.live(), 49u);
  // Survivors still pop in (expiry, stamp) order.
  Time last = 0;
  while (!heap.empty()) {
    EXPECT_GE(heap.Top().expires, last);
    last = heap.Top().expires;
    heap.PopLive();
  }
}

TEST(ProxyCacheTtlHeapTest, RenewChurnKeepsHeapBounded) {
  // The satellite regression: before compaction, every SetTtlExpiry leaked
  // one stale heap record, so this loop grew the heap to ~30010 records.
  // Compaction at stale-fraction 1/2 (floor 64) pins it at the floor.
  ProxyCache cache(1 << 20, EvictionPolicyKind::kExpiredFirstLru);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(MakeEntry("/doc" + std::to_string(i), 100, 1000), 0);
  }
  for (int round = 0; round < 3000; ++round) {
    for (int i = 0; i < 10; ++i) {
      CacheEntry* entry = PeekKey(cache, ComposeCacheKey(
          "/doc" + std::to_string(i), "c"));
      ASSERT_NE(entry, nullptr);
      cache.SetTtlExpiry(*entry, 1000 + round);
    }
    ASSERT_LE(cache.ttl_heap_size(), 64u);
  }
  EXPECT_EQ(cache.entry_count(), 10u);
  // The renewed expiries still work: everything expires at the last value.
  EXPECT_EQ(cache.TakeExpired(10000, 100).size(), 10u);
}

// --- policy semantics -------------------------------------------------------

TEST(GdsPolicyTest, EvictsLowestCreditNotLruTail) {
  // GreedyDual-Size credits H = L + 1/size: the big cold object loses to a
  // small one even when the small one is least recently used.
  ProxyCache cache(10000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/small", 100, kNeverExpires), 0);
  cache.Insert(MakeEntry("/big", 5000, kNeverExpires), 1);
  // /small is now the LRU tail, but H_small = 1/100 > H_big = 1/5000.
  cache.Insert(MakeEntry("/new", 5000, kNeverExpires), 2);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/small", "c")), nullptr);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/big", "c")), nullptr);
}

TEST(GdsPolicyTest, HitRecreditsAboveInflation) {
  // After an eviction raises L, a hit re-credits the entry above the new
  // floor, so recently-useful entries outlive cold ones of the same size.
  ProxyCache cache(10000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/a", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 4000, kNeverExpires), 1);
  ASSERT_NE(cache.Lookup(ComposeCacheKey("/a", "c")), nullptr);  // re-credit
  // Equal sizes, so without the hit /a (older order) would be the victim.
  cache.Insert(MakeEntry("/d", 4000, kNeverExpires), 2);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/a", "c")), nullptr);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/b", "c")), nullptr);
}

TEST(GdsPolicyTest, EqualCreditTieBreaksToOlderOrder) {
  // Same size, no hits: identical H, so the policy-private monotone order
  // decides — the older credit is evicted first, mirroring the TTL heap's
  // stamp rule.
  ProxyCache cache(12000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/first", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/second", 4000, kNeverExpires), 1);
  cache.Insert(MakeEntry("/third", 4000, kNeverExpires), 2);
  cache.Insert(MakeEntry("/fourth", 4000, kNeverExpires), 3);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/first", "c")), nullptr);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/second", "c")), nullptr);
}

TEST(ExpiredFirstPolicyTest, TieOnExpiryBreaksToOlderStamp) {
  // Two entries expire at the same instant; the expired-first rule must
  // take the older stamp first (TtlHeapItem's documented ordering).
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru);
  cache.Insert(MakeEntry("/x", 400, 50), 0);
  cache.Insert(MakeEntry("/y", 400, 50), 0);
  // Touch /x so LRU would evict /y; the expired rule ignores recency.
  ASSERT_NE(cache.Lookup(ComposeCacheKey("/x", "c")), nullptr);
  cache.Insert(MakeEntry("/z", 400, kNeverExpires), 100);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/x", "c")), nullptr);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/y", "c")), nullptr);
}

// --- oversize rejections ----------------------------------------------------

TEST(ProxyCacheOversizeTest, CountsAndTracesRejections) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/huge", 4000, kNeverExpires), 7);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().oversize_rejections, 1u);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].type, obs::EventType::kEviction);
  EXPECT_EQ(sink.events[0].detail, 2);
  EXPECT_EQ(sink.events[0].at, 7);
  EXPECT_EQ(sink.events[0].url, "/huge");

  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry, "c.");
  EXPECT_EQ(registry.CounterValue("c.oversize_rejections"), 1u);
}

// --- tiering ----------------------------------------------------------------

TierConfig SmallTier() {
  TierConfig tier;
  tier.tier2_capacity_bytes = 10000;
  tier.promotion_hits = 2;
  tier.demotion_pressure = 0.5;
  tier.ttl_cleanup_per_tick = 8;
  return tier;
}

TEST(TieredCacheTest, PressureDemotesInsteadOfEvicting) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);
  // 800 bytes > the 500-byte watermark: /a (LRU tail) demotes, not evicts.
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.tier2_entry_count(), 1u);
  EXPECT_EQ(cache.stats().tier2_demotions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.tier1_bytes_used(), 400u);
  EXPECT_EQ(cache.tier2_bytes_used(), 400u);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/a", "c")), nullptr);
}

TEST(TieredCacheTest, PromotesAfterConfiguredHits) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);
  ASSERT_EQ(cache.tier2_entry_count(), 1u);
  EXPECT_NE(cache.Lookup(ComposeCacheKey("/a", "c"), 2), nullptr);
  EXPECT_EQ(cache.stats().tier2_promotions, 0u);  // 1 hit < promotion_hits
  EXPECT_NE(cache.Lookup(ComposeCacheKey("/a", "c"), 3), nullptr);
  EXPECT_EQ(cache.stats().tier2_promotions, 1u);
  EXPECT_EQ(cache.tier2_entry_count(), 0u);
  EXPECT_EQ(cache.tier1_bytes_used(), 800u);
}

TEST(TieredCacheTest, Tier2OverflowEvictsItsOwnTail) {
  RecordingSink sink;
  TierConfig tier = SmallTier();
  tier.tier2_capacity_bytes = 500;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, tier);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);  // demotes /a
  cache.Insert(MakeEntry("/c", 400, kNeverExpires), 2);  // demotes /b: full
  EXPECT_EQ(cache.stats().tier2_evictions, 1u);
  EXPECT_EQ(sink.CountDetail(3), 1u);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/a", "c")), nullptr);
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/b", "c")), nullptr);
}

TEST(TieredCacheTest, ExpiredRuleVictimsAreEvictedNotDemoted) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/stale", 400, 10), 0);
  cache.Insert(MakeEntry("/live", 400, kNeverExpires), 20);
  // At now=20 /stale is expired: the expired-first rule evicts it outright
  // rather than wasting tier-2 space on a dead document.
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.stats().tier2_demotions, 0u);
  EXPECT_EQ(sink.CountDetail(1), 1u);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/stale", "c")), nullptr);
}

TEST(TieredCacheTest, Tier2CleanupReclaimsExpiredFromColdEnd) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/a", 400, 100), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);  // demotes /a
  ASSERT_EQ(cache.tier2_entry_count(), 1u);
  cache.Insert(MakeEntry("/c", 100, kNeverExpires), 200);  // cleanup tick
  EXPECT_EQ(cache.stats().tier2_expired_cleaned, 1u);
  EXPECT_EQ(sink.CountDetail(4), 1u);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/a", "c")), nullptr);
}

TEST(TieredCacheTest, OversizeForTier1LandsInTier2) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/big", 2000, kNeverExpires), 0);
  EXPECT_EQ(cache.stats().oversize_rejections, 0u);
  EXPECT_EQ(cache.tier2_entry_count(), 1u);
  // Hits never promote it: it cannot fit tier 1.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(cache.Lookup(ComposeCacheKey("/big", "c"), i), nullptr);
  }
  EXPECT_EQ(cache.stats().tier2_promotions, 0u);
  // Larger than both budgets: rejected with the distinguishing detail.
  cache.Insert(MakeEntry("/colossal", 20000, kNeverExpires), 1);
  EXPECT_EQ(cache.stats().oversize_rejections, 1u);
  EXPECT_EQ(sink.CountDetail(2), 1u);
}

TEST(TieredCacheTest, ConsistencySweepsSeeBothTiers) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/doc", 400, 100, "alice"), 0);
  cache.Insert(MakeEntry("/doc", 400, kNeverExpires, "bob"), 1);
  ASSERT_EQ(cache.tier2_entry_count(), 1u);  // alice's copy demoted

  // TakeExpired finds the demoted copy through the shared TTL heap.
  const std::vector<CacheEntry*> expired = cache.TakeExpired(150, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->owner, "alice");
  cache.SetTtlExpiry(*expired[0], 500);  // re-arm, as PCV does

  // MarkAllQuestionable covers both tiers.
  cache.MarkAllQuestionable();
  EXPECT_TRUE(PeekKey(cache, ComposeCacheKey("/doc", "alice"))->questionable);
  EXPECT_TRUE(PeekKey(cache, ComposeCacheKey("/doc", "bob"))->questionable);

  // EraseByUrl removes every owner's copy regardless of tier.
  EXPECT_EQ(cache.EraseByUrl("/doc"), 2u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(TieredCacheTest, DisabledTierMatchesSingleTierCache) {
  // With tiering off the tiered constructor is bit-identical to the classic
  // cache: same victims, same stats, same occupancy.
  ProxyCache classic(2000, EvictionPolicyKind::kExpiredFirstLru);
  ProxyCache tiered(2000, EvictionPolicyKind::kExpiredFirstLru, TierConfig{});
  for (int i = 0; i < 50; ++i) {
    const std::string url = "/doc" + std::to_string(i % 7);
    const Time ttl = (i % 3 == 0) ? kNeverExpires : Time(i * 10);
    classic.Insert(MakeEntry(url, 300 + (i % 4) * 100, ttl), i);
    tiered.Insert(MakeEntry(url, 300 + (i % 4) * 100, ttl), i);
    const std::string probe =
        ComposeCacheKey("/doc" + std::to_string((i * 3) % 7), "c");
    EXPECT_EQ(classic.Lookup(probe, i) != nullptr,
              tiered.Lookup(probe, i) != nullptr);
    EXPECT_EQ(classic.bytes_used(), tiered.bytes_used());
    EXPECT_EQ(classic.entry_count(), tiered.entry_count());
  }
  EXPECT_EQ(classic.stats().evictions, tiered.stats().evictions);
  EXPECT_EQ(classic.stats().expired_evictions,
            tiered.stats().expired_evictions);
}

class ProxyCacheMetricsTest
    : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(ProxyCacheMetricsTest, ExportsPolicyAndTierCounters) {
  // A tier 2 that holds one 2000-byte entry: 2000-byte victims demote,
  // 4000-byte victims are evicted, and demotions overflow tier 2. Half the
  // entries carry a TTL that lapses by the next insert, so the expired-first
  // rule has victims too.
  TierConfig tier = SmallTier();
  tier.tier2_capacity_bytes = 3000;
  ProxyCache cache(10000, GetParam(), tier);
  for (int i = 0; i < 60; ++i) {
    const Time ttl = (i % 2 == 0) ? Time(i + 1) : kNeverExpires;
    cache.Insert(MakeEntry("/d" + std::to_string(i % 13),
                           (i % 3 == 0) ? 2000 : 4000, ttl),
                 i);
    cache.Lookup(ComposeCacheKey("/d" + std::to_string(i % 5), "c"), i);
  }
  const ProxyCacheStats& stats = cache.stats();
  const std::uint64_t tier1_evictions =
      stats.evictions - stats.tier2_evictions;
  ASSERT_GT(tier1_evictions, 0u);
  ASSERT_GT(stats.tier2_demotions, 0u);
  ASSERT_GT(stats.tier2_evictions, 0u);
  if (GetParam() == EvictionPolicyKind::kExpiredFirstLru) {
    ASSERT_GT(stats.expired_evictions, 0u);
  }

  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry, "c.");
  EXPECT_EQ(registry.CounterValue("c.insertions"), stats.insertions);
  EXPECT_EQ(registry.CounterValue("c.tier2_demotions"), stats.tier2_demotions);
  EXPECT_EQ(registry.CounterValue("c.tier2_bytes_used"),
            cache.tier2_bytes_used());
  // Every victim the policy picks is evicted from tier 1 or demoted.
  EXPECT_EQ(registry.CounterValue("c.policy_picks"),
            tier1_evictions + stats.tier2_demotions);
  EXPECT_EQ(registry.CounterValue("c.policy_expired_picks"),
            stats.expired_evictions);
  std::ostringstream json;
  registry.WriteJson(json);
  const bool has_inflation =
      json.str().find("\"c.gds_inflation\"") != std::string::npos;
  EXPECT_EQ(has_inflation, GetParam() == EvictionPolicyKind::kGds);
  if (has_inflation) EXPECT_GT(registry.GaugeValue("c.gds_inflation"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ProxyCacheMetricsTest,
    ::testing::Values(EvictionPolicyKind::kLru,
                      EvictionPolicyKind::kExpiredFirstLru,
                      EvictionPolicyKind::kGds),
    [](const ::testing::TestParamInfo<EvictionPolicyKind>& info) {
      std::string name(eviction::ToString(info.param));
      std::erase(name, '-');
      return name;
    });

}  // namespace
}  // namespace webcc::http
