// Tests for the piggyback consistency mechanisms (PCV / PSI): the core
// helpers, the proxy-cache support methods, and the replay-engine behaviour
// of the two protocols relative to plain adaptive TTL.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/piggyback.h"
#include "http/cache_key.h"
#include "http/proxy_cache.h"
#include "named_cache.h"
#include "replay/engine.h"
#include "trace/workload.h"

namespace webcc {
namespace {

// --- ValidatePiggyback ---------------------------------------------------------

TEST(PcvValidate, SplitsFreshFromChanged) {
  http::DocumentStore store;
  store.Add("/fresh", 100, 10);
  store.Add("/changed", 100, 10);
  store.Touch("/changed", 50);
  core::IdSpace& ids = store.ids();
  const core::SiteId c = ids.sites.Intern("c");

  std::vector<core::PcvItem> items = {
      {ids.docs.Find("/fresh"), c, 10},
      {ids.docs.Find("/changed"), c, 10},
      {ids.docs.Find("/gone"), c, 10},
  };
  const auto verdicts = core::ValidatePiggyback(store, items);
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_FALSE(verdicts[0].invalid);
  EXPECT_TRUE(verdicts[1].invalid);
  EXPECT_TRUE(verdicts[2].invalid);  // deleted at origin => invalid
  EXPECT_EQ(ids.DocName(verdicts[0].doc), "/fresh");
  EXPECT_EQ(ids.SiteName(verdicts[0].site), "c");
}

TEST(PcvValidate, EmptyBatch) {
  http::DocumentStore store;
  EXPECT_TRUE(core::ValidatePiggyback(store, {}).empty());
}

TEST(PcvBytes, RequestScalesWithItems) {
  core::IdSpace ids;
  const core::SiteId c = ids.sites.Intern("c");
  std::vector<core::PcvItem> items = {{ids.docs.Intern("/a"), c, 0},
                                      {ids.docs.Intern("/bb"), c, 0}};
  const auto bytes = core::PcvRequestExtraBytes(items, ids);
  EXPECT_GT(bytes, std::string("/a").size() + std::string("/bb").size());
  EXPECT_EQ(core::PcvRequestExtraBytes({}, ids), 0u);
}

TEST(PcvBytes, ReplyCountsOnlyInvalid) {
  core::IdSpace ids;
  const core::SiteId c = ids.sites.Intern("c");
  std::vector<core::PcvVerdict> verdicts = {{ids.docs.Intern("/a"), c, false},
                                            {ids.docs.Intern("/bb"), c, true}};
  // The accounting matches the historical url@owner key framing.
  EXPECT_EQ(core::PcvReplyExtraBytes(verdicts, ids),
            std::string("/bb@c").size() + 2);
}

// --- ModificationLog --------------------------------------------------------------

// The log records doc ids; the tests name their documents through one space.
core::IdSpace& LogIds() {
  static core::IdSpace ids;
  return ids;
}
core::DocId Doc(std::string_view path) { return LogIds().docs.Intern(path); }
std::vector<core::DocId> Docs(std::initializer_list<std::string_view> paths) {
  std::vector<core::DocId> docs;
  for (const std::string_view path : paths) docs.push_back(Doc(path));
  return docs;
}

TEST(ModificationLog, CollectsWindowExclusiveInclusive) {
  core::ModificationLog log;
  log.Record(10, Doc("/a"));
  log.Record(20, Doc("/b"));
  log.Record(30, Doc("/c"));
  const auto window = log.CollectSince(10, 30, 100);
  EXPECT_EQ(window.docs, Docs({"/b", "/c"}));
  EXPECT_EQ(window.advanced_to, 30);
}

TEST(ModificationLog, EmptyWindowWhenNothingNew) {
  core::ModificationLog log;
  log.Record(10, Doc("/a"));
  EXPECT_TRUE(log.CollectSince(10, 50, 100).docs.empty());
  EXPECT_TRUE(log.CollectSince(50, 50, 100).docs.empty());
  EXPECT_TRUE(log.CollectSince(60, 50, 100).docs.empty());
}

TEST(ModificationLog, DeduplicatesUrls) {
  core::ModificationLog log;
  log.Record(10, Doc("/a"));
  log.Record(20, Doc("/a"));
  log.Record(30, Doc("/b"));
  const auto window = log.CollectSince(0, 40, 100);
  EXPECT_EQ(window.docs, Docs({"/a", "/b"}));
  EXPECT_EQ(window.advanced_to, 40);
}

TEST(ModificationLog, CapTruncatesAndHoldsCursor) {
  core::ModificationLog log;
  log.Record(10, Doc("/a"));
  log.Record(20, Doc("/b"));
  log.Record(30, Doc("/c"));
  const auto first = log.CollectSince(0, 100, 2);
  EXPECT_EQ(first.docs, Docs({"/a", "/b"}));
  EXPECT_EQ(first.advanced_to, 20);  // stops at the last included entry
  const auto rest = log.CollectSince(first.advanced_to, 100, 2);
  EXPECT_EQ(rest.docs, Docs({"/c"}));
  EXPECT_EQ(rest.advanced_to, 100);
}

TEST(ModificationLog, FutureModificationsExcluded) {
  core::ModificationLog log;
  log.Record(10, Doc("/a"));
  log.Record(99, Doc("/later"));
  const auto window = log.CollectSince(0, 50, 100);
  EXPECT_EQ(window.docs, Docs({"/a"}));
  EXPECT_EQ(window.advanced_to, 50);
}

// --- proxy cache support ------------------------------------------------------------

http::CacheEntry Entry(const std::string& url, const std::string& owner,
                       Time ttl) {
  http::CacheEntry entry;
  entry.key = http::ComposeCacheKey(url, owner);
  entry.url = url;
  entry.owner = owner;
  entry.size_bytes = 10;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

TEST(ProxyCachePiggyback, EraseByUrlRemovesAllOwners) {
  http::ProxyCache cache(1000, http::ReplacementPolicy::kLru);
  cache.Insert(Entry("/a", "alice", 100), 0);
  cache.Insert(Entry("/a", "bob", 100), 0);
  cache.Insert(Entry("/b", "alice", 100), 0);
  EXPECT_EQ(cache.EraseByUrl("/a"), 2u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.EraseByUrl("/a"), 0u);
  EXPECT_NE(PeekKey(cache, http::ComposeCacheKey("/b", "alice")), nullptr);
}

TEST(ProxyCachePiggyback, EraseByUrlAfterReplacement) {
  http::ProxyCache cache(1000, http::ReplacementPolicy::kLru);
  cache.Insert(Entry("/a", "alice", 100), 0);
  cache.Insert(Entry("/a", "alice", 200), 0);  // replace
  EXPECT_EQ(cache.EraseByUrl("/a"), 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ProxyCachePiggyback, TakeExpiredReturnsOnlyExpired) {
  http::ProxyCache cache(1000, http::ReplacementPolicy::kLru);
  cache.Insert(Entry("/old", "c", 10), 0);
  cache.Insert(Entry("/fresh", "c", 1000), 0);
  const auto expired = cache.TakeExpired(500, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->url, "/old");
}

TEST(ProxyCachePiggyback, TakeExpiredConsumesRecords) {
  http::ProxyCache cache(1000, http::ReplacementPolicy::kLru);
  cache.Insert(Entry("/a", "c", 10), 0);
  EXPECT_EQ(cache.TakeExpired(500, 10).size(), 1u);
  // Consumed: a second call finds nothing until re-armed.
  EXPECT_TRUE(cache.TakeExpired(500, 10).empty());
  http::CacheEntry* entry = PeekKey(cache, http::ComposeCacheKey("/a", "c"));
  ASSERT_NE(entry, nullptr);
  cache.SetTtlExpiry(*entry, 20);
  EXPECT_EQ(cache.TakeExpired(500, 10).size(), 1u);
}

TEST(ProxyCachePiggyback, TakeExpiredHonoursCap) {
  http::ProxyCache cache(10000, http::ReplacementPolicy::kLru);
  for (int i = 0; i < 20; ++i) {
    cache.Insert(Entry("/d" + std::to_string(i), "c", i + 1), 0);
  }
  EXPECT_EQ(cache.TakeExpired(500, 5).size(), 5u);
  EXPECT_EQ(cache.TakeExpired(500, 100).size(), 15u);
}

TEST(ProxyCachePiggyback, TakeExpiredSkipsErasedEntries) {
  http::ProxyCache cache(1000, http::ReplacementPolicy::kLru);
  cache.Insert(Entry("/a", "c", 10), 0);
  cache.Insert(Entry("/b", "c", 20), 0);
  EraseKey(cache, http::ComposeCacheKey("/a", "c"));
  const auto expired = cache.TakeExpired(500, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->url, "/b");
}

// --- replay behaviour ------------------------------------------------------------------

trace::Trace PiggybackTrace() {
  trace::WorkloadConfig config;
  config.duration = 3 * kHour;
  config.total_requests = 3000;
  config.num_documents = 100;
  config.num_clients = 50;
  config.revisit_probability = 0.2;
  config.seed = 31;
  return trace::GenerateTrace(config);
}

replay::ReplayConfig PiggybackConfigFor(const trace::Trace& trace,
                                        core::Protocol protocol) {
  replay::ReplayConfig config;
  config.protocol = protocol;
  config.trace = &trace;
  config.mean_lifetime = 4 * kHour;       // aggressive modification rate
  config.fixed_initial_age = 30 * kDay;   // long TTLs: staleness risk is real
  return config;
}

TEST(ReplayPsi, ReducesStaleServesVersusTtl) {
  const trace::Trace trace = PiggybackTrace();
  const auto ttl = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kAdaptiveTtl));
  const auto psi = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_GT(ttl.stale_serves, 0u);
  EXPECT_LT(psi.stale_serves, ttl.stale_serves);
  EXPECT_GT(psi.psi_notices, 0u);
  EXPECT_GT(psi.psi_entries_erased, 0u);
  // PSI adds no messages, only bytes on existing replies.
  EXPECT_EQ(psi.invalidations_sent, 0u);
}

TEST(ReplayPsi, RequestsStillResolveExactlyOnce) {
  const trace::Trace trace = PiggybackTrace();
  const auto psi = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_EQ(psi.local_hits + psi.validated_hits + psi.replies_200,
            psi.requests_issued);
  EXPECT_EQ(psi.strong_violations, 0u);
}

TEST(ReplayPcv, ReducesImsVersusTtl) {
  const trace::Trace trace = PiggybackTrace();
  // Short TTLs so entries keep expiring and needing validation.
  auto make = [&trace](core::Protocol protocol) {
    replay::ReplayConfig config = PiggybackConfigFor(trace, protocol);
    config.fixed_initial_age = 2 * kHour;
    config.ttl.min_ttl = kMinute;
    return config;
  };
  const auto ttl = RunReplay(make(core::Protocol::kAdaptiveTtl));
  const auto pcv = RunReplay(make(core::Protocol::kPiggybackValidation));
  EXPECT_GT(ttl.ims_requests, 0u);
  EXPECT_GT(pcv.pcv_items_piggybacked, 0u);
  // Entries validated for free on misses no longer cost an IMS.
  EXPECT_LT(pcv.ims_requests, ttl.ims_requests);
}

TEST(ReplayPcv, RequestsStillResolveExactlyOnce) {
  const trace::Trace trace = PiggybackTrace();
  const auto pcv = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackValidation));
  EXPECT_EQ(pcv.local_hits + pcv.validated_hits + pcv.replies_200,
            pcv.requests_issued);
  EXPECT_EQ(pcv.request_timeouts, 0u);
}

TEST(ReplayPcv, Deterministic) {
  const trace::Trace trace = PiggybackTrace();
  const auto a = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackValidation));
  const auto b = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackValidation));
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.pcv_items_piggybacked, b.pcv_items_piggybacked);
  EXPECT_EQ(a.pcv_invalidated, b.pcv_invalidated);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
}

TEST(ReplayPiggyback, BothRemainWeakerThanInvalidation) {
  const trace::Trace trace = PiggybackTrace();
  const auto invalidation = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kInvalidation));
  const auto psi = RunReplay(
      PiggybackConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_EQ(invalidation.stale_serves,
            invalidation.stale_while_invalidation_in_flight);
  // PSI may still serve stale between contacts; invalidation may not
  // (beyond in-flight windows).
  EXPECT_GE(psi.stale_serves, invalidation.stale_serves);
}

TEST(ReplayMulticast, OneNetworkMessagePerModification) {
  const trace::Trace trace = PiggybackTrace();
  replay::ReplayConfig unicast =
      PiggybackConfigFor(trace, core::Protocol::kInvalidation);
  replay::ReplayConfig multicast = unicast;
  multicast.fan_out = replay::FanOut::kMulticast;
  const auto uni = RunReplay(unicast);
  const auto multi = RunReplay(multicast);
  // Same logical invalidations and deliveries...
  EXPECT_EQ(multi.invalidations_sent, uni.invalidations_sent);
  EXPECT_EQ(multi.invalidations_delivered, multi.invalidations_sent);
  // ...but far fewer network messages and bytes from the server.
  EXPECT_GT(multi.multicast_sends, 0u);
  EXPECT_LT(multi.invalidation_messages(), uni.invalidation_messages());
  EXPECT_LT(multi.total_messages(), uni.total_messages());
  EXPECT_LT(multi.message_bytes, uni.message_bytes);
  EXPECT_EQ(multi.strong_violations, 0u);
  // The fan-out no longer scales the server's send time with list length.
  EXPECT_LT(multi.invalidation_time_ms.max(), uni.invalidation_time_ms.max());
}

}  // namespace
}  // namespace webcc
