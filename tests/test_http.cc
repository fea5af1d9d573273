// Unit tests for http/: document store, origin server, proxy cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "http/cache_key.h"
#include "http/document_store.h"
#include "http/origin.h"
#include "http/proxy_cache.h"
#include "named_cache.h"

namespace webcc::http {
namespace {

// --- DocumentStore ---------------------------------------------------------------

// The store indexes documents by id; tests name them by path.
const Document* FindPath(const DocumentStore& store, std::string_view path) {
  return store.Find(store.ids().docs.Find(path));
}

TEST(DocumentStore, AddAndFind) {
  DocumentStore store;
  EXPECT_TRUE(store.Add("/a", 100, 5));
  const Document* doc = FindPath(store, "/a");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->size_bytes, 100u);
  EXPECT_EQ(doc->last_modified, 5);
  EXPECT_EQ(doc->version, 1u);
}

TEST(DocumentStore, DuplicateAddRejected) {
  DocumentStore store;
  EXPECT_TRUE(store.Add("/a", 100, 0));
  EXPECT_FALSE(store.Add("/a", 200, 0));
  EXPECT_EQ(FindPath(store, "/a")->size_bytes, 100u);
}

TEST(DocumentStore, FindMissingReturnsNull) {
  DocumentStore store;
  EXPECT_EQ(FindPath(store, "/missing"), nullptr);
}

TEST(DocumentStore, TouchBumpsVersionAndMtime) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  EXPECT_TRUE(store.Touch("/a", 77));
  const Document* doc = FindPath(store, "/a");
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->last_modified, 77);
  EXPECT_TRUE(store.Touch("/a", 99));
  EXPECT_EQ(doc->version, 3u);
}

TEST(DocumentStore, TouchUnknownFails) {
  DocumentStore store;
  EXPECT_FALSE(store.Touch("/nope", 1));
}

TEST(DocumentStore, PointersStableAcrossAdds) {
  DocumentStore store;
  store.Add("/first", 1, 0);
  const Document* first = FindPath(store, "/first");
  for (int i = 0; i < 1000; ++i) {
    store.Add("/doc" + std::to_string(i), 1, 0);
  }
  EXPECT_EQ(FindPath(store, "/first"), first);
}

TEST(DocumentStore, TotalBytesAccumulates) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  store.Add("/b", 250, 0);
  EXPECT_EQ(store.total_bytes(), 350u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(DocumentStore, NegativeInitialMtimeAllowed) {
  DocumentStore store;
  store.Add("/old", 10, -50 * kDay);
  EXPECT_EQ(FindPath(store, "/old")->last_modified, -50 * kDay);
}

// --- OriginServer -----------------------------------------------------------------

// Requests name the document by its id in the store's space; a name the
// store never held resolves to kNoInternId.
net::DocRequest MakeGet(const DocumentStore& store, const std::string& url) {
  net::DocRequest request;
  request.type = net::MessageType::kGet;
  request.doc = store.ids().docs.Find(url);
  return request;
}

net::DocRequest MakeIms(const DocumentStore& store, const std::string& url,
                        Time since) {
  net::DocRequest request = MakeGet(store, url);
  request.type = net::MessageType::kIfModifiedSince;
  request.if_modified_since = since;
  return request;
}

TEST(OriginServer, GetReturns200WithBody) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  OriginServer origin(store);
  const auto reply = origin.Handle(MakeGet(store, "/a"), 100);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply200);
  EXPECT_EQ(reply->body_bytes, 4096u);
  EXPECT_EQ(reply->last_modified, 10);
  EXPECT_EQ(reply->version, 1u);
}

TEST(OriginServer, UnknownUrlIsNullopt) {
  DocumentStore store;
  OriginServer origin(store);
  EXPECT_FALSE(origin.Handle(MakeGet(store, "/missing"), 0).has_value());
}

TEST(OriginServer, ImsFreshReturns304) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  OriginServer origin(store);
  const auto reply = origin.Handle(MakeIms(store, "/a", 10), 100);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply304);
  EXPECT_EQ(reply->body_bytes, 0u);
}

TEST(OriginServer, ImsStaleReturns200) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  store.Touch("/a", 50);
  OriginServer origin(store);
  const auto reply = origin.Handle(MakeIms(store, "/a", 10), 100);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply200);
  EXPECT_EQ(reply->version, 2u);
  EXPECT_EQ(reply->last_modified, 50);
}

TEST(OriginServer, ImsWithLaterTimestampStill304) {
  // A client clock ahead of the server must not force a transfer.
  DocumentStore store;
  store.Add("/a", 100, 10);
  OriginServer origin(store);
  const auto reply = origin.Handle(MakeIms(store, "/a", 999), 1000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply304);
}

TEST(OriginServer, LeaseLeftUnstamped) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  OriginServer origin(store);
  EXPECT_EQ(origin.Handle(MakeGet(store, "/a"), 0)->lease_until, net::kNoLease);
}

// --- ProxyCache -------------------------------------------------------------------

// `owner`'s copy of `url`, keyed as the string-facing callers key it.
std::string Key(std::string_view url, std::string_view owner = "c") {
  return ComposeCacheKey(url, owner);
}

CacheEntry MakeEntry(const std::string& url, std::uint64_t size,
                     Time ttl_expires = kNeverExpires,
                     const std::string& owner = "c") {
  CacheEntry entry;
  entry.key = Key(url, owner);
  entry.url = url;
  entry.owner = owner;
  entry.size_bytes = size;
  entry.version = 1;
  entry.ttl_expires = ttl_expires;
  return entry;
}

TEST(CacheKey, SplitInvertsComposeOnly) {
  std::string_view url;
  std::string_view owner;
  // '@' in either part survives: the length prefix locates the separator.
  const std::string key = ComposeCacheKey("/a@b", "client@4000");
  ASSERT_TRUE(SplitCacheKey(key, url, owner));
  EXPECT_EQ(url, "/a@b");
  EXPECT_EQ(owner, "client@4000");
  ASSERT_TRUE(SplitCacheKey(ComposeCacheKey("", ""), url, owner));
  EXPECT_EQ(url, "");
  EXPECT_EQ(owner, "");
  // Strings ComposeCacheKey cannot produce are not keys.
  for (const std::string_view bad :
       {"/a@c", "", "2:/a", "2:/ab", "9:/a@c", ":/a@c", "x2:/a@c", "-1:/a@c",
        "99999999999999999999999:/a@c"}) {
    EXPECT_FALSE(SplitCacheKey(bad, url, owner)) << bad;
  }
}

TEST(ProxyCache, NamesBoundedByDistinctUrlsAndOwnersNotPairs) {
  // A long-running live proxy caches a stream of (url, client) pairs. The
  // cache must remember one name per distinct url and per distinct client —
  // not one composite key per pair ever cached — or its memory grows with
  // every pair even after the entries are evicted.
  ProxyCache cache(10 * 100, ReplacementPolicy::kLru);  // ten entries fit
  for (int u = 0; u < 100; ++u) {
    for (int c = 0; c < 100; ++c) {
      CacheEntry entry;
      entry.url = "/doc/" + std::to_string(u);
      entry.owner = "client-" + std::to_string(c) + "@4000";
      entry.key = ComposeCacheKey(entry.url, entry.owner);
      entry.size_bytes = 100;
      entry.version = 1;
      cache.Insert(std::move(entry), 0);
    }
  }
  EXPECT_EQ(cache.stats().insertions, 10000u);
  EXPECT_EQ(cache.entry_count(), 10u);
  EXPECT_LE(cache.ids().docs.size() + cache.ids().sites.size(), 200u);
  // Looking up a pair of never-seen names does not intern them either.
  EXPECT_EQ(cache.Lookup(ComposeCacheKey("/unknown", "stranger@1")), nullptr);
  EXPECT_LE(cache.ids().docs.size() + cache.ids().sites.size(), 200u);
  // The most recent pairs are resident; the first ones were evicted.
  EXPECT_NE(PeekKey(cache, ComposeCacheKey("/doc/99", "client-99@4000")),
            nullptr);
  EXPECT_EQ(PeekKey(cache, ComposeCacheKey("/doc/0", "client-0@4000")),
            nullptr);
}

TEST(ProxyCache, InsertAndLookup) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  CacheEntry* entry = cache.Lookup(Key("/a"));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->size_bytes, 100u);
  EXPECT_EQ(cache.bytes_used(), 100u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ProxyCache, LookupMissingIsNull) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  EXPECT_EQ(cache.Lookup(Key("/nope")), nullptr);
}

TEST(ProxyCache, InsertReplacesExisting) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  CacheEntry bigger = MakeEntry("/a", 300);
  bigger.version = 2;
  cache.Insert(bigger, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes_used(), 300u);
  EXPECT_EQ(cache.Lookup(Key("/a"))->version, 2u);
}

TEST(ProxyCache, EvictsLruWhenFull) {
  ProxyCache cache(300, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  cache.Insert(MakeEntry("/b", 100), 0);
  cache.Insert(MakeEntry("/c", 100), 0);
  cache.Lookup(Key("/a"));                      // touch /a: /b is now LRU
  cache.Insert(MakeEntry("/d", 100), 0);   // evicts /b
  EXPECT_NE(PeekKey(cache, Key("/a")), nullptr);
  EXPECT_EQ(PeekKey(cache, Key("/b")), nullptr);
  EXPECT_NE(PeekKey(cache, Key("/c")), nullptr);
  EXPECT_NE(PeekKey(cache, Key("/d")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ProxyCache, PeekDoesNotPromote) {
  ProxyCache cache(200, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  cache.Insert(MakeEntry("/b", 100), 0);
  PeekKey(cache, Key("/a"));                       // must NOT promote /a
  cache.Insert(MakeEntry("/c", 100), 0);  // evicts /a (still LRU)
  EXPECT_EQ(PeekKey(cache, Key("/a")), nullptr);
  EXPECT_NE(PeekKey(cache, Key("/b")), nullptr);
}

TEST(ProxyCache, ObjectLargerThanCapacityNotCached) {
  ProxyCache cache(100, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/big", 5000), 0);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ProxyCache, ExpiredFirstEvictsExpiredBeforeLru) {
  ProxyCache cache(300, ReplacementPolicy::kExpiredFirstLru);
  cache.Insert(MakeEntry("/fresh", 100, /*ttl=*/1000), 0);
  cache.Insert(MakeEntry("/expired", 100, /*ttl=*/10), 0);
  cache.Insert(MakeEntry("/strong", 100), 0);
  cache.Lookup(Key("/expired"));  // most recently used, but expired
  // At now=500 the expired entry must go first despite being MRU.
  cache.Insert(MakeEntry("/new", 100), 500);
  EXPECT_EQ(PeekKey(cache, Key("/expired")), nullptr);
  EXPECT_NE(PeekKey(cache, Key("/fresh")), nullptr);
  EXPECT_NE(PeekKey(cache, Key("/strong")), nullptr);
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
}

TEST(ProxyCache, ExpiredFirstFallsBackToLruWhenNoneExpired) {
  ProxyCache cache(200, ReplacementPolicy::kExpiredFirstLru);
  cache.Insert(MakeEntry("/a", 100, /*ttl=*/100000), 0);
  cache.Insert(MakeEntry("/b", 100, /*ttl=*/100000), 0);
  cache.Insert(MakeEntry("/c", 100, /*ttl=*/100000), 50);
  EXPECT_EQ(PeekKey(cache, Key("/a")), nullptr);  // plain LRU victim
  EXPECT_EQ(cache.stats().expired_evictions, 0u);
}

TEST(ProxyCache, SetTtlExpiryReindexes) {
  ProxyCache cache(200, ReplacementPolicy::kExpiredFirstLru);
  cache.Insert(MakeEntry("/a", 100, /*ttl=*/10), 0);
  CacheEntry* entry = cache.Lookup(Key("/a"));
  ASSERT_NE(entry, nullptr);
  // Revalidation extends the TTL; the old heap record must not evict it.
  cache.SetTtlExpiry(*entry, 100000);
  cache.Insert(MakeEntry("/b", 100, /*ttl=*/100000), 500);
  cache.Insert(MakeEntry("/c", 100, /*ttl=*/100000), 500);
  // /a had to be evicted by LRU (not as expired) or survive; it must not
  // have been evicted via the stale ttl=10 record.
  EXPECT_EQ(cache.stats().expired_evictions, 0u);
}

TEST(ProxyCache, EraseRemoves) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  EXPECT_TRUE(EraseKey(cache, Key("/a")));
  EXPECT_FALSE(EraseKey(cache, Key("/a")));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.stats().erased, 1u);
}

TEST(ProxyCache, MarkAllQuestionable) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100), 0);
  cache.Insert(MakeEntry("/b", 100), 0);
  cache.MarkAllQuestionable();
  EXPECT_TRUE(PeekKey(cache, Key("/a"))->questionable);
  EXPECT_TRUE(PeekKey(cache, Key("/b"))->questionable);
}

TEST(ProxyCache, MarkQuestionableWhereFilters) {
  ProxyCache cache(1000, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/a", 100, kNeverExpires, "alice"), 0);
  cache.Insert(MakeEntry("/a", 100, kNeverExpires, "bob"), 0);
  const std::size_t marked = cache.MarkQuestionableWhere(
      [](const CacheEntry& entry) { return entry.owner == "alice"; });
  EXPECT_EQ(marked, 1u);
  EXPECT_TRUE(PeekKey(cache, Key("/a", "alice"))->questionable);
  EXPECT_FALSE(PeekKey(cache, Key("/a", "bob"))->questionable);
}

TEST(ProxyCache, UnknownIdsMatchNothing) {
  // kNoInternId is what a by-name caller gets for a name the space never
  // saw, and the packed (kNoInternId, kNoInternId) key is ~0. No such
  // call may reach an entry, whether the index has no storage yet, holds
  // entries, or has had them all erased — in particular ~0 must never
  // match how the index marks an empty bucket.
  static constexpr core::InternId kNone = core::kNoInternId;
  ProxyCache cache(100000, ReplacementPolicy::kLru);
  const auto probe = [&cache] {
    const std::size_t entries = cache.entry_count();
    const std::uint64_t erased = cache.stats().erased;
    for (const auto& [site, doc] :
         {std::pair{kNone, kNone}, std::pair{kNone, core::InternId{0}},
          std::pair{core::InternId{0}, kNone}}) {
      if (cache.Lookup(site, doc) != nullptr ||
          cache.Peek(site, doc) != nullptr) {
        // Erasing through a bogus match would corrupt the cache.
        ADD_FAILURE() << "(" << site << ", " << doc << ") found an entry";
        return;
      }
      EXPECT_FALSE(cache.Erase(site, doc));
    }
    EXPECT_EQ(cache.EraseByUrl(kNone), 0u);
    EXPECT_EQ(cache.entry_count(), entries);
    EXPECT_EQ(cache.stats().erased, erased);
  };
  probe();
  if (HasFailure()) return;
  // Site 0 and doc 0 become real ids here, so the half-known pairs above
  // name a real site or document.
  for (int i = 0; i < 200; ++i) {
    cache.Insert(MakeEntry("/d" + std::to_string(i % 20), 10, kNeverExpires,
                           "c" + std::to_string(i / 20)),
                 0);
  }
  ASSERT_EQ(cache.entry_count(), 200u);
  probe();
  if (HasFailure()) return;
  for (core::DocId doc = 0; doc < 20; ++doc) cache.EraseByUrl(doc);
  ASSERT_EQ(cache.entry_count(), 0u);
  probe();
}

TEST(ProxyCache, Tier2HitEvictedByItsOwnPromotionIsAMiss) {
  // Expired-first with tier 2 on: /a is demoted while still fresh, has
  // expired by the time it is hit, and the hit promotes it. The promotion
  // overshoots tier 1, and the expired-first rule picks /a itself as the
  // victim. Its slot is freed, so the lookup must report a miss.
  TierConfig tier;
  tier.tier2_capacity_bytes = 10000;
  tier.promotion_hits = 1;
  tier.demotion_pressure = 1.0;
  ProxyCache cache(1000, ReplacementPolicy::kExpiredFirstLru, tier);
  cache.Insert(MakeEntry("/a", 400, /*ttl_expires=*/100), 0);
  cache.Insert(MakeEntry("/b", 400), 1);
  cache.Insert(MakeEntry("/c", 400), 2);  // demotes /a, the LRU tail
  ASSERT_EQ(cache.tier2_entry_count(), 1u);
  ASSERT_NE(PeekKey(cache, Key("/a")), nullptr);

  EXPECT_EQ(cache.Lookup(Key("/a"), 200), nullptr);
  EXPECT_EQ(cache.stats().tier2_promotions, 1u);
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(PeekKey(cache, Key("/a")), nullptr);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.tier1_bytes_used(), 800u);
  EXPECT_EQ(cache.tier2_bytes_used(), 0u);
  // The freed slot takes the next entry.
  cache.Insert(MakeEntry("/d", 100), 201);
  EXPECT_NE(PeekKey(cache, Key("/d")), nullptr);
  EXPECT_EQ(cache.entry_count(), 3u);
}

TEST(ProxyCache, ZeroSizeEntriesAllowed) {
  ProxyCache cache(100, ReplacementPolicy::kLru);
  cache.Insert(MakeEntry("/empty", 0), 0);
  EXPECT_NE(PeekKey(cache, Key("/empty")), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ProxyCache, ManyInsertionsStayWithinCapacity) {
  ProxyCache cache(1000, ReplacementPolicy::kExpiredFirstLru);
  for (int i = 0; i < 500; ++i) {
    cache.Insert(MakeEntry("/doc" + std::to_string(i), 90,
                           /*ttl=*/i * 10),
                 i * 5);
    EXPECT_LE(cache.bytes_used(), 1000u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace webcc::http
