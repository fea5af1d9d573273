// Unit and property tests for the million-site lease machinery (ROADMAP
// item 4): CompactSiteList, TimerWheel, and the rebuilt InvalidationTable's
// wheel-driven prune. The property test is the load-bearing one — it proves
// the wheel changes WHEN expiry work happens but never WHAT expires, by
// driving 10^5 seeded (grant, expiry) pairs through the real table and a
// reference model that scans every entry the way the old prune did.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/invalidation_table.h"
#include "core/lease.h"
#include "core/site_list.h"
#include "core/timer_wheel.h"
#include "named_table.h"
#include "obs/trace_sink.h"

namespace webcc::core {
namespace {

// Builds "prefix<n>" without the `const char* + string&&` operator, which
// GCC 12 flags with a spurious -Wrestrict when inlined.
std::string Name(std::string prefix, int n) {
  prefix += std::to_string(n);
  return prefix;
}

// --- compact site list ------------------------------------------------------

TEST(CompactSiteList, UpsertFindErase) {
  CompactSiteList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.Find(7u), nullptr);

  auto [slot, inserted] = list.Upsert(7u, 100);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 100);
  EXPECT_EQ(list.size(), 1u);

  // Upsert of a present key finds the slot and leaves the value alone —
  // refresh semantics belong to the caller.
  auto [again, second] = list.Upsert(7u, 999);
  EXPECT_FALSE(second);
  EXPECT_EQ(*again, 100);
  *again = 250;
  EXPECT_EQ(*list.Find(7u), 250);

  EXPECT_TRUE(list.Erase(7u));
  EXPECT_FALSE(list.Erase(7u));
  EXPECT_EQ(list.Find(7u), nullptr);
  EXPECT_TRUE(list.empty());
}

TEST(CompactSiteList, SurvivesGrowthAndTombstoneChurn) {
  CompactSiteList list;
  // Sequential dense ids are the adversarial input for an identity hash;
  // the Fibonacci mix must keep probe chains finite through growth.
  for (InternId id = 0; id < 5000; ++id) list.Upsert(id, id * 10);
  EXPECT_EQ(list.size(), 5000u);
  for (InternId id = 0; id < 5000; id += 2) EXPECT_TRUE(list.Erase(id));
  EXPECT_EQ(list.size(), 2500u);
  // Re-insert into tombstoned territory, then verify every survivor.
  for (InternId id = 0; id < 5000; id += 4) list.Upsert(id, id * 10 + 1);
  for (InternId id = 0; id < 5000; ++id) {
    const Time* found = list.Find(id);
    if (id % 4 == 0) {
      ASSERT_NE(found, nullptr) << id;
      EXPECT_EQ(*found, id * 10 + 1);
    } else if (id % 2 == 0) {
      EXPECT_EQ(found, nullptr) << id;
    } else {
      ASSERT_NE(found, nullptr) << id;
      EXPECT_EQ(*found, id * 10);
    }
  }
}

TEST(CompactSiteList, ForEachVisitsEveryPresentEntryOnce) {
  CompactSiteList list;
  for (InternId id = 0; id < 100; ++id) list.Upsert(id, id);
  for (InternId id = 10; id < 20; ++id) list.Erase(id);
  std::set<InternId> seen;
  list.ForEach([&](InternId site, Time lease) {
    EXPECT_EQ(lease, static_cast<Time>(site));
    EXPECT_TRUE(seen.insert(site).second) << "visited twice: " << site;
  });
  EXPECT_EQ(seen.size(), 90u);
  EXPECT_EQ(seen.count(15u), 0u);
}

TEST(CompactSiteList, TwelveBytesPerSlot) {
  CompactSiteList list;
  for (InternId id = 0; id < 1000; ++id) list.Upsert(id, id);
  // Parallel 4-byte-id / 8-byte-time arrays: exactly 12 bytes per slot, and
  // occupancy at least the 7/16 the post-rehash load factor guarantees.
  const double per_entry =
      static_cast<double>(list.MemoryFootprintBytes()) / list.size();
  EXPECT_GE(per_entry, 12.0);
  EXPECT_LE(per_entry, 12.0 * 16 / 7);
}

// --- timer wheel ------------------------------------------------------------

// Authority backed by a map: the table stand-in for wheel unit tests.
struct MapAuthority {
  std::map<std::pair<InternId, InternId>, Time> leases;
  std::vector<std::pair<InternId, InternId>> dropped;

  auto Callback(Time now) {
    return [this, now](InternId url, InternId site) -> Time {
      const auto it = leases.find({url, site});
      if (it == leases.end()) return net::kNoLease;  // stale wheel entry
      if (it->second > now) return it->second;
      dropped.push_back({url, site});
      leases.erase(it);
      return now;  // expired and handled
    };
  }
};

TEST(TimerWheel, ExactHalfOpenExpiryBoundary) {
  TimerWheel wheel;
  wheel.Configure(/*granularity=*/kMinute, /*slots=*/64);
  MapAuthority table;
  const Time expiry = 10 * kMinute + 30;  // mid-slot, not slot-aligned
  table.leases[{1, 2}] = expiry;
  wheel.Schedule(1, 2, expiry);

  // One tick before expiry the lease is still in force ([grant, expiry)).
  wheel.Advance(expiry - 1, table.Callback(expiry - 1));
  EXPECT_TRUE(table.dropped.empty());
  EXPECT_EQ(wheel.scheduled(), 1u);
  // At the exact expiry instant the lease is already dead — even though
  // the cursor never left the slot (cursor-slot revisiting).
  wheel.Advance(expiry, table.Callback(expiry));
  ASSERT_EQ(table.dropped.size(), 1u);
  EXPECT_EQ(wheel.scheduled(), 0u);
}

TEST(TimerWheel, LazyRenewalReschedulesInsteadOfDropping) {
  TimerWheel wheel;
  wheel.Configure(kMinute, 64);
  MapAuthority table;
  table.leases[{1, 2}] = 5 * kMinute;
  wheel.Schedule(1, 2, 5 * kMinute);
  // The lease is renewed without touching the wheel (Register's renewal
  // path): the old slot's visit must find it alive and reschedule.
  table.leases[{1, 2}] = 20 * kMinute;
  wheel.Advance(10 * kMinute, table.Callback(10 * kMinute));
  EXPECT_TRUE(table.dropped.empty());
  EXPECT_EQ(wheel.scheduled(), 1u);  // rescheduled at the renewed expiry
  wheel.Advance(20 * kMinute, table.Callback(20 * kMinute));
  EXPECT_EQ(table.dropped.size(), 1u);
}

TEST(TimerWheel, StaleEntriesAreForgotten) {
  TimerWheel wheel;
  wheel.Configure(kMinute, 64);
  MapAuthority table;  // entry never added: list was taken before the visit
  wheel.Schedule(1, 2, 5 * kMinute);
  wheel.Advance(10 * kMinute, table.Callback(10 * kMinute));
  EXPECT_TRUE(table.dropped.empty());
  EXPECT_EQ(wheel.scheduled(), 0u);
}

TEST(TimerWheel, BeyondHorizonExpiryClampsAndStaysExact) {
  // A tiny wheel (4 slots) with an expiry many revolutions out: Schedule
  // clamps to the furthest slot and each visit reschedules, so the drop
  // still happens at exactly the authoritative expiry.
  TimerWheel wheel;
  wheel.Configure(/*granularity=*/10, /*slots=*/4);
  MapAuthority table;
  const Time expiry = 1000;
  table.leases[{1, 2}] = expiry;
  wheel.Schedule(1, 2, expiry);
  for (Time now = 25; now < expiry; now += 25) {
    wheel.Advance(now, table.Callback(now));
    EXPECT_TRUE(table.dropped.empty()) << "dropped early at " << now;
    EXPECT_EQ(wheel.scheduled(), 1u);
  }
  wheel.Advance(expiry, table.Callback(expiry));
  EXPECT_EQ(table.dropped.size(), 1u);
}

TEST(TimerWheel, LongIdleGapVisitsEachSlotOnce) {
  TimerWheel wheel;
  wheel.Configure(10, 8);
  MapAuthority table;
  for (InternId site = 0; site < 8; ++site) {
    const Time expiry = 10 * site + 5;
    table.leases[{1, site}] = expiry;
    wheel.Schedule(1, site, expiry);
  }
  // One Advance spanning many revolutions must drop everything exactly once
  // (the visit range is clamped to one revolution, modulo covers all).
  wheel.Advance(100000, table.Callback(100000));
  EXPECT_EQ(table.dropped.size(), 8u);
  EXPECT_EQ(wheel.scheduled(), 0u);
}

TEST(TimerWheel, OutOfOrderAdvanceNeverMovesCursorBack) {
  TimerWheel wheel;
  wheel.Configure(kMinute, 64);
  MapAuthority table;
  wheel.Advance(30 * kMinute, table.Callback(30 * kMinute));
  // An entry due "in the past" relative to the cursor lands in the cursor
  // slot and dies on the next Advance, even one with an earlier `now`.
  table.leases[{1, 2}] = 5 * kMinute;
  wheel.Schedule(1, 2, 5 * kMinute);
  wheel.Advance(10 * kMinute, table.Callback(10 * kMinute));
  EXPECT_EQ(table.dropped.size(), 1u);
  EXPECT_EQ(wheel.scheduled(), 0u);
}

// --- invalidation table: wheel-driven prune ≡ full scan ---------------------

// Reference model of the pre-wheel table: every operation scans, exactly
// like the old unordered_map implementation (semantics, not layout).
struct ScanModel {
  std::map<std::pair<std::string, std::string>, Time> entries;
  std::uint64_t expired = 0;

  void Restore(const std::string& url, const std::string& site, Time lease,
               Time now) {
    if (!LeaseActive(lease, now)) return;
    auto [it, inserted] = entries.try_emplace({url, site}, lease);
    if (!inserted && it->second != net::kNoLease &&
        (lease == net::kNoLease || lease > it->second)) {
      it->second = lease;
    }
  }

  std::vector<std::string> Take(const std::string& url, Time now) {
    std::vector<std::string> sites;
    for (auto it = entries.lower_bound({url, ""});
         it != entries.end() && it->first.first == url;) {
      if (LeaseActive(it->second, now)) {
        sites.push_back(it->first.second);
      } else {
        ++expired;
      }
      it = entries.erase(it);
    }
    return sites;  // std::map iterates site-sorted already
  }

  // Returns the dropped set as "url|site|lease" keys for set comparison.
  std::set<std::string> Prune(Time now) {
    std::set<std::string> dropped;
    for (auto it = entries.begin(); it != entries.end();) {
      if (!LeaseActive(it->second, now)) {
        dropped.insert(it->first.first + "|" + it->first.second + "|" +
                       std::to_string(it->second));
        ++expired;
        it = entries.erase(it);
      } else {
        ++it;
      }
    }
    return dropped;
  }
};

TEST(InvalidationTableProperty, WheelPruneMatchesFullScanOver1e5Pairs) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kHour;  // wheel revolution: 2h; expiries run far past it
  NamedTable table(lease);
  ScanModel model;
  std::mt19937 rng(0x5eed);

  const int kUrls = 97;
  const int kSites = 311;
  const Time kSpan = 4 * kHour;  // exercises the horizon clamp heavily
  std::uniform_int_distribution<int> url_of(0, kUrls - 1);
  std::uniform_int_distribution<int> site_of(0, kSites - 1);
  std::uniform_int_distribution<Time> lease_len(1, kSpan);

  Time now = 0;
  std::size_t pairs = 0;
  while (pairs < 100000) {
    // A burst of inserts/renewals at `now` (Restore lets the test pick
    // arbitrary expiries; its refresh rule matches Register's).
    const int burst = 200;
    for (int i = 0; i < burst; ++i, ++pairs) {
      const std::string url = Name("/u", url_of(rng));
      const std::string site = Name("s", site_of(rng));
      const Time until = now + lease_len(rng);
      table.Restore(url, site, until, now);
      model.Restore(url, site, until, now);
    }
    // Occasionally a modification takes a whole list on both sides.
    if (pairs % 1700 == 0) {
      const std::string url = Name("/u", url_of(rng));
      EXPECT_EQ(table.TakeSitesForInvalidation(url, now),
                model.Take(url, now));
    }
    // Advance time and prune; the dropped sets must be identical.
    now += std::uniform_int_distribution<Time>(0, kSpan / 8)(rng);
    std::vector<InvalidationTable::ExpiredEntry> dropped;
    table.PruneExpiredInto(now, dropped);
    std::set<std::string> wheel_dropped;
    for (const auto& e : dropped) {
      wheel_dropped.insert(std::string(e.url) + "|" + std::string(e.site) +
                           "|" + std::to_string(e.lease_until));
    }
    ASSERT_EQ(wheel_dropped, model.Prune(now)) << "at t=" << now;
  }

  // Drain everything left and compare the final tables entry-for-entry.
  now += 2 * kSpan;
  std::vector<InvalidationTable::ExpiredEntry> dropped;
  table.PruneExpiredInto(now, dropped);
  model.Prune(now);
  EXPECT_TRUE(model.entries.empty());
  EXPECT_EQ(table.TotalEntries(), 0u);
  EXPECT_EQ(table.leases_expired(), model.expired);
}

TEST(InvalidationTable, TakePathEmitsLeaseExpiryForLapsedEntries) {
  // Regression (ISSUE 7): TakeSitesWithLeases used to discard expired
  // entries silently while erasing the list — they never emitted
  // kLeaseExpiry, so the §8 reconciliation (expiry events == entries
  // retired by lapse) undercounted. Both retirement paths must account.
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kDay;
  NamedTable table(lease);
  obs::BufferTraceSink sink;
  table.set_trace_sink(&sink);
  table.Register("/a", "c-dead", net::MessageType::kGet, 0);  // expires 24h
  table.Register("/a", "c-live", net::MessageType::kGet, 20 * kHour);

  const auto sites = table.TakeSitesForInvalidation("/a", 30 * kHour);
  EXPECT_EQ(sites, std::vector<std::string>{"c-live"});
  EXPECT_EQ(table.leases_expired(), 1u);
  const std::string trace = sink.Text();
  EXPECT_NE(trace.find("lease_expiry"), std::string::npos);
  EXPECT_NE(trace.find("c-dead"), std::string::npos);
}

TEST(InvalidationTable, ExpiryCounterReconcilesAcrossBothPaths) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kHour;
  NamedTable table(lease);
  obs::BufferTraceSink sink;
  table.set_trace_sink(&sink);
  for (int i = 0; i < 6; ++i) {
    table.Register("/a", Name("a", i), net::MessageType::kGet, 0);
    table.Register("/b", Name("b", i), net::MessageType::kGet, 0);
  }
  table.Register("/a", "late", net::MessageType::kGet, 90 * kMinute);
  // /a retires its 6 lapsed entries through the take path, /b through the
  // prune path; the counter and the event stream agree with both.
  table.TakeSitesForInvalidation("/a", 2 * kHour);
  table.PruneExpired(2 * kHour);
  EXPECT_EQ(table.leases_expired(), 12u);
  const std::string trace = sink.Text();
  std::size_t events = 0;
  for (std::size_t pos = trace.find("lease_expiry"); pos != std::string::npos;
       pos = trace.find("lease_expiry", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 12u);
}

TEST(InvalidationTable, RenewalRefreshesInPlace) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kHour;
  NamedTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  EXPECT_EQ(table.lease_renewals(), 0u);
  table.Register("/a", "c1", net::MessageType::kGet, 30 * kMinute);
  EXPECT_EQ(table.lease_renewals(), 1u);
  EXPECT_EQ(table.TotalEntries(), 1u);
  // The renewed lease survives past the original expiry and dies at the
  // renewed one — the wheel's lazy reschedule, observed through the table.
  EXPECT_EQ(table.PruneExpired(kHour), 0u);
  EXPECT_EQ(table.ListLength("/a", 80 * kMinute), 1u);
  EXPECT_EQ(table.PruneExpired(90 * kMinute), 1u);
  EXPECT_EQ(table.TotalEntries(), 0u);
}

TEST(InvalidationTable, RestoreDropsDeadLeases) {
  // Regression (ISSUE 7): Restore used to resurrect already-expired leases
  // verbatim, inflating entries/storage_bytes after journal recovery and
  // seeding the wheel with dead slots.
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kHour;
  NamedTable table(lease);
  EXPECT_FALSE(table.Restore("/a", "stale", 30 * kMinute, kHour));
  EXPECT_FALSE(table.Restore("/a", "boundary", kHour, kHour));  // half-open
  EXPECT_TRUE(table.Restore("/a", "alive", kHour + 1, kHour));
  EXPECT_EQ(table.TotalEntries(), 1u);
  const auto entries = table.SnapshotEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].site, "alive");
}

}  // namespace
}  // namespace webcc::core
