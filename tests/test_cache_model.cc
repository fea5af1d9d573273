// Model-based property test: ProxyCache against a deliberately simple
// reference implementation.
//
// The production cache combines per-tier LRU lists, a hash index, a URL
// index, a lazy-deletion TTL heap and a pluggable eviction policy (with its
// own credit heap for GreedyDual-Size); the reference below is a pair of
// plain vectors with O(n) everything. Randomized operation sequences must
// keep the two in lockstep — membership, per-tier byte accounting, LRU /
// expired-first / GDS victims, demotions, promotions and tier-2 cleanup
// included. The GDS credit arithmetic is replicated operation-for-operation
// (same fixed-order double sums), so even its victims are bit-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "http/cache_key.h"
#include "http/proxy_cache.h"
#include "named_cache.h"
#include "util/rng.h"

namespace webcc::http {
namespace {

using eviction::EvictionPolicyKind;

// The reference: exact semantics, no cleverness.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t capacity, EvictionPolicyKind policy,
                 TierConfig tier = TierConfig{})
      : capacity_(capacity), policy_(policy), tier_(tier) {}

  struct Entry {
    std::string key;
    std::string url;
    std::uint64_t size = 0;
    Time ttl_expires = kNeverExpires;
    std::uint64_t stamp = 0;  // insertion order, for expiry tie-breaks
    std::uint32_t hits = 0;   // tier-2 promotion counter
    // GDS credit (meaningful only while the entry is in tier 1).
    double h = 0.0;
    std::uint64_t order = 0;
  };

  struct Stats {
    std::uint64_t evictions = 0;
    std::uint64_t expired_evictions = 0;
    std::uint64_t oversize_rejections = 0;
    std::uint64_t tier2_promotions = 0;
    std::uint64_t tier2_demotions = 0;
    std::uint64_t tier2_evictions = 0;
    std::uint64_t tier2_expired_cleaned = 0;
  };

  const Entry* Lookup(const std::string& key, Time now) {
    for (std::size_t i = 0; i < tier1_.size(); ++i) {
      if (tier1_[i].key != key) continue;
      MoveToFront(tier1_, i);
      if (policy_ == EvictionPolicyKind::kGds) GdsCredit(tier1_.front());
      return &tier1_.front();
    }
    for (std::size_t i = 0; i < tier2_.size(); ++i) {
      if (tier2_[i].key != key) continue;
      ++tier2_[i].hits;
      if (tier2_[i].hits >= tier_.promotion_hits &&
          tier2_[i].size <= capacity_) {
        return Promote(i, now);
      }
      MoveToFront(tier2_, i);
      return &tier2_.front();
    }
    return nullptr;
  }

  bool Contains(const std::string& key) const {
    const auto match = [&key](const Entry& e) { return e.key == key; };
    return std::any_of(tier1_.begin(), tier1_.end(), match) ||
           std::any_of(tier2_.begin(), tier2_.end(), match);
  }

  void Insert(Entry entry, Time now) {
    Erase(entry.key);
    if (tier_.enabled()) Tier2TtlCleanup(now);
    if (entry.size > capacity_) {
      if (tier_.enabled() && entry.size <= tier_.tier2_capacity_bytes) {
        InsertIntoTier2(std::move(entry));
        return;
      }
      ++stats_.oversize_rejections;
      return;
    }
    while (bytes1_ + entry.size > capacity_) DisplaceOne(now);
    entry.stamp = next_stamp_++;
    bytes1_ += entry.size;
    tier1_.insert(tier1_.begin(), std::move(entry));
    if (policy_ == EvictionPolicyKind::kGds) GdsCredit(tier1_.front());
    if (tier_.enabled()) {
      // Same expression as ProxyCache::DemotionWatermark, double for double.
      const auto watermark = static_cast<std::uint64_t>(
          tier_.demotion_pressure * static_cast<double>(capacity_));
      while (bytes1_ > watermark && !tier1_.empty()) DisplaceOne(now);
    }
  }

  bool Erase(const std::string& key) {
    return EraseIf([&key](const Entry& e) { return e.key == key; }) > 0;
  }

  std::size_t EraseByUrl(const std::string& url) {
    return EraseIf([&url](const Entry& e) { return e.url == url; });
  }

  std::uint64_t bytes() const { return bytes1_ + bytes2_; }
  std::uint64_t tier1_bytes() const { return bytes1_; }
  std::uint64_t tier2_bytes() const { return bytes2_; }
  std::size_t size() const { return tier1_.size() + tier2_.size(); }
  std::size_t tier2_size() const { return tier2_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  static void MoveToFront(std::vector<Entry>& entries, std::size_t i) {
    Entry entry = std::move(entries[i]);
    entries.erase(entries.begin() + static_cast<long>(i));
    entries.insert(entries.begin(), std::move(entry));
  }

  void GdsCredit(Entry& entry) {
    entry.h = gds_inflation_ +
              1.0 / static_cast<double>(std::max<std::uint64_t>(entry.size, 1));
    entry.order = next_order_++;
  }

  template <typename Pred>
  std::size_t EraseIf(Pred pred) {
    std::size_t erased = 0;
    for (std::vector<Entry>* tier : {&tier1_, &tier2_}) {
      for (std::size_t i = tier->size(); i > 0; --i) {
        const Entry& entry = (*tier)[i - 1];
        if (!pred(entry)) continue;
        (tier == &tier1_ ? bytes1_ : bytes2_) -= entry.size;
        tier->erase(tier->begin() + static_cast<long>(i - 1));
        ++erased;
      }
    }
    return erased;
  }

  // Victim choice, mirroring each policy's PickVictim. Returns the tier-1
  // index plus whether the expired-first rule (rather than plain recency)
  // chose it.
  struct Victim {
    std::size_t index = 0;
    bool expired_rule = false;
  };

  Victim PickVictim(Time now) {
    if (policy_ == EvictionPolicyKind::kExpiredFirstLru) {
      // The production TTL heap is shared across tiers and pops by
      // (expiry, stamp); if the globally-earliest expired record belongs
      // to a tier-2 entry the policy falls back to the LRU tail.
      bool found = false;
      bool in_tier1 = false;
      std::size_t index = 0;
      Time earliest = kNeverExpires;
      std::uint64_t earliest_stamp = 0;
      for (const std::vector<Entry>* tier : {&tier1_, &tier2_}) {
        for (std::size_t i = 0; i < tier->size(); ++i) {
          const Entry& entry = (*tier)[i];
          if (entry.ttl_expires > now) continue;
          if (!found || entry.ttl_expires < earliest ||
              (entry.ttl_expires == earliest &&
               entry.stamp < earliest_stamp)) {
            found = true;
            in_tier1 = tier == &tier1_;
            index = i;
            earliest = entry.ttl_expires;
            earliest_stamp = entry.stamp;
          }
        }
      }
      if (found && in_tier1) return {index, true};
      return {tier1_.size() - 1, false};
    }
    if (policy_ == EvictionPolicyKind::kGds) {
      std::size_t index = 0;
      for (std::size_t i = 1; i < tier1_.size(); ++i) {
        const Entry& best = tier1_[index];
        const Entry& candidate = tier1_[i];
        if (candidate.h < best.h ||
            (candidate.h == best.h && candidate.order < best.order)) {
          index = i;
        }
      }
      gds_inflation_ = tier1_[index].h;
      return {index, false};
    }
    return {tier1_.size() - 1, false};  // plain LRU
  }

  void DisplaceOne(Time now) {
    ASSERT_FALSE(tier1_.empty());
    const Victim victim = PickVictim(now);
    Entry entry = std::move(tier1_[victim.index]);
    tier1_.erase(tier1_.begin() + static_cast<long>(victim.index));
    bytes1_ -= entry.size;
    if (tier_.enabled() && !victim.expired_rule &&
        entry.size <= tier_.tier2_capacity_bytes) {
      entry.hits = 0;
      bytes2_ += entry.size;
      tier2_.insert(tier2_.begin(), std::move(entry));
      ++stats_.tier2_demotions;
      while (bytes2_ > tier_.tier2_capacity_bytes) EvictTier2Tail();
      return;
    }
    ++stats_.evictions;
    if (victim.expired_rule) ++stats_.expired_evictions;
  }

  void EvictTier2Tail() {
    ASSERT_FALSE(tier2_.empty());
    bytes2_ -= tier2_.back().size;
    tier2_.pop_back();
    ++stats_.evictions;
    ++stats_.tier2_evictions;
  }

  void InsertIntoTier2(Entry entry) {
    entry.stamp = next_stamp_++;
    entry.hits = 0;
    while (bytes2_ + entry.size > tier_.tier2_capacity_bytes) {
      EvictTier2Tail();
    }
    bytes2_ += entry.size;
    tier2_.insert(tier2_.begin(), std::move(entry));
  }

  const Entry* Promote(std::size_t i, Time now) {
    Entry entry = std::move(tier2_[i]);
    tier2_.erase(tier2_.begin() + static_cast<long>(i));
    bytes2_ -= entry.size;
    entry.hits = 0;
    bytes1_ += entry.size;
    tier1_.insert(tier1_.begin(), std::move(entry));
    if (policy_ == EvictionPolicyKind::kGds) GdsCredit(tier1_.front());
    ++stats_.tier2_promotions;
    while (bytes1_ > capacity_ && tier1_.size() > 1) DisplaceOne(now);
    return &tier1_.front();
  }

  void Tier2TtlCleanup(Time now) {
    // Production scans up to ttl_cleanup_per_tick entries from the cold end
    // and reclaims the expired ones among them.
    std::size_t scanned = 0;
    for (std::size_t i = tier2_.size();
         i > 0 && scanned < tier_.ttl_cleanup_per_tick; --i, ++scanned) {
      if (tier2_[i - 1].ttl_expires > now) continue;
      bytes2_ -= tier2_[i - 1].size;
      tier2_.erase(tier2_.begin() + static_cast<long>(i - 1));
      ++stats_.tier2_expired_cleaned;
    }
  }

  std::uint64_t capacity_;
  EvictionPolicyKind policy_;
  TierConfig tier_;
  std::uint64_t bytes1_ = 0;
  std::uint64_t bytes2_ = 0;
  std::uint64_t next_stamp_ = 1;
  double gds_inflation_ = 0.0;
  std::uint64_t next_order_ = 0;
  Stats stats_;
  std::vector<Entry> tier1_;
  std::vector<Entry> tier2_;
};

CacheEntry MakeEntry(int doc, int owner, std::uint64_t size, Time ttl) {
  CacheEntry entry;
  entry.url = "/d" + std::to_string(doc);
  entry.owner = "c" + std::to_string(owner);
  entry.key = ComposeCacheKey(entry.url, entry.owner);
  entry.size_bytes = size;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

struct ModelParams {
  EvictionPolicyKind policy;
  bool tiered;
  std::uint64_t seed;
};

class CacheModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(CacheModelTest, RandomOperationsStayInLockstep) {
  const ModelParams params = GetParam();
  constexpr std::uint64_t kCapacity = 2000;
  TierConfig tier;
  if (params.tiered) {
    tier.tier2_capacity_bytes = 3000;
    tier.promotion_hits = 2;
    tier.demotion_pressure = 0.7;
    tier.ttl_cleanup_per_tick = 2;  // small: exercises partial sweeps
  }
  ProxyCache cache(kCapacity, params.policy, tier);
  ReferenceCache reference(kCapacity, params.policy, tier);
  util::Rng rng(params.seed);

  Time now = 0;
  for (int step = 0; step < 6000; ++step) {
    now += static_cast<Time>(rng.NextBelow(50));
    const int doc = static_cast<int>(rng.NextBelow(12));
    const int owner = static_cast<int>(rng.NextBelow(3));
    const std::string key = ComposeCacheKey("/d" + std::to_string(doc),
                                            "c" + std::to_string(owner));

    switch (rng.NextBelow(6)) {
      case 0:
      case 1: {  // insert
        // Distinct sizes/TTLs exercise both eviction paths; TTLs near `now`
        // flip between fresh and expired as time advances. The occasional
        // tier-1-oversize object lands in tier 2 (or is rejected untiered).
        const std::uint64_t size = rng.NextBool(0.05)
                                       ? 2200
                                       : 100 + rng.NextBelow(400);
        const Time ttl = rng.NextBool(0.3)
                             ? kNeverExpires
                             : now + static_cast<Time>(rng.NextBelow(120)) -
                                   40;
        cache.Insert(MakeEntry(doc, owner, size, ttl), now);
        ReferenceCache::Entry entry;
        entry.key = key;
        entry.url = "/d" + std::to_string(doc);
        entry.size = size;
        entry.ttl_expires = ttl;
        reference.Insert(entry, now);
        break;
      }
      case 2:
      case 3: {  // lookup (promotes in both; the extra weight vs the old
                 // sweep drives tier-2 hit counters toward promotion)
        CacheEntry* got = cache.Lookup(key, now);
        const auto* expected = reference.Lookup(key, now);
        ASSERT_EQ(got != nullptr, expected != nullptr) << "step " << step;
        if (got != nullptr) {
          EXPECT_EQ(got->size_bytes, expected->size);
          EXPECT_EQ(got->ttl_expires, expected->ttl_expires);
        }
        break;
      }
      case 4: {  // erase
        EXPECT_EQ(EraseKey(cache, key), reference.Erase(key))
            << "step " << step;
        break;
      }
      case 5: {  // erase by url
        const std::string url = "/d" + std::to_string(doc);
        EXPECT_EQ(cache.EraseByUrl(url), reference.EraseByUrl(url))
            << "step " << step;
        break;
      }
    }

    ASSERT_EQ(cache.bytes_used(), reference.bytes())
        << "step " << step << " at now=" << now;
    ASSERT_EQ(cache.tier1_bytes_used(), reference.tier1_bytes())
        << "step " << step;
    ASSERT_EQ(cache.tier2_bytes_used(), reference.tier2_bytes())
        << "step " << step;
    ASSERT_EQ(cache.entry_count(), reference.size()) << "step " << step;
    ASSERT_EQ(cache.tier2_entry_count(), reference.tier2_size())
        << "step " << step;
  }

  // The whole decision history must match, not just the final occupancy.
  const ProxyCacheStats& got = cache.stats();
  const ReferenceCache::Stats& want = reference.stats();
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.expired_evictions, want.expired_evictions);
  EXPECT_EQ(got.oversize_rejections, want.oversize_rejections);
  EXPECT_EQ(got.tier2_promotions, want.tier2_promotions);
  EXPECT_EQ(got.tier2_demotions, want.tier2_demotions);
  EXPECT_EQ(got.tier2_evictions, want.tier2_evictions);
  EXPECT_EQ(got.tier2_expired_cleaned, want.tier2_expired_cleaned);

  // Final membership sweep.
  for (int doc = 0; doc < 12; ++doc) {
    for (int owner = 0; owner < 3; ++owner) {
      const std::string key = ComposeCacheKey("/d" + std::to_string(doc),
                                              "c" + std::to_string(owner));
      EXPECT_EQ(PeekKey(cache, key) != nullptr, reference.Contains(key)) << key;
    }
  }
}

std::vector<ModelParams> Sweep() {
  std::vector<ModelParams> params;
  std::uint64_t seed = 1;
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    for (const bool tiered : {false, true}) {
      for (int i = 0; i < 3; ++i) {
        params.push_back(ModelParams{policy, tiered, seed++});
      }
    }
  }
  return params;
}

std::string SweepName(const ::testing::TestParamInfo<ModelParams>& info) {
  std::string name;
  switch (info.param.policy) {
    case EvictionPolicyKind::kLru:
      name = "Lru";
      break;
    case EvictionPolicyKind::kExpiredFirstLru:
      name = "ExpiredFirst";
      break;
    case EvictionPolicyKind::kGds:
      name = "Gds";
      break;
  }
  name += info.param.tiered ? "Tiered" : "Flat";
  return name + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheModelTest,
                         ::testing::ValuesIn(Sweep()), SweepName);

}  // namespace
}  // namespace webcc::http
