#include "http/proxy_cache.h"

#include <algorithm>
#include <utility>

#include "http/cache_key.h"
#include "util/check.h"

namespace webcc::http {

ProxyCache::ProxyCache(std::uint64_t capacity_bytes, ReplacementPolicy policy,
                       TierConfig tier, core::IdSpace* ids)
    : capacity_bytes_(capacity_bytes),
      tier_(tier),
      policy_(eviction::MakeEvictionPolicy(policy)),
      owned_ids_(ids == nullptr ? std::make_unique<core::IdSpace>() : nullptr),
      ids_(ids == nullptr ? owned_ids_.get() : ids) {}

CacheEntry* ProxyCache::Lookup(core::SiteId site, core::DocId doc, Time now) {
  const auto it = index_.find(core::PackSiteDoc(site, doc));
  if (it == index_.end()) return nullptr;
  CacheEntry& entry = *it->second;
  if (entry.tier2_) {
    ++entry.tier2_hits_;
    // Promote a proven-hot entry back into tier 1 — unless it could never
    // fit there (it stays a tier-2 resident for its lifetime).
    if (entry.tier2_hits_ >= tier_.promotion_hits &&
        entry.size_bytes <= capacity_bytes_) {
      PromoteFromTier2(it->second, now);
    } else {
      tier2_lru_.splice(tier2_lru_.begin(), tier2_lru_, it->second);
    }
  } else {
    lru_.splice(lru_.begin(), lru_, it->second);
    policy_->OnHit(ViewOf(entry));
  }
  return &*it->second;
}

CacheEntry* ProxyCache::Lookup(const std::string& key, Time now) {
  std::string_view url;
  std::string_view owner;
  if (!SplitCacheKey(key, url, owner)) return nullptr;
  // Find, not Intern: a lookup of never-seen names must not grow the space
  // (and their kNoInternId pair indexes no entry).
  return Lookup(ids_->sites.Find(owner), ids_->docs.Find(url), now);
}

CacheEntry* ProxyCache::Peek(core::SiteId site, core::DocId doc) {
  const auto it = index_.find(core::PackSiteDoc(site, doc));
  return it == index_.end() ? nullptr : &*it->second;
}

void ProxyCache::PushTtlItem(CacheEntry& entry) {
  if (entry.ttl_expires == kNeverExpires) return;
  ttl_heap_.Push(entry.ttl_expires, entry.heap_stamp_, KeyOf(entry));
  entry.heap_record_live_ = true;
}

void ProxyCache::CompactTtlHeap() {
  ttl_heap_.CompactIfStale([this](const eviction::ExpiryRecord& r) {
    const auto it = index_.find(r.key);
    return it != index_.end() && it->second->heap_stamp_ == r.stamp;
  });
}

std::uint64_t ProxyCache::DemotionWatermark() const {
  return static_cast<std::uint64_t>(tier_.demotion_pressure *
                                    static_cast<double>(capacity_bytes_));
}

void ProxyCache::EmitEviction(const CacheEntry& entry, Time now,
                              std::int64_t detail) {
  obs::Emit(trace_sink_, {.type = obs::EventType::kEviction,
                          .at = now,
                          .url = ids_->DocName(entry.doc),
                          .site = ids_->SiteName(entry.site),
                          .detail = detail});
}

void ProxyCache::Insert(CacheEntry entry, Time now) {
  if (entry.doc == core::kNoInternId) entry.doc = ids_->docs.Intern(entry.url);
  if (entry.site == core::kNoInternId) {
    entry.site = ids_->sites.Intern(entry.owner);
  }
  EraseByKey(KeyOf(entry));  // replace semantics
  if (tier_.enabled()) Tier2TtlCleanup(now);
  if (entry.size_bytes > capacity_bytes_) {
    // Too large for tier 1; the second tier takes it when it fits there.
    if (tier_.enabled() && entry.size_bytes <= tier_.tier2_capacity_bytes) {
      InsertIntoTier2(std::move(entry), now);
      return;
    }
    ++stats_.oversize_rejections;
    EmitEviction(entry, now, 2);
    return;  // uncacheable
  }
  while (bytes_used_ + entry.size_bytes > capacity_bytes_) DisplaceOne(now);

  entry.heap_stamp_ = next_stamp_++;
  bytes_used_ += entry.size_bytes;
  ++stats_.insertions;
  lru_.push_front(std::move(entry));
  Index(lru_.begin());
  PushTtlItem(lru_.front());
  policy_->OnInsert(ViewOf(lru_.front()));

  if (tier_.enabled()) {
    // Demote ahead of the hard limit so the next burst lands in headroom
    // instead of forcing synchronous evictions.
    const std::uint64_t watermark = DemotionWatermark();
    while (bytes_used_ > watermark && !lru_.empty()) DisplaceOne(now);
  }
}

void ProxyCache::InsertIntoTier2(CacheEntry entry, Time now) {
  entry.heap_stamp_ = next_stamp_++;
  entry.tier2_ = true;
  entry.tier2_hits_ = 0;
  while (tier2_bytes_used_ + entry.size_bytes > tier_.tier2_capacity_bytes) {
    EvictTier2Tail(now);
  }
  tier2_bytes_used_ += entry.size_bytes;
  ++stats_.insertions;
  tier2_lru_.push_front(std::move(entry));
  Index(tier2_lru_.begin());
  PushTtlItem(tier2_lru_.front());
}

void ProxyCache::Index(LruList::iterator it) {
  index_[KeyOf(*it)] = it;
  if (it->doc >= sites_of_doc_.size()) sites_of_doc_.resize(it->doc + 1);
  sites_of_doc_[it->doc].push_back(it->site);
}

bool ProxyCache::Erase(core::SiteId site, core::DocId doc) {
  return EraseByKey(core::PackSiteDoc(site, doc));
}

bool ProxyCache::EraseByKey(Key key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  ++stats_.erased;
  RemoveEntry(it->second);
  return true;
}

void ProxyCache::RemoveEntry(LruList::iterator it) {
  if (it->heap_record_live_) ttl_heap_.NoteStale();
  std::vector<core::SiteId>& sites = sites_of_doc_[it->doc];
  sites.erase(std::find(sites.begin(), sites.end(), it->site));
  index_.erase(KeyOf(*it));
  if (it->tier2_) {
    tier2_bytes_used_ -= it->size_bytes;
    tier2_lru_.erase(it);
  } else {
    bytes_used_ -= it->size_bytes;
    policy_->OnErase(ViewOf(*it));
    lru_.erase(it);
  }
  // Any TTL-heap records pointing at this key became stale (NoteStale
  // above) and are skipped lazily; compaction keeps them from piling up.
  CompactTtlHeap();
}

std::size_t ProxyCache::EraseByUrl(core::DocId doc) {
  if (doc >= sites_of_doc_.size()) return 0;
  // Copy out: EraseByKey mutates the vector we are iterating.
  const std::vector<core::SiteId> sites = sites_of_doc_[doc];
  std::size_t erased = 0;
  for (const core::SiteId site : sites) {
    erased += EraseByKey(core::PackSiteDoc(site, doc));
  }
  return erased;
}

std::vector<CacheEntry*> ProxyCache::TakeExpired(Time now,
                                                 std::size_t max_items) {
  std::vector<CacheEntry*> expired;
  while (expired.size() < max_items && !ttl_heap_.empty()) {
    const eviction::ExpiryRecord top = ttl_heap_.Top();
    if (top.expires > now) break;
    const auto it = index_.find(top.key);
    if (it != index_.end() && it->second->heap_stamp_ == top.stamp) {
      expired.push_back(&*it->second);
      it->second->heap_record_live_ = false;  // record consumed
      ttl_heap_.PopLive();
    } else {
      ttl_heap_.PopStale();
    }
  }
  return expired;
}

void ProxyCache::SetTtlExpiry(CacheEntry& entry, Time expires) {
  if (entry.heap_record_live_) {
    ttl_heap_.NoteStale();  // the re-push supersedes the old record
    entry.heap_record_live_ = false;
  }
  entry.ttl_expires = expires;
  entry.heap_stamp_ = next_stamp_++;
  PushTtlItem(entry);
  CompactTtlHeap();
}

ProxyCache::Key ProxyCache::LruTailKey() const {
  return KeyOf(*std::prev(lru_.end()));
}

bool ProxyCache::TtlRecordLive(Key key, std::uint64_t stamp) const {
  const auto it = index_.find(key);
  return it != index_.end() && it->second->heap_stamp_ == stamp;
}

void ProxyCache::NoteTtlRecordConsumed(Key key) {
  const auto it = index_.find(key);
  WEBCC_CHECK_MSG(it != index_.end(), "consuming a record with no entry");
  it->second->heap_record_live_ = false;
}

bool ProxyCache::InEvictableTier(Key key) const {
  const auto it = index_.find(key);
  return it != index_.end() && !it->second->tier2_;
}

void ProxyCache::DisplaceOne(Time now) {
  WEBCC_CHECK_MSG(!lru_.empty(), "eviction from an empty cache");
  const eviction::Victim victim = policy_->PickVictim(now, *this);
  const auto it = index_.find(victim.key);
  WEBCC_CHECK_MSG(it != index_.end(), "policy picked a non-resident victim");

  // Pressure demotes instead of evicting when the second tier can hold the
  // entry — except entries the expired-first rule chose: already-stale
  // documents are not worth tier-2 space.
  if (tier_.enabled() && !victim.expired_rule &&
      it->second->size_bytes <= tier_.tier2_capacity_bytes) {
    CacheEntry& entry = *it->second;
    policy_->OnErase(ViewOf(entry));
    bytes_used_ -= entry.size_bytes;
    entry.tier2_ = true;
    entry.tier2_hits_ = 0;
    tier2_bytes_used_ += entry.size_bytes;
    tier2_lru_.splice(tier2_lru_.begin(), lru_, it->second);
    ++stats_.tier2_demotions;
    while (tier2_bytes_used_ > tier_.tier2_capacity_bytes) {
      EvictTier2Tail(now);
    }
    return;
  }
  EvictEntry(it->second, now, victim.expired_rule);
}

void ProxyCache::EvictEntry(LruList::iterator it, Time now,
                            bool expired_rule) {
  ++stats_.evictions;
  if (expired_rule) ++stats_.expired_evictions;
  EmitEviction(*it, now, expired_rule ? 1 : 0);
  RemoveEntry(it);
}

void ProxyCache::EvictTier2Tail(Time now) {
  WEBCC_CHECK_MSG(!tier2_lru_.empty(), "eviction from an empty tier 2");
  const auto victim = std::prev(tier2_lru_.end());
  ++stats_.evictions;
  ++stats_.tier2_evictions;
  EmitEviction(*victim, now, 3);
  RemoveEntry(victim);
}

void ProxyCache::PromoteFromTier2(LruList::iterator it, Time now) {
  CacheEntry& entry = *it;
  entry.tier2_ = false;
  entry.tier2_hits_ = 0;
  tier2_bytes_used_ -= entry.size_bytes;
  bytes_used_ += entry.size_bytes;
  lru_.splice(lru_.begin(), tier2_lru_, it);
  policy_->OnInsert(ViewOf(entry));
  ++stats_.tier2_promotions;
  // The promotion may overshoot tier 1's budget; resolve like an insert
  // would (the promoted entry sits at the front, so it is never its own
  // displacement victim while anything else remains).
  while (bytes_used_ > capacity_bytes_ && lru_.size() > 1) DisplaceOne(now);
}

void ProxyCache::Tier2TtlCleanup(Time now) {
  std::vector<LruList::iterator> dead;
  auto it = tier2_lru_.end();
  for (std::size_t scanned = 0;
       scanned < tier_.ttl_cleanup_per_tick && it != tier2_lru_.begin();
       ++scanned) {
    --it;
    if (it->ttl_expires <= now) dead.push_back(it);
  }
  for (const LruList::iterator& victim : dead) {
    ++stats_.tier2_expired_cleaned;
    EmitEviction(*victim, now, 4);
    RemoveEntry(victim);
  }
}

void ProxyCache::ExportMetrics(obs::MetricsRegistry& registry,
                               std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("insertions"), stats_.insertions);
  registry.SetCounter(name("evictions"), stats_.evictions);
  registry.SetCounter(name("expired_evictions"), stats_.expired_evictions);
  registry.SetCounter(name("erased"), stats_.erased);
  registry.SetCounter(name("bytes_used"), bytes_used());
  registry.SetCounter(name("entries"), lru_.size() + tier2_lru_.size());
  registry.SetCounter(name("oversize_rejections"), stats_.oversize_rejections);
  registry.SetCounter(name("tier2_promotions"), stats_.tier2_promotions);
  registry.SetCounter(name("tier2_demotions"), stats_.tier2_demotions);
  registry.SetCounter(name("tier2_evictions"), stats_.tier2_evictions);
  registry.SetCounter(name("tier2_expired_cleaned"),
                      stats_.tier2_expired_cleaned);
  registry.SetCounter(name("tier2_bytes_used"), tier2_bytes_used_);
  registry.SetCounter(name("tier2_entries"), tier2_lru_.size());
  policy_->ExportStats(registry, prefix);
}

void ProxyCache::MarkAllQuestionable() {
  for (CacheEntry& entry : lru_) entry.questionable = true;
  for (CacheEntry& entry : tier2_lru_) entry.questionable = true;
}

std::size_t ProxyCache::MarkQuestionableWhere(
    const std::function<bool(const CacheEntry&)>& predicate) {
  std::size_t marked = 0;
  for (LruList* list : {&lru_, &tier2_lru_}) {
    for (CacheEntry& entry : *list) {
      if (!entry.questionable && predicate(entry)) {
        entry.questionable = true;
        ++marked;
      }
    }
  }
  return marked;
}

}  // namespace webcc::http
