#include "http/proxy_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "http/cache_key.h"
#include "util/check.h"

namespace webcc::http {

using eviction::EvictionPolicyKind;

ProxyCache::ProxyCache(std::uint64_t capacity_bytes,
                       EvictionPolicyKind policy, TierConfig tier,
                       core::IdSpace* ids)
    : capacity_bytes_(capacity_bytes),
      tier_(tier),
      policy_(policy),
      owned_ids_(ids == nullptr ? std::make_unique<core::IdSpace>() : nullptr),
      ids_(ids == nullptr ? owned_ids_.get() : ids) {}

ProxyCache::NodeId ProxyCache::Index::Find(Key key) const {
  if (buckets_.empty()) return kNil;
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t i = Home(key);; i = (i + 1) & mask) {
    const Bucket& bucket = buckets_[i];
    if (bucket.node == kNil) return kNil;
    if (bucket.key == key) return bucket.node;
  }
}

void ProxyCache::Index::Insert(Key key, NodeId node) {
  // Load stays at or under 1/2: most lookups miss, and a miss probes to
  // the end of its run, which grows fast with load under linear probing.
  if ((size_ + 1) * 2 > buckets_.size()) Grow();
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = Home(key);
  while (buckets_[i].node != kNil) i = (i + 1) & mask;
  buckets_[i] = Bucket{key, node};
  ++size_;
}

void ProxyCache::Index::Erase(Key key) {
  const std::size_t mask = buckets_.size() - 1;
  std::size_t hole = Home(key);
  while (buckets_[hole].key != key || buckets_[hole].node == kNil) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull each later bucket of the run into the
  // hole unless that would move it before its home. No tombstones, so
  // probe runs never lengthen under insert/erase churn.
  for (std::size_t i = (hole + 1) & mask; buckets_[i].node != kNil;
       i = (i + 1) & mask) {
    const std::size_t home = Home(buckets_[i].key);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      buckets_[hole] = buckets_[i];
      hole = i;
    }
  }
  buckets_[hole] = Bucket{};
  --size_;
}

void ProxyCache::Index::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.empty() ? 16 : old.size() * 2, Bucket{});
  shift_ = 64 - std::countr_zero(buckets_.size());
  size_ = 0;
  for (const Bucket& bucket : old) {
    if (bucket.node != kNil) Insert(bucket.key, bucket.node);
  }
}

void ProxyCache::PushFront(List& list, NodeId node) {
  Links& n = links_[node];
  n.prev = kNil;
  n.next = list.head;
  if (list.head != kNil) {
    links_[list.head].prev = node;
  } else {
    list.tail = node;
  }
  list.head = node;
  ++list.size;
}

void ProxyCache::Unlink(List& list, NodeId node) {
  const Links& n = links_[node];
  (n.prev != kNil ? links_[n.prev].next : list.head) = n.next;
  (n.next != kNil ? links_[n.next].prev : list.tail) = n.prev;
  --list.size;
}

void ProxyCache::MoveToFront(List& from, List& to, NodeId node) {
  if (&from == &to && from.head == node) return;
  Unlink(from, node);
  PushFront(to, node);
}

CacheEntry* ProxyCache::Lookup(core::SiteId site, core::DocId doc, Time now) {
  const Key key = core::PackSiteDoc(site, doc);
  const NodeId node = index_.Find(key);
  if (node == kNil) return nullptr;
  CacheEntry& entry = entries_[node];
  if (entry.tier2_) {
    ++entry.tier2_hits_;
    // Promote a proven-hot entry back into tier 1 — unless it could never
    // fit there (it stays a tier-2 resident for its lifetime).
    if (entry.tier2_hits_ >= tier_.promotion_hits &&
        entry.size_bytes <= capacity_bytes_) {
      // The promotion's own pressure can evict the entry itself (the
      // expired-first rule picks the earliest expired tier-1 entry, front
      // or not). Its slot is then free, so the lookup is a miss.
      PromoteFromTier2(node, now);
      if (index_.Find(key) != node) return nullptr;
    } else {
      MoveToFront(tier2_lru_, tier2_lru_, node);
    }
  } else {
    MoveToFront(lru_, lru_, node);
    if (policy_ == EvictionPolicyKind::kGds) CreditGds(node);
  }
  return &entries_[node];
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
  const NodeId node = index_.Find(core::PackSiteDoc(site, doc));
  return node == kNil ? nullptr : &entries_[node];
}

void ProxyCache::PushTtlItem(CacheEntry& entry) {
  if (entry.ttl_expires == kNeverExpires) return;
  ttl_heap_.Push(entry.ttl_expires, entry.heap_stamp_, KeyOf(entry));
  entry.heap_record_live_ = true;
}

void ProxyCache::CompactTtlHeap() {
  ttl_heap_.CompactIfStale([this](const eviction::ExpiryRecord& r) {
    const NodeId node = index_.Find(r.key);
    return node != kNil && entries_[node].heap_stamp_ == r.stamp;
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
  entry.tier2_ = false;  // the caller may pass a copy of a tier-2 entry
  bytes_used_ += entry.size_bytes;
  ++stats_.insertions;
  const NodeId node = Place(std::move(entry));
  if (policy_ == EvictionPolicyKind::kGds) CreditGds(node);

  if (tier_.enabled()) {
    // Demote ahead of the hard limit so the next burst lands in headroom
    // instead of forcing synchronous evictions.
    const std::uint64_t watermark = DemotionWatermark();
    while (bytes_used_ > watermark && lru_.size > 0) DisplaceOne(now);
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
  Place(std::move(entry));
}

ProxyCache::NodeId ProxyCache::Place(CacheEntry entry) {
  NodeId node = free_head_;
  if (node != kNil) {
    free_head_ = links_[node].next;
    entries_[node] = std::move(entry);
  } else {
    node = static_cast<NodeId>(entries_.size());
    entries_.push_back(std::move(entry));
    links_.emplace_back();
    if (policy_ == EvictionPolicyKind::kGds) {
      gds_credit_order_.push_back(kNoCredit);
    }
  }
  const CacheEntry& placed = entries_[node];
  PushFront(ListOf(placed), node);
  index_.Insert(KeyOf(placed), node);
  if (placed.doc >= sites_of_doc_.size()) sites_of_doc_.resize(placed.doc + 1);
  DocSites& sites = sites_of_doc_[placed.doc];
  links_[node].doc_prev = sites.tail;
  links_[node].doc_next = kNil;
  (sites.tail != kNil ? links_[sites.tail].doc_next : sites.head) = node;
  sites.tail = node;
  PushTtlItem(entries_[node]);
  return node;
}

bool ProxyCache::Erase(core::SiteId site, core::DocId doc) {
  return EraseByKey(core::PackSiteDoc(site, doc));
}

bool ProxyCache::EraseByKey(Key key) {
  const NodeId node = index_.Find(key);
  if (node == kNil) return false;
  ++stats_.erased;
  RemoveEntry(node);
  return true;
}

void ProxyCache::RemoveEntry(NodeId node) {
  Links& n = links_[node];
  CacheEntry& entry = entries_[node];
  if (entry.heap_record_live_) ttl_heap_.NoteStale();
  DocSites& sites = sites_of_doc_[entry.doc];
  (n.doc_prev != kNil ? links_[n.doc_prev].doc_next : sites.head) = n.doc_next;
  (n.doc_next != kNil ? links_[n.doc_next].doc_prev : sites.tail) = n.doc_prev;
  index_.Erase(KeyOf(entry));
  if (entry.tier2_) {
    tier2_bytes_used_ -= entry.size_bytes;
  } else {
    bytes_used_ -= entry.size_bytes;
    if (policy_ == EvictionPolicyKind::kGds) RetireGdsCredit(node);
  }
  Unlink(ListOf(entry), node);
  n.next = free_head_;
  free_head_ = node;
  // Any TTL-heap records pointing at this key became stale (NoteStale
  // above) and are skipped lazily; compaction keeps them from piling up.
  CompactTtlHeap();
}

std::size_t ProxyCache::EraseByUrl(core::DocId doc) {
  if (doc >= sites_of_doc_.size()) return 0;
  std::size_t erased = 0;
  // Removing a node touches only its own links, so the walk reads the
  // successor first.
  for (NodeId node = sites_of_doc_[doc].head; node != kNil;) {
    const NodeId next = links_[node].doc_next;
    ++stats_.erased;
    RemoveEntry(node);
    ++erased;
    node = next;
  }
  return erased;
}

std::vector<CacheEntry*> ProxyCache::TakeExpired(Time now,
                                                 std::size_t max_items) {
  std::vector<CacheEntry*> expired;
  while (expired.size() < max_items && !ttl_heap_.empty()) {
    const eviction::ExpiryRecord top = ttl_heap_.Top();
    if (top.expires > now) break;
    const NodeId node = index_.Find(top.key);
    if (node != kNil && entries_[node].heap_stamp_ == top.stamp) {
      CacheEntry& entry = entries_[node];
      expired.push_back(&entry);
      entry.heap_record_live_ = false;  // record consumed
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

bool ProxyCache::CreditAbove(const GdsRecord& a, const GdsRecord& b) {
  if (a.h != b.h) return a.h > b.h;
  return a.order > b.order;
}

void ProxyCache::CreditGds(NodeId node) {
  const double h =
      gds_inflation_ + 1.0 / static_cast<double>(std::max<std::uint64_t>(
                                 entries_[node].size_bytes, 1));
  const std::uint64_t order = gds_next_order_++;
  gds_credit_order_[node] = order;
  gds_heap_.push_back(GdsRecord{h, order, node});
  std::push_heap(gds_heap_.begin(), gds_heap_.end(), CreditAbove);
  // Every re-credit leaks one stale record; rebuild once they outnumber the
  // live ones, one per tier-1 entry (the TTL heap's compaction rule).
  if (gds_heap_.size() >= 64 && gds_heap_.size() > 2 * lru_.size) {
    const auto keep = std::remove_if(
        gds_heap_.begin(), gds_heap_.end(), [this](const GdsRecord& r) {
          return gds_credit_order_[r.node] != r.order;
        });
    gds_heap_.erase(keep, gds_heap_.end());
    std::make_heap(gds_heap_.begin(), gds_heap_.end(), CreditAbove);
  }
}

ProxyCache::Victim ProxyCache::PickVictim(Time now) {
  switch (policy_) {
    case EvictionPolicyKind::kLru:
      break;
    case EvictionPolicyKind::kExpiredFirstLru:
      while (!ttl_heap_.empty()) {
        const eviction::ExpiryRecord top = ttl_heap_.Top();
        const NodeId node = index_.Find(top.key);
        if (node == kNil || entries_[node].heap_stamp_ != top.stamp) {
          ttl_heap_.PopStale();  // superseded by SetTtlExpiry or removed
          continue;
        }
        if (top.expires > now) break;  // earliest expiry still fresh
        // Expired but living in tier 2: not ours to evict (tier-2 cleanup
        // reclaims it); fall back to LRU like the still-fresh case.
        if (entries_[node].tier2_) break;
        entries_[node].heap_record_live_ = false;  // record consumed
        ttl_heap_.PopLive();
        return Victim{node, /*expired_rule=*/true};
      }
      break;
    case EvictionPolicyKind::kGds:
      for (;;) {
        // Every tier-1 entry has a live record, so the heap cannot run dry.
        std::pop_heap(gds_heap_.begin(), gds_heap_.end(), CreditAbove);
        const GdsRecord top = gds_heap_.back();
        gds_heap_.pop_back();
        if (gds_credit_order_[top.node] != top.order) continue;  // stale
        gds_inflation_ = top.h;
        return Victim{top.node, /*expired_rule=*/false};
      }
  }
  return Victim{lru_.tail, /*expired_rule=*/false};
}

void ProxyCache::DisplaceOne(Time now) {
  WEBCC_CHECK_MSG(lru_.size > 0, "eviction from an empty cache");
  const Victim victim = PickVictim(now);
  const NodeId node = victim.node;

  // Pressure demotes instead of evicting when the second tier can hold the
  // entry — except entries the expired-first rule chose: already-stale
  // documents are not worth tier-2 space.
  CacheEntry& entry = entries_[node];
  if (tier_.enabled() && !victim.expired_rule &&
      entry.size_bytes <= tier_.tier2_capacity_bytes) {
    if (policy_ == EvictionPolicyKind::kGds) RetireGdsCredit(node);
    bytes_used_ -= entry.size_bytes;
    entry.tier2_ = true;
    entry.tier2_hits_ = 0;
    tier2_bytes_used_ += entry.size_bytes;
    MoveToFront(lru_, tier2_lru_, node);
    ++stats_.tier2_demotions;
    while (tier2_bytes_used_ > tier_.tier2_capacity_bytes) {
      EvictTier2Tail(now);
    }
    return;
  }
  EvictEntry(node, now, victim.expired_rule);
}

void ProxyCache::EvictEntry(NodeId node, Time now, bool expired_rule) {
  ++stats_.evictions;
  if (expired_rule) ++stats_.expired_evictions;
  EmitEviction(entries_[node], now, expired_rule ? 1 : 0);
  RemoveEntry(node);
}

void ProxyCache::EvictTier2Tail(Time now) {
  WEBCC_CHECK_MSG(tier2_lru_.size > 0, "eviction from an empty tier 2");
  const NodeId victim = tier2_lru_.tail;
  ++stats_.evictions;
  ++stats_.tier2_evictions;
  EmitEviction(entries_[victim], now, 3);
  RemoveEntry(victim);
}

void ProxyCache::PromoteFromTier2(NodeId node, Time now) {
  CacheEntry& entry = entries_[node];
  entry.tier2_ = false;
  entry.tier2_hits_ = 0;
  tier2_bytes_used_ -= entry.size_bytes;
  bytes_used_ += entry.size_bytes;
  MoveToFront(tier2_lru_, lru_, node);
  if (policy_ == EvictionPolicyKind::kGds) CreditGds(node);
  ++stats_.tier2_promotions;
  // The promotion may overshoot tier 1's budget; resolve like an insert
  // would (under LRU the promoted entry sits at the front, so it is never
  // its own displacement victim while anything else remains).
  while (bytes_used_ > capacity_bytes_ && lru_.size > 1) DisplaceOne(now);
}

void ProxyCache::Tier2TtlCleanup(Time now) {
  // Scans from the cold end; a removal unlinks only its own node, so the
  // walk reads the predecessor first.
  NodeId node = tier2_lru_.tail;
  for (std::size_t scanned = 0;
       scanned < tier_.ttl_cleanup_per_tick && node != kNil; ++scanned) {
    const NodeId prev = links_[node].prev;
    if (entries_[node].ttl_expires <= now) {
      ++stats_.tier2_expired_cleaned;
      EmitEviction(entries_[node], now, 4);
      RemoveEntry(node);
    }
    node = prev;
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
  registry.SetCounter(name("entries"), entry_count());
  registry.SetCounter(name("oversize_rejections"), stats_.oversize_rejections);
  registry.SetCounter(name("tier2_promotions"), stats_.tier2_promotions);
  registry.SetCounter(name("tier2_demotions"), stats_.tier2_demotions);
  registry.SetCounter(name("tier2_evictions"), stats_.tier2_evictions);
  registry.SetCounter(name("tier2_expired_cleaned"),
                      stats_.tier2_expired_cleaned);
  registry.SetCounter(name("tier2_bytes_used"), tier2_bytes_used_);
  registry.SetCounter(name("tier2_entries"), tier2_lru_.size);
  // Every victim PickVictim chose was either evicted from tier 1 or
  // demoted, and the expired-first rule's victims are never demoted.
  registry.SetCounter(name("policy_picks"),
                      stats_.evictions - stats_.tier2_evictions +
                          stats_.tier2_demotions);
  registry.SetCounter(name("policy_expired_picks"), stats_.expired_evictions);
  if (policy_ == EvictionPolicyKind::kGds) {
    registry.SetGauge(name("gds_inflation"), gds_inflation_);
  }
}

void ProxyCache::MarkAllQuestionable() {
  for (const List* list : {&lru_, &tier2_lru_}) {
    for (NodeId node = list->head; node != kNil; node = links_[node].next) {
      entries_[node].questionable = true;
    }
  }
}

std::size_t ProxyCache::MarkQuestionableWhere(
    const std::function<bool(const CacheEntry&)>& predicate) {
  std::size_t marked = 0;
  for (const List* list : {&lru_, &tier2_lru_}) {
    for (NodeId node = list->head; node != kNil; node = links_[node].next) {
      CacheEntry& entry = entries_[node];
      if (!entry.questionable && predicate(entry)) {
        entry.questionable = true;
        ++marked;
      }
    }
  }
  return marked;
}

}  // namespace webcc::http
