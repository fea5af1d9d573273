// Client-side proxy cache in the style of Harvest "cached".
//
// Entries are namespaced per real client: an entry is one (site, document)
// pair, so one proxy process hosts many independent per-client caches
// exactly as the paper does.
//
// The cache picks its own tier-1 victims (PickVictim) by the policy fixed at
// construction. Three policies ship: plain LRU, Harvest's expired-first LRU
// (the paper traces its SASK hit-ratio anomaly to this policy interacting
// with adaptive TTL's conservative lifetimes — a freshly modified document
// gets a short TTL and is evicted first despite being hot), and
// GreedyDual-Size:
//
//   policy           PickVictim chooses                 state kept
//   ---------------  --------------------------------   -----------------
//   lru              the LRU-list tail                  none (the list)
//   expired-first    earliest-expiring entry whose TTL  none (the TTL
//                    has lapsed, else the LRU tail      expiry heap)
//   gds              smallest GreedyDual-Size credit    per-slot credit
//                    H = L + 1/size (inflation L)       order + a lazy
//                                                       min-heap
//
// An optional second tier (TierConfig) absorbs tier-1 pressure: victims
// that still fit the tier-2 budget are demoted instead of evicted, and a
// tier-2 entry is promoted back after `promotion_hits` hits. Consistency
// state (TTL expiry, lease expiry, questionable flag) lives on the entry
// and is tier-blind: EraseByUrl, MarkAllQuestionable and TakeExpired see
// both tiers, so all five consistency protocols run unchanged over a
// tiered cache. With tiering off (the default) behavior is bit-identical
// to the single-tier cache.
//
// Entries are keyed by (site, doc) ids in a core::IdSpace (DESIGN.md §16);
// the by-name calls (Lookup by key, EraseByUrl, Insert of an entry named
// only by url/owner) resolve the names once and use the id path.
//
// Layout (DESIGN.md §17): entries live in one slab of slots, each slot an
// entry plus a parallel 16-byte record of u32 links for two intrusive
// doubly linked lists — its tier's recency list (tier 1 or tier 2; front =
// most recently used) and its document's site list (insertion order, which
// EraseByUrl follows). The (site, doc) -> slot index is an open-addressing
// table: power-of-two size, Fibonacci hash, linear probing, backward-shift
// erase. Under gds a third parallel vector holds each slot's GDS credit
// order. Freed slots are reused, so a cache in steady state allocates
// nothing. Slab growth moves entries: a CacheEntry* is valid only until the
// next Insert or Erase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/id_space.h"
#include "http/eviction/expiry_heap.h"
#include "http/eviction/policy.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/time.h"

namespace webcc::http {

// Optional large/cold second tier. Disabled (tier2_capacity_bytes == 0) the
// cache is the classic single-tier LRU structure.
struct TierConfig {
  std::uint64_t tier2_capacity_bytes = 0;  // 0 = tiering disabled
  // Tier-2 hits before an entry is promoted back into tier 1.
  std::uint32_t promotion_hits = 3;
  // Insert demotes tier-1 entries until bytes fall under this fraction of
  // capacity, keeping headroom so bursts demote instead of evicting.
  double demotion_pressure = 0.90;
  // Expired tier-2 entries reclaimed per Insert (tier 2 is scanned from the
  // cold end; tier-1 expiry is the TTL heap's job).
  std::size_t ttl_cleanup_per_tick = 8;

  bool enabled() const { return tier2_capacity_bytes > 0; }
};

struct CacheEntry {
  // Identity: the document and the real client whose namespaced copy this
  // is. Insert resolves unset ids from url/owner, the string-facing names
  // (`key` is ComposeCacheKey(url, owner) and is not consulted).
  core::DocId doc = core::kNoInternId;
  core::SiteId site = core::kNoInternId;
  std::string key;
  std::string url;
  std::string owner;
  std::uint64_t size_bytes = 0;
  Time last_modified = 0;
  std::uint64_t version = 0;
  Time fetched_at = 0;
  Time ttl_expires = kNeverExpires;
  Time lease_expires = kNeverExpires;
  // Set by server-address invalidations and proxy recovery: the entry must
  // be revalidated with If-Modified-Since before it may be served.
  bool questionable = false;

 private:
  friend class ProxyCache;
  std::uint64_t heap_stamp_ = 0;  // lazy-deletion marker for the TTL heap
  // This entry's (key, heap_stamp_) record is in the TTL heap and has not
  // been consumed — the heap's exact live count hangs off this flag.
  bool heap_record_live_ = false;
  bool tier2_ = false;            // resident in the second tier
  std::uint32_t tier2_hits_ = 0;  // hits since demotion (promotion counter)
};

struct ProxyCacheStats {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_evictions = 0;  // evicted via the expired-first rule
  std::uint64_t erased = 0;             // removed by invalidation
  // Objects larger than every budget that could hold them, dropped at
  // Insert (kEviction trace detail 2).
  std::uint64_t oversize_rejections = 0;
  std::uint64_t tier2_promotions = 0;  // tier 2 -> tier 1
  std::uint64_t tier2_demotions = 0;   // tier 1 -> tier 2 under pressure
  std::uint64_t tier2_evictions = 0;   // evicted from tier 2 (detail 3)
  std::uint64_t tier2_expired_cleaned = 0;  // reclaimed by cleanup (detail 4)
};

class ProxyCache {
 public:
  // `ids` names the entries; nullptr gives the cache a space of its own.
  ProxyCache(std::uint64_t capacity_bytes, eviction::EvictionPolicyKind policy,
             TierConfig tier = TierConfig{}, core::IdSpace* ids = nullptr);

  ProxyCache(const ProxyCache&) = delete;
  ProxyCache& operator=(const ProxyCache&) = delete;

  // Returns `site`'s copy of `doc` and promotes it to most-recently-used,
  // or nullptr. The pointer stays valid until the next Insert/Erase on this
  // cache. `now` stamps any trace events a tier promotion's pressure
  // resolution emits; callers without a clock may omit it.
  CacheEntry* Lookup(core::SiteId site, core::DocId doc, Time now = 0);
  // By http::ComposeCacheKey(url, owner) key.
  CacheEntry* Lookup(const std::string& key, Time now = 0);

  // Lookup without the LRU promotion (for metrics/tests).
  CacheEntry* Peek(core::SiteId site, core::DocId doc);

  // Inserts (or replaces) an entry, evicting per the policy until it fits.
  // Objects larger than the whole cache are dropped (counted as
  // oversize_rejections) unless the second tier can hold them. `now` is the
  // protocol time used to judge which entries are expired.
  void Insert(CacheEntry entry, Time now);

  // Removes an entry (invalidation path). Returns whether it existed.
  bool Erase(core::SiteId site, core::DocId doc);

  // Changes an entry's TTL expiry, keeping the expired-first index in sync.
  // `entry` must be owned by this cache.
  void SetTtlExpiry(CacheEntry& entry, Time expires);

  // Removes every owner's copy of `doc` (proxy-wide invalidation, as PSI
  // performs). Returns the number of entries removed.
  std::size_t EraseByUrl(core::DocId doc);
  std::size_t EraseByUrl(const std::string& url) {
    return EraseByUrl(ids_->docs.Find(url));
  }

  // Collects up to `max_items` live entries (either tier) whose TTL has
  // expired at `now`, consuming their expiry-index records: the caller must
  // either erase each returned entry or re-arm it with SetTtlExpiry (PCV
  // does one or the other after the bulk validation). Pointers stay valid
  // until the next Insert/Erase.
  std::vector<CacheEntry*> TakeExpired(Time now, std::size_t max_items);

  // Proxy-recovery sweep: every entry must revalidate before serving.
  void MarkAllQuestionable();

  // Selective sweep (e.g. server-address invalidation for one real client's
  // entries). Returns the number of entries marked.
  std::size_t MarkQuestionableWhere(
      const std::function<bool(const CacheEntry&)>& predicate);

  std::uint64_t bytes_used() const { return bytes_used_ + tier2_bytes_used_; }
  std::uint64_t tier1_bytes_used() const { return bytes_used_; }
  std::uint64_t tier2_bytes_used() const { return tier2_bytes_used_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t entry_count() const { return lru_.size + tier2_lru_.size; }
  std::size_t tier2_entry_count() const { return tier2_lru_.size; }
  const ProxyCacheStats& stats() const { return stats_; }
  // The space the entries are named in (names of evicted entries stay).
  const core::IdSpace& ids() const { return *ids_; }

  // Exposed for the heap-growth regression test: total records including
  // stale ones awaiting compaction.
  std::size_t ttl_heap_size() const { return ttl_heap_.size(); }

  // Optional tracing: when set, every eviction emits a kEviction event
  // stamped with the `now` the mutating call received. detail codes:
  // 0 = policy victim, 1 = expired-first rule, 2 = oversize rejection,
  // 3 = tier-2 eviction, 4 = tier-2 expired cleanup. nullptr (the default)
  // disables.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Snapshots the cache's counters and occupancy into `registry`, prefixing
  // every metric name (e.g. prefix "proxy_cache." -> "proxy_cache.evictions").
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  using Key = eviction::EntryKey;  // core::PackSiteDoc(site, doc)
  using NodeId = std::uint32_t;    // slab slot: entries_[i], links_[i]
  static constexpr NodeId kNil = ~NodeId{0};

  // A slot's list links, kept apart from its entry so that relinking a
  // neighbour touches 16 bytes, not a whole entry. `prev`/`next` link the
  // slot into its tier's recency list (a free slot's `next` chains the free
  // list); `doc_prev`/`doc_next` link it into its document's site list.
  struct Links {
    NodeId prev = kNil;
    NodeId next = kNil;
    NodeId doc_prev = kNil;
    NodeId doc_next = kNil;
  };
  struct List {
    NodeId head = kNil;  // most recently used
    NodeId tail = kNil;
    std::size_t size = 0;
  };
  struct DocSites {
    NodeId head = kNil;  // first inserted
    NodeId tail = kNil;
  };

  // The (site, doc) -> node index. An empty bucket is marked by its node,
  // never by its key: every packed key, ~0 (the key of two unknown ids)
  // included, is a value Find may be asked for.
  class Index {
   public:
    NodeId Find(Key key) const;
    void Insert(Key key, NodeId node);  // key must be absent
    void Erase(Key key);                // key must be present

   private:
    struct Bucket {
      Key key = 0;
      NodeId node = kNil;  // kNil = empty
    };
    std::size_t Home(Key key) const {
      // Fibonacci hashing: the high bits of key * 2^64/phi.
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                      shift_);
    }
    void Grow();

    std::vector<Bucket> buckets_;  // power-of-two size (0 before first use)
    std::size_t size_ = 0;
    unsigned shift_ = 64;          // 64 - log2(buckets_.size())
  };

  // One GreedyDual-Size credit: H and its order (a monotone counter of
  // credits, so equal H evicts the older credit — the TTL heap's
  // older-stamp convention). A record is live while its slot's current
  // credit order is still `order`.
  struct GdsRecord {
    double h = 0.0;
    std::uint64_t order = 0;
    NodeId node = kNil;
  };
  static constexpr std::uint64_t kNoCredit = ~std::uint64_t{0};
  // Min-heap order for GdsRecords: the smallest credit on top, equal
  // credits to the older order.
  static bool CreditAbove(const GdsRecord& a, const GdsRecord& b);

  struct Victim {
    NodeId node = kNil;
    // The expired-first rule chose it (kEviction trace detail 1).
    bool expired_rule = false;
  };

  static Key KeyOf(const CacheEntry& entry) {
    return core::PackSiteDoc(entry.site, entry.doc);
  }
  List& ListOf(const CacheEntry& entry) {
    return entry.tier2_ ? tier2_lru_ : lru_;
  }
  void EmitEviction(const CacheEntry& entry, Time now, std::int64_t detail);

  void PushFront(List& list, NodeId node);
  void Unlink(List& list, NodeId node);
  // Moves `node` from `from` to the front of `to` (the same list allowed).
  void MoveToFront(List& from, List& to, NodeId node);

  bool EraseByKey(Key key);
  // Places `entry` in a free node at the front of its tier's list, enters
  // it into the index and its doc's site list, and arms its TTL record.
  NodeId Place(CacheEntry entry);
  // Chooses the next tier-1 victim by `policy_`. Only called with at least
  // one resident tier-1 entry.
  Victim PickVictim(Time now);
  // Frees tier-1 space for one entry: the policy's victim is demoted into
  // tier 2 when it fits (and is not already expired), evicted otherwise.
  void DisplaceOne(Time now);
  // GreedyDual-Size bookkeeping, called only under kGds: a tier-1 insert,
  // hit or promotion credits the slot H = L + 1/size; leaving tier 1
  // (removal or demotion) retires its credit.
  void CreditGds(NodeId node);
  void RetireGdsCredit(NodeId node) { gds_credit_order_[node] = kNoCredit; }
  void EvictEntry(NodeId node, Time now, bool expired_rule);
  void EvictTier2Tail(Time now);
  void InsertIntoTier2(CacheEntry entry, Time now);
  void PromoteFromTier2(NodeId node, Time now);
  void Tier2TtlCleanup(Time now);
  void RemoveEntry(NodeId node);
  void PushTtlItem(CacheEntry& entry);
  void CompactTtlHeap();
  std::uint64_t DemotionWatermark() const;

  std::uint64_t capacity_bytes_;
  TierConfig tier_;
  eviction::EvictionPolicyKind policy_;
  std::uint64_t bytes_used_ = 0;        // tier 1
  std::uint64_t tier2_bytes_used_ = 0;  // tier 2
  std::uint64_t next_stamp_ = 1;

  std::unique_ptr<core::IdSpace> owned_ids_;
  core::IdSpace* ids_;

  std::vector<CacheEntry> entries_;  // the slab, with links_ parallel
  std::vector<Links> links_;
  NodeId free_head_ = kNil;  // free slots, chained through Links::next
  List lru_;                 // tier 1
  List tier2_lru_;           // tier 2
  Index index_;
  // Indexed by doc id: the nodes holding a copy, in insertion order.
  std::vector<DocSites> sites_of_doc_;
  eviction::ExpiryHeap ttl_heap_;
  // GreedyDual-Size state (empty under the other policies): per slot, the
  // order of its live credit (kNoCredit outside tier 1), parallel to
  // links_; a lazy-deletion min-heap of credits by (h, order); and the
  // inflation offset L, raised to each victim's H.
  std::vector<std::uint64_t> gds_credit_order_;
  std::vector<GdsRecord> gds_heap_;
  std::uint64_t gds_next_order_ = 0;
  double gds_inflation_ = 0.0;
  ProxyCacheStats stats_;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::http
