// The eviction kernel: one strategy class per replacement policy, driving
// every victim choice the proxy cache makes.
//
// This repeats the refactor shape of core/consistency (PR 3): the cache
// owns all entry storage and indexes — the LRU list, the (site, doc) entry
// index, and the TTL expiry heap — and the policy is a pure strategy that is
// notified of entry lifecycle events (OnInsert/OnHit/OnErase) and asked to
// choose victims (PickVictim). The policy reads the cache's indexes through
// the narrow EvictionHost view instead of duplicating them, so the
// expired-first policy consults the *same* lazy-deletion TTL heap that
// PCV's TakeExpired consumes, exactly as the pre-refactor inlined code did.
//
// Decision table (see DESIGN.md §13 for the paper mapping):
//
//   policy           PickVictim chooses                 state kept
//   ---------------  --------------------------------   -----------------
//   lru              the LRU-list tail                  none (host order)
//   expired-first    earliest-expiring entry whose TTL  none (host heap)
//                    has lapsed, else the LRU tail
//   gds              smallest GreedyDual-Size credit    per-entry H values
//                    H = L + 1/size (inflation L)       + a lazy min-heap
//
// Policies never allocate entry storage and never see strings: entries are
// identified by their packed (site, doc) key (EntryKey).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "obs/metrics.h"
#include "util/time.h"

namespace webcc::http {

// Sentinel expiry for "never expires" (strong-consistency entries).
// Defined here so the kernel does not depend on proxy_cache.h (which
// includes this header).
inline constexpr Time kNeverExpires = std::numeric_limits<Time>::max();

namespace eviction {

enum class EvictionPolicyKind { kLru, kExpiredFirstLru, kGds };

// An entry's identity: core::PackSiteDoc(site, doc).
using EntryKey = std::uint64_t;
inline constexpr EntryKey kNoEntryKey = ~EntryKey{0};

// Stable spellings for flags and metrics: "lru", "expired-first", "gds".
std::string_view ToString(EvictionPolicyKind kind);
// Parses a ToString spelling. Returns false (leaving `out` untouched) for
// anything else; callers list ValidEvictionPolicyNames() in their error.
bool ParseEvictionPolicyKind(std::string_view name, EvictionPolicyKind& out);
std::string_view ValidEvictionPolicyNames();

// The per-entry facts a policy may see. `stamp` is the cache's tie-break
// stamp (monotone insertion/update order, shared with the TTL heap), so
// every policy's tie-breaks agree with TtlHeapItem's ordering.
struct EntryView {
  EntryKey key = kNoEntryKey;
  std::uint64_t size_bytes = 0;
  Time ttl_expires = kNeverExpires;
  std::uint64_t stamp = 0;
};

struct Victim {
  EntryKey key = kNoEntryKey;
  // The expired-first rule chose it (kEviction trace detail 1).
  bool expired_rule = false;
};

struct EvictionPolicyStats {
  std::uint64_t picks = 0;          // victims chosen
  std::uint64_t expired_picks = 0;  // ... via the expired-first rule
};

class ExpiryHeap;

// The narrow view of the owning cache a policy may consult while picking a
// victim. Only tier-1 entries are visible: the second tier evicts by its
// own LRU order inside the cache.
class EvictionHost {
 public:
  virtual ~EvictionHost() = default;

  // Key of the least-recently-used tier-1 entry. Never called on an empty
  // tier.
  virtual EntryKey LruTailKey() const = 0;

  // The cache's lazy-deletion TTL expiry heap (shared with TakeExpired).
  virtual ExpiryHeap& TtlHeap() = 0;

  // True when (key, stamp) names the live heap record of a resident entry:
  // the entry exists, carries this stamp, and its record has not been
  // consumed by TakeExpired.
  virtual bool TtlRecordLive(EntryKey key, std::uint64_t stamp) const = 0;

  // The policy is about to pop `key`'s live heap record (the expired-first
  // victim path); the cache clears its record-live flag so the entry's
  // later removal does not double-count the record as newly stale.
  virtual void NoteTtlRecordConsumed(EntryKey key) = 0;

  // True when `key` resides in tier 1 and may be returned as a victim. TTL
  // records cover both tiers (TakeExpired needs them), but only tier-1
  // entries are the policy's to evict; tier 2 reclaims its own expired
  // entries. Always true with tiering off.
  virtual bool InEvictableTier(EntryKey key) const = 0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual EvictionPolicyKind kind() const = 0;

  // Entry lifecycle in tier 1, driven by the owning cache. OnInsert fires
  // after the entry is resident (and stamped); OnHit after an LRU
  // promotion; OnErase before removal — including demotion to tier 2,
  // which leaves the policy's view of tier 1.
  virtual void OnInsert(const EntryView& entry) = 0;
  virtual void OnHit(const EntryView& entry) = 0;
  virtual void OnErase(const EntryView& entry) = 0;

  // Chooses the next tier-1 victim. Only called with at least one resident
  // tier-1 entry; must return a live key.
  virtual Victim PickVictim(Time now, EvictionHost& host) = 0;

  const EvictionPolicyStats& stats() const { return stats_; }

  // Policy-specific gauges under `prefix` (e.g. GDS's inflation offset).
  // The base implementation exports the shared pick counters.
  virtual void ExportStats(obs::MetricsRegistry& registry,
                           std::string_view prefix) const;

 protected:
  EvictionPolicyStats stats_;
};

// Builds the strategy for `kind`.
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind);

}  // namespace eviction
}  // namespace webcc::http
