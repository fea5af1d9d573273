// Lazy-deletion TTL expiry heap shared by the cache's TakeExpired sweep
// (PCV's invalid-cache view) and the expired-first eviction policy.
//
// Records are never removed in place: SetTtlExpiry and entry removal leave
// the old record behind, and readers skip records whose (key, stamp) no
// longer names a live entry. That keeps every push O(log n) but — the PR 8
// satellite bug — lets a renew-heavy workload grow the heap without bound
// (each renewal leaks one stale record). The heap therefore counts its live
// records exactly (the owner tells it when a record goes stale) and
// CompactIfStale rebuilds once stale records outnumber live ones, bounding
// the heap at 2x the resident entry count (with a small floor so tiny
// caches never bother). Compaction only drops records a pop would have
// skipped anyway, so pop order — and thus eviction and TakeExpired order —
// is unchanged.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "http/eviction/policy.h"
#include "util/time.h"

namespace webcc::http::eviction {

struct ExpiryRecord {
  Time expires = 0;
  std::uint64_t stamp = 0;
  EntryKey key = kNoEntryKey;
};

class ExpiryHeap {
 public:
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  std::size_t live() const { return live_; }

  const ExpiryRecord& Top() const { return records_.front(); }

  void Push(Time expires, std::uint64_t stamp, EntryKey key) {
    records_.push_back(ExpiryRecord{expires, stamp, key});
    std::push_heap(records_.begin(), records_.end(), Later);
    ++live_;
  }

  // Pops the top record, which the caller verified names a live entry (the
  // record is consumed: TakeExpired collects the entry, or the expired-first
  // policy evicts it).
  void PopLive() {
    Pop();
    --live_;
  }

  // Pops a top record already known stale (its live count was decremented
  // by NoteStale when it went stale).
  void PopStale() { Pop(); }

  // A record for `key` somewhere in the heap just went stale: the entry was
  // removed or restamped by a new push. No-op for the owner to call when the
  // record was already consumed.
  void NoteStale() { --live_; }

  // Rebuilds the heap keeping only records `is_live` accepts, when stale
  // records outnumber live ones. The owner passes its index check; the
  // result has live_ == size(). Cheap to call on every mutation: the
  // threshold makes the amortized cost O(1) per stale record.
  template <typename IsLive>
  void CompactIfStale(IsLive&& is_live) {
    if (records_.size() < kCompactFloor || records_.size() <= 2 * live_) {
      return;
    }
    auto keep = records_.begin();
    for (const ExpiryRecord& r : records_) {
      if (is_live(r)) *keep++ = r;
    }
    records_.erase(keep, records_.end());
    std::make_heap(records_.begin(), records_.end(), Later);
    live_ = records_.size();
  }

 private:
  // Min-heap by (expires, stamp): `Later` orders the earliest expiry (ties
  // to the older stamp) at the front, matching the pre-kernel
  // TtlHeapItem::operator> exactly.
  static bool Later(const ExpiryRecord& a, const ExpiryRecord& b) {
    if (a.expires != b.expires) return a.expires > b.expires;
    return a.stamp > b.stamp;
  }

  void Pop() {
    std::pop_heap(records_.begin(), records_.end(), Later);
    records_.pop_back();
  }

  static constexpr std::size_t kCompactFloor = 64;

  std::vector<ExpiryRecord> records_;
  std::size_t live_ = 0;
};

}  // namespace webcc::http::eviction
