// Compact per-URL site list for million-site scale (ROADMAP item 4).
//
// The invalidation table used to hold one `unordered_map<InternId, Time>`
// per URL. At 10^6-10^7 registered sites the node-based map is the memory
// bottleneck: ~24 bytes of node plus malloc header plus a bucket pointer
// per 12 bytes of payload. CompactSiteList replaces it with a dense
// open-addressing table keyed on the id space's site ids, stored as two
// parallel arrays (4-byte id, 8-byte lease expiry) so a slot costs exactly
// 12 bytes with no struct padding and the whole list is two allocations.
//
// Layout and invariants:
//  * capacity is a power of two; probing is linear from a Fibonacci-mixed
//    hash of the dense id (dense ids are sequential, so identity hashing
//    would cluster an entire trace's sites into one run);
//  * erasure tombstones the slot (id = kTombstoneId); tombstones are
//    reclaimed by the rehash triggered when live+dead crosses 7/8 of
//    capacity, so probe chains stay short without per-erase compaction —
//    the timer-wheel prune path erases one entry at a time and must stay
//    O(1) amortized;
//  * iteration order is slot order, a pure function of the insertion
//    sequence — callers that publish entries (snapshots, prune emission)
//    sort by name first, exactly as they did over the unordered_map.
//
// Not thread-safe; owned by InvalidationTable which is externally locked
// (live stack) or single-threaded (replay).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "core/id_space.h"
#include "util/check.h"
#include "util/time.h"

namespace webcc::core {

class CompactSiteList {
 public:
  CompactSiteList() = default;
  CompactSiteList(CompactSiteList&&) = default;
  CompactSiteList& operator=(CompactSiteList&&) = default;

  // Present entries (live leases plus expired-but-not-yet-pruned ones),
  // excluding tombstones — the same count the old map's size() reported.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // Pointer to the lease expiry for `site`, or nullptr when absent. Stable
  // only until the next Upsert (rehash moves slots).
  Time* Find(InternId site) {
    if (capacity_ == 0) return nullptr;
    const std::size_t mask = capacity_ - 1;
    std::size_t i = Hash(site) & mask;
    while (true) {
      const InternId slot = sites_[i];
      if (slot == site) return &leases_[i];
      if (slot == kEmptyId) return nullptr;
      i = (i + 1) & mask;
    }
  }
  const Time* Find(InternId site) const {
    return const_cast<CompactSiteList*>(this)->Find(site);
  }

  // Inserts (site -> lease_until) or finds the existing slot. Returns the
  // slot's expiry pointer and whether a new entry was created; an existing
  // entry's expiry is left untouched (the caller owns refresh semantics).
  std::pair<Time*, bool> Upsert(InternId site, Time lease_until) {
    WEBCC_DCHECK(site < kTombstoneId);
    if ((live_ + dead_ + 1) * 8 > capacity_ * 7) Rehash();
    const std::size_t mask = capacity_ - 1;
    std::size_t i = Hash(site) & mask;
    std::size_t tombstone = capacity_;  // first reusable slot on the chain
    while (true) {
      const InternId slot = sites_[i];
      if (slot == site) return {&leases_[i], false};
      if (slot == kEmptyId) break;
      if (slot == kTombstoneId && tombstone == capacity_) tombstone = i;
      i = (i + 1) & mask;
    }
    if (tombstone != capacity_) {
      i = tombstone;
      --dead_;
    }
    sites_[i] = site;
    leases_[i] = lease_until;
    ++live_;
    return {&leases_[i], true};
  }

  // Tombstones `site`'s slot. Returns false when absent.
  bool Erase(InternId site) {
    if (capacity_ == 0) return false;
    const std::size_t mask = capacity_ - 1;
    std::size_t i = Hash(site) & mask;
    while (true) {
      const InternId slot = sites_[i];
      if (slot == site) {
        sites_[i] = kTombstoneId;
        --live_;
        ++dead_;
        return true;
      }
      if (slot == kEmptyId) return false;
      i = (i + 1) & mask;
    }
  }

  // Visits every present entry as fn(site, lease_until), in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (sites_[i] < kTombstoneId) fn(sites_[i], leases_[i]);
    }
  }

  // Releases all storage (the whole list was taken for invalidation).
  void Reset() {
    sites_.reset();
    leases_.reset();
    capacity_ = 0;
    live_ = 0;
    dead_ = 0;
  }

  // Actual bytes held by the two slot arrays — the measured (not modeled)
  // footprint the lease-scale bench reports as bytes_per_entry.
  std::uint64_t MemoryFootprintBytes() const {
    return static_cast<std::uint64_t>(capacity_) *
           (sizeof(InternId) + sizeof(Time));
  }

 private:
  static constexpr InternId kEmptyId = 0xffffffffu;      // == kNoInternId
  static constexpr InternId kTombstoneId = 0xfffffffeu;  // erased slot

  static std::size_t Hash(InternId site) {
    // Fibonacci multiplicative mix; dense sequential ids spread uniformly.
    return static_cast<std::size_t>(site) * 0x9e3779b9u;
  }

  void Rehash() {
    // Size for the live population only: tombstones die here, which is
    // what makes per-entry Erase O(1) amortized.
    std::size_t new_capacity = 8;
    while ((live_ + 1) * 2 > new_capacity) new_capacity *= 2;
    std::unique_ptr<InternId[]> old_sites = std::move(sites_);
    std::unique_ptr<Time[]> old_leases = std::move(leases_);
    const std::size_t old_capacity = capacity_;
    sites_ = std::make_unique<InternId[]>(new_capacity);
    leases_ = std::make_unique<Time[]>(new_capacity);
    std::memset(sites_.get(), 0xff,
                new_capacity * sizeof(InternId));  // all kEmptyId
    capacity_ = new_capacity;
    live_ = 0;
    dead_ = 0;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_sites[i] < kTombstoneId) Upsert(old_sites[i], old_leases[i]);
    }
  }

  std::unique_ptr<InternId[]> sites_;  // kEmptyId / kTombstoneId / site id
  std::unique_ptr<Time[]> leases_;     // parallel to sites_
  std::size_t capacity_ = 0;           // power of two (or 0 before first use)
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
};

}  // namespace webcc::core
