// GreedyDual-Size (Cao & Irani) with uniform retrieval cost: every entry
// carries a credit H = L + cost/size with cost = 1, and the entry with the
// smallest H is evicted. Instead of aging every resident entry on each
// eviction, the standard inflation-offset trick raises the global floor L
// to the victim's H — a hit or insert then re-credits the entry above the
// floor, so recently-useful small objects outlive large cold ones.
//
// This is the one policy that keeps per-entry state: a key -> (H, order)
// map plus a lazy-deletion min-heap of (H, order, key). `order` is a
// policy-private monotone counter, so credit ties break toward the older
// record — the same older-first convention as the TTL heap's stamp order —
// and the whole decision sequence is deterministic (doubles included: the
// arithmetic is a fixed-order sum of exact inputs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "http/eviction/policy.h"

namespace webcc::http::eviction {

class GdsPolicy : public EvictionPolicy {
 public:
  EvictionPolicyKind kind() const override {
    return EvictionPolicyKind::kGds;
  }

  void OnInsert(const EntryView& entry) override { Credit(entry); }
  void OnHit(const EntryView& entry) override { Credit(entry); }
  void OnErase(const EntryView& entry) override { live_.erase(entry.key); }

  Victim PickVictim(Time /*now*/, EvictionHost& /*host*/) override {
    for (;;) {
      // PickVictim is only called with a resident tier-1 entry, and every
      // resident entry has a live heap record, so the heap cannot run dry.
      std::pop_heap(heap_.begin(), heap_.end(), Costlier);
      const HeapRecord top = heap_.back();
      heap_.pop_back();
      const auto it = live_.find(top.key);
      if (it == live_.end() || it->second.order != top.order) {
        continue;  // stale: entry erased or re-credited since this push
      }
      inflation_ = top.h;
      ++stats_.picks;
      return Victim{top.key, /*expired_rule=*/false};
    }
  }

  void ExportStats(obs::MetricsRegistry& registry,
                   std::string_view prefix) const override {
    EvictionPolicy::ExportStats(registry, prefix);
    std::string name(prefix);
    name += "gds_inflation";
    registry.SetGauge(name, inflation_);
  }

  double inflation() const { return inflation_; }

 private:
  struct Credit_ {
    double h = 0.0;
    std::uint64_t order = 0;
  };
  struct HeapRecord {
    double h = 0.0;
    std::uint64_t order = 0;
    EntryKey key = kNoEntryKey;
  };

  // Min-heap by (h, order): ties in credit evict the older record first.
  static bool Costlier(const HeapRecord& a, const HeapRecord& b) {
    if (a.h != b.h) return a.h > b.h;
    return a.order > b.order;
  }

  void Credit(const EntryView& entry) {
    const double h =
        inflation_ + 1.0 / static_cast<double>(std::max<std::uint64_t>(
                               entry.size_bytes, 1));
    const std::uint64_t order = next_order_++;
    live_[entry.key] = Credit_{h, order};
    heap_.push_back(HeapRecord{h, order, entry.key});
    std::push_heap(heap_.begin(), heap_.end(), Costlier);
    // Every re-credit leaks one stale record; rebuild once they outnumber
    // the live ones (same policy as ExpiryHeap::CompactIfStale).
    if (heap_.size() >= kCompactFloor && heap_.size() > 2 * live_.size()) {
      auto keep = heap_.begin();
      for (const HeapRecord& r : heap_) {
        const auto it = live_.find(r.key);
        if (it != live_.end() && it->second.order == r.order) *keep++ = r;
      }
      heap_.erase(keep, heap_.end());
      std::make_heap(heap_.begin(), heap_.end(), Costlier);
    }
  }

  static constexpr std::size_t kCompactFloor = 64;

  double inflation_ = 0.0;
  std::uint64_t next_order_ = 0;
  std::unordered_map<EntryKey, Credit_> live_;
  std::vector<HeapRecord> heap_;
};

}  // namespace webcc::http::eviction
