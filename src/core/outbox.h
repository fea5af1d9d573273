// Per-shard invalidation outbox: the queue between modification detection
// and the dedicated sender.
//
// The paper's prototype sends each INVALIDATE inline with the check-in;
// decoupled mode queues them here instead, and a drain groups everything
// destined for one site into a single batched wire frame (net's INVB verb)
// — one control-header charge carries the whole URL list.
//
// Coalescing: queueing a (site, url) pair that is already pending merges
// into the existing entry instead of duplicating it, accumulating every
// DISTINCT write id it satisfies. A site partitioned through two writes of
// the same document therefore receives ONE batched frame on heal, whose
// delivery acks both writes' delivery machines — and a retried queue of
// the same (site, url, write_id) merges to a no-op, so no write's machine
// is ever acked twice for one site.
//
// Draining is deterministic: sites leave in name order, each site's
// documents in first-queued order. Sites and documents are ids in the
// run's core::IdSpace; Drain takes the site names to order by. A `ready`
// predicate lets the sender hold sites it cannot currently reach
// (partitioned but alive), so their entries keep accumulating until the
// link heals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/id_space.h"
#include "util/time.h"

namespace webcc::core {

class InvalidationOutbox {
 public:
  struct Batch {
    SiteId site = kNoInternId;
    std::vector<DocId> docs;  // first-queued order, no duplicates
    // Parallel to `docs`: the write (modification) ids each document's
    // delivery resolves — more than one when dup-writes coalesced.
    std::vector<std::vector<std::uint64_t>> write_ids;
    // Earliest queue time across the batch's entries — the sender's
    // flush-latency measurement point.
    Time oldest_queued = 0;
  };

  // Queues one invalidation of `doc` for `site`. Returns true when the
  // (site, doc) pair was already pending and the write id merged into it
  // (coalesced).
  bool Add(SiteId site, DocId doc, std::uint64_t write_id, Time queued_at);

  // Removes and returns one batch per site for which `ready` returns true
  // (every site when `ready` is null), in the order of the sites' names in
  // `site_names`. Entries of not-ready sites stay queued and keep
  // coalescing.
  std::vector<Batch> Drain(
      const Interner& site_names,
      const std::function<bool(SiteId)>& ready = nullptr);

  bool empty() const { return pending_.empty(); }
  std::size_t pending_sites() const { return pending_.size(); }
  std::size_t pending_urls() const { return pending_url_count_; }

 private:
  struct Entry {
    DocId doc = kNoInternId;
    std::vector<std::uint64_t> write_ids;
    Time queued_at = 0;  // when the entry was first queued
  };
  std::map<SiteId, std::vector<Entry>> pending_;
  std::size_t pending_url_count_ = 0;
};

}  // namespace webcc::core
