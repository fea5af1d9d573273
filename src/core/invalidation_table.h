// The accelerator's invalidation table: per-URL lists of client sites that
// may hold a cached copy.
//
// Following the paper, the server never asks clients whether they cache a
// document — every requester is pessimistically added to the document's site
// list and removed when it is sent an invalidation (so a site that never
// requests the document again receives no further invalidations).
//
// Leases (Section 6) bound the lists: a site entry only earns a place while
// its lease is in force, so list size is bounded by the requests of the last
// lease window, and with two-tier leases a plain GET's near-zero lease keeps
// one-time viewers out of the table entirely.
//
// The table keys on doc and site ids (DESIGN.md §16): lists_ is indexed by
// doc id and each list holds site ids. Names are read back only for events,
// snapshots and the Table 5 storage accounting, and resolved only for the
// journal's text (Restore, DropList).
//
// Million-site scale (ROADMAP item 4): site lists are CompactSiteList —
// dense open-addressing tables of 12-byte slots keyed on the site id — and
// lease expiry is indexed by a hashed TimerWheel, so PruneExpired is
// O(expired) amortized instead of a full-table scan, and a repeat viewer's
// renewal refreshes its wheel slot lazily instead of re-registering. The
// wheel is an index only; every expiry decision re-reads the authoritative
// lease through core::LeaseActive, which keeps prune results (and replay
// digests) bit-identical to the old scan at any shard count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/id_space.h"
#include "core/policy.h"
#include "core/site_list.h"
#include "core/timer_wheel.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/time.h"

namespace webcc::core {

class InvalidationTable {
 public:
  InvalidationTable(LeaseConfig lease, IdSpace& ids);

  // Registers `site` for `doc` following a request of `request_type`
  // (kGet or kIfModifiedSince) at protocol time `now`. Returns the lease
  // expiry granted (net::kNoLease when leases are off). A zero-length lease
  // does not create an entry. A repeat viewer with a live entry is a
  // *renewal*: its expiry is refreshed in place (never shortened) and the
  // timer wheel picks the new slot up lazily — no second entry, no second
  // wheel slot.
  Time Register(DocId doc, SiteId site, net::MessageType request_type,
                Time now);

  // Collects the sites holding an unexpired lease on `doc`, with each
  // site's lease expiry, and clears the list (each collected site is about
  // to receive an invalidation, after which the server forgets it, as in
  // the paper). The delivery-state machine needs the expiries to decide
  // when a straggler's lease lapses and the write may complete without its
  // ack (Section 6 bound). Entries whose lease already lapsed are dropped
  // through the same expiry accounting as PruneExpired — they emit
  // kLeaseExpiry (site-sorted) and count toward leases_expired(), so the
  // DESIGN §8 event/counter reconciliation holds no matter which path
  // retires an entry. Sites come back in name order.
  struct TakenSite {
    SiteId site = kNoInternId;
    Time lease_until = net::kNoLease;
  };
  std::vector<TakenSite> TakeSitesWithLeases(DocId doc, Time now);

  // Silently discards `url`'s whole list: journal replay applying an 'I'
  // record. History replay is not protocol execution — it must not emit
  // events or touch the expiry counters (RebuildFromJournal's phase 1
  // contract is "no events"), so it does not go through the Take path.
  void DropList(std::string_view url);

  // Re-inserts one entry (journal recovery: rebuilding the table the crash
  // destroyed) and seeds the timer wheel with its expiry. An entry whose
  // lease already lapsed by `now` is dropped here — resurrecting it would
  // inflate entries/storage_bytes until the next prune and fill the wheel
  // with dead slots. Returns whether the entry was restored.
  bool Restore(std::string_view url, std::string_view client,
               Time lease_until, Time now);

  // Full, deterministic (url, site)-sorted dump of the live table. Used to
  // snapshot-compact the journal after recovery and by the fault tests to
  // prove the rebuilt table is a superset of what the crash destroyed.
  struct Snapshot {
    std::string url;
    std::string site;
    Time lease_until = net::kNoLease;
  };
  std::vector<Snapshot> SnapshotEntries() const;

  // Number of live (unexpired) entries for one document.
  std::size_t ListLength(DocId doc, Time now) const;

  // Drops expired entries table-wide; returns how many were pruned. The
  // replay calls this at lock-step boundaries so storage numbers reflect
  // live leases only. O(expired + slots passed) amortized via the wheel.
  std::size_t PruneExpired(Time now);

  // One entry dropped by a prune. The views point into the id space, which
  // never discards names, so they stay valid after the entry is erased.
  struct ExpiredEntry {
    std::string_view url;
    std::string_view site;
    Time lease_until = net::kNoLease;
  };

  // Like PruneExpired, but appends the dropped entries to `out` instead of
  // emitting kLeaseExpiry events (and regardless of the trace sink). The
  // sharded accelerator prunes every shard through this, then sorts and
  // emits the union so the event stream is identical at any shard count.
  std::size_t PruneExpiredInto(Time now, std::vector<ExpiredEntry>& out);

  // Sorts `expired` into (url, site) order and emits one kLeaseExpiry each
  // (nothing when `sink` is null).
  static void EmitLeaseExpiries(obs::TraceSink* sink,
                                std::vector<ExpiredEntry>& expired, Time now);

  // --- storage accounting (Table 5) ---------------------------------------
  // Total present entries across all URLs (live + expired-not-yet-pruned).
  std::size_t TotalEntries() const { return total_entries_; }
  // Longest current list.
  std::size_t MaxListLength() const;
  // Approximate bytes consumed under the paper's accounting: per entry, the
  // client identifier plus the lease timestamp and list linkage (the paper
  // observes 20-30 bytes per request). Kept model-level so Table 5 numbers
  // stay comparable across container rewrites; MemoryFootprintBytes is the
  // measured counterpart.
  std::uint64_t StorageBytes() const;
  // Measured bytes actually held by the compact lists and the timer wheel
  // (capacity, not live count). The lease-scale bench divides this by
  // TotalEntries() for its bytes_per_entry gate.
  std::uint64_t MemoryFootprintBytes() const;

  // --- expiry/renewal accounting (DESIGN §8 reconciliation) ---------------
  // Entries retired because their lease lapsed — by prune or by a take —
  // i.e. exactly the kLeaseExpiry emissions. Survives Clear() like the
  // accelerator's stats: it is measurement record, not server state.
  std::uint64_t leases_expired() const { return leases_expired_; }
  // Register calls that extended an existing live entry's lease.
  std::uint64_t lease_renewals() const { return lease_renewals_; }

  const LeaseConfig& lease_config() const { return lease_; }

  // Discards everything (server-site crash: the in-memory table dies).
  void Clear();

  // Optional tracing: when set, every entry dropped by PruneExpired or
  // found lapsed by a take emits a kLeaseExpiry event (detail = the expiry
  // that lapsed). nullptr disables.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Snapshots occupancy into `registry` under `prefix` (entries,
  // max_list_length, storage_bytes, urls_tracked, leases_expired,
  // lease_renewals).
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  static constexpr std::uint64_t kPerEntryOverheadBytes = 16;
  static constexpr std::size_t kWheelSlots = 4096;

  void ConfigureWheel();

  // Appends `url`'s lapsed entries to `out` (unsorted; EmitLeaseExpiries
  // sorts) and erases them, charging leases_expired_. Used by the take
  // path — wheel-driven prune erases per entry as slots are visited.
  void ExpireListEntries(DocId doc, Time now,
                         std::vector<ExpiredEntry>& out);


  CompactSiteList* FindList(DocId doc) {
    return doc < lists_.size() && !lists_[doc].empty() ? &lists_[doc]
                                                       : nullptr;
  }
  const CompactSiteList* FindList(DocId doc) const {
    return const_cast<InvalidationTable*>(this)->FindList(doc);
  }
  // Inserts (doc, site) with `lease_until`, scheduling a new timed entry on
  // the wheel, or refreshes an existing one — never shortening a live
  // lease. Returns whether an existing entry's expiry was extended.
  bool Upsert(DocId doc, SiteId site, Time lease_until);

  void ReleaseList(CompactSiteList& list) {
    list.Reset();
    --urls_tracked_;
  }

  LeaseConfig lease_;
  IdSpace* ids_;
  // Indexed by doc id. Empty lists are not "tracked".
  std::vector<CompactSiteList> lists_;
  TimerWheel wheel_;
  std::size_t total_entries_ = 0;
  std::size_t urls_tracked_ = 0;
  std::uint64_t leases_expired_ = 0;
  std::uint64_t lease_renewals_ = 0;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
