// N accelerator shards behind one facade.
//
// URLs are mapped onto shards with a consistent-hash ring (core::HashRing),
// so every operation keyed by URL — registration, notify, browser check,
// journal records — touches exactly one shard. Each shard is a complete
// core::Accelerator with its own invalidation table and its own checksummed
// write-ahead journal, which keeps crash recovery per-shard and parallel.
//
// The facade preserves the single-accelerator observable behavior at every
// shard count:
//
//  * a (url, site) list lives wholly inside one shard, so the invalidation
//    fan-out for any one modification is identical to the unsharded tier;
//  * cross-shard operations that emit events (lease pruning, recovery) are
//    merged and globally sorted here before emission, so the trace stream
//    is shard-count invariant;
//  * journal recovery rebuilds each shard from its own journal (phase 1),
//    then sequences the targeted-invalidation pass (phase 2) across shards
//    in global URL order — the union of the per-shard rebuilds is exactly
//    the table a single journal would have restored.
//
// One aggregate that is NOT shard-invariant: sitelist storage bytes. Each
// shard charges the name of every site on its lists, so a site caching
// documents on k shards is counted k times; DESIGN.md §11 discusses the
// bound. All shards name documents and sites in the store's one id space.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/accelerator.h"
#include "core/hash_ring.h"
#include "http/document_store.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace webcc::core {

class ShardedAccelerator {
 public:
  ShardedAccelerator(const http::DocumentStore& store, LeaseConfig lease,
                     std::uint32_t num_shards = 1,
                     std::string server_name = "origin");

  std::uint32_t num_shards() const { return ring_.num_shards(); }
  // The ring placement of `doc`, hashing each document's name once.
  std::uint32_t ShardOf(DocId doc) const;
  Accelerator& shard(std::uint32_t index) { return *shards_[index]; }
  const Accelerator& shard(std::uint32_t index) const {
    return *shards_[index];
  }
  const std::string& server_name() const { return server_name_; }

  // --- URL-routed protocol operations (forwarded to ShardOf(url)) ----------
  std::optional<net::DocReply> HandleRequest(const net::DocRequest& request,
                                             Time now) {
    return shards_[ShardOf(request.doc)]->HandleRequest(request, now);
  }
  std::optional<net::Reply> HandleRequest(const net::Request& request,
                                          Time now);
  std::vector<net::DocInvalidation> HandleNotify(DocId doc, Time now) {
    return shards_[ShardOf(doc)]->HandleNotify(doc, now);
  }
  std::vector<net::Invalidation> HandleNotify(const net::Notify& notify,
                                              Time now);

  // --- failure handling -----------------------------------------------------
  void Crash();  // every shard's in-memory table dies together

  // Server-address broadcast over the union of the shards' site registries,
  // deduplicated and sorted — the same site set (and emission order) the
  // unsharded accelerator's registry would produce.
  std::vector<net::Invalidation> Recover();

  void EnableJournal(bool enabled);
  bool journal_enabled() const;

  struct RecoveryOutcome {
    std::vector<net::Invalidation> invalidations;
    bool journal_damaged = false;     // any shard's journal damaged
    std::size_t shards_damaged = 0;   // how many
    std::size_t records_applied = 0;
    std::size_t records_rejected = 0;
    std::size_t entries_restored = 0;
  };

  // Rebuilds every shard from its own journal, then produces recovery
  // invalidations. Any damaged shard journal degrades the whole recovery to
  // the server-address broadcast (the conservative choice matching the
  // unsharded tier: partial targeted recovery plus partial broadcast would
  // double-invalidate); all-intact journals yield targeted invalidations in
  // global URL order.
  RecoveryOutcome RecoverFromJournal(Time now);

  // --- cross-shard maintenance ---------------------------------------------
  // Prunes every shard, then emits the merged kLeaseExpiry stream in
  // (url, site) order — identical to the unsharded table's emission.
  std::size_t PruneExpired(Time now);

  // --- aggregates (Table 5 storage accounting, engine snapshots) -----------
  std::uint64_t StorageBytes() const;
  std::size_t TotalEntries() const;
  std::size_t MaxListLength() const;
  AcceleratorStats AggregateStats() const;

  // Merged (url, site)-sorted dump across shards; the fault tests compare
  // this across shard counts to prove recovery rebuilds the same union.
  std::vector<InvalidationTable::Snapshot> SnapshotEntries() const;

  void set_trace_sink(obs::TraceSink* sink);

  // One shard: exports exactly the unsharded accelerator's layout (counters
  // plus "<prefix>table."). N shards: aggregate counters under `prefix`,
  // plus each shard's full export under "<prefix>shard<i>.".
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  HashRing ring_;
  const IdSpace* ids_;
  // ShardOf(DocId) memo, indexed by doc id; kNoShard = not placed yet.
  static constexpr std::uint32_t kNoShard = 0xffffffffu;
  mutable std::vector<std::uint32_t> shard_of_doc_;
  std::vector<std::unique_ptr<Accelerator>> shards_;
  std::string server_name_;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
