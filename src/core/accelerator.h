// The Harvest-style server accelerator: the invalidation protocol's
// server-side brain.
//
// The accelerator fronts the origin server (the paper runs it on port 80
// with HTTPD moved to 81) and performs the three operations of Section 4:
//
//  1. tracking remote sites that cache each document (InvalidationTable,
//     fed pessimistically by every request),
//  2. detecting modifications — via check-in NOTIFY messages from the
//     modifier ("notify") or via a freshness check hinted by a local
//     browser request ("browser-based" detection), and
//  3. producing INVALIDATE messages for the sites on the modified
//     document's list.
//
// The accelerator is transport-agnostic: it turns protocol inputs into
// protocol outputs, and the replay engine (or the live socket server)
// moves them. Costs/queueing live with the caller.
//
// Protocol calls come by id (the store's core::IdSpace) and by name; the
// named forms resolve names once and run the id path. Recovery speaks
// names: it is rare, and the journal it replays is text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/invalidation_table.h"
#include "core/journal.h"
#include "core/policy.h"
#include "core/site_registry.h"
#include "http/document_store.h"
#include "http/origin.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace webcc::core {

struct AcceleratorStats {
  std::uint64_t requests = 0;
  std::uint64_t notifies = 0;
  // Notifies/checks that found an actual version change.
  std::uint64_t modifications_detected = 0;
  std::uint64_t invalidations_generated = 0;
  // Site-list length at each detected modification (Table 5's "Avg./Max.
  // SiteList" statistics are taken over exactly these).
  std::vector<std::size_t> list_lengths_at_modification;
};

class Accelerator {
 public:
  Accelerator(const http::DocumentStore& store, LeaseConfig lease,
              std::string server_name = "origin")
      : origin_(store),
        store_(&store),
        ids_(&store.ids()),
        table_(lease, store.ids()),
        registry_(store.ids()),
        server_name_(std::move(server_name)) {}

  // Serves a GET/IMS at protocol time `now`: answers from the origin,
  // registers the requesting site, and stamps the granted lease into the
  // reply. std::nullopt for unknown documents.
  std::optional<net::DocReply> HandleRequest(const net::DocRequest& request,
                                             Time now);
  std::optional<net::Reply> HandleRequest(const net::Request& request,
                                          Time now);

  // Check-in notification: if the document changed since the accelerator
  // last saw it, returns one INVALIDATE per registered site, in site-name
  // order (and forgets them). Empty when nothing changed.
  std::vector<net::DocInvalidation> HandleNotify(DocId doc, Time now);
  std::vector<net::Invalidation> HandleNotify(const net::Notify& notify,
                                              Time now);

  // Browser-based detection: a request from a local browser for a local
  // document suggests checking its modification time. Same outcome as a
  // notify when the document did change.
  std::vector<net::DocInvalidation> CheckDocument(DocId doc, Time now);

  // --- failure handling ----------------------------------------------------
  // Server-site crash: the in-memory invalidation table is lost; the
  // on-disk site registry and write-ahead journal survive.
  void Crash();

  // Recovery: one server-address INVALIDATE per site ever seen, telling each
  // to mark this server's documents questionable. The pre-journal fallback,
  // and what journal recovery degrades to when the journal is damaged.
  std::vector<net::Invalidation> Recover();
  // The same broadcast to `sites`, in site-name order (the sharded facade
  // passes the union of its shards' registries).
  std::vector<net::Invalidation> Broadcast(std::vector<SiteId> sites);

  // --- write-ahead journal (Section 4's persistent site lists) -------------
  // When enabled, every registration / invalidation / version pin is
  // journaled append-before-act, so RecoverFromJournal can rebuild the
  // exact table instead of broadcasting.
  void EnableJournal(bool enabled) { journal_enabled_ = enabled; }
  bool journal_enabled() const { return journal_enabled_; }
  SiteJournal& journal() { return journal_; }
  const SiteJournal& journal() const { return journal_; }

  struct RecoveryOutcome {
    // What to send: targeted kInvalidateUrl messages for documents that
    // changed while the server was down (journal intact), or the kRecover
    // style kInvalidateServer broadcast (journal damaged). All carry
    // recovery = true.
    std::vector<net::Invalidation> invalidations;
    bool journal_damaged = false;
    std::size_t records_applied = 0;
    std::size_t records_rejected = 0;
    std::size_t entries_restored = 0;  // live site-list entries rebuilt
  };

  // Rebuilds the invalidation table and version baselines from the journal
  // (call after Crash()). Intact journal: the table is restored exactly and
  // only documents whose store version advanced past the journaled baseline
  // produce (targeted) invalidations. Damaged journal: the valid prefix is
  // restored — a conservative superset, since replaying fewer 'I' records
  // can only leave extra entries — and the outcome carries the full
  // server-address broadcast. Finally the journal is compacted to a
  // snapshot of the restored state.
  RecoveryOutcome RecoverFromJournal(Time now);

  // Phase 1 of RecoverFromJournal on its own: replays the journal into the
  // table and version baselines and compacts it, emitting no events and
  // producing no invalidations. The sharded accelerator rebuilds every
  // shard through this, then runs phase 2 (targeted invalidations via
  // CheckDocument) across shards in global URL order so the recovery
  // stream is identical at any shard count.
  struct RebuildOutcome {
    bool journal_damaged = false;
    std::size_t records_applied = 0;
    std::size_t records_rejected = 0;
    std::size_t entries_restored = 0;
  };
  RebuildOutcome RebuildFromJournal(Time now);

  // Documents with a journaled version baseline, in name order (phase 2's
  // candidates).
  std::vector<DocId> JournaledDocs() const;

  InvalidationTable& table() { return table_; }
  const InvalidationTable& table() const { return table_; }
  SiteRegistry& registry() { return registry_; }
  const AcceleratorStats& stats() const { return stats_; }
  const std::string& server_name() const { return server_name_; }

  // Optional tracing: lease grants (kLeaseGrant, detail = expiry),
  // modification detection (kInvalidateGenerated per INVALIDATE produced),
  // check-ins (kNotify) and recovery broadcasts (kInvalidateServer). The
  // sink also propagates to the invalidation table (lease expiries).
  void set_trace_sink(obs::TraceSink* sink) {
    trace_sink_ = sink;
    table_.set_trace_sink(sink);
  }

  // Snapshots AcceleratorStats into `registry` under `prefix`; the nested
  // invalidation table exports under "<prefix>table.".
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  std::vector<net::Invalidation> ToWire(
      const std::vector<net::DocInvalidation>& invalidations) const;

  // The version baseline of `doc`; 0 = never seen (versions start at 1).
  std::uint64_t& BaselineOf(DocId doc) {
    if (doc >= last_seen_version_.size()) last_seen_version_.resize(doc + 1);
    return last_seen_version_[doc];
  }

  http::OriginServer origin_;
  const http::DocumentStore* store_;
  IdSpace* ids_;
  InvalidationTable table_;
  SiteRegistry registry_;
  // By doc id: the version as of the last invalidation (or first sighting);
  // modifications are detected as version advances past it. 0 = unseen.
  std::vector<std::uint64_t> last_seen_version_;
  std::string server_name_;
  AcceleratorStats stats_;
  SiteJournal journal_;
  bool journal_enabled_ = false;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
