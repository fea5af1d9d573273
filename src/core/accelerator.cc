#include "core/accelerator.h"

#include <algorithm>
#include <utility>

#include "core/lease.h"
#include "util/check.h"

namespace webcc::core {

std::optional<net::DocReply> Accelerator::HandleRequest(
    const net::DocRequest& request, Time now) {
  std::optional<net::DocReply> reply = origin_.Handle(request, now);
  if (!reply.has_value()) return reply;
  ++stats_.requests;

  // First sighting of a document pins the version baseline so a later
  // notify can tell "changed since last invalidation" from "never seen".
  const std::uint64_t version = reply->version;
  std::uint64_t& baseline = BaselineOf(request.doc);
  const bool first_sighting = baseline == 0;
  if (first_sighting) baseline = version;
  if (journal_enabled_) {
    // Append-before-act: the journal records the registration before the
    // table mutates, so a torn tail can only describe an entry that was
    // never created. GrantLease is pure, so computing it here and again
    // inside Register cannot disagree.
    const std::string& url = ids_->DocName(request.doc);
    if (first_sighting) journal_.AppendVersion(url, version);
    const Time lease = GrantLease(table_.lease_config(), request.type, now);
    if (LeaseActive(lease, now)) {
      journal_.AppendRegister(url, ids_->SiteName(request.site), lease);
    }
  }

  // Pessimistic registration: any requester might cache the document.
  reply->lease_until =
      table_.Register(request.doc, request.site, request.type, now);
  if (reply->lease_until != net::kNoLease) {
    obs::Emit(trace_sink_, {.type = obs::EventType::kLeaseGrant,
                            .at = now,
                            .url = ids_->DocName(request.doc),
                            .site = ids_->SiteName(request.site),
                            .detail = reply->lease_until});
  }
  registry_.RecordSite(request.site);
  return reply;
}

std::optional<net::Reply> Accelerator::HandleRequest(
    const net::Request& request, Time now) {
  const DocId doc = ids_->docs.Find(request.url);
  // An unknown document is refused before its requester is registered.
  if (store_->Find(doc) == nullptr) return std::nullopt;
  net::DocRequest by_id;
  by_id.type = request.type;
  by_id.doc = doc;
  by_id.site = ids_->sites.Intern(request.client_id);
  by_id.if_modified_since = request.if_modified_since;
  return net::ToWire(*HandleRequest(by_id, now), *ids_);
}

std::vector<net::DocInvalidation> Accelerator::HandleNotify(DocId doc,
                                                            Time now) {
  ++stats_.notifies;
  obs::Emit(trace_sink_, {.type = obs::EventType::kNotify,
                          .at = now,
                          .url = ids_->DocName(doc)});
  return CheckDocument(doc, now);
}

std::vector<net::Invalidation> Accelerator::HandleNotify(
    const net::Notify& notify, Time now) {
  const DocId doc = ids_->docs.Find(notify.url);
  if (doc != kNoInternId) return ToWire(HandleNotify(doc, now));
  // A check-in for a name the server never stored: counted and traced like
  // any other, with nothing to invalidate.
  ++stats_.notifies;
  obs::Emit(trace_sink_,
            {.type = obs::EventType::kNotify, .at = now, .url = notify.url});
  return {};
}

std::vector<net::Invalidation> Accelerator::ToWire(
    const std::vector<net::DocInvalidation>& invalidations) const {
  std::vector<net::Invalidation> out;
  out.reserve(invalidations.size());
  for (const net::DocInvalidation& inv : invalidations) {
    out.push_back(net::ToWire(inv, *ids_));
  }
  return out;
}

std::vector<net::DocInvalidation> Accelerator::CheckDocument(DocId doc,
                                                             Time now) {
  std::vector<net::DocInvalidation> out;
  const http::Document* document = store_->Find(doc);
  if (document == nullptr) return out;

  std::uint64_t& baseline = BaselineOf(doc);
  const bool first_sighting = baseline == 0;
  if (first_sighting || document->version == baseline) {
    baseline = document->version;
    if (first_sighting && journal_enabled_) {
      journal_.AppendVersion(ids_->DocName(doc), document->version);
    }
    return out;  // unchanged (or nothing could have cached it yet)
  }
  baseline = document->version;
  ++stats_.modifications_detected;
  if (journal_enabled_) {
    // Journal the new baseline and the list wipe before taking the list.
    journal_.AppendVersion(ids_->DocName(doc), document->version);
    journal_.AppendInvalidate(ids_->DocName(doc));
  }

  const std::vector<InvalidationTable::TakenSite> sites =
      table_.TakeSitesWithLeases(doc, now);
  stats_.list_lengths_at_modification.push_back(sites.size());
  out.reserve(sites.size());
  for (const InvalidationTable::TakenSite& taken : sites) {
    net::DocInvalidation inv;
    inv.type = net::MessageType::kInvalidateUrl;
    inv.doc = doc;
    inv.site = taken.site;
    inv.lease_until = taken.lease_until;
    obs::Emit(trace_sink_, {.type = obs::EventType::kInvalidateGenerated,
                            .at = now,
                            .url = ids_->DocName(doc),
                            .site = ids_->SiteName(taken.site)});
    out.push_back(inv);
  }
  stats_.invalidations_generated += out.size();
  return out;
}

void Accelerator::Crash() {
  table_.Clear();
  last_seen_version_.assign(last_seen_version_.size(), 0);
  // stats_ intentionally survives: it is the experiment's measurement
  // record, not server state.
}

std::vector<net::Invalidation> Accelerator::Recover() {
  return Broadcast(registry_.sites());
}

std::vector<net::Invalidation> Accelerator::Broadcast(
    std::vector<SiteId> sites) {
  SortByName(sites, ids_->sites);
  std::vector<net::Invalidation> out;
  out.reserve(sites.size());
  for (const SiteId site : sites) {
    net::Invalidation inv;
    inv.type = net::MessageType::kInvalidateServer;
    inv.server = server_name_;
    inv.client_id = ids_->SiteName(site);
    inv.recovery = true;
    obs::Emit(trace_sink_, {.type = obs::EventType::kInvalidateServer,
                            .site = inv.client_id,
                            .label = server_name_});
    out.push_back(std::move(inv));
  }
  return out;
}

Accelerator::RebuildOutcome Accelerator::RebuildFromJournal(Time now) {
  RebuildOutcome outcome;
  const SiteJournal::ReplayResult replayed = journal_.Replay();
  outcome.journal_damaged = replayed.damaged;
  outcome.records_applied = replayed.records_applied;
  outcome.records_rejected = replayed.records_rejected;

  // Replay the valid prefix. When the journal is damaged this restores a
  // conservative superset: dropping trailing 'I' records can only leave
  // *extra* site-list entries (invalidate-more), never missing ones.
  for (const SiteJournal::Entry& entry : replayed.entries) {
    switch (entry.kind) {
      case 'R':
        // Restore drops entries whose lease lapsed while the server was
        // down — resurrecting them would inflate the rebuilt table's
        // entries/storage_bytes until the next prune.
        table_.Restore(entry.url, entry.site, entry.lease_until, now);
        break;
      case 'I':
        // History replay, not protocol execution: discard the list
        // silently. The Take path would emit kLeaseExpiry for lapsed
        // entries, and rebuild must emit no events.
        table_.DropList(entry.url);
        break;
      case 'V':
        BaselineOf(ids_->docs.Intern(entry.url)) = entry.version;
        break;
      default:
        break;  // Replay never yields other kinds
    }
  }

  // Compact: the history is now embodied in the table, so rewrite the
  // journal as a snapshot of the restored state (version pins first, then
  // live registrations, both in sorted order for determinism).
  journal_.Clear();
  for (const DocId doc : JournaledDocs()) {
    journal_.AppendVersion(ids_->DocName(doc), last_seen_version_[doc]);
  }
  std::vector<InvalidationTable::Snapshot> entries = table_.SnapshotEntries();
  outcome.entries_restored = entries.size();
  for (const InvalidationTable::Snapshot& entry : entries) {
    journal_.AppendRegister(entry.url, entry.site, entry.lease_until);
  }
  return outcome;
}

std::vector<DocId> Accelerator::JournaledDocs() const {
  std::vector<DocId> docs;
  for (DocId doc = 0; doc < last_seen_version_.size(); ++doc) {
    if (last_seen_version_[doc] != 0) docs.push_back(doc);
  }
  SortByName(docs, ids_->docs);
  return docs;
}

Accelerator::RecoveryOutcome Accelerator::RecoverFromJournal(Time now) {
  RecoveryOutcome outcome;
  const RebuildOutcome rebuilt = RebuildFromJournal(now);
  outcome.journal_damaged = rebuilt.journal_damaged;
  outcome.records_applied = rebuilt.records_applied;
  outcome.records_rejected = rebuilt.records_rejected;
  outcome.entries_restored = rebuilt.entries_restored;

  if (outcome.journal_damaged) {
    // History after the damage point is unknowable; fall back to the
    // paper's blanket recovery broadcast (mark everything questionable).
    outcome.invalidations = Recover();
    return outcome;
  }

  // Intact journal: only documents whose store version advanced while the
  // server was down need (targeted) invalidations.
  for (const DocId doc : JournaledDocs()) {
    const http::Document* document = store_->Find(doc);
    if (document == nullptr || document->version == last_seen_version_[doc]) {
      continue;
    }
    for (net::DocInvalidation& inv : CheckDocument(doc, now)) {
      inv.recovery = true;
      outcome.invalidations.push_back(net::ToWire(inv, *ids_));
    }
  }
  return outcome;
}

void Accelerator::ExportMetrics(obs::MetricsRegistry& registry,
                                std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("requests"), stats_.requests);
  registry.SetCounter(name("notifies"), stats_.notifies);
  registry.SetCounter(name("modifications_detected"),
                      stats_.modifications_detected);
  registry.SetCounter(name("invalidations_generated"),
                      stats_.invalidations_generated);
  obs::Histogram* lists = registry.FindOrCreateHistogram(
      name("site_list_length_at_modification"));
  for (const std::size_t length : stats_.list_lengths_at_modification) {
    lists->Record(static_cast<double>(length));
  }
  table_.ExportMetrics(registry, name("table."));
}

}  // namespace webcc::core
