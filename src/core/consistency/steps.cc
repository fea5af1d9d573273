#include "core/consistency/steps.h"

#include <algorithm>
#include <utility>

#include "http/origin.h"

namespace webcc::core::consistency {
namespace {

// Snapshot of a cached copy's consistency state for the kernel.
EntryMeta MetaOf(const http::CacheEntry& entry) {
  return {.last_modified = entry.last_modified,
          .fetched_at = entry.fetched_at,
          .ttl_expires = entry.ttl_expires,
          .lease_expires = entry.lease_expires,
          .questionable = entry.questionable};
}

ReplyMeta MetaOf(const net::DocReply& reply) {
  return {.last_modified = reply.last_modified,
          .lease_until = reply.lease_until};
}

}  // namespace

ProxyRequest BeginRequest(const ConsistencyPolicy& policy,
                          const PiggybackConfig& piggyback,
                          http::ProxyCache& cache, SiteId site, DocId doc,
                          Time now) {
  ProxyRequest out;
  out.request.doc = doc;
  out.request.site = site;
  http::CacheEntry* entry = cache.Lookup(site, doc, now);
  if (entry != nullptr) {
    const HitDecision decision = policy.OnHit(MetaOf(*entry), now);
    if (decision.action == HitAction::kServeLocal) {
      out.local = entry;
      return out;
    }
    out.request.type = net::MessageType::kIfModifiedSince;
    out.request.if_modified_since = entry->last_modified;
    out.lease_renewal = decision.lease_renewal;
  }

  // PCV: since the server is contacted anyway, piggyback a batch of this
  // proxy's TTL-expired entries for bulk validation.
  if (policy.traits().piggyback_validation) {
    for (http::CacheEntry* expired :
         cache.TakeExpired(now, piggyback.max_validations_per_request)) {
      if (expired->site == site && expired->doc == doc) {
        // The request itself validates this entry; leave it indexed.
        cache.SetTtlExpiry(*expired, expired->ttl_expires);
        continue;
      }
      out.pcv_items.push_back(
          PcvItem{expired->doc, expired->site, expired->last_modified});
    }
  }
  return out;
}

PiggybackApplied ApplyPiggyback(const ConsistencyPolicy& policy,
                                http::ProxyCache& cache,
                                const std::vector<PcvVerdict>& verdicts,
                                const std::vector<DocId>& psi_docs,
                                Time now) {
  PiggybackApplied applied;
  for (const PcvVerdict& verdict : verdicts) {
    http::CacheEntry* entry = cache.Peek(verdict.site, verdict.doc);
    if (entry == nullptr) continue;  // evicted while on the wire
    if (verdict.invalid) {
      cache.Erase(verdict.site, verdict.doc);
      ++applied.pcv_invalidated;
    } else {
      cache.SetTtlExpiry(*entry, policy.OnPcvValid(MetaOf(*entry), now));
    }
  }
  for (const DocId doc : psi_docs) applied.psi_erased += cache.EraseByUrl(doc);
  return applied;
}

http::CacheEntry* ApplyReply(const ConsistencyPolicy& policy,
                             http::ProxyCache& cache,
                             const net::DocReply& reply, SiteId owner,
                             Time now) {
  if (reply.type == net::MessageType::kReply200) {
    const InsertDecision decision = policy.OnMissReply(MetaOf(reply), now);
    http::CacheEntry entry;
    entry.doc = reply.doc;
    entry.site = owner;
    entry.size_bytes = reply.body_bytes;
    entry.last_modified = reply.last_modified;
    entry.version = reply.version;
    entry.fetched_at = now;
    entry.ttl_expires = decision.ttl_expires;
    entry.lease_expires = decision.lease_expires;
    cache.Insert(std::move(entry), now);
    return nullptr;
  }
  // 304: the cached copy is certified fresh as of this validation.
  http::CacheEntry* entry = cache.Peek(owner, reply.doc);
  if (entry == nullptr) return nullptr;
  const ValidateDecision decision =
      policy.OnValidateReply(MetaOf(reply), now);
  if (decision.clear_questionable) entry->questionable = false;
  if (decision.set_ttl) cache.SetTtlExpiry(*entry, decision.ttl_expires);
  if (decision.set_lease) entry->lease_expires = decision.lease_expires;
  return entry;
}

std::optional<ServerAnswer> ServeRequest(
    const ConsistencyPolicy& policy, const PiggybackConfig& piggyback,
    const http::DocumentStore& docs, ShardedAccelerator& accel,
    const ModificationLog& mod_log, const net::DocRequest& request,
    const std::vector<PcvItem>& pcv_items, Time& psi_cursor, Time now) {
  const Traits& traits = policy.traits();
  // Protocols without invalidation callbacks run no accelerator: no site
  // registration, no leases — the origin answers directly.
  std::optional<net::DocReply> reply =
      traits.invalidation_callbacks
          ? accel.HandleRequest(request, now)
          : http::OriginServer(docs).Handle(request, now);
  if (!reply.has_value()) return std::nullopt;

  ServerAnswer answer{*reply, {}, {}};
  // PCV: bulk-validate the piggybacked batch against the file system.
  if (traits.piggyback_validation && !pcv_items.empty()) {
    answer.verdicts = ValidatePiggyback(docs, pcv_items);
  }
  // PSI: attach the documents modified since this proxy's last contact and
  // advance its cursor.
  if (traits.piggyback_invalidation) {
    ModificationLog::Window window = mod_log.CollectSince(
        psi_cursor, now, piggyback.max_invalidations_per_reply);
    psi_cursor = std::max(psi_cursor, window.advanced_to);
    answer.psi_docs = std::move(window.docs);
  }
  return answer;
}

}  // namespace webcc::core::consistency
