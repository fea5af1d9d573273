// Hierarchical-caching mode (Section 7): a shared parent proxy between the
// pseudo-clients and the server. The parent serves leaf GETs from its own
// cache, fetches through as site "parent", remembers per-document leaf
// interest, and forwards invalidations down to the leaves that fetched the
// document since the last invalidation.
#include "obs/event.h"
#include "replay/engine_impl.h"

namespace webcc::replay::detail {

void Engine::ParentHandle(const net::DocRequest& request, int client_index,
                          std::uint64_t seq, Time trace_time) {
  // Remember this leaf's interest so an invalidation can be forwarded. The
  // interest table keys on the leaf's proxy site, which names its index.
  parent_table_->Register(request.doc, ProxySite(client_index),
                          net::MessageType::kGet, trace_time);

  http::CacheEntry* entry =
      parent_cache_->Lookup(parent_site_, request.doc, trace_time);
  if (entry != nullptr && !entry->questionable &&
      request.type == net::MessageType::kGet) {
    // Served from the parent's shared cache: no server involvement.
    ++metrics_.parent_hits;
    net::DocReply reply;
    reply.type = net::MessageType::kReply200;
    reply.doc = request.doc;
    reply.body_bytes = entry->size_bytes;
    reply.last_modified = entry->last_modified;
    reply.version = entry->version;
    NoteReply(reply, request.site, trace_time);
    metrics_.message_bytes += net::WireSize(reply, ids_);
    ReplyToClient(ParentNode(),
                  parent_cpu_->Enqueue(config_.client_costs.proxy_hit_time),
                  client_index, seq, reply, request.site,
                  /*piggyback_bytes=*/0, trace_time);
    return;
  }

  // Miss (or a validation): fetch through to the server as "parent".
  ++metrics_.parent_fetches;
  const bool leaf_wanted_body = request.type == net::MessageType::kGet;
  net::DocRequest upstream = request;
  const core::SiteId owner = request.site;
  upstream.site = parent_site_;
  if (entry != nullptr && request.type == net::MessageType::kGet) {
    // Questionable parent copy revalidates rather than refetching.
    upstream.type = net::MessageType::kIfModifiedSince;
    upstream.if_modified_since = entry->last_modified;
  }
  const std::uint64_t wire = net::WireSize(upstream, ids_);
  metrics_.message_bytes += wire;
  net_.Send(ParentNode(), ServerNode(), wire,
            [this, upstream, client_index, seq, owner, leaf_wanted_body,
             trace_time] {
              ServerHandleForParent(upstream, client_index, seq, owner,
                                    leaf_wanted_body, trace_time);
            });
}

void Engine::ServerHandleForParent(const net::DocRequest& request,
                                   int client_index, std::uint64_t seq,
                                   core::SiteId owner, bool leaf_wanted_body,
                                   Time trace_time) {
  std::optional<net::DocReply> reply =
      accel_.HandleRequest(request, trace_time);
  WEBCC_CHECK_MSG(reply.has_value(), "trace referenced an unknown document");

  const Time ready =
      ChargeServer(reply->type == net::MessageType::kReply200, 0);
  // Hop-2 replies are counted via parent_fetches; bytes are real traffic.
  metrics_.message_bytes += net::WireSize(*reply, ids_);
  const auto scaled_body = static_cast<std::uint64_t>(
      static_cast<double>(reply->body_bytes) / config_.size_scale);
  const std::uint64_t wire_bytes =
      net::kControlHeaderBytes + ids_.DocName(reply->doc).size() + scaled_body;

  sim_.At(ready, [this, client_index, seq, reply = *reply, owner,
                  leaf_wanted_body, trace_time, wire_bytes] {
    net_.Send(ServerNode(), ParentNode(), wire_bytes,
              [this, client_index, seq, reply, owner, leaf_wanted_body,
               trace_time] {
                ParentReceiveReply(reply, client_index, seq, owner,
                                   leaf_wanted_body, trace_time);
              });
  });
}

void Engine::ParentReceiveReply(net::DocReply reply, int client_index,
                                std::uint64_t seq, core::SiteId owner,
                                bool leaf_wanted_body, Time trace_time) {
  if (reply.type == net::MessageType::kReply200) {
    http::CacheEntry entry;
    entry.doc = reply.doc;
    entry.site = parent_site_;
    entry.size_bytes = reply.body_bytes;
    entry.last_modified = reply.last_modified;
    entry.version = reply.version;
    entry.fetched_at = trace_time;
    parent_cache_->Insert(std::move(entry), trace_time);
  } else {
    http::CacheEntry* entry = parent_cache_->Peek(parent_site_, reply.doc);
    if (entry == nullptr && leaf_wanted_body) {
      // The parent's copy was evicted while this validation was in flight:
      // the 304 certifies a copy that no longer exists. Refetch it so the
      // leaf's GET is answered with a body.
      ++metrics_.parent_fetches;
      net::DocRequest refetch;
      refetch.type = net::MessageType::kGet;
      refetch.doc = reply.doc;
      refetch.site = parent_site_;
      const std::uint64_t wire = net::WireSize(refetch, ids_);
      metrics_.message_bytes += wire;
      net_.Send(ParentNode(), ServerNode(), wire,
                [this, refetch, client_index, seq, owner, trace_time] {
                  ServerHandleForParent(refetch, client_index, seq, owner,
                                        /*leaf_wanted_body=*/true, trace_time);
                });
      return;
    }
    if (entry != nullptr) {
      entry->questionable = false;
      if (leaf_wanted_body) {
        // The leaf asked for a body but the server certified the parent's
        // copy fresh: serve the revalidated copy as a 200.
        reply.type = net::MessageType::kReply200;
        reply.body_bytes = entry->size_bytes;
        reply.version = entry->version;
      }
    }
  }

  // Forward to the leaf (this is the leaf-facing reply).
  NoteReply(reply, owner, trace_time);
  metrics_.message_bytes += net::WireSize(reply, ids_);
  ReplyToClient(ParentNode(),
                parent_cpu_->Enqueue(config_.client_costs.proxy_hit_time),
                client_index, seq, reply, owner, /*piggyback_bytes=*/0,
                trace_time);
}

void Engine::ParentDeliverInvalidation(core::DocId doc, std::uint64_t mod_id) {
  parent_cache_->EraseByUrl(doc);
  NoteDelivered(doc, parent_site_);

  // Forward to the leaf proxies that fetched this document since the last
  // invalidation; the write completes when they have all been reached. Leaf
  // forwards carry no lease (the parent holds the server-facing lease), so
  // they resolve only by delivery or target death, never by expiry.
  const std::vector<core::InvalidationTable::TakenSite> leaves =
      parent_table_->TakeSitesWithLeases(doc, sim_.now());
  const auto pending = pending_mod_targets_.find(mod_id);
  if (pending != pending_mod_targets_.end()) {
    for (const core::InvalidationTable::TakenSite& leaf : leaves) {
      pending->second.delivery.AddTarget(leaf.site, net::kNoLease);
    }
  }
  for (const core::InvalidationTable::TakenSite& leaf : leaves) {
    const int index = PseudoOf(leaf.site);
    ++metrics_.hierarchy_forwards;
    net::DocInvalidation forward;
    forward.type = net::MessageType::kInvalidateUrl;
    forward.doc = doc;
    forward.site = leaf.site;
    metrics_.message_bytes += net::WireSize(forward, ids_);
    net_.SendReliable(
        ParentNode(), clients_[index].node, net::WireSize(forward, ids_),
        [this, index, mod_id, forward] {
          clients_[index].cache->EraseByUrl(forward.doc);
          NoteDelivered(forward.doc, forward.site);
          ResolveWriteTarget(mod_id, forward.site, /*dead=*/false);
        },
        [this, forward, mod_id](sim::Network::SendResult result,
                                Time done_at) {
          if (result == sim::Network::SendResult::kDelivered) return;
          NoteRefused(result, done_at, ids_.DocName(forward.doc), forward.site);
          ResolveWriteTarget(mod_id, forward.site, /*dead=*/true);
        },
        /*max_retries=*/-1);
  }

  // The parent's own slot (the server targeted "parent") is now resolved.
  ResolveWriteTarget(mod_id, parent_site_, /*dead=*/false);
}

void Engine::ParentDeliverServerNotice(const net::DocInvalidation& notice) {
  // Server-site recovery reaches the parent, which must assume everything
  // below it may be stale: its own cache and every leaf's become
  // questionable.
  parent_cache_->MarkAllQuestionable();
  const std::uint64_t wire = net::WireSize(notice, ids_);
  for (PseudoClient& pc : clients_) {
    ++metrics_.hierarchy_forwards;
    metrics_.message_bytes += wire;
    net_.Send(ParentNode(), pc.node, wire,
              [&pc] { pc.cache->MarkAllQuestionable(); });
  }
  FinishRecoveryNotice();
}

}  // namespace webcc::replay::detail
