// Modifier process and server-driven invalidation fan-out: the write path
// of the invalidation protocol (Section 3.3), its serialized/decoupled and
// multicast send variants (Section 5.3), and the crash-recovery broadcast
// (Section 4). Whether a write owes a fan-out at all is the kernel's
// OnWrite decision; everything here is mechanism.
#include <algorithm>

#include "obs/event.h"
#include "replay/engine_impl.h"

namespace webcc::replay::detail {

void Engine::ModifierStep() {
  if (mod_cursor_ >= mod_window_end_) {
    ParticipantDone();
    return;
  }
  const trace::ModEvent& event = modifications_[mod_cursor_++];
  const core::DocId doc = event.doc;

  // The touch registers in the file system immediately; for polling, this is
  // the point at which the write is complete. For invalidation the write is
  // in progress from this instant until the fan-out is delivered.
  docs_.Touch(doc, event.at);
  mod_times_[doc].push_back(event.at);
  mod_log_.Record(event.at, doc);
  ++metrics_.modifications_applied;
  obs::Emit(sink_, {.type = obs::EventType::kModification,
                    .at = sim_.now(),
                    .trace_time = event.at,
                    .url = ids_.DocName(doc)});
  const bool fan_out = policy_->OnWrite().fan_out_invalidations;
  if (fan_out && !server_down_) ++writes_in_progress_[doc];

  if (server_down_) {
    // The accelerator is dead: the modification goes unnoticed until the
    // recovery broadcast. The touch itself persists (the file system
    // survives the crash).
    sim_.After(0, [this] { ModifierStep(); });
    return;
  }

  // The check-in utility notifies the accelerator; detection happens when
  // the notify is processed.
  server_cpu_.Enqueue(config_.server_costs.notify_cpu,
                      [this, fan_out, doc, at = event.at] {
                        if (fan_out) {
                          FanOutInvalidations(accel_.HandleNotify(doc, at), doc,
                                              at, [this] { ModifierStep(); });
                        } else {
                          ModifierStep();
                        }
                      });
}

void Engine::FanOutInvalidations(
    std::vector<net::DocInvalidation> invalidations, core::DocId doc,
    Time trace_time, std::function<void()> on_complete) {
  WEBCC_CHECK(static_cast<bool>(on_complete));
  if (invalidations.empty()) {
    // No site holds a live-leased copy: the write is trivially complete.
    ++metrics_.write_completions;
    metrics_.write_completion_wall_ms.Record(0.0);
    metrics_.write_blocked_trace_ms.Record(0.0);
    obs::Emit(sink_,
              {.type = obs::EventType::kWriteComplete,
               .at = sim_.now(),
               .trace_time = trace_time,
               .url = ids_.DocName(doc),
               .detail = static_cast<std::int64_t>(
                   obs::WriteCompleteKind::kNoTargets)});
    CompleteWrite(doc);
    sim_.After(0, std::move(on_complete));
    return;
  }

  const std::uint64_t mod_id = next_mod_id_++;
  PendingMod& pending = pending_mod_targets_[mod_id];
  pending.doc = doc;
  pending.started_trace = trace_time;
  pending.started_wall = sim_.now();
  for (const net::DocInvalidation& invalidation : invalidations) {
    pending.delivery.AddTarget(invalidation.site, invalidation.lease_until);
  }
  pending.first_pending = static_cast<int>(invalidations.size());
  if (config_.serialized_invalidation) {
    // The check-in blocks until the fan-out lands (the paper's prototype);
    // the modifier resumes only once this write has completed.
    pending.on_complete = std::move(on_complete);
  }

  // All of one modification's invalidations carry the same URL, so they
  // route to one shard: its sender in decoupled mode, the shared server
  // CPU when serialized (the paper's prototype, shard-count invariant).
  const std::uint32_t shard = accel_.ShardOf(doc);
  sim::FifoStation& sender = config_.serialized_invalidation
                                 ? server_cpu_
                                 : *inval_senders_[shard];
  const Time fanout_start = sim_.now();
  Time last_send_done = fanout_start;
  if (config_.multicast_invalidation) {
    // One group send regardless of list length: one CPU charge, one
    // message's bytes; the network fans the copies out.
    ++metrics_.multicast_sends;
    metrics_.invalidations_sent += invalidations.size();
    metrics_.message_bytes += net::WireSize(invalidations.front(), ids_);
    last_send_done = sender.Enqueue(
        config_.server_costs.invalidation_send_cpu,
        [this, invalidations = std::move(invalidations), mod_id] {
          for (const net::DocInvalidation& invalidation : invalidations) {
            SendInvalidation(invalidation, mod_id);
          }
        });
    metrics_.invalidation_time_ms.Record(
        ToMillis(last_send_done - fanout_start));
  } else if (BatchingEnabled()) {
    // Queue into the shard's outbox; the armed drain packs everything
    // pending per site into one INVB frame after the batch window. Wire
    // bytes are charged at drain time (per frame, the batching win);
    // batch_flush_ms replaces invalidation_time_ms as the push-delay stat.
    for (const net::DocInvalidation& invalidation : invalidations) {
      ++metrics_.invalidations_sent;
      if (outboxes_[shard].Add(invalidation.site, doc, mod_id,
                               fanout_start)) {
        ++metrics_.invalidations_coalesced;
      }
    }
    ScheduleOutboxDrain(shard, config_.invalidation_batch_window);
  } else {
    for (const net::DocInvalidation& invalidation : invalidations) {
      ++metrics_.invalidations_sent;
      metrics_.message_bytes += net::WireSize(invalidation, ids_);
      last_send_done = sender.Enqueue(
          config_.server_costs.invalidation_send_cpu,
          [this, invalidation, mod_id] {
            SendInvalidation(invalidation, mod_id);
          });
    }
    metrics_.invalidation_time_ms.Record(
        ToMillis(last_send_done - fanout_start));
  }
  if (!config_.serialized_invalidation) sim_.After(0, std::move(on_complete));
}

void Engine::ScheduleOutboxDrain(std::uint32_t shard, Time delay) {
  if (drain_scheduled_[shard]) return;
  drain_scheduled_[shard] = 1;
  sim_.After(delay, [this, shard] {
    drain_scheduled_[shard] = 0;
    DrainOutbox(shard);
  });
}

void Engine::DrainOutbox(std::uint32_t shard) {
  core::InvalidationOutbox& outbox = outboxes_[shard];
  if (outbox.empty()) return;
  const auto ready = [this](core::SiteId site) {
    const sim::NodeId target = clients_[PseudoOf(site)].node;
    // A partitioned-but-alive site is held so its entries keep coalescing
    // until the link heals — the dup-write guarantee: two writes during the
    // partition become one frame after it. A down site drains normally; the
    // refused send resolves its write targets as dead.
    return !(!net_.Reachable(ServerNode(), target) && net_.IsNodeUp(target) &&
             net_.IsNodeUp(ServerNode()));
  };
  std::vector<core::InvalidationOutbox::Batch> batches =
      outbox.Drain(ids_.sites, ready);
  const Time now = sim_.now();
  for (core::InvalidationOutbox::Batch& batch : batches) {
    ++metrics_.invalidation_frames_sent;
    metrics_.message_bytes += net::BatchWireSize(batch.site, batch.docs, ids_);
    metrics_.batch_flush_ms.Record(ToMillis(now - batch.oldest_queued));
    inval_senders_[shard]->Enqueue(
        config_.server_costs.invalidation_send_cpu,
        [this, batch = std::move(batch)]() mutable {
          SendInvalidationBatch(std::move(batch));
        });
  }
  if (!outbox.empty()) {
    // Only held (partitioned) sites remain: poll again a window from now.
    ScheduleOutboxDrain(shard, config_.invalidation_batch_window);
  }
}

void Engine::SendInvalidationBatch(core::InvalidationOutbox::Batch batch) {
  const sim::NodeId target = clients_[PseudoOf(batch.site)].node;
  const std::uint64_t wire = net::BatchWireSize(batch.site, batch.docs, ids_);

  // Same gating as the unbatched path: a partition that opened between the
  // drain and this send moves the frame to background retry.
  bool gate_released = false;
  if (!net_.Reachable(ServerNode(), target) && net_.IsNodeUp(target) &&
      net_.IsNodeUp(ServerNode())) {
    gate_released = true;
    ResolveBatchFirstAttempts(batch);
  }

  const auto shared = std::make_shared<core::InvalidationOutbox::Batch>(
      std::move(batch));
  net_.SendReliable(
      ServerNode(), target, wire,
      [this, shared, gate_released] {
        if (!gate_released) ResolveBatchFirstAttempts(*shared);
        DeliverInvalidationBatch(*shared);
      },
      [this, shared, gate_released](sim::Network::SendResult result,
                                    Time done_at) {
        if (result == sim::Network::SendResult::kDelivered) return;
        if (!gate_released) ResolveBatchFirstAttempts(*shared);
        for (std::size_t i = 0; i < shared->docs.size(); ++i) {
          NoteRefused(result, done_at, ids_.DocName(shared->docs[i]),
                      shared->site);
          for (const std::uint64_t mod_id : shared->write_ids[i]) {
            ResolveWriteTarget(mod_id, shared->site, /*dead=*/true);
          }
        }
      },
      /*max_retries=*/-1);
}

void Engine::DeliverInvalidationBatch(
    const core::InvalidationOutbox::Batch& batch) {
  PseudoClient& pc = clients_[PseudoOf(batch.site)];
  for (std::size_t i = 0; i < batch.docs.size(); ++i) {
    pc.cache->Erase(batch.site, batch.docs[i]);
    NoteDelivered(batch.docs[i], batch.site);
    // A coalesced entry acks every write it absorbed — the one-frame-on-
    // heal guarantee for a site partitioned through multiple writes.
    for (const std::uint64_t mod_id : batch.write_ids[i]) {
      ResolveWriteTarget(mod_id, batch.site, /*dead=*/false);
    }
  }
}

void Engine::ResolveBatchFirstAttempts(
    const core::InvalidationOutbox::Batch& batch) {
  for (const std::vector<std::uint64_t>& ids : batch.write_ids) {
    for (const std::uint64_t mod_id : ids) ResolveFirstAttempt(mod_id);
  }
}

void Engine::SendInvalidation(const net::DocInvalidation& invalidation,
                              std::uint64_t mod_id) {
  const bool to_parent =
      config_.hierarchical && invalidation.site == parent_site_;
  const sim::NodeId target =
      to_parent ? ParentNode() : clients_[PseudoOf(invalidation.site)].node;
  const std::uint64_t wire = net::WireSize(invalidation, ids_);

  // A send that hits a partition is queued for periodic background retry;
  // the blocking check-in does not wait for it. A reachable target gates
  // the check-in until the message actually arrives (a successful TCP send
  // means the peer acknowledged the bytes).
  bool gate_released = false;
  if (!net_.Reachable(ServerNode(), target) && net_.IsNodeUp(target) &&
      net_.IsNodeUp(ServerNode())) {
    gate_released = true;
    ResolveFirstAttempt(mod_id);
  }

  // TCP with periodic retry across partitions (Section 4's failure
  // handling); a down proxy refuses the connection and is dropped — its
  // recovery path revalidates everything.
  net_.SendReliable(
      ServerNode(), target, wire,
      [this, invalidation, mod_id, gate_released, to_parent] {
        if (!gate_released) ResolveFirstAttempt(mod_id);
        if (to_parent) {
          if (invalidation.type == net::MessageType::kInvalidateUrl) {
            ParentDeliverInvalidation(invalidation.doc, mod_id);
            // Targeted journal-recovery invalidations route through the
            // parent like any other, but gate the write-gap, not a
            // delivery machine.
            if (invalidation.recovery) FinishRecoveryNotice();
          } else {
            ParentDeliverServerNotice(invalidation);
          }
        } else {
          DeliverInvalidation(invalidation, mod_id);
        }
      },
      [this, invalidation, mod_id,
       gate_released](sim::Network::SendResult result, Time done_at) {
        if (result == sim::Network::SendResult::kDelivered) return;
        if (!gate_released) ResolveFirstAttempt(mod_id);
        NoteRefused(result, done_at,
                    invalidation.doc == core::kNoInternId
                        ? std::string_view()
                        : std::string_view(ids_.DocName(invalidation.doc)),
                    invalidation.site);
        if (invalidation.recovery) {
          // Recovery notices (INVSRV or targeted journal-recovery
          // invalidations) gate the write-gap, not a delivery machine.
          FinishRecoveryNotice();
        } else {
          // A refused target's proxy is down: its cache revalidates
          // everything on restart, so the site counts as resolved-dead.
          ResolveWriteTarget(mod_id, invalidation.site, /*dead=*/true);
        }
      },
      /*max_retries=*/-1);
}

void Engine::DeliverInvalidation(const net::DocInvalidation& invalidation,
                                 std::uint64_t mod_id) {
  PseudoClient& pc = clients_[PseudoOf(invalidation.site)];
  if (invalidation.type == net::MessageType::kInvalidateUrl) {
    // Deleting (rather than marking) frees cache space for fresh documents —
    // the cache-utilization benefit the paper credits invalidation with.
    pc.cache->Erase(invalidation.site, invalidation.doc);
    NoteDelivered(invalidation.doc, invalidation.site);
    if (invalidation.recovery) {
      FinishRecoveryNotice();
    } else {
      ResolveWriteTarget(mod_id, invalidation.site, /*dead=*/false);
    }
  } else {
    // Server-address invalidation: every entry this real client holds from
    // that server becomes questionable.
    const core::SiteId site = invalidation.site;
    pc.cache->MarkQuestionableWhere(
        [site](const http::CacheEntry& entry) { return entry.site == site; });
    FinishRecoveryNotice();
  }
}

void Engine::NoteDelivered(core::DocId doc, core::SiteId site) {
  ++metrics_.invalidations_delivered;
  obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                    .at = sim_.now(),
                    .url = ids_.DocName(doc),
                    .site = ids_.SiteName(site)});
}

void Engine::NoteRefused(sim::Network::SendResult result, Time at,
                         std::string_view url, core::SiteId site) {
  ++metrics_.invalidations_refused;
  obs::Emit(sink_, {.type = result == sim::Network::SendResult::kGaveUp
                                ? obs::EventType::kInvalidateGaveUp
                                : obs::EventType::kInvalidateRefused,
                    .at = at,
                    .url = url,
                    .site = ids_.SiteName(site)});
}

void Engine::FinishRecoveryNotice() {
  if (recovery_notices_pending_ > 0 && --recovery_notices_pending_ == 0) {
    // Every ever-seen site has been told (or is dead and will revalidate on
    // its own recovery): the downtime writes are as complete as they get.
    write_gap_active_ = false;
  }
}

void Engine::ResolveFirstAttempt(std::uint64_t mod_id) {
  const auto it = pending_mod_targets_.find(mod_id);
  if (it == pending_mod_targets_.end()) return;
  if (--it->second.first_pending > 0) return;
  std::function<void()> on_complete = std::move(it->second.on_complete);
  it->second.on_complete = nullptr;
  if (it->second.delivery.complete()) pending_mod_targets_.erase(it);
  if (on_complete) on_complete();
}

void Engine::FinishWriteDelivery(PendingMod& pending) {
  const core::WriteDelivery& delivery = pending.delivery;
  WEBCC_DCHECK(delivery.complete());
  ++metrics_.write_completions;
  obs::WriteCompleteKind kind = obs::WriteCompleteKind::kAllAcked;
  // Every enumerator spelled out (no default:) so -Wswitch flags any future
  // Completion state this mapping forgets — webcc_lint's enum-switch-default
  // rule keeps it that way. kPending is unreachable: the DCHECK above
  // guarantees the delivery completed.
  switch (delivery.completion()) {
    case core::WriteDelivery::Completion::kLeasesExpired:
      kind = obs::WriteCompleteKind::kLeasesExpired;
      ++metrics_.write_lease_expired_completions;
      break;
    case core::WriteDelivery::Completion::kNoTargets:
      kind = obs::WriteCompleteKind::kNoTargets;
      break;
    case core::WriteDelivery::Completion::kPending:
    case core::WriteDelivery::Completion::kAllAcked:
      break;
  }
  metrics_.write_completion_wall_ms.Record(
      ToMillis(sim_.now() - pending.started_wall));
  // Trace-time span the write stayed incomplete, lock-step granular: the
  // current interval's start is the best trace-order stamp for "now". The
  // Section 6 bound says this never exceeds lease duration (+ one interval
  // of lock-step rounding) for lease-augmented invalidation.
  metrics_.write_blocked_trace_ms.Record(ToMillis(
      std::max<Time>(0, CurrentWindowStart() - pending.started_trace)));
  obs::Emit(sink_, {.type = obs::EventType::kWriteComplete,
                    .at = sim_.now(),
                    .trace_time = pending.started_trace,
                    .url = ids_.DocName(pending.doc),
                    .detail = static_cast<std::int64_t>(kind)});
  CompleteWrite(pending.doc);
}

void Engine::ResolveWriteTarget(std::uint64_t mod_id, core::SiteId site,
                                bool dead) {
  const auto it = pending_mod_targets_.find(mod_id);
  if (it == pending_mod_targets_.end()) return;
  core::WriteDelivery& delivery = it->second.delivery;
  const bool resolved_all =
      dead ? delivery.MarkDead(site) : delivery.Ack(site);
  if (!resolved_all) return;
  FinishWriteDelivery(it->second);
  if (it->second.first_pending <= 0) pending_mod_targets_.erase(it);
}

void Engine::SweepExpiredWriteTargets(Time trace_now) {
  for (auto it = pending_mod_targets_.begin();
       it != pending_mod_targets_.end();) {
    PendingMod& pending = it->second;
    if (!pending.delivery.complete() &&
        pending.delivery.ExpireLeases(trace_now)) {
      FinishWriteDelivery(pending);
    }
    // A completed delivery lingers only while the modifier gate still
    // waits on unresolved first attempts.
    if (pending.delivery.complete() && pending.first_pending <= 0) {
      it = pending_mod_targets_.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::CompleteWrite(core::DocId doc) {
  if (writes_in_progress_[doc] > 0) --writes_in_progress_[doc];
}

void Engine::ServerRecover(Time trace_time) {
  std::vector<net::Invalidation> notices;
  if (accel_.journal_enabled()) {
    // Write-ahead journal survives the crash: rebuild the site lists from
    // it and send *targeted* invalidations only for documents that changed
    // during the downtime. A damaged journal falls back to the blanket
    // INVSRV broadcast inside RecoverFromJournal.
    core::ShardedAccelerator::RecoveryOutcome outcome =
        accel_.RecoverFromJournal(trace_time);
    ++metrics_.journal_rebuilds;
    if (outcome.journal_damaged) ++metrics_.journal_damaged_recoveries;
    obs::Emit(sink_, {.type = obs::EventType::kJournalRebuild,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .site = "server",
                      .detail = outcome.journal_damaged ? 1 : 0});
    notices = std::move(outcome.invalidations);
  } else {
    notices = accel_.Recover();
  }
  recovery_notices_pending_ = static_cast<int>(notices.size());
  if (notices.empty()) write_gap_active_ = false;
  // Recovery notices always take the unbatched path (fault semantics are
  // untouched by batching); in decoupled mode a targeted invalidation goes
  // out on its URL's shard sender, INVSRV broadcasts on shard 0. Recovery
  // speaks names (it replays the journal); its notices resolve to ids here.
  for (const net::Invalidation& notice : notices) {
    net::DocInvalidation by_id;
    by_id.type = notice.type;
    if (notice.type == net::MessageType::kInvalidateUrl) {
      ++metrics_.recovery_invalidations_sent;
      by_id.doc = ids_.docs.Find(notice.url);
    } else {
      ++metrics_.invsrv_sent;
      by_id.server = accel_.server_name();
    }
    by_id.site = ids_.sites.Find(notice.client_id);
    by_id.lease_until = notice.lease_until;
    by_id.recovery = true;
    metrics_.message_bytes += net::WireSize(by_id, ids_);
    sim::FifoStation& sender =
        config_.serialized_invalidation
            ? server_cpu_
            : *inval_senders_[notice.type == net::MessageType::kInvalidateUrl
                                  ? accel_.ShardOf(by_id.doc)
                                  : 0];
    sender.Enqueue(config_.server_costs.invalidation_send_cpu,
                   [this, by_id] { SendInvalidation(by_id, 0); });
  }
}

}  // namespace webcc::replay::detail
