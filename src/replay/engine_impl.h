// Internal definition of the replay engine, shared by its translation
// units (engine.cc: setup/coordinator/client loop, engine_invalidation.cc:
// modifier + invalidation fan-out, engine_hierarchy.cc: parent proxy).
// Not part of the public replay interface — include replay/engine.h.
//
// All protocol policy decisions (serve-local vs validate, TTL/lease state
// for new and revalidated entries, write fan-out) are delegated to the
// core::consistency kernel; this class only executes the returned
// decisions against the simulated caches and network.
//
// Every layer keys on the run's one core::IdSpace, seeded from the trace in
// Setup (DESIGN.md §16); names are looked up only for events and logs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/consistency/policy.h"
#include "core/delivery.h"
#include "core/outbox.h"
#include "core/sharded_accelerator.h"
#include "fault/clock.h"
#include "core/piggyback.h"
#include "http/document_store.h"
#include "http/origin.h"
#include "http/proxy_cache.h"
#include "net/message.h"
#include "obs/trace_sink.h"
#include "replay/config.h"
#include "replay/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/station.h"
#include "util/check.h"

namespace webcc::replay::detail {

class Engine {
 public:
  explicit Engine(const ReplayConfig& config)
      : config_(config),
        trace_(*config.trace),
        net_(sim_, config.network),
        docs_(ids_),
        server_cpu_(sim_, "server-cpu"),
        server_disk_(sim_, "server-disk"),
        accel_(docs_, config.lease,
               config.accelerator_shards > 0 ? config.accelerator_shards : 1),
        policy_(core::consistency::MakePolicy(config.protocol, config.ttl)) {
    WEBCC_CHECK_MSG(config.trace != nullptr, "replay needs a trace");
    WEBCC_CHECK_MSG(config.num_pseudo_clients > 0, "need pseudo-clients");
    Setup();
  }

  ReplayMetrics Run();

 private:
  struct PseudoClient {
    int index = 0;
    sim::NodeId node = 0;
    std::unique_ptr<http::ProxyCache> cache;
    std::vector<trace::TraceRecord> records;
    std::size_t cursor = 0;        // next record to issue
    std::size_t window_end = 0;    // bound for the current interval
    bool down = false;
    std::uint64_t outstanding = 0;  // seq of the in-flight request; 0 = none
    Time request_start = 0;         // wall time the in-flight request began
  };

  sim::NodeId ServerNode() const {
    return static_cast<sim::NodeId>(clients_.size());
  }
  sim::NodeId ParentNode() const {
    return static_cast<sim::NodeId>(clients_.size() + 1);
  }
  // Static protocol capabilities, from the consistency kernel.
  const core::consistency::Traits& Traits() const {
    return policy_->traits();
  }
  bool InvalidationMode() const { return Traits().invalidation_callbacks; }

  static core::consistency::EntryMeta MetaOf(const http::CacheEntry& entry) {
    return {.last_modified = entry.last_modified,
            .fetched_at = entry.fetched_at,
            .ttl_expires = entry.ttl_expires,
            .lease_expires = entry.lease_expires,
            .questionable = entry.questionable};
  }
  static core::consistency::ReplyMeta MetaOf(const net::DocReply& reply) {
    return {.last_modified = reply.last_modified,
            .lease_until = reply.lease_until};
  }

  // --- setup (engine.cc) -----------------------------------------------------
  void Setup();

  // --- lock-step coordinator (engine.cc) -------------------------------------
  void StartInterval();
  void ParticipantDone();
  void ApplyFailure(const FailureEvent& event);

  // --- pseudo-client request loop (engine.cc) ---------------------------------
  void IssueNext(PseudoClient& pc);
  void FinishRequest(PseudoClient& pc, Time latency);
  void LocalServe(PseudoClient& pc, http::CacheEntry& entry, Time trace_time);
  void SendToServer(PseudoClient& pc, const net::DocRequest& request,
                    Time trace_time, bool lease_renewal);
  void ServerHandle(const net::DocRequest& request, int client_index,
                    std::uint64_t seq, Time trace_time);
  // Sends `reply` from `from` to the pseudo-client after the sender is
  // `ready`; the scaled body sets the transfer delay.
  void ReplyToClient(sim::NodeId from, Time ready, int client_index,
                     std::uint64_t seq, const net::DocReply& reply,
                     core::SiteId owner, std::uint64_t piggyback_bytes,
                     Time trace_time,
                     std::vector<core::PcvVerdict> verdicts = {},
                     std::vector<core::DocId> psi_docs = {});
  void DeliverReply(int client_index, std::uint64_t seq,
                    const net::DocReply& reply, core::SiteId owner,
                    Time trace_time);
  void ApplyPiggyback(int client_index,
                      const std::vector<core::PcvVerdict>& verdicts,
                      const std::vector<core::DocId>& psi_docs,
                      Time trace_time);

  // --- hierarchy: parent proxy (engine_hierarchy.cc) ---------------------------
  void ParentHandle(const net::DocRequest& request, int client_index,
                    std::uint64_t seq, Time trace_time);
  void ServerHandleForParent(const net::DocRequest& request, int client_index,
                             std::uint64_t seq, core::SiteId owner,
                             bool leaf_wanted_body, Time trace_time);
  void ParentReceiveReply(net::DocReply reply, int client_index,
                          std::uint64_t seq, core::SiteId owner,
                          bool leaf_wanted_body, Time trace_time);
  void ParentDeliverInvalidation(core::DocId doc, std::uint64_t mod_id);
  void ParentDeliverServerNotice(const net::DocInvalidation& notice);

  // --- modifier / invalidation path (engine_invalidation.cc) -------------------
  void ModifierStep();
  // Fans out the invalidations for one modification. `on_complete` runs when
  // the modifier may proceed: in serialized mode after every message is
  // delivered (the paper's check-in blocks until the accelerator finishes
  // sending), in decoupled mode immediately.
  void FanOutInvalidations(std::vector<net::DocInvalidation> invalidations,
                           core::DocId doc, Time trace_time,
                           std::function<void()> on_complete);
  void SendInvalidation(const net::DocInvalidation& invalidation,
                        std::uint64_t mod_id);
  void DeliverInvalidation(const net::DocInvalidation& invalidation,
                           std::uint64_t mod_id);
  void ResolveFirstAttempt(std::uint64_t mod_id);
  void CompleteWrite(core::DocId doc);
  void FinishRecoveryNotice();
  void ServerRecover(Time trace_time);

  // --- batched fan-out (engine_invalidation.cc) --------------------------------
  // Batching applies only to decoupled, unicast, flat-topology runs; every
  // other mode keeps its exact pre-batching send path.
  bool BatchingEnabled() const {
    return config_.invalidation_batch_window > 0 &&
           !config_.serialized_invalidation &&
           !config_.multicast_invalidation && !config_.hierarchical;
  }
  // Arms a drain of `shard`'s outbox after `delay` (no-op if one is armed).
  void ScheduleOutboxDrain(std::uint32_t shard, Time delay);
  // Packs the shard's pending entries into per-site batches and puts each
  // on the shard's sender. Sites that are partitioned but alive stay queued
  // (their entries keep coalescing until the link heals); down sites drain
  // normally so the refusal resolves their write targets as dead.
  void DrainOutbox(std::uint32_t shard);
  void SendInvalidationBatch(core::InvalidationOutbox::Batch batch);
  void DeliverInvalidationBatch(const core::InvalidationOutbox::Batch& batch);
  // Per-URL resolution of the modifier gate for a batch that finished (or
  // abandoned) its first transmission attempt.
  void ResolveBatchFirstAttempts(const core::InvalidationOutbox::Batch& batch);

  // --- helpers ----------------------------------------------------------------
  // Counter + event pairs: each event mirrors the counter bumped with it.
  void NoteReply(const net::DocReply& reply, core::SiteId site,
                 Time trace_time);  // replies_200/304
  void NoteDelivered(core::DocId doc, core::SiteId site);  // delivered
  void NoteRefused(sim::Network::SendResult result, Time at,
                   std::string_view url, core::SiteId site);  // refused
  // Charges the server for one request (the access-log write, CPU, and the
  // file read behind a 200); returns when its reply is ready.
  Time ChargeServer(bool transfer, Time extra_cpu);
  // Pseudo-client `index`'s site in shared-proxy mode ("proxy-<index>").
  core::SiteId ProxySite(int index) const {
    return first_proxy_site_ + static_cast<core::SiteId>(index);
  }
  // The pseudo-client whose cache a site's entries live in.
  int PseudoOf(core::SiteId site) const {
    WEBCC_CHECK_MSG(site < pseudo_of_site_.size() && pseudo_of_site_[site] >= 0,
                    "message for a site no pseudo-client hosts");
    return pseudo_of_site_[site];
  }
  // When serving `entry` at trace time `trace_now` returns outdated data
  // *in trace order*, yields the trace time the copy became stale (version
  // v became obsolete at the trace time of the modification that produced
  // v+1); nullopt when the serve is fresh. Lock-step compression can
  // process a modification in wall time before a request that precedes it
  // in trace time; such a read linearizes before the write and is fresh.
  std::optional<Time> StaleSince(const http::CacheEntry& entry,
                                 Time trace_now) const {
    const std::vector<Time>& times = mod_times_[entry.doc];
    WEBCC_DCHECK(entry.version >= 1);
    const std::size_t obsolete_index = entry.version - 1;
    if (obsolete_index < times.size() && times[obsolete_index] <= trace_now) {
      return times[obsolete_index];
    }
    return std::nullopt;
  }
  // The trace time the current lock-step interval started; the engine's
  // best trace-order approximation of "now" for events (like a write
  // completion) triggered from wall-time callbacks.
  Time CurrentWindowStart() const {
    return static_cast<Time>(interval_index_) * config_.lockstep_interval;
  }
  void CheckStaleness(const PseudoClient& pc, const http::CacheEntry& entry,
                      Time trace_time);
  http::CacheEntry BuildEntry(const net::DocReply& reply, core::SiteId owner,
                              Time trace_time) const;

  const ReplayConfig& config_;
  const trace::Trace& trace_;

  sim::Simulator sim_;
  sim::Network net_;
  core::IdSpace ids_;
  http::DocumentStore docs_;
  sim::FifoStation server_cpu_;
  sim::FifoStation server_disk_;
  // Decoupled mode: one dedicated sender per accelerator shard (built in
  // Setup; FifoStation is non-copyable, hence the indirection). Serialized
  // mode charges server_cpu_ and never touches these.
  std::vector<std::unique_ptr<sim::FifoStation>> inval_senders_;
  // Batched mode: per-shard outboxes and the armed-drain flags.
  std::vector<core::InvalidationOutbox> outboxes_;
  std::vector<char> drain_scheduled_;
  core::ShardedAccelerator accel_;
  std::unique_ptr<const core::consistency::ConsistencyPolicy> policy_;
  std::unique_ptr<http::OriginServer> origin_;

  std::vector<PseudoClient> clients_;
  // Indexed by site id: the pseudo-client hosting that site's cache
  // entries; -1 for "parent", which is no pseudo-client.
  std::vector<int> pseudo_of_site_;
  core::SiteId first_proxy_site_ = 0;
  core::SiteId parent_site_ = core::kNoInternId;

  // Hierarchical mode: the parent proxy's shared cache, its per-document
  // leaf-interest lists (keyed on each leaf's proxy site, so the site id
  // names the leaf index), and its CPU station.
  std::unique_ptr<http::ProxyCache> parent_cache_;
  std::unique_ptr<core::InvalidationTable> parent_table_;
  std::unique_ptr<sim::FifoStation> parent_cpu_;

  std::vector<trace::ModEvent> modifications_;
  std::size_t mod_cursor_ = 0;
  std::size_t mod_window_end_ = 0;

  std::vector<FailureEvent> failures_;  // sorted by trace_time
  std::size_t failure_cursor_ = 0;

  // Seeded link-fault injector (nullptr when the config has no fault plan
  // with link-fault windows); advanced at every lock-step boundary.
  std::unique_ptr<fault::FaultClock> fault_clock_;

  std::size_t interval_index_ = 0;
  std::size_t num_intervals_ = 0;
  int participants_ = 0;
  bool server_down_ = false;
  // True from a server-site crash until the recovery broadcast finishes:
  // modifications in this window cannot complete (their invalidations reach
  // clients only as the recovery INVSRV notices), so stale serves are still
  // within the strong-consistency contract.
  bool write_gap_active_ = false;
  int recovery_notices_pending_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_mod_id_ = 1;
  // Writes (modifications) whose invalidation fan-out has not finished, by
  // doc id; stale serves are legitimate only while the document has one in
  // progress.
  std::vector<int> writes_in_progress_;
  // Trace times at which each document version became obsolete:
  // mod_times_[doc][v-1] is the modification that superseded version v.
  std::vector<std::vector<Time>> mod_times_;
  // PSI server state: the modification log and each proxy's contact cursor.
  core::ModificationLog mod_log_;
  std::vector<Time> psi_last_contact_;
  // PCV piggyback batches in flight, keyed by request sequence number.
  std::unordered_map<std::uint64_t, std::vector<core::PcvItem>>
      pcv_in_flight_;
  struct PendingMod {
    // Write-delivery state machine (the paper's completion rule): the write
    // completes when every targeted site has acked, died, or had its lease
    // expire — never by merely giving up.
    core::WriteDelivery delivery;
    core::DocId doc = core::kNoInternId;  // the modified document
    Time started_trace = 0;  // modification trace time (fan-out start)
    Time started_wall = 0;   // sim wall time the fan-out began
    // Unresolved first transmission attempts: the blocking check-in (the
    // modifier's gate) waits only for these — a send that hits a partition
    // moves to background retry and stops gating the modifier, exactly like
    // a failed TCP send being queued for periodic retry.
    int first_pending = 0;
    std::function<void()> on_complete;  // modifier continuation (serialized)
  };
  std::unordered_map<std::uint64_t, PendingMod> pending_mod_targets_;
  // Resolves one delivery target (ack or death); completes the write when
  // it was the last outstanding one.
  void ResolveWriteTarget(std::uint64_t mod_id, core::SiteId site, bool dead);
  // Records completion metrics/events for a resolved delivery (does not
  // touch the modifier gate, which is first_pending's job).
  void FinishWriteDelivery(PendingMod& pending);
  // Lock-step boundary sweep: completes writes whose straggler targets'
  // leases have all expired (Section 6's bound on write latency).
  void SweepExpiredWriteTargets(Time trace_now);

  Time wall_end_ = 0;
  ReplayMetrics metrics_;
  // Structured tracing (nullptr = off). Every emit site below sits exactly
  // at the increment of the ReplayMetrics counter it mirrors, so JSONL event
  // counts reconcile with the paper tables (see DESIGN.md).
  obs::TraceSink* sink_ = nullptr;
};

}  // namespace webcc::replay::detail
