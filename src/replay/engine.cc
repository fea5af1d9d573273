#include "replay/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "core/lease.h"
#include "obs/event.h"
#include "replay/engine_impl.h"
#include "synth/generate.h"
#include "util/distributions.h"
#include "util/log.h"
#include "util/rng.h"

namespace webcc::replay {
namespace detail {

using core::consistency::HitAction;

void Engine::Setup() {
  sink_ = config_.trace_sink;
  net_.set_trace_sink(sink_);
  accel_.set_trace_sink(sink_);  // propagates to every shard and its table

  // One dedicated sender (and, for batching, one outbox) per accelerator
  // shard. Serialized mode never touches them, keeping the paper's shared
  // server CPU — and its metrics — shard-count invariant.
  const std::uint32_t num_shards = accel_.num_shards();
  inval_senders_.reserve(num_shards);
  for (std::uint32_t i = 0; i < num_shards; ++i) {
    inval_senders_.push_back(std::make_unique<sim::FifoStation>(
        sim_, "invalidation-sender-" + std::to_string(i)));
  }
  outboxes_.resize(num_shards);
  drain_scheduled_.assign(num_shards, 0);

  // Document store with pre-trace ages so adaptive TTL sees a realistic age
  // distribution at t = 0 (files on a real server predate the log). Adding
  // the trace's documents in order seeds the id space: DocId == doc id.
  util::Rng rng(config_.seed);
  for (const trace::DocumentInfo& doc : trace_.documents) {
    const Time initial_age =
        config_.fixed_initial_age >= 0
            ? config_.fixed_initial_age
            : static_cast<Time>(util::SampleExponential(
                  rng, static_cast<double>(config_.mean_lifetime)));
    WEBCC_CHECK_MSG(docs_.Add(doc.path, doc.size_bytes, -initial_age),
                    "trace names a document twice: " + doc.path);
  }
  origin_ = std::make_unique<http::OriginServer>(docs_);
  mod_times_.resize(trace_.documents.size());
  writes_in_progress_.assign(trace_.documents.size(), 0);

  // Site ids: the trace's clients (SiteId == ClientId), then each
  // pseudo-client's proxy site, then (hierarchy only) the parent. The
  // engine's site names must not collide with a client's.
  for (std::size_t c = 0; c < trace_.clients.size(); ++c) {
    WEBCC_CHECK_MSG(ids_.sites.Intern(trace_.clients[c]) == c,
                    "trace names a client twice: " + trace_.clients[c]);
    pseudo_of_site_.push_back(
        static_cast<int>(c % config_.num_pseudo_clients));
  }
  first_proxy_site_ = static_cast<core::SiteId>(trace_.clients.size());
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    WEBCC_CHECK_MSG(ids_.sites.Intern("proxy-" + std::to_string(i)) ==
                        ProxySite(static_cast<int>(i)),
                    "a trace client is named proxy-" + std::to_string(i));
    pseudo_of_site_.push_back(static_cast<int>(i));
  }
  if (config_.hierarchical) {
    parent_site_ = ids_.sites.Intern("parent");
    WEBCC_CHECK_MSG(parent_site_ == pseudo_of_site_.size(),
                    "a trace client is named parent");
    pseudo_of_site_.push_back(-1);
  }

  clients_.resize(config_.num_pseudo_clients);
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    PseudoClient& pc = clients_[i];
    pc.index = static_cast<int>(i);
    pc.node = static_cast<sim::NodeId>(i);
    pc.cache = std::make_unique<http::ProxyCache>(
        config_.proxy_cache_bytes, config_.eviction_policy,
        config_.proxy_tier, &ids_);
    pc.cache->set_trace_sink(sink_);
  }
  psi_last_contact_.assign(config_.num_pseudo_clients, 0);
  // Size each pseudo-client's slice exactly (a counting pass is cheaper
  // than the doubling reallocations of tens of thousands of push_backs).
  std::vector<std::size_t> slice_sizes(config_.num_pseudo_clients, 0);
  for (const trace::TraceRecord& record : trace_.records) {
    ++slice_sizes[record.client % config_.num_pseudo_clients];
  }
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    clients_[i].records.reserve(slice_sizes[i]);
  }
  for (const trace::TraceRecord& record : trace_.records) {
    clients_[record.client % config_.num_pseudo_clients].records.push_back(
        record);
  }
  // Pending events peak around a few per in-flight request (timeout guard,
  // network hop, completion) plus invalidation fan-out bursts.
  sim_.Reserve(static_cast<std::size_t>(config_.num_pseudo_clients) * 8 + 256);

  if (!config_.explicit_modifications.empty()) {
    modifications_ = config_.explicit_modifications;
    // Callers may build these by hand; the modifier and the PSI log both
    // require time order.
    std::stable_sort(modifications_.begin(), modifications_.end(),
                     [](const trace::ModEvent& a, const trace::ModEvent& b) {
                       return a.at < b.at;
                     });
  } else if (config_.suppress_generated_modifications) {
    modifications_.clear();
  } else {
    trace::ModifierConfig mod_config;
    mod_config.duration = trace_.duration;
    mod_config.num_documents =
        static_cast<std::uint32_t>(trace_.documents.size());
    mod_config.mean_lifetime = config_.mean_lifetime;
    mod_config.seed = config_.modifier_seed;
    modifications_ = trace::GenerateModifierSchedule(mod_config);
  }

  failures_ = config_.failures;
  if (config_.fault_plan != nullptr) {
    // Expand the declarative plan: crash and partition events become
    // FailureEvent pairs (onset + recovery) on the existing failure path;
    // link-fault windows go to the FaultClock below.
    fault::FaultPlan plan = *config_.fault_plan;
    fault::Canonicalize(plan);
    bool has_link_faults = false;
    for (const fault::FaultEvent& event : plan.events) {
      switch (event.kind) {
        case fault::FaultKind::kProxyCrash: {
          WEBCC_CHECK_MSG(
              event.target >= 0 &&
                  event.target < static_cast<int>(config_.num_pseudo_clients),
              "fault plan proxy_crash target out of range");
          failures_.push_back(
              {event.at, FailureKind::kProxyCrash, event.target});
          failures_.push_back({event.at + event.duration,
                               FailureKind::kProxyRecover, event.target});
          break;
        }
        case fault::FaultKind::kServerCrash:
          failures_.push_back({event.at, FailureKind::kServerCrash, 0});
          failures_.push_back(
              {event.at + event.duration, FailureKind::kServerRecover, 0});
          break;
        case fault::FaultKind::kPartition: {
          const int first = event.target < 0 ? 0 : event.target;
          const int last = event.target < 0
                               ? static_cast<int>(config_.num_pseudo_clients)
                               : event.target + 1;
          WEBCC_CHECK_MSG(
              last <= static_cast<int>(config_.num_pseudo_clients),
              "fault plan partition target out of range");
          for (int target = first; target < last; ++target) {
            failures_.push_back({event.at, FailureKind::kPartition, target});
            failures_.push_back(
                {event.at + event.duration, FailureKind::kHeal, target});
          }
          break;
        }
        case fault::FaultKind::kLinkFault:
          has_link_faults = true;
          break;
      }
    }
    if (has_link_faults) {
      fault_clock_ =
          std::make_unique<fault::FaultClock>(plan, config_.fault_seed);
      std::vector<sim::NodeId> client_nodes;
      client_nodes.reserve(clients_.size());
      for (const PseudoClient& pc : clients_) client_nodes.push_back(pc.node);
      fault_clock_->BindNodes(ServerNode(), std::move(client_nodes));
      net_.set_fault_injector(fault_clock_.get());
    }
  }
  std::stable_sort(failures_.begin(), failures_.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     return a.trace_time < b.trace_time;
                   });
  // Write-ahead journaling has a per-request cost, so it is armed only when
  // a server crash is actually scheduled (and targeted recovery requested).
  if (config_.journaled_recovery && InvalidationMode() &&
      std::any_of(failures_.begin(), failures_.end(),
                  [](const FailureEvent& event) {
                    return event.kind == FailureKind::kServerCrash;
                  })) {
    accel_.EnableJournal(true);
  }

  num_intervals_ = static_cast<std::size_t>(
      (trace_.duration + config_.lockstep_interval - 1) /
      config_.lockstep_interval);
  if (num_intervals_ == 0) num_intervals_ = 1;

  if (config_.hierarchical) {
    WEBCC_CHECK_MSG(InvalidationMode(),
                    "hierarchical mode is defined for the invalidation "
                    "protocol only");
    parent_cache_ = std::make_unique<http::ProxyCache>(
        config_.proxy_cache_bytes * 4, config_.eviction_policy,
        config_.proxy_tier, &ids_);
    parent_cache_->set_trace_sink(sink_);
    parent_table_ = std::make_unique<core::InvalidationTable>(
        core::LeaseConfig{}, ids_);
    parent_table_->set_trace_sink(sink_);
    parent_cpu_ = std::make_unique<sim::FifoStation>(sim_, "parent-cpu");
  }
}

ReplayMetrics Engine::Run() {
  // host_seconds is a wall-clock throughput gauge, excluded from the
  // determinism digests by design.
  // webcc-lint: allow(determinism-clock)
  const auto host_start = std::chrono::steady_clock::now();
  if (sink_ != nullptr) {
    std::string label(core::ToString(config_.protocol));
    label += " clients=";
    label += std::to_string(config_.num_pseudo_clients);
    label += " records=";
    label += std::to_string(trace_.records.size());
    sink_->Emit({.type = obs::EventType::kRunBegin, .label = label});
  }
  StartInterval();
  // Drain in-flight work after the last interval, but don't chase retry
  // loops forever if a partition is never healed.
  constexpr Time kDrainGrace = 10 * kMinute;
  while (sim_.Step()) {
    if (wall_end_ != 0 && sim_.now() > wall_end_ + kDrainGrace) break;
  }
  metrics_.host_seconds =
      // webcc-lint: allow(determinism-clock) — same wall-clock gauge as above.
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  metrics_.sim_events_executed = sim_.executed();
  metrics_.sim_peak_queue_depth = sim_.peak_pending();
  metrics_.injected_drops = net_.injected_drops();
  metrics_.injected_dups = net_.injected_dups();
  metrics_.injected_delays = net_.injected_delays();

  metrics_.server_cpu_utilization =
      server_cpu_.utilization().BusyFraction(wall_end_);
  metrics_.disk_reads_per_second =
      server_disk_.utilization().ReadsPerSecond(wall_end_);
  metrics_.disk_writes_per_second =
      server_disk_.utilization().WritesPerSecond(wall_end_);
  metrics_.wall_duration = wall_end_;

  for (const std::unique_ptr<sim::FifoStation>& sender : inval_senders_) {
    const std::uint64_t busy =
        static_cast<std::uint64_t>(sender->utilization().busy_time());
    metrics_.inval_sender_busy_total_us += busy;
    metrics_.inval_sender_busy_max_us =
        std::max(metrics_.inval_sender_busy_max_us, busy);
  }

  metrics_.sitelist_storage_bytes = accel_.StorageBytes();
  metrics_.sitelist_entries = accel_.TotalEntries();
  metrics_.sitelist_max_len_end = accel_.MaxListLength();
  const core::AcceleratorStats accel_stats = accel_.AggregateStats();
  const auto& lengths = accel_stats.list_lengths_at_modification;
  if (!lengths.empty()) {
    std::uint64_t sum = 0;
    std::uint64_t longest = 0;
    for (std::size_t length : lengths) {
      sum += length;
      longest = std::max<std::uint64_t>(longest, length);
    }
    metrics_.sitelist_avg_len_at_mod =
        static_cast<double>(sum) / static_cast<double>(lengths.size());
    metrics_.sitelist_max_len_at_mod = longest;
  }
  for (const PseudoClient& pc : clients_) {
    metrics_.proxy_evictions += pc.cache->stats().evictions;
    metrics_.proxy_expired_evictions += pc.cache->stats().expired_evictions;
    metrics_.proxy_oversize_rejections +=
        pc.cache->stats().oversize_rejections;
    metrics_.proxy_tier2_promotions += pc.cache->stats().tier2_promotions;
    metrics_.proxy_tier2_demotions += pc.cache->stats().tier2_demotions;
  }

  if (sink_ != nullptr) {
    sink_->Emit({.type = obs::EventType::kRunEnd,
                 .at = wall_end_,
                 .label = metrics_.Summary()});
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    metrics_.ExportTo(registry);
    accel_.ExportMetrics(registry, "accelerator.");
    net_.ExportMetrics(registry, "network.");
    for (const PseudoClient& pc : clients_) {
      pc.cache->ExportMetrics(
          registry, "proxy." + std::to_string(pc.index) + ".cache.");
    }
    if (parent_cache_ != nullptr) {
      parent_cache_->ExportMetrics(registry, "parent.cache.");
    }
    if (parent_table_ != nullptr) {
      parent_table_->ExportMetrics(registry, "parent.table.");
    }
  }
  return metrics_;
}

// --- lock-step coordinator ---------------------------------------------------

void Engine::StartInterval() {
  const Time window_start =
      static_cast<Time>(interval_index_) * config_.lockstep_interval;
  const Time window_end = (interval_index_ + 1 == num_intervals_)
                              ? trace_.duration + 1
                              : window_start + config_.lockstep_interval;

  while (failure_cursor_ < failures_.size() &&
         failures_[failure_cursor_].trace_time < window_end) {
    ApplyFailure(failures_[failure_cursor_++]);
  }
  if (fault_clock_ != nullptr) fault_clock_->Advance(window_start, window_end);

  if (InvalidationMode()) {
    // O(expired) amortized: each shard's timer wheel only visits the slots
    // the clock passed since the previous window, so this boundary sweep
    // no longer scans the whole table (ROADMAP item 4).
    accel_.PruneExpired(window_start);
    // Section 6's write-latency bound: a write blocked on unreachable
    // targets completes once their leases have all lapsed.
    SweepExpiredWriteTargets(window_start);
  }

  participants_ = static_cast<int>(clients_.size()) + 1;  // clients + modifier

  for (PseudoClient& pc : clients_) {
    while (pc.window_end < pc.records.size() &&
           pc.records[pc.window_end].timestamp < window_end) {
      ++pc.window_end;
    }
    sim_.After(0, [this, &pc] { IssueNext(pc); });
  }

  while (mod_window_end_ < modifications_.size() &&
         modifications_[mod_window_end_].at < window_end) {
    ++mod_window_end_;
  }
  sim_.After(0, [this] { ModifierStep(); });
}

void Engine::ParticipantDone() {
  WEBCC_CHECK(participants_ > 0);
  if (--participants_ > 0) return;
  ++interval_index_;
  if (interval_index_ < num_intervals_) {
    StartInterval();
  } else {
    wall_end_ = sim_.now();
  }
}

void Engine::ApplyFailure(const FailureEvent& event) {
  switch (event.kind) {
    case FailureKind::kProxyCrash: {
      PseudoClient& pc = clients_.at(event.target);
      pc.down = true;
      net_.SetNodeUp(pc.node, false);
      obs::Emit(sink_, {.type = obs::EventType::kNodeCrash,
                        .at = sim_.now(),
                        .trace_time = event.trace_time,
                        .site = ids_.SiteName(ProxySite(event.target))});
      break;
    }
    case FailureKind::kProxyRecover: {
      PseudoClient& pc = clients_.at(event.target);
      pc.down = false;
      net_.SetNodeUp(pc.node, true);
      // The recovering proxy may have missed invalidations: everything it
      // holds must be revalidated before it can be served again.
      pc.cache->MarkAllQuestionable();
      obs::Emit(sink_, {.type = obs::EventType::kNodeRestart,
                        .at = sim_.now(),
                        .trace_time = event.trace_time,
                        .site = ids_.SiteName(ProxySite(event.target))});
      break;
    }
    case FailureKind::kServerCrash:
      server_down_ = true;
      net_.SetNodeUp(ServerNode(), false);
      if (InvalidationMode()) {
        accel_.Crash();
        write_gap_active_ = true;
      }
      obs::Emit(sink_, {.type = obs::EventType::kNodeCrash,
                        .at = sim_.now(),
                        .trace_time = event.trace_time,
                        .site = "server"});
      break;
    case FailureKind::kServerRecover:
      server_down_ = false;
      net_.SetNodeUp(ServerNode(), true);
      obs::Emit(sink_, {.type = obs::EventType::kNodeRestart,
                        .at = sim_.now(),
                        .trace_time = event.trace_time,
                        .site = "server"});
      if (InvalidationMode()) ServerRecover(event.trace_time);
      break;
    case FailureKind::kPartition:
      net_.Partition(clients_.at(event.target).node, ServerNode());
      break;
    case FailureKind::kHeal:
      net_.Heal(clients_.at(event.target).node, ServerNode());
      break;
  }
}

// --- pseudo-client request loop ------------------------------------------------

void Engine::IssueNext(PseudoClient& pc) {
  if (pc.down) {
    // Requests from users behind a dead proxy are lost for the interval.
    metrics_.requests_skipped += pc.window_end - pc.cursor;
    pc.cursor = pc.window_end;
  }
  if (pc.cursor >= pc.window_end) {
    ParticipantDone();
    return;
  }
  const trace::TraceRecord& record = pc.records[pc.cursor++];
  ++metrics_.requests_issued;

  // Shared mode: the whole proxy is one site (the firewall deployment of
  // Section 7) — one cache namespace and one invalidation target per proxy.
  const core::SiteId owner =
      config_.shared_proxy_cache ? ProxySite(pc.index) : record.client;
  const Time trace_time = record.timestamp;
  http::CacheEntry* entry = pc.cache->Lookup(owner, record.doc, trace_time);

  bool validate = false;       // IMS instead of a full GET
  bool lease_renewal = false;  // the IMS exists only because a lease lapsed
  if (entry != nullptr) {
    const core::consistency::HitDecision decision =
        policy_->OnHit(MetaOf(*entry), trace_time);
    if (decision.action == HitAction::kServeLocal) {
      LocalServe(pc, *entry, trace_time);
      return;
    }
    validate = true;
    lease_renewal = decision.lease_renewal;
  }

  net::DocRequest request;
  request.doc = record.doc;
  request.site = owner;
  if (validate) {
    request.type = net::MessageType::kIfModifiedSince;
    request.if_modified_since = entry->last_modified;
  } else {
    request.type = net::MessageType::kGet;
  }
  SendToServer(pc, request, trace_time, lease_renewal);
}

void Engine::FinishRequest(PseudoClient& pc, Time latency) {
  metrics_.latency_ms.Record(ToMillis(latency));
  sim_.After(config_.client_costs.think_time, [this, &pc] { IssueNext(pc); });
}

void Engine::CheckStaleness(const PseudoClient& pc,
                            const http::CacheEntry& entry, Time trace_time) {
  const std::optional<Time> stale_since = StaleSince(entry, trace_time);
  if (!stale_since.has_value()) return;
  ++metrics_.stale_serves;
  // Trace-time age of the outdated copy: the weak protocols' staleness is
  // bounded by TTL, lease-augmented schemes by the lease duration.
  metrics_.stale_age_ms.Record(ToMillis(trace_time - *stale_since));
  obs::StaleKind kind = obs::StaleKind::kWeakProtocol;
  if (Traits().invalidation_callbacks) {
    if (write_gap_active_ || writes_in_progress_[entry.doc] > 0) {
      // The write has not completed (invalidations still in flight): a stale
      // read here is within the strong-consistency contract.
      ++metrics_.stale_while_invalidation_in_flight;
      kind = obs::StaleKind::kInvalidationInFlight;
    } else {
      ++metrics_.strong_violations;
      kind = obs::StaleKind::kStrongViolation;
      WEBCC_LOG_WARN(
          "strong-consistency violation: %s served stale at client %s (proxy %d)",
          ids_.DocName(entry.doc).c_str(), ids_.SiteName(entry.site).c_str(),
          pc.index);
    }
  }
  obs::Emit(sink_, {.type = obs::EventType::kStaleHit,
                    .at = sim_.now(),
                    .trace_time = trace_time,
                    .url = ids_.DocName(entry.doc),
                    .site = ids_.SiteName(entry.site),
                    .detail = static_cast<std::int64_t>(kind)});
}

void Engine::LocalServe(PseudoClient& pc, http::CacheEntry& entry,
                        Time trace_time) {
  ++metrics_.local_hits;
  obs::Emit(sink_,
            {.type = obs::EventType::kRequestServed,
             .at = sim_.now(),
             .trace_time = trace_time,
             .url = ids_.DocName(entry.doc),
             .site = ids_.SiteName(entry.site),
             .detail = static_cast<std::int64_t>(obs::ServeKind::kLocalHit)});
  CheckStaleness(pc, entry, trace_time);
  FinishRequest(pc, config_.client_costs.proxy_hit_time);
}

void Engine::SendToServer(PseudoClient& pc, const net::DocRequest& request,
                          Time trace_time, bool lease_renewal) {
  const std::uint64_t seq = next_seq_++;
  pc.outstanding = seq;
  pc.request_start = sim_.now();

  if (request.type == net::MessageType::kGet) {
    ++metrics_.get_requests;
    obs::Emit(sink_, {.type = obs::EventType::kGetSent,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .url = ids_.DocName(request.doc),
                      .site = ids_.SiteName(request.site)});
  } else {
    ++metrics_.ims_requests;
    if (lease_renewal) ++metrics_.lease_renewal_ims;
    obs::Emit(sink_, {.type = obs::EventType::kImsSent,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .url = ids_.DocName(request.doc),
                      .site = ids_.SiteName(request.site),
                      .detail = lease_renewal ? 1 : 0});
  }

  // PCV: since we are contacting the server anyway, piggyback a batch of
  // this proxy's TTL-expired entries for bulk validation.
  std::uint64_t piggyback_bytes = 0;
  if (Traits().piggyback_validation) {
    std::vector<core::PcvItem> items;
    for (http::CacheEntry* expired : pc.cache->TakeExpired(
             trace_time, config_.piggyback.max_validations_per_request)) {
      if (expired->site == request.site && expired->doc == request.doc) {
        // The request itself validates this entry; leave it indexed.
        pc.cache->SetTtlExpiry(*expired, expired->ttl_expires);
        continue;
      }
      items.push_back(core::PcvItem{expired->doc, expired->site,
                                    expired->last_modified});
    }
    metrics_.pcv_items_piggybacked += items.size();
    piggyback_bytes = core::PcvRequestExtraBytes(items, ids_);
    if (!items.empty()) pcv_in_flight_[seq] = std::move(items);
  }
  metrics_.message_bytes += net::WireSize(request, ids_) + piggyback_bytes;

  // Reply timeout: the closed loop must advance even if the server is dead.
  sim_.After(config_.client_costs.request_timeout, [this, &pc, seq] {
    if (pc.outstanding != seq) return;
    pc.outstanding = 0;
    pcv_in_flight_.erase(seq);
    ++metrics_.request_timeouts;
    obs::Emit(sink_, {.type = obs::EventType::kRequestTimeout,
                      .at = sim_.now(),
                      .detail = static_cast<std::int64_t>(seq)});
    FinishRequest(pc, config_.client_costs.request_timeout);
  });

  // In hierarchical mode leaf misses go to the parent proxy, not the server.
  sim_.After(config_.client_costs.proxy_forward_overhead,
             [this, &pc, request, seq, trace_time, piggyback_bytes] {
               const sim::NodeId upstream =
                   config_.hierarchical ? ParentNode() : ServerNode();
               net_.Send(pc.node, upstream,
                         net::WireSize(request, ids_) + piggyback_bytes,
                         [this, request, index = pc.index, seq, trace_time] {
                           if (config_.hierarchical) {
                             ParentHandle(request, index, seq, trace_time);
                           } else {
                             ServerHandle(request, index, seq, trace_time);
                           }
                         });
             });
}

void Engine::ServerHandle(const net::DocRequest& request, int client_index,
                          std::uint64_t seq, Time trace_time) {
  std::optional<net::DocReply> reply =
      InvalidationMode() ? accel_.HandleRequest(request, trace_time)
                         : origin_->Handle(request, trace_time);
  WEBCC_CHECK_MSG(reply.has_value(), "trace referenced an unknown document");

  const bool transfer = reply->type == net::MessageType::kReply200;
  // PCV: bulk-validate the piggybacked batch against the file system.
  std::vector<core::PcvVerdict> verdicts;
  if (const auto it = pcv_in_flight_.find(seq); it != pcv_in_flight_.end()) {
    verdicts = core::ValidatePiggyback(docs_, it->second);
    pcv_in_flight_.erase(it);
  }

  // PSI: attach the documents modified since this proxy's last contact and
  // advance its cursor.
  std::vector<core::DocId> psi_docs;
  if (Traits().piggyback_invalidation) {
    Time& cursor = psi_last_contact_[client_index];
    core::ModificationLog::Window window = mod_log_.CollectSince(
        cursor, trace_time, config_.piggyback.max_invalidations_per_reply);
    cursor = std::max(cursor, window.advanced_to);
    psi_docs = std::move(window.docs);
  }

  const Time piggyback_cpu =
      static_cast<Time>(verdicts.size() + psi_docs.size()) *
      config_.server_costs.piggyback_item_cpu;

  const Time ready = ChargeServer(transfer, piggyback_cpu);
  NoteReply(*reply, request.site, trace_time);
  const std::uint64_t piggyback_bytes =
      core::PcvReplyExtraBytes(verdicts, ids_) +
      core::PsiReplyExtraBytes(psi_docs, ids_);
  metrics_.message_bytes += net::WireSize(*reply, ids_) + piggyback_bytes;
  ReplyToClient(ServerNode(), ready, client_index, seq, *reply, request.site,
                piggyback_bytes, trace_time, std::move(verdicts),
                std::move(psi_docs));
}

Time Engine::ChargeServer(bool transfer, Time extra_cpu) {
  const http::ServerCosts& costs = config_.server_costs;
  // Access log write (all approaches log incoming requests); logging is
  // asynchronous w.r.t. the reply.
  server_disk_.utilization().AddWrite();
  server_disk_.Enqueue(costs.disk_op);
  Time ready = server_cpu_.Enqueue(
      (transfer ? costs.request_cpu_200 : costs.request_cpu_304) + extra_cpu);
  if (transfer) {
    // The file read must complete before the body can be sent.
    server_disk_.utilization().AddRead();
    ready = std::max(ready, server_disk_.Enqueue(costs.disk_op));
  }
  return ready;
}

void Engine::NoteReply(const net::DocReply& reply, core::SiteId site,
                       Time trace_time) {
  const bool transfer = reply.type == net::MessageType::kReply200;
  ++(transfer ? metrics_.replies_200 : metrics_.replies_304);
  obs::Emit(sink_, {.type = transfer ? obs::EventType::kReply200
                                     : obs::EventType::kReply304,
                    .at = sim_.now(),
                    .trace_time = trace_time,
                    .url = ids_.DocName(reply.doc),
                    .site = ids_.SiteName(site)});
}

void Engine::ReplyToClient(sim::NodeId from, Time ready, int client_index,
                           std::uint64_t seq, const net::DocReply& reply,
                           core::SiteId owner, std::uint64_t piggyback_bytes,
                           Time trace_time,
                           std::vector<core::PcvVerdict> verdicts,
                           std::vector<core::DocId> psi_docs) {
  // Transfer delay uses the scaled-down body, as in the paper's testbed.
  const auto scaled_body = static_cast<std::uint64_t>(
      static_cast<double>(reply.body_bytes) / config_.size_scale);
  const std::uint64_t wire_bytes = net::kControlHeaderBytes +
                                   ids_.DocName(reply.doc).size() +
                                   scaled_body + piggyback_bytes;
  sim_.At(ready, [this, from, client_index, seq, reply, owner, trace_time,
                  wire_bytes, verdicts = std::move(verdicts),
                  psi_docs = std::move(psi_docs)]() mutable {
    net_.Send(from, clients_[client_index].node, wire_bytes,
              [this, client_index, seq, reply, owner, trace_time,
               verdicts = std::move(verdicts),
               psi_docs = std::move(psi_docs)] {
                ApplyPiggyback(client_index, verdicts, psi_docs, trace_time);
                DeliverReply(client_index, seq, reply, owner, trace_time);
              });
  });
}

// Applies PCV verdicts and PSI change notices at the proxy, before the
// reply itself is processed (so a just-fetched body is inserted after any
// purge of its URL).
void Engine::ApplyPiggyback(int client_index,
                            const std::vector<core::PcvVerdict>& verdicts,
                            const std::vector<core::DocId>& psi_docs,
                            Time trace_time) {
  PseudoClient& pc = clients_[client_index];
  for (const core::PcvVerdict& verdict : verdicts) {
    http::CacheEntry* entry = pc.cache->Peek(verdict.site, verdict.doc);
    if (entry == nullptr) continue;
    if (verdict.invalid) {
      pc.cache->Erase(verdict.site, verdict.doc);
      ++metrics_.pcv_invalidated;
    } else {
      pc.cache->SetTtlExpiry(*entry,
                             policy_->OnPcvValid(MetaOf(*entry), trace_time));
    }
  }
  for (const core::DocId doc : psi_docs) {
    ++metrics_.psi_notices;
    metrics_.psi_entries_erased += pc.cache->EraseByUrl(doc);
  }
}

http::CacheEntry Engine::BuildEntry(const net::DocReply& reply,
                                    core::SiteId owner,
                                    Time trace_time) const {
  http::CacheEntry entry;
  entry.doc = reply.doc;
  entry.site = owner;
  entry.size_bytes = reply.body_bytes;
  entry.last_modified = reply.last_modified;
  entry.version = reply.version;
  entry.fetched_at = trace_time;
  const core::consistency::InsertDecision decision =
      policy_->OnMissReply(MetaOf(reply), trace_time);
  entry.ttl_expires = decision.ttl_expires;
  entry.lease_expires = decision.lease_expires;
  return entry;
}

void Engine::DeliverReply(int client_index, std::uint64_t seq,
                          const net::DocReply& reply, core::SiteId owner,
                          Time trace_time) {
  PseudoClient& pc = clients_[client_index];
  if (pc.outstanding != seq) return;  // timed out; late reply dropped
  pc.outstanding = 0;

  if (reply.type == net::MessageType::kReply200) {
    obs::Emit(
        sink_,
        {.type = obs::EventType::kRequestServed,
         .at = sim_.now(),
         .trace_time = trace_time,
         .url = ids_.DocName(reply.doc),
         .site = ids_.SiteName(owner),
         .detail = static_cast<std::int64_t>(obs::ServeKind::kTransfer)});
    pc.cache->Insert(BuildEntry(reply, owner, trace_time), trace_time);
  } else {
    // 304: the cached copy is certified fresh as of this validation.
    ++metrics_.validated_hits;
    obs::Emit(
        sink_,
        {.type = obs::EventType::kRequestServed,
         .at = sim_.now(),
         .trace_time = trace_time,
         .url = ids_.DocName(reply.doc),
         .site = ids_.SiteName(owner),
         .detail = static_cast<std::int64_t>(obs::ServeKind::kValidated)});
    http::CacheEntry* entry = pc.cache->Peek(owner, reply.doc);
    if (entry != nullptr) {
      const core::consistency::ValidateDecision decision =
          policy_->OnValidateReply(MetaOf(reply), trace_time);
      if (decision.clear_questionable) entry->questionable = false;
      if (decision.set_ttl) {
        pc.cache->SetTtlExpiry(*entry, decision.ttl_expires);
      }
      if (decision.set_lease) entry->lease_expires = decision.lease_expires;
    }
  }
  FinishRequest(pc, sim_.now() - pc.request_start);
}

}  // namespace detail

ReplayMetrics RunReplay(const ReplayConfig& config) {
  if (config.trace == nullptr && config.scenario != nullptr) {
    // Synthetic input: generate the workload locally. Each farm worker
    // running this path produces the identical workload (Generate is a pure
    // function of the scenario), which is what makes scenario replays
    // worker-count invariant without sharing a trace across threads.
    const synth::SynthWorkload workload = synth::Generate(*config.scenario);
    ReplayConfig local = config;
    local.trace = &workload.trace;
    local.scenario = nullptr;
    if (local.explicit_modifications.empty()) {
      // The scenario's write stream is the whole modification schedule —
      // even when it is empty (a read-only scenario must not fall back to
      // the mean-lifetime modifier process).
      local.explicit_modifications = workload.writes;
      local.suppress_generated_modifications = true;
    }
    detail::Engine engine(local);
    return engine.Run();
  }
  detail::Engine engine(config);
  return engine.Run();
}

}  // namespace webcc::replay
