#include "live/live_proxy.h"

#include <chrono>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/consistency/steps.h"
#include "live/live_server.h"
#include "net/wire.h"
#include "util/log.h"

namespace webcc::live {

LiveProxy::LiveProxy(Options options)
    : options_(std::move(options)),
      policy_(core::consistency::MakePolicy(options_.protocol, options_.ttl)) {}

LiveProxy::~LiveProxy() { Stop(); }

bool LiveProxy::Start() {
  listener_.emplace(options_.port);
  if (!listener_->valid()) return false;
  port_ = listener_->port();
  {
    const util::MutexLock lock(mutex_);
    cache_.emplace(options_.cache_bytes, options_.eviction_policy,
                   options_.cache_tier, &ids_);
    cache_->set_trace_sink(options_.trace_sink);  // eviction events
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void LiveProxy::Stop() {
  if (!running_.exchange(false)) return;
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
}

Time LiveProxy::Now() const {
  // Unix-epoch microseconds: server and proxy clocks must agree because
  // lease expiries and modification times cross the wire.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::size_t LiveProxy::cached_entries() const {
  const util::MutexLock lock(mutex_);
  return cache_->entry_count();
}

void LiveProxy::SimulateRecovery() {
  const util::MutexLock lock(mutex_);
  cache_->MarkAllQuestionable();
}

LiveProxy::FetchResult LiveProxy::Fetch(const std::string& client_name,
                                        const std::string& url) {
  const std::string client_id = MakeClientId(client_name, port_);
  const Time now = Now();

  core::SiteId site = core::kNoInternId;
  core::DocId doc = core::kNoInternId;
  net::Request request;
  request.url = url;
  request.client_id = client_id;
  bool lease_renewal = false;
  std::vector<core::PcvItem> pcv_items;
  {
    const util::MutexLock lock(mutex_);
    site = ids_.sites.Intern(client_id);
    doc = ids_.docs.Intern(url);
    core::consistency::ProxyRequest step = core::consistency::BeginRequest(
        *policy_, options_.piggyback, *cache_, site, doc, now);
    if (step.local != nullptr) {
      obs::Emit(options_.trace_sink,
                {.type = obs::EventType::kRequestServed,
                 .at = now,
                 .url = url,
                 .site = client_id,
                 .detail =
                     static_cast<std::int64_t>(obs::ServeKind::kLocalHit)});
      return FetchResult{.ok = true,
                         .local_hit = true,
                         .version = step.local->version,
                         .size_bytes = step.local->size_bytes};
    }
    request.type = step.request.type;
    request.if_modified_since = step.request.if_modified_since;
    lease_renewal = step.lease_renewal;
    for (const core::PcvItem& item : step.pcv_items) {
      request.pcv_queries.push_back(net::PcvQuery{
          ids_.DocName(item.doc), ids_.SiteName(item.site),
          item.last_modified});
    }
    pcv_items = std::move(step.pcv_items);
  }

  obs::Emit(options_.trace_sink,
            request.type == net::MessageType::kGet
                ? obs::TraceEvent{.type = obs::EventType::kGetSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id}
                : obs::TraceEvent{.type = obs::EventType::kImsSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id,
                                  .detail = lease_renewal ? 1 : 0});

  const std::optional<std::string> reply_line =
      Exchange(options_.server_port, net::EncodeLine(request));
  if (!reply_line.has_value()) return FetchResult{};
  const std::optional<net::Message> message = net::DecodeLine(*reply_line);
  if (!message.has_value()) return FetchResult{};
  const auto* reply = std::get_if<net::Reply>(&*message);
  if (reply == nullptr) return FetchResult{};

  const bool transfer = reply->type == net::MessageType::kReply200;
  obs::Emit(options_.trace_sink,
            {.type = obs::EventType::kRequestServed,
             .at = now,
             .url = url,
             .site = client_id,
             .detail = static_cast<std::int64_t>(
                 transfer ? obs::ServeKind::kTransfer
                          : obs::ServeKind::kValidated)});

  FetchResult result{.ok = true,
                     .validated = !transfer,
                     .version = reply->version,
                     .size_bytes = reply->body_bytes};
  const util::MutexLock lock(mutex_);

  // The server echoes only the invalid piggybacked copies; every other
  // item is certified valid.
  std::unordered_set<std::uint64_t> stale;
  for (const net::PcvStale& copy : reply->pcv_invalid) {
    stale.insert(core::PackSiteDoc(ids_.sites.Find(copy.owner),
                                   ids_.docs.Find(copy.url)));
  }
  std::vector<core::PcvVerdict> verdicts;
  verdicts.reserve(pcv_items.size());
  for (const core::PcvItem& item : pcv_items) {
    verdicts.push_back(
        {item.doc, item.site,
         stale.count(core::PackSiteDoc(item.site, item.doc)) != 0});
  }
  std::vector<core::DocId> psi_docs;
  for (const std::string& modified : reply->psi_modified) {
    const core::DocId modified_doc = ids_.docs.Find(modified);
    if (modified_doc != core::kNoInternId) psi_docs.push_back(modified_doc);
  }
  const core::consistency::PiggybackApplied applied =
      core::consistency::ApplyPiggyback(*policy_, *cache_, verdicts, psi_docs,
                                        now);
  pcv_invalidated_.fetch_add(applied.pcv_invalidated);
  psi_purged_.fetch_add(applied.psi_erased);

  const net::DocReply by_id{.type = reply->type,
                            .doc = doc,
                            .body_bytes = reply->body_bytes,
                            .last_modified = reply->last_modified,
                            .version = reply->version,
                            .lease_until = reply->lease_until};
  if (const http::CacheEntry* validated = core::consistency::ApplyReply(
          *policy_, *cache_, by_id, site, now)) {
    result.version = validated->version;
    result.size_bytes = validated->size_bytes;
  }
  return result;
}

void LiveProxy::ApplyInvalidation(const std::string& client_id,
                                  const std::string& url) {
  // Names this proxy never fetched resolve to kNoInternId: no copy to drop.
  cache_->Erase(ids_.sites.Find(client_id), ids_.docs.Find(url));
  invalidations_received_.fetch_add(1);
  obs::Emit(options_.trace_sink, {.type = obs::EventType::kInvalidateDelivered,
                                  .at = Now(),
                                  .url = url,
                                  .site = client_id});
}

void LiveProxy::AcceptLoop() {
  while (running_.load()) {
    TcpStream stream = listener_->Accept();
    if (!stream.valid()) {
      if (!running_.load()) return;
      continue;
    }
    stream.SetReadTimeout(5000);
    const std::optional<std::string> line = stream.ReadLine();
    if (!line.has_value()) continue;
    const std::optional<net::Message> message = net::DecodeLine(*line);
    if (!message.has_value()) continue;
    // A proxy running a protocol without invalidation callbacks predates
    // the INVALIDATE extension and ignores such messages, as the paper's
    // weak-consistency baselines do.
    if (!policy_->traits().invalidation_callbacks) continue;
    if (const auto* batch = std::get_if<net::BatchInvalidation>(&*message)) {
      // A batched frame is semantically the list of single invalidations it
      // carries: same per-URL purge, counter and delivery event as if each
      // URL had arrived on its own connection.
      const util::MutexLock lock(mutex_);
      for (const std::string& url : batch->urls) {
        ApplyInvalidation(batch->client_id, url);
      }
      continue;
    }
    const auto* invalidation = std::get_if<net::Invalidation>(&*message);
    if (invalidation == nullptr) continue;

    const util::MutexLock lock(mutex_);
    if (invalidation->type == net::MessageType::kInvalidateUrl) {
      ApplyInvalidation(invalidation->client_id, invalidation->url);
    } else {
      // Server-address invalidation: the recovering server cannot know what
      // changed while it was down, so every copy of its documents at this
      // site becomes questionable (the wire message carries no client; with
      // a single origin that is this proxy's whole cache).
      cache_->MarkAllQuestionable();
      server_notices_received_.fetch_add(1);
    }
  }
}

}  // namespace webcc::live
