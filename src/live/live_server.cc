#include "live/live_server.h"

#include <charconv>
#include <chrono>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "util/log.h"

namespace webcc::live {

std::string MakeClientId(std::string_view name, std::uint16_t proxy_port) {
  return std::string(name) + "@" + std::to_string(proxy_port);
}

std::optional<std::uint16_t> ParseClientPort(std::string_view client_id) {
  const std::size_t at = client_id.rfind('@');
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view digits = client_id.substr(at + 1);
  std::uint16_t port = 0;
  const auto result =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (result.ec != std::errc{} ||
      result.ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return port;
}

LiveServer::LiveServer(Options options)
    : options_(std::move(options)),
      policy_(core::consistency::MakePolicy(options_.protocol,
                                            core::AdaptiveTtlConfig{})),
      accel_(docs_, options_.lease,
             options_.shards > 0 ? options_.shards : 1, options_.server_name),
      origin_(docs_) {
  // The accelerator emits lease_grant / notify / invalidate_generated /
  // invalidate_server events itself once it has the sink.
  accel_.set_trace_sink(options_.trace_sink);
}

LiveServer::~LiveServer() { Stop(); }

bool LiveServer::Start() {
  listener_.emplace(options_.port);
  if (!listener_->valid()) return false;
  port_ = listener_->port();
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void LiveServer::Stop() {
  if (!running_.exchange(false)) return;
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
}

Time LiveServer::Now() const {
  // Unix-epoch microseconds: server and proxy clocks must agree because
  // lease expiries and modification times cross the wire.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void LiveServer::AddDocument(std::string path, std::uint64_t size_bytes) {
  const util::MutexLock lock(mutex_);
  docs_.Add(std::move(path), size_bytes, Now());
}

std::size_t LiveServer::TouchDocument(const std::string& path) {
  const bool fan_out = policy_->OnWrite().fan_out_invalidations;
  std::vector<net::Invalidation> invalidations;
  {
    const util::MutexLock lock(mutex_);
    const Time now = Now();
    const core::DocId doc = docs_.ids().docs.Find(path);
    if (!docs_.Touch(doc, now)) return 0;
    mod_log_.Record(now, doc);
    obs::Emit(options_.trace_sink,
              {.type = obs::EventType::kModification, .at = now, .url = path});
    if (fan_out) {
      // Retire lapsed leases before taking the list: O(expired) amortized
      // via the per-shard timer wheels, so the write path can afford it on
      // every check-in and the table never accumulates dead entries
      // between writes.
      accel_.PruneExpired(now);
      invalidations = accel_.HandleNotify(net::Notify{path}, now);
    }
  }
  return PushInvalidations(invalidations);
}

void LiveServer::CrashTables() {
  const util::MutexLock lock(mutex_);
  accel_.Crash();
}

std::size_t LiveServer::Recover() {
  std::vector<net::Invalidation> notices;
  {
    const util::MutexLock lock(mutex_);
    notices = accel_.Recover();
  }
  return PushInvalidations(notices);
}

std::size_t LiveServer::PushInvalidations(
    const std::vector<net::Invalidation>& invalidations) {
  // One wire frame per push. Batching folds every kInvalidateUrl bound for
  // the same proxy into a single INVB frame (first-appearance order);
  // server-address recovery notices always travel alone. All counters and
  // failure events stay per-URL so observable behavior matches the
  // unbatched path frame-for-URL.
  struct Frame {
    std::string client_id;
    std::string line;
    // URLs the frame carries, for per-URL accounting; a server-address
    // notice contributes one empty entry (its INVSRV line has no URL),
    // matching the unbatched path's empty invalidation.url.
    std::vector<std::string> urls;
  };
  std::vector<Frame> frames;
  if (options_.batch_invalidations) {
    std::unordered_map<std::string, std::size_t> frame_of_site;
    for (const net::Invalidation& invalidation : invalidations) {
      if (invalidation.type != net::MessageType::kInvalidateUrl) {
        frames.push_back(Frame{invalidation.client_id,
                               net::EncodeLine(invalidation),
                               {std::string()}});
        continue;
      }
      const auto [it, inserted] =
          frame_of_site.try_emplace(invalidation.client_id, frames.size());
      if (inserted) {
        frames.push_back(Frame{invalidation.client_id, {}, {}});
      }
      frames[it->second].urls.push_back(invalidation.url);
    }
    for (Frame& frame : frames) {
      if (!frame.line.empty()) continue;  // already-encoded INVSRV
      frame.line = net::EncodeLine(
          net::Message(net::BatchInvalidation{frame.client_id, frame.urls}));
    }
  } else {
    for (const net::Invalidation& invalidation : invalidations) {
      std::vector<std::string> urls;
      urls.push_back(invalidation.url);
      frames.push_back(Frame{invalidation.client_id,
                             net::EncodeLine(invalidation), std::move(urls)});
    }
  }

  std::size_t pushed = 0;
  for (const Frame& frame : frames) {
    const auto port = ParseClientPort(frame.client_id);
    if (!port.has_value()) {
      WEBCC_LOG_WARN("live: client id '%s' has no callback port",
                     frame.client_id.c_str());
      continue;
    }
    IoError error = IoError::kOther;
    for (int attempt = 0; attempt <= options_.push_retries; ++attempt) {
      if (attempt > 0) {
        // A stalled (but alive) proxy gets the bounded retry the replay
        // models with SendReliable's backoff; a refused connection means
        // the proxy is down and is not retried — its recovery path
        // (mark-all-questionable) covers consistency, exactly the paper's
        // failure handling.
        push_retries_.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            options_.push_retry_backoff_ms * attempt));
      }
      error = SendOneWayClassified(*port, frame.line, options_.push_timeout_ms);
      if (error != IoError::kTimeout) break;
    }
    if (error == IoError::kNone) {
      // Delivery is traced at the proxy when it applies the message (the
      // replay emits kInvalidateDelivered at the cache, not the sender).
      pushed += frame.urls.size();
      invalidations_pushed_.fetch_add(frame.urls.size());
      invalidation_frames_pushed_.fetch_add(1);
    } else {
      if (error == IoError::kTimeout) {
        pushes_timed_out_.fetch_add(1);
      } else {
        pushes_refused_.fetch_add(1);
      }
      for (const std::string& url : frame.urls) {
        obs::Emit(options_.trace_sink,
                  {.type = error == IoError::kTimeout
                               ? obs::EventType::kInvalidateGaveUp
                               : obs::EventType::kInvalidateRefused,
                   .at = Now(),
                   .url = url,
                   .site = frame.client_id});
      }
    }
  }
  return pushed;
}

void LiveServer::AcceptLoop() {
  while (running_.load()) {
    TcpStream stream = listener_->Accept();
    if (!stream.valid()) {
      if (!running_.load()) return;
      continue;
    }
    HandleConnection(std::move(stream));
  }
}

void LiveServer::HandleConnection(TcpStream stream) {
  stream.SetReadTimeout(5000);
  const std::optional<std::string> line = stream.ReadLine();
  if (!line.has_value()) return;
  const std::optional<net::Message> message = net::DecodeLine(*line);
  if (!message.has_value()) {
    stream.WriteAll("ERR malformed\n");
    return;
  }
  const core::consistency::Traits& traits = policy_->traits();

  if (const auto* request = std::get_if<net::Request>(&*message)) {
    std::optional<net::Reply> reply;
    {
      const util::MutexLock lock(mutex_);
      const Time now = Now();
      // Protocols without invalidation callbacks run no accelerator: no
      // site registration, no leases — the origin answers directly, as in
      // the replay's non-invalidation routing.
      reply = traits.invalidation_callbacks
                  ? accel_.HandleRequest(*request, now)
                  : origin_.Handle(*request, now);
      if (reply.has_value()) {
        // PCV: bulk-validate the piggybacked batch against the file
        // system; only the invalid entries are echoed back.
        if (traits.piggyback_validation && !request->pcv_queries.empty()) {
          std::vector<core::PcvItem> items;
          items.reserve(request->pcv_queries.size());
          for (const net::PcvQuery& query : request->pcv_queries) {
            items.push_back(core::PcvItem{docs_.ids().docs.Find(query.url),
                                          core::kNoInternId,
                                          query.last_modified});
          }
          // Verdicts come back in query order; echo the invalid queries.
          const std::vector<core::PcvVerdict> verdicts =
              core::ValidatePiggyback(docs_, items);
          for (std::size_t i = 0; i < verdicts.size(); ++i) {
            if (!verdicts[i].invalid) continue;
            const net::PcvQuery& query = request->pcv_queries[i];
            reply->pcv_invalid.push_back(net::PcvStale{query.url, query.owner});
          }
        }
        // PSI: attach the documents modified since this proxy's previous
        // contact and advance its cursor (keyed by the callback port that
        // identifies the proxy, like the replay's per-pseudo-client
        // cursors).
        if (traits.piggyback_invalidation) {
          const std::uint16_t proxy =
              ParseClientPort(request->client_id).value_or(0);
          Time& cursor = psi_cursor_[proxy];
          core::ModificationLog::Window window = mod_log_.CollectSince(
              cursor, now, options_.piggyback.max_invalidations_per_reply);
          cursor = std::max(cursor, window.advanced_to);
          for (const core::DocId doc : window.docs) {
            reply->psi_modified.push_back(docs_.ids().DocName(doc));
          }
        }
      }
    }
    if (!reply.has_value()) {
      stream.WriteAll("ERR notfound\n");
      return;
    }
    requests_served_.fetch_add(1);
    obs::Emit(options_.trace_sink,
              {.type = reply->type == net::MessageType::kReply200
                           ? obs::EventType::kReply200
                           : obs::EventType::kReply304,
               .at = Now(),
               .url = reply->url,
               .site = request->client_id});
    stream.WriteAll(net::EncodeLine(*reply));
    return;
  }

  if (const auto* notify = std::get_if<net::Notify>(&*message)) {
    // Out-of-band check-in (the replay drives TouchDocument directly; a
    // remote modifier can also announce an already-applied edit). Weak
    // protocols owe no fan-out — the check-in is acknowledged and dropped.
    std::vector<net::Invalidation> invalidations;
    if (policy_->OnWrite().fan_out_invalidations) {
      const util::MutexLock lock(mutex_);
      invalidations = accel_.HandleNotify(*notify, Now());
    }
    const std::size_t pushed = PushInvalidations(invalidations);
    stream.WriteAll("OK " + std::to_string(pushed) + "\n");
    return;
  }

  stream.WriteAll("ERR unsupported\n");
}

}  // namespace webcc::live
