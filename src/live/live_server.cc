#include "live/live_server.h"

#include <charconv>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/consistency/steps.h"
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
             options_.shards > 0 ? options_.shards : 1, options_.server_name) {
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
  std::vector<Frame> frames;
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
      frames = EncodeFrames(accel_.HandleNotify(doc, now));
    }
  }
  return Push(frames);
}

void LiveServer::CrashTables() {
  const util::MutexLock lock(mutex_);
  accel_.Crash();
}

std::size_t LiveServer::Recover() {
  std::vector<Frame> frames;
  {
    const util::MutexLock lock(mutex_);
    frames = EncodeFrames(accel_.Recover());
  }
  return Push(frames);
}

std::vector<LiveServer::Frame> LiveServer::EncodeFrames(
    const std::vector<net::DocInvalidation>& invalidations) const {
  // One wire frame per push: every kInvalidateUrl bound for the same proxy
  // from one check-in folds into a single INVB frame (first-appearance
  // order); server-address recovery notices always travel alone as INVSRV.
  const core::IdSpace& ids = docs_.ids();
  std::vector<Frame> frames;
  std::unordered_map<core::SiteId, std::size_t> frame_of_site;
  for (const net::DocInvalidation& invalidation : invalidations) {
    if (invalidation.type != net::MessageType::kInvalidateUrl) {
      frames.push_back(Frame{ids.SiteName(invalidation.site),
                             net::EncodeLine(net::ToWire(invalidation, ids)),
                             {std::string()}});
      continue;
    }
    const auto [it, inserted] =
        frame_of_site.try_emplace(invalidation.site, frames.size());
    if (inserted) {
      frames.push_back(Frame{ids.SiteName(invalidation.site), {}, {}});
    }
    frames[it->second].urls.push_back(ids.DocName(invalidation.doc));
  }
  for (Frame& frame : frames) {
    if (!frame.line.empty()) continue;  // already-encoded INVSRV
    frame.line = net::EncodeLine(
        net::Message(net::BatchInvalidation{frame.client_id, frame.urls}));
  }
  return frames;
}

std::size_t LiveServer::Push(const std::vector<Frame>& frames) {
  // All counters and failure events stay per-URL.
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

std::optional<net::Reply> LiveServer::Serve(const net::Request& request,
                                            Time now) {
  core::IdSpace& ids = docs_.ids();
  const core::DocId doc = ids.docs.Find(request.url);
  // An unknown document is refused before its requester is registered.
  if (docs_.Find(doc) == nullptr) return std::nullopt;
  const net::DocRequest by_id{request.type, doc,
                              ids.sites.Intern(request.client_id),
                              request.if_modified_since};
  std::vector<core::PcvItem> pcv_items;
  for (const net::PcvQuery& query : request.pcv_queries) {
    pcv_items.push_back(core::PcvItem{ids.docs.Find(query.url),
                                      ids.sites.Find(query.owner),
                                      query.last_modified});
  }
  // PSI contact cursors key on the callback port that identifies the
  // proxy, like the replay's per-pseudo-client cursors.
  Time& psi_cursor =
      psi_cursor_[ParseClientPort(request.client_id).value_or(0)];
  const std::optional<core::consistency::ServerAnswer> answer =
      core::consistency::ServeRequest(*policy_, options_.piggyback, docs_,
                                      accel_, mod_log_, by_id, pcv_items,
                                      psi_cursor, now);
  if (!answer.has_value()) return std::nullopt;

  net::Reply reply = net::ToWire(answer->reply, ids);
  // Verdicts come back in query order; only the invalid ones are echoed.
  for (std::size_t i = 0; i < answer->verdicts.size(); ++i) {
    if (!answer->verdicts[i].invalid) continue;
    const net::PcvQuery& query = request.pcv_queries[i];
    reply.pcv_invalid.push_back(net::PcvStale{query.url, query.owner});
  }
  for (const core::DocId modified : answer->psi_docs) {
    reply.psi_modified.push_back(ids.DocName(modified));
  }
  return reply;
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

  if (const auto* request = std::get_if<net::Request>(&*message)) {
    std::optional<net::Reply> reply;
    {
      const util::MutexLock lock(mutex_);
      reply = Serve(*request, Now());
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
    // protocols owe no fan-out — the check-in is acknowledged and dropped,
    // as is one for a name the server never stored.
    std::vector<Frame> frames;
    if (policy_->OnWrite().fan_out_invalidations) {
      const util::MutexLock lock(mutex_);
      const core::DocId doc = docs_.ids().docs.Find(notify->url);
      if (doc != core::kNoInternId) {
        frames = EncodeFrames(accel_.HandleNotify(doc, Now()));
      }
    }
    const std::size_t pushed = Push(frames);
    stream.WriteAll("OK " + std::to_string(pushed) + "\n");
    return;
  }

  stream.WriteAll("ERR unsupported\n");
}

}  // namespace webcc::live
