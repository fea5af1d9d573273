// Real-TCP caching proxy, the live counterpart of the replay's
// pseudo-client proxies (Harvest "cached").
//
// Serves Fetch() calls on behalf of named real clients (one cache entry per
// (client, document) pair, as in the paper's replay), forwards misses and
// validations to the live server, and runs a listener for the server's
// INVALIDATE pushes. The protocol itself is the replay engine's: Fetch runs
// core/consistency/steps.h's proxy step on ids in the proxy's own
// core::IdSpace, so all five protocols (adaptive TTL, poll-every-time,
// invalidation, PCV, PSI) and the lease modes are one code path in
// simulation and deployment. This class holds only the transport: names
// are interned when Fetch is called and resolved (never interned) when a
// push or a reply names them, and messages become wire lines at the socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/consistency/policy.h"
#include "core/id_space.h"
#include "core/piggyback.h"
#include "core/policy.h"
#include "http/proxy_cache.h"
#include "live/socket.h"
#include "obs/trace_sink.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace webcc::live {

class LiveProxy {
 public:
  struct Options {
    std::uint16_t port = 0;       // invalidation listener; 0 = ephemeral
    std::uint16_t server_port = 0;
    core::Protocol protocol = core::Protocol::kInvalidation;
    core::AdaptiveTtlConfig ttl;
    core::PiggybackConfig piggyback;
    std::uint64_t cache_bytes = 64ull * 1024 * 1024;
    http::eviction::EvictionPolicyKind eviction_policy =
        http::eviction::EvictionPolicyKind::kExpiredFirstLru;
    http::TierConfig cache_tier;
    // Optional structured-event sink (not owned; must outlive the proxy).
    // Must be internally synchronized: Fetch() callers and the accept loop
    // emit concurrently.
    obs::TraceSink* trace_sink = nullptr;
  };

  explicit LiveProxy(Options options);
  ~LiveProxy();

  LiveProxy(const LiveProxy&) = delete;
  LiveProxy& operator=(const LiveProxy&) = delete;

  bool Start();
  void Stop();

  std::uint16_t port() const { return port_; }

  struct FetchResult {
    bool ok = false;
    // Served from cache without contacting the server.
    bool local_hit = false;
    // Contacted the server and got a 304 (copy certified fresh).
    bool validated = false;
    std::uint64_t version = 0;
    std::uint64_t size_bytes = 0;
  };

  // Fetches `url` on behalf of real client `client_name`. Thread-safe.
  FetchResult Fetch(const std::string& client_name, const std::string& url);

  // Simulated proxy restart: every cached entry becomes questionable.
  void SimulateRecovery();

  std::uint64_t invalidations_received() const {
    return invalidations_received_.load();
  }
  std::uint64_t server_notices_received() const {
    return server_notices_received_.load();
  }
  // PCV: piggybacked entries the server found invalid (and we dropped).
  std::uint64_t pcv_invalidated() const { return pcv_invalidated_.load(); }
  // PSI: cache entries purged by piggybacked server notices.
  std::uint64_t psi_purged() const { return psi_purged_.load(); }
  std::size_t cached_entries() const;

 private:
  void AcceptLoop();
  // A pushed INVALIDATE for `client_id`'s copy of `url`.
  void ApplyInvalidation(const std::string& client_id, const std::string& url)
      WEBCC_REQUIRES(mutex_);
  Time Now() const;

  Options options_;
  std::unique_ptr<const core::consistency::ConsistencyPolicy> policy_;
  std::uint16_t port_ = 0;

  mutable util::Mutex mutex_;
  // Names the cache's entries; grows only in Fetch.
  core::IdSpace ids_ WEBCC_GUARDED_BY(mutex_);
  std::optional<http::ProxyCache> cache_ WEBCC_GUARDED_BY(mutex_);

  // Shared by design without a lock: the accept thread blocks in Accept()
  // while Stop() calls Shutdown() — TcpListener's fd-based handoff is the
  // synchronization (shutdown(2) wakes the blocked accept).
  std::optional<TcpListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> invalidations_received_{0};
  std::atomic<std::uint64_t> server_notices_received_{0};
  std::atomic<std::uint64_t> pcv_invalidated_{0};
  std::atomic<std::uint64_t> psi_purged_{0};
};

}  // namespace webcc::live
