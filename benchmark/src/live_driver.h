// The live stack driven in Section 5.1 lock step: one LiveServer
// (invalidation, default batching) and two LiveProxy instances on loopback
// sockets.
//
// A request stream is cut into lock-step intervals. Within an interval two
// load threads (one per proxy; a client's requests go to proxy
// client_id mod 2) issue their share closed-loop, each request waiting for
// the previous one. When both are done the coordinating thread applies the
// interval's writes one by one, and only then opens the next interval.
// Writes are paced by the replay, not by a timer, so the figures measure
// the stack and not a growing backlog.
//
// A write completes when every INVALIDATE it pushed has been delivered, as
// in the paper and the replay engine. TouchDocument returns once each push
// is written to its proxy's socket; the proxy applies it on its own accept
// thread a little later. So after TouchDocument the coordinator also waits
// until the proxies' received counts cover the pushes, exactly as
// tests/test_live.cc does. Without that wait a fetch can race the proxy's
// accept loop and serve the superseded copy.
//
// The replay workloads' traced runs run one pass over their own stream as
// the live layer's driver.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "live/live_proxy.h"
#include "live/live_server.h"

namespace webcc::benchmark {

inline constexpr int kLiveProxies = 2;

// Members are destroyed in reverse order, so the proxies stop (their
// destructors join the accept threads) before the server does.
struct LiveStack {
  std::unique_ptr<live::LiveServer> server;
  std::vector<std::unique_ptr<live::LiveProxy>> proxies;
};

// Starts the server, loads every document of `trace`, then starts the
// proxies. nullptr if a listener could not be bound.
std::unique_ptr<LiveStack> StartStack(const trace::Trace& trace);

// Samples and counters of a pass.
struct LiveResult {
  std::vector<double> fetch_us;
  std::vector<double> local_hit_us;
  std::vector<double> server_fetch_us;
  std::vector<double> write_us;  // TouchDocument + delivery
  std::uint64_t fetches_failed = 0;
  // Fetches that returned an older version than a completed write made.
  std::uint64_t stale_after_write = 0;
  std::uint64_t invalidations_pushed = 0;
  std::uint64_t frames = 0;
  std::uint64_t push_retries = 0;
  std::uint64_t pushes_failed = 0;
  // Writes whose pushes were not all delivered within five seconds.
  std::uint64_t undelivered = 0;
};

// Replays every lock-step interval of `ops` once on `stack` (fresh, loaded
// with `trace`'s documents). Each Fetch gets a span named by its outcome
// and each write a live.TouchDocument span; op ids are positions in `ops`.
void RunLivePass(const trace::Trace& trace, const std::vector<Op>& ops,
                 LiveStack& stack, SpanLog* spans, LiveResult& result);

// Counts attempts and failures and gates: every fetch succeeded, no push
// gave up or went undelivered, and no fetch after a completed write
// returned an older version.
void GateLive(const LiveResult& result, Outcome& outcome);

// The live.* per-layer metrics.
void AddLiveLayerMetrics(const LiveResult& result, Outcome& outcome);

}  // namespace webcc::benchmark
