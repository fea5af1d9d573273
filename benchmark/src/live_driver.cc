#include "live_driver.h"

#include <atomic>
#include <barrier>
#include <thread>

#include "replay/config.h"

namespace webcc::benchmark {
namespace {

constexpr double kDeliveryTimeoutS = 5.0;

// One lock-step interval: each proxy's fetches and the writes that follow.
struct Chunk {
  std::vector<const Op*> fetches[kLiveProxies];
  std::vector<const Op*> writes;
};

std::vector<Chunk> MakeChunks(const std::vector<Op>& ops, Time interval) {
  std::vector<Chunk> chunks;
  Time end = 0;
  for (const Op& op : ops) {
    if (chunks.empty() || op.at >= end) {
      chunks.emplace_back();
      end = (op.at / interval + 1) * interval;
    }
    if (op.write) {
      chunks.back().writes.push_back(&op);
    } else {
      chunks.back().fetches[op.client % kLiveProxies].push_back(&op);
    }
  }
  return chunks;
}

std::uint64_t InvalidationsReceived(const LiveStack& stack) {
  std::uint64_t received = 0;
  for (const auto& proxy : stack.proxies) {
    received += proxy->invalidations_received();
  }
  return received;
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

std::unique_ptr<LiveStack> StartStack(const trace::Trace& trace) {
  auto stack = std::make_unique<LiveStack>();
  live::LiveServer::Options server_options;
  server_options.protocol = core::Protocol::kInvalidation;
  stack->server = std::make_unique<live::LiveServer>(server_options);
  if (!stack->server->Start()) return nullptr;
  for (const trace::DocumentInfo& doc : trace.documents) {
    stack->server->AddDocument(doc.path, doc.size_bytes);
  }
  for (int i = 0; i < kLiveProxies; ++i) {
    live::LiveProxy::Options proxy_options;
    proxy_options.server_port = stack->server->port();
    proxy_options.protocol = core::Protocol::kInvalidation;
    stack->proxies.push_back(std::make_unique<live::LiveProxy>(proxy_options));
    if (!stack->proxies.back()->Start()) return nullptr;
  }
  return stack;
}

void RunLivePass(const trace::Trace& trace, const std::vector<Op>& ops,
                 LiveStack& stack, SpanLog* spans, LiveResult& result) {
  const std::vector<Chunk> chunks =
      MakeChunks(ops, replay::ReplayConfig{}.lockstep_interval);
  const auto op_id = [&](const Op* op) {
    return static_cast<std::uint64_t>(op - ops.data());
  };
  // Lowest version a fetch may return: 1 + completed writes of the doc.
  std::vector<std::uint64_t> min_version(trace.documents.size(), 1);
  // Per load thread; merged after the join.
  LiveResult per_proxy[kLiveProxies];
  std::atomic<bool> stop{false};
  std::size_t current = 0;  // written by the coordinator between phases
  std::barrier sync(kLiveProxies + 1);
  const std::uint64_t parent_span = CurrentSpanId();

  std::vector<std::thread> load;
  for (int p = 0; p < kLiveProxies; ++p) {
    load.emplace_back([&, p] {
      const SpanParent adopt(parent_span);
      live::LiveProxy& proxy = *stack.proxies[p];
      LiveResult& mine = per_proxy[p];
      for (;;) {
        sync.arrive_and_wait();  // interval opens
        if (stop.load()) return;
        for (const Op* op : chunks[current].fetches[p]) {
          const std::string& url = trace.documents[op->doc].path;
          ScopedSpan span(spans, "live.Fetch", op_id(op));
          const std::int64_t start = NowNs();
          const live::LiveProxy::FetchResult fetched =
              proxy.Fetch(trace.clients[op->client], url);
          const double us = static_cast<double>(NowNs() - start) * 1e-3;
          mine.fetch_us.push_back(us);
          if (!fetched.ok) {
            ++mine.fetches_failed;
            span.Rename("live.Fetch failed");
            continue;
          }
          if (fetched.local_hit) {
            mine.local_hit_us.push_back(us);
            span.Rename("live.Fetch local_hit");
          } else {
            mine.server_fetch_us.push_back(us);
            span.Rename(fetched.validated ? "live.Fetch validated"
                                          : "live.Fetch transfer");
          }
          if (fetched.version < min_version[op->doc]) {
            ++mine.stale_after_write;
          }
        }
        sync.arrive_and_wait();  // interval's fetches done
      }
    });
  }

  std::uint64_t pushed = 0;
  for (current = 0; current < chunks.size(); ++current) {
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    for (const Op* op : chunks[current].writes) {
      const std::string& url = trace.documents[op->doc].path;
      const ScopedSpan span(spans, "live.TouchDocument", op_id(op));
      const std::int64_t start = NowNs();
      pushed += stack.server->TouchDocument(url);
      while (InvalidationsReceived(stack) < pushed) {
        if (SecondsSince(start) > kDeliveryTimeoutS) {
          ++result.undelivered;
          break;
        }
        std::this_thread::yield();
      }
      result.write_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
      ++min_version[op->doc];
    }
  }
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& thread : load) thread.join();

  for (const LiveResult& mine : per_proxy) {
    Append(result.fetch_us, mine.fetch_us);
    Append(result.local_hit_us, mine.local_hit_us);
    Append(result.server_fetch_us, mine.server_fetch_us);
    result.fetches_failed += mine.fetches_failed;
    result.stale_after_write += mine.stale_after_write;
  }
  result.invalidations_pushed += pushed;
  result.frames += stack.server->invalidation_frames_pushed();
  result.push_retries += stack.server->push_retries();
  result.pushes_failed +=
      stack.server->pushes_timed_out() + stack.server->pushes_refused();
}

void GateLive(const LiveResult& result, Outcome& outcome) {
  outcome.attempted += result.fetch_us.size() + result.write_us.size();
  outcome.failed +=
      result.fetches_failed + result.pushes_failed + result.undelivered;
  outcome.Gate(result.fetches_failed == 0,
               std::to_string(result.fetches_failed) + " fetches failed");
  outcome.Gate(result.pushes_failed == 0,
               std::to_string(result.pushes_failed) + " pushes gave up");
  outcome.Gate(result.undelivered == 0,
               std::to_string(result.undelivered) +
                   " writes' pushes were not delivered within 5 s");
  outcome.Gate(result.stale_after_write == 0,
               std::to_string(result.stale_after_write) +
                   " fetches returned a version older than a completed "
                   "write");
}

void AddLiveLayerMetrics(const LiveResult& result, Outcome& outcome) {
  const std::size_t fetches = result.fetch_us.size();
  const double pushed = static_cast<double>(result.invalidations_pushed);
  double write_total_us = 0.0;
  for (const double us : result.write_us) write_total_us += us;
  outcome.Add("live.local_hit_us", Median(result.local_hit_us), "us",
              "median of " + Count(result.local_hit_us.size(), "local hits"));
  outcome.Add("live.server_fetch_us", Median(result.server_fetch_us), "us",
              "median of " +
                  Count(result.server_fetch_us.size(), "server fetches"));
  outcome.Add("live.server_fetch_share",
              static_cast<double>(result.server_fetch_us.size()) /
                  static_cast<double>(std::max<std::size_t>(1, fetches)),
              "ratio", Count(fetches, "fetches"));
  outcome.Add("live.push_us_per_invalidation",
              pushed > 0 ? write_total_us / pushed : 0.0, "us",
              Count(result.invalidations_pushed, "invalidations"));
  outcome.Add("live.frames_per_invalidation",
              pushed > 0 ? static_cast<double>(result.frames) / pushed : 0.0,
              "frames/inv", Count(result.frames, "frames"));
  outcome.Add("live.push_retries", static_cast<double>(result.push_retries),
              "count", Count(result.write_us.size(), "writes"));
  outcome.Add("live.pushes_failed", static_cast<double>(result.pushes_failed),
              "count", Count(result.write_us.size(), "writes"));
}

}  // namespace webcc::benchmark
