// Live demo: the whole protocol over real TCP sockets on localhost.
//
// Starts an origin server fronted by the accelerator, and two proxy caches
// (imagine two firewall proxies at different organizations), then walks
// through the paper's story end to end: fetch, hit, modify-and-invalidate,
// two-tier registration, and a server crash/recovery drill.
//
// The demo checks itself: it exits 1 when a fetch fails, when a fetch after
// a write returns the pre-write version, or when pushed invalidations do not
// arrive within a few seconds.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "live/live_proxy.h"
#include "live/live_server.h"

using namespace webcc;
using namespace std::chrono_literals;

namespace {

int failures = 0;

// Prints a fetch and checks it saw at least `min_version`, the version of
// the document's last completed write.
void Report(const char* who, const live::LiveProxy::FetchResult& result,
            std::uint64_t min_version) {
  std::printf("  %-8s -> %s (version %llu, %llu bytes)\n", who,
              !result.ok          ? "ERROR"
              : result.local_hit  ? "served from cache, no network"
              : result.validated  ? "validated with server (304)"
                                  : "fetched from server (200)",
              static_cast<unsigned long long>(result.version),
              static_cast<unsigned long long>(result.size_bytes));
  if (!result.ok) {
    std::printf("  FAIL: the fetch failed\n");
    ++failures;
  } else if (result.version < min_version) {
    std::printf(
        "  FAIL: stale version after a completed write (want >= %llu)\n",
        static_cast<unsigned long long>(min_version));
    ++failures;
  }
}

// Pushes arrive asynchronously over TCP: waits (bounded) until `arrived`
// holds, and counts a failure when it never does.
template <typename Predicate>
void WaitFor(const char* what, Predicate arrived) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!arrived()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::printf("  FAIL: %s never arrived\n", what);
      ++failures;
      return;
    }
    std::this_thread::sleep_for(2ms);
  }
}

}  // namespace

int main() {
  // --- bring up the site ----------------------------------------------------
  live::LiveServer::Options server_options;
  server_options.server_name = "www.example.org";
  live::LiveServer server(server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "could not bind the server\n");
    return 1;
  }
  server.AddDocument("/index.html", 21 * 1024);
  server.AddDocument("/paper.ps", 480 * 1024);
  std::printf("origin+accelerator on 127.0.0.1:%u\n", server.port());

  live::LiveProxy::Options proxy_options;
  proxy_options.server_port = server.port();
  live::LiveProxy proxy_a(proxy_options);
  live::LiveProxy proxy_b(proxy_options);
  if (!proxy_a.Start() || !proxy_b.Start()) {
    std::fprintf(stderr, "could not bind a proxy\n");
    return 1;
  }
  std::printf("proxy A on :%u, proxy B on :%u\n\n", proxy_a.port(),
              proxy_b.port());

  // The versions a fetch may return: at least the last completed write's.
  std::uint64_t version = 1;
  const auto invalidations = [&proxy_a, &proxy_b] {
    return proxy_a.invalidations_received() + proxy_b.invalidations_received();
  };

  // --- normal operation -------------------------------------------------------
  std::printf("1) cold fetches register each site with the accelerator\n");
  Report("alice@A", proxy_a.Fetch("alice", "/index.html"), version);
  Report("bob@B", proxy_b.Fetch("bob", "/index.html"), version);

  std::printf("2) repeat views are pure cache hits — zero server traffic\n");
  Report("alice@A", proxy_a.Fetch("alice", "/index.html"), version);
  Report("bob@B", proxy_b.Fetch("bob", "/index.html"), version);

  std::printf("3) the page is edited and checked in: the accelerator pushes "
              "INVALIDATE to both sites\n");
  std::uint64_t before = invalidations();
  std::size_t pushed = server.TouchDocument("/index.html");
  ++version;
  WaitFor("the invalidations",
          [&] { return invalidations() >= before + pushed; });
  std::printf("  accelerator pushed %zu invalidations; cached copies "
              "deleted (A holds %zu entries, B holds %zu)\n",
              pushed, proxy_a.cached_entries(), proxy_b.cached_entries());

  std::printf("4) the next views fetch the new version — no one ever saw "
              "stale data\n");
  Report("alice@A", proxy_a.Fetch("alice", "/index.html"), version);
  Report("bob@B", proxy_b.Fetch("bob", "/index.html"), version);

  std::printf("5) a site that stops viewing stops being notified\n");
  before = invalidations();
  pushed = server.TouchDocument("/index.html");
  ++version;
  WaitFor("the invalidations",
          [&] { return invalidations() >= before + pushed; });
  std::printf("  second edit pushed invalidations only to registered "
              "sites: %llu total pushes so far\n",
              static_cast<unsigned long long>(server.invalidations_pushed()));

  // --- failure drill ------------------------------------------------------------
  std::printf("6) server-site crash: in-memory site lists are lost\n");
  Report("alice@A", proxy_a.Fetch("alice", "/index.html"),
         version);  // re-register
  server.CrashTables();
  // The edit while the tables are gone completes without a push: recovery
  // below is what reaches the sites.
  if (server.TouchDocument("/index.html") != 0) {
    std::printf("  FAIL: a push went out with the site lists gone\n");
    ++failures;
  }
  ++version;
  std::printf("  a modification during the outage pushed nothing "
              "(A still holds %zu entries)\n", proxy_a.cached_entries());

  std::printf("7) recovery: INVSRV to every site the disk registry "
              "remembers\n");
  const auto notices_received = [&proxy_a, &proxy_b] {
    return proxy_a.server_notices_received() +
           proxy_b.server_notices_received();
  };
  const std::uint64_t notices_before = notices_received();
  const std::size_t notices = server.Recover();
  WaitFor("the recovery notices",
          [&] { return notices_received() >= notices_before + notices; });
  std::printf("  %zu recovery notices sent; cached copies are now "
              "questionable and revalidate before use:\n", notices);
  Report("alice@A", proxy_a.Fetch("alice", "/index.html"), version);

  proxy_a.Stop();
  proxy_b.Stop();
  server.Stop();
  if (failures > 0) {
    std::printf("\nFAILED: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("\ndone: strong consistency maintained across normal "
              "operation and a full crash/recovery cycle.\n");
  return 0;
}
