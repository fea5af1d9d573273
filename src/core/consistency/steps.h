// The protocol's two steps on ids, shared by the replay engine and the live
// (real-TCP) stack.
//
// The proxy step turns a request into a local serve or a GET/IMS carrying
// its PCV candidates, then applies what comes back: PCV verdicts, PSI
// notices, and the 200 or 304 itself. The server step answers one request:
// the accelerator or the plain origin by the protocol's traits, the PCV
// bulk validation, and the PSI window since the proxy's previous contact.
//
// Both steps mutate only the cache or server state they are handed and
// return what happened; the caller moves the messages (simulated network or
// sockets), emits its events and counts its metrics. Documents and sites
// are ids in the caller's core::IdSpace (DESIGN.md §16), so both stacks run
// one copy of the protocol and agree by construction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/consistency/policy.h"
#include "core/id_space.h"
#include "core/piggyback.h"
#include "core/sharded_accelerator.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc::core::consistency {

// --- proxy step --------------------------------------------------------------

struct ProxyRequest {
  // The cached copy to serve locally; nullptr when the server must be
  // contacted, and only then are the fields below meaningful.
  http::CacheEntry* local = nullptr;
  net::DocRequest request;  // GET on a miss, IMS to validate a cached copy
  // The IMS exists only because a lease lapsed (Section 6 renewal traffic).
  bool lease_renewal = false;
  // PCV: TTL-expired copies to piggyback. Their expiry records are
  // consumed; ApplyPiggyback erases or re-arms each one.
  std::vector<PcvItem> pcv_items;
};

// `site` requests `doc` at protocol time `now`: looks the copy up (an LRU
// promotion), asks the policy whether to serve it, and otherwise builds
// the request with the protocol's PCV candidates.
ProxyRequest BeginRequest(const ConsistencyPolicy& policy,
                          const PiggybackConfig& piggyback,
                          http::ProxyCache& cache, SiteId site, DocId doc,
                          Time now);

struct PiggybackApplied {
  std::uint64_t pcv_invalidated = 0;  // copies dropped on an invalid verdict
  std::uint64_t psi_erased = 0;       // copies purged by PSI notices
};

// Applies a reply's piggybacked freshness information. Runs before the
// reply itself, so a just-fetched body is inserted after any purge of its
// URL. Copies evicted while the request was out are skipped.
PiggybackApplied ApplyPiggyback(const ConsistencyPolicy& policy,
                                http::ProxyCache& cache,
                                const std::vector<PcvVerdict>& verdicts,
                                const std::vector<DocId>& psi_docs, Time now);

// Applies a 200 (inserts `owner`'s new copy) or a 304 (refreshes the cached
// copy's consistency state). Returns the refreshed copy for a 304; nullptr
// for a 200, or when the copy was evicted while the request was out.
http::CacheEntry* ApplyReply(const ConsistencyPolicy& policy,
                             http::ProxyCache& cache,
                             const net::DocReply& reply, SiteId owner,
                             Time now);

// --- server step -------------------------------------------------------------

struct ServerAnswer {
  net::DocReply reply;
  std::vector<PcvVerdict> verdicts;  // PCV: one per item, in item order
  std::vector<DocId> psi_docs;       // PSI: modified since the last contact
};

// Answers `request` at protocol time `now`: through the accelerator (site
// registration, lease grant) when the protocol has invalidation callbacks,
// else from the plain origin. Validates the PCV items against `docs`, and
// attaches the PSI window since `psi_cursor`, advancing it. std::nullopt
// for a document `docs` does not hold, before the requester is registered.
std::optional<ServerAnswer> ServeRequest(
    const ConsistencyPolicy& policy, const PiggybackConfig& piggyback,
    const http::DocumentStore& docs, ShardedAccelerator& accel,
    const ModificationLog& mod_log, const net::DocRequest& request,
    const std::vector<PcvItem>& pcv_items, Time& psi_cursor, Time now);

}  // namespace webcc::core::consistency
