// Typed inputs and outputs of the consistency kernel.
//
// The kernel is pure: a policy looks at an EntryMeta snapshot (the
// consistency-relevant fields of a cached copy) or a ReplyMeta (the
// consistency-relevant fields of a server reply) and returns a Decision
// value. It never mutates a cache, sends a message, or reads a clock — the
// protocol steps (core/consistency/steps.h), which the replay engine and
// the live stack both run, execute the returned decisions, so the simulated
// and deployed protocols are the same code by construction
// (tests/test_differential.cc asserts this end to end).
#pragma once

#include <limits>

#include "net/message.h"
#include "util/time.h"

namespace webcc::core::consistency {

// Sentinel expiry meaning "never expires"; bit-identical to
// http::kNeverExpires (checked by a static_assert in policy.cc) so entry
// fields can be copied through EntryMeta without translation.
inline constexpr Time kNeverExpires = std::numeric_limits<Time>::max();

// Snapshot of a cached copy's consistency state. Mirrors the protocol
// fields of http::CacheEntry without depending on the cache itself.
struct EntryMeta {
  Time last_modified = 0;
  Time fetched_at = 0;
  Time ttl_expires = kNeverExpires;
  Time lease_expires = kNeverExpires;
  // Set by server-address invalidations and proxy recovery: the copy must
  // revalidate before it may be served.
  bool questionable = false;
};

// The consistency-relevant fields of a 200/304 reply.
struct ReplyMeta {
  Time last_modified = 0;
  // Absolute lease expiry granted with the reply, or net::kNoLease.
  Time lease_until = net::kNoLease;
};

// --- client-side decisions ---------------------------------------------------

// What to do when a request finds a cached copy.
enum class HitAction {
  kServeLocal,  // serve the copy without contacting the server
  kValidate,    // send If-Modified-Since before serving
};

struct HitDecision {
  HitAction action = HitAction::kValidate;
  // The validation exists only because a lease lapsed (the Section 6
  // renewal traffic the two-tier scheme is designed to bound).
  bool lease_renewal = false;
};

// Consistency state for a freshly transferred copy (a 200 reply).
struct InsertDecision {
  Time ttl_expires = kNeverExpires;
  Time lease_expires = kNeverExpires;
};

// Mutations to apply to an existing copy certified fresh by a 304.
struct ValidateDecision {
  // The 304 always clears the questionable flag; kept explicit so the
  // decision record is self-describing.
  bool clear_questionable = true;
  bool set_ttl = false;
  Time ttl_expires = kNeverExpires;
  bool set_lease = false;
  Time lease_expires = kNeverExpires;
};

// --- server-side decisions ---------------------------------------------------

// What the server owes when a document modification is detected.
struct WriteDecision {
  // Fan INVALIDATE messages out to the registered sites (and only then
  // consider the write complete — the strong-consistency contract).
  bool fan_out_invalidations = false;
};

// Static capabilities of a protocol: which optional machinery each side of
// the connection runs. Both stacks consult the same traits, so enabling a
// protocol enables the same code paths in simulation and deployment.
struct Traits {
  // Server registers requesting sites, grants leases, and pushes
  // INVALIDATEs on write (the paper's invalidation protocol); a proxy-side
  // stale serve after write completion is a strong-consistency violation.
  bool invalidation_callbacks = false;
  // Proxy piggybacks its TTL-expired entries on server contacts for bulk
  // validation (PCV).
  bool piggyback_validation = false;
  // Server attaches the list of documents modified since the proxy's last
  // contact to every reply (PSI).
  bool piggyback_invalidation = false;
  // Local serves are governed by the adaptive TTL (Alex) clock.
  bool ttl_based = false;
};

}  // namespace webcc::core::consistency
