// Protocol message model.
//
// The protocol is the paper's: HTTP GET and If-Modified-Since requests,
// 200/304 replies, the check-in NOTIFY from the modification detector, and
// the INVALIDATE message type the paper adds to HTTP — carrying either a URL
// (delete that document) or a server address (mark every document from that
// server questionable, used on server-site recovery).
//
// Replies optionally carry a lease expiry for the Section 6 lease-augmented
// schemes; `kNoLease` denotes the unbounded lease of plain invalidation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/id_space.h"
#include "util/time.h"

namespace webcc::net {

enum class MessageType : std::uint8_t {
  kGet,
  kIfModifiedSince,
  kReply200,
  kReply304,
  kInvalidateUrl,
  kInvalidateServer,
  kNotify,
};

// Absolute lease expiry value meaning "never expires".
inline constexpr Time kNoLease = -1;

const char* MessageTypeName(MessageType type);

// PCV: one piggybacked validation candidate — a cached copy the proxy asks
// the server to bulk-validate while it is contacted anyway. Identified by
// (url, owner); proxy-local cache keys never cross the wire.
struct PcvQuery {
  std::string url;
  std::string owner;
  Time last_modified = 0;
};

// PCV reply: an invalid copy the proxy must drop. Valid candidates are
// implied (the proxy knows what it piggybacked) and are not echoed back.
struct PcvStale {
  std::string url;
  std::string owner;
};

struct Request {
  MessageType type = MessageType::kGet;  // kGet or kIfModifiedSince
  std::string url;
  // Identifier of the *real* client (the paper forwards it with each request
  // so the accelerator can register per-client cache sites).
  std::string client_id;
  // If-Modified-Since timestamp; ignored for kGet.
  Time if_modified_since = 0;
  // PCV piggyback batch; empty for every other protocol.
  std::vector<PcvQuery> pcv_queries;
};

struct Reply {
  MessageType type = MessageType::kReply200;  // kReply200 or kReply304
  std::string url;
  // Unscaled document size; 0 for 304s.
  std::uint64_t body_bytes = 0;
  Time last_modified = 0;
  // Monotone per-document version, used by the replay harness for exact
  // stale-serve accounting (not part of the paper's wire format).
  std::uint64_t version = 0;
  // Absolute expiry of the lease granted with this reply, or kNoLease.
  Time lease_until = kNoLease;
  // PCV: piggybacked candidates found invalid (subset of the request's
  // pcv_queries). Empty for every other protocol.
  std::vector<PcvStale> pcv_invalid;
  // PSI: documents modified since this proxy's previous server contact.
  std::vector<std::string> psi_modified;
};

struct Invalidation {
  MessageType type = MessageType::kInvalidateUrl;
  // kInvalidateUrl: the document to drop. kInvalidateServer: empty.
  std::string url;
  // kInvalidateServer: the origin whose documents become questionable.
  std::string server;
  // The real client whose cache entry is addressed.
  std::string client_id;
};

// Batched invalidation: one wire frame carrying every URL the sender has
// pending for one site. Produced by the sharded accelerator's outbox drain
// (INVB on the wire); semantically equivalent to one kInvalidateUrl
// Invalidation per listed URL, delivered and acked as a unit. The header
// cost is charged once per frame instead of once per URL — the batching
// win measured by bench_ablation_decoupled.
struct BatchInvalidation {
  // The real client whose cache entries are addressed.
  std::string client_id;
  std::vector<std::string> urls;  // at least one
};

// Check-in notification from the modification detector to the accelerator.
struct Notify {
  std::string url;
};

// --- id-typed messages ------------------------------------------------------
// The protocol's traffic inside both stacks: the messages above with the
// document and site named by ids in a core::IdSpace (DESIGN.md §16). The
// live stack turns them into the string forms only at its sockets.

struct DocRequest {
  MessageType type = MessageType::kGet;  // kGet or kIfModifiedSince
  core::DocId doc = core::kNoInternId;
  core::SiteId site = core::kNoInternId;  // the requesting real client
  Time if_modified_since = 0;             // ignored for kGet
};

struct DocReply {
  MessageType type = MessageType::kReply200;  // kReply200 or kReply304
  core::DocId doc = core::kNoInternId;
  std::uint64_t body_bytes = 0;  // unscaled; 0 for 304s
  Time last_modified = 0;
  std::uint64_t version = 0;
  Time lease_until = kNoLease;
};

struct DocInvalidation {
  MessageType type = MessageType::kInvalidateUrl;
  core::DocId doc = core::kNoInternId;  // kNoInternId for kInvalidateServer
  core::SiteId site = core::kNoInternId;
  // kInvalidateServer: a view of the accelerator's server name.
  std::string_view server;
  // Bookkeeping carried alongside (not on the wire; WireSize ignores both):
  // the lease expiry the target holds — the write may complete without this
  // site's ack once the lease lapses (Section 6) — and whether this
  // invalidation belongs to crash recovery rather than a live write.
  Time lease_until = kNoLease;
  bool recovery = false;
};

// The string form of an id-typed reply or invalidation.
Reply ToWire(const DocReply& reply, const core::IdSpace& ids);
Invalidation ToWire(const DocInvalidation& invalidation,
                    const core::IdSpace& ids);

// --- wire-size accounting --------------------------------------------------
// Sizes used for the byte columns of Tables 3/4: a typical HTTP header
// footprint plus variable parts, with 200 replies adding their body.
// Piggyback sections are deliberately NOT included here: the replay
// accounts for them via core::Pcv*/PsiReplyExtraBytes, keeping the paper's
// byte columns stable.

inline constexpr std::uint64_t kControlHeaderBytes = 180;

// The variable parts are the message's names, measured in `ids`.
std::uint64_t WireSize(const DocRequest& request, const core::IdSpace& ids);
std::uint64_t WireSize(const DocReply& reply, const core::IdSpace& ids);
std::uint64_t WireSize(const DocInvalidation& invalidation,
                       const core::IdSpace& ids);
// An INVB frame to `site` carrying `docs` (BatchInvalidation's size).
std::uint64_t BatchWireSize(core::SiteId site,
                            const std::vector<core::DocId>& docs,
                            const core::IdSpace& ids);

}  // namespace webcc::net
