// Piggyback consistency mechanisms: PCV and PSI.
//
// The successor designs to this paper's comparison (Krishnamurthy & Wills):
// instead of dedicated validation or invalidation traffic, freshness
// information rides on messages the proxy and server exchange anyway.
//
//  * PCV (piggyback cache validation): when the proxy contacts the server
//    for a miss, it piggybacks a batch of its TTL-expired cached entries;
//    the server validates them in bulk and the reply marks which are
//    invalid. Saves the If-Modified-Since requests those entries would
//    otherwise cost.
//
//  * PSI (piggyback server invalidation): the server remembers each
//    proxy's last contact time and attaches to every reply the list of
//    documents modified since; the proxy purges those copies. Gives
//    invalidation-like freshness at zero extra messages, with staleness
//    bounded by the proxy's contact frequency rather than by TTL guesses.
//
// Both remain weak-consistency schemes (a fully idle proxy learns nothing),
// which is exactly the regime the replay experiments quantify against the
// paper's three approaches.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/id_space.h"
#include "http/document_store.h"
#include "util/time.h"

namespace webcc::core {

struct PiggybackConfig {
  // PCV: most stale-candidate entries piggybacked on one request.
  std::size_t max_validations_per_request = 50;
  // PSI: most modified-document notices attached to one reply; when the
  // backlog is larger, the contact cursor only advances past what was sent.
  std::size_t max_invalidations_per_reply = 100;
};

// --- PCV ---------------------------------------------------------------------

// One piggybacked validation candidate: a cached copy identified by its
// (doc, site) pair — the real client whose namespaced copy it is — as ids
// in the store's core::IdSpace, with the metadata the server needs to
// validate it. A document the store does not hold is kNoInternId.
struct PcvItem {
  DocId doc = kNoInternId;
  SiteId site = kNoInternId;
  Time last_modified = 0;
};

struct PcvVerdict {
  DocId doc = kNoInternId;
  SiteId site = kNoInternId;
  bool invalid = false;  // document changed since the entry's last_modified
};

// Bulk validation against the document store (the server side of PCV).
// Verdicts come back in item order.
std::vector<PcvVerdict> ValidatePiggyback(const http::DocumentStore& store,
                                          const std::vector<PcvItem>& items);

// Wire-size overhead the piggyback adds to a request / to a reply, from the
// lengths of the names `ids` holds for the items.
std::uint64_t PcvRequestExtraBytes(const std::vector<PcvItem>& items,
                                   const IdSpace& ids);
std::uint64_t PcvReplyExtraBytes(const std::vector<PcvVerdict>& verdicts,
                                 const IdSpace& ids);

// --- PSI ---------------------------------------------------------------------

// Append-only log of document modifications in trace-time order; the server
// side of PSI queries it per proxy contact.
class ModificationLog {
 public:
  // `at` must be >= every previously recorded time.
  void Record(Time at, DocId doc);

  struct Window {
    std::vector<DocId> docs;  // deduplicated, in first-touch order
    Time advanced_to = 0;     // new contact cursor for the proxy
  };

  // Modifications in (since, now], capped at `max_docs` distinct documents.
  // When the cap truncates, advanced_to stops at the last included
  // modification so nothing is skipped on the next contact.
  Window CollectSince(Time since, Time now, std::size_t max_docs) const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<Time, DocId>> entries_;
};

std::uint64_t PsiReplyExtraBytes(const std::vector<DocId>& docs,
                                 const IdSpace& ids);

}  // namespace webcc::core
