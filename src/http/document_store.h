// Versioned document store: the origin server's "file system".
//
// Each document carries a last-modified time and a monotone version number.
// The version is the replay harness's ground truth for staleness accounting
// (the paper could only estimate stale hits; we count them exactly), while
// last-modified is what the protocol itself sees, as in real HTTP.
//
// Documents are indexed by their id in a core::IdSpace (DESIGN.md §16):
// the replay's trace-seeded one, or the store's own.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/id_space.h"
#include "util/time.h"

namespace webcc::http {

// A document's path is its name in the store's id space.
struct Document {
  std::uint64_t size_bytes = 0;
  Time last_modified = 0;
  std::uint64_t version = 1;
};

class DocumentStore {
 public:
  DocumentStore();  // with an id space of its own
  explicit DocumentStore(core::IdSpace& ids);

  // Adds a document; `last_modified` may be negative (the file predates the
  // trace). Returns false if the path already exists.
  bool Add(std::string_view path, std::uint64_t size_bytes,
           Time last_modified);

  // nullptr when absent.
  const Document* Find(core::DocId doc) const {
    return doc < present_.size() && present_[doc] ? &documents_[doc]
                                                  : nullptr;
  }

  // Simulates a write: bumps the version and sets last_modified. This is the
  // registration point at which a polling-every-time write is complete.
  // Returns false if the document is unknown.
  bool Touch(core::DocId doc, Time now);
  bool Touch(std::string_view path, Time now) {
    return Touch(ids_->docs.Find(path), now);
  }

  std::size_t size() const { return size_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

  // Shared with the accelerator built over this store, which names its
  // sites there too.
  core::IdSpace& ids() const { return *ids_; }

 private:
  std::unique_ptr<core::IdSpace> owned_ids_;
  core::IdSpace* ids_;
  // Indexed by doc id. Deque keeps Document addresses stable across Add
  // (protocol handlers hold Find() results across cost-station callbacks).
  // An id the space gave a non-document name leaves a hole.
  std::deque<Document> documents_;
  std::vector<char> present_;
  std::size_t size_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace webcc::http
