// One id space for a run: dense ids for document and site names, shared by
// every layer (DESIGN.md §16). Header-only so net and http, below core, key
// on the same ids. Not thread-safe: an IdSpace belongs to one replay
// engine, or to one live server/proxy under its lock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace webcc::core {

// Dense id for a name in one namespace. 32 bits bounds a run at ~4e9
// distinct names, far above any trace.
using InternId = std::uint32_t;
inline constexpr InternId kNoInternId = 0xffffffffu;

using DocId = InternId;   // == trace::DocId for a trace-seeded space
using SiteId = InternId;  // == trace::ClientId for a trace-seeded space

// One namespace: names <-> dense ids, assigned in first-sight order and
// never recycled.
class Interner {
 public:
  // Returns the id for `s`, interning it on first sight.
  InternId Intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    names_.emplace_back(s);  // deque: addresses stable across growth
    const InternId id = static_cast<InternId>(names_.size() - 1);
    index_.emplace(names_.back(), id);
    return id;
  }

  // Returns the id for `s` without interning, or kNoInternId when absent.
  // Lookups of never-seen names (cache misses) must not grow the table.
  InternId Find(std::string_view s) const {
    const auto it = index_.find(s);
    return it == index_.end() ? kNoInternId : it->second;
  }

  const std::string& NameOf(InternId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  // Keys are views into names_; the deque never moves a stored string, so
  // the views survive both index rehash and deque growth.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, InternId> index_;
};

// The two namespaces of a run; doc 3 and site 3 are unrelated names.
struct IdSpace {
  Interner docs;
  Interner sites;

  const std::string& DocName(DocId doc) const { return docs.NameOf(doc); }
  const std::string& SiteName(SiteId site) const {
    return sites.NameOf(site);
  }
};

// Sorts ids by their names. Every list a layer publishes is in name order,
// which first-sight id order is not ("10.0.0.10" < "10.0.0.9").
inline void SortByName(std::vector<InternId>& ids, const Interner& names) {
  std::sort(ids.begin(), ids.end(), [&names](InternId a, InternId b) {
    return names.NameOf(a) < names.NameOf(b);
  });
}

// A proxy cache entry's identity: the (site, doc) pair as one integer.
inline std::uint64_t PackSiteDoc(SiteId site, DocId doc) {
  return (static_cast<std::uint64_t>(site) << 32) | doc;
}

}  // namespace webcc::core
