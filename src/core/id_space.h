// One id space for a run: dense ids for document and site names, shared by
// every layer (DESIGN.md §16). Header-only so the layers below core (net,
// http, obs, trace) use the same ids and the same interner. Not
// thread-safe: an IdSpace belongs to one replay engine, or to one live
// server/proxy under its lock.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace webcc::core {

// Dense id for a name in one namespace. 32 bits bounds a run at ~4e9
// distinct names, far above any trace.
using InternId = std::uint32_t;
inline constexpr InternId kNoInternId = 0xffffffffu;

using DocId = InternId;   // == trace::DocId for a trace-seeded space
using SiteId = InternId;  // == trace::ClientId for a trace-seeded space

// One namespace: names <-> dense ids, assigned in first-sight order and
// never recycled. The program's only name -> dense-id map (DESIGN.md §16):
// the id space, the JSONL trace sink, the CLF parser and the trace
// validator all intern through it.
//
// The index is open addressing over 8-byte (hash, id) buckets: power-of-two
// size, load <= 1/2, linear probing from the high bits of the
// Fibonacci-mixed hash. A bucket is empty when its id is kNoInternId, never
// by its hash (0 is a hash like any other). Growth rehashes from the stored
// hashes without touching a name, and the names live in a deque, so a
// short name costs no allocation of its own and NameOf references survive
// growth.
class Interner {
 public:
  // Returns the id for `s`, interning it on first sight.
  InternId Intern(std::string_view s) {
    if ((names_.size() + 1) * 2 > buckets_.size()) Grow();
    const std::uint32_t hash = Hash(s);
    Bucket& bucket = buckets_[Probe(s, hash)];
    if (bucket.id == kNoInternId) {
      names_.emplace_back(s);
      bucket = Bucket{hash, static_cast<InternId>(names_.size() - 1)};
    }
    return bucket.id;
  }

  // Returns the id for `s` without interning, or kNoInternId when absent.
  // Lookups of never-seen names (cache misses) must not grow the table.
  InternId Find(std::string_view s) const {
    if (buckets_.empty()) return kNoInternId;
    return buckets_[Probe(s, Hash(s))].id;
  }

  const std::string& NameOf(InternId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  struct Bucket {
    std::uint32_t hash = 0;
    InternId id = kNoInternId;
  };

  static std::uint32_t Hash(std::string_view s) {
    const std::uint64_t h = std::hash<std::string_view>{}(s);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  // The bucket a hash probes from: the top log2(size) bits of hash * 2^32/φ.
  std::size_t Home(std::uint32_t hash) const {
    return static_cast<std::uint32_t>(hash * 0x9e3779b9u) >> shift_;
  }

  // The bucket holding `s`, or the empty bucket ending its probe run.
  std::size_t Probe(std::string_view s, std::uint32_t hash) const {
    std::size_t i = Home(hash);
    while (buckets_[i].id != kNoInternId &&
           (buckets_[i].hash != hash || names_[buckets_[i].id] != s)) {
      i = (i + 1) & (buckets_.size() - 1);
    }
    return i;
  }

  // Doubles the bucket array (16 buckets at first) and reinserts every id
  // from its stored hash.
  void Grow() {
    const std::size_t size = buckets_.empty() ? 16 : buckets_.size() * 2;
    shift_ = 32 - std::countr_zero(size);
    const std::vector<Bucket> old =
        std::exchange(buckets_, std::vector<Bucket>(size));
    for (const Bucket& bucket : old) {
      if (bucket.id == kNoInternId) continue;
      std::size_t i = Home(bucket.hash);
      while (buckets_[i].id != kNoInternId) i = (i + 1) & (size - 1);
      buckets_[i] = bucket;
    }
  }

  std::deque<std::string> names_;
  std::vector<Bucket> buckets_;
  int shift_ = 32;  // 32 - log2(buckets_.size())
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
