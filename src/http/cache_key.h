// Composite cache-key construction for the string-facing callers that
// name a per-client cached copy by one string (the live proxy and tests).
// The cache itself keys on the (site, doc) id pair; its string entry points
// split the key back into its two names.
//
// Keys were historically built as `url + "@" + owner`, which collides as
// soon as either part contains '@' — and live client ids are "name@port"
// by construction. The length prefix makes the encoding injective: two
// (url, owner) pairs map to the same key iff they are equal, regardless of
// the bytes either contains.
#pragma once

#include <charconv>
#include <string>
#include <string_view>

namespace webcc::http {

// Returns the canonical cache key for `owner`'s copy of `url`.
inline std::string ComposeCacheKey(std::string_view url,
                                   std::string_view owner) {
  std::string key;
  key.reserve(url.size() + owner.size() + 24);
  key.append(std::to_string(url.size()));
  key.push_back(':');
  key.append(url);
  key.push_back('@');
  key.append(owner);
  return key;
}

// Splits a ComposeCacheKey key back into (url, owner). Returns false for
// any string ComposeCacheKey cannot produce.
inline bool SplitCacheKey(std::string_view key, std::string_view& url,
                          std::string_view& owner) {
  std::size_t length = 0;
  const char* const end = key.data() + key.size();
  const auto [ptr, ec] = std::from_chars(key.data(), end, length);
  if (ec != std::errc() || ptr == end || *ptr != ':') return false;
  const auto url_start = static_cast<std::size_t>(ptr - key.data()) + 1;
  if (length >= key.size() - url_start || key[url_start + length] != '@') {
    return false;
  }
  url = key.substr(url_start, length);
  owner = key.substr(url_start + length + 1);
  return true;
}

}  // namespace webcc::http
