// Test support: ProxyCache entries by http::ComposeCacheKey key. The cache
// keys on (site, doc) ids and its one by-key entry point is the promoting
// Lookup; these resolve a key's two names in the cache's id space for the
// non-promoting Peek and for Erase. A name the cache never saw finds
// nothing.
#pragma once

#include <string_view>

#include "core/id_space.h"
#include "http/cache_key.h"
#include "http/proxy_cache.h"

namespace webcc::http {

inline CacheEntry* PeekKey(ProxyCache& cache, std::string_view key) {
  std::string_view url;
  std::string_view owner;
  if (!SplitCacheKey(key, url, owner)) return nullptr;
  return cache.Peek(cache.ids().sites.Find(owner), cache.ids().docs.Find(url));
}

inline bool EraseKey(ProxyCache& cache, std::string_view key) {
  std::string_view url;
  std::string_view owner;
  if (!SplitCacheKey(key, url, owner)) return false;
  return cache.Erase(cache.ids().sites.Find(owner),
                     cache.ids().docs.Find(url));
}

}  // namespace webcc::http
