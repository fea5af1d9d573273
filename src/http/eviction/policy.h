// The replacement-policy selector and the names the proxy cache's eviction
// state shares: the entry key and the "never expires" sentinel. Victim
// choice itself is ProxyCache::PickVictim's (see proxy_cache.h).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "util/time.h"

namespace webcc::http {

// Sentinel expiry for "never expires" (strong-consistency entries).
inline constexpr Time kNeverExpires = std::numeric_limits<Time>::max();

namespace eviction {

enum class EvictionPolicyKind { kLru, kExpiredFirstLru, kGds };

// An entry's identity: core::PackSiteDoc(site, doc).
using EntryKey = std::uint64_t;
inline constexpr EntryKey kNoEntryKey = ~EntryKey{0};

// Stable spellings for flags and metrics: "lru", "expired-first", "gds".
std::string_view ToString(EvictionPolicyKind kind);
// Parses a ToString spelling. Returns false (leaving `out` untouched) for
// anything else; callers list ValidEvictionPolicyNames() in their error.
bool ParseEvictionPolicyKind(std::string_view name, EvictionPolicyKind& out);
std::string_view ValidEvictionPolicyNames();

}  // namespace eviction
}  // namespace webcc::http
