#include "http/eviction/policy.h"

#include "util/check.h"

namespace webcc::http::eviction {

std::string_view ToString(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::kExpiredFirstLru:
      return "expired-first";
    case EvictionPolicyKind::kGds:
      return "gds";
  }
  WEBCC_CHECK_MSG(false, "unknown EvictionPolicyKind");
  return "";
}

bool ParseEvictionPolicyKind(std::string_view name, EvictionPolicyKind& out) {
  if (name == "lru") {
    out = EvictionPolicyKind::kLru;
  } else if (name == "expired-first") {
    out = EvictionPolicyKind::kExpiredFirstLru;
  } else if (name == "gds") {
    out = EvictionPolicyKind::kGds;
  } else {
    return false;
  }
  return true;
}

std::string_view ValidEvictionPolicyNames() { return "lru, expired-first, gds"; }

}  // namespace webcc::http::eviction
