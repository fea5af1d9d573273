#include "core/delivery.h"

#include <algorithm>

#include "core/lease.h"

namespace webcc::core {

std::vector<WriteDelivery::Target>::iterator WriteDelivery::LowerBound(
    SiteId site) {
  return std::lower_bound(
      targets_.begin(), targets_.end(), site,
      [](const Target& target, SiteId id) { return target.site < id; });
}

void WriteDelivery::AddTarget(SiteId site, Time lease_until) {
  const auto it = LowerBound(site);
  if (it == targets_.end() || it->site != site) {
    targets_.insert(it, Target{lease_until, site, false});
    ++outstanding_;
    return;
  }
  if (it->resolved) return;  // already settled; nothing to extend
  // Keep the later expiry: the site re-registered with a fresher lease.
  if (it->lease_until != net::kNoLease &&
      (lease_until == net::kNoLease || lease_until > it->lease_until)) {
    it->lease_until = lease_until;
  }
}

bool WriteDelivery::Resolve(SiteId site, bool by_expiry) {
  const auto it = LowerBound(site);
  if (it == targets_.end() || it->site != site || it->resolved) return false;
  it->resolved = true;
  if (by_expiry) any_expired_ = true;
  --outstanding_;
  return outstanding_ == 0;
}

bool WriteDelivery::Ack(SiteId site) {
  return Resolve(site, /*by_expiry=*/false);
}

bool WriteDelivery::MarkDead(SiteId site) {
  return Resolve(site, /*by_expiry=*/true);
}

bool WriteDelivery::ExpireLeases(Time now) {
  bool resolved_all = false;
  for (Target& target : targets_) {
    if (target.resolved) continue;
    if (!LeaseActive(target.lease_until, now)) {
      target.resolved = true;
      any_expired_ = true;
      --outstanding_;
      if (outstanding_ == 0) resolved_all = true;
    }
  }
  return resolved_all;
}

WriteDelivery::Completion WriteDelivery::completion() const {
  if (outstanding_ != 0) return Completion::kPending;
  if (targets_.empty()) return Completion::kNoTargets;
  return any_expired_ ? Completion::kLeasesExpired : Completion::kAllAcked;
}

Time WriteDelivery::NextExpiry() const {
  Time next = net::kNoLease;
  for (const Target& target : targets_) {
    if (target.resolved || target.lease_until == net::kNoLease) continue;
    if (next == net::kNoLease || target.lease_until < next) {
      next = target.lease_until;
    }
  }
  return next;
}

}  // namespace webcc::core
