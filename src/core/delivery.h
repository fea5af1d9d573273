// Delivery-state machine for one write's invalidation fan-out.
//
// The paper's write-completion rule (Sections 4 and 6): a write is complete
// only when every site that might hold the old copy has either acknowledged
// its INVALIDATE or stopped mattering — its lease expired (Section 6's
// bound on how long a partition can block a write) or it is known dead
// (connection refused / retry budget exhausted; safe because a recovering
// proxy re-enters with every entry marked unverified).
//
// WriteDelivery tracks those targets for one modification. It is pure
// bookkeeping — no I/O, no clocks of its own — so the replay engine and the
// live stack drive the identical machine from their own event loops, and
// the fault harness can assert on it directly. Targets are site ids in the
// run's core::IdSpace, kept in a vector sorted by site id so iteration is
// deterministic and a target costs no heap node of its own.
#pragma once

#include <vector>

#include "core/id_space.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc::core {

class WriteDelivery {
 public:
  enum class Completion {
    kPending,        // targets still outstanding
    kAllAcked,       // every target acknowledged
    kLeasesExpired,  // >=1 straggler resolved by lease expiry or death
    kNoTargets,      // nobody cached the document
  };

  // Registers one site the INVALIDATE must reach. `lease_until` is the
  // expiry the accelerator granted that site (net::kNoLease = the write
  // waits for this ack forever, the leaseless Section 4 behaviour).
  // Re-adding an existing unresolved site keeps the later expiry.
  void AddTarget(SiteId site, Time lease_until);

  // Sizes the target list for `targets` AddTarget calls up front.
  void Reserve(std::size_t targets) { targets_.reserve(targets); }

  // The site acknowledged its invalidation. Idempotent; unknown sites are
  // ignored (a duplicated datagram may ack twice). Returns true when this
  // call resolved the whole delivery.
  bool Ack(SiteId site);

  // The site will never acknowledge (connection refused, retry budget
  // exhausted). Consistency is preserved by the proxy-recovery rule, so the
  // write need not block on it. Returns true when this resolved delivery.
  bool MarkDead(SiteId site);

  // Resolves every target whose lease has lapsed at `now` (half-open: a
  // lease is active while now < lease_until). Returns true when this call
  // resolved the whole delivery — the Section 6 guarantee that a write
  // blocks at most one lease duration.
  bool ExpireLeases(Time now);

  bool complete() const { return outstanding_ == 0; }
  int outstanding() const { return outstanding_; }
  int total_targets() const { return static_cast<int>(targets_.size()); }

  // Meaningful once complete(); kPending before that.
  Completion completion() const;

  // Earliest lease expiry among unresolved targets; net::kNoLease when none
  // expires. The engine uses it to know a sweep cannot matter yet.
  Time NextExpiry() const;

 private:
  struct Target {
    Time lease_until = net::kNoLease;
    SiteId site = kNoInternId;
    bool resolved = false;
  };

  // The target for `site`, or where it would be inserted.
  std::vector<Target>::iterator LowerBound(SiteId site);
  bool Resolve(SiteId site, bool by_expiry);

  std::vector<Target> targets_;  // sorted by site
  int outstanding_ = 0;
  bool any_expired_ = false;
};

}  // namespace webcc::core
