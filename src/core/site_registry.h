// Durable registry of every client site the server has ever served.
//
// Supports the paper's server-site crash recovery: logging each HTTP request
// to disk would be too expensive, so the accelerator keeps an in-memory set
// of all sites ever seen and appends to a disk list only when a brand-new
// site appears. On recovery, a server-address INVALIDATE goes to every site
// in the list.
//
// The set is a bitmap over site ids (DESIGN.md §16). The registry counts
// its disk writes (the replay charges them to the disk station) and can
// optionally persist to a real file for live mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/id_space.h"

namespace webcc::core {

class SiteRegistry {
 public:
  explicit SiteRegistry(IdSpace& ids) : ids_(&ids) {}

  // Records a site; returns true (and counts one disk write) only when the
  // site was never seen before.
  bool RecordSite(SiteId site);

  bool Contains(SiteId site) const {
    return site < seen_.size() && seen_[site] != 0;
  }

  // Every recorded site, in first-sight order.
  const std::vector<SiteId>& sites() const { return sites_; }
  std::uint64_t disk_writes() const { return disk_writes_; }

  // --- optional real persistence (live mode) ------------------------------
  // One site per line, in name order. Save rewrites the whole file; Load
  // merges (without counting disk writes).
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

 private:
  bool Insert(SiteId site);

  IdSpace* ids_;
  std::vector<char> seen_;  // bitmap by site id
  std::vector<SiteId> sites_;
  std::uint64_t disk_writes_ = 0;
};

}  // namespace webcc::core
