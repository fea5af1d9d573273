#include "core/site_registry.h"

#include <fstream>

namespace webcc::core {

bool SiteRegistry::Insert(SiteId site) {
  if (Contains(site)) return false;
  if (site >= seen_.size()) seen_.resize(site + 1, 0);
  seen_[site] = 1;
  sites_.push_back(site);
  return true;
}

bool SiteRegistry::RecordSite(SiteId site) {
  const bool inserted = Insert(site);
  if (inserted) ++disk_writes_;
  return inserted;
}

bool SiteRegistry::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::vector<SiteId> ordered = sites_;
  SortByName(ordered, ids_->sites);
  for (const SiteId site : ordered) out << ids_->SiteName(site) << '\n';
  return static_cast<bool>(out);
}

bool SiteRegistry::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) Insert(ids_->sites.Intern(line));
  }
  return true;
}

}  // namespace webcc::core
