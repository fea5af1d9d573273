// Test support: an InvalidationTable over an id space of its own, driven by
// name. The table keys on doc and site ids; the table tests name documents
// and sites, so this resolves the names and reads taken sites back by name.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/id_space.h"
#include "core/invalidation_table.h"

namespace webcc::core {

struct OwnedIdSpace {
  IdSpace ids;
};

class NamedTable : private OwnedIdSpace, public InvalidationTable {
 public:
  explicit NamedTable(LeaseConfig lease) : InvalidationTable(lease, ids) {}

  using InvalidationTable::ListLength;
  using InvalidationTable::Register;

  Time Register(std::string_view url, std::string_view site,
                net::MessageType request_type, Time now) {
    return Register(ids.docs.Intern(url), ids.sites.Intern(site),
                    request_type, now);
  }

  // TakeSitesWithLeases' sites, by name (so in name order).
  std::vector<std::string> TakeSitesForInvalidation(std::string_view url,
                                                    Time now) {
    std::vector<std::string> names;
    const DocId doc = ids.docs.Find(url);
    if (doc == kNoInternId) return names;
    for (const TakenSite& taken : TakeSitesWithLeases(doc, now)) {
      names.push_back(ids.SiteName(taken.site));
    }
    return names;
  }

  std::size_t ListLength(std::string_view url, Time now) const {
    return ListLength(ids.docs.Find(url), now);
  }
};

}  // namespace webcc::core
