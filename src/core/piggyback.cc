#include "core/piggyback.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace webcc::core {

std::vector<PcvVerdict> ValidatePiggyback(const http::DocumentStore& store,
                                          const std::vector<PcvItem>& items) {
  std::vector<PcvVerdict> verdicts;
  verdicts.reserve(items.size());
  for (const PcvItem& item : items) {
    const http::Document* doc = store.Find(item.doc);
    // Unknown documents (deleted at the origin) are invalid by definition.
    verdicts.push_back(
        {item.doc, item.site,
         doc == nullptr || doc->last_modified > item.last_modified});
  }
  return verdicts;
}

namespace {
// Per-item framing on the wire: a length byte pair plus the timestamp.
constexpr std::uint64_t kPerItemOverheadBytes = 12;
}  // namespace

std::uint64_t PcvRequestExtraBytes(const std::vector<PcvItem>& items,
                                   const IdSpace& ids) {
  std::uint64_t bytes = 0;
  for (const PcvItem& item : items) {
    bytes += ids.DocName(item.doc).size() + kPerItemOverheadBytes;
  }
  return bytes;
}

std::uint64_t PcvReplyExtraBytes(const std::vector<PcvVerdict>& verdicts,
                                 const IdSpace& ids) {
  // The reply lists only the invalid copies (url, owner, separator); valid
  // entries are implied.
  std::uint64_t bytes = 0;
  for (const PcvVerdict& verdict : verdicts) {
    if (verdict.invalid) {
      bytes += ids.DocName(verdict.doc).size() +
               ids.SiteName(verdict.site).size() + 3;
    }
  }
  return bytes;
}

void ModificationLog::Record(Time at, DocId doc) {
  WEBCC_CHECK_MSG(entries_.empty() || at >= entries_.back().first,
                  "modification log must be appended in time order");
  entries_.emplace_back(at, doc);
}

ModificationLog::Window ModificationLog::CollectSince(
    Time since, Time now, std::size_t max_docs) const {
  Window window;
  window.advanced_to = since;
  if (since >= now) return window;

  // First entry with time > since.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), since,
      [](Time value, const auto& entry) { return value < entry.first; });

  std::unordered_set<DocId> seen;
  for (; it != entries_.end() && it->first <= now; ++it) {
    if (seen.count(it->second) != 0) {
      window.advanced_to = it->first;
      continue;
    }
    if (window.docs.size() == max_docs) {
      // Truncated: leave the cursor at the last included modification so the
      // remainder is picked up on the proxy's next contact.
      return window;
    }
    window.docs.push_back(it->second);
    seen.insert(it->second);
    window.advanced_to = it->first;
  }
  window.advanced_to = now;
  return window;
}

std::uint64_t PsiReplyExtraBytes(const std::vector<DocId>& docs,
                                 const IdSpace& ids) {
  std::uint64_t bytes = 0;
  for (const DocId doc : docs) bytes += ids.DocName(doc).size() + 2;
  return bytes;
}

}  // namespace webcc::core
