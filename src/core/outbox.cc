#include "core/outbox.h"

#include <algorithm>
#include <utility>

namespace webcc::core {

bool InvalidationOutbox::Add(SiteId site, DocId doc, std::uint64_t write_id,
                             Time queued_at) {
  std::vector<Entry>& entries = pending_[site];
  for (Entry& entry : entries) {
    if (entry.doc == doc) {
      // A retried queue of the same (site, url, write_id) — the sender
      // re-queued after a lost frame — must not record the id twice: each
      // recorded id acks one delivery machine on drain, and a write's
      // machine may only be acked once per site.
      if (std::find(entry.write_ids.begin(), entry.write_ids.end(),
                    write_id) == entry.write_ids.end()) {
        entry.write_ids.push_back(write_id);
      }
      return true;
    }
  }
  entries.push_back({doc, {write_id}, queued_at});
  ++pending_url_count_;
  return false;
}

std::vector<InvalidationOutbox::Batch> InvalidationOutbox::Drain(
    const Interner& site_names, const std::function<bool(SiteId)>& ready) {
  std::vector<SiteId> sites;
  for (const auto& [site, entries] : pending_) {
    if (!ready || ready(site)) sites.push_back(site);
  }
  SortByName(sites, site_names);
  std::vector<Batch> batches;
  batches.reserve(sites.size());
  for (const SiteId site : sites) {
    const auto it = pending_.find(site);
    Batch batch;
    batch.site = site;
    batch.docs.reserve(it->second.size());
    batch.write_ids.reserve(it->second.size());
    batch.oldest_queued = it->second.front().queued_at;
    for (Entry& entry : it->second) {
      batch.docs.push_back(entry.doc);
      batch.write_ids.push_back(std::move(entry.write_ids));
      batch.oldest_queued = std::min(batch.oldest_queued, entry.queued_at);
    }
    pending_url_count_ -= batch.docs.size();
    batches.push_back(std::move(batch));
    pending_.erase(it);
  }
  return batches;
}

}  // namespace webcc::core
