#include "http/document_store.h"

namespace webcc::http {

DocumentStore::DocumentStore()
    : owned_ids_(std::make_unique<core::IdSpace>()), ids_(owned_ids_.get()) {}

DocumentStore::DocumentStore(core::IdSpace& ids) : ids_(&ids) {}

bool DocumentStore::Add(std::string_view path, std::uint64_t size_bytes,
                        Time last_modified) {
  const core::DocId id = ids_->docs.Intern(path);
  if (Find(id) != nullptr) return false;
  if (id >= documents_.size()) {
    documents_.resize(id + 1);
    present_.resize(id + 1, 0);
  }
  Document& doc = documents_[id];
  doc.size_bytes = size_bytes;
  doc.last_modified = last_modified;
  present_[id] = 1;
  ++size_;
  total_bytes_ += size_bytes;
  return true;
}

bool DocumentStore::Touch(core::DocId doc, Time now) {
  if (Find(doc) == nullptr) return false;
  Document& document = documents_[doc];
  document.last_modified = now;
  ++document.version;
  return true;
}

}  // namespace webcc::http
