#include "http/origin.h"

#include "util/check.h"

namespace webcc::http {

std::optional<net::DocReply> OriginServer::Handle(
    const net::DocRequest& request, Time now) const {
  (void)now;
  const Document* doc = store_->Find(request.doc);
  if (doc == nullptr) return std::nullopt;

  net::DocReply reply;
  reply.doc = request.doc;
  reply.last_modified = doc->last_modified;
  reply.version = doc->version;

  const bool modified_since =
      request.type == net::MessageType::kIfModifiedSince &&
      doc->last_modified <= request.if_modified_since;
  if (modified_since) {
    reply.type = net::MessageType::kReply304;
    reply.body_bytes = 0;
  } else {
    reply.type = net::MessageType::kReply200;
    reply.body_bytes = doc->size_bytes;
  }
  return reply;
}

}  // namespace webcc::http
