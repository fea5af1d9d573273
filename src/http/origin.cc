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

std::optional<net::Reply> OriginServer::Handle(const net::Request& request,
                                               Time now) const {
  net::DocRequest by_id;
  by_id.type = request.type;
  by_id.doc = store_->ids().docs.Find(request.url);
  by_id.if_modified_since = request.if_modified_since;
  const std::optional<net::DocReply> reply = Handle(by_id, now);
  if (!reply.has_value()) return std::nullopt;
  return net::ToWire(*reply, store_->ids());
}

}  // namespace webcc::http
