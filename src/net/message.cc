#include "net/message.h"

namespace webcc::net {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kGet:
      return "GET";
    case MessageType::kIfModifiedSince:
      return "IMS";
    case MessageType::kReply200:
      return "200";
    case MessageType::kReply304:
      return "304";
    case MessageType::kInvalidateUrl:
      return "INV";
    case MessageType::kInvalidateServer:
      return "INVSRV";
    case MessageType::kNotify:
      return "NOTIFY";
  }
  return "?";
}

Reply ToWire(const DocReply& reply, const core::IdSpace& ids) {
  Reply out;
  out.type = reply.type;
  out.url = ids.DocName(reply.doc);
  out.body_bytes = reply.body_bytes;
  out.last_modified = reply.last_modified;
  out.version = reply.version;
  out.lease_until = reply.lease_until;
  return out;
}

Invalidation ToWire(const DocInvalidation& invalidation,
                    const core::IdSpace& ids) {
  Invalidation out;
  out.type = invalidation.type;
  if (invalidation.doc != core::kNoInternId) {
    out.url = ids.DocName(invalidation.doc);
  }
  out.server = std::string(invalidation.server);
  out.client_id = ids.SiteName(invalidation.site);
  return out;
}

std::uint64_t WireSize(const DocRequest& request, const core::IdSpace& ids) {
  return kControlHeaderBytes + ids.DocName(request.doc).size() +
         ids.SiteName(request.site).size();
}

std::uint64_t WireSize(const DocReply& reply, const core::IdSpace& ids) {
  return kControlHeaderBytes + ids.DocName(reply.doc).size() +
         reply.body_bytes;
}

std::uint64_t WireSize(const DocInvalidation& invalidation,
                       const core::IdSpace& ids) {
  const std::uint64_t url_bytes =
      invalidation.doc == core::kNoInternId
          ? 0
          : ids.DocName(invalidation.doc).size();
  return kControlHeaderBytes + url_bytes + invalidation.server.size() +
         ids.SiteName(invalidation.site).size();
}

std::uint64_t BatchWireSize(core::SiteId site,
                            const std::vector<core::DocId>& docs,
                            const core::IdSpace& ids) {
  // One header amortized over the whole URL list — the point of batching.
  std::uint64_t bytes = kControlHeaderBytes + ids.SiteName(site).size();
  for (const core::DocId doc : docs) bytes += ids.DocName(doc).size();
  return bytes;
}

}  // namespace webcc::net
