// Unit tests for net/: message model, wire sizes, codec round trips.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/id_space.h"
#include "net/message.h"
#include "net/wire.h"

namespace webcc::net {
namespace {

// --- wire sizes ----------------------------------------------------------------

// The names the wire-size tests measure, in one id space.
struct SizedNames {
  core::IdSpace ids;
  core::DocId doc(std::string_view url) { return ids.docs.Intern(url); }
  core::SiteId site(std::string_view name) { return ids.sites.Intern(name); }
};

TEST(WireSize, ControlMessagesAreHeaderPlusFields) {
  SizedNames names;
  DocRequest request;
  request.doc = names.doc("/a");
  request.site = names.site("c1");
  EXPECT_EQ(WireSize(request, names.ids), kControlHeaderBytes + 4);
}

TEST(WireSize, Reply200IncludesBody) {
  SizedNames names;
  DocReply reply;
  reply.type = MessageType::kReply200;
  reply.doc = names.doc("/a");
  reply.body_bytes = 5000;
  EXPECT_EQ(WireSize(reply, names.ids), kControlHeaderBytes + 2 + 5000);
}

TEST(WireSize, Reply304HasNoBody) {
  SizedNames names;
  DocReply reply;
  reply.type = MessageType::kReply304;
  reply.doc = names.doc("/abc");
  EXPECT_EQ(WireSize(reply, names.ids), kControlHeaderBytes + 4);
}

TEST(WireSize, InvalidationCountsAllIdentifiers) {
  SizedNames names;
  DocInvalidation inv;
  inv.doc = names.doc("/x");
  inv.site = names.site("site");
  EXPECT_EQ(WireSize(inv, names.ids), kControlHeaderBytes + 6);
}

TEST(MessageTypeName, AllNamed) {
  EXPECT_STREQ(MessageTypeName(MessageType::kGet), "GET");
  EXPECT_STREQ(MessageTypeName(MessageType::kIfModifiedSince), "IMS");
  EXPECT_STREQ(MessageTypeName(MessageType::kReply200), "200");
  EXPECT_STREQ(MessageTypeName(MessageType::kReply304), "304");
  EXPECT_STREQ(MessageTypeName(MessageType::kInvalidateUrl), "INV");
  EXPECT_STREQ(MessageTypeName(MessageType::kInvalidateServer), "INVSRV");
  EXPECT_STREQ(MessageTypeName(MessageType::kNotify), "NOTIFY");
}

// --- escaping ---------------------------------------------------------------------

TEST(Escape, PassesPlainThrough) {
  EXPECT_EQ(EscapeField("/docs/a.html"), "/docs/a.html");
}

TEST(Escape, EscapesSpacesAndPercent) {
  EXPECT_EQ(EscapeField("a b%c"), "a%20b%25c");
}

TEST(Escape, EscapesControlBytes) {
  EXPECT_EQ(EscapeField("a\nb"), "a%0Ab");
}

TEST(Escape, RoundTripsArbitraryBytes) {
  std::string raw;
  for (int c = 0; c < 256; ++c) raw += static_cast<char>(c);
  const auto back = UnescapeField(EscapeField(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
}

TEST(Escape, RejectsTruncatedEscape) {
  EXPECT_FALSE(UnescapeField("abc%2").has_value());
  EXPECT_FALSE(UnescapeField("abc%zz").has_value());
}

// --- codec round trips ---------------------------------------------------------------

TEST(Wire, GetRoundTrip) {
  Request request;
  request.type = MessageType::kGet;
  request.url = "/docs/00001.html";
  request.client_id = "10.0.0.1";
  const auto decoded = DecodeLine(EncodeLine(request));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Request>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type, MessageType::kGet);
  EXPECT_EQ(back->url, request.url);
  EXPECT_EQ(back->client_id, request.client_id);
}

TEST(Wire, ImsRoundTripKeepsTimestamp) {
  Request request;
  request.type = MessageType::kIfModifiedSince;
  request.url = "/a";
  request.client_id = "c";
  request.if_modified_since = -123456789;
  const auto decoded = DecodeLine(EncodeLine(request));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Request>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->if_modified_since, -123456789);
}

TEST(Wire, Reply200RoundTrip) {
  Reply reply;
  reply.type = MessageType::kReply200;
  reply.url = "/big file.bin";  // needs escaping
  reply.body_bytes = 987654321;
  reply.last_modified = 42;
  reply.version = 7;
  reply.lease_until = 999999;
  const auto decoded = DecodeLine(EncodeLine(reply));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Reply>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type, MessageType::kReply200);
  EXPECT_EQ(back->url, reply.url);
  EXPECT_EQ(back->body_bytes, reply.body_bytes);
  EXPECT_EQ(back->last_modified, 42);
  EXPECT_EQ(back->version, 7u);
  EXPECT_EQ(back->lease_until, 999999);
}

TEST(Wire, Reply304RoundTripWithNoLease) {
  Reply reply;
  reply.type = MessageType::kReply304;
  reply.url = "/a";
  reply.last_modified = 5;
  reply.lease_until = kNoLease;
  const auto decoded = DecodeLine(EncodeLine(reply));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Reply>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type, MessageType::kReply304);
  EXPECT_EQ(back->lease_until, kNoLease);
}

TEST(Wire, InvalidationUrlRoundTrip) {
  Invalidation inv;
  inv.type = MessageType::kInvalidateUrl;
  inv.url = "/x y";
  inv.client_id = "alice@5000";
  const auto decoded = DecodeLine(EncodeLine(inv));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Invalidation>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type, MessageType::kInvalidateUrl);
  EXPECT_EQ(back->url, inv.url);
  EXPECT_EQ(back->client_id, inv.client_id);
}

TEST(Wire, InvalidationServerRoundTrip) {
  Invalidation inv;
  inv.type = MessageType::kInvalidateServer;
  inv.server = "origin-1";
  const auto decoded = DecodeLine(EncodeLine(inv));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Invalidation>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->type, MessageType::kInvalidateServer);
  EXPECT_EQ(back->server, "origin-1");
}

TEST(Wire, BatchInvalidationRoundTrip) {
  BatchInvalidation batch;
  batch.client_id = "alice@5000";
  batch.urls = {"/x y", "/plain", "/x y"};  // duplicates survive the wire
  const auto decoded = DecodeLine(EncodeLine(Message(batch)));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<BatchInvalidation>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->client_id, batch.client_id);
  EXPECT_EQ(back->urls, batch.urls);
}

TEST(Wire, BatchInvalidationRejectsCountMismatch) {
  // Grammar: INVB <client> <n> <url>*n — n must equal the URL field count.
  EXPECT_FALSE(DecodeLine("INVB site 3 /a /b").has_value());   // truncated
  EXPECT_FALSE(DecodeLine("INVB site 1 /a /b").has_value());   // excess
  EXPECT_FALSE(DecodeLine("INVB site 0").has_value());         // empty batch
  EXPECT_FALSE(DecodeLine("INVB site -1 /a").has_value());
  EXPECT_FALSE(DecodeLine("INVB site notanumber /a").has_value());
  EXPECT_FALSE(DecodeLine("INVB site").has_value());
  ASSERT_TRUE(DecodeLine("INVB site 2 /a /b").has_value());
}

TEST(WireSize, BatchInvalidationAmortizesOneHeader) {
  SizedNames names;
  const core::SiteId site = names.site("site");
  const std::vector<core::DocId> docs = {names.doc("/ab"), names.doc("/cdef")};
  // One control header for the whole frame, versus one per URL unbatched:
  // header + "site" + "/ab" + "/cdef".
  EXPECT_EQ(BatchWireSize(site, docs, names.ids),
            kControlHeaderBytes + 4 + 3 + 5);
  DocInvalidation single;
  single.doc = docs[0];
  single.site = site;
  EXPECT_LT(BatchWireSize(site, docs, names.ids),
            2 * WireSize(single, names.ids));
}

TEST(Wire, NotifyRoundTrip) {
  Notify notify{"/changed.html"};
  const auto decoded = DecodeLine(EncodeLine(notify));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Notify>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->url, "/changed.html");
}

TEST(Wire, DecodeToleratesCrlf) {
  const auto decoded = DecodeLine("GET /a c\r\n");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<Request>(&*decoded), nullptr);
}

// --- piggyback sections -----------------------------------------------------------------

TEST(Wire, GetWithPcvSectionRoundTrip) {
  Request request;
  request.type = MessageType::kGet;
  request.url = "/a";
  request.client_id = "c";
  request.pcv_queries.push_back({"/old one.html", "site a", 17});
  request.pcv_queries.push_back({"/two", "s2", -5});
  const auto decoded = DecodeLine(EncodeLine(request));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Request>(&*decoded);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->pcv_queries.size(), 2u);
  EXPECT_EQ(back->pcv_queries[0].url, "/old one.html");
  EXPECT_EQ(back->pcv_queries[0].owner, "site a");
  EXPECT_EQ(back->pcv_queries[0].last_modified, 17);
  EXPECT_EQ(back->pcv_queries[1].url, "/two");
  EXPECT_EQ(back->pcv_queries[1].owner, "s2");
  EXPECT_EQ(back->pcv_queries[1].last_modified, -5);
}

TEST(Wire, ImsWithPcvSectionRoundTrip) {
  Request request;
  request.type = MessageType::kIfModifiedSince;
  request.url = "/a";
  request.client_id = "c";
  request.if_modified_since = 99;
  request.pcv_queries.push_back({"/b", "o", 3});
  const auto decoded = DecodeLine(EncodeLine(request));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Request>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->if_modified_since, 99);
  ASSERT_EQ(back->pcv_queries.size(), 1u);
  EXPECT_EQ(back->pcv_queries[0].url, "/b");
}

TEST(Wire, Reply200WithPcvInvAndPsiRoundTrip) {
  Reply reply;
  reply.type = MessageType::kReply200;
  reply.url = "/a";
  reply.body_bytes = 10;
  reply.pcv_invalid.push_back({"/stale", "owner 1"});
  reply.pcv_invalid.push_back({"/also stale", "o2"});
  reply.psi_modified = {"/m1", "/m 2"};
  const auto decoded = DecodeLine(EncodeLine(reply));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Reply>(&*decoded);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->pcv_invalid.size(), 2u);
  EXPECT_EQ(back->pcv_invalid[0].url, "/stale");
  EXPECT_EQ(back->pcv_invalid[0].owner, "owner 1");
  EXPECT_EQ(back->pcv_invalid[1].url, "/also stale");
  ASSERT_EQ(back->psi_modified.size(), 2u);
  EXPECT_EQ(back->psi_modified[1], "/m 2");
}

TEST(Wire, Reply304WithPsiOnlyRoundTrip) {
  Reply reply;
  reply.type = MessageType::kReply304;
  reply.url = "/a";
  reply.lease_until = kNoLease;
  reply.psi_modified = {"/changed"};
  const auto decoded = DecodeLine(EncodeLine(reply));
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<Reply>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->pcv_invalid.empty());
  ASSERT_EQ(back->psi_modified.size(), 1u);
  EXPECT_EQ(back->psi_modified[0], "/changed");
}

TEST(Wire, EmptyPiggybackKeepsHistoricalEncoding) {
  // Messages without piggyback data must stay byte-identical to the
  // pre-extension codec so older peers interoperate.
  Request request;
  request.type = MessageType::kGet;
  request.url = "/a";
  request.client_id = "c";
  EXPECT_EQ(EncodeLine(request), "GET /a c\n");
  Reply reply;
  reply.type = MessageType::kReply304;
  reply.url = "/a";
  reply.last_modified = 1;
  reply.lease_until = 2;
  EXPECT_EQ(EncodeLine(reply), "304 /a 1 2\n");
}

// --- malformed inputs -----------------------------------------------------------------

struct MalformedCase {
  const char* name;
  const char* line;
};

class WireMalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(WireMalformedTest, Rejected) {
  EXPECT_FALSE(DecodeLine(GetParam().line).has_value()) << GetParam().line;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, WireMalformedTest,
    ::testing::Values(
        MalformedCase{"Empty", ""},
        MalformedCase{"UnknownVerb", "FROB /a b"},
        MalformedCase{"GetMissingClient", "GET /a"},
        MalformedCase{"GetExtraField", "GET /a b c"},
        MalformedCase{"ImsMissingTimestamp", "IMS /a b"},
        MalformedCase{"ImsBadTimestamp", "IMS /a b xyz"},
        MalformedCase{"Reply200TooFewFields", "200 /a 1 2 3"},
        MalformedCase{"Reply200BadNumber", "200 /a x 2 3 4"},
        MalformedCase{"Reply304TooMany", "304 /a 1 2 3"},
        MalformedCase{"InvMissingClient", "INV /a"},
        MalformedCase{"InvSrvMissingServer", "INVSRV"},
        MalformedCase{"NotifyExtra", "NOTIFY /a b"},
        MalformedCase{"DoubleSpace", "GET  /a b"},
        MalformedCase{"BadEscape", "GET /a%2 b"},
        MalformedCase{"PcvMissingCount", "GET /a c PCV"},
        MalformedCase{"PcvBadCount", "GET /a c PCV x /u o 1"},
        MalformedCase{"PcvCountOverclaims", "GET /a c PCV 2 /u o 1"},
        MalformedCase{"PcvHostileHugeCount",
                      "GET /a c PCV 18446744073709551615 /u o 1"},
        MalformedCase{"PcvTruncatedItem", "GET /a c PCV 1 /u o"},
        MalformedCase{"PcvBadTimestamp", "GET /a c PCV 1 /u o zz"},
        MalformedCase{"PcvTrailingGarbage", "GET /a c PCV 1 /u o 1 junk"},
        MalformedCase{"PcvWrongMarker", "GET /a c PSI 1 /u"},
        MalformedCase{"PcvOnReply", "304 /a 1 2 PCV 1 /u o 1"},
        MalformedCase{"PcvInvTruncated", "200 /a 1 2 3 4 PCVINV 1 /u"},
        MalformedCase{"PsiCountOverclaims", "304 /a 1 2 PSI 3 /u"},
        MalformedCase{"PsiBeforePcvInv",
                      "304 /a 1 2 PSI 1 /u PCVINV 1 /v o"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace webcc::net
