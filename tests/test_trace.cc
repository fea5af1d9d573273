// Unit tests for trace/: synthetic workloads, CLF parsing, modifier
// schedules, presets, summaries.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "replay/engine.h"
#include "trace/clf.h"
#include "trace/filter.h"
#include "trace/modifier.h"
#include "trace/presets.h"
#include "trace/summary.h"
#include "trace/workload.h"

namespace webcc::trace {
namespace {

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.duration = 2 * kHour;
  config.total_requests = 2000;
  config.num_documents = 150;
  config.num_clients = 80;
  config.seed = 17;
  return config;
}

// --- workload generator ---------------------------------------------------------

TEST(Workload, GeneratesExactRequestCount) {
  const Trace trace = GenerateTrace(SmallConfig());
  EXPECT_EQ(trace.records.size(), 2000u);
}

TEST(Workload, GeneratedTraceValidates) {
  const Trace trace = GenerateTrace(SmallConfig());
  EXPECT_EQ(trace.Validate(), "");
}

TEST(Workload, DeterministicForSeed) {
  const Trace a = GenerateTrace(SmallConfig());
  const Trace b = GenerateTrace(SmallConfig());
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].timestamp, b.records[i].timestamp);
    EXPECT_EQ(a.records[i].client, b.records[i].client);
    EXPECT_EQ(a.records[i].doc, b.records[i].doc);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  WorkloadConfig config = SmallConfig();
  const Trace a = GenerateTrace(config);
  config.seed = 18;
  const Trace b = GenerateTrace(config);
  bool different = false;
  for (std::size_t i = 0; i < a.records.size() && !different; ++i) {
    different = a.records[i].doc != b.records[i].doc;
  }
  EXPECT_TRUE(different);
}

TEST(Workload, SizesWithinConfiguredBounds) {
  WorkloadConfig config = SmallConfig();
  config.min_file_size_bytes = 1000;
  config.max_file_size_bytes = 50000;
  const Trace trace = GenerateTrace(config);
  for (const DocumentInfo& doc : trace.documents) {
    EXPECT_GE(doc.size_bytes, 1000u);
    EXPECT_LE(doc.size_bytes, 50000u);
  }
}

TEST(Workload, MeanFileSizeApproximatelyMatches) {
  WorkloadConfig config = SmallConfig();
  config.num_documents = 5000;
  config.mean_file_size_bytes = 20000;
  const Trace trace = GenerateTrace(config);
  double sum = 0;
  for (const DocumentInfo& doc : trace.documents) {
    sum += static_cast<double>(doc.size_bytes);
  }
  // The rank-size correlation and clamping preserve the mean to ~15%.
  EXPECT_NEAR(sum / 5000, 20000, 3500);
}

TEST(Workload, HigherZipfSkewsPopularity) {
  WorkloadConfig flat = SmallConfig();
  flat.doc_zipf_exponent = 0.2;
  flat.revisit_probability = 0.0;
  WorkloadConfig steep = flat;
  steep.doc_zipf_exponent = 1.3;
  const TraceSummary flat_summary = Summarize(GenerateTrace(flat));
  const TraceSummary steep_summary = Summarize(GenerateTrace(steep));
  EXPECT_GT(steep_summary.max_popularity, flat_summary.max_popularity);
}

TEST(Workload, RevisitRaisesRepeatFraction) {
  WorkloadConfig none = SmallConfig();
  none.revisit_probability = 0.0;
  WorkloadConfig heavy = none;
  heavy.revisit_probability = 0.6;
  const TraceSummary a = Summarize(GenerateTrace(none));
  const TraceSummary b = Summarize(GenerateTrace(heavy));
  EXPECT_GT(b.repeat_request_fraction, a.repeat_request_fraction + 0.1);
}

TEST(Workload, HotDocumentsSmallerWithGamma) {
  WorkloadConfig config = SmallConfig();
  config.num_documents = 2000;
  config.total_requests = 20000;
  config.size_rank_gamma = 1.0;
  const Trace trace = GenerateTrace(config);
  // Transfer-weighted mean should undercut the per-file mean.
  std::vector<std::uint64_t> requests(trace.documents.size(), 0);
  for (const TraceRecord& record : trace.records) ++requests[record.doc];
  double weighted = 0;
  double file_mean = 0;
  for (std::size_t d = 0; d < trace.documents.size(); ++d) {
    weighted += static_cast<double>(requests[d]) *
                static_cast<double>(trace.documents[d].size_bytes);
    file_mean += static_cast<double>(trace.documents[d].size_bytes);
  }
  weighted /= static_cast<double>(trace.records.size());
  file_mean /= static_cast<double>(trace.documents.size());
  EXPECT_LT(weighted, 0.7 * file_mean);
}

TEST(Workload, ClientIdsAreDistinct) {
  const Trace trace = GenerateTrace(SmallConfig());
  std::unordered_set<std::string> ids(trace.clients.begin(),
                                      trace.clients.end());
  EXPECT_EQ(ids.size(), trace.clients.size());
}

// --- summary ------------------------------------------------------------------------

TEST(Summary, HandBuiltTrace) {
  Trace trace;
  trace.name = "hand";
  trace.duration = kMinute;
  trace.documents = {{"/a", 100}, {"/b", 300}, {"/never", 999}};
  trace.clients = {"c0", "c1"};
  trace.records = {
      {0, 0, 0}, {kSecond, 1, 0}, {2 * kSecond, 0, 0}, {3 * kSecond, 1, 1}};
  const TraceSummary summary = Summarize(trace);
  EXPECT_EQ(summary.total_requests, 4u);
  EXPECT_EQ(summary.num_files, 2u);  // "/never" unrequested
  EXPECT_DOUBLE_EQ(summary.avg_file_size_bytes, 200.0);
  EXPECT_EQ(summary.max_popularity, 2u);  // "/a" seen by both clients
  EXPECT_DOUBLE_EQ(summary.avg_popularity, 1.5);
  // One repeated (client, doc) pair: (c0, /a).
  EXPECT_DOUBLE_EQ(summary.repeat_request_fraction, 0.25);
}

TEST(Summary, ValidateCatchesBadDocIndex) {
  Trace trace;
  trace.duration = kSecond;
  trace.documents = {{"/a", 1}};
  trace.clients = {"c"};
  trace.records = {{0, 0, 5}};
  EXPECT_NE(trace.Validate(), "");
}

TEST(Summary, ValidateCatchesUnsortedTimestamps) {
  Trace trace;
  trace.duration = kMinute;
  trace.documents = {{"/a", 1}};
  trace.clients = {"c"};
  trace.records = {{kSecond, 0, 0}, {0, 0, 0}};
  EXPECT_NE(trace.Validate(), "");
}

TEST(Summary, ValidateCatchesTimestampBeyondDuration) {
  Trace trace;
  trace.duration = kSecond;
  trace.documents = {{"/a", 1}};
  trace.clients = {"c"};
  trace.records = {{2 * kSecond, 0, 0}};
  EXPECT_NE(trace.Validate(), "");
}

TEST(Summary, ValidateCatchesDuplicateDocumentPath) {
  // Document indices are identities: two indices for one path would either
  // merge (a path-keyed store) or split (an id-keyed one) silently.
  Trace trace;
  trace.duration = kSecond;
  trace.documents = {{"/a", 1}, {"/b", 1}, {"/a", 2}};
  trace.clients = {"c"};
  trace.records = {{0, 0, 0}, {0, 0, 2}};
  const std::string problem = trace.Validate();
  EXPECT_NE(problem.find("document 2: duplicate path /a"), std::string::npos)
      << problem;
}

TEST(Summary, ValidateCatchesDuplicateClientId) {
  Trace trace;
  trace.duration = kSecond;
  trace.documents = {{"/a", 1}};
  trace.clients = {"10.0.0.1", "10.0.0.2", "10.0.0.1"};
  trace.records = {{0, 0, 0}, {0, 2, 0}};
  const std::string problem = trace.Validate();
  EXPECT_NE(problem.find("client 2: duplicate id 10.0.0.1"), std::string::npos)
      << problem;
}

TEST(Summary, ReplayRefusesDuplicateNames) {
  // The engine seeds its id space from the trace and checks every name
  // lands on its own index, so an unvalidated duplicate cannot slip in.
  Trace doc_dup;
  doc_dup.duration = kSecond;
  doc_dup.documents = {{"/a", 1}, {"/a", 1}};
  doc_dup.clients = {"c"};
  doc_dup.records = {{0, 0, 1}};
  replay::ReplayConfig config;
  config.trace = &doc_dup;
  EXPECT_DEATH(replay::RunReplay(config), "trace names a document twice");

  Trace client_dup;
  client_dup.duration = kSecond;
  client_dup.documents = {{"/a", 1}};
  client_dup.clients = {"c", "c"};
  client_dup.records = {{0, 1, 0}};
  config.trace = &client_dup;
  EXPECT_DEATH(replay::RunReplay(config), "trace names a client twice");
}

// --- CLF ------------------------------------------------------------------------------

TEST(Clf, ParsesCanonicalLine) {
  ClfLine parsed;
  ASSERT_TRUE(ParseClfLine(
      "ppp-mia-30.shadow.net - - [01/Jul/1995:00:00:01 -0400] "
      "\"GET /history/apollo/ HTTP/1.0\" 200 6245",
      parsed));
  EXPECT_EQ(parsed.host, "ppp-mia-30.shadow.net");
  EXPECT_EQ(parsed.method, "GET");
  EXPECT_EQ(parsed.path, "/history/apollo/");
  EXPECT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.bytes, 6245);
  // 1995-07-01 00:00:01 = 804556801 (zone ignored by design).
  EXPECT_EQ(parsed.unix_seconds, 804556801);
}

TEST(Clf, ParsesDashBytes) {
  ClfLine parsed;
  ASSERT_TRUE(ParseClfLine(
      "host - - [01/Jan/1996:12:00:00 +0000] \"GET /a HTTP/1.0\" 304 -",
      parsed));
  EXPECT_EQ(parsed.status, 304);
  EXPECT_EQ(parsed.bytes, -1);
}

TEST(Clf, RejectsGarbage) {
  ClfLine parsed;
  EXPECT_FALSE(ParseClfLine("", parsed));
  EXPECT_FALSE(ParseClfLine("no brackets here", parsed));
  EXPECT_FALSE(ParseClfLine("h - - [baddate] \"GET /a HTTP/1.0\" 200 1",
                            parsed));
  EXPECT_FALSE(ParseClfLine("h - - [01/Jul/1995:00:00:01 -0400] noquotes 200 1",
                            parsed));
}

TEST(Clf, RejectsOverflowingNumbers) {
  // Fields that do not fit in int64 are malformed lines, not UB (TakeInt
  // used to wrap on signed overflow).
  ClfLine parsed;
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" 200 "
      "99999999999999999999999999999999999999",
      parsed));
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" "
      "92233720368547758079223372036854775807 1",
      parsed));
}

TEST(Clf, RejectsOutOfRangeDateFields) {
  ClfLine parsed;
  // Day 32, hour 24, minute 60: shaped like a date, but not one.
  EXPECT_FALSE(ParseClfLine(
      "h - - [32/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" 200 1", parsed));
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:24:00:01 -0400] \"GET /a HTTP/1.0\" 200 1", parsed));
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:00:60:01 -0400] \"GET /a HTTP/1.0\" 200 1", parsed));
  // A negative day lines up with the '/' separators but must not produce a
  // negative timestamp (ReadClf's first-record sentinel relies on >= 0).
  EXPECT_FALSE(ParseClfLine(
      "h - - [-1/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" 200 1", parsed));
  // Pre-epoch and five-digit years are corrupt, not slow to compute.
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1969:00:00:01 -0400] \"GET /a HTTP/1.0\" 200 1", parsed));
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/19999:00:00:01 -0400] \"GET /a HTTP/1.0\" 200 1",
      parsed));
  // Status fields outside 100..999 are not HTTP statuses.
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" 0 1", parsed));
  EXPECT_FALSE(ParseClfLine(
      "h - - [01/Jul/1995:00:00:01 -0400] \"GET /a HTTP/1.0\" 2000 1",
      parsed));
}

TEST(Clf, TruncationFuzz) {
  // Every prefix of a canonical line must either be cleanly rejected or
  // parse to sane field values — never crash or read out of bounds.
  const std::string canonical =
      "ppp-mia-30.shadow.net - - [01/Jul/1995:00:00:01 -0400] "
      "\"GET /history/apollo/ HTTP/1.0\" 200 6245";
  for (std::size_t len = 0; len <= canonical.size(); ++len) {
    ClfLine parsed;
    if (ParseClfLine(std::string_view(canonical).substr(0, len), parsed)) {
      EXPECT_GE(parsed.status, 100);
      EXPECT_LE(parsed.status, 999);
      EXPECT_GE(parsed.bytes, -1);
      EXPECT_FALSE(parsed.path.empty());
      EXPECT_GE(parsed.unix_seconds, 0);
    }
  }
}

TEST(Clf, ReadSkipsAndCountsMalformedLines) {
  // A stream sprinkled with the fuzz corpus: truncated lines, missing
  // fields, huge sizes. Parsing must skip-and-count every bad line and
  // still accept the good ones.
  std::istringstream in(
      "good1 - - [01/Jul/1995:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 100\n"
      "trunc - - [01/Jul/1995:00:00:01\n"
      "nofields\n"
      "missing-req - - [01/Jul/1995:00:00:02 +0000] 200 100\n"
      "huge - - [01/Jul/1995:00:00:03 +0000] \"GET /b HTTP/1.0\" 200 "
      "999999999999999999999999999999\n"
      "baddate - - [99/Jul/1995:00:00:04 +0000] \"GET /c HTTP/1.0\" 200 1\n"
      "nopath - - [01/Jul/1995:00:00:05 +0000] \"GET  HTTP/1.0\" 200 1\n"
      "good2 - - [01/Jul/1995:00:00:06 +0000] \"GET /a HTTP/1.0\" 304 -\n");
  ClfParseStats stats;
  const Trace trace = ReadClf(in, "fuzz", &stats);
  EXPECT_EQ(stats.lines, 8u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.malformed, 6u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(trace.records.size(), 2u);
  EXPECT_EQ(trace.records[1].timestamp, 6 * kSecond);
  EXPECT_EQ(trace.Validate(), "");
}

TEST(Clf, LeapYearDateMath) {
  ClfLine parsed;
  ASSERT_TRUE(ParseClfLine(
      "h - - [29/Feb/1996:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 1",
      parsed));
  // 1996-02-29 00:00:00 UTC.
  EXPECT_EQ(parsed.unix_seconds, 825552000);
}

TEST(Clf, ReadBuildsTrace) {
  std::istringstream in(
      "c1 - - [01/Jul/1995:00:00:00 +0000] \"GET /a HTTP/1.0\" 200 100\n"
      "c2 - - [01/Jul/1995:00:00:05 +0000] \"GET /b HTTP/1.0\" 200 250\n"
      "c1 - - [01/Jul/1995:00:00:09 +0000] \"GET /a HTTP/1.0\" 304 -\n"
      "c1 - - [01/Jul/1995:00:00:10 +0000] \"POST /a HTTP/1.0\" 200 10\n"
      "bogus line\n");
  ClfParseStats stats;
  const Trace trace = ReadClf(in, "mini", &stats);
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.skipped, 1u);   // the POST
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.documents.size(), 2u);
  EXPECT_EQ(trace.clients.size(), 2u);
  EXPECT_EQ(trace.records[0].timestamp, 0);
  EXPECT_EQ(trace.records[2].timestamp, 9 * kSecond);
  EXPECT_EQ(trace.Validate(), "");
  EXPECT_EQ(trace.documents[0].size_bytes, 100u);
}

TEST(Clf, RoundTripThroughWriter) {
  const Trace original = GenerateTrace(SmallConfig());
  std::stringstream buffer;
  WriteClf(original, buffer);
  const Trace back = ReadClf(buffer, "back");
  ASSERT_EQ(back.records.size(), original.records.size());
  // The writer only emits requested documents/clients; compare against the
  // sets that actually appear in the record stream.
  std::unordered_set<DocId> requested_docs;
  std::unordered_set<ClientId> active_clients;
  for (const TraceRecord& record : original.records) {
    requested_docs.insert(record.doc);
    active_clients.insert(record.client);
  }
  EXPECT_EQ(back.documents.size(), requested_docs.size());
  EXPECT_EQ(back.clients.size(), active_clients.size());
  // CLF truncates to whole seconds and the reader rebases at the first
  // record's second; compare whole-second offsets on that basis.
  const Time original_base_seconds = original.records[0].timestamp / kSecond;
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    EXPECT_EQ(back.records[i].timestamp / kSecond,
              original.records[i].timestamp / kSecond - original_base_seconds);
  }
}

// --- browser-cache filter -------------------------------------------------------------

TEST(BrowserFilter, AbsorbsRepeatsWithinTtl) {
  Trace raw;
  raw.duration = kHour;
  raw.documents = {{"/a", 10}};
  raw.clients = {"c0", "c1"};
  raw.records = {
      {0, 0, 0},                // c0 fetch: forwarded
      {kMinute, 0, 0},          // c0 repeat within TTL: absorbed
      {2 * kMinute, 1, 0},      // c1 first fetch: forwarded
      {20 * kMinute, 0, 0},     // c0 after TTL: forwarded
  };
  BrowserFilterStats stats;
  const Trace filtered =
      FilterThroughBrowserCaches(raw, 10 * kMinute, &stats);
  EXPECT_EQ(stats.input_requests, 4u);
  EXPECT_EQ(stats.absorbed, 1u);
  EXPECT_EQ(stats.forwarded, 3u);
  ASSERT_EQ(filtered.records.size(), 3u);
  EXPECT_EQ(filtered.records[1].client, 1u);
  EXPECT_EQ(filtered.Validate(), "");
}

TEST(BrowserFilter, ZeroTtlForwardsEverything) {
  const Trace raw = GenerateTrace(SmallConfig());
  const Trace filtered = FilterThroughBrowserCaches(raw, 0);
  EXPECT_EQ(filtered.records.size(), raw.records.size());
}

TEST(BrowserFilter, InfiniteTtlKeepsOnlyFirstAccessPerPair) {
  const Trace raw = GenerateTrace(SmallConfig());
  BrowserFilterStats stats;
  const Trace filtered = FilterThroughBrowserCaches(
      raw, raw.duration + kSecond, &stats);
  const TraceSummary raw_summary = Summarize(raw);
  // Forwarded = distinct (client, doc) pairs.
  EXPECT_DOUBLE_EQ(
      static_cast<double>(stats.forwarded),
      static_cast<double>(raw.records.size()) *
          (1.0 - raw_summary.repeat_request_fraction));
  // The filtered trace has no repeats at all.
  EXPECT_DOUBLE_EQ(Summarize(filtered).repeat_request_fraction, 0.0);
}

TEST(BrowserFilter, PreservesDocumentsAndClients) {
  const Trace raw = GenerateTrace(SmallConfig());
  const Trace filtered = FilterThroughBrowserCaches(raw, kHour);
  EXPECT_EQ(filtered.documents.size(), raw.documents.size());
  EXPECT_EQ(filtered.clients.size(), raw.clients.size());
  EXPECT_EQ(filtered.duration, raw.duration);
}

// --- modifier -----------------------------------------------------------------------

TEST(Modifier, TouchIntervalFromLifetime) {
  ModifierConfig config;
  config.num_documents = 100;
  config.mean_lifetime = 100 * kDay;
  EXPECT_EQ(TouchInterval(config), kDay);
}

TEST(Modifier, ScheduleCountMatchesExpectation) {
  ModifierConfig config;
  config.duration = kDay;
  config.num_documents = 3600;
  config.mean_lifetime = 50 * kDay;
  // The paper's EPA run: 72 modifications in one day.
  EXPECT_EQ(ExpectedTouchCount(config), 72u);
  EXPECT_EQ(GenerateModifierSchedule(config).size(), 72u);
}

TEST(Modifier, EventsSortedWithinDuration) {
  ModifierConfig config;
  config.duration = 8 * kDay;
  config.num_documents = 2009;
  config.mean_lifetime = 14 * kDay;
  const auto events = GenerateModifierSchedule(config);
  EXPECT_EQ(events.size(), 1148u);  // the paper's SASK count
  Time previous = 0;
  for (const ModEvent& event : events) {
    EXPECT_GT(event.at, previous);
    EXPECT_LE(event.at, config.duration);
    EXPECT_LT(event.doc, config.num_documents);
    previous = event.at;
  }
}

TEST(Modifier, DeterministicForSeed) {
  ModifierConfig config;
  config.duration = kDay;
  config.num_documents = 500;
  config.mean_lifetime = 5 * kDay;
  const auto a = GenerateModifierSchedule(config);
  const auto b = GenerateModifierSchedule(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].doc, b[i].doc);
}

// --- presets ---------------------------------------------------------------------------

class PresetTest : public ::testing::TestWithParam<TraceName> {};

TEST_P(PresetTest, MatchesPaperTable2) {
  const TracePreset preset = GetPreset(GetParam());
  const Trace trace = GenerateTrace(preset.workload);
  ASSERT_EQ(trace.Validate(), "");
  const TraceSummary summary = Summarize(trace);

  // Request count and duration are exact.
  EXPECT_EQ(summary.total_requests, preset.paper.total_requests);
  EXPECT_EQ(trace.duration, preset.workload.duration);

  // File count within 10% (not every document is requested).
  EXPECT_NEAR(static_cast<double>(summary.num_files),
              static_cast<double>(preset.paper.derived_num_files),
              0.10 * preset.paper.derived_num_files);

  // Mean file size within 15%.
  EXPECT_NEAR(summary.avg_file_size_bytes, preset.paper.avg_file_size_bytes,
              0.15 * preset.paper.avg_file_size_bytes);

  // Popularity statistics within 20% of the reported values.
  EXPECT_NEAR(static_cast<double>(summary.max_popularity),
              static_cast<double>(preset.paper.max_popularity),
              0.20 * preset.paper.max_popularity);
  EXPECT_NEAR(summary.avg_popularity, preset.paper.avg_popularity,
              0.30 * preset.paper.avg_popularity);
}

INSTANTIATE_TEST_SUITE_P(AllTraces, PresetTest,
                         ::testing::ValuesIn(AllTraces()),
                         [](const ::testing::TestParamInfo<TraceName>& info) {
                           return ToString(info.param);
                         });

TEST(Presets, FileCountsConsistentWithModifierDerivation) {
  // files ~ mods x lifetime / duration, the derivation DESIGN.md documents.
  const TracePreset nasa = GetPreset(TraceName::kNasa);
  ModifierConfig config;
  config.duration = nasa.workload.duration;
  config.num_documents = nasa.workload.num_documents;
  config.mean_lifetime = nasa.paper_mean_lifetime;
  EXPECT_EQ(ExpectedTouchCount(config), 144u);
}

TEST(Presets, NamesAreUnique) {
  std::unordered_set<std::string> names;
  for (const TraceName name : AllTraces()) {
    EXPECT_TRUE(names.insert(ToString(name)).second);
  }
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace webcc::trace
