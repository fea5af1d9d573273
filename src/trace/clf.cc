#include "trace/clf.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "core/id_space.h"
#include "util/check.h"

namespace webcc::trace {
namespace {

constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

int MonthIndex(std::string_view name) {
  for (int m = 0; m < 12; ++m) {
    if (name == kMonths[m]) return m;
  }
  return -1;
}

bool IsLeap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

// Days from 1970-01-01 to the first of the given month. Hand-rolled so the
// parser does not depend on the host timezone database.
std::int64_t DaysSinceEpoch(int year, int month, int day) {
  static constexpr int kCumulative[] = {0,   31,  59,  90,  120, 151,
                                        181, 212, 243, 273, 304, 334};
  std::int64_t days = 0;
  for (int y = 1970; y < year; ++y) days += IsLeap(y) ? 366 : 365;
  days += kCumulative[month];
  if (month >= 2 && IsLeap(year)) ++days;
  return days + day - 1;
}

// Parses a decimal integer from [pos, end-of-digits); advances pos.
// A value that does not fit in int64 is a parse failure, not UB: real logs
// never hold such numbers, so an overflowing field means a corrupt line
// and the caller should skip-and-count it.
bool TakeInt(std::string_view s, std::size_t& pos, std::int64_t& out) {
  std::size_t start = pos;
  bool negative = false;
  if (pos < s.size() && s[pos] == '-') {
    negative = true;
    ++pos;
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    const std::int64_t digit = s[pos] - '0';
    if (value > (kMax - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == start + (negative ? 1 : 0)) return false;
  out = negative ? -value : value;
  return true;
}

// Counts newlines ahead of the read position without consuming the stream;
// returns 0 when the stream is not seekable (pipes). Sizes the record
// vector's single reservation.
std::size_t CountRemainingLines(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) return 0;
  std::size_t lines = 0;
  char buffer[1 << 16];
  while (in.good()) {
    in.read(buffer, sizeof(buffer));
    const std::streamsize got = in.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      if (buffer[i] == '\n') ++lines;
    }
    if (got > 0 && in.eof()) ++lines;  // final line without a newline
  }
  in.clear();
  in.seekg(start);
  return lines;
}

}  // namespace

bool ParseClfLine(std::string_view line, ClfLine& out) {
  // host ident authuser [date] "request" status bytes
  const std::size_t host_end = line.find(' ');
  if (host_end == std::string_view::npos || host_end == 0) return false;
  out.host = line.substr(0, host_end);

  const std::size_t bracket_open = line.find('[', host_end);
  const std::size_t bracket_close =
      bracket_open == std::string_view::npos
          ? std::string_view::npos
          : line.find(']', bracket_open);
  if (bracket_close == std::string_view::npos) return false;
  const std::string_view date =
      line.substr(bracket_open + 1, bracket_close - bracket_open - 1);

  // dd/Mon/yyyy:HH:MM:SS zone
  if (date.size() < 20 || date[2] != '/' || date[6] != '/' ||
      date[11] != ':' || date[14] != ':' || date[17] != ':') {
    return false;
  }
  std::size_t pos = 0;
  std::int64_t day = 0, year = 0, hour = 0, minute = 0, second = 0;
  if (!TakeInt(date, pos, day) || date[pos] != '/') return false;
  const int month = MonthIndex(date.substr(3, 3));
  if (month < 0) return false;
  pos = 7;
  if (!TakeInt(date, pos, year) || date[pos] != ':') return false;
  ++pos;
  if (!TakeInt(date, pos, hour) || date[pos] != ':') return false;
  ++pos;
  if (!TakeInt(date, pos, minute) || date[pos] != ':') return false;
  ++pos;
  if (!TakeInt(date, pos, second)) return false;
  // Bound every date field: this rejects negative components (a leading '-'
  // that happens to line up with the '/' separators), pre-epoch or absurd
  // years (which would also make DaysSinceEpoch spin), and keeps
  // unix_seconds nonnegative — which the first_seconds < 0 sentinel in
  // ReadClf relies on.
  if (day < 1 || day > 31 || year < 1970 || year > 9999 || hour < 0 ||
      hour > 23 || minute < 0 || minute > 59 || second < 0 || second > 60) {
    return false;
  }
  // The timezone offset is deliberately ignored: a server log has one fixed
  // zone, and the replay only needs offsets from the trace start.
  out.unix_seconds =
      DaysSinceEpoch(static_cast<int>(year), month, static_cast<int>(day)) *
          86400 +
      hour * 3600 + minute * 60 + second;

  const std::size_t quote_open = line.find('"', bracket_close);
  const std::size_t quote_close =
      quote_open == std::string_view::npos
          ? std::string_view::npos
          : line.find('"', quote_open + 1);
  if (quote_close == std::string_view::npos) return false;
  const std::string_view request =
      line.substr(quote_open + 1, quote_close - quote_open - 1);
  const std::size_t method_end = request.find(' ');
  if (method_end == std::string_view::npos) return false;
  out.method = request.substr(0, method_end);
  std::size_t path_end = request.find(' ', method_end + 1);
  if (path_end == std::string_view::npos) path_end = request.size();
  out.path = request.substr(method_end + 1, path_end - method_end - 1);
  if (out.path.empty()) return false;

  pos = quote_close + 1;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  std::int64_t status = 0;
  if (!TakeInt(line, pos, status)) return false;
  if (status < 100 || status > 999) return false;  // not an HTTP status
  out.status = static_cast<int>(status);
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos < line.size() && line[pos] == '-') {
    out.bytes = -1;
  } else if (!TakeInt(line, pos, out.bytes)) {
    return false;
  }
  return true;
}

Trace ReadClf(std::istream& in, std::string trace_name, ClfParseStats* stats) {
  Trace trace;
  trace.name = std::move(trace_name);

  // Names to trace indices: a first sighting's id is the next index.
  core::Interner doc_index;
  core::Interner client_index;
  std::int64_t first_seconds = -1;

  // One reservation sized from a newline-counting pre-pass (seekable
  // streams only) instead of doubling growth across millions of records.
  trace.records.reserve(CountRemainingLines(in));

  std::string line;
  ClfParseStats local;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++local.lines;
    ClfLine parsed;
    if (!ParseClfLine(line, parsed)) {
      ++local.malformed;
      continue;
    }
    if (parsed.method != "GET" ||
        (parsed.status != 200 && parsed.status != 304)) {
      ++local.skipped;
      continue;
    }
    ++local.accepted;
    if (first_seconds < 0) first_seconds = parsed.unix_seconds;

    const DocId doc = doc_index.Intern(parsed.path);
    if (doc == trace.documents.size()) {
      trace.documents.push_back(DocumentInfo{std::string(parsed.path), 0});
    }
    if (parsed.bytes > 0) {
      auto& size = trace.documents[doc].size_bytes;
      size = std::max<std::uint64_t>(size,
                                     static_cast<std::uint64_t>(parsed.bytes));
    }

    const ClientId client = client_index.Intern(parsed.host);
    if (client == trace.clients.size()) {
      trace.clients.push_back(std::string(parsed.host));
    }

    TraceRecord record;
    record.timestamp = (parsed.unix_seconds - first_seconds) * kSecond;
    record.client = client;
    record.doc = doc;
    trace.records.push_back(record);
  }

  // CLF has one-second resolution, so same-second records may arrive
  // unsorted across load-balanced loggers; normalize.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  trace.duration = trace.records.empty()
                       ? kSecond
                       : trace.records.back().timestamp + kSecond;
  // Documents never seen with a size (all-304 paths) get a nominal 1 KB.
  for (DocumentInfo& doc : trace.documents) {
    if (doc.size_bytes == 0) doc.size_bytes = 1024;
  }
  if (stats != nullptr) *stats = local;
  return trace;
}

void WriteClf(const Trace& trace, std::ostream& out,
              std::int64_t epoch_seconds) {
  for (const TraceRecord& record : trace.records) {
    const std::int64_t t = epoch_seconds + record.timestamp / kSecond;
    const std::int64_t days = t / 86400;
    std::int64_t rem = t % 86400;
    // Convert days back to a calendar date.
    int year = 1970;
    std::int64_t d = days;
    while (true) {
      const int len = IsLeap(year) ? 366 : 365;
      if (d < len) break;
      d -= len;
      ++year;
    }
    static constexpr int kLengths[] = {31, 28, 31, 30, 31, 30,
                                       31, 31, 30, 31, 30, 31};
    int month = 0;
    while (true) {
      int len = kLengths[month];
      if (month == 1 && IsLeap(year)) ++len;
      if (d < len) break;
      d -= len;
      ++month;
    }
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%s - - [%02d/%s/%d:%02lld:%02lld:%02lld -0000] \"GET %s HTTP/1.0\" "
        "200 %llu\n",
        trace.clients[record.client].c_str(), static_cast<int>(d + 1),
        kMonths[month], year, static_cast<long long>(rem / 3600),
        static_cast<long long>((rem % 3600) / 60),
        static_cast<long long>(rem % 60),
        trace.documents[record.doc].path.c_str(),
        static_cast<unsigned long long>(trace.documents[record.doc].size_bytes));
    out << buf;
  }
}

}  // namespace webcc::trace
