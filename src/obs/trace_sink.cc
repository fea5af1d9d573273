#include "obs/trace_sink.h"

#include <ostream>

namespace webcc::obs {

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

std::uint32_t JsonlTraceSink::InternLocked(std::string_view s) {
  const std::size_t known = interns_.size();
  const core::InternId id = interns_.Intern(s);
  if (interns_.size() == known) return id;
  std::string line = "{\"e\":\"intern\",\"id\":";
  line += std::to_string(id);
  line += ",\"n\":\"";
  AppendJsonEscaped(line, s);
  line += "\"}\n";
  *out_ << line;
  return id;
}

void JsonlTraceSink::Emit(const TraceEvent& event) {
  const util::MutexLock lock(mu_);
  // Each run interns from scratch so concatenated streams self-describe.
  if (event.type == EventType::kRunBegin) interns_ = core::Interner();

  // Intern first: the id-definition lines precede the event that uses them.
  std::uint32_t url_id = 0, site_id = 0;
  const bool has_url = !event.url.empty();
  const bool has_site = !event.site.empty();
  if (has_url) url_id = InternLocked(event.url);
  if (has_site) site_id = InternLocked(event.site);

  std::string line;
  line.reserve(96);
  line += "{\"t\":";
  line += std::to_string(event.at);
  line += ",\"e\":\"";
  line += EventTypeName(event.type);
  line += '"';
  if (event.trace_time >= 0) {
    line += ",\"tt\":";
    line += std::to_string(event.trace_time);
  }
  if (has_url) {
    line += ",\"u\":";
    line += std::to_string(url_id);
  }
  if (has_site) {
    line += ",\"s\":";
    line += std::to_string(site_id);
  }
  if (event.detail != 0) {
    line += ",\"d\":";
    line += std::to_string(event.detail);
  }
  if (!event.label.empty()) {
    line += ",\"l\":\"";
    AppendJsonEscaped(line, event.label);
    line += '"';
  }
  line += "}\n";
  *out_ << line;
  ++events_written_;
}

void JsonlTraceSink::WriteRaw(std::string_view jsonl) {
  const util::MutexLock lock(mu_);
  out_->write(jsonl.data(), static_cast<std::streamsize>(jsonl.size()));
}

std::uint64_t JsonlTraceSink::events_written() const {
  const util::MutexLock lock(mu_);
  return events_written_;
}

}  // namespace webcc::obs
