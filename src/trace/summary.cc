#include "trace/summary.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/id_space.h"

namespace webcc::trace {

TraceSummary Summarize(const Trace& trace) {
  TraceSummary summary;
  summary.duration = trace.duration;
  summary.total_requests = trace.records.size();

  // Distinct clients per requested document.
  std::vector<std::unordered_set<ClientId>> sites(trace.documents.size());
  std::unordered_set<std::uint64_t> pairs;
  pairs.reserve(trace.records.size());
  std::uint64_t repeats = 0;
  for (const TraceRecord& record : trace.records) {
    sites[record.doc].insert(record.client);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(record.client) << 32) | record.doc;
    if (!pairs.insert(key).second) ++repeats;
  }

  std::uint64_t requested_files = 0;
  std::uint64_t popularity_sum = 0;
  double size_sum = 0.0;
  for (DocId d = 0; d < trace.documents.size(); ++d) {
    if (sites[d].empty()) continue;
    ++requested_files;
    popularity_sum += sites[d].size();
    summary.max_popularity =
        std::max<std::uint64_t>(summary.max_popularity, sites[d].size());
    size_sum += static_cast<double>(trace.documents[d].size_bytes);
  }
  summary.num_files = requested_files;
  if (requested_files > 0) {
    summary.avg_file_size_bytes = size_sum / static_cast<double>(requested_files);
    summary.avg_popularity =
        static_cast<double>(popularity_sum) / static_cast<double>(requested_files);
  }
  if (summary.total_requests > 0) {
    summary.repeat_request_fraction =
        static_cast<double>(repeats) / static_cast<double>(summary.total_requests);
  }
  return summary;
}

std::string ValidateTrace(const Trace& trace) {
  if (trace.duration <= 0) return "non-positive duration";
  Time previous = 0;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TraceRecord& record = trace.records[i];
    if (record.doc >= trace.documents.size()) {
      return "record " + std::to_string(i) + ": document index out of range";
    }
    if (record.client >= trace.clients.size()) {
      return "record " + std::to_string(i) + ": client index out of range";
    }
    if (record.timestamp < previous) {
      return "record " + std::to_string(i) + ": timestamps not sorted";
    }
    if (record.timestamp < 0 || record.timestamp > trace.duration) {
      return "record " + std::to_string(i) + ": timestamp outside duration";
    }
    previous = record.timestamp;
  }
  // Each document and client index is an identity (the replay's id space
  // maps names to exactly these indices), so a repeated name would make two
  // indices claim one name. Interning in index order gives each name its
  // own index unless it was already seen.
  core::Interner paths;
  for (std::size_t d = 0; d < trace.documents.size(); ++d) {
    const std::string& path = trace.documents[d].path;
    if (path.empty()) return "document " + std::to_string(d) + ": empty path";
    if (paths.Intern(path) != d) {
      return "document " + std::to_string(d) + ": duplicate path " + path;
    }
  }
  core::Interner clients;
  for (std::size_t c = 0; c < trace.clients.size(); ++c) {
    if (clients.Intern(trace.clients[c]) != c) {
      return "client " + std::to_string(c) + ": duplicate id " +
             trace.clients[c];
    }
  }
  return "";
}

std::string Trace::Validate() const { return ValidateTrace(*this); }

}  // namespace webcc::trace
