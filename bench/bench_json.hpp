#pragma once
// Shared helper for binaries that append custom rows into BENCH_perf.json
// (google-benchmark's JSON schema, the file bench_perf_microbench writes):
// closed_loop_latency, large_k_scaling and the fig5/fig13 benches feed the
// cross-PR perf tracker through this. Rows are formatted by the repo's one
// JSON writer (common/json.hpp). Header-only on purpose -- bench/ binaries
// link only noc_core.

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace noc::benchjson {

/// One appended benchmark row: items_per_second plus any number of
/// bench-specific extra metrics (named so the JSON stays self-describing).
struct Entry {
  std::string name;
  double items_per_second = 0;
  std::vector<std::pair<std::string, double>> extras;

  Entry() = default;
  Entry(std::string name_, double ips) : name(std::move(name_)),
                                         items_per_second(ips) {}
  Entry(std::string name_, double ips, std::string extra_key,
        double extra_value)
      : name(std::move(name_)), items_per_second(ips) {
    extras.emplace_back(std::move(extra_key), extra_value);
  }

  Entry& extra(std::string key, double value) {
    extras.emplace_back(std::move(key), value);
    return *this;
  }
};

/// Append entries into the existing file's "benchmarks" array (the array is
/// the last bracketed region in google-benchmark's output), or create a
/// minimal file when absent/unparseable. The rows are written as a fresh
/// document, whose array elements are spliced in before the existing
/// array's closing bracket.
inline bool append_entries(const std::string& path,
                           const std::vector<Entry>& entries) {
  json::Writer w;
  w.begin_object().key("context").begin_object().end_object();
  w.key("benchmarks").begin_array();
  for (const Entry& e : entries) {
    w.begin_object()
        .field("name", e.name)
        .field("run_type", "iteration")
        .field("items_per_second", e.items_per_second);
    for (const auto& [key, value] : e.extras) w.field(key, value);
    w.end_object();
  }
  w.end_array().end_object();
  const std::string body = json::read_file(path);
  const size_t close = body.rfind(']');
  if (close == std::string::npos) return json::write_file(path, w.str());
  if (entries.empty()) return true;
  // The fresh array's elements: from its '[' to the newline before its ']'.
  const std::string& fresh = w.str();
  const size_t open = fresh.find('[') + 1;
  const std::string rows =
      fresh.substr(open, fresh.rfind('\n', fresh.rfind(']')) - open);
  // Comma only if the array already holds an entry.
  const size_t last = body.find_last_not_of(" \t\r\n", close - 1);
  const bool empty_array = last == std::string::npos || body[last] == '[';
  return json::write_file(path, body.substr(0, last + 1) +
                                    (empty_array ? "" : ",") + rows +
                                    body.substr(last + 1));
}

}  // namespace noc::benchjson
