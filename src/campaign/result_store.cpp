#include "campaign/result_store.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/json.hpp"
#include "sim/thread_pool.hpp"

namespace noc::campaign {

HostContext current_host() {
  HostContext h;
  h.hardware_concurrency = std::thread::hardware_concurrency();
  h.thread_budget = thread_budget::total();
  return h;
}

std::string sanitize_id(const std::string& id) {
  std::string out = id;
  for (char& c : out)
    if (c == '/') c = '_';
  return out;
}

std::string ResultStore::record_path(const std::string& point_id,
                                     const std::string& hash) const {
  return records_dir() + "/" + sanitize_id(point_id) + "." + hash + ".json";
}

std::string ResultStore::trace_path(const std::string& hash) const {
  return traces_dir() + "/" + hash + ".trace";
}

namespace {

// Records are self-written with a fixed serialization (below), so the
// "parser" is a pair of key scanners, not a JSON library. Anything that
// does not scan cleanly fails validation and the point reruns -- the safe
// direction for a result cache.

bool scan_string(const std::string& body, const char* key,
                 std::string* out) {
  const std::string pat = std::string("\"") + key + "\": \"";
  const size_t at = body.find(pat);
  if (at == std::string::npos) return false;
  const size_t start = at + pat.size();
  const size_t end = body.find('"', start);
  if (end == std::string::npos) return false;
  *out = body.substr(start, end - start);
  return true;
}

bool scan_number(const std::string& body, const char* key, double* out) {
  const std::string pat = std::string("\"") + key + "\": ";
  const size_t at = body.find(pat);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  const char* start = body.c_str() + at + pat.size();
  *out = std::strtod(start, &end);
  return end != start;
}

}  // namespace

bool ResultStore::ensure_dirs() const {
  std::error_code ec;
  std::filesystem::create_directories(records_dir(), ec);
  if (!ec) std::filesystem::create_directories(traces_dir(), ec);
  return !ec;
}

std::string ResultStore::serialize_record(const CampaignRecord& rec) {
  json::Writer w;
  w.begin_object()
      .field("schema", rec.schema)
      .field("campaign", rec.campaign)
      .field("point", rec.point_id)
      .field("kind", rec.kind)
      .field("hash", rec.hash)
      .field("status", "complete")
      .key("host")
      .begin_object()
      .field("hardware_concurrency", rec.host.hardware_concurrency)
      .field("thread_budget", rec.host.thread_budget)
      .end_object()
      .key("report")
      .begin_object();
  for (const auto& [name, value] : rec.report) w.field(name, value);
  w.end_object().end_object();
  return w.str();
}

bool ResultStore::save_record(const CampaignRecord& rec) const {
  return json::write_file(record_path(rec.point_id, rec.hash),
                          serialize_record(rec));
}

bool ResultStore::load_record(const std::string& point_id,
                              const std::string& hash,
                              CampaignRecord* out) const {
  const std::string body = json::read_file(record_path(point_id, hash));
  if (body.empty()) return false;
  CampaignRecord rec;
  double schema = 0;
  std::string status;
  if (!scan_number(body, "schema", &schema) ||
      static_cast<int>(schema) != kCampaignSchemaVersion)
    return false;
  if (!scan_string(body, "status", &status) || status != "complete")
    return false;
  if (!scan_string(body, "hash", &rec.hash) || rec.hash != hash) return false;
  if (!scan_string(body, "point", &rec.point_id) || rec.point_id != point_id)
    return false;
  if (!scan_string(body, "campaign", &rec.campaign)) return false;
  if (!scan_string(body, "kind", &rec.kind)) return false;
  double hw = 0, budget = 0;
  if (scan_number(body, "hardware_concurrency", &hw))
    rec.host.hardware_concurrency = static_cast<unsigned>(hw);
  if (scan_number(body, "thread_budget", &budget))
    rec.host.thread_budget = static_cast<int>(budget);
  // The report object: "name": value pairs between the "report" brace and
  // the closing brace.
  const size_t rep = body.find("\"report\": {");
  if (rep == std::string::npos) return false;
  size_t pos = rep + std::strlen("\"report\": {");
  const size_t rep_end = body.find('}', pos);
  if (rep_end == std::string::npos) return false;
  while (true) {
    const size_t q0 = body.find('"', pos);
    if (q0 == std::string::npos || q0 > rep_end) break;
    const size_t q1 = body.find('"', q0 + 1);
    if (q1 == std::string::npos || q1 > rep_end) return false;
    const size_t colon = body.find(':', q1);
    if (colon == std::string::npos || colon > rep_end) return false;
    char* end = nullptr;
    const char* start = body.c_str() + colon + 1;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    rec.report.emplace_back(body.substr(q0 + 1, q1 - q0 - 1), v);
    pos = static_cast<size_t>(end - body.c_str());
  }
  if (rec.report.empty()) return false;
  *out = std::move(rec);
  return true;
}

bool ResultStore::has_record(const std::string& point_id,
                             const std::string& hash) const {
  CampaignRecord rec;
  return load_record(point_id, hash, &rec);
}

int ResultStore::remove_campaign(const Manifest& m,
                                 std::string* error) const {
  const auto resolved = resolve_manifest(m, error);
  if (resolved.empty()) return -1;
  int removed = 0;
  for (const ResolvedPoint& r : resolved) {
    if (std::remove(record_path(r.point->id, r.hash).c_str()) == 0)
      ++removed;
    if (r.point->kind == PointKind::Capture &&
        std::remove(trace_path(r.hash).c_str()) == 0)
      ++removed;
  }
  return removed;
}

GatherResult gather_campaign(const Manifest& m, const ResultStore& store,
                             const std::string& out_path) {
  GatherResult g;
  const auto resolved = resolve_manifest(m, &g.error);
  if (resolved.empty()) return g;
  json::Writer w;
  w.begin_object()
      .key("context")
      .begin_object()
      .field("campaign", m.name)
      .field("schema", kCampaignSchemaVersion)
      .field("points", resolved.size())
      .end_object()
      .key("benchmarks")
      .begin_array();
  for (const ResolvedPoint& r : resolved) {
    CampaignRecord rec;
    if (!store.load_record(r.point->id, r.hash, &rec)) {
      g.missing.push_back(r.point->id);
      continue;
    }
    ++g.complete;
    w.begin_object()
        .field("name", m.name + "/" + r.point->id)
        .field("run_type", "iteration")
        .field("hash", rec.hash)
        .field("kind", rec.kind);
    for (const auto& [key, value] : rec.report) w.field(key, value);
    w.end_object();
  }
  w.end_array().end_object();
  g.wrote = json::write_file(out_path, w.str());
  return g;
}

}  // namespace noc::campaign
