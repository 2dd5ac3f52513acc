#pragma once
// Content-addressed record store for campaign results (docs/CAMPAIGN.md).
//
// Layout under one results root:
//
//   <root>/records/<id-sanitized>.<hash>.json   one record per point
//   <root>/traces/<hash>.trace                  capture points' traces
//
// The HASH in the filename is the point's content hash (manifest.hpp): a
// record is valid for exactly one resolved configuration, so "is this point
// done?" is a filename probe plus a validating parse -- that is the whole
// crash-resume story. Records are written atomically (json::write_file,
// tmp + rename): a campaign killed mid-write leaves at worst a *.tmp file
// the next run ignores, never a half-record that parses.
//
// Records are deliberately timestamp-free: the same point run serially,
// in parallel, or across a kill/resume must produce BIT-IDENTICAL record
// files (tests/test_campaign.cpp diffs the bytes). Host context (core
// count, thread-budget grant) is recorded -- it is deterministic per host
// and makes wall-clock-adjacent numbers interpretable -- but wall-clock
// itself stays in the CLI's console output.

#include <string>
#include <utility>
#include <vector>

#include "campaign/manifest.hpp"

namespace noc::campaign {

/// Execution-host facts recorded in every record (satellite: the
/// 0.88x-on-1-core speedup number needs this to be interpretable).
struct HostContext {
  unsigned hardware_concurrency = 0;
  int thread_budget = 0;
};
HostContext current_host();

/// One completed point. `report` is an ordered metric -> value map,
/// serialized verbatim as the record's "report" object; the runner puts an
/// "items_per_second" metric first so gathered reports slot straight into
/// tools/check_perf_regression.py.
struct CampaignRecord {
  int schema = kCampaignSchemaVersion;
  std::string campaign;
  std::string point_id;
  std::string kind;  // point_kind_name
  std::string hash;  // 16 hex chars, the content hash
  HostContext host;
  std::vector<std::pair<std::string, double>> report;
};

/// `id` with '/' flattened for use in a filename ('/' is legal in point
/// ids; records live in one flat directory).
std::string sanitize_id(const std::string& id);

class ResultStore {
 public:
  explicit ResultStore(std::string root) : root_(std::move(root)) {}

  const std::string& root() const { return root_; }
  std::string records_dir() const { return root_ + "/records"; }
  std::string traces_dir() const { return root_ + "/traces"; }
  std::string record_path(const std::string& point_id,
                          const std::string& hash) const;
  std::string trace_path(const std::string& hash) const;

  /// Create root/records and root/traces (with parents). False on failure.
  bool ensure_dirs() const;

  /// True when a VALID record for (point_id, hash) exists: parses, schema
  /// and hash match, status complete. A stale record from an older config
  /// has a different hash, hence a different filename, hence false.
  bool has_record(const std::string& point_id, const std::string& hash) const;

  bool load_record(const std::string& point_id, const std::string& hash,
                   CampaignRecord* out) const;

  /// Atomic write (tmp + rename) of the canonical serialization.
  bool save_record(const CampaignRecord& rec) const;

  /// Exact bytes save_record(rec) writes -- tests diff these across
  /// serial/parallel/resumed executions.
  static std::string serialize_record(const CampaignRecord& rec);

  /// Delete the records and traces belonging to this manifest's resolved
  /// points. Returns how many files were removed, or -1 with the
  /// resolve_manifest diagnostic in *error (when non-null) if the manifest
  /// is invalid; then nothing is removed.
  int remove_campaign(const Manifest& m, std::string* error = nullptr) const;

 private:
  std::string root_;
};

/// Merge a manifest's records into one google-benchmark-schema report at
/// `out_path` (rows named "<campaign>/<point-id>", items_per_second plus
/// every other report metric as extras) consumable by
/// tools/check_perf_regression.py. Points without a valid record are
/// returned in `missing`; the report is still written for the rest. An
/// invalid manifest writes nothing and returns the resolve_manifest
/// diagnostic in `error`.
struct GatherResult {
  int complete = 0;
  std::vector<std::string> missing;
  bool wrote = false;
  std::string error;
};
GatherResult gather_campaign(const Manifest& m, const ResultStore& store,
                             const std::string& out_path);

}  // namespace noc::campaign
