#pragma once
// Campaign manifests: the declarative layer over the experiment harness
// (docs/CAMPAIGN.md). A campaign is a named set of POINTS, each a fully
// resolved simulation (NetworkConfig x WorkloadSpec x RoutePolicy x k x
// step_threads) plus what to measure there:
//
//   measure     -- measure_workload at the point's own load knobs
//   saturation  -- find_saturation (open-loop only)
//   capture     -- measure AND record the injection trace
//                  (Network::record_trace), saved keyed by the point hash
//   replay      -- measure a trace workload replaying the capture named by
//                  `trace_from` (capture-once / replay-many ablation)
//
// Every point is CONTENT-HASHED from its canonical key: the fully resolved
// configuration (not the manifest text), a schema version tag, and -- for
// replay points -- the hash of the capture they depend on. The hash is the
// completed-work identity the result store keys records by, so re-running a
// campaign skips completed hashes (crash resume), and a change that only
// touches some points (a policy knob, a capture's workload) invalidates
// exactly those points' hashes and their dependents, nothing else.
//
// Manifests come from the builders in campaign/grids.hpp (the repo's own
// sweeps) or from a plain-text file ("# noc-campaign v1"; see
// docs/CAMPAIGN.md for the format and save/load below).

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "noc/experiment.hpp"
#include "noc/network.hpp"

namespace noc::campaign {

/// Bumped whenever the record schema or the meaning of a manifest field
/// changes incompatibly: every point hash embeds it, so old records are
/// invalidated wholesale instead of being silently misread.
constexpr int kCampaignSchemaVersion = 1;

enum class PointKind { Measure, Saturation, Capture, Replay };
constexpr int kNumPointKinds = 4;

const char* point_kind_name(PointKind k);
std::optional<PointKind> parse_point_kind(std::string_view name);

/// The four router builds the paper evaluates (NetworkConfig factories).
enum class PipelinePreset { Proposed, LowswingMulticast, Baseline3, Baseline4 };
constexpr int kNumPipelinePresets = 4;

const char* pipeline_preset_name(PipelinePreset p);
std::optional<PipelinePreset> parse_pipeline_preset(std::string_view name);

/// One campaign point. Field defaults mean "the preset's value"; anything
/// set here overrides the resolved NetworkConfig, and EVERY resolved field
/// feeds the content hash (campaign_point_key).
struct CampaignPoint {
  /// Unique within the manifest. Allowed chars: [A-Za-z0-9_.=/-] (ids name
  /// record files and report rows).
  std::string id;
  PointKind kind = PointKind::Measure;

  // --- network ---
  PipelinePreset pipeline = PipelinePreset::Proposed;
  int k = 4;
  int ky = 0;  // 0 = square
  RoutePolicy policy = RoutePolicy::XY;
  /// VC overrides per message class; 0 keeps the preset's pool.
  int request_vcs = 0;
  int response_vcs = 0;
  bool gating = true;
  int step_threads = 1;

  // --- workload ---
  /// Measure/capture points: which source family runs. Replay points are
  /// forced to WorkloadKind::Trace; saturation points to OpenLoop.
  WorkloadKind workload = WorkloadKind::OpenLoop;
  TrafficPattern pattern = TrafficPattern::UniformRequest;
  double offered = 0.10;  // open-loop measure points only
  bool identical_prbs = false;
  uint64_t seed = 1;
  /// Closed-loop knobs (workload == ClosedLoop).
  int mshr_window = 4;
  double issue_prob = 1.0;
  Cycle directory_latency = 2;
  Cycle think_time = 0;

  // --- faults (docs/FAULTS.md) ---
  /// Non-zero fault_links / fault_degrade turns the point into a degraded-
  /// mesh run: a deterministic plan from make_random_fault_plan(seed =
  /// fault_seed) kills `fault_links` links and degrades `fault_degrade`
  /// routers at `fault_kill_at`, reviving `fault_revive_after` cycles later
  /// (0 = permanent). All five fields feed the content hash -- but ONLY for
  /// faulted points, so every pre-fault hash in existing result stores
  /// stays valid.
  int fault_links = 0;
  int fault_degrade = 0;
  uint64_t fault_seed = 1;
  Cycle fault_kill_at = 0;
  Cycle fault_revive_after = 0;

  // --- telemetry (docs/OBSERVABILITY.md) ---
  /// Enable the telemetry probes for this point: stall attribution feeds
  /// the report's stall_* rows, and `telemetry_sample_every` > 0 samples
  /// the time series at that period. Both knobs feed the content hash ONLY
  /// for telemetry points (the fault-knob pattern above), so every
  /// pre-telemetry hash in existing result stores stays valid. Latency
  /// percentile rows do NOT need this -- the histogram is always on.
  bool telemetry = false;
  Cycle telemetry_sample_every = 0;

  // --- measurement ---
  /// 0 = the manifest's defaults.
  Cycle warmup = 0;
  Cycle window = 0;

  /// Replay points: id of the capture point whose trace is the input. The
  /// capture's hash is folded into this point's hash, so re-capturing
  /// invalidates every dependent replay.
  std::string trace_from;
};

struct Manifest {
  std::string name;
  Cycle default_warmup = 1000;
  Cycle default_window = 4000;
  std::vector<CampaignPoint> points;

  const CampaignPoint* find(std::string_view id) const;
};

/// Empty string when the manifest is well-formed; else a printable
/// diagnostic (duplicate/invalid ids, a number outside its keyword's
/// bounds, a resolved VC pool over kMaxTotalVcs, replay points whose
/// trace_from is missing or is not a capture point, ...). A manifest that
/// validates runs without tripping a Network precondition.
std::string validate_manifest(const Manifest& m);

/// Resolve a point to the exact NetworkConfig the harness will run. Replay
/// points come back with workload.kind == Trace and an EMPTY trace config:
/// the runner wires the capture's trace in (runner.hpp).
NetworkConfig point_config(const CampaignPoint& p);

MeasureOptions point_measure(const Manifest& m, const CampaignPoint& p);

/// Canonical content key: every resolved config and measurement field in a
/// fixed order plus the schema tag, doubles rendered with %.17g so the key
/// is exact. `dep_hash` is the capture's hash for replay points (empty
/// otherwise). Hash = 64-bit FNV-1a of the key, as 16 lowercase hex chars.
std::string campaign_point_key(const Manifest& m, const CampaignPoint& p,
                               const std::string& dep_hash);
std::string campaign_point_hash(const Manifest& m, const CampaignPoint& p,
                                const std::string& dep_hash);

/// A point with its resolved config, measurement options and content hash
/// (dependency hashes folded in). Order follows the manifest.
struct ResolvedPoint {
  const CampaignPoint* point = nullptr;
  NetworkConfig cfg;
  MeasureOptions measure;
  std::string key;
  std::string hash;
  /// Resolved capture dependency (replay points), else -1.
  int dep_index = -1;
};

/// Validate + resolve every point; a replay folds in its capture's hash.
/// On error returns an empty vector and sets *error.
std::vector<ResolvedPoint> resolve_manifest(const Manifest& m,
                                            std::string* error);

/// Plain-text manifest file I/O ("# noc-campaign v1" header; docs/CAMPAIGN.md
/// documents the stanza format). save writes the keys whose values differ
/// from the defaults. load returns nullptr and sets *error (when non-null)
/// on failure: a file:line diagnostic, or file: plus validate_manifest's.
bool save_manifest(const std::string& path, const Manifest& m);
std::shared_ptr<Manifest> load_manifest(const std::string& path,
                                        std::string* error = nullptr);

}  // namespace noc::campaign
