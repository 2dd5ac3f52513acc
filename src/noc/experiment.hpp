#pragma once
// Experiment harness: the measurement methodology shared by the Fig 5/6/13
// benches and the throughput tests.
//
// A measurement runs a fresh network through warmup, opens the metrics
// window, and reports latency / received throughput / channel loads /
// bypass statistics at one offered load. Saturation follows the paper's
// definition (Sec 4.1 footnote): the injection rate at which average packet
// latency reaches 3x the no-load latency.
//
// Workloads beyond open loop (closed-loop coherence, trace replay; see
// noc/workload.hpp) are measured with the same machinery: measure_workload
// runs whatever WorkloadSpec the config carries and additionally reports
// transaction-level results (completed transactions, miss latency,
// sustained transactions/cycle at the configured window).
// ExperimentRunner::window_sweep is the closed-loop analogue of an
// offered-load sweep: one independent point per MSHR window size.
//
// ExperimentRunner fans independent sweep points across worker threads.
// Every point owns its complete simulation state -- a Network, a Simulation
// clock, and per-NIC RNG streams derived deterministically from the point's
// config seed -- so points share nothing and the parallel schedule cannot
// change any result: outputs are bit-identical to the serial path in any
// thread count and any completion order (docs/PERF.md).

#include <vector>

#include "noc/network.hpp"

namespace noc {

struct MeasureOptions {
  Cycle warmup = 3000;
  Cycle window = 10000;
};

struct PointResult {
  double offered_fpc = 0;       // offered logical flits / node / cycle
  double avg_latency = 0;       // cycles, generation -> last delivery
  double recv_flits_per_cycle = 0;  // aggregate over all NICs
  double recv_gbps = 0;         // at 1 GHz, 64b flits
  double bypass_rate = 0;       // fraction of hops fully bypassed
  int64_t completed_packets = 0;
  /// Packets retired inside the window with at least one destination lost
  /// to a fault (docs/FAULTS.md). Zero on a pristine mesh. Conservation:
  /// every generated packet ends up completed or dropped, never wedged in
  /// an open ledger entry -- unreachable destinations surface here instead
  /// of hanging the run.
  int64_t dropped_packets = 0;
  double max_ejection_load = 0;
  double max_bisection_load = 0;
  EnergyCounters energy;        // window-scoped event counts

  // Exact latency order statistics over window-completed packets, from the
  // always-on fixed-bin histogram in Metrics (docs/OBSERVABILITY.md).
  // All zero when no packet completed.
  Cycle p50_latency = 0;
  Cycle p95_latency = 0;
  Cycle p99_latency = 0;
  Cycle min_latency = 0;
  Cycle max_latency = 0;
  /// Window-scoped stall attribution summed over routers, indexed by
  /// StallClass; all zero unless cfg.telemetry.enabled.
  int64_t stall_cycles[kNumStallClasses] = {0, 0, 0, 0, 0};

  // Transaction-level results (zero for pure open-loop points). For
  // closed-loop workloads: completed miss transactions and probe-to-response
  // latency; for trace replay: records injected inside the window.
  int64_t transactions = 0;
  double avg_transaction_latency = 0;  // cycles, probe issue -> response tail
  double max_transaction_latency = 0;
  double transactions_per_cycle = 0;   // aggregate over all nodes
  int closed_loop_window = 0;          // MSHR window this point ran at

  // Closed-loop leg breakdown (zeros for other workloads): the
  // probe-to-owner leg (miss issue -> probe head at the owning node) and
  // the data-return leg (response generation at the owner -> response tail
  // at the requester). Together with the directory latency these
  // decompose avg_transaction_latency, so a shift in miss latency can be
  // attributed to the request or the response network.
  int64_t probe_legs = 0;
  double avg_probe_latency = 0;
  int64_t response_legs = 0;
  double avg_response_latency = 0;
};

/// Run one point at `offered` flits/node/cycle. For non-open-loop
/// workloads the offered load is ignored (the workload's own knobs --
/// window, issue probability, trace -- set the load); use measure_workload.
/// A non-null `capture` records every injection (warmup included) via
/// Network::record_trace -- the campaign capture stage (src/campaign/).
PointResult measure_point(NetworkConfig cfg, double offered,
                          const MeasureOptions& opt = {},
                          Trace* capture = nullptr);

/// Measure whatever workload `cfg` carries (open-loop at its configured
/// offered load, closed-loop at its window, trace replay).
PointResult measure_workload(const NetworkConfig& cfg,
                             const MeasureOptions& opt = {},
                             Trace* capture = nullptr);

/// Latency at (near) zero load.
double zero_load_latency(NetworkConfig cfg, const MeasureOptions& opt = {});

struct SaturationResult {
  double zero_load_latency = 0;
  double saturation_offered = 0;  // flits/node/cycle at the 3x point
  double saturation_gbps = 0;     // received throughput there
  PointResult at_saturation;
};

/// Locate the saturation point by geometric ramp + bisection on offered load.
SaturationResult find_saturation(NetworkConfig cfg,
                                 const MeasureOptions& opt = {});

/// Latency-throughput curve over the given offered loads (serial; see
/// ExperimentRunner::sweep for the multi-threaded equivalent).
std::vector<PointResult> sweep_curve(NetworkConfig cfg,
                                     const std::vector<double>& offered,
                                     const MeasureOptions& opt = {});

/// Deliveries (ejected flits) per offered logical flit for a pattern; the
/// ejection-limited saturation offered load is 1 / this value.
double deliveries_per_offered_flit(const NetworkConfig& cfg);

// ---------------------------------------------------------------------------
// Parallel sweep engine.

struct ExperimentOptions {
  MeasureOptions measure;
  /// Worker threads for independent sweep points. 0 = all hardware threads;
  /// 1 = serial (no worker threads).
  int threads = 0;
};

/// One independent measurement: a full network config at one offered load.
struct SweepPoint {
  NetworkConfig cfg;
  double offered = 0;
};

/// Fans independent sweep points (and whole saturation searches) across
/// worker threads (parallel_for). Results are bit-identical to the serial
/// free functions.
class ExperimentRunner {
 public:
  ExperimentRunner() = default;
  explicit ExperimentRunner(const ExperimentOptions& opt) : opt_(opt) {}

  /// Resolved worker count (>= 1).
  int threads() const;

  /// Measure every point; results align index-for-index with `points`.
  std::vector<PointResult> run(const std::vector<SweepPoint>& points) const;

  /// Latency-throughput curve: the parallel equivalent of sweep_curve.
  std::vector<PointResult> sweep(const NetworkConfig& cfg,
                                 const std::vector<double>& offered) const;

  /// One curve per config over the same load list, every (config, load)
  /// point batched as a single parallel run. curves[c][i] is cfgs[c] at
  /// offered[i].
  std::vector<std::vector<PointResult>> sweep_all(
      const std::vector<NetworkConfig>& cfgs,
      const std::vector<double>& offered) const;

  /// One adaptive saturation search per config, searches in parallel (each
  /// search itself is inherently sequential).
  std::vector<SaturationResult> find_saturations(
      const std::vector<NetworkConfig>& cfgs) const;

  /// Closed-loop latency/throughput curve: one independent point per MSHR
  /// window size (cfg.workload.kind must be ClosedLoop). The closed-loop
  /// analogue of sweep(): results align index-for-index with `windows` and
  /// are bit-identical at any thread count.
  std::vector<PointResult> window_sweep(const NetworkConfig& cfg,
                                        const std::vector<int>& windows) const;

 private:
  ExperimentOptions opt_;
};

// ---------------------------------------------------------------------------
// Command-line conventions shared by benches/examples (common/cli.hpp):
//   --warmup N --window N   measurement phases (cycles)
//   --threads N             sweep workers (0 = all hardware threads)
//   --k N                   mesh radix, 2..kMaxMeshRadix

class CliArgs;

MeasureOptions cli_measure_options(const CliArgs& args,
                                   const MeasureOptions& defaults);
ExperimentOptions cli_experiment_options(const CliArgs& args,
                                         const MeasureOptions& defaults);

/// Shared `--k N` flag: mesh radix validated against the DestMask capacity.
/// An out-of-range value prints a diagnostic and exits instead of letting
/// the geometry's precondition abort deep in construction (or worse,
/// silently truncating the way a fixed-width mask once would have).
int cli_mesh_radix(const CliArgs& args, int dflt);

/// Shared `--policy NAME` flag (xy | yx | o1turn | adaptive): routing
/// policy for the benches/examples. Unknown names print the valid set and
/// exit.
RoutePolicy cli_route_policy(const CliArgs& args, RoutePolicy dflt);

}  // namespace noc
