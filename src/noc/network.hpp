#pragma once
// Network: assembles the k x k mesh of routers and NICs (paper Fig 2) and
// drives them in the per-cycle phase order required by the timing model:
//
//   1. NIC injection halves tick (they raise latency-0 lookaheads that the
//      routers' mSA-II must see this same cycle)
//   2. routers tick (credits -> ST/BW -> mSA-II -> mSA-I/VA)
//   3. NIC ejection halves tick (drain flits the routers sent last cycle)
//
// Channels need no phase of their own: a message is written into the slot
// stamped with its arrival cycle when it is sent, and the receiver reads
// that slot when its phase runs (sim/channel.hpp).
//
// There is one stepping loop. The mesh is split into contiguous column
// spans (src/noc/partition.hpp); serial stepping is the one-span case. Each
// span walks its own awake masks: with activity gating (the default) only
// components that can do work this cycle run, and wake edges (a send, which
// wakes the receiver for the arrival cycle; source fire predictions;
// external submissions) re-arm sleepers. Ungated stepping is the same loop
// with every awake bit left set; it stays as the equivalence oracle
// (tests/test_gating_equivalence.cpp, docs/PERF.md).
//
// With step_threads > 1 a persistent worker team runs the spans under a
// two-phase barrier schedule: compute span-local state, barrier, commit
// cross-span channel sends, barrier, then drain the per-span energy,
// metrics and trace shards on the main thread. Results are bit-identical to
// serial stepping for every pattern, workload, policy and gating mode
// (docs/PERF.md Layer 4).

#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "common/wake_hook.hpp"
#include "noc/energy_events.hpp"
#include "noc/fault.hpp"
#include "noc/metrics.hpp"
#include "noc/nic.hpp"
#include "noc/partition.hpp"
#include "noc/router.hpp"
#include "noc/telemetry.hpp"
#include "noc/traffic.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"
#include "sim/step_team.hpp"

namespace noc {

struct NetworkConfig {
  int k = 4;
  /// Mesh rows; 0 (the default) means square (rows = k). Rectangular
  /// geometries keep row-major node ids (id = y * k + x) with k columns.
  int ky = 0;
  RouterConfig router;
  TrafficConfig traffic;
  /// Which TrafficSource family drives the NICs (docs/WORKLOADS.md). The
  /// default open loop reads `traffic` unchanged, so existing configs keep
  /// their exact behaviour.
  WorkloadSpec workload;

  /// Deterministic fault schedule (docs/FAULTS.md): link kills / revivals
  /// and router arbiter degrades applied at cycle boundaries. Empty (the
  /// default) keeps the pristine datapath bit-identical to pre-fault
  /// builds; non-empty switches the MinimalAdaptive escape lane to the
  /// surviving-topology up*/down* tree from cycle 0 (docs/ROUTING.md).
  FaultPlan fault;

  /// Observability probes (docs/OBSERVABILITY.md): stall attribution,
  /// time-series sampling and the packet-lifecycle trace. Disabled (the
  /// default) the Network never constructs the Telemetry instance and the
  /// datapath pays one untaken null test per hook.
  TelemetryConfig telemetry;

  /// Activity-gated stepping (docs/PERF.md): idle routers, NICs and drained
  /// channels are skipped each cycle. Metrics are bit-identical either way
  /// (enforced by tests/test_gating_equivalence.cpp); turning it off keeps
  /// every component awake every cycle, for comparison and debugging.
  bool activity_gating = true;

  /// Intra-network parallel stepping (docs/PERF.md Layer 4): partition the
  /// mesh into up to `step_threads` column spans driven by a worker team.
  /// Metrics are bit-identical to serial stepping for ANY value; the number
  /// of threads actually running is additionally clamped by the process-wide
  /// thread_budget, which changes scheduling but never results. 1 = serial.
  int step_threads = 1;

  /// The paper's four measured configurations (Fig 5/6/13).
  static NetworkConfig proposed(int k = 4);          // D: bypass + multicast
  static NetworkConfig lowswing_multicast(int k = 4);  // C: multicast, no bypass
  static NetworkConfig baseline_3stage(int k = 4);   // A/B: unicast, fused ST+LT
  static NetworkConfig baseline_4stage(int k = 4);   // Fig 1 textbook router
};

class Network : public Steppable {
 public:
  explicit Network(const NetworkConfig& cfg);
  ~Network();

  // Channels and the activity machinery hold pointers back into this
  // object (wake masks, counters): pin it.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void step(Cycle now) override;

  const NetworkConfig& config() const { return cfg_; }
  const MeshGeometry& geom() const { return geom_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  EnergyCounters& energy() { return energy_; }
  Router& router(NodeId n) { return *routers_[static_cast<size_t>(n)]; }
  Nic& nic(NodeId n) { return *nics_[static_cast<size_t>(n)]; }
  /// Telemetry sink; null unless NetworkConfig::telemetry.enabled.
  Telemetry* telemetry() { return telemetry_.get(); }
  const Telemetry* telemetry() const { return telemetry_.get(); }
  TrafficSource& source(NodeId n) { return *sources_[static_cast<size_t>(n)]; }

  /// Capture every logical packet submitted at any NIC into `out`
  /// (replayable through WorkloadKind::Trace), in (cycle, src) order for
  /// any step_threads. Pass nullptr to stop.
  void record_trace(Trace* out);

  /// Open the metrics window and reset every source's per-window stats
  /// (transaction counts / latencies); close it again with
  /// end_measurement_window. Sweeps use these instead of driving
  /// metrics().begin_window directly so closed-loop statistics stay
  /// window-scoped.
  void begin_measurement_window(Cycle now);
  void end_measurement_window(Cycle now);

  /// True when no packet is anywhere in flight and no source holds pending
  /// work (outstanding closed-loop misses, unreplayed trace records). All
  /// channel kinds count: a credit or lookahead still on a wire blocks
  /// quiescence (drain phases must not end while flow-control state is in
  /// flight), tracked by an O(1) counter rather than a channel scan.
  bool quiescent() const;

  /// Messages of any kind (flits, credits, lookaheads) inside channels
  /// after the last step: those arriving at that step's cycle or later.
  int64_t channel_items() const;

  // ---- parallel-stepping introspection (tests, docs/PERF.md Layer 4) ----

  /// Number of column spans the step loop drives; 1 in serial mode.
  int num_step_spans() const { return static_cast<int>(spans_.size()); }
  /// Workers actually running per step (after thread_budget clamping).
  int step_workers() const { return team_->workers(); }
  int num_channels() const {
    return static_cast<int>(flit_channels_.size() + credit_channels_.size() +
                            la_channels_.size());
  }
  /// The span whose in-flight counters channel `i` (flit, credit, then
  /// lookahead channels, in creation order) counts into -- its owner, the
  /// receiver's span -- or -1 if it counts into none.
  int channel_owner(int i) const;
  const std::vector<NodeId>& span_nodes(int s) const {
    return spans_[static_cast<size_t>(s)].nodes;
  }
  /// Deferred (cross-span) channels owned by span `s`.
  int span_cross_channel_count(int s) const {
    return std::apply(
        [](const auto&... lists) {
          return static_cast<int>((lists.size() + ...));
        },
        spans_[static_cast<size_t>(s)].cross);
  }

 private:
  /// Everything one worker exclusively owns while stepping its column span:
  /// the counters and wake masks of the channels it receives on, its
  /// activity machinery and, when there is more than one span, the energy,
  /// metrics and trace-record shards the main thread drains after each
  /// cycle. All scratch is sized at partition time (zero-alloc invariant).
  struct StepSpan {
    std::vector<NodeId> nodes;  // ascending id order
    // Deferred (cross-span) channels owned here, committed after compute.
    std::tuple<std::vector<FlitChannel*>, std::vector<CreditChannel*>,
               std::vector<LookaheadChannel*>>
        cross;
    // Messages inside the owned channels by arrival-cycle parity: [t & 1]
    // counts those arriving at cycle t. Cycle t retires cycle t - 1's.
    std::array<int64_t, 2> items{};
    // One awake bit per owned node (DestMask: the same multi-word per-node
    // bitset the datapath uses). Gating sets bits on wake edges and clears
    // them when a component's post-tick state shows it cannot act next
    // cycle; ungated stepping never clears them.
    DestMask router_awake;
    DestMask inject_awake;
    DestMask eject_awake;
    // Wakes for messages arriving next cycle, fired when they are sent and
    // merged into the awake masks at the top of the next cycle.
    DestMask router_next;
    DestMask inject_next;
    DestMask eject_next;
    // Minimum of the span's inject_wake_at_ entries: one compare per cycle.
    Cycle next_timed_wake = kCycleNever;
    EnergyCounters energy;
    std::unique_ptr<Metrics> metrics;  // lifecycle events, emission order
    Trace records;                     // NIC trace records while recording
  };

  struct StepCtx {
    Network* net;
    Cycle now;
    void (Network::*phase)(int span, Cycle now);
  };

  /// New channel from `from` to `to` in `pool`, owned by the receiver's
  /// span: it counts into that span's items and, when the sender lives in
  /// another span, is deferred onto the owner's commit list.
  template <typename C>
  C* make_channel(std::vector<C>& pool, int latency, NodeId from, NodeId to,
                  const WakeHook& wake);

  StepSpan& span_of(NodeId node) {
    return spans_[static_cast<size_t>(part_.span_of_node(node))];
  }
  bool sharded() const { return spans_.size() > 1; }
  void setup_activity();
  /// Apply fault-schedule events stamped <= now, pushing the updated
  /// dead-port masks / degrade flags into the affected routers. Runs on
  /// the main thread at the top of step() in EVERY mode, before gating
  /// decisions and before the span fan-out, so the schedule commutes with
  /// activity gating and span decomposition.
  void apply_faults(Cycle now);
  /// Append one time-series sample (main thread, end of step(), after the
  /// span merge so the cumulative counters are whole-network values).
  void sample_telemetry(Cycle now);

  void span_compute(int s, Cycle now);
  void span_commit(int s, Cycle now);
  void merge_spans();
  void merge_records();
  static void phase_thunk(void* ctx, int worker);

  NetworkConfig cfg_;
  MeshGeometry geom_;
  Metrics metrics_;
  EnergyCounters energy_;
  FaultState fault_state_;
  std::unique_ptr<Telemetry> telemetry_;  // null unless telemetry.enabled

  // Contiguous channel pools: the Channel objects, slots included, sit in
  // one array per kind instead of heap-scattered unique_ptrs. Capacity is
  // reserved exactly in the constructor before wiring -- handed-out
  // pointers stay stable.
  std::vector<FlitChannel> flit_channels_;
  std::vector<CreditChannel> credit_channels_;
  std::vector<LookaheadChannel> la_channels_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::vector<std::unique_ptr<Nic>> nics_;

  // --- the step loop (docs/PERF.md Layers 3-4) ---
  SpanPartition part_;
  std::vector<StepSpan> spans_;     // one in serial mode
  std::unique_ptr<StepTeam> team_;  // one worker in serial mode
  int budget_lease_ = 0;            // extra threads leased from thread_budget
  Trace* trace_out_ = nullptr;      // record_trace target

  // Timed injection wake-ups for sources that promise a future fire cycle
  // (identical-PRBS intervals, trace records, closed-loop response due
  // times); each entry is written only by its node's span.
  std::vector<Cycle> inject_wake_at_;
};

}  // namespace noc
