#pragma once
// The router microarchitecture (paper Figs 1 and 3).
//
// One parameterizable implementation covers the three designs evaluated in
// the paper:
//
//   FourStage  -- textbook baseline (Fig 1):
//                 stage 1: BW + mSA-I + VA | stage 2: NRC + mSA-II |
//                 stage 3: ST | stage 4: LT            => 4 cycles/hop
//   ThreeStage -- "aggressive" baseline of Sec 4.1 with fused single-cycle
//                 ST+LT                                => 3 cycles/hop
//   Proposed   -- ThreeStage buffered path + router-level multicast +
//                 lookahead virtual bypassing          => 1 cycle/hop on a
//                 successful bypass (Fig 3)
//
// Timing model (simulation tick t):
//   * Lookaheads sent by the upstream router during its SA phase of tick
//     t-1 arrive at tick t and enter mSA-II with priority. A winner
//     pre-allocates the crossbar for its flit, which arrives at t+1 and is
//     forwarded in the ST phase of t+1: one cycle per hop.
//   * Buffered path: BW + mSA-I at tick t (stage 1), mSA-II at t+1
//     (stage 2, candidate latched by SA-I), ST(+LT) at t+2.
//   * Credits cross a 1-cycle channel and are applied at the start of the
//     receiving tick, which yields exactly the paper's 3-cycle buffer/VC
//     turnaround (ST+LT, credit return, credit processing).

#include <array>
#include <optional>

#include "common/inline_vec.hpp"
#include "noc/arbiters.hpp"
#include "noc/buffers.hpp"
#include "noc/energy_events.hpp"
#include "noc/fault.hpp"
#include "noc/flit.hpp"
#include "noc/geometry.hpp"
#include "noc/metrics.hpp"
#include "noc/route_policy.hpp"
#include "noc/routing.hpp"
#include "noc/telemetry.hpp"
#include "sim/channel.hpp"

namespace noc {

enum class PipelineMode { FourStage, ThreeStage, Proposed };

struct RouterConfig {
  PipelineMode pipeline = PipelineMode::Proposed;
  /// Router-level multicast fork support (paper Sec 3.3). Without it the
  /// router only accepts unicast flits (the NIC duplicates broadcasts).
  bool multicast = true;
  /// A multicast lookahead may bypass on a subset of its requested output
  /// ports, buffering only the remainder. Ablation knob (DESIGN.md Sec 6).
  bool allow_partial_bypass = true;
  /// Lookaheads beat buffered requests in mSA-II (paper Sec 3.2). Ablation
  /// knob: when false, buffered flits arbitrate first.
  bool lookahead_priority = true;
  /// mSA-I only considers VCs whose output-port request is actionable
  /// (downstream VC + credit available). The proposed router's stage-1
  /// mSA-I/VA co-design implies this masking; the textbook Fig-1 baseline
  /// feeds raw per-VC outport requests into its round-robin circuit and
  /// wastes switch cycles on credit-blocked VCs.
  bool actionable_sa1_requests = true;
  /// Port-granular activity gating (docs/PERF.md Layer 5): under network
  /// activity gating, a ticking router sweeps only ports holding internal
  /// work or whose channels delivered this cycle (per-port wake bits set by
  /// the channel hooks), instead of all 5 ports x all VCs. Pure scheduling
  /// -- results are bit-identical either way. Ignored when the network runs
  /// ungated (every component is then awake and visits everything).
  bool port_gating = true;
  /// Routing policy (noc/route_policy.hpp, docs/ROUTING.md). The chip
  /// hardwires XY; YX is the mirror ablation; O1TURN and MinimalAdaptive
  /// load-balance unicasts over lane-partitioned VCs to attack the paper's
  /// "XY routing imbalance" share of the throughput gap. Multicasts stay
  /// on the dimension-ordered tree under every policy.
  RoutePolicy routing = RoutePolicy::XY;
  VcConfig vc;

  bool has_bypass() const { return pipeline == PipelineMode::Proposed; }
};

/// Lookahead signal (paper: 15 bits -- output-port vector from NRC plus VC
/// and head metadata). We carry the full flit descriptor; only information
/// the hardware encodes or can derive from the header is used.
struct Lookahead {
  int in_port = 0;  // input port at the receiving router
  Flit flit;        // the flit that will arrive next cycle (vc/branch_mask set)
};

/// Link channels. A link carries at most one flit and one lookahead per
/// cycle. An input port returns at most one credit per VC per cycle: each
/// branch of a VC's packet advances at most one flit per cycle (through ST,
/// a bypass or a fault-mode drop), so the FIFO front pops at most once, and
/// a bypassed flit never entered a FIFO.
using FlitChannel = Channel<Flit, 1>;
using LookaheadChannel = Channel<Lookahead, 1>;
using CreditChannel = Channel<Credit, kMaxTotalVcs>;

class Router {
 public:
  /// External wiring for one port, owned by the Network.
  struct PortChannels {
    FlitChannel* flit_in = nullptr;
    FlitChannel* flit_out = nullptr;
    CreditChannel* credit_in = nullptr;   // credits from downstream
    CreditChannel* credit_out = nullptr;  // credits to upstream
    LookaheadChannel* la_in = nullptr;
    LookaheadChannel* la_out = nullptr;
  };

  Router(NodeId node, const MeshGeometry& geom, const RouterConfig& cfg,
         EnergyCounters& energy, Metrics& metrics);

  void connect(PortDir port, const PortChannels& ch);

  /// One clock cycle. Phases: credits -> ST/BW -> SA-II(+lookaheads) ->
  /// SA-I/VA -> occupancy accounting.
  void tick(Cycle now);

  NodeId node() const { return node_; }
  const RouterConfig& config() const { return cfg_; }

  /// True when no flit is buffered or latched anywhere in this router.
  bool idle() const;

  /// The input channel kinds a port-wake bit can stand for.
  enum class Arrival { Flit = 0, Credit = 1, Lookahead = 2 };
  /// Port-wake bit for an arrival of kind `k` at input port `in_port`: one
  /// byte per kind, one bit per port.
  static uint64_t arrival_bit(Arrival k, PortDir in_port) {
    return uint64_t{1} << (8 * static_cast<int>(k) + port_index(in_port));
  }

  /// Arm per-port wake gating (RouterConfig::port_gating under a gated
  /// network) and return the pair of words the channel hooks OR their
  /// arrival_bit into, indexed by arrival-cycle parity
  /// (WakeHook::port_words).
  uint64_t* arm_port_wake() {
    port_wake_armed_ = true;
    return wake_port_words_.data();
  }

  /// Attach the network's fault-schedule state (docs/FAULTS.md). Called
  /// once at construction time for networks with a non-empty FaultPlan;
  /// the router reads dead-port / degrade flags through this pointer every
  /// tick (nullptr = pristine fast path, bit-identical to pre-fault builds).
  void attach_faults(const FaultState* faults) { faults_ = faults; }

  /// Attach the network's telemetry sink (docs/OBSERVABILITY.md). Same
  /// lifecycle as attach_faults: set once at construction when
  /// TelemetryConfig::enabled, nullptr otherwise -- every hot-path hook is
  /// one untaken branch on this pointer. Stall counters are only ever
  /// charged to busy VCs of swept ports, which makes the counts
  /// bit-identical across activity gating, port gating, and parallel
  /// stepping (a sleeping router has no busy VCs to charge).
  void attach_telemetry(Telemetry* t) { telemetry_ = t; }

  /// The fault schedule changed the surviving topology (link kill or
  /// revival). Re-validates every open Escape-class packet against the new
  /// escape tree: branches that have not started sending and whose route no
  /// longer matches convert in place to drop branches (graceful drain;
  /// docs/FAULTS.md). Adaptive packets need nothing -- VA re-aims them.
  void on_topology_change(Cycle now);

 private:
  struct GrantOut {
    PortDir out = PortDir::Local;
    int ds_vc = -1;
    DestMask dests;
  };

  /// At most one grant per output port per cycle; inline storage keeps the
  /// per-cycle grant vectors off the heap (docs/PERF.md).
  using GrantList = InlineVec<GrantOut, kNumPorts>;

  /// Switch-traversal latch: a buffered flit granted by mSA-II, traversing
  /// ST(+LT) this tick.
  struct StLatch {
    bool valid = false;
    int vc = -1;
    int seq = 0;
    GrantList outs;
  };

  /// Pre-allocated crossbar passage for a flit arriving this tick.
  struct BypassGrant {
    bool valid = false;
    int vc = -1;
    int seq = 0;
    bool full = false;  // all requested branches granted
    GrantList outs;
  };

  struct InputPort {
    std::vector<InputVc> vcs;
    RoundRobinArbiter sa1{1};
    int stage2_vc = -1;  // mSA-I winner awaiting mSA-II (stage-2 candidate)
    StLatch st;          // executes at the next tick's ST phase
    BypassGrant bypass;  // applies to the flit arriving next tick
    PortChannels ch;
    bool connected = false;
  };

  struct OutputPort {
    DownstreamState ds;
    MatrixArbiter sa2{kNumPorts};
    /// LT latch for the FourStage pipeline (ST fills it, LT drains it).
    std::optional<Flit> lt;
  };

  // --- phases (each sweeps only ports set in `active`) ---
  void apply_credits(Cycle now, const PortMask& active);
  void phase_st_and_bw(Cycle now, const PortMask& active);
  void phase_sa2(Cycle now, const PortMask& active);
  void phase_sa1_va(Cycle now, const PortMask& active);
  /// Fault-mode drop-branch sweep (docs/FAULTS.md): consumes one flit per
  /// cycle per drop branch as if sent and counts the tail as a dropped
  /// delivery. Runs between ST/BW and mSA-II -- after this tick's ST latch
  /// consumed its flit references, before new grants are issued -- so
  /// retire_sent_flits can safely pop swept flits. No-op (one integer
  /// compare) unless drop branches exist.
  void fault_tick(Cycle now);

  // --- helpers ---
  void process_lookaheads(Cycle now, const PortMask& active,
                          std::array<bool, kNumPorts>& out_claimed,
                          std::array<bool, kNumPorts>& in_claimed);
  void arbitrate_buffered(Cycle now,
                          std::array<bool, kNumPorts>& out_claimed,
                          std::array<bool, kNumPorts>& in_claimed);
  /// Install route/branch state for a head flit arriving at (port, vc).
  void open_packet_state(Cycle now, int port, const Flit& head);
  /// Route computation for a head under the configured policy: the ordered
  /// classes use their dimension-ordered tree; Adaptive heads get an
  /// initial productive-port aim from live credit state (re-aimed by VA
  /// every retry until a downstream VC is granted). Under a non-empty
  /// fault plan, Escape heads route on the surviving-topology tree and
  /// destinations that cannot be served (off-tree, or forbidden by the
  /// down-phase constraint for the arrival port; docs/ROUTING.md) are
  /// returned in `*drop` instead of the RouteSet.
  RouteSet route_head(int in_port, const Flit& head, DestMask* drop) const;
  /// Best productive port toward `dest` for an Adaptive packet: most free
  /// Free-lane VCs, then most Free-lane buffer credits, X-first tie-break.
  PortDir adaptive_port_choice(NodeId dest, MsgClass mc) const;
  /// VC lane branch `b` of a class-`rc` packet allocates from (the
  /// Adaptive class maps to its primary Free lane; escape is requested
  /// explicitly inside allocate_branch_vcs).
  VcLane branch_lane(RouteClass rc, PortDir out) const {
    return route_class_lane(cfg_.routing, rc, out);
  }
  /// Could VA equip this branch with a downstream VC right now? (The
  /// actionable-request mask of mSA-I; considers every adaptive candidate
  /// port plus the escape fallback for Adaptive packets.)
  bool branch_could_get_vc(RouteClass rc, MsgClass mc, const Branch& b) const;
  /// Route class the copy forwarded toward `go` carries downstream:
  /// an Adaptive flit granted an Ordered-lane (escape) VC continues as
  /// Escape -- stickiness the deadlock argument relies on.
  RouteClass downstream_rc(const Flit& f, const GrantOut& go) const;
  /// Forward one flit copy through the crossbar toward `go` (ST; plus LT
  /// for fused pipelines, or into the LT latch for FourStage).
  void forward_copy(Cycle now, const Flit& f, const GrantOut& go);
  /// Send the lookahead announcing `f` will traverse toward `go` next tick.
  void send_lookahead(Cycle now, const Flit& f, const GrantOut& go);
  void send_credit_upstream(Cycle now, int port, int vc, bool vc_free);
  /// VA for the packet holding (vc_id): lazy per-branch for unicasts and
  /// single-flit multicasts, atomic all-or-nothing for multi-flit
  /// multicasts (deadlock avoidance; see implementation comment).
  void allocate_branch_vcs(Cycle now, int vc_id, InputVc& ivc);
  /// Telemetry: why can this busy, unserviceable VC not move a flit?
  /// Disjoint by branch state: no buffered flit -> BufferEmpty; a buffered
  /// flit behind a held VC -> NoCredit; behind a VC-less branch ->
  /// NoFreeVc (docs/OBSERVABILITY.md "Stall taxonomy").
  StallClass classify_stalled_vc(const InputVc& ivc) const;
  /// Smallest sequence number among branches that can actually move this
  /// cycle (flit buffered, downstream VC allocated, credit available).
  /// INT_MAX when none can. Branches are deliberately NOT served in global
  /// lockstep: a branch with credits must be allowed to run ahead of a
  /// credit-stalled sibling, or multi-flit multicast trees deadlock (the
  /// stalled sibling may be waiting on exactly the resource the ready
  /// branch would free).
  int serviceable_seq(const InputVc& ivc) const;
  /// Branch bookkeeping after a copy of flit `seq` has been granted toward
  /// branch `b` (advances next_seq / tail_sent).
  static void advance_branch(Branch& b, const Flit& f);
  /// Pop + credit any fully-sent flits at the front of (port, vc)'s FIFO;
  /// closes the packet when every branch is done.
  void retire_sent_flits(Cycle now, int port, int vc);

  /// Bit of (input port, VC id) in the SoA busy set.
  static constexpr int vc_bit(int port, int vc) {
    return port * kMaxTotalVcs + vc;
  }
  /// One port's 16 busy-VC bits as a word (VC v of port p at bit v).
  uint32_t busy_slice(int port) const {
    return busy_.extract(port * kMaxTotalVcs, kMaxTotalVcs);
  }
  /// Ports holding carried-over work: a busy VC, an ST/bypass latch, a
  /// stage-2 candidate, or a pending LT. The complement may be skipped by a
  /// port-gated tick unless a wake bit says a channel delivered.
  PortMask internal_work_ports() const;

  NodeId node_;
  const MeshGeometry& geom_;
  RouterConfig cfg_;
  EnergyCounters& energy_;
  Metrics& metrics_;
  /// Fault-schedule view (nullptr on pristine networks: every fault check
  /// compiles to one branch on this pointer). Updated by the Network on the
  /// main thread at cycle boundaries only.
  const FaultState* faults_ = nullptr;
  /// Telemetry sink (nullptr = off; see attach_telemetry). Rows are
  /// per-router and each router is ticked by one worker, so plain adds
  /// need no synchronization under parallel stepping.
  Telemetry* telemetry_ = nullptr;
  /// Open drop branches across all input VCs; gates fault_tick's sweep.
  int open_drop_branches_ = 0;

  std::array<InputPort, kNumPorts> in_;
  std::array<OutputPort, kNumPorts> out_;

  /// SoA mirror of per-VC busy flags (docs/PERF.md Layer 5): set by
  /// open_packet_state, cleared at both close_packet sites. The energy
  /// walk, idle(), and the mSA-I scan are word ops over this instead of
  /// 5x16 InputVc object walks.
  VcSetMask busy_;
  /// Port-wake bits by arrival-cycle parity: word [t & 1] holds the
  /// arrival_bit of every input channel a message arrives on at cycle t.
  /// Senders set them at send time, up to a cycle ahead; tick(now) moves
  /// word [now & 1] into arrived_ and clears it. Only meaningful when armed.
  std::array<uint64_t, 2> wake_port_words_{};
  /// This tick's arrival bits: a channel whose bit is clear has nothing to
  /// read. All set when port wakes are not armed, so every channel is read.
  uint64_t arrived_ = ~uint64_t{0};
  bool port_wake_armed_ = false;

  bool arrived(Arrival k, int port) const {
    return ((arrived_ >> (8 * static_cast<int>(k) + port)) & 1) != 0;
  }

  /// Persistent per-tick allocation scratch. Constructing a GrantList runs
  /// five GrantOut constructors (each zeroing a multi-word DestMask), which
  /// showed up in saturated-load profiles when done per tick; these are
  /// clear()ed instead (size reset only, storage reused).
  std::array<GrantList, kNumPorts> granted_scratch_;
  GrantList la_grantable_;                  // process_lookaheads scratch
  InlineVec<Branch*, kNumPorts> la_want_;
  BranchList open_branches_;                // open_packet_state scratch
};

}  // namespace noc
