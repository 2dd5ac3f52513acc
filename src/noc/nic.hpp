#pragma once
// Network Interface Controller (paper Sec 2.1/3): packetizes and injects
// traffic into its router's Local input port and drains ejected flits.
//
// Injection side: the NIC drives an abstract TrafficSource (open-loop
// generator, closed-loop coherence engine, or trace replayer -- see
// docs/WORKLOADS.md), asking it for at most one logical packet per cycle.
// Packets go through per-message-class queues, VC allocation against the
// router's Local input port (credit-based), one flit per cycle on the 64b
// NIC->router link. In Proposed mode the NIC also raises the lookahead for
// each flit so injected flits can bypass the first router; the lookahead
// wire is latency-0 (the NIC abuts its router) and the NIC ticks before
// routers each cycle.
//
// When the routers lack multicast support the NIC duplicates a broadcast
// into k^2-1 unicast copies (paper Sec 2.3, TILE64/Teraflops behaviour);
// its own copy is delivered locally without entering the network. The
// rest stay one queue entry: each copy is cut from it at activation, when
// the copy's message class wins a local VC, and the entry leaves the queue
// with its last copy. A queued k=16 broadcast is one Packet, not 255.
//
// Ejection side: flits arrive from the router's Local output into small
// per-VC buffers and drain at 1 flit/cycle -- the ejection bandwidth that
// bounds broadcast throughput in Table 1. Every drained flit is reported
// back to the TrafficSource so closed-loop workloads can react to
// deliveries.

#include <vector>

#include "common/vec_deque.hpp"
#include "noc/buffers.hpp"
#include "noc/energy_events.hpp"
#include "noc/metrics.hpp"
#include "noc/router.hpp"
#include "noc/traffic.hpp"
#include "sim/channel.hpp"

namespace noc {

struct Trace;  // noc/workload.hpp

class Nic {
 public:
  struct Channels {
    FlitChannel* flit_to_router = nullptr;    // latency 1
    LookaheadChannel* la_to_router = nullptr; // latency 0 (Proposed only)
    CreditChannel* credit_from_router = nullptr;
    FlitChannel* flit_from_router = nullptr;
    CreditChannel* credit_to_router = nullptr;
  };

  /// `source` must outlive the NIC (the Network owns both).
  Nic(NodeId node, const MeshGeometry& geom, const RouterConfig& router_cfg,
      TrafficSource* source, EnergyCounters& energy, Metrics& metrics);

  void connect(const Channels& ch) { ch_ = ch; }

  /// Injection half-cycle; must run before the routers' tick.
  void tick_inject(Cycle now);
  /// Ejection half-cycle; must run after the routers' tick.
  void tick_eject(Cycle now);

  /// Enqueue an externally-constructed packet (examples/tests drive the
  /// network directly through this).
  void submit_packet(Packet pkt);

  /// When set, every logical packet submitted at this NIC is appended to
  /// `out` as a TraceRecord (see Network::record_trace). Recording is off
  /// the steady-state no-allocation path.
  void set_trace_recorder(Trace* out) { trace_out_ = out; }

  /// Installed by a gating Network: fired whenever this NIC's injection
  /// half may have new work (an external submit_packet, or a delivery that
  /// can unblock a closed-loop source). Null hook = no-op (ungated).
  void set_inject_wake_hook(const WakeHook& h) { wake_inject_ = h; }

  /// Attach the network's fault-schedule state (docs/FAULTS.md): packets
  /// submitted toward destinations unreachable on the surviving topology
  /// are counted as drops at the door (and reported to the source) instead
  /// of being injected to hang in the mesh. Null = pristine fast path.
  void attach_faults(const FaultState* faults) { faults_ = faults; }

  /// Attach the network's telemetry sink (docs/OBSERVABILITY.md): the NIC
  /// stamps the inject-side begin of each sampled packet's lifecycle slice
  /// and an eject instant per drained tail. Null = off, one untaken branch
  /// per hook (the attach_faults pattern).
  void attach_telemetry(Telemetry* t) { telemetry_ = t; }

  /// Injection half holds queued packets or a transmission in progress.
  /// (Whether the *source* may fire is the Network's question, via
  /// TrafficSource::next_fire_cycle.)
  bool inject_busy() const;
  /// Ejection half holds undrained flits.
  bool eject_busy() const;

  bool idle() const;
  NodeId node() const { return node_; }
  TrafficSource& source() { return *source_; }
  const TrafficSource& source() const { return *source_; }

 private:
  /// The packet one message class is transmitting, segmented in place at
  /// activation; vc < 0 = none.
  struct ActiveTx {
    FlitList flits;
    int next = 0;
    int vc = -1;
    bool active() const { return vc >= 0; }
  };

  PacketKind classify(const Packet& pkt) const;
  void account_new_packet(const Packet& pkt, Cycle now);
  void enqueue_for_send(Packet pkt);
  bool try_activate(MsgClass mc);
  bool can_send(MsgClass mc) const;
  void send_flit(MsgClass mc, Cycle now);

  NodeId node_;
  const MeshGeometry& geom_;
  RouterConfig router_cfg_;
  EnergyCounters& energy_;
  Metrics& metrics_;
  TrafficSource* source_;
  const FaultState* faults_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  Trace* trace_out_ = nullptr;
  WakeHook wake_inject_;
  Channels ch_;

  DownstreamState ds_;  // router Local input port credits / free VCs
  VecDeque<Packet> queue_[kNumMsgClasses];
  ActiveTx active_[kNumMsgClasses];
  RoundRobinArbiter mc_rr_{kNumMsgClasses};

  // Ejection buffers, one FIFO per VC of the router's Local output. Bounded
  // by the VC depth (credit protocol), so fixed rings suffice.
  std::vector<RingBuffer<Flit, kMaxVcDepth>> rx_vcs_;
  RoundRobinArbiter rx_rr_{1};
};

}  // namespace noc
