#pragma once
// Virtual-channel buffering and credit-based flow control state.
//
// Paper configuration (Sec 3.3 / Fig 2): per input port, 2 message classes
// over 6 VCs -- Request: 4 VCs x 1 flit deep, Response: 2 VCs x 3 flits deep
// (10 x 64b latches per port). Upstream side (an output port, or a NIC's
// injection stage) tracks per-VC credits and a free-VC queue per message
// class for VC allocation.
//
// All state here lives in fixed-capacity inline containers (bounds below):
// the hardware's latch FIFOs and free-VC queues are statically sized, and
// mirroring that keeps the per-cycle datapath free of heap allocation
// (docs/PERF.md).

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "common/bit_mask.hpp"
#include "common/inline_vec.hpp"
#include "common/ring_buffer.hpp"
#include "noc/flit.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

namespace noc {

/// Static bounds for the inline VC state. The paper's router uses depths
/// 1 and 3 over 6 VCs; the bounds leave headroom for ablation configs.
constexpr int kMaxVcDepth = 8;
constexpr int kMaxTotalVcs = 16;

/// One bit per VC id of a single port (downstream free/credit sets, SA-I
/// eligibility vectors). kMaxTotalVcs <= 32 so the arbiters can consume
/// word 0 directly.
using VcMask = BitMask<kMaxTotalVcs>;
static_assert(kMaxTotalVcs <= 32, "arbiters consume VcMask as one word");
static_assert(kMaxTotalVcs - 1 <= std::numeric_limits<decltype(Flit::vc)>::max(),
              "Flit::vc must hold every VC id");
static_assert(kMaxTotalVcs - 1 <=
                  std::numeric_limits<decltype(Credit::vc)>::max(),
              "Credit::vc must hold every VC id");

/// One bit per (input port, VC id) pair of a whole router, laid out
/// structure-of-arrays: bit p * kMaxTotalVcs + v. The router's busy-VC set
/// lives in one of these, so "which ports hold work" and "how many VCs are
/// busy" are word ops instead of 5x16 object walks (docs/PERF.md Layer 5).
using VcSetMask = BitMask<kNumPorts * kMaxTotalVcs>;

/// VC lanes partition each message class's VCs for route-class isolation
/// (noc/route_policy.hpp, docs/ROUTING.md): lane Ordered carries only
/// dimension-ordered-XY traffic (O1TURN's XY subnetwork, the adaptive
/// policy's escape subnetwork, multicast trees), lane Free the rest
/// (O1TURN's YX subnetwork, adaptive traffic). Policies that need no
/// partition allocate with Any, which spans both lanes and behaves exactly
/// like the pre-lane single free-VC pool.
enum class VcLane : int8_t { Any = -1, Ordered = 0, Free = 1 };
constexpr int kNumVcLanes = 2;

/// VC organization shared by every input port in the network.
struct VcConfig {
  int vcs_per_mc[kNumMsgClasses] = {4, 2};
  int depth_per_mc[kNumMsgClasses] = {1, 3};

  int total_vcs() const { return vcs_per_mc[0] + vcs_per_mc[1]; }
  int total_buffers() const {
    return vcs_per_mc[0] * depth_per_mc[0] + vcs_per_mc[1] * depth_per_mc[1];
  }
  /// First VC id of a message class (VC ids are global per port).
  int vc_base(MsgClass mc) const {
    return mc == MsgClass::Request ? 0 : vcs_per_mc[0];
  }
  MsgClass mc_of_vc(int vc) const {
    NOC_EXPECTS(vc >= 0 && vc < total_vcs());
    return vc < vcs_per_mc[0] ? MsgClass::Request : MsgClass::Response;
  }
  int depth_of_vc(int vc) const {
    return depth_per_mc[static_cast<int>(mc_of_vc(vc))];
  }

  /// Lane split within a message class: the first ceil(n/2) VCs form the
  /// Ordered lane, the floor(n/2) rest the Free lane (an odd pool favours
  /// the ordered/escape side, which must never be empty).
  int lane_vcs(MsgClass mc, VcLane lane) const {
    NOC_EXPECTS(lane != VcLane::Any);
    const int n = vcs_per_mc[static_cast<int>(mc)];
    return lane == VcLane::Free ? n / 2 : n - n / 2;
  }
  VcLane lane_of_vc(int vc) const {
    const MsgClass mc = mc_of_vc(vc);
    return vc - vc_base(mc) < lane_vcs(mc, VcLane::Ordered) ? VcLane::Ordered
                                                            : VcLane::Free;
  }
  /// True when every message class populates both lanes -- the requirement
  /// for lane-splitting routing policies (route_policy_uses_lanes).
  bool lanes_available() const {
    for (int m = 0; m < kNumMsgClasses; ++m)
      if (lane_vcs(static_cast<MsgClass>(m), VcLane::Free) == 0) return false;
    return true;
  }
};

/// One multicast branch of the packet currently holding an input VC:
/// the output port it forks to, the destination partition, the downstream
/// VC allocated by VA, and per-branch send progress.
struct Branch {
  DestMask dests;
  PortDir out = PortDir::Local;
  int8_t ds_vc = -1;     // downstream VC (VA result); -1 = not yet allocated
  int8_t next_seq = 0;   // next flit sequence number to send on this branch
  bool tail_sent = false;
  /// Fault-mode drop branch (docs/FAULTS.md): `dests` cannot be reached on
  /// the surviving topology. The branch never allocates a VC or requests
  /// the switch; the router's per-tick fault sweep consumes its flits as if
  /// sent (one per cycle) and counts the tail as a dropped delivery, so the
  /// shared FIFO drains and sibling branches are never blocked. `out` is a
  /// meaningless placeholder.
  bool drop = false;

  bool needs_vc() const { return ds_vc < 0 && !drop; }
};
static_assert(kMaxTotalVcs - 1 <=
                      std::numeric_limits<decltype(Branch::ds_vc)>::max() &&
                  kMaxPacketFlits <=
                      std::numeric_limits<decltype(Branch::next_seq)>::max(),
              "Branch::ds_vc/next_seq must hold every VC id and packet length");
static_assert(sizeof(Branch) == 40, "mask first, narrow fields packed after");

/// A packet forks to at most one live branch per output port, plus at most
/// one fault-mode drop branch for unreachable destinations.
using BranchList = InlineVec<Branch, kNumPorts + 1>;

/// State of one input VC: the flit FIFO plus the active packet's branch
/// bookkeeping. The branch state is also used by fully-bypassed packets
/// whose flits never enter the FIFO (DESIGN.md Sec 3).
class InputVc {
 public:
  void configure(int depth) {
    NOC_EXPECTS(depth >= 1 && depth <= kMaxVcDepth);
    depth_ = depth;
  }

  bool busy() const { return busy_; }
  bool empty() const { return fifo_.empty(); }

  /// Allocate this VC to a packet and install its branches. The head's
  /// route class is latched for the packet's lifetime (VA consults it).
  void open_packet(const Flit& head, const BranchList& branches);

  /// Route class of the packet currently holding this VC.
  RouteClass rc() const { return rc_; }

  /// Logical id of the packet currently holding this VC (latched from the
  /// head at open_packet). Close sites use it to stamp telemetry hop-exit
  /// trace events after the FIFO has drained (docs/OBSERVABILITY.md).
  PacketId logical() const { return logical_; }

  /// Release the VC after the tail has been sent on every branch.
  void close_packet();

  /// Buffer write. The FIFO stores flits in seq order; front_seq tracks the
  /// seq of the flit at the FIFO head (flits below it already left).
  void push(const Flit& f);

  /// The flit with sequence number `seq`, which must still be buffered.
  const Flit& flit_at_seq(int seq) const;
  bool has_seq(int seq) const;

  /// Pop the front flit once every branch has sent it. Returns it.
  Flit pop_front();
  int front_seq() const { return front_seq_; }

  BranchList& branches() { return branches_; }
  const BranchList& branches() const { return branches_; }

  /// Smallest next_seq over unfinished branches == the seq currently being
  /// serviced; INT_MAX when all branches are done.
  int current_seq() const;

  /// True when all branches have sent the tail.
  bool all_branches_done() const;

  /// Flits in the packet holding this VC (latched from the head).
  int packet_len = 0;

 private:
  // Packet state and branch list before the FIFO: the per-cycle scans
  // (current_seq, serviceable_seq, the mSA-I walk) read these leading lines
  // and the FIFO's counters; the flit slots are touched only on buffer
  // write and read.
  PacketId logical_ = 0;
  int depth_ = 1;
  int front_seq_ = 0;
  bool busy_ = false;
  RouteClass rc_ = RouteClass::XY;
  BranchList branches_;
  RingBuffer<Flit, kMaxVcDepth> fifo_;
};

/// Upstream-side view of one downstream input port: per-VC credit counters
/// plus per-MC free-VC queues used by VA (paper Fig 1: "VC allocation from a
/// free VC queue at each output port").
class DownstreamState {
 public:
  void configure(const VcConfig& cfg);

  /// VA: take the least-recently-freed downstream VC of class `mc` in
  /// `lane`, or -1. Lane Any takes the class's least-recently-freed VC
  /// overall -- exactly the single FIFO the pre-lane router allocated from,
  /// so unrestricted policies keep their bit-identical allocation order.
  int allocate_vc(MsgClass mc, VcLane lane = VcLane::Any);
  /// A vc_free credit arrived: the downstream VC finished its packet.
  void release_vc(int vc);

  bool has_free_vc(MsgClass mc, VcLane lane = VcLane::Any) const {
    return (free_.word(0) & member_word(mc, lane)) != 0;
  }
  int free_vc_count(MsgClass mc, VcLane lane = VcLane::Any) const {
    return std::popcount(free_.word(0) & member_word(mc, lane));
  }

  /// Buffer credits currently available across `lane`'s VCs of `mc`, free
  /// or allocated -- the downstream-occupancy signal the MinimalAdaptive
  /// policy scores productive ports by. Maintained incrementally (one add
  /// per consume/return), not recomputed per query.
  int lane_credits(MsgClass mc, VcLane lane) const {
    const int m = static_cast<int>(mc);
    if (lane == VcLane::Any)
      return lane_credit_sum_[m][0] + lane_credit_sum_[m][1];
    return lane_credit_sum_[m][static_cast<int>(lane)];
  }

  int credits(int vc) const { return credits_[static_cast<size_t>(vc)]; }
  /// Mask-backed credits(vc) > 0: the hot predicate of serviceable_seq /
  /// the SA-II request build (bit v of credit_mask() tracks exactly
  /// credits(v) > 0; consume/return keep it in sync).
  bool has_credit(int vc) const { return credit_.test(vc); }
  void consume_credit(int vc);
  void return_credit(int vc);

  /// Incrementally-maintained availability masks (exposed so the
  /// randomized cross-checks in tests/test_bit_mask.cpp can diff them
  /// against a from-scratch recompute).
  VcMask free_mask() const { return free_; }
  VcMask credit_mask() const { return credit_; }

 private:
  /// Word-0 view of the (mc, lane) membership mask; lane Any spans both
  /// lanes of the class.
  uint64_t member_word(MsgClass mc, VcLane lane) const {
    const int m = static_cast<int>(mc);
    if (lane == VcLane::Any) return class_member_[m].word(0);
    return member_[m][static_cast<int>(lane)].word(0);
  }

  /// SoA availability state (docs/PERF.md Layer 5), the first 64 bytes:
  /// bit v of free_ <=> VC v is in its class's free list; bit v of credit_
  /// <=> credits_[v] > 0; member_/class_member_ are the static lane/class
  /// partitions.
  VcMask free_;
  VcMask credit_;
  VcMask member_[kNumMsgClasses][kNumVcLanes];
  VcMask class_member_[kNumMsgClasses];
  std::array<int, kMaxTotalVcs> credits_{};
  /// Mirrors sum(credits_ over lane members).
  int lane_credit_sum_[kNumMsgClasses][kNumVcLanes] = {};
  /// mc/lane of each VC id, precomputed at configure() (consume/return use
  /// them every credit event).
  int8_t mc_of_[kMaxTotalVcs] = {};
  int8_t lane_of_[kMaxTotalVcs] = {};
  /// Free VC ids of each message class in release order, least recently
  /// freed first. The masks answer the availability predicates, but
  /// allocation ORDER comes from these lists (a lane allocation takes the
  /// first entry of its lane), which is what keeps VC allocation
  /// bit-identical across gating/threading modes.
  InlineVec<int8_t, kMaxTotalVcs> free_order_[kNumMsgClasses];
  VcConfig cfg_;
};

}  // namespace noc
