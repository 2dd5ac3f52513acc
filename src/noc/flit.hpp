#pragma once
// Flit: the flow-control unit moving through the network (paper Sec 2.1).
//
// Flits are 64-bit on the chip; here the struct additionally carries the
// bookkeeping the hardware encodes in head-flit fields and side-band wires:
// the destination mask (multicast), message class, sequence number within
// the packet, and the generation timestamp for the latency statistics.
//
// A Flit is copied at every buffer write, switch traversal, channel send and
// lookahead, so it is kept to exactly one 64-byte cache line: only fields
// something reads, stored at their narrowest width, largest first.

#include <cstdint>
#include <limits>

#include "noc/geometry.hpp"
#include "sim/tickable.hpp"

namespace noc {

/// Message classes avoid request/response protocol deadlock in
/// cache-coherent multicores (paper Sec 3). Requests are single-flit
/// (coherence requests/acks), responses are 5-flit (cache-line data).
enum class MsgClass : uint8_t { Request = 0, Response = 1 };
constexpr int kNumMsgClasses = 2;

enum class FlitType : uint8_t { Head, Body, Tail, HeadTail };

/// Per-packet routing class under the routing-policy subsystem
/// (noc/route_policy.hpp, docs/ROUTING.md). Stamped at injection from the
/// network's RoutePolicy; selects both the routing function applied at
/// each hop and the VC lane the packet may occupy, which is what keeps
/// mixed-policy traffic deadlock-free. Escape marks a MinimalAdaptive
/// packet that fell through to the dimension-ordered escape lane -- the
/// class is sticky from that hop on (the escape subnetwork must stay
/// acyclic end-to-end).
enum class RouteClass : uint8_t { XY = 0, YX = 1, Adaptive = 2, Escape = 3 };

inline bool is_head(FlitType t) {
  return t == FlitType::Head || t == FlitType::HeadTail;
}
inline bool is_tail(FlitType t) {
  return t == FlitType::Tail || t == FlitType::HeadTail;
}

using PacketId = uint64_t;

struct Flit {
  /// Destinations THIS copy is responsible for (1 bit for unicast; the
  /// packet's full set at injection). On a multicast fork each branch copy
  /// receives a disjoint partition, so no node is delivered to twice. This
  /// is the only destination field a flit carries -- matching the
  /// hardware, whose head flit holds one mask that each router rewrites at
  /// a fork; the packet-level full set lives in Packet::dest_mask
  /// (docs/SCALING.md).
  DestMask branch_mask;
  /// Logical packet this flit belongs to: the packet's own id, except for
  /// NIC-duplicated broadcast copies, which share the original broadcast's
  /// id so latency can be measured to the last delivered copy.
  PacketId logical_id = 0;
  /// Workload-level correlation tag carried end-to-end (the hardware encodes
  /// this in head-flit transaction-id fields). Closed-loop sources stamp a
  /// probe's id here and echo it in the response so the requester can match
  /// a delivery to the outstanding miss it completes. 0 = untagged.
  uint64_t tag = 0;
  /// Cycle the packet was created at the source NIC (includes source
  /// queueing in latency -- the paper's saturation definition needs this).
  Cycle gen_cycle = 0;
  int16_t src = 0;
  /// Position within the packet: 0 .. packet_len-1 (bounded by
  /// kMaxPacketFlits, noc/packet.hpp).
  int8_t seq = 0;
  int8_t packet_len = 1;
  /// VC id at the input port the flit is currently heading to / stored in
  /// (bounded by kMaxTotalVcs, noc/buffers.hpp).
  int8_t vc = -1;
  MsgClass mc = MsgClass::Request;
  FlitType type = FlitType::HeadTail;
  /// Routing class (see RouteClass above). Routers rewrite it on a fork /
  /// forward exactly like branch_mask: an Adaptive flit granted an escape
  /// VC continues downstream as Escape.
  RouteClass rc = RouteClass::XY;
};
static_assert(DestMask::kBits - 1 <=
                  std::numeric_limits<decltype(Flit::src)>::max(),
              "Flit::src must hold every node id");
static_assert(sizeof(Flit) == 64, "a Flit is one cache line");

/// Credit / VC-free signal returned upstream (paper Fig 1 "credit signals"):
/// every credit frees one buffer slot of `vc`.
struct Credit {
  int8_t vc = -1;  // bounded like Flit::vc
  /// The tail flit has left (or bypassed) the buffer: the VC itself is free
  /// for reallocation by the upstream VA.
  bool vc_free = false;
};

}  // namespace noc
