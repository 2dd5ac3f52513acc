#pragma once
// Packet descriptors and segmentation into flits (paper Sec 2.1: a packet is
// a head flit with the destination, body flits, and a tail flit; single-flit
// packets exist where one flit is both head and tail).

#include <limits>
#include <vector>

#include "common/inline_vec.hpp"
#include "noc/flit.hpp"

namespace noc {

struct Packet {
  PacketId id = 0;
  NodeId src = 0;
  DestMask dest_mask;
  MsgClass mc = MsgClass::Request;
  int length = 1;  // flits
  Cycle gen_cycle = 0;
  /// For NIC-level broadcast duplication (no router multicast support): the
  /// logical broadcast this copy belongs to, used so latency is measured to
  /// the LAST delivered copy. 0 when the packet is its own logical packet.
  PacketId logical_id = 0;
  /// Workload correlation tag copied into every flit (see Flit::tag).
  uint64_t tag = 0;
  /// Routing class copied into every flit (see Flit::rc). Sources leave it
  /// at the default; the NIC stamps it from the network's RoutePolicy at
  /// submit time (route_class_for_packet), so trace records and externally
  /// submitted packets pick up whatever policy the network runs.
  RouteClass rc = RouteClass::XY;

  PacketId effective_logical_id() const { return logical_id ? logical_id : id; }
};

/// Globally-unique packet ids from (node, per-node counter): the node sits
/// in the high bits so sources on different nodes can never collide, and
/// ids are always non-zero -- which Flit::tag relies on as its untagged
/// sentinel. Every TrafficSource family allocates ids through this.
inline PacketId make_packet_id(NodeId node, uint64_t& next_local_id) {
  return ((static_cast<PacketId>(node) + 1) << 40) | next_local_id++;
}

/// Paper packet sizes (Fig 2 table): 1-flit requests, 5-flit responses.
constexpr int kRequestPacketLen = 1;
constexpr int kResponsePacketLen = 5;

inline int default_packet_length(MsgClass mc) {
  return mc == MsgClass::Request ? kRequestPacketLen : kResponsePacketLen;
}

/// Upper bound on flits per packet (paper max is the 5-flit response).
constexpr int kMaxPacketFlits = 8;
static_assert(kMaxPacketFlits <=
                  std::numeric_limits<decltype(Flit::packet_len)>::max() &&
              kMaxPacketFlits <= std::numeric_limits<decltype(Flit::seq)>::max(),
              "Flit::seq/packet_len must hold every packet length");
using FlitList = InlineVec<Flit, kMaxPacketFlits>;

/// Segment a packet into `out` without allocating (the NIC's injection
/// path).
void segment_packet_into(const Packet& p, FlitList& out);

/// Convenience wrapper returning a heap vector (tests / offline tools).
std::vector<Flit> segment_packet(const Packet& p);

}  // namespace noc
