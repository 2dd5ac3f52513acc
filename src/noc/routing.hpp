#pragma once
// Routing: dimension-ordered XY for unicasts and the deadlock-free
// dimension-ordered XY-tree for multicasts/broadcasts (paper Sec 3.3).
//
// The XY-tree partitions a flit's destination set by the current router
// position: destinations in columns east of the router leave East,
// west leave West; destinations in this column leave North/South by row;
// this node itself ejects Local. Because X is always resolved before Y the
// channel-dependency graph is acyclic (same argument as plain XY), and
// because partitions are disjoint no destination is covered twice.
//
// These trees assume a pristine mesh: they never consult the fault state,
// so on a degraded topology a dimension-ordered path that crosses a dead
// link simply stalls until revival. Fault-aware routing (surviving-topology
// escape trees, drop-at-the-door for unreachable destinations) lives in
// noc/fault.hpp and applies only to MinimalAdaptive -- see docs/FAULTS.md
// and docs/ROUTING.md "Escape routing on a faulted mesh".

#include <array>
#include <cstdint>

#include "common/bit_mask.hpp"
#include "noc/geometry.hpp"

namespace noc {

/// Router port directions. Local is the NIC port.
enum class PortDir : uint8_t { North = 0, East = 1, South = 2, West = 3, Local = 4 };
constexpr int kNumPorts = 5;

/// One bit per router port (bit i = port_dir(i)): claim sets, per-port wake
/// bits, branch request vectors (docs/PERF.md Layer 5).
using PortMask = BitMask<kNumPorts>;

inline int port_index(PortDir d) { return static_cast<int>(d); }
inline PortDir port_dir(int i) { return static_cast<PortDir>(i); }

/// Direction a flit ENTERS the neighbor when leaving through `out`.
PortDir opposite(PortDir out);

/// Neighbor coordinate one hop through `out` (North = +y).
Coord neighbor_coord(Coord c, PortDir out);

/// Result of route computation: the destination partition assigned to each
/// output port (0 = port unused). Index with port_index().
struct RouteSet {
  std::array<DestMask, kNumPorts> port_dests{};

  DestMask& operator[](PortDir d) { return port_dests[port_index(d)]; }
  DestMask operator[](PortDir d) const { return port_dests[port_index(d)]; }

  /// 5-bit output-port request vector as in the paper's mSA-I.
  uint8_t request_vector() const;
  int fanout() const;  // number of requested ports
};

/// Compute the XY-tree route for `dests` at router `here`. Works for
/// unicast (single-bit mask) as plain XY routing.
RouteSet xy_tree_route(const MeshGeometry& geom, NodeId here, DestMask dests);

/// YX variant (Y resolved first): the mirror-image deadlock-free tree.
/// The paper blames part of its throughput gap on "XY routing imbalance";
/// this exists to quantify that claim (and carries O1TURN's YX
/// subnetwork; the policy layer lives in noc/route_policy.hpp).
RouteSet yx_tree_route(const MeshGeometry& geom, NodeId here, DestMask dests);

/// Plain XY next-hop for a unicast destination (convenience wrapper).
PortDir xy_route(const MeshGeometry& geom, NodeId here, NodeId dest);

}  // namespace noc
