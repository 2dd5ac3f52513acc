#pragma once
// Routing-policy subsystem: per-packet routing functions for unicasts on
// top of the paper's deadlock-free dimension-ordered multicast trees
// (docs/ROUTING.md).
//
// The chip hardwires XY. The paper blames part of its residual throughput
// gap on "XY routing imbalance", and bench/large_k_scaling.cpp quantifies
// that share growing with mesh radix. The policies here are the standard
// routing-level levers against it:
//
//   XY              -- the fabricated design (dimension-ordered, X first).
//   YX              -- the mirror tree (ablation, as before).
//   O1TURN          -- each unicast packet picks XY or YX deterministically
//                      from its id, halving worst-case channel load; the
//                      two orders run on disjoint VC lanes so each lane is
//                      an acyclic dimension-ordered subnetwork.
//   MinimalAdaptive -- per-hop productive-port choice by downstream credit
//                      occupancy on the Free lane, with a dimension-ordered
//                      XY escape on the Ordered lane (Duato's protocol) for
//                      deadlock freedom.
//
// Multicasts stay pinned to the dimension-ordered tree under every policy
// (faithful to the paper; adaptive multicast trees are not deadlock-free
// without far heavier machinery -- see docs/ROUTING.md). The per-packet
// RouteClass stamped at injection (route_class_for_packet) is what the
// datapath consumes: it selects both the routing function at each hop and
// the VC lane the packet may occupy (route_class_lane).
//
// Under a non-empty FaultPlan (docs/FAULTS.md) MinimalAdaptive becomes
// fault-aware: dead output ports drop out of the productive choice and the
// Ordered-lane escape hop comes from the surviving-topology spanning tree
// in noc/fault.hpp instead of escape_port() below (deadlock argument in
// docs/ROUTING.md "Escape routing on a faulted mesh"). The oblivious
// policies keep their static trees and stall on dead links until revival.

#include <optional>
#include <string_view>

#include "common/inline_vec.hpp"
#include "noc/buffers.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

namespace noc {

enum class RoutePolicy : uint8_t { XY = 0, YX = 1, O1Turn = 2, MinimalAdaptive = 3 };

const char* route_policy_name(RoutePolicy p);

/// Inverse of route_policy_name. Also accepts the aliases used on bench /
/// example command lines ("xy", "yx", "o1turn", "adaptive",
/// "minimal-adaptive").
std::optional<RoutePolicy> parse_route_policy(std::string_view name);

/// Policies that partition the VC pool into lanes (O1TURN's two orders,
/// MinimalAdaptive's escape class) need both lanes populated in every
/// message class: reject configs where a lane would be empty.
bool route_policy_uses_lanes(RoutePolicy p);

/// Route class stamped on a packet at injection. Multicasts are pinned to
/// the policy's ordered tree; O1TURN unicasts draw a deterministic coin
/// from the packet id (globally unique and identical in serial and
/// parallel runs, so the choice cannot depend on scheduling).
RouteClass route_class_for_packet(RoutePolicy policy, const Packet& pkt);

/// VC lane a packet of class `rc` may be allocated on output `out` under
/// `policy`. Local (ejection) is always Any: ejection channels are
/// terminal sinks the NIC drains unconditionally, so no channel-dependency
/// cycle can pass through them and restricting their lanes would only
/// waste ejection bandwidth. The Adaptive class maps to its PRIMARY lane
/// (Free); the escape fallback is requested explicitly by the router's VA
/// (see Router::allocate_branch_vcs).
VcLane route_class_lane(RoutePolicy policy, RouteClass rc, PortDir out);

/// Tree route for the ordered classes (XY / Escape use the XY tree, YX the
/// YX tree). The Adaptive class has no static tree -- the router picks the
/// port per hop from live credit state.
RouteSet class_tree_route(RouteClass rc, const MeshGeometry& geom,
                          NodeId here, DestMask dests);

/// Minimal (productive) output ports toward `dest`: the X-productive port
/// first, then the Y-productive one; empty only when dest == here.
using PortChoices = InlineVec<PortDir, 2>;
PortChoices productive_ports(const MeshGeometry& geom, NodeId here,
                             NodeId dest);

/// The escape hop toward `dest`: plain dimension-ordered XY (X before Y),
/// Local when dest == here. The escape subnetwork -- Ordered-lane VCs
/// reached only through this function -- is acyclic by the same argument
/// as the XY tree.
PortDir escape_port(const MeshGeometry& geom, NodeId here, NodeId dest);

}  // namespace noc
