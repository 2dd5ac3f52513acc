#pragma once
// Deterministic fault injection for the mesh datapath (docs/FAULTS.md).
//
// A FaultPlan is a seeded, cycle-stamped schedule of events -- kill a link,
// degrade a router's arbiters to half rate, revive either after N cycles --
// that Network applies at cycle boundaries (Network::apply_faults, the very
// first thing Network::step does in every stepping mode, so the schedule
// commutes with activity gating and span decomposition). The plan is part
// of NetworkConfig and campaign manifests hash its generating parameters
// like any other knob (src/campaign/manifest.cpp).
//
// FaultState is the network-resident view: per-router dead-port masks and
// degrade flags, surviving-topology connectivity, and the up*/down* escape
// tree the MinimalAdaptive policy's Duato escape lane re-routes over (the
// deadlock argument lives in docs/ROUTING.md "Escape routing on a faulted
// mesh"). Everything here is preallocated at init: advancing the schedule
// and recomputing the tables in the middle of a measured window never
// touches the heap (the steady-state zero-allocation invariant holds for
// faulted networks, tests/test_zero_alloc.cpp).

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "noc/geometry.hpp"
#include "noc/routing.hpp"
#include "sim/tickable.hpp"

namespace noc {

enum class FaultKind : uint8_t {
  LinkDown = 0,      // bidirectional link (a, b) stops accepting new packets
  LinkUp = 1,        // revive a previously killed link
  RouterDegrade = 2, // router a's allocators run at half rate (odd cycles idle)
  RouterRestore = 3, // undo RouterDegrade
};

const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  Cycle at = 0;
  FaultKind kind = FaultKind::LinkDown;
  NodeId a = 0;  // link endpoint / degraded router
  NodeId b = 0;  // other link endpoint (ignored for router events)
};

/// An ordered schedule of fault events. Events are applied in (cycle,
/// insertion-order) order; the builder methods return *this so plans read
/// as chains. The plan is pure data -- copying a NetworkConfig copies it.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  FaultPlan& kill_link(Cycle at, NodeId a, NodeId b) {
    events.push_back({at, FaultKind::LinkDown, a, b});
    return *this;
  }
  FaultPlan& revive_link(Cycle at, NodeId a, NodeId b) {
    events.push_back({at, FaultKind::LinkUp, a, b});
    return *this;
  }
  FaultPlan& degrade_router(Cycle at, NodeId r) {
    events.push_back({at, FaultKind::RouterDegrade, r, r});
    return *this;
  }
  FaultPlan& restore_router(Cycle at, NodeId r) {
    events.push_back({at, FaultKind::RouterRestore, r, r});
    return *this;
  }
};

/// Seeded deterministic schedule: kill `links` distinct mesh links and
/// degrade `degraded_routers` distinct routers at `kill_at`; when
/// `revive_after` > 0, revive everything `revive_after` cycles later. The
/// same (geometry, seed, counts) always yields the same plan, on every
/// platform -- campaign hashing and the CI fault soak depend on that.
FaultPlan make_random_fault_plan(const MeshGeometry& geom, uint64_t seed,
                                 int links, int degraded_routers,
                                 Cycle kill_at, Cycle revive_after);

/// Network-resident fault state: the applied prefix of a FaultPlan plus the
/// derived routing tables for the surviving topology.
///
/// Escape routing uses a spanning tree of the surviving mesh whose edges
/// are oriented by a FIXED potential (a node's Manhattan distance from node
/// 0), so every tree path is a sequence of "up" hops (toward node 0)
/// followed by "down" hops. Because the orientation never changes across
/// fault epochs, the union of the escape routing functions of ALL epochs is
/// acyclic -- packets in flight across a topology change cannot close a
/// dependency cycle (docs/ROUTING.md has the full argument). With no
/// faults in the plan the FaultState is disabled and the router keeps the
/// exact pre-fault XY escape, bit for bit.
class FaultState {
 public:
  FaultState() = default;

  /// Sort the plan, size every table for `geom`, and compute the epoch-0
  /// topology (a plan whose first event is at cycle 1000 still routes its
  /// escape lane over the up*/down* tree from cycle 0: the escape function
  /// is fixed per run, only the surviving topology underneath it changes).
  void init(const MeshGeometry& geom, const FaultPlan& plan);

  /// False when the plan is empty: every query below is then unused and
  /// the datapath keeps its pristine behavior.
  bool enabled() const { return enabled_; }

  /// Apply every event stamped <= now. Returns true when any event fired
  /// this call. Allocation-free after init().
  bool advance(Cycle now);

  /// Cycle of the next unapplied event (kCycleNever when exhausted).
  Cycle next_event_at() const {
    return cursor_ < events_.size() ? events_[cursor_].at : kCycleNever;
  }

  /// Monotone counter bumped on every topology change (link events).
  uint64_t epoch() const { return epoch_; }

  /// Applied-event cursor into the sorted schedule: events_[i] for
  /// i < cursor() have fired. Bracketing advance() with cursor() reads is
  /// how the telemetry layer records exactly the events one step applied.
  size_t cursor() const { return cursor_; }
  const FaultEvent& event(size_t i) const {
    return events_[i];
  }

  // --- surviving-topology queries (valid only when enabled()) -----------
  bool port_dead(NodeId n, PortDir p) const {
    return dead_[static_cast<size_t>(n)].test(port_index(p));
  }
  bool degraded(NodeId n) const {
    return degraded_[static_cast<size_t>(n)] != 0;
  }
  /// Same connected component of the surviving mesh (the reachability
  /// predicate for the oblivious policies' injection filter).
  bool connected(NodeId a, NodeId b) const {
    return comp_[static_cast<size_t>(a)] == comp_[static_cast<size_t>(b)];
  }
  /// Node is spanned by the escape tree. A node all of whose "up" links
  /// (West / South) died can be connected yet off-tree; packets that
  /// cannot reach the escape lane are dropped rather than risk deadlock.
  bool on_escape_tree(NodeId n) const {
    return on_tree_[static_cast<size_t>(n)] != 0;
  }
  bool escape_reachable(NodeId src, NodeId dest) const {
    return on_escape_tree(src) && on_escape_tree(dest);
  }
  /// Next hop of the tree path here -> dest; Local when here == dest;
  /// PortDir(kEscapeUnreachable) sentinel never escapes this API -- callers
  /// must check escape_reachable() (or on_escape_tree) first.
  PortDir escape_next(NodeId here, NodeId dest) const {
    const int8_t p = next_[static_cast<size_t>(here) * n_ +
                           static_cast<size_t>(dest)];
    NOC_EXPECTS(p >= 0);
    return port_dir(p);
  }
  /// Partition `dests` by tree next hop at `here` (the fault-mode
  /// replacement for the XY multicast tree on the escape lane).
  /// Destinations with no tree path are returned in *unreachable -- the
  /// router converts them into counted drops.
  RouteSet escape_tree_route(NodeId here, const DestMask& dests,
                             DestMask* unreachable) const;

 private:
  void apply_event(const FaultEvent& e);
  void recompute();

  bool enabled_ = false;
  int n_ = 0;
  int kx_ = 0;
  int ky_ = 0;
  std::vector<FaultEvent> events_;  // stable-sorted by cycle
  size_t cursor_ = 0;
  uint64_t epoch_ = 0;
  std::vector<PortMask> dead_;          // per node, dead output ports
  std::vector<int16_t> link_down_;      // per (node, port): down-event depth
  std::vector<uint8_t> degraded_;
  std::vector<int16_t> degrade_depth_;  // nested degrade/restore pairs
  std::vector<int32_t> comp_;           // surviving-component id
  std::vector<int32_t> bfs_;            // scratch queue (comp labeling)
  std::vector<int8_t> parent_;          // port toward tree parent; -1 root/off
  std::vector<uint8_t> on_tree_;
  std::vector<int8_t> next_;            // n*n next-hop table; -1 unreachable
};

}  // namespace noc
