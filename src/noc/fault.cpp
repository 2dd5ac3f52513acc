#include "noc/fault.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace noc {

namespace {

struct Link {
  NodeId a = 0;
  NodeId b = 0;
};

/// Port from `a` toward its mesh neighbor `b` (row-major ids).
PortDir port_toward(int kx, NodeId a, NodeId b) {
  const int ax = a % kx, ay = a / kx;
  const int bx = b % kx, by = b / kx;
  if (bx == ax + 1 && by == ay) return PortDir::East;
  if (bx == ax - 1 && by == ay) return PortDir::West;
  if (by == ay + 1 && bx == ax) return PortDir::North;
  NOC_EXPECTS(by == ay - 1 && bx == ax);
  return PortDir::South;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::LinkDown: return "link-down";
    case FaultKind::LinkUp: return "link-up";
    case FaultKind::RouterDegrade: return "router-degrade";
    case FaultKind::RouterRestore: return "router-restore";
  }
  return "?";
}

FaultPlan make_random_fault_plan(const MeshGeometry& geom, uint64_t seed,
                                 int links, int degraded_routers,
                                 Cycle kill_at, Cycle revive_after) {
  const int kx = geom.kx(), ky = geom.ky();
  std::vector<Link> edges;
  for (NodeId id = 0; id < geom.num_nodes(); ++id) {
    const int x = id % kx, y = id / kx;
    if (x + 1 < kx) edges.push_back({id, id + 1});
    if (y + 1 < ky) edges.push_back({id, id + kx});
  }
  links = std::min<int>(links, static_cast<int>(edges.size()));
  degraded_routers = std::min(degraded_routers, geom.num_nodes());

  SplitMix64 rng(seed ? seed : 1);
  // Partial Fisher-Yates: the first `links` entries are a uniform distinct
  // sample, identically on every platform (no std::shuffle: libstdc++ and
  // libc++ disagree on the draw order).
  for (int i = 0; i < links; ++i) {
    const auto j =
        i + static_cast<int>(rng.next() % (edges.size() - i));
    std::swap(edges[static_cast<size_t>(i)], edges[static_cast<size_t>(j)]);
  }
  std::vector<NodeId> routers(static_cast<size_t>(geom.num_nodes()));
  for (NodeId id = 0; id < geom.num_nodes(); ++id)
    routers[static_cast<size_t>(id)] = id;
  for (int i = 0; i < degraded_routers; ++i) {
    const auto j =
        i + static_cast<int>(rng.next() % (routers.size() - i));
    std::swap(routers[static_cast<size_t>(i)],
              routers[static_cast<size_t>(j)]);
  }

  FaultPlan plan;
  for (int i = 0; i < links; ++i)
    plan.kill_link(kill_at, edges[static_cast<size_t>(i)].a,
                   edges[static_cast<size_t>(i)].b);
  for (int i = 0; i < degraded_routers; ++i)
    plan.degrade_router(kill_at, routers[static_cast<size_t>(i)]);
  if (revive_after > 0) {
    const Cycle up = kill_at + revive_after;
    for (int i = 0; i < links; ++i)
      plan.revive_link(up, edges[static_cast<size_t>(i)].a,
                       edges[static_cast<size_t>(i)].b);
    for (int i = 0; i < degraded_routers; ++i)
      plan.restore_router(up, routers[static_cast<size_t>(i)]);
  }
  return plan;
}

void FaultState::init(const MeshGeometry& geom, const FaultPlan& plan) {
  enabled_ = !plan.empty();
  n_ = geom.num_nodes();
  kx_ = geom.kx();
  ky_ = geom.ky();
  events_ = plan.events;
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  cursor_ = 0;
  epoch_ = 0;
  const auto n = static_cast<size_t>(n_);
  dead_.assign(n, PortMask{});
  link_down_.assign(n * kNumPorts, 0);
  degraded_.assign(n, 0);
  degrade_depth_.assign(n, 0);
  comp_.assign(n, 0);
  bfs_.assign(n, 0);
  parent_.assign(n, -1);
  on_tree_.assign(n, 0);
  next_.assign(n * n, -1);
  if (enabled_) {
    for (const FaultEvent& e : events_) {
      NOC_EXPECTS(e.a >= 0 && e.a < n_ && e.b >= 0 && e.b < n_);
      if (e.kind == FaultKind::LinkDown || e.kind == FaultKind::LinkUp)
        NOC_EXPECTS(MeshGeometry(kx_, ky_).manhattan(e.a, e.b) == 1);
    }
    recompute();
  }
}

bool FaultState::advance(Cycle now) {
  bool fired = false, topo_changed = false;
  while (cursor_ < events_.size() && events_[cursor_].at <= now) {
    const FaultEvent& e = events_[cursor_++];
    apply_event(e);
    fired = true;
    if (e.kind == FaultKind::LinkDown || e.kind == FaultKind::LinkUp)
      topo_changed = true;
  }
  if (topo_changed) {
    ++epoch_;
    recompute();
  }
  return fired;
}

void FaultState::apply_event(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::LinkDown:
    case FaultKind::LinkUp: {
      const int delta = e.kind == FaultKind::LinkDown ? 1 : -1;
      const PortDir ab = port_toward(kx_, e.a, e.b);
      const PortDir ba = port_toward(kx_, e.b, e.a);
      auto bump = [&](NodeId node, PortDir p) {
        int16_t& depth =
            link_down_[static_cast<size_t>(node) * kNumPorts +
                       static_cast<size_t>(port_index(p))];
        depth = static_cast<int16_t>(std::max(0, depth + delta));
        if (depth > 0)
          dead_[static_cast<size_t>(node)].set(port_index(p));
        else
          dead_[static_cast<size_t>(node)].clear(port_index(p));
      };
      bump(e.a, ab);
      bump(e.b, ba);
      break;
    }
    case FaultKind::RouterDegrade:
    case FaultKind::RouterRestore: {
      const int delta = e.kind == FaultKind::RouterDegrade ? 1 : -1;
      int16_t& depth = degrade_depth_[static_cast<size_t>(e.a)];
      depth = static_cast<int16_t>(std::max(0, depth + delta));
      degraded_[static_cast<size_t>(e.a)] = depth > 0 ? 1 : 0;
      break;
    }
  }
}

void FaultState::recompute() {
  const auto n = static_cast<size_t>(n_);
  auto live = [&](NodeId from, PortDir p) {
    return !dead_[static_cast<size_t>(from)].test(port_index(p));
  };

  // Connected components of the surviving mesh (BFS, preallocated queue).
  std::fill(comp_.begin(), comp_.end(), -1);
  for (NodeId root = 0; root < n_; ++root) {
    if (comp_[static_cast<size_t>(root)] >= 0) continue;
    int head = 0, tail = 0;
    bfs_[tail++] = root;
    comp_[static_cast<size_t>(root)] = root;
    while (head < tail) {
      const NodeId v = bfs_[head++];
      const int x = v % kx_, y = v / kx_;
      auto visit = [&](NodeId u, PortDir p) {
        if (live(v, p) && comp_[static_cast<size_t>(u)] < 0) {
          comp_[static_cast<size_t>(u)] = root;
          bfs_[tail++] = u;
        }
      };
      if (x + 1 < kx_) visit(v + 1, PortDir::East);
      if (x > 0) visit(v - 1, PortDir::West);
      if (y + 1 < ky_) visit(v + kx_, PortDir::North);
      if (y > 0) visit(v - kx_, PortDir::South);
    }
  }

  // The dimension-ordered spanning tree of the surviving topology: node 0
  // is the root; every other node attaches through a live "up" link (South
  // preferred, then West -- the pristine tree is the row-0 spine with one
  // column hanging off each spine node). Nodes are processed in ascending
  // (Manhattan level, id) order, which ascending id already is for these
  // two up directions, so a plain id scan suffices: both candidate parents
  // of v have smaller ids and are already decided.
  std::fill(parent_.begin(), parent_.end(), -1);
  std::fill(on_tree_.begin(), on_tree_.end(), 0);
  on_tree_[0] = 1;
  for (NodeId v = 1; v < n_; ++v) {
    const int x = v % kx_, y = v / kx_;
    if (y > 0 && live(v, PortDir::South) &&
        on_tree_[static_cast<size_t>(v - kx_)]) {
      parent_[static_cast<size_t>(v)] =
          static_cast<int8_t>(port_index(PortDir::South));
      on_tree_[static_cast<size_t>(v)] = 1;
    } else if (x > 0 && live(v, PortDir::West) &&
               on_tree_[static_cast<size_t>(v - 1)]) {
      parent_[static_cast<size_t>(v)] =
          static_cast<int8_t>(port_index(PortDir::West));
      on_tree_[static_cast<size_t>(v)] = 1;
    }
  }

  // Per-destination next-hop table: default "toward the root" (the up
  // phase), overwritten along the destination's ancestor chain with the
  // down hops. Tree paths are up* then down*, so the suffix of a path is
  // the path from its own node: per-hop table routing follows the whole
  // path consistently.
  std::fill(next_.begin(), next_.end(), -1);
  for (NodeId dest = 0; dest < n_; ++dest) {
    if (!on_tree_[static_cast<size_t>(dest)]) continue;
    int8_t* col = next_.data() + static_cast<size_t>(dest);
    for (NodeId v = 0; v < n_; ++v)
      if (on_tree_[static_cast<size_t>(v)])
        col[static_cast<size_t>(v) * n] = parent_[static_cast<size_t>(v)];
    col[static_cast<size_t>(dest) * n] =
        static_cast<int8_t>(port_index(PortDir::Local));
    NodeId child = dest;
    while (parent_[static_cast<size_t>(child)] >= 0) {
      const PortDir up = port_dir(parent_[static_cast<size_t>(child)]);
      const NodeId anc = child + (up == PortDir::South  ? -kx_
                                  : up == PortDir::West ? -1
                                  : up == PortDir::North ? kx_
                                                         : 1);
      col[static_cast<size_t>(anc) * n] =
          static_cast<int8_t>(port_index(opposite(up)));
      child = anc;
    }
  }
}

RouteSet FaultState::escape_tree_route(NodeId here, const DestMask& dests,
                                       DestMask* unreachable) const {
  RouteSet rs;
  *unreachable = DestMask{};
  const int8_t* row = next_.data() + static_cast<size_t>(here) * n_;
  dests.for_each([&](int dest) {
    // Self-delivery never touches the mesh: always routable, even when the
    // node itself fell off the escape tree.
    if (dest == here) {
      rs[PortDir::Local].set(dest);
      return;
    }
    const int8_t p = on_tree_[static_cast<size_t>(here)]
                         ? row[static_cast<size_t>(dest)]
                         : int8_t{-1};
    if (p < 0)
      unreachable->set(dest);
    else
      rs[port_dir(p)].set(dest);
  });
  return rs;
}

}  // namespace noc
