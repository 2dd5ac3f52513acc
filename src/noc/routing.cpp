#include "noc/routing.hpp"

#include <bit>

#include "common/assert.hpp"

namespace noc {

PortDir opposite(PortDir out) {
  switch (out) {
    case PortDir::North: return PortDir::South;
    case PortDir::East: return PortDir::West;
    case PortDir::South: return PortDir::North;
    case PortDir::West: return PortDir::East;
    case PortDir::Local: return PortDir::Local;
  }
  return PortDir::Local;
}

Coord neighbor_coord(Coord c, PortDir out) {
  switch (out) {
    case PortDir::North: return {c.x, c.y + 1};
    case PortDir::East: return {c.x + 1, c.y};
    case PortDir::South: return {c.x, c.y - 1};
    case PortDir::West: return {c.x - 1, c.y};
    case PortDir::Local: return c;
  }
  return c;
}

uint8_t RouteSet::request_vector() const {
  uint8_t v = 0;
  for (int i = 0; i < kNumPorts; ++i)
    if (port_dests[static_cast<size_t>(i)].any()) v |= uint8_t{1} << i;
  return v;
}

int RouteSet::fanout() const { return std::popcount(request_vector()); }

RouteSet xy_tree_route(const MeshGeometry& geom, NodeId here, DestMask dests) {
  NOC_EXPECTS(dests.any());
  RouteSet rs;
  const Coord c = geom.coord(here);
  // Iterate set bits directly: O(destinations) instead of O(nodes), which
  // matters for unicasts on large-k meshes.
  dests.for_each([&](int n) {
    const Coord d = geom.coord(n);
    if (d.x > c.x) {
      rs[PortDir::East].set(n);
    } else if (d.x < c.x) {
      rs[PortDir::West].set(n);
    } else if (d.y > c.y) {
      rs[PortDir::North].set(n);
    } else if (d.y < c.y) {
      rs[PortDir::South].set(n);
    } else {
      rs[PortDir::Local].set(n);
    }
  });
  return rs;
}

RouteSet yx_tree_route(const MeshGeometry& geom, NodeId here, DestMask dests) {
  NOC_EXPECTS(dests.any());
  RouteSet rs;
  const Coord c = geom.coord(here);
  dests.for_each([&](int n) {
    const Coord d = geom.coord(n);
    if (d.y > c.y) {
      rs[PortDir::North].set(n);
    } else if (d.y < c.y) {
      rs[PortDir::South].set(n);
    } else if (d.x > c.x) {
      rs[PortDir::East].set(n);
    } else if (d.x < c.x) {
      rs[PortDir::West].set(n);
    } else {
      rs[PortDir::Local].set(n);
    }
  });
  return rs;
}

PortDir xy_route(const MeshGeometry& geom, NodeId here, NodeId dest) {
  const RouteSet rs = xy_tree_route(geom, here, MeshGeometry::node_mask(dest));
  for (int i = 0; i < kNumPorts; ++i)
    if (rs.port_dests[static_cast<size_t>(i)].any()) return port_dir(i);
  NOC_ASSERT(false);
  return PortDir::Local;
}

}  // namespace noc
