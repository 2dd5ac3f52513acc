#include "noc/geometry.hpp"

#include <algorithm>
#include <cstdlib>

namespace noc {

// The k <= kMaxMeshRadix contract needs no separate check: for a square
// mesh it is exactly the delegated capacity bound (16^2 = DestMask::kBits).
MeshGeometry::MeshGeometry(int k) : MeshGeometry(k, k) {}

MeshGeometry::MeshGeometry(int kx, int ky) : kx_(kx), ky_(ky) {
  NOC_EXPECTS(kx >= 2 && ky >= 2);
  // The mask datapath addresses one bit per node: any shape fits as long
  // as the node count does (a 4x64 strip is as legal as 16x16).
  NOC_EXPECTS(kx * ky <= DestMask::kBits);
}

NodeId MeshGeometry::id(Coord c) const {
  NOC_EXPECTS(valid(c));
  return c.y * kx_ + c.x;
}

Coord MeshGeometry::coord(NodeId n) const {
  NOC_EXPECTS(n >= 0 && n < num_nodes());
  return Coord{n % kx_, n / kx_};
}

bool MeshGeometry::valid(Coord c) const {
  return c.x >= 0 && c.x < kx_ && c.y >= 0 && c.y < ky_;
}

int MeshGeometry::manhattan(NodeId a, NodeId b) const {
  const Coord ca = coord(a), cb = coord(b);
  return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

int MeshGeometry::furthest_distance(NodeId src) const {
  const Coord c = coord(src);
  const int dx = std::max(c.x, kx_ - 1 - c.x);
  const int dy = std::max(c.y, ky_ - 1 - c.y);
  return dx + dy;
}

DestMask MeshGeometry::all_nodes_mask() const {
  return DestMask::first_n(num_nodes());
}

std::vector<NodeId> MeshGeometry::nodes_in(DestMask mask) const {
  std::vector<NodeId> out;
  mask.for_each([&](int n) {
    if (n < num_nodes()) out.push_back(n);
  });
  return out;
}

}  // namespace noc
