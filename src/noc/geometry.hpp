#pragma once
// kx x ky mesh geometry: node ids, coordinates, Manhattan distances, and
// the destination-set bit masks used by the multicast machinery.
//
// Node ids are row-major: id = y * kx + x. Destination sets are DestMask
// multi-word bitsets (bit i = node i, see common/dest_mask.hpp), which caps
// the mesh at DestMask::kCapacity = 256 nodes: square meshes up to k <= 16,
// covering the paper's 4x4 chip, the 8x8 comparisons of Table 2, and the
// large-k scaling study (docs/SCALING.md). Rectangular kx x ky shapes are
// capacity-checked against the same bound (groundwork for non-square
// networks; the Network itself still builds square meshes).

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/dest_mask.hpp"

namespace noc {

using NodeId = int;

/// Largest mesh radix a DestMask can address.
constexpr int kMaxMeshRadix = 16;
static_assert(kMaxMeshRadix * kMaxMeshRadix <= DestMask::kCapacity);
static_assert((kMaxMeshRadix + 1) * (kMaxMeshRadix + 1) > DestMask::kCapacity);

struct Coord {
  int x = 0;
  int y = 0;

  friend bool operator==(const Coord&, const Coord&) = default;
};

class MeshGeometry {
 public:
  /// Square k x k mesh (every existing caller).
  explicit MeshGeometry(int k);
  /// Rectangular kx x ky mesh, capacity-checked against
  /// DestMask::kCapacity (e.g. 4x8 for the rectangular routing tests).
  MeshGeometry(int kx, int ky);

  /// Radix of a SQUARE mesh; asserts on rectangular geometries so square
  /// assumptions (bisection cuts, transpose) cannot silently misapply.
  int k() const {
    NOC_EXPECTS(kx_ == ky_);
    return kx_;
  }
  int kx() const { return kx_; }
  int ky() const { return ky_; }
  int num_nodes() const { return kx_ * ky_; }

  NodeId id(Coord c) const;
  NodeId id(int x, int y) const { return id(Coord{x, y}); }
  Coord coord(NodeId n) const;
  bool valid(Coord c) const;

  int manhattan(NodeId a, NodeId b) const;

  /// Distance from `src` to its furthest node (broadcast completion metric,
  /// Fig 9 of the paper).
  int furthest_distance(NodeId src) const;

  /// Mask with every node set (broadcast destination set, self included --
  /// Table 1 counts ejection load k^2 R, i.e. self-delivery included).
  DestMask all_nodes_mask() const;

  /// Mask for a single node.
  static DestMask node_mask(NodeId n) { return DestMask::bit(n); }

  /// All node ids present in `mask`.
  std::vector<NodeId> nodes_in(DestMask mask) const;

  /// Exact average hop count under uniform random unicast (src != dst),
  /// by enumeration. Used to cross-check Table 1's printed formula.
  double exact_avg_unicast_hops() const;

  /// Exact average distance-to-furthest over all sources (broadcast),
  /// by enumeration. Cross-checks Table 1's printed broadcast formula.
  double exact_avg_broadcast_hops() const;

 private:
  int kx_;
  int ky_;
};

}  // namespace noc
