#include <gtest/gtest.h>

#include "noc/geometry.hpp"

namespace noc {
namespace {

TEST(Geometry, IdCoordRoundTrip) {
  MeshGeometry g(4);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_EQ(g.id(g.coord(n)), n);
}

TEST(Geometry, RowMajorLayout) {
  MeshGeometry g(4);
  EXPECT_EQ(g.id(0, 0), 0);
  EXPECT_EQ(g.id(3, 0), 3);
  EXPECT_EQ(g.id(0, 1), 4);
  EXPECT_EQ(g.id(3, 3), 15);
}

TEST(Geometry, Manhattan) {
  MeshGeometry g(4);
  EXPECT_EQ(g.manhattan(g.id(0, 0), g.id(3, 3)), 6);
  EXPECT_EQ(g.manhattan(g.id(1, 2), g.id(1, 2)), 0);
  EXPECT_EQ(g.manhattan(g.id(2, 1), g.id(0, 1)), 2);
}

TEST(Geometry, FurthestDistanceCorners) {
  MeshGeometry g(4);
  EXPECT_EQ(g.furthest_distance(g.id(0, 0)), 6);  // opposite corner
  EXPECT_EQ(g.furthest_distance(g.id(1, 1)), 4);  // center-ish
  EXPECT_EQ(g.furthest_distance(g.id(3, 0)), 6);
}

TEST(Geometry, AllNodesMask) {
  MeshGeometry g(4);
  EXPECT_EQ(g.all_nodes_mask(), DestMask{0xFFFF});
  MeshGeometry g2(2);
  EXPECT_EQ(g2.all_nodes_mask(), DestMask{0xF});
}

TEST(Geometry, NodesInMask) {
  MeshGeometry g(4);
  const DestMask m = MeshGeometry::node_mask(3) | MeshGeometry::node_mask(9);
  const auto nodes = g.nodes_in(m);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 3);
  EXPECT_EQ(nodes[1], 9);
}

TEST(Geometry, LargeKMasksSpanWords) {
  // Multi-word DestMask: the 12x12 all-nodes mask is 144 bits (two full
  // words plus 16 bits of the third), and per-node masks round-trip across
  // the word seams.
  MeshGeometry g(12);
  const DestMask all = g.all_nodes_mask();
  EXPECT_EQ(all.count(), 144);
  EXPECT_EQ(all.word(0), ~uint64_t{0});
  EXPECT_EQ(all.word(1), ~uint64_t{0});
  EXPECT_EQ(all.word(2), 0xFFFFull);
  EXPECT_EQ(all.word(3), 0ull);
  for (NodeId n : {0, 63, 64, 127, 128, 143}) {
    const DestMask m = MeshGeometry::node_mask(n);
    EXPECT_EQ(m.count(), 1);
    EXPECT_EQ(m.lowest(), n);
    EXPECT_TRUE(all.test(n));
    const auto nodes = g.nodes_in(m);
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0], n);
  }
  // k=16 fills the capacity exactly.
  MeshGeometry g16(16);
  EXPECT_EQ(g16.all_nodes_mask().count(), DestMask::kBits);
  EXPECT_EQ(g16.all_nodes_mask(), DestMask::first_n(256));
}

TEST(DestMaskOps, IterationAndSetAlgebra) {
  DestMask m;
  for (int n : {3, 63, 64, 190, 255}) m.set(n);
  EXPECT_EQ(m.count(), 5);
  std::vector<int> seen;
  m.for_each([&](int n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<int>{3, 63, 64, 190, 255}));
  EXPECT_EQ(m.lowest(), 3);
  m.clear(3);
  EXPECT_EQ(m.lowest(), 63);
  m.clear(64);
  EXPECT_FALSE(m.test(64));
  const DestMask a = DestMask::bit(63) | DestMask::bit(200);
  EXPECT_EQ((m & a), DestMask::bit(63));
  EXPECT_EQ(m.andnot(a), DestMask::bit(190) | DestMask::bit(255));
  EXPECT_EQ(DestMask::first_n(130).count(), 130);
  EXPECT_TRUE(DestMask::first_n(130).test(129));
  EXPECT_FALSE(DestMask::first_n(130).test(130));
}

class GeometryKTest : public ::testing::TestWithParam<int> {};

TEST_P(GeometryKTest, FurthestIsMaxOverNodes) {
  MeshGeometry g(GetParam());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    int want = 0;
    for (NodeId d = 0; d < g.num_nodes(); ++d)
      want = std::max(want, g.manhattan(s, d));
    EXPECT_EQ(g.furthest_distance(s), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeometryKTest,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16));

TEST(RectGeometry, FourByEightLayout) {
  // Rectangular groundwork: 4 columns x 8 rows, row-major ids with the
  // x-stride = kx (NOT the row count).
  MeshGeometry g(4, 8);
  EXPECT_EQ(g.kx(), 4);
  EXPECT_EQ(g.ky(), 8);
  EXPECT_EQ(g.num_nodes(), 32);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 4; ++x) {
      const NodeId n = g.id(x, y);
      EXPECT_EQ(n, y * 4 + x);
      EXPECT_EQ(g.coord(n), (Coord{x, y}));
    }
  EXPECT_TRUE(g.valid(Coord{3, 7}));
  EXPECT_FALSE(g.valid(Coord{4, 0}));  // x bound is kx, not ky
  EXPECT_FALSE(g.valid(Coord{0, 8}));
  EXPECT_TRUE(MeshGeometry(8, 4).valid(Coord{7, 3}));
}

TEST(RectGeometry, DistancesAndMasks) {
  MeshGeometry g(4, 8);
  EXPECT_EQ(g.manhattan(g.id(0, 0), g.id(3, 7)), 10);
  // Corner-to-corner dominates from every node; center minimizes it.
  EXPECT_EQ(g.furthest_distance(g.id(0, 0)), 10);
  EXPECT_EQ(g.furthest_distance(g.id(3, 7)), 10);
  EXPECT_EQ(g.furthest_distance(g.id(2, 4)), 2 + 4);
  EXPECT_EQ(g.all_nodes_mask().count(), 32);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    int want = 0;
    for (NodeId d = 0; d < g.num_nodes(); ++d)
      want = std::max(want, g.manhattan(s, d));
    EXPECT_EQ(g.furthest_distance(s), want);
  }
}

TEST(RectGeometry, CapacityBoundedShapes) {
  // Any shape fits as long as the node count does: a 2x128 strip is the
  // DestMask capacity exactly; 16x16 remains the square maximum.
  EXPECT_EQ(MeshGeometry(2, 128).num_nodes(), DestMask::kBits);
  EXPECT_EQ(MeshGeometry(128, 2).num_nodes(), DestMask::kBits);
  EXPECT_EQ(MeshGeometry(16, 16).num_nodes(), 256);
}

}  // namespace
}  // namespace noc
