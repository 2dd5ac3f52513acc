// Partition geometry for intra-network parallel stepping (docs/PERF.md
// Layer 4): every router/NIC/channel must be owned by exactly one span and
// the boundary-channel classification must be exact, over square and
// rectangular meshes, even and uneven span counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "noc/network.hpp"
#include "noc/partition.hpp"

namespace noc {
namespace {

TEST(SpanPartition, CoversEveryNodeExactlyOnceAcrossShapes) {
  for (int kx : {4, 5, 8, 12, 16}) {
    for (int ky : {4, 8, 16}) {
      const MeshGeometry geom(kx, ky);
      for (int workers = 1; workers <= 8; ++workers) {
        const int spans = SpanPartition::clamp_spans(geom, workers);
        ASSERT_GE(spans, 1);
        ASSERT_LE(spans, kx);
        const SpanPartition part(geom, spans);
        SCOPED_TRACE("kx=" + std::to_string(kx) + " ky=" + std::to_string(ky) +
                     " spans=" + std::to_string(spans));

        std::vector<int> owned(static_cast<size_t>(geom.num_nodes()), 0);
        for (int s = 0; s < part.num_spans(); ++s) {
          const auto [x0, x1] = part.columns_of(s);
          EXPECT_LT(x0, x1) << "empty span";
          for (NodeId node : part.nodes_of(s)) {
            EXPECT_EQ(part.span_of_node(node), s);
            ++owned[static_cast<size_t>(node)];
          }
        }
        for (NodeId node = 0; node < geom.num_nodes(); ++node)
          EXPECT_EQ(owned[static_cast<size_t>(node)], 1) << "node " << node;
      }
    }
  }
}

TEST(SpanPartition, SpansAreContiguousAndBalanced) {
  for (int kx : {4, 7, 13, 16}) {
    const MeshGeometry geom(kx, 4);
    for (int spans = 1; spans <= kx && spans <= 8; ++spans) {
      const SpanPartition part(geom, spans);
      int prev_end = 0;
      int min_w = kx, max_w = 0;
      for (int s = 0; s < spans; ++s) {
        const auto [x0, x1] = part.columns_of(s);
        EXPECT_EQ(x0, prev_end) << "gap or overlap before span " << s;
        prev_end = x1;
        min_w = std::min(min_w, x1 - x0);
        max_w = std::max(max_w, x1 - x0);
        for (int x = x0; x < x1; ++x) EXPECT_EQ(part.span_of_column(x), s);
      }
      EXPECT_EQ(prev_end, kx);
      // Uneven kx/spans divisions may differ by at most one column.
      EXPECT_LE(max_w - min_w, 1);
    }
  }
}

TEST(SpanPartition, CrossClassificationOnlyAtColumnBoundaries) {
  const MeshGeometry geom(8, 4);
  const SpanPartition part(geom, 3);  // columns [0,2) [2,5) [5,8)
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x + 1 < 8; ++x) {
      const NodeId a = geom.id(x, y), b = geom.id(x + 1, y);
      const bool boundary = (x + 1 == 2) || (x + 1 == 5);
      EXPECT_EQ(part.crosses(a, b), boundary) << "x=" << x << " y=" << y;
    }
    // North/South neighbours never cross a column span.
    if (y + 1 < 4) {
      for (int x = 0; x < 8; ++x)
        EXPECT_FALSE(part.crosses(geom.id(x, y), geom.id(x, y + 1)));
    }
  }
}

TEST(SpanPartition, ClampSpans) {
  const MeshGeometry geom(6, 6);
  EXPECT_EQ(SpanPartition::clamp_spans(geom, 0), 1);
  EXPECT_EQ(SpanPartition::clamp_spans(geom, 1), 1);
  EXPECT_EQ(SpanPartition::clamp_spans(geom, 4), 4);
  EXPECT_EQ(SpanPartition::clamp_spans(geom, 6), 6);
  EXPECT_EQ(SpanPartition::clamp_spans(geom, 99), 6);  // one per column max
}

// Mesh neighbours of `node` (2 to 4).
int degree(const MeshGeometry& geom, NodeId node) {
  const Coord c = geom.coord(node);
  int d = 0;
  for (const Coord n : {Coord{c.x + 1, c.y}, Coord{c.x - 1, c.y},
                        Coord{c.x, c.y + 1}, Coord{c.x, c.y - 1}})
    d += geom.valid(n) ? 1 : 0;
  return d;
}

// The Network-level ownership invariant: with step_threads > 1 every
// channel counts its in-flight messages into exactly one span -- the span
// of its receiver -- and the deferred (cross-span) subset is exactly 6
// channels per boundary-crossing adjacent router pair (flit + credit +
// lookahead, both directions) -- NIC and North/South channels never cross.
TEST(NetworkPartition, EveryChannelOwnedExactlyOnceAndBoundariesExact) {
  struct Case {
    int k, ky, step_threads;
  };
  for (const Case& c : {Case{4, 0, 2}, Case{4, 0, 4}, Case{6, 0, 4},
                        Case{8, 0, 3}, Case{4, 8, 2}, Case{5, 3, 4}}) {
    SCOPED_TRACE("k=" + std::to_string(c.k) + " ky=" + std::to_string(c.ky) +
                 " st=" + std::to_string(c.step_threads));
    NetworkConfig cfg = NetworkConfig::proposed(c.k);
    cfg.ky = c.ky;
    cfg.step_threads = c.step_threads;
    Network net(cfg);
    const int spans = net.num_step_spans();
    ASSERT_GT(spans, 1);

    // A channel's owner is the one span whose counter pair it points at.
    std::vector<int> owned(static_cast<size_t>(spans), 0);
    for (int i = 0; i < net.num_channels(); ++i) {
      const int s = net.channel_owner(i);
      ASSERT_GE(s, 0) << "channel " << i << " is owned by no span";
      ASSERT_LT(s, spans);
      ++owned[static_cast<size_t>(s)];
    }
    std::set<NodeId> nodes_seen;
    int cross_total = 0;
    for (int s = 0; s < spans; ++s) {
      // Every channel a span's nodes receive on, and no other: five per
      // node from its own NIC link (flit and credit both ways, plus the
      // injection lookahead) and three per incoming mesh link.
      int receives = 0;
      for (NodeId node : net.span_nodes(s)) {
        EXPECT_TRUE(nodes_seen.insert(node).second)
            << "node " << node << " in two spans";
        receives += 5 + 3 * degree(net.geom(), node);
      }
      EXPECT_EQ(owned[static_cast<size_t>(s)], receives) << "span " << s;
      cross_total += net.span_cross_channel_count(s);
    }
    EXPECT_EQ(static_cast<int>(nodes_seen.size()), net.geom().num_nodes());

    // Exact boundary census: each crossing E/W adjacency contributes 2
    // flit + 2 credit + 2 lookahead channels (proposed() has bypass).
    const int boundaries = spans - 1;
    EXPECT_EQ(cross_total, 6 * net.geom().ky() * boundaries);
  }
}

// Serial stepping is the one-span case of the same loop: one span owns
// every node and channel, and no channel is deferred.
TEST(NetworkPartition, SingleSpanIsSerial) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.step_threads = 1;
  Network net(cfg);
  EXPECT_EQ(net.num_step_spans(), 1);
  EXPECT_EQ(net.step_workers(), 1);
  EXPECT_EQ(static_cast<int>(net.span_nodes(0).size()),
            net.geom().num_nodes());
  for (int i = 0; i < net.num_channels(); ++i)
    EXPECT_EQ(net.channel_owner(i), 0) << "channel " << i;
  EXPECT_EQ(net.span_cross_channel_count(0), 0);
}

}  // namespace
}  // namespace noc
