#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "noc/traffic.hpp"

namespace noc {
namespace {

TrafficConfig base_cfg(TrafficPattern p, double rate = 0.2) {
  TrafficConfig c;
  c.pattern = p;
  c.offered_flits_per_node_cycle = rate;
  c.seed = 7;
  return c;
}

TEST(Traffic, BernoulliRateIsRespected) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, base_cfg(TrafficPattern::UniformRequest, 0.25), 3);
  int packets = 0;
  const int cycles = 40000;
  for (Cycle t = 0; t < cycles; ++t)
    if (gen.generate(t)) ++packets;
  EXPECT_NEAR(packets / static_cast<double>(cycles), 0.25, 0.02);
}

TEST(Traffic, MixedPaperComposition) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, base_cfg(TrafficPattern::MixedPaper, 0.4), 5);
  int bcast = 0, ureq = 0, uresp = 0, total = 0;
  for (Cycle t = 0; t < 60000; ++t) {
    auto p = gen.generate(t);
    if (!p) continue;
    ++total;
    if (p->dest_mask.count() > 1) {
      ++bcast;
      EXPECT_EQ(p->mc, MsgClass::Request);
      EXPECT_EQ(p->length, 1);
    } else if (p->mc == MsgClass::Response) {
      ++uresp;
      EXPECT_EQ(p->length, 5);
    } else {
      ++ureq;
      EXPECT_EQ(p->length, 1);
    }
  }
  ASSERT_GT(total, 1000);
  EXPECT_NEAR(bcast / static_cast<double>(total), 0.50, 0.03);
  EXPECT_NEAR(ureq / static_cast<double>(total), 0.25, 0.03);
  EXPECT_NEAR(uresp / static_cast<double>(total), 0.25, 0.03);
  // Offered flit accounting: avg 2 flits per logical packet.
  EXPECT_DOUBLE_EQ(gen.avg_flits_per_packet(), 2.0);
}

TEST(Traffic, BroadcastMaskIncludesSelfByDefault) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, base_cfg(TrafficPattern::BroadcastOnly, 0.5), 6);
  for (Cycle t = 0; t < 100; ++t) {
    if (auto p = gen.generate(t)) {
      EXPECT_EQ(p->dest_mask, g.all_nodes_mask());
      EXPECT_EQ(p->dest_mask.count(), 16);
    }
  }
}

TEST(Traffic, UnicastNeverTargetsSelfAndIsRoughlyUniform) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, base_cfg(TrafficPattern::UniformRequest, 0.9), 9);
  std::map<NodeId, int> dests;
  int total = 0;
  for (Cycle t = 0; t < 30000; ++t) {
    if (auto p = gen.generate(t)) {
      const NodeId d = g.nodes_in(p->dest_mask).front();
      EXPECT_NE(d, 9);
      ++dests[d];
      ++total;
    }
  }
  EXPECT_EQ(dests.size(), 15u);
  for (auto& [d, c] : dests)
    EXPECT_NEAR(c / static_cast<double>(total), 1.0 / 15.0, 0.02);
}

TEST(Traffic, IdenticalPrbsSynchronizesInjections) {
  MeshGeometry g(4);
  auto cfg = base_cfg(TrafficPattern::MixedPaper, 0.1);
  cfg.identical_prbs = true;
  OpenLoopSource a(g, cfg, 0), b(g, cfg, 11);
  for (Cycle t = 0; t < 5000; ++t) {
    auto pa = a.generate(t), pb = b.generate(t);
    EXPECT_EQ(pa.has_value(), pb.has_value()) << "cycle " << t;
    if (pa && pb) {
      // Same packet type chip-wide...
      EXPECT_EQ(pa->mc, pb->mc);
      EXPECT_EQ(pa->dest_mask.count() > 1,
                pb->dest_mask.count() > 1);
    }
  }
}

TEST(Traffic, IndependentSeedsDesynchronize) {
  MeshGeometry g(4);
  auto cfg = base_cfg(TrafficPattern::UniformRequest, 0.1);
  OpenLoopSource a(g, cfg, 0), b(g, cfg, 11);
  int same = 0, events = 0;
  for (Cycle t = 0; t < 20000; ++t) {
    const bool ia = a.generate(t).has_value();
    const bool ib = b.generate(t).has_value();
    if (ia || ib) ++events;
    if (ia && ib) ++same;
  }
  // Coincidence rate should be ~R^2/(2R - R^2) ~ 5%, not ~100%.
  EXPECT_LT(same / static_cast<double>(events), 0.15);
}

TEST(Traffic, PermutationPatterns) {
  MeshGeometry g(4);
  for (auto pat : {TrafficPattern::Transpose, TrafficPattern::BitComplement,
                   TrafficPattern::Tornado, TrafficPattern::NearestNeighbor}) {
    OpenLoopSource gen(g, base_cfg(pat, 0.9), 6);
    for (Cycle t = 0; t < 200; ++t) {
      if (auto p = gen.generate(t)) {
        EXPECT_EQ(p->dest_mask.count(), 1);
        EXPECT_TRUE((p->dest_mask & MeshGeometry::node_mask(6)).none())
            << traffic_pattern_name(pat) << " targeted self";
      }
    }
  }
}

TEST(Traffic, TransposeDiagonalStaysSilent) {
  MeshGeometry g(4);
  // Node (1,1) = id 5 is on the diagonal: transpose maps it to itself.
  OpenLoopSource gen(g, base_cfg(TrafficPattern::Transpose, 0.9), 5);
  for (Cycle t = 0; t < 500; ++t) EXPECT_FALSE(gen.generate(t).has_value());
}

// Destination histogram over many unicast draws; shared by the PRBS-mode
// regression tests below.
std::map<NodeId, int> dest_histogram(TrafficConfig cfg, NodeId node,
                                     int cycles, int* total_out) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, cfg, node);
  std::map<NodeId, int> dests;
  int total = 0;
  for (Cycle t = 0; t < cycles; ++t) {
    if (auto p = gen.generate(t)) {
      ++dests[g.nodes_in(p->dest_mask).front()];
      ++total;
    }
  }
  *total_out = total;
  return dests;
}

TEST(Traffic, SyncedPrbsDestinationsAreUnbiased) {
  // Regression for the synchronized-PRBS destination bug: draws 0 and 1
  // both mapped to node+1, so one destination carried 2x probability. The
  // fixed mapping draws from n-1 and must be uniform over all 15 others.
  auto cfg = base_cfg(TrafficPattern::UniformRequest, 0.9);
  cfg.identical_prbs = true;
  int total = 0;
  const NodeId node = 9;
  const auto dests = dest_histogram(cfg, node, 30000, &total);
  ASSERT_GT(total, 20000);
  EXPECT_EQ(dests.size(), 15u);
  EXPECT_EQ(dests.count(node), 0u);
  for (const auto& [d, c] : dests)
    EXPECT_NEAR(c / static_cast<double>(total), 1.0 / 15.0, 0.02)
        << "destination " << d << " over/under-weighted";
}

TEST(Traffic, SyncedPrbsDrawsFormAPermutation) {
  // All 16 generators share one PRBS stream; at every synchronized fire the
  // relative mapping must scatter them onto 16 DISTINCT destinations (the
  // chip's permutation property the bias was breaking).
  MeshGeometry g(4);
  auto cfg = base_cfg(TrafficPattern::UniformRequest, 0.9);
  cfg.identical_prbs = true;
  std::vector<OpenLoopSource> gens;
  for (NodeId n = 0; n < 16; ++n) gens.emplace_back(g, cfg, n);
  int fires = 0;
  for (Cycle t = 0; t < 2000; ++t) {
    DestMask seen;
    int count = 0;
    for (auto& gen : gens) {
      if (auto p = gen.generate(t)) {
        seen |= p->dest_mask;
        ++count;
      }
    }
    if (count == 0) continue;
    ASSERT_EQ(count, 16);  // synchronized: all fire together
    EXPECT_EQ(seen.count(), 16) << "destination collision at " << t;
    ++fires;
  }
  EXPECT_GT(fires, 500);
}

TEST(Traffic, NonSyncedDestinationsStayUniform) {
  // The independent-stream path must be untouched by the fix: uniform over
  // the 15 non-self destinations (histogram twin of the synced test).
  int total = 0;
  const auto dests = dest_histogram(
      base_cfg(TrafficPattern::UniformRequest, 0.9), 9, 30000, &total);
  ASSERT_GT(total, 20000);
  EXPECT_EQ(dests.size(), 15u);
  for (const auto& [d, c] : dests)
    EXPECT_NEAR(c / static_cast<double>(total), 1.0 / 15.0, 0.02);
}

TEST(Traffic, NearestNeighborReflectsAtTheEastEdge) {
  // The east-edge column used to wrap to x=0: a (k-1)-hop packet on a mesh
  // with no wraparound link. It must now reflect to its west neighbor, so
  // every node emits genuine 1-hop traffic.
  MeshGeometry g(4);
  for (NodeId n = 0; n < 16; ++n) {
    OpenLoopSource gen(g, base_cfg(TrafficPattern::NearestNeighbor, 0.9), n);
    for (Cycle t = 0; t < 100; ++t) {
      if (auto p = gen.generate(t)) {
        const NodeId d = g.nodes_in(p->dest_mask).front();
        EXPECT_EQ(g.manhattan(n, d), 1) << "node " << n << " -> " << d;
        const Coord c = g.coord(n);
        EXPECT_EQ(d, c.x + 1 < g.k() ? g.id(c.x + 1, c.y)
                                     : g.id(c.x - 1, c.y));
      }
    }
  }
}

TEST(Traffic, RowPatternsStayInTheRowOfARectangularMesh) {
  // Tornado and nearest-neighbor move only along x, so they run on a 4x8
  // mesh: every node sends, to a node of its own row other than itself.
  MeshGeometry g(4, 8);
  for (auto pat : {TrafficPattern::Tornado, TrafficPattern::NearestNeighbor}) {
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      OpenLoopSource gen(g, base_cfg(pat, 0.9), n);
      int sent = 0;
      for (Cycle t = 0; t < 50; ++t) {
        if (auto p = gen.generate(t)) {
          ++sent;
          const NodeId d = g.nodes_in(p->dest_mask).front();
          EXPECT_NE(d, n) << traffic_pattern_name(pat);
          EXPECT_EQ(g.coord(d).y, g.coord(n).y)
              << traffic_pattern_name(pat) << " node " << n << " -> " << d;
        }
      }
      EXPECT_GT(sent, 0) << traffic_pattern_name(pat) << " node " << n;
    }
  }
}

TEST(TrafficDeathTest, TransposeOnARectangularMeshFailsAtConstruction) {
  // Transpose swaps x and y: on a 4x8 mesh it stops when the source is
  // built, naming the pattern, not midway through a run.
  MeshGeometry g(4, 8);
  EXPECT_DEATH(OpenLoopSource(g, base_cfg(TrafficPattern::Transpose), 0),
               "Transpose");
}

TEST(Traffic, GeneratorToleratesSkippedCyclesBelowNextFire) {
  // The gating contract: calling generate() only at next_fire_cycle() must
  // yield the same fire cycles and packets as calling it every cycle.
  MeshGeometry g(4);
  auto cfg = base_cfg(TrafficPattern::MixedPaper, 0.05);
  cfg.identical_prbs = true;
  OpenLoopSource dense(g, cfg, 3), sparse(g, cfg, 3);
  Cycle next = 0;
  for (Cycle t = 0; t < 20000; ++t) {
    auto pd = dense.generate(t);
    if (t < next) {
      ASSERT_FALSE(pd.has_value()) << "next_fire_cycle missed a fire at " << t;
      continue;
    }
    auto ps = sparse.generate(t);
    ASSERT_EQ(pd.has_value(), ps.has_value()) << "cycle " << t;
    if (pd) {
      EXPECT_EQ(pd->dest_mask, ps->dest_mask);
      EXPECT_EQ(pd->mc, ps->mc);
      EXPECT_EQ(pd->gen_cycle, ps->gen_cycle);
    }
    next = sparse.next_fire_cycle(t + 1);
  }
}

TEST(Traffic, PacketIdsAreUniquePerNodeAndMonotone) {
  MeshGeometry g(4);
  OpenLoopSource gen(g, base_cfg(TrafficPattern::UniformRequest, 0.9), 2);
  PacketId last = 0;
  for (Cycle t = 0; t < 1000; ++t) {
    if (auto p = gen.generate(t)) {
      EXPECT_GT(p->id, last);
      last = p->id;
    }
  }
}

}  // namespace
}  // namespace noc
