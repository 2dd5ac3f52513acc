// Fault-injection subsystem (noc/fault.hpp, docs/FAULTS.md): deterministic
// plan generation, the surviving-topology escape tree, fault-aware adaptive
// rerouting around dead links, drop accounting and its conservation law
// (generated == completed + dropped), the degraded-mesh throughput gate
// (adaptive vs xy), word-boundary faulted unicasts at k=12, and the
// randomized fault-schedule soak CI runs under TSan (FaultSoak.*, seed from
// FAULT_SOAK_SEED).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "noc/experiment.hpp"
#include "noc/fault.hpp"
#include "noc/network.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

Packet unicast(NodeId src, NodeId dest, PacketId id) {
  Packet p;
  p.id = id;
  p.src = src;
  p.dest_mask = MeshGeometry::node_mask(dest);
  return p;
}

void drain_with_drops(Network& net, Simulation& sim, Cycle bound) {
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
    net.nic(n).source().set_rate(0.0);
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, bound))
      << "faulted network failed to drain -- possible deadlock";
  EXPECT_EQ(net.metrics().total_generated(),
            net.metrics().total_completed() + net.metrics().total_dropped());
}

TEST(FaultPlan, RandomPlanIsDeterministic) {
  const MeshGeometry g(6);
  const FaultPlan a = make_random_fault_plan(g, 42, 3, 2, 100, 50);
  const FaultPlan b = make_random_fault_plan(g, 42, 3, 2, 100, 50);
  ASSERT_EQ(a.events.size(), b.events.size());
  // 3 kills + 2 degrades, each revived 50 cycles later.
  EXPECT_EQ(a.events.size(), 10u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].a, b.events[i].a);
    EXPECT_EQ(a.events[i].b, b.events[i].b);
  }
  // A different seed draws a different schedule.
  const FaultPlan c = make_random_fault_plan(g, 43, 3, 2, 100, 50);
  bool differs = false;
  for (size_t i = 0; i < a.events.size(); ++i)
    differs |= a.events[i].a != c.events[i].a || a.events[i].b != c.events[i].b;
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomPlanDrawsAPinnedSchedule) {
  // The draws are a pure function of the seed, identical on every
  // platform: campaign fault points and the degraded microbench rows
  // replay this exact schedule, so a change to the stream shows here.
  const FaultPlan p = make_random_fault_plan(MeshGeometry(4), 42, 3, 2, 100, 50);
  const FaultEvent want[] = {
      {100, FaultKind::LinkDown, 7, 11},
      {100, FaultKind::LinkDown, 1, 5},
      {100, FaultKind::LinkDown, 2, 3},
      {100, FaultKind::RouterDegrade, 4, 4},
      {100, FaultKind::RouterDegrade, 11, 11},
      {150, FaultKind::LinkUp, 7, 11},
      {150, FaultKind::LinkUp, 1, 5},
      {150, FaultKind::LinkUp, 2, 3},
      {150, FaultKind::RouterRestore, 4, 4},
      {150, FaultKind::RouterRestore, 11, 11},
  };
  ASSERT_EQ(p.events.size(), std::size(want));
  for (size_t i = 0; i < p.events.size(); ++i) {
    EXPECT_EQ(p.events[i].at, want[i].at) << "event " << i;
    EXPECT_EQ(p.events[i].kind, want[i].kind) << "event " << i;
    EXPECT_EQ(p.events[i].a, want[i].a) << "event " << i;
    EXPECT_EQ(p.events[i].b, want[i].b) << "event " << i;
  }
}

TEST(FaultState, PristineCombTreeShape) {
  // Epoch 0 of any non-empty plan is the full mesh; the escape tree is the
  // comb rooted at node 0 (up hops prefer South then West): columns drain
  // South to row 0, row 0 drains West to the root.
  const MeshGeometry g(4);
  FaultState fs;
  fs.init(g, FaultPlan{}.kill_link(1000, 5, 6));
  ASSERT_TRUE(fs.enabled());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_TRUE(fs.on_escape_tree(n));
    EXPECT_EQ(fs.escape_next(n, n), PortDir::Local);
  }
  EXPECT_EQ(fs.escape_next(5, 0), PortDir::South);   // (1,1) -> (1,0)
  EXPECT_EQ(fs.escape_next(1, 0), PortDir::West);    // row 0 spine
  EXPECT_EQ(fs.escape_next(0, 5), PortDir::East);    // down: 0 -> 1 -> 5
  EXPECT_EQ(fs.escape_next(1, 5), PortDir::North);
  EXPECT_EQ(fs.escape_next(15, 3), PortDir::South);  // column tooth
}

TEST(FaultState, KillAndReviveTrackEpochs) {
  const MeshGeometry g(4);
  FaultState fs;
  fs.init(g, FaultPlan{}.kill_link(100, 1, 2).revive_link(200, 1, 2));
  EXPECT_EQ(fs.epoch(), 0u);
  EXPECT_FALSE(fs.advance(99));
  EXPECT_FALSE(fs.port_dead(1, PortDir::East));
  EXPECT_TRUE(fs.advance(100));
  EXPECT_TRUE(fs.port_dead(1, PortDir::East));
  EXPECT_TRUE(fs.port_dead(2, PortDir::West));
  EXPECT_EQ(fs.epoch(), 1u);
  // The spine is cut east of node 1. The orientation is FIXED (up = toward
  // node 0), so spine nodes 2 and 3 lose their only up links and fall off
  // the tree even though the mesh stays connected; the columns above them
  // reattach westward.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const bool expect_on = n != 2 && n != 3;
    EXPECT_EQ(fs.on_escape_tree(n), expect_on) << "node " << n;
  }
  EXPECT_TRUE(fs.connected(0, 2));
  EXPECT_EQ(fs.escape_next(6, 0), PortDir::West);  // tooth reattached at 5
  EXPECT_TRUE(fs.advance(200));
  EXPECT_FALSE(fs.port_dead(1, PortDir::East));
  EXPECT_EQ(fs.epoch(), 2u);
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    EXPECT_TRUE(fs.on_escape_tree(n));
  EXPECT_EQ(fs.next_event_at(), kCycleNever);
}

TEST(FaultState, OffTreeAndDisconnectedNodes) {
  const MeshGeometry g(4);
  // Node 5 = (1,1): killing its South and West links leaves it connected
  // (via North/East) but off the escape tree -- both its "up" directions
  // are gone, so no up*/down* path can serve it.
  FaultState fs;
  fs.init(g, FaultPlan{}.kill_link(0, 5, 1).kill_link(0, 5, 4));
  fs.advance(0);
  EXPECT_TRUE(fs.connected(0, 5));
  EXPECT_FALSE(fs.on_escape_tree(5));
  EXPECT_FALSE(fs.escape_reachable(0, 5));
  EXPECT_FALSE(fs.escape_reachable(5, 0));
  // Corner node 15 = (3,3) has only two links; killing both disconnects it.
  FaultState cut;
  cut.init(g, FaultPlan{}.kill_link(0, 15, 14).kill_link(0, 15, 11));
  cut.advance(0);
  EXPECT_FALSE(cut.connected(0, 15));
  EXPECT_FALSE(cut.escape_reachable(0, 15));
  EXPECT_TRUE(cut.escape_reachable(0, 14));
}

TEST(Faults, AdaptiveReroutesAroundDeadLink) {
  // Kill the row-1 link 5-6 (not a tree edge) from cycle 0: 5 -> 6 and
  // 5 -> 7 have East as their only productive port, so adaptive must take
  // the surviving escape tree (down through row 0) and still deliver.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  cfg.fault.kill_link(0, 5, 6);
  Network net(cfg);
  Simulation sim(net);
  sim.run(1);  // let the cycle-0 kill apply before submitting
  net.nic(5).submit_packet(unicast(5, 6, 1));
  net.nic(5).submit_packet(unicast(5, 7, 2));
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 5000));
  EXPECT_EQ(net.metrics().total_completed(), 2);
  EXPECT_EQ(net.metrics().total_dropped(), 0);
}

TEST(Faults, UnreachableDestinationIsCountedDropNotHang) {
  // Corner node 15 fully cut off: packets toward it are refused at the
  // door, counted as drops, and the network stays live and drainable.
  for (RoutePolicy policy :
       {RoutePolicy::MinimalAdaptive, RoutePolicy::XY}) {
    SCOPED_TRACE(route_policy_name(policy));
    NetworkConfig cfg = NetworkConfig::proposed(4);
    cfg.router.routing = policy;
    cfg.traffic.offered_flits_per_node_cycle = 0.0;
    cfg.fault.kill_link(0, 15, 14).kill_link(0, 15, 11);
    Network net(cfg);
    Simulation sim(net);
    sim.run(1);  // let the cycle-0 kills apply before submitting
    net.nic(0).submit_packet(unicast(0, 15, 1));  // unreachable -> drop
    net.nic(0).submit_packet(unicast(0, 5, 2));   // untouched path
    ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 5000));
    EXPECT_EQ(net.metrics().total_completed(), 1);
    EXPECT_EQ(net.metrics().total_dropped(), 1);
    EXPECT_EQ(net.metrics().total_generated(),
              net.metrics().total_completed() + net.metrics().total_dropped());
  }
}

TEST(Faults, OffTreeDestinationDropsUnderAdaptive) {
  // Node 5 connected but off the escape tree (both up links dead): adaptive
  // cannot guarantee deadlock-free delivery, so the packet is dropped at
  // the door; a broadcast loses exactly that destination and completes the
  // rest.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  cfg.fault.kill_link(0, 5, 1).kill_link(0, 5, 4);
  Network net(cfg);
  Simulation sim(net);
  sim.run(1);  // let the cycle-0 kills apply before submitting
  net.nic(0).submit_packet(unicast(0, 5, 1));
  Packet bcast;
  bcast.id = 2;
  bcast.src = 0;
  bcast.dest_mask = MeshGeometry(4).all_nodes_mask();
  net.nic(0).submit_packet(std::move(bcast));
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 10000));
  // Unicast fully dropped; broadcast delivered 15 of 16 with 1 dropped.
  EXPECT_EQ(net.metrics().total_dropped(), 2);
  EXPECT_EQ(net.metrics().total_completed(), 0);
  EXPECT_EQ(net.metrics().total_generated(),
            net.metrics().total_completed() + net.metrics().total_dropped());
}

TEST(Faults, DegradedRouterStillDeliversEverything) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.15;
  cfg.fault.degrade_router(0, 5).degrade_router(0, 10);
  Network net(cfg);
  Simulation sim(net);
  sim.run(4000);
  EXPECT_GT(net.metrics().total_completed(), 0);
  drain_with_drops(net, sim, 30000);
  EXPECT_EQ(net.metrics().total_dropped(), 0);  // degrade slows, never cuts
}

TEST(Faults, KillReviveMidTrafficConservesPackets) {
  // Links die under live adaptive traffic at 1000 (epoch conversion of
  // in-flight escape branches), revive at 3000, die again at 5000 and stay
  // dead. Every generated packet must end completed or dropped.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.25;
  cfg.fault.kill_link(1000, 5, 6)
      .kill_link(1000, 9, 10)
      .revive_link(3000, 5, 6)
      .revive_link(3000, 9, 10)
      .kill_link(5000, 6, 7);
  Network net(cfg);
  Simulation sim(net);
  sim.run(7000);
  EXPECT_GT(net.metrics().total_completed(), 0);
  drain_with_drops(net, sim, 30000);
}

TEST(Faults, BroadcastTrafficSurvivesFaults) {
  // NIC-duplicated broadcasts (escape-class trees) across a kill/revive:
  // exercises the escape tree as a multicast route, not just unicast hops.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  cfg.traffic.offered_flits_per_node_cycle = 0.05;
  cfg.fault.kill_link(500, 5, 6).revive_link(2500, 5, 6);
  Network net(cfg);
  Simulation sim(net);
  sim.run(4000);
  EXPECT_GT(net.metrics().total_completed(), 0);
  drain_with_drops(net, sim, 30000);
}

TEST(Faults, AdaptiveSustainsTwiceXyThroughputWithTwoDeadLinks) {
  // The degraded-mesh headline (ISSUE acceptance): on an 8x8 uniform mesh
  // with the two central vertical links dead ((3,3)-(3,4), (4,3)-(4,4)),
  // fault-aware adaptive sustains >= 2x the delivered throughput of xy.
  // Dead vertical links are xy's worst case: y-phase packets wedge in the
  // center columns, turning packets back up into every row's East/West
  // VCs, and the tree saturation spreads until deliveries stop. Adaptive
  // routes around the cut and sustains the full offered load.
  const MeasureOptions opt{.warmup = 2000, .window = 4000};
  auto run = [&](RoutePolicy policy) {
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.router.routing = policy;
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.fault.kill_link(0, 27, 35).kill_link(0, 28, 36);
    return measure_point(cfg, 0.10, opt);
  };
  const PointResult adaptive = run(RoutePolicy::MinimalAdaptive);
  const PointResult xy = run(RoutePolicy::XY);
  // 0.10 offered on 64 nodes = 6.4 flits/cycle; adaptive sustains it.
  EXPECT_GT(adaptive.recv_flits_per_cycle, 5.0);
  EXPECT_GE(adaptive.recv_flits_per_cycle, 2.0 * xy.recv_flits_per_cycle)
      << "adaptive=" << adaptive.recv_flits_per_cycle
      << " xy=" << xy.recv_flits_per_cycle;
}

TEST(Faults, WordBoundarySeamUnicastsOnFaultedK12) {
  // k=12 puts DestMask seams at bits 63/64 and 127/128. Kill two links
  // that cut the XY paths of seam-straddling pairs; adaptive must deliver
  // every reachable seam unicast on the surviving topology.
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  // 63 = (3,5), 64 = (4,5): kill 63-64 itself plus 127-128 ((7,10)-(8,10)).
  cfg.fault.kill_link(0, 63, 64).kill_link(0, 127, 128);
  Network net(cfg);
  Simulation sim(net);
  PacketId id = 1;
  const std::pair<NodeId, NodeId> pairs[] = {
      {0, 63}, {0, 64}, {63, 64}, {64, 63}, {0, 127},
      {0, 128}, {127, 128}, {128, 127}, {143, 64}};
  for (const auto& [src, dest] : pairs)
    net.nic(src).submit_packet(unicast(src, dest, id++));
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 30000));
  EXPECT_EQ(net.metrics().total_completed(),
            static_cast<int64_t>(std::size(pairs)));
  EXPECT_EQ(net.metrics().total_dropped(), 0);
}

// ---------------------------------------------------------------------------
// Randomized fault-schedule soak: the CI fault-soak job runs this suite
// under TSan with FAULT_SOAK_SEED drawn per run (and echoed into the log so
// any failure reproduces locally with the same seed).

TEST(FaultSoak, RandomScheduleSoak) {
  uint64_t seed = 12345;
  if (const char* env = std::getenv("FAULT_SOAK_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  std::printf("[ FaultSoak ] FAULT_SOAK_SEED=%llu\n",
              static_cast<unsigned long long>(seed));

  NetworkConfig cfg = NetworkConfig::proposed(6);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.30;
  cfg.traffic.seed = seed;
  // Kill 3 links and degrade 2 routers at 1200, revive at 3700; then a
  // second, permanent wave from a derived seed at 5200.
  cfg.fault = make_random_fault_plan(MeshGeometry(6), seed, 3, 2, 1200, 2500);
  const FaultPlan second =
      make_random_fault_plan(MeshGeometry(6), seed ^ 0x9e3779b97f4a7c15ULL,
                             2, 1, 5200, 0);
  for (const FaultEvent& e : second.events) cfg.fault.events.push_back(e);

  Network net(cfg);
  Simulation sim(net);
  sim.run(1000);
  int64_t last = net.metrics().total_completed();
  for (int window = 0; window < 14; ++window) {
    sim.run(500);
    const int64_t done = net.metrics().total_completed();
    ASSERT_GT(done, last) << "no packet completed in 500-cycle window "
                          << window << " (seed " << seed << ")";
    last = done;
  }
  drain_with_drops(net, sim, 60000);
}

TEST(FaultSoak, SerialParallelBitIdenticalUnderSchedule) {
  // The soak's cross-check: the same randomized schedule, serial vs 3-span
  // parallel stepping, must agree bit-for-bit including the drop counts.
  uint64_t seed = 12345;
  if (const char* env = std::getenv("FAULT_SOAK_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  NetworkConfig cfg = NetworkConfig::proposed(6);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.seed = seed;
  cfg.fault = make_random_fault_plan(MeshGeometry(6), seed, 3, 1, 800, 1500);
  const MeasureOptions opt{.warmup = 600, .window = 2500};
  const PointResult serial = measure_point(cfg, 0.25, opt);
  cfg.step_threads = 3;
  const PointResult parallel = measure_point(cfg, 0.25, opt);
  EXPECT_EQ(serial.avg_latency, parallel.avg_latency);
  EXPECT_EQ(serial.recv_flits_per_cycle, parallel.recv_flits_per_cycle);
  EXPECT_EQ(serial.completed_packets, parallel.completed_packets);
  EXPECT_EQ(serial.dropped_packets, parallel.dropped_packets);
  EXPECT_EQ(serial.energy.vc_allocations, parallel.energy.vc_allocations);
  EXPECT_EQ(serial.energy.bypasses, parallel.energy.bypasses);
}

}  // namespace
}  // namespace noc
