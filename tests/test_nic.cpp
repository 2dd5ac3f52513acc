#include <gtest/gtest.h>

#include <vector>

#include "noc/experiment.hpp"
#include "noc/network.hpp"
#include "noc/nic.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

TEST(Nic, InjectsAtMostOneFlitPerCycle) {
  // Saturate one NIC's source queue with 5-flit responses and verify the
  // injection link never carries more than 1 flit/cycle and exactly
  // serializes the packets.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  for (int i = 0; i < 6; ++i) {
    Packet p;
    p.id = static_cast<PacketId>(100 + i);
    p.src = 0;
    p.dest_mask = MeshGeometry::node_mask(15);
    p.mc = MsgClass::Response;
    p.length = 5;
    p.gen_cycle = sim.now();
    net.nic(0).submit_packet(p);
  }
  net.metrics().begin_window(sim.now());
  EXPECT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 6; }, 500));
  net.metrics().end_window(sim.now());
  // 30 flits over >= 30 cycles of injection link time.
  EXPECT_EQ(net.metrics().received_flits(), 30);
  EXPECT_GE(sim.now(), 30);
}

TEST(Nic, RequestAndResponseInterleaveOnDistinctVcs) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  Packet req;
  req.id = 1;
  req.src = 0;
  req.dest_mask = MeshGeometry::node_mask(5);
  req.mc = MsgClass::Request;
  req.length = 1;
  req.gen_cycle = sim.now();
  Packet resp;
  resp.id = 2;
  resp.src = 0;
  resp.dest_mask = MeshGeometry::node_mask(5);
  resp.mc = MsgClass::Response;
  resp.length = 5;
  resp.gen_cycle = sim.now();
  net.nic(0).submit_packet(resp);
  net.nic(0).submit_packet(req);
  EXPECT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 2; }, 200));
  // The 1-flit request must not wait for the whole 5-flit response: it
  // interleaves on its own message class.
  EXPECT_LE(sim.now() - 3, 5 + 2 + 4 + 3);
}

TEST(Nic, DuplicatesBroadcastWithoutRouterMulticast) {
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  Packet p;
  p.id = 7;
  p.src = 5;
  p.dest_mask = net.geom().all_nodes_mask();
  p.gen_cycle = sim.now();
  net.metrics().begin_window(sim.now());
  net.nic(5).submit_packet(p);
  EXPECT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 1; }, 500));
  net.metrics().end_window(sim.now());
  // One logical completion; 16 flits received (15 network + 1 local copy).
  EXPECT_EQ(net.metrics().total_completed(), 1);
  EXPECT_EQ(net.metrics().received_flits(), 16);
  // 15 serialized injections on the source's injection link.
  EXPECT_EQ(net.energy().nic_link_traversals,
            15 /*inject*/ + 15 /*eject*/);
}

TEST(Nic, MulticastRouterSendsSingleFlit) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  Packet p;
  p.id = 7;
  p.src = 5;
  p.dest_mask = net.geom().all_nodes_mask();
  p.gen_cycle = sim.now();
  net.metrics().begin_window(sim.now());
  net.nic(5).submit_packet(p);
  EXPECT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 1; }, 500));
  net.metrics().end_window(sim.now());
  EXPECT_EQ(net.metrics().received_flits(), 16);
  // One injection; 16 ejections; 15 router-router links (spanning tree).
  EXPECT_EQ(net.energy().nic_link_traversals, 1 + 16);
  EXPECT_EQ(net.energy().link_traversals, 15);
}

TEST(Nic, BroadcastLatencyIsFurthestDelivery) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  MeshGeometry g(4);
  Packet p;
  p.id = 9;
  p.src = g.id(1, 1);  // furthest distance 4
  p.dest_mask = g.all_nodes_mask();
  p.gen_cycle = sim.now();
  net.metrics().begin_window(sim.now());
  net.nic(p.src).submit_packet(p);
  EXPECT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 1; }, 500));
  net.metrics().end_window(sim.now());
  EXPECT_EQ(net.metrics().avg_packet_latency(), 4 + 2);
}

// ---------------------------------------------------------------------------
// The copy stream of a NIC-duplicated broadcast (no router multicast, paper
// Sec 2.3). Copy i (from 1, ascending destinations) carries id
// (id ^ 0x5a5a5a5a) + (i << 56) and the broadcast's logical id, and its
// route class is re-stamped from that id, so under O1TURN the copy ids
// decide which copies take XY and which YX. These tests pin the stream the
// NIC injects, in content and in order.

/// Never fires: the tests below submit every packet by hand.
class SilentSource final : public TrafficSource {
 public:
  std::optional<Packet> generate(Cycle now) override {
    (void)now;
    return std::nullopt;
  }
};

/// One NIC wired to test-owned channels in place of its router. Every
/// injected flit is recorded and its credit returned at once (freeing the
/// VC on a tail), so the NIC sends one flit per cycle and run() returns
/// its injection link's flits in order.
class LoneNic {
 public:
  LoneNic(const NetworkConfig& cfg, NodeId node)
      : geom_(cfg.k),
        metrics_(geom_),
        nic_(node, geom_, cfg.router, &source_, energy_, metrics_) {
    nic_.connect({.flit_to_router = &to_router_,
                  .credit_from_router = &credits_});
  }

  void submit(PacketId id, NodeId src, const DestMask& dests) {
    Packet p;
    p.id = id;
    p.src = src;
    p.dest_mask = dests;
    p.gen_cycle = now_;
    nic_.submit_packet(p);
  }

  std::vector<Flit> run(Cycle cycles) {
    std::vector<Flit> sent;
    for (const Cycle end = now_ + cycles; now_ < end; ++now_) {
      nic_.tick_inject(now_);
      for (const Flit& f : to_router_.arrivals(now_ + 1)) {
        sent.push_back(f);
        credits_.send(now_, Credit{f.vc, is_tail(f.type)});
      }
    }
    return sent;
  }

 private:
  MeshGeometry geom_;
  EnergyCounters energy_;
  Metrics metrics_;
  SilentSource source_;
  FlitChannel to_router_{1};
  CreditChannel credits_{1};
  Nic nic_;
  Cycle now_ = 0;
};

TEST(Nic, DuplicatedCopiesLeaveInDestinationOrderBeforeLaterPackets) {
  // A unicast of the same class submitted right after the broadcast waits
  // for the broadcast's last copy. Broadcast id 7: copy i's O1TURN coin is
  // bit 0 of (7 ^ 0x5a5a5a5a) flipped by the (i << 56) term, so the copies
  // alternate XY, YX, XY, ... from copy 1.
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.router.routing = RoutePolicy::O1Turn;
  LoneNic h(cfg, 5);
  h.submit(7, 5, DestMask::first_n(16));
  h.submit(8, 5, MeshGeometry::node_mask(6));
  const std::vector<Flit> sent = h.run(40);
  ASSERT_EQ(sent.size(), 16u);
  size_t i = 0;
  for (NodeId d = 0; d < 16; ++d) {
    if (d == 5) continue;  // delivered locally at submit
    SCOPED_TRACE("copy to node " + std::to_string(d));
    EXPECT_EQ(sent[i].branch_mask, MeshGeometry::node_mask(d));
    EXPECT_EQ(sent[i].logical_id, 7u);
    EXPECT_EQ(sent[i].rc, i % 2 == 0 ? RouteClass::XY : RouteClass::YX);
    ++i;
  }
  EXPECT_EQ(sent[15].logical_id, 8u);
  EXPECT_EQ(sent[15].branch_mask, MeshGeometry::node_mask(6));
  EXPECT_EQ(sent[15].rc, RouteClass::XY);  // id 8: even
}

TEST(Nic, DuplicatedBroadcastLinkLoadsUnderO1Turn) {
  // The copies' XY/YX split decides which links carry them: every link
  // count of one broadcast from corner node 0 is pinned. The eight odd
  // copies (to nodes 1, 3, ..., 15) route XY and all leave East; of the
  // seven even ones, the copy to node 2 leaves East and six leave North.
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.router.routing = RoutePolicy::O1Turn;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  Packet p;
  p.id = 7;
  p.src = 0;
  p.dest_mask = net.geom().all_nodes_mask();
  p.gen_cycle = sim.now();
  net.metrics().begin_window(sim.now());
  net.nic(0).submit_packet(p);
  ASSERT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 1; }, 500));
  // Per node: flits out of its North, East, South, West and Local ports.
  constexpr int64_t kWant[16][kNumPorts] = {
      {6, 9, 0, 0, 0}, {3, 5, 0, 0, 1}, {0, 4, 0, 0, 1}, {3, 0, 0, 0, 1},
      {4, 1, 0, 0, 1}, {2, 1, 0, 0, 1}, {0, 0, 0, 0, 1}, {2, 0, 0, 0, 1},
      {2, 1, 0, 0, 1}, {1, 1, 0, 0, 1}, {0, 0, 0, 0, 1}, {1, 0, 0, 0, 1},
      {0, 1, 0, 0, 1}, {0, 1, 0, 0, 1}, {0, 0, 0, 0, 1}, {0, 0, 0, 0, 1}};
  for (NodeId n = 0; n < 16; ++n) {
    for (int port = 0; port < kNumPorts; ++port) {
      EXPECT_EQ(net.metrics().link_flits(n, port_dir(port)), kWant[n][port])
          << "node " << n << " port " << port;
    }
  }
  EXPECT_EQ(net.metrics().received_flits(), 16);
}

TEST(Nic, SelfPlusOneMulticastSendsOneRestampedCopy) {
  // {self, d} without router multicast: the self copy is local and the one
  // network copy is copy 1, id (7 ^ 0x5a5a5a5a) + (1 << 56), whose O1TURN
  // coin is the opposite of id 7's. So it routes XY where a packet still
  // carrying id 7 would route YX.
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.router.routing = RoutePolicy::O1Turn;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;
  Network net(cfg);
  Simulation sim(net);
  sim.run(3);
  MeshGeometry g(4);
  Packet p;
  p.id = 7;
  p.src = 0;
  p.dest_mask = MeshGeometry::node_mask(0) | MeshGeometry::node_mask(g.id(2, 2));
  p.gen_cycle = sim.now();
  net.metrics().begin_window(sim.now());
  net.nic(0).submit_packet(p);
  ASSERT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() >= 1; }, 500));
  EXPECT_EQ(net.metrics().received_flits(), 2);
  // XY from (0,0) to (2,2): East, East, North, North.
  EXPECT_EQ(net.metrics().link_flits(0, PortDir::East), 1);
  EXPECT_EQ(net.metrics().link_flits(g.id(1, 0), PortDir::East), 1);
  EXPECT_EQ(net.metrics().link_flits(g.id(2, 0), PortDir::North), 1);
  EXPECT_EQ(net.metrics().link_flits(g.id(2, 1), PortDir::North), 1);
  EXPECT_EQ(net.metrics().link_flits(g.id(2, 2), PortDir::Local), 1);
  EXPECT_EQ(net.energy().link_traversals, 4);
}

// Exact window results of the unicast baseline on the paper's Fig-5 mix
// under the two policies that read the copy ids (O1TURN's coin) or let
// copies roam (adaptive). No other golden covers NIC duplication there.
PointResult duplication_point(RoutePolicy policy) {
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.router.routing = policy;
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  return measure_point(cfg, 0.05, MeasureOptions{.warmup = 300, .window = 900});
}

TEST(Nic, DuplicationGoldenMixedO1Turn) {
  const PointResult r = duplication_point(RoutePolicy::O1Turn);
  EXPECT_EQ(r.completed_packets, 388);
  EXPECT_DOUBLE_EQ(r.avg_latency, 12822.0 / 388);
  EXPECT_EQ(r.p50_latency, 33);
  EXPECT_EQ(r.p99_latency, 92);
  EXPECT_EQ(r.max_latency, 140);
  EXPECT_EQ(r.energy.xbar_traversals, 12851);
  EXPECT_EQ(r.energy.link_traversals, 9334);
  EXPECT_EQ(r.energy.nic_link_traversals, 7015);
  EXPECT_EQ(r.energy.buffer_writes, 12835);
  EXPECT_EQ(r.energy.buffer_reads, 12851);
  EXPECT_EQ(r.energy.sa1_arbitrations, 16479);
  EXPECT_EQ(r.energy.sa2_arbitrations, 12850);
  EXPECT_EQ(r.energy.vc_allocations, 14532);
  EXPECT_EQ(r.energy.vc_active_cycles, 34996);
}

TEST(Nic, DuplicationGoldenMixedAdaptive) {
  const PointResult r = duplication_point(RoutePolicy::MinimalAdaptive);
  EXPECT_EQ(r.completed_packets, 389);
  EXPECT_DOUBLE_EQ(r.avg_latency, 10279.0 / 389);
  EXPECT_EQ(r.p50_latency, 27);
  EXPECT_EQ(r.p99_latency, 59);
  EXPECT_EQ(r.max_latency, 81);
  EXPECT_EQ(r.energy.xbar_traversals, 12814);
  EXPECT_EQ(r.energy.link_traversals, 9302);
  EXPECT_EQ(r.energy.nic_link_traversals, 7001);
  EXPECT_EQ(r.energy.buffer_writes, 12798);
  EXPECT_EQ(r.energy.buffer_reads, 12814);
  EXPECT_EQ(r.energy.sa1_arbitrations, 14475);
  EXPECT_EQ(r.energy.sa2_arbitrations, 12808);
  EXPECT_EQ(r.energy.vc_allocations, 14480);
  EXPECT_EQ(r.energy.vc_active_cycles, 29082);
}

}  // namespace
}  // namespace noc
