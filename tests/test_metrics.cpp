#include <gtest/gtest.h>

#include "noc/metrics.hpp"

namespace noc {
namespace {

Flit tail_flit(PacketId id, int seq = 0, int len = 1) {
  Flit f;
  f.logical_id = id;
  f.seq = seq;
  f.packet_len = len;
  f.type = seq == len - 1 ? (len == 1 ? FlitType::HeadTail : FlitType::Tail)
                          : (seq == 0 ? FlitType::Head : FlitType::Body);
  return f;
}

TEST(Metrics, SingleDeliveryLatency) {
  MeshGeometry g(4);
  Metrics m(g);
  m.begin_window(0);
  m.on_logical_packet(1, PacketKind::UnicastRequest, 10, 1);
  m.on_flit_received(1, tail_flit(1), 25);
  m.end_window(100);
  EXPECT_EQ(m.completed_packets(), 1);
  EXPECT_DOUBLE_EQ(m.avg_packet_latency(), 15.0);
  EXPECT_EQ(m.open_packets(), 0);
}

TEST(Metrics, BroadcastCompletesAtLastDelivery) {
  MeshGeometry g(4);
  Metrics m(g);
  m.begin_window(0);
  m.on_logical_packet(2, PacketKind::Broadcast, 0, 3);
  m.on_flit_received(2, tail_flit(2), 5);
  m.on_flit_received(2, tail_flit(2), 9);
  EXPECT_EQ(m.completed_packets(), 0);  // one destination still waiting
  m.on_flit_received(2, tail_flit(2), 14);
  EXPECT_EQ(m.completed_packets(), 1);
  m.end_window(50);
  EXPECT_DOUBLE_EQ(m.avg_packet_latency(), 14.0);  // latency to the LAST
  EXPECT_DOUBLE_EQ(m.latency_hist(PacketKind::Broadcast).mean(), 14.0);
}

TEST(Metrics, BodyFlitsCountTowardThroughputNotCompletion) {
  MeshGeometry g(4);
  Metrics m(g);
  m.begin_window(0);
  m.on_logical_packet(3, PacketKind::UnicastResponse, 0, 1);
  for (int s = 0; s < 5; ++s) m.on_flit_received(3, tail_flit(3, s, 5), s + 9);
  m.end_window(20);
  EXPECT_EQ(m.received_flits(), 5);
  EXPECT_EQ(m.completed_packets(), 1);
  EXPECT_DOUBLE_EQ(m.received_flits_per_cycle(), 0.25);
}

TEST(Metrics, DuplicatedCopiesAccumulateOneLogicalRecord) {
  MeshGeometry g(4);
  Metrics m(g);
  m.begin_window(0);
  // NIC duplication reports each copy; completion requires all 15.
  for (int i = 0; i < 15; ++i)
    m.on_logical_packet(4, PacketKind::Broadcast, 2, 1);
  for (int i = 0; i < 14; ++i) m.on_flit_received(4, tail_flit(4), 10 + i);
  EXPECT_EQ(m.completed_packets(), 0);
  m.on_flit_received(4, tail_flit(4), 40);
  EXPECT_EQ(m.completed_packets(), 1);
  m.end_window(50);
  EXPECT_DOUBLE_EQ(m.avg_packet_latency(), 38.0);
}

TEST(Metrics, WindowExcludesOutsideCompletions) {
  MeshGeometry g(4);
  Metrics m(g);
  m.on_logical_packet(5, PacketKind::UnicastRequest, 0, 1);
  m.on_flit_received(5, tail_flit(5), 3);  // before the window: not counted
  m.begin_window(10);
  m.on_logical_packet(6, PacketKind::UnicastRequest, 11, 1);
  m.on_flit_received(6, tail_flit(6), 15);
  m.end_window(20);
  EXPECT_EQ(m.completed_packets(), 1);
  EXPECT_EQ(m.received_flits(), 1);
  EXPECT_EQ(m.total_completed(), 2);  // lifetime counter still sees both
}

TEST(Metrics, LinkLoadAccounting) {
  MeshGeometry g(4);
  Metrics m(g);
  m.begin_window(0);
  // 10 flits east across the bisection on one link, 4 ejections elsewhere.
  for (int i = 0; i < 10; ++i) m.on_link_flit(g.id(1, 2), PortDir::East);
  for (int i = 0; i < 4; ++i) m.on_link_flit(g.id(0, 0), PortDir::Local);
  m.end_window(20);
  EXPECT_DOUBLE_EQ(m.max_bisection_link_load(), 0.5);
  EXPECT_DOUBLE_EQ(m.max_ejection_link_load(), 0.2);
}

}  // namespace
}  // namespace noc
