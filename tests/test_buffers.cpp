#include <gtest/gtest.h>

#include "noc/buffers.hpp"
#include "noc/packet.hpp"

namespace noc {
namespace {

TEST(VcConfig, PaperOrganization) {
  // Sec 3.3: 4 REQ VCs x 1 deep + 2 RESP VCs x 3 deep = 6 VCs / 10 buffers.
  VcConfig c;
  EXPECT_EQ(c.total_vcs(), 6);
  EXPECT_EQ(c.total_buffers(), 10);
  EXPECT_EQ(c.vc_base(MsgClass::Request), 0);
  EXPECT_EQ(c.vc_base(MsgClass::Response), 4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(c.mc_of_vc(v), MsgClass::Request);
    EXPECT_EQ(c.depth_of_vc(v), 1);
  }
  for (int v = 4; v < 6; ++v) {
    EXPECT_EQ(c.mc_of_vc(v), MsgClass::Response);
    EXPECT_EQ(c.depth_of_vc(v), 3);
  }
}

Flit make_head(int len) {
  Packet p;
  p.id = 1;
  p.src = 0;
  p.dest_mask = MeshGeometry::node_mask(5);
  p.length = len;
  return segment_packet(p).front();
}

TEST(InputVc, OpenPushPopClose) {
  InputVc vc;
  vc.configure(3);
  Packet p;
  p.id = 9;
  p.dest_mask = MeshGeometry::node_mask(2);
  p.length = 3;
  p.mc = MsgClass::Response;
  auto flits = segment_packet(p);
  BranchList br(1);
  br[0].out = PortDir::East;
  br[0].dests = p.dest_mask;
  vc.open_packet(flits[0], br);
  EXPECT_TRUE(vc.busy());
  for (const auto& f : flits) vc.push(f);
  EXPECT_TRUE(vc.has_seq(0) && vc.has_seq(1) && vc.has_seq(2));
  EXPECT_FALSE(vc.has_seq(3));
  EXPECT_EQ(vc.flit_at_seq(2).seq, 2);

  // Branch advances; flits retire in order.
  for (int s = 0; s < 3; ++s) {
    vc.branches()[0].next_seq = s + 1;
    if (s == 2) vc.branches()[0].tail_sent = true;
    Flit f = vc.pop_front();
    EXPECT_EQ(f.seq, s);
  }
  EXPECT_TRUE(vc.all_branches_done());
  vc.close_packet();
  EXPECT_FALSE(vc.busy());
}

TEST(InputVc, CurrentSeqIsMinOverUnfinishedBranches) {
  InputVc vc;
  vc.configure(1);
  Flit h = make_head(1);
  BranchList br(3);
  br[0].out = PortDir::East;
  br[1].out = PortDir::North;
  br[2].out = PortDir::Local;
  for (auto& b : br) b.dests = DestMask::bit(0);
  vc.open_packet(h, br);
  EXPECT_EQ(vc.current_seq(), 0);
  vc.branches()[0].next_seq = 1;
  vc.branches()[0].tail_sent = true;
  EXPECT_EQ(vc.current_seq(), 0);  // two branches still at 0
  vc.branches()[1].next_seq = 1;
  vc.branches()[1].tail_sent = true;
  vc.branches()[2].next_seq = 1;
  vc.branches()[2].tail_sent = true;
  EXPECT_TRUE(vc.all_branches_done());
}

TEST(DownstreamState, CreditsMatchDepths) {
  DownstreamState ds;
  ds.configure(VcConfig{});
  for (int v = 0; v < 4; ++v) EXPECT_EQ(ds.credits(v), 1);
  for (int v = 4; v < 6; ++v) EXPECT_EQ(ds.credits(v), 3);
}

TEST(DownstreamState, VcAllocationExhaustsAndRecycles) {
  DownstreamState ds;
  ds.configure(VcConfig{});
  EXPECT_EQ(ds.free_vc_count(MsgClass::Request), 4);
  std::vector<int> got;
  for (int i = 0; i < 4; ++i) {
    const int v = ds.allocate_vc(MsgClass::Request);
    ASSERT_GE(v, 0);
    got.push_back(v);
  }
  EXPECT_EQ(ds.allocate_vc(MsgClass::Request), -1);
  // Response pool unaffected.
  EXPECT_EQ(ds.free_vc_count(MsgClass::Response), 2);
  ds.release_vc(got[2]);
  EXPECT_EQ(ds.allocate_vc(MsgClass::Request), got[2]);
}

TEST(DownstreamState, CreditConsumeReturnRoundTrip) {
  DownstreamState ds;
  ds.configure(VcConfig{});
  ds.consume_credit(5);
  ds.consume_credit(5);
  EXPECT_EQ(ds.credits(5), 1);
  ds.return_credit(5);
  EXPECT_EQ(ds.credits(5), 2);
  ds.return_credit(5);
  EXPECT_EQ(ds.credits(5), 3);
}

TEST(Packet, SegmentationTypes) {
  Packet p;
  p.id = 4;
  p.dest_mask = DestMask::bit(0);
  p.length = 5;
  auto flits = segment_packet(p);
  ASSERT_EQ(flits.size(), 5u);
  EXPECT_EQ(flits[0].type, FlitType::Head);
  EXPECT_EQ(flits[1].type, FlitType::Body);
  EXPECT_EQ(flits[3].type, FlitType::Body);
  EXPECT_EQ(flits[4].type, FlitType::Tail);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(flits[static_cast<size_t>(i)].seq, i);
}

TEST(Packet, SingleFlitIsHeadTail) {
  Packet p;
  p.id = 4;
  p.dest_mask = DestMask::bit(0);
  p.length = 1;
  auto flits = segment_packet(p);
  ASSERT_EQ(flits.size(), 1u);
  EXPECT_EQ(flits[0].type, FlitType::HeadTail);
  EXPECT_TRUE(is_head(flits[0].type));
  EXPECT_TRUE(is_tail(flits[0].type));
}

TEST(Packet, LogicalIdPropagates) {
  Packet p;
  p.id = 10;
  p.logical_id = 3;
  p.dest_mask = DestMask::bit(0);
  auto flits = segment_packet(p);
  EXPECT_EQ(flits[0].logical_id, 3u);
  p.logical_id = 0;
  EXPECT_EQ(segment_packet(p)[0].logical_id, 10u);
}

}  // namespace
}  // namespace noc
