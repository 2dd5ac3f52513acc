// The Proposed pipeline (lookahead bypass + router multicast) must not drift.
//
// The textbook goldens (test_textbook_allocator.cpp) never bypass, and the
// gating and serial/parallel suites compare two modes of the same build, so
// a change that moved the lookahead path identically in every mode would
// still pass them. These goldens pin the Proposed router's exact event
// counts -- bypasses and lookaheads included -- on two short windows: a
// k=16 uniform point that exercises the multi-word DestMask datapath, and
// the paper's Fig-5 mix at k=4 with the chip's identical-PRBS artifact,
// which synchronizes injections and contends away bypasses. Every counter
// is an exact integer event count, so any change to VC allocation order,
// bypass grants or flit bookkeeping fails loudly rather than shifting an
// average.
#include <gtest/gtest.h>

#include "noc/experiment.hpp"
#include "noc/network.hpp"

namespace noc {
namespace {

constexpr MeasureOptions kOpt{.warmup = 300, .window = 900};

TEST(ProposedGolden, Uniform16x16) {
  NetworkConfig cfg = NetworkConfig::proposed(16);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  const PointResult r = measure_point(cfg, 0.20, kOpt);
  EXPECT_EQ(r.completed_packets, 42469);
  EXPECT_EQ(r.energy.xbar_traversals, 498653);
  EXPECT_EQ(r.energy.link_traversals, 456189);
  EXPECT_EQ(r.energy.nic_link_traversals, 85141);
  EXPECT_EQ(r.energy.buffer_writes, 68903);
  EXPECT_EQ(r.energy.buffer_reads, 68718);
  EXPECT_EQ(r.energy.sa1_arbitrations, 173658);
  EXPECT_EQ(r.energy.sa2_arbitrations, 567600);
  EXPECT_EQ(r.energy.vc_allocations, 541407);
  EXPECT_EQ(r.energy.lookaheads_sent, 498902);
  EXPECT_EQ(r.energy.cycles, 900);
  EXPECT_EQ(r.energy.vc_active_cycles, 1292062);
  EXPECT_EQ(r.energy.bypasses, 429935);
  EXPECT_EQ(r.energy.partial_bypasses, 0);
  EXPECT_EQ(r.energy.buffered_hops, 68903);
  EXPECT_EQ(r.p99_latency, 467);
}

TEST(ProposedGolden, Fig5MixedIdenticalPrbs4x4) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.identical_prbs = true;
  const PointResult r = measure_point(cfg, 0.10, kOpt);
  EXPECT_EQ(r.completed_packets, 720);
  EXPECT_EQ(r.energy.xbar_traversals, 14564);
  EXPECT_EQ(r.energy.link_traversals, 8324);
  EXPECT_EQ(r.energy.nic_link_traversals, 7920);
  EXPECT_EQ(r.energy.buffer_writes, 2097);
  EXPECT_EQ(r.energy.buffer_reads, 2938);
  EXPECT_EQ(r.energy.sa1_arbitrations, 5603);
  EXPECT_EQ(r.energy.sa2_arbitrations, 13127);
  EXPECT_EQ(r.energy.vc_allocations, 11628);
  EXPECT_EQ(r.energy.lookaheads_sent, 9972);
  EXPECT_EQ(r.energy.cycles, 900);
  EXPECT_EQ(r.energy.vc_active_cycles, 25791);
  EXPECT_EQ(r.energy.bypasses, 7907);
  EXPECT_EQ(r.energy.partial_bypasses, 1141);
  EXPECT_EQ(r.energy.buffered_hops, 956);
  EXPECT_EQ(r.p99_latency, 20);
}

}  // namespace
}  // namespace noc
