// BitMask<N>: the fixed-width multi-word bitset behind every mask in the
// simulator -- DestMask (BitMask<256>, destination sets and awake masks)
// and the router's SoA datapath state (PortMask / VcMask / VcSetMask,
// docs/PERF.md Layer 5). Word-boundary behavior is the dangerous part --
// bit 63/64/65 straddles, first_n() fills ending on either side of a seam,
// extract() slices crossing a word seam -- plus the contract the
// incremental availability masks rely on: a long random sequence of
// set/clear operations leaves exactly the same mask a from-scratch
// recompute would build. The DownstreamState cross-checks live here too,
// diffing its incrementally-maintained free/credit masks and lane credit
// sums against a shadow model after every randomized VA/credit event.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <vector>

#include "common/bit_mask.hpp"
#include "common/rng.hpp"
#include "noc/buffers.hpp"

namespace noc {
namespace {

TEST(BitMask, SingleWordBasics) {
  BitMask<5> m;
  EXPECT_TRUE(m.none());
  EXPECT_EQ(m.count(), 0);
  EXPECT_EQ(m.lowest(), 5);  // empty => kBits

  m.set(0);
  m.set(4);
  EXPECT_TRUE(m.any());
  EXPECT_EQ(m.count(), 2);
  EXPECT_EQ(m.lowest(), 0);
  EXPECT_TRUE(m.test(0));
  EXPECT_FALSE(m.test(1));
  EXPECT_TRUE(m.test(4));

  m.clear(0);
  EXPECT_EQ(m.lowest(), 4);
  m.clear(4);
  EXPECT_TRUE(m.none());
  m.clear(4);  // clearing a clear bit is a no-op
  EXPECT_TRUE(m.none());
}

TEST(BitMask, Constructors) {
  EXPECT_EQ(BitMask<5>(uint64_t{0b10110}).count(), 3);
  EXPECT_EQ(BitMask<5>::bit(3), BitMask<5>(uint64_t{0b01000}));
}

TEST(BitMask, WordBoundarySetClearLowest) {
  BitMask<80> m;
  m.set(63);
  m.set(64);
  m.set(79);
  EXPECT_EQ(m.count(), 3);
  EXPECT_EQ(m.word(0), uint64_t{1} << 63);
  EXPECT_EQ(m.word(1), (uint64_t{1} << 15) | 1u);

  EXPECT_EQ(m.lowest(), 63);
  m.clear(63);
  EXPECT_EQ(m.lowest(), 64);  // crosses into word 1
  m.clear(64);
  EXPECT_EQ(m.lowest(), 79);
  m.clear(79);
  EXPECT_EQ(m.lowest(), 80);
  EXPECT_TRUE(m.none());
}

TEST(BitMask, IterationOrderAcrossWords) {
  BitMask<80> m;
  const int bits[] = {0, 1, 62, 63, 64, 65, 78, 79};
  for (int b : bits) m.set(b);
  std::vector<int> seen;
  m.for_each([&](int b) { seen.push_back(b); });
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], bits[i]);
}

TEST(BitMask, OperatorsKeepTailClear) {
  // 70-bit mask: word 1 has only 6 live bits, so a complement built as
  // first_n(kBits).andnot(m) must not set bits 70..127 (count/any/== would
  // otherwise see phantom bits).
  BitMask<70> m;
  m.set(3);
  m.set(69);
  const auto inv = BitMask<70>::first_n(70).andnot(m);
  EXPECT_EQ(inv.count(), 68);
  EXPECT_FALSE(inv.test(3));
  EXPECT_FALSE(inv.test(69));
  EXPECT_TRUE(inv.test(68));
  EXPECT_EQ(inv.word(1) >> 6, 0u) << "complement leaked past kBits";

  EXPECT_EQ((m & inv).count(), 0);
  EXPECT_EQ((m | inv).count(), 70);
  EXPECT_EQ(m.andnot(m).count(), 0);
  EXPECT_EQ(inv.andnot(m), inv);
}

TEST(BitMask, FirstNAcrossWords) {
  // Fills ending below, on and just past each seam of the DestMask width,
  // and the full width: bits [0, n) set, bit n and above clear.
  for (int n : {0, 63, 64, 65, 255, 256}) {
    const auto m = DestMask::first_n(n);
    EXPECT_EQ(m.count(), n) << n;
    EXPECT_EQ(m.lowest(), n == 0 ? DestMask::kBits : 0) << n;
    if (n > 0) {
      EXPECT_TRUE(m.test(n - 1)) << n;
    }
    if (n < DestMask::kBits) {
      EXPECT_FALSE(m.test(n)) << n;
    }
  }
  EXPECT_EQ(DestMask::first_n(64).word(0), ~uint64_t{0});
  EXPECT_EQ(DestMask::first_n(64).word(1), 0u);
  EXPECT_EQ(DestMask::first_n(65).word(1), 1u);
  EXPECT_EQ(DestMask::first_n(255).word(3), ~uint64_t{0} >> 1);
  // A width that ends mid-word: the tail word holds exactly 16 live bits.
  const auto full80 = BitMask<80>::first_n(80);
  EXPECT_EQ(full80.count(), 80);
  EXPECT_EQ(full80.word(0), ~uint64_t{0});
  EXPECT_EQ(full80.word(1), 0xFFFFu);
}

TEST(BitMask, ExtractWithinAndAcrossWords) {
  BitMask<80> m;
  m.set(2);
  m.set(62);
  m.set(63);
  m.set(64);
  m.set(66);
  // Word-0 interior slice.
  EXPECT_EQ(m.extract(0, 5), 0b00100u);
  // Full-width 32-bit slice.
  EXPECT_EQ(m.extract(2, 32), 1u);
  // Straddling the 64-bit seam: bits 62..77 -> local bits 0,1,2,4.
  EXPECT_EQ(m.extract(62, 16), 0b10111u);
  // Slice entirely inside word 1.
  EXPECT_EQ(m.extract(64, 16), 0b101u);
  // Tail slice ending exactly at kBits.
  m.set(79);
  EXPECT_EQ(m.extract(76, 4), 0b1000u);
}

// Randomized incremental-vs-recompute cross-check: a BitMask driven by a
// long random set/clear sequence must match a std::bitset shadow (and every
// derived query) at each step, including the multi-word width.
template <int N>
void random_cross_check(uint64_t seed) {
  Xoshiro256 rng(seed);
  BitMask<N> m;
  std::bitset<static_cast<size_t>(N)> shadow;
  for (int step = 0; step < 4000; ++step) {
    const int bit = static_cast<int>(rng.next_u64() % N);
    if (rng.bernoulli(0.5)) {
      m.set(bit);
      shadow.set(static_cast<size_t>(bit));
    } else {
      m.clear(bit);
      shadow.reset(static_cast<size_t>(bit));
    }
    ASSERT_EQ(m.count(), static_cast<int>(shadow.count())) << "step " << step;
    ASSERT_EQ(m.any(), shadow.any());
    int expected_lowest = N;
    for (int i = 0; i < N; ++i)
      if (shadow.test(static_cast<size_t>(i))) {
        expected_lowest = i;
        break;
      }
    ASSERT_EQ(m.lowest(), expected_lowest);
    // Rebuild from scratch out of the shadow and compare wholesale.
    BitMask<N> rebuilt;
    for (int i = 0; i < N; ++i)
      if (shadow.test(static_cast<size_t>(i))) rebuilt.set(i);
    ASSERT_EQ(m, rebuilt) << "step " << step;
  }
}

TEST(BitMask, RandomizedIncrementalVsRecomputeNarrow) {
  random_cross_check<5>(0x5eed01);
  random_cross_check<16>(0x5eed02);
}

TEST(BitMask, RandomizedIncrementalVsRecomputeMultiWord) {
  random_cross_check<80>(0x5eed03);
  random_cross_check<130>(0x5eed04);
  random_cross_check<256>(0x5eed05);  // the DestMask width
}

// DownstreamState keeps free/credit availability as incrementally-updated
// masks plus per-lane credit sums. Drive it with a random but legal
// allocate/release/consume/return sequence and diff every mask against a
// from-scratch shadow recompute after each event. The shadow also keeps one
// release-ordered free list per message class: VA must hand out the
// least-recently-freed VC of the requested lane (of the whole class for
// Any), the order gating/threading bit-identity depends on.
void downstream_shadow_check(const VcConfig& cfg, uint64_t seed) {
  DownstreamState ds;
  ds.configure(cfg);
  const int total = cfg.total_vcs();

  std::vector<bool> free_shadow(static_cast<size_t>(total), true);
  std::vector<int> credit_shadow(static_cast<size_t>(total));
  std::vector<int> order_shadow[kNumMsgClasses];  // oldest release first
  for (int vc = 0; vc < total; ++vc) {
    credit_shadow[static_cast<size_t>(vc)] = cfg.depth_of_vc(vc);
    order_shadow[static_cast<int>(cfg.mc_of_vc(vc))].push_back(vc);
  }

  auto check = [&]() {
    VcMask free_expect, credit_expect;
    for (int vc = 0; vc < total; ++vc) {
      if (free_shadow[static_cast<size_t>(vc)]) free_expect.set(vc);
      if (credit_shadow[static_cast<size_t>(vc)] > 0) credit_expect.set(vc);
    }
    ASSERT_EQ(ds.free_mask(), free_expect);
    ASSERT_EQ(ds.credit_mask(), credit_expect);
    for (int m = 0; m < kNumMsgClasses; ++m) {
      const auto mc = static_cast<MsgClass>(m);
      int want_free = 0;
      for (int vc = 0; vc < total; ++vc)
        if (free_shadow[static_cast<size_t>(vc)] && cfg.mc_of_vc(vc) == mc)
          ++want_free;
      ASSERT_EQ(ds.free_vc_count(mc), want_free);
      ASSERT_EQ(ds.has_free_vc(mc), want_free > 0);
      for (int l = 0; l < kNumVcLanes; ++l) {
        const auto lane = static_cast<VcLane>(l);
        int want_credits = 0;
        for (int vc = 0; vc < total; ++vc)
          if (cfg.mc_of_vc(vc) == mc && cfg.lane_of_vc(vc) == lane)
            want_credits += credit_shadow[static_cast<size_t>(vc)];
        ASSERT_EQ(ds.lane_credits(mc, lane), want_credits);
      }
      ASSERT_EQ(ds.lane_credits(mc, VcLane::Any),
                ds.lane_credits(mc, VcLane::Ordered) +
                    ds.lane_credits(mc, VcLane::Free));
    }
    for (int vc = 0; vc < total; ++vc)
      ASSERT_EQ(ds.has_credit(vc), credit_shadow[static_cast<size_t>(vc)] > 0);
  };

  Xoshiro256 rng(seed);
  check();
  for (int step = 0; step < 20000; ++step) {
    switch (rng.next_u64() % 4) {
      case 0: {  // VA
        const auto mc = static_cast<MsgClass>(rng.next_u64() % kNumMsgClasses);
        const auto lane = static_cast<VcLane>(static_cast<int>(rng.next_u64() % 3) - 1);
        auto& order = order_shadow[static_cast<int>(mc)];
        auto oldest = order.begin();
        while (oldest != order.end() && lane != VcLane::Any &&
               cfg.lane_of_vc(*oldest) != lane)
          ++oldest;
        const int vc = ds.allocate_vc(mc, lane);
        ASSERT_EQ(vc, oldest == order.end() ? -1 : *oldest)
            << "step " << step << " mc " << static_cast<int>(mc) << " lane "
            << static_cast<int>(lane);
        if (vc >= 0) {
          ASSERT_TRUE(free_shadow[static_cast<size_t>(vc)]);
          ASSERT_EQ(cfg.mc_of_vc(vc), mc);
          if (lane != VcLane::Any) {
            ASSERT_EQ(cfg.lane_of_vc(vc), lane);
          }
          free_shadow[static_cast<size_t>(vc)] = false;
          order.erase(oldest);
        }
        break;
      }
      case 1: {  // downstream packet finished
        const int vc = static_cast<int>(rng.next_u64() % total);
        if (!free_shadow[static_cast<size_t>(vc)]) {
          ds.release_vc(vc);
          free_shadow[static_cast<size_t>(vc)] = true;
          order_shadow[static_cast<int>(cfg.mc_of_vc(vc))].push_back(vc);
        }
        break;
      }
      case 2: {  // flit sent downstream
        const int vc = static_cast<int>(rng.next_u64() % total);
        if (credit_shadow[static_cast<size_t>(vc)] > 0) {
          ds.consume_credit(vc);
          --credit_shadow[static_cast<size_t>(vc)];
        }
        break;
      }
      default: {  // credit returned
        const int vc = static_cast<int>(rng.next_u64() % total);
        if (credit_shadow[static_cast<size_t>(vc)] < cfg.depth_of_vc(vc)) {
          ds.return_credit(vc);
          ++credit_shadow[static_cast<size_t>(vc)];
        }
        break;
      }
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BitMask, DownstreamStateMasksMatchShadowModel) {
  // Paper shape: 4x1 Request, 2x3 Response.
  downstream_shadow_check(VcConfig{}, 0xdeadf00d);
  // Every VC id a port can hold, with odd lane splits in both classes.
  VcConfig wide;
  wide.vcs_per_mc[0] = 9;
  wide.vcs_per_mc[1] = 7;
  wide.depth_per_mc[0] = 2;
  wide.depth_per_mc[1] = kMaxVcDepth;
  ASSERT_EQ(wide.total_vcs(), kMaxTotalVcs);
  downstream_shadow_check(wide, 0x5eed16);
}

}  // namespace
}  // namespace noc
