// Table 1 formulas: printed values for the paper's configurations, and the
// documented relationship to exact enumeration (theory/mesh_limits.hpp).
#include <gtest/gtest.h>

#include "theory/mesh_limits.hpp"

namespace noc::theory {
namespace {

TEST(Table1, PaperValuesK4) {
  // The fabricated 4x4: unicast H = 2(4+1)/3 = 3.33, broadcast H = 5.5.
  EXPECT_NEAR(unicast_avg_hops(4), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(broadcast_avg_hops(4), 5.5, 1e-12);
}

TEST(Table1, PaperValuesK8) {
  // Table 2's 8x8 columns: 6 (unicast) and 11.5 (broadcast).
  EXPECT_NEAR(unicast_avg_hops(8), 6.0, 1e-12);
  EXPECT_NEAR(broadcast_avg_hops(8), 11.5, 1e-12);
}

TEST(Table1, OddKBroadcastFormulaIsExact) {
  for (int k : {3, 5, 7}) {
    EXPECT_NEAR(broadcast_avg_hops(k), broadcast_avg_hops_exact(k), 1e-9)
        << "k=" << k;
  }
}

TEST(Table1, EvenKBroadcastFormulaIsHalfAboveExact) {
  // (3k-1)/2 vs the exact (3k-2)/2: the printed formula is 0.5 loose.
  for (int k : {2, 4, 6, 8}) {
    EXPECT_NEAR(broadcast_avg_hops(k) - broadcast_avg_hops_exact(k), 0.5, 1e-9)
        << "k=" << k;
  }
}

TEST(Table1, UnicastFormulaVsExact) {
  // 2(k+1)/3 = E[|dx|+|dy|] conditioned on per-dimension difference; it
  // upper-bounds the exact uniform (src != dst) average, which is 2k/3.
  for (int k : {2, 3, 4, 6, 8}) {
    const double exact = unicast_avg_hops_exact(k);
    EXPECT_NEAR(exact, 2.0 * k / 3.0, 1e-9);
    EXPECT_GT(unicast_avg_hops(k), exact);
  }
}

TEST(Table1, ChannelLoads) {
  const double R = 0.1;
  EXPECT_DOUBLE_EQ(unicast_bisection_load(4, R), 0.1);     // kR/4
  EXPECT_DOUBLE_EQ(unicast_ejection_load(R), 0.1);         // R
  EXPECT_DOUBLE_EQ(broadcast_bisection_load(4, R), 0.4);   // k^2 R/4
  EXPECT_DOUBLE_EQ(broadcast_ejection_load(4, R), 1.6);    // k^2 R
}

TEST(Table1, ThroughputLimits) {
  // Unicast: ejection-limited up to k=4, bisection beyond.
  EXPECT_DOUBLE_EQ(unicast_max_injection_rate(2), 1.0);
  EXPECT_DOUBLE_EQ(unicast_max_injection_rate(4), 1.0);
  EXPECT_DOUBLE_EQ(unicast_max_injection_rate(8), 0.5);
  EXPECT_DOUBLE_EQ(unicast_max_injection_rate(16), 0.25);
  // Broadcast: always ejection-limited at 1/k^2.
  EXPECT_DOUBLE_EQ(broadcast_max_injection_rate(4), 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(broadcast_max_injection_rate(8), 1.0 / 64.0);
}

TEST(Table1, AggregateLimitIs1024GbpsForTheChip) {
  // 16 nodes x 64b x 1GHz (paper Sec 4.1).
  EXPECT_DOUBLE_EQ(aggregate_throughput_limit_gbps(4), 1024.0);
  EXPECT_DOUBLE_EQ(aggregate_throughput_limit_gbps(8), 4096.0);
}

TEST(Table1, EnergyLimits) {
  const double ex = 1.0, el = 2.0;
  // Unicast: H crossbars + ejection crossbar + H links.
  EXPECT_NEAR(unicast_energy_limit(4, ex, el),
              10.0 / 3.0 * ex + ex + 10.0 / 3.0 * el, 1e-12);
  // Broadcast: k^2 crossbars + (k^2-1) links -- grows quadratically.
  EXPECT_NEAR(broadcast_energy_limit(4, ex, el), 16 * ex + 15 * el, 1e-12);
  EXPECT_GT(broadcast_energy_limit(8, ex, el),
            3.9 * broadcast_energy_limit(4, ex, el));
}

TEST(Fig5Limits, LatencyLimitLines) {
  // Unicast request: 3.33 hops + 2 NIC cycles.
  EXPECT_NEAR(zero_load_latency_limit_unicast(4, 1), 16.0 / 3.0, 1e-12);
  // 5-flit response adds 4 cycles of serialization.
  EXPECT_NEAR(zero_load_latency_limit_unicast(4, 5), 16.0 / 3.0 + 4, 1e-12);
  EXPECT_NEAR(zero_load_latency_limit_broadcast(4, 1), 7.5, 1e-12);
  // Mixed = 0.5*7.5 + 0.25*5.33 + 0.25*9.33.
  EXPECT_NEAR(zero_load_latency_limit_mixed(4), 7.4167, 1e-3);
}

class LimitMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(LimitMonotonicity, HopsGrowWithK) {
  const int k = GetParam();
  EXPECT_LT(unicast_avg_hops(k), unicast_avg_hops(k + 1));
  EXPECT_LT(broadcast_avg_hops(k), broadcast_avg_hops(k + 2));
  EXPECT_GT(broadcast_avg_hops(k), unicast_avg_hops(k));
}

INSTANTIATE_TEST_SUITE_P(Ks, LimitMonotonicity,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12));

}  // namespace
}  // namespace noc::theory
