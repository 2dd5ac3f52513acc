// Table 2 reproduction: the analytical chip models must regenerate the
// printed rows (with the two small documented deviations for TILE64).
#include <gtest/gtest.h>

#include "theory/chip_models.hpp"

namespace noc::theory {
namespace {

TEST(Table2, TeraflopsRow) {
  const ChipModel m = intel_teraflops();
  EXPECT_NEAR(m.delay_per_hop_min_ns(), 1.0, 1e-9);       // paper: 1ns
  EXPECT_NEAR(m.zero_load_unicast_cycles(), 30.0, 1e-9);  // paper: 30
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 120.5, 1e-9);  // paper: 120.5
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 1560.0, 1e-6);   // paper: 1560
  EXPECT_DOUBLE_EQ(m.channel_load_unicast_coeff(), 64.0);    // 64R
  EXPECT_DOUBLE_EQ(m.channel_load_broadcast_coeff(), 4096.0);  // 4096R
}

TEST(Table2, Tile64Row) {
  const ChipModel m = tilera_tile64();
  EXPECT_NEAR(m.delay_per_hop_min_ns(), 1.33, 0.01);      // paper: 1.3ns
  EXPECT_NEAR(m.zero_load_unicast_cycles(), 9.0, 1e-9);   // paper: 9
  // Paper prints 77.5; serialization + 1.5 cycles/hop gives 80.25 (3.5%
  // deviation).
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 80.25, 1e-9);
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 77.5, 3.0);
  // Paper prints 937.5 Gb/s; 5 networks x 8 links x 32b x 750MHz = 960.
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 960.0, 1e-6);
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 937.5, 25.0);
  EXPECT_DOUBLE_EQ(m.channel_load_broadcast_coeff(), 4096.0);
}

TEST(Table2, SwiftRow) {
  const ChipModel m = swift_noc();
  EXPECT_NEAR(m.delay_per_hop_min_ns(), 8.9, 0.03);   // paper: 8.9ns
  EXPECT_NEAR(m.delay_per_hop_max_ns(), 17.8, 0.03);  // paper: 17.8ns
  EXPECT_NEAR(m.zero_load_unicast_cycles(), 12.0, 1e-9);     // paper: 12
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 86.0, 1e-9);   // paper: 86
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 115.2, 1e-6);    // paper: 112.5
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 112.5, 3.0);
}

TEST(Table2, ThisWorkAs8x8Row) {
  const ChipModel m = this_work(8);
  EXPECT_NEAR(m.zero_load_unicast_cycles(), 6.0, 1e-9);     // paper: 6
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 11.5, 1e-9);  // paper: 11.5
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 512.0, 1e-6);   // paper: 512
  EXPECT_DOUBLE_EQ(m.channel_load_unicast_coeff(), 64.0);   // 64R
  EXPECT_DOUBLE_EQ(m.channel_load_broadcast_coeff(), 64.0);  // 64R
}

TEST(Table2, ThisWork4x4Row) {
  const ChipModel m = this_work(4);
  EXPECT_NEAR(m.delay_per_hop_min_ns(), 1.0, 1e-9);   // paper: 1-3ns
  EXPECT_NEAR(m.delay_per_hop_max_ns(), 3.0, 1e-9);
  EXPECT_NEAR(m.zero_load_unicast_cycles(), 10.0 / 3.0, 1e-9);  // paper: 3.3
  EXPECT_NEAR(m.zero_load_broadcast_cycles(), 5.5, 1e-9);       // paper: 5.5
  EXPECT_NEAR(m.bisection_bandwidth_gbps(), 256.0, 1e-6);       // paper: 256
  EXPECT_DOUBLE_EQ(m.channel_load_unicast_coeff(), 16.0);       // 16R
  EXPECT_DOUBLE_EQ(m.channel_load_broadcast_coeff(), 16.0);     // 16R
}

TEST(Table2, MulticastSupportSlashesBroadcastLoad) {
  // The paper's core comparison: router-level multicast turns k^4 R into
  // k^2 R aggregate load -- a factor of k^2.
  const ChipModel with = this_work(8);
  ChipModel without = this_work(8);
  without.multicast_support = false;
  EXPECT_DOUBLE_EQ(
      without.channel_load_broadcast_coeff() / with.channel_load_broadcast_coeff(),
      64.0);
}

TEST(Table2, FiveColumnsInPrintOrder) {
  const auto chips = table2_chips();
  ASSERT_EQ(chips.size(), 5u);
  EXPECT_EQ(chips[0].name, "Intel Teraflops");
  EXPECT_EQ(chips[1].name, "Tilera TILE64");
  EXPECT_EQ(chips[2].name, "SWIFT");
  EXPECT_EQ(chips[3].name, "This work (as 8x8)");
  EXPECT_EQ(chips[4].name, "This work (4x4)");
}

}  // namespace
}  // namespace noc::theory
