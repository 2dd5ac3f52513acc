#include <gtest/gtest.h>

#include "noc/experiment.hpp"

namespace noc {
namespace {

TEST(Experiment, DeliveriesPerOfferedFlit) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  EXPECT_DOUBLE_EQ(deliveries_per_offered_flit(cfg), 1.0);
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  EXPECT_DOUBLE_EQ(deliveries_per_offered_flit(cfg), 16.0);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  // (0.5*16 + 0.25*1 + 0.25*5) / (0.5 + 0.25 + 0.25*5) = 9.5 / 2.
  EXPECT_DOUBLE_EQ(deliveries_per_offered_flit(cfg), 4.75);
}

TEST(Experiment, MeasurePointIsDeterministic) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.seed = 5;
  const MeasureOptions opt{.warmup = 500, .window = 2000};
  auto a = measure_point(cfg, 0.08, opt);
  auto b = measure_point(cfg, 0.08, opt);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.completed_packets, b.completed_packets);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
}

TEST(Experiment, SeedsChangeTheRealization) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  const MeasureOptions opt{.warmup = 500, .window = 2000};
  cfg.traffic.seed = 5;
  auto a = measure_point(cfg, 0.08, opt);
  cfg.traffic.seed = 6;
  auto b = measure_point(cfg, 0.08, opt);
  EXPECT_NE(a.completed_packets, b.completed_packets);
  // ... but the statistics agree within a few percent.
  EXPECT_NEAR(a.avg_latency, b.avg_latency, 0.15 * a.avg_latency);
}

TEST(Experiment, SaturationAboveZeroLoadThreshold) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  auto s = find_saturation(cfg, {.warmup = 1000, .window = 4000});
  EXPECT_GT(s.zero_load_latency, 6.9);  // >= exact limit 7.0 - noise
  EXPECT_GT(s.saturation_offered, 0.02);
  EXPECT_LE(s.saturation_offered, 1.1 / 16.0);
  EXPECT_GT(s.saturation_gbps, 400.0);
  // At the saturation point the latency criterion holds approximately.
  EXPECT_GT(s.at_saturation.avg_latency, 1.8 * s.zero_load_latency);
}

TEST(Experiment, SweepCurveMatchesPointMeasurements) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  const MeasureOptions opt{.warmup = 500, .window = 2000};
  auto curve = sweep_curve(cfg, {0.05, 0.1}, opt);
  ASSERT_EQ(curve.size(), 2u);
  auto solo = measure_point(cfg, 0.1, opt);
  EXPECT_DOUBLE_EQ(curve[1].avg_latency, solo.avg_latency);
}

}  // namespace
}  // namespace noc
