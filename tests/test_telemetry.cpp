// The telemetry subsystem (docs/OBSERVABILITY.md): exact-rank histogram
// percentiles, probe bookkeeping, exporter output validity, and the
// campaign integration (conditional content hashing + manifest roundtrip).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "campaign/manifest.hpp"
#include "common/json.hpp"
#include "noc/metrics.hpp"
#include "noc/network.hpp"
#include "noc/telemetry.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram: percentile() promises the smallest latency L with at
// least ceil(q * count) samples <= L -- exact ranks, not interpolation.

TEST(LatencyHistogram, ExactPercentilesOnKnownSamples) {
  LatencyHistogram h;
  for (Cycle lat = 1; lat <= 100; ++lat) h.add(lat);  // one sample each
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.percentile(0.50), 50);
  EXPECT_EQ(h.percentile(0.95), 95);
  EXPECT_EQ(h.percentile(0.99), 99);
  EXPECT_EQ(h.percentile(1.0), 100);
  // Rank 1 (ceil(0.001 * 100) = 1) is the smallest sample.
  EXPECT_EQ(h.percentile(0.001), 1);
}

TEST(LatencyHistogram, SkewedMassAndSingletonTail) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.add(10);
  h.add(500);  // one outlier
  EXPECT_EQ(h.percentile(0.50), 10);
  EXPECT_EQ(h.percentile(0.99), 10);   // rank 99 is still in the bulk
  EXPECT_EQ(h.percentile(1.0), 500);   // rank 100 is the outlier
  EXPECT_EQ(h.max(), 500);
}

TEST(LatencyHistogram, OverflowFallsBackToObservedMax) {
  LatencyHistogram h;
  h.add(5);
  h.add(LatencyHistogram::kBins + 123);  // beyond the binned range
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.percentile(0.50), 5);
  // The rank-2 request lands in the overflow region: exact bins cannot
  // resolve it, so the observed max is the documented answer.
  EXPECT_EQ(h.percentile(1.0), LatencyHistogram::kBins + 123);
  EXPECT_EQ(h.max(), LatencyHistogram::kBins + 123);
  EXPECT_EQ(h.sum(), 5 + LatencyHistogram::kBins + 123);  // overflow counts
}

TEST(LatencyHistogram, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(0.99), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.add(7);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0);
}

// ---------------------------------------------------------------------------
// Probe bookkeeping.

TEST(Telemetry, StallCountersAccumulateAndReset) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  Telemetry t(4, cfg);
  t.add_stall(2, StallClass::NoCredit, 3);
  t.add_stall(2, StallClass::NoCredit);
  t.add_stall(0, StallClass::LostSa);
  EXPECT_EQ(t.stalls(2, StallClass::NoCredit), 4);
  EXPECT_EQ(t.total_stalls(StallClass::NoCredit), 4);
  EXPECT_EQ(t.total_stalls(StallClass::LostSa), 1);
  EXPECT_EQ(t.total_stalls(StallClass::BufferEmpty), 0);
  t.reset_stalls();
  EXPECT_EQ(t.total_stalls(StallClass::NoCredit), 0);
}

TEST(Telemetry, TimeSeriesRingStopsAtCapacity) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 10;
  Telemetry t(4, cfg);
  EXPECT_FALSE(t.want_sample(15));  // off-period
  const Cycle end = 10 * (kMaxTelemetrySamples + 8);
  for (Cycle c = 0; c < end; c += 10) {
    if (t.want_sample(c)) t.push_sample(TimeSample{c, 0, 0, 0, 0, 0});
  }
  // Ring full, sampling stopped.
  EXPECT_EQ(t.samples().size(), static_cast<size_t>(kMaxTelemetrySamples));
  EXPECT_EQ(t.samples().back().cycle, 10 * (kMaxTelemetrySamples - 1));
}

TEST(Telemetry, TraceSamplingAndDisable) {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.trace_sample_every = 4;
  Telemetry t(4, cfg);
  EXPECT_TRUE(t.tracing(8));
  EXPECT_FALSE(t.tracing(9));
  t.disable_tracing();  // what Network does under span-parallel stepping
  EXPECT_FALSE(t.tracing(8));

  TelemetryConfig off;
  off.enabled = true;  // trace_sample_every stays 0
  Telemetry quiet(4, off);
  EXPECT_FALSE(quiet.tracing(0));  // no modulo-by-zero, just off
}

// ---------------------------------------------------------------------------
// Exporters: run a real faulted network, then validate the artifacts. The
// C++ side checks structure via substrings in the one layout of
// common/json.hpp; CI additionally json.load()s the trace and the time
// series (.github/workflows/ci.yml telemetry smoke).

TEST(Telemetry, ExportersProduceValidArtifacts) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.15;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 25;
  cfg.telemetry.trace_sample_every = 1;  // trace every packet
  cfg.fault.kill_link(400, 5, 6).revive_link(800, 5, 6);

  Network net(cfg);
  ASSERT_NE(net.telemetry(), nullptr);
  Simulation sim(net);
  sim.run(1200);

  const Telemetry& t = *net.telemetry();
  EXPECT_FALSE(t.trace_events().empty());
  EXPECT_FALSE(t.samples().empty());
  ASSERT_EQ(t.fault_markers().size(), 2u);
  EXPECT_EQ(t.fault_markers()[0].cycle, 400);
  EXPECT_EQ(t.fault_markers()[1].cycle, 800);

  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "telemetry_trace.json";
  const std::string ts_json = dir + "telemetry_ts.json";
  const std::string stalls = dir + "telemetry_stalls.csv";
  ASSERT_TRUE(t.write_perfetto_json(trace));
  ASSERT_TRUE(t.write_timeseries_json(ts_json));
  ASSERT_TRUE(t.write_stalls_csv(stalls, cfg.k));

  const std::string tj = json::read_file(trace);
  EXPECT_NE(tj.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tj.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(tj.find("\"cat\": \"pkt\""), std::string::npos);
  EXPECT_NE(tj.find("\"cat\": \"hop\""), std::string::npos);
  EXPECT_NE(tj.find("link-down 5-6"), std::string::npos);
  EXPECT_EQ(tj.find("NaN"), std::string::npos);

  const std::string tsj = json::read_file(ts_json);
  EXPECT_EQ(tsj.rfind("{\n  \"samples\": [\n    {\n      \"cycle\": ", 0),
            0u);
  EXPECT_NE(tsj.find("\"faults\": [\n"
                     "    {\n"
                     "      \"cycle\": 400,\n"
                     "      \"kind\": \"link-down\",\n"
                     "      \"a\": 5,\n"
                     "      \"b\": 6\n"
                     "    },"),
            std::string::npos);

  const std::string sc = json::read_file(stalls);
  EXPECT_EQ(sc.rfind("node,x,y,buffer_empty,no_free_vc,no_credit", 0), 0u);
  // 16 routers + header.
  EXPECT_EQ(std::count(sc.begin(), sc.end(), '\n'), 17);

  for (const std::string& p : {trace, ts_json, stalls})
    std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// Campaign integration: the telemetry knobs hash conditionally (like the
// fault axis) so pre-telemetry result stores stay valid, and the manifest
// text roundtrips them.

TEST(CampaignTelemetry, KnobsHashOnlyWhenEnabled) {
  campaign::Manifest m;
  m.name = "telemetry-hash";
  campaign::CampaignPoint p;
  p.id = "probe";
  p.k = 4;
  p.offered = 0.10;
  m.points.push_back(p);
  std::string err;
  const auto base = campaign::resolve_manifest(m, &err);
  ASSERT_FALSE(base.empty()) << err;
  // Off-point keys never mention telemetry: every pre-telemetry hash in an
  // existing result store remains the completed-work identity.
  EXPECT_EQ(base[0].key.find("telemetry"), std::string::npos);

  campaign::Manifest on = m;
  on.points[0].telemetry = true;
  on.points[0].telemetry_sample_every = 50;
  const auto probed = campaign::resolve_manifest(on, &err);
  ASSERT_FALSE(probed.empty()) << err;
  EXPECT_NE(probed[0].key.find("telemetry"), std::string::npos);
  EXPECT_NE(probed[0].hash, base[0].hash);
  EXPECT_TRUE(probed[0].cfg.telemetry.enabled);
  EXPECT_EQ(probed[0].cfg.telemetry.sample_every, 50);
}

TEST(CampaignTelemetry, ManifestRoundTripPreservesKnobs) {
  campaign::Manifest m;
  m.name = "telemetry-roundtrip";
  campaign::CampaignPoint p;
  p.id = "probe";
  p.k = 4;
  p.telemetry = true;
  p.telemetry_sample_every = 32;
  m.points.push_back(p);
  const std::string path =
      ::testing::TempDir() + "telemetry_roundtrip.campaign";
  ASSERT_TRUE(campaign::save_manifest(path, m));
  std::string err;
  const auto loaded = campaign::load_manifest(path, &err);
  ASSERT_NE(loaded, nullptr) << err;
  ASSERT_EQ(loaded->points.size(), 1u);
  EXPECT_TRUE(loaded->points[0].telemetry);
  EXPECT_EQ(loaded->points[0].telemetry_sample_every, 32);
  const auto a = campaign::resolve_manifest(m, &err);
  const auto b = campaign::resolve_manifest(*loaded, &err);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(a[0].hash, b[0].hash);
  std::remove(path.c_str());
}

TEST(CampaignTelemetry, SampleEveryWithoutTelemetryIsInvalid) {
  campaign::Manifest m;
  m.name = "telemetry-invalid";
  campaign::CampaignPoint p;
  p.id = "probe";
  p.k = 4;
  p.telemetry_sample_every = 32;  // but telemetry stays off
  m.points.push_back(p);
  EXPECT_FALSE(campaign::validate_manifest(m).empty());
}

}  // namespace
}  // namespace noc
