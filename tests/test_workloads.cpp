// The pluggable workload API: closed-loop coherence and trace-replay
// sources behind TrafficSource, their determinism at any thread count
// (mirroring test_experiment_runner.cpp), trace record -> replay round
// trips, and the truthful-config set_rate contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "noc/experiment.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

void expect_identical(const PointResult& a, const PointResult& b) {
  // Deterministic simulation: every field must match exactly, including
  // the transaction-level results the workload API added.
  EXPECT_EQ(a.offered_fpc, b.offered_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.recv_flits_per_cycle, b.recv_flits_per_cycle);
  EXPECT_EQ(a.recv_gbps, b.recv_gbps);
  EXPECT_EQ(a.bypass_rate, b.bypass_rate);
  EXPECT_EQ(a.completed_packets, b.completed_packets);
  EXPECT_EQ(a.max_ejection_load, b.max_ejection_load);
  EXPECT_EQ(a.max_bisection_load, b.max_bisection_load);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.avg_transaction_latency, b.avg_transaction_latency);
  EXPECT_EQ(a.max_transaction_latency, b.max_transaction_latency);
  EXPECT_EQ(a.transactions_per_cycle, b.transactions_per_cycle);
  EXPECT_EQ(a.closed_loop_window, b.closed_loop_window);
  EXPECT_EQ(a.energy.xbar_traversals, b.energy.xbar_traversals);
  EXPECT_EQ(a.energy.link_traversals, b.energy.link_traversals);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.vc_allocations, b.energy.vc_allocations);
  EXPECT_EQ(a.energy.bypasses, b.energy.bypasses);
}

NetworkConfig closed_loop_cfg(int window, double issue_prob = 1.0) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = window;
  cfg.workload.closed.issue_prob = issue_prob;
  cfg.traffic.seed = 11;
  return cfg;
}

// ---------------------------------------------------------------------------
// parse_traffic_pattern (inverse of traffic_pattern_name).

TEST(ParseTrafficPattern, RoundTripsEveryCanonicalName) {
  for (TrafficPattern p :
       {TrafficPattern::UniformRequest, TrafficPattern::MixedPaper,
        TrafficPattern::BroadcastOnly, TrafficPattern::Transpose,
        TrafficPattern::BitComplement, TrafficPattern::Tornado,
        TrafficPattern::NearestNeighbor}) {
    const auto parsed = parse_traffic_pattern(traffic_pattern_name(p));
    ASSERT_TRUE(parsed.has_value()) << traffic_pattern_name(p);
    EXPECT_EQ(*parsed, p);
  }
}

TEST(ParseTrafficPattern, AcceptsCliAliases) {
  EXPECT_EQ(parse_traffic_pattern("uniform"),
            TrafficPattern::UniformRequest);
  EXPECT_EQ(parse_traffic_pattern("mixed"), TrafficPattern::MixedPaper);
  EXPECT_EQ(parse_traffic_pattern("broadcast"),
            TrafficPattern::BroadcastOnly);
  EXPECT_EQ(parse_traffic_pattern("bitcomp"),
            TrafficPattern::BitComplement);
  EXPECT_EQ(parse_traffic_pattern("neighbor"),
            TrafficPattern::NearestNeighbor);
}

TEST(ParseTrafficPattern, RejectsUnknownNames) {
  EXPECT_FALSE(parse_traffic_pattern("").has_value());
  EXPECT_FALSE(parse_traffic_pattern("hotspot").has_value());
}

// ---------------------------------------------------------------------------
// set_rate keeps config() truthful (the old set_offered_load silently
// mutated the generator's config copy).

TEST(OpenLoopSource, SetRateLeavesConfigTruthful) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  Network net(cfg);
  auto& src = dynamic_cast<OpenLoopSource&>(net.source(0));
  net.source(0).set_rate(0.0);
  EXPECT_EQ(src.rate(), 0.0);
  EXPECT_EQ(src.config().offered_flits_per_node_cycle, 0.10);
  // And rate 0 really stops injection.
  OpenLoopSource gen(net.geom(), cfg.traffic, 0);
  gen.set_rate(0.0);
  for (Cycle t = 0; t < 2000; ++t) EXPECT_FALSE(gen.generate(t).has_value());
}

// ---------------------------------------------------------------------------
// Closed-loop source semantics.

TEST(ClosedLoop, CompletesTransactionsAndMeasuresLatency) {
  const auto r = measure_workload(closed_loop_cfg(4),
                                  {.warmup = 1000, .window = 4000});
  EXPECT_GT(r.transactions, 100);
  EXPECT_GT(r.avg_transaction_latency, 0.0);
  EXPECT_GE(r.max_transaction_latency, r.avg_transaction_latency);
  EXPECT_GT(r.transactions_per_cycle, 0.0);
  EXPECT_EQ(r.closed_loop_window, 4);
  // A miss is probe (>= zero-load broadcast latency) + directory + 5-flit
  // response: the round trip cannot be faster than ~12 cycles on a 4x4.
  EXPECT_GT(r.avg_transaction_latency, 12.0);
}

TEST(ClosedLoop, WindowBoundsOutstandingMisses) {
  NetworkConfig cfg = closed_loop_cfg(2);
  Network net(cfg);
  Simulation sim(net);
  for (int step = 0; step < 40; ++step) {
    sim.run(50);
    for (NodeId n = 0; n < net.geom().num_nodes(); ++n) {
      const auto& src = dynamic_cast<const ClosedLoopSource&>(
          net.nic(n).source());
      EXPECT_LE(src.outstanding(), 2);
    }
  }
}

TEST(ClosedLoop, LargerWindowSustainsMoreThroughput) {
  // A long directory lookup makes window=1 latency-bound (one round trip
  // at a time); a wider window overlaps misses and must win throughput
  // until the probes' k^2-deliveries ejection wall.
  const MeasureOptions opt{.warmup = 1500, .window = 6000};
  NetworkConfig one = closed_loop_cfg(1);
  NetworkConfig eight = closed_loop_cfg(8);
  one.workload.closed.directory_latency = 40;
  eight.workload.closed.directory_latency = 40;
  const auto w1 = measure_workload(one, opt);
  const auto w8 = measure_workload(eight, opt);
  EXPECT_GT(w8.transactions_per_cycle, 1.5 * w1.transactions_per_cycle);
  // More outstanding misses also means more queueing per miss.
  EXPECT_GT(w8.avg_transaction_latency, w1.avg_transaction_latency);
}

TEST(ClosedLoop, DrainsToQuiescenceAndConserves) {
  NetworkConfig cfg = closed_loop_cfg(4, 0.05);
  Network net(cfg);
  Simulation sim(net);
  sim.run(3000);
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
    net.nic(n).source().set_rate(0.0);
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 30000));
  // Every issued probe got its data response; nothing lost or duplicated.
  int64_t issued = 0, completed = 0;
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n) {
    const auto& src =
        dynamic_cast<const ClosedLoopSource&>(net.nic(n).source());
    issued += src.issued_probes();
    completed += src.completed_transactions();
    EXPECT_EQ(src.outstanding(), 0);
  }
  EXPECT_GT(issued, 100);
  EXPECT_EQ(issued, completed);
  EXPECT_EQ(net.metrics().total_generated(), net.metrics().total_completed());
}

TEST(ClosedLoop, WorksWithNicLevelBroadcastDuplication) {
  // The unicast baseline duplicates each probe into k^2-1 copies at the
  // NIC; owner election must still fire exactly once per probe.
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 2;
  cfg.workload.closed.issue_prob = 0.02;
  Network net(cfg);
  Simulation sim(net);
  sim.run(4000);
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
    net.nic(n).source().set_rate(0.0);
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 60000));
  int64_t issued = 0, completed = 0;
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n) {
    const auto& src =
        dynamic_cast<const ClosedLoopSource&>(net.nic(n).source());
    issued += src.issued_probes();
    completed += src.completed_transactions();
  }
  EXPECT_GT(issued, 20);
  EXPECT_EQ(issued, completed);
}

TEST(ClosedLoop, OwnerElectionIsUniformAndExcludesRequester) {
  NetworkConfig cfg = closed_loop_cfg(1);
  Network net(cfg);
  const auto& src =
      dynamic_cast<const ClosedLoopSource&>(net.nic(0).source());
  int counts[16] = {};
  for (uint64_t tag = 1; tag <= 16000; ++tag) {
    const NodeId owner = src.owner_of(tag, 3);
    ASSERT_NE(owner, 3);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 16);
    ++counts[owner];
  }
  for (NodeId n = 0; n < 16; ++n) {
    if (n == 3) continue;
    EXPECT_NEAR(counts[n] / 16000.0, 1.0 / 15.0, 0.01);
  }
}

TEST(ClosedLoop, WindowSweepBitIdenticalAcrossThreadCounts) {
  const MeasureOptions measure{.warmup = 400, .window = 1500};
  const NetworkConfig cfg = closed_loop_cfg(4);
  const std::vector<int> windows = {1, 2, 4};

  const ExperimentRunner serial{
      ExperimentOptions{.measure = measure, .threads = 1}};
  const ExperimentRunner parallel{
      ExperimentOptions{.measure = measure, .threads = 3}};
  const auto a = serial.window_sweep(cfg, windows);
  const auto b = parallel.window_sweep(cfg, windows);
  ASSERT_EQ(a.size(), windows.size());
  ASSERT_EQ(b.size(), windows.size());
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(a[i].closed_loop_window, windows[i]);
    expect_identical(a[i], b[i]);
  }
}

// ---------------------------------------------------------------------------
// Trace recording and replay.

Trace record_open_loop_trace(Cycle cycles, double load = 0.08) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = load;
  cfg.traffic.seed = 21;
  Trace trace;
  Network net(cfg);
  net.record_trace(&trace);
  Simulation sim(net);
  sim.run(cycles);
  return trace;
}

TEST(TraceWorkload, RecordThenReplayReproducesTheTraceExactly) {
  const Trace trace = record_open_loop_trace(3000);
  ASSERT_GT(trace.records.size(), 100u);

  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::Trace;
  cfg.workload.trace.trace = std::make_shared<Trace>(trace);
  Trace replayed;
  Network net(cfg);
  net.record_trace(&replayed);
  Simulation sim(net);
  sim.run(3000);
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 30000));

  // Replay injects each node's records at their recorded cycles (one per
  // node per cycle, which open-loop capture guarantees), so re-recording
  // the replay reproduces the original trace record for record.
  ASSERT_EQ(replayed.records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i)
    EXPECT_EQ(replayed.records[i], trace.records[i]) << "record " << i;
  EXPECT_EQ(net.metrics().total_generated(),
            static_cast<int64_t>(trace.records.size()));
  EXPECT_EQ(net.metrics().total_generated(), net.metrics().total_completed());
}

TEST(TraceWorkload, FileSaveLoadRoundTrip) {
  const Trace trace = record_open_loop_trace(1000);
  const std::string path = ::testing::TempDir() + "noc_trace_roundtrip.txt";
  ASSERT_TRUE(save_trace(path, trace));
  const auto loaded = load_trace(path);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i)
    EXPECT_EQ(loaded->records[i], trace.records[i]) << "record " << i;
  std::remove(path.c_str());
}

TEST(TraceWorkload, GeometryHeaderRoundTripAtK12) {
  // Capture on a k=12 network so record_trace stamps the geometry and
  // save_trace emits the v2 header; masks at k=12 straddle 64-bit word
  // boundaries, so this also exercises multi-word serialization through
  // the capture path (not just hand-built records).
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.02;
  cfg.traffic.seed = 7;
  Trace trace;
  {
    Network net(cfg);
    net.record_trace(&trace);
    Simulation sim(net);
    sim.run(600);
  }
  ASSERT_GT(trace.records.size(), 20u);
  EXPECT_EQ(trace.kx, 12);
  EXPECT_EQ(trace.ky, 12);

  const std::string path = ::testing::TempDir() + "noc_trace_v2_k12.txt";
  ASSERT_TRUE(save_trace(path, trace));
  std::string err;
  const auto loaded = load_trace(path, &err);
  ASSERT_NE(loaded, nullptr) << err;
  EXPECT_EQ(loaded->kx, 12);
  EXPECT_EQ(loaded->ky, 12);
  ASSERT_EQ(loaded->records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i)
    EXPECT_EQ(loaded->records[i], trace.records[i]) << "record " << i;

  // Geometry checks: the stamped trace replays on its own mesh but is
  // rejected -- with a message naming both geometries -- on a 4x4 one.
  EXPECT_EQ(trace_geometry_error(*loaded, 12, 12), "");
  const std::string mismatch = trace_geometry_error(*loaded, 4, 4);
  EXPECT_NE(mismatch.find("12x12"), std::string::npos) << mismatch;
  EXPECT_NE(mismatch.find("4x4"), std::string::npos) << mismatch;
  std::remove(path.c_str());
}

TEST(TraceWorkload, LoadRequiresTraceHeader) {
  // A headerless file (pre-versioning format) must be rejected with a
  // diagnostic that says what went wrong, not silently mis-parsed.
  const std::string path = ::testing::TempDir() + "noc_trace_nohdr.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "100 0 1 1 0\n");
  std::fclose(f);
  std::string err;
  EXPECT_EQ(load_trace(path, &err), nullptr);
  EXPECT_NE(err.find("not a noc-trace file"), std::string::npos) << err;
  // v2 header with geometry outside [2, kMaxMeshRadix] is also rejected.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# noc-trace v2 geometry 99x99\n100 0 1 1 0\n");
  std::fclose(f);
  err.clear();
  EXPECT_EQ(load_trace(path, &err), nullptr);
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(TraceWorkload, LargeKMultiWordMaskFileRoundTrip) {
  // k=12 broadcasts carry 144-bit destination masks: the trace text format
  // must round-trip masks wider than one word (they serialize as one big
  // hex number, see save_trace).
  Trace trace;
  const MeshGeometry g(12);
  trace.records.push_back({5, 0, g.all_nodes_mask(), 1, MsgClass::Request});
  trace.records.push_back(
      {9, 130,
       MeshGeometry::node_mask(63) | MeshGeometry::node_mask(64) |
           MeshGeometry::node_mask(143),
       5, MsgClass::Response});
  trace.records.push_back({12, 143, MeshGeometry::node_mask(1), 1,
                           MsgClass::Request});
  const std::string path = ::testing::TempDir() + "noc_trace_largek.txt";
  ASSERT_TRUE(save_trace(path, trace));
  const auto loaded = load_trace(path);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i)
    EXPECT_EQ(loaded->records[i], trace.records[i]) << "record " << i;
  std::remove(path.c_str());

  // And the replay path accepts it end-to-end on a k=12 network.
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.workload.kind = WorkloadKind::Trace;
  cfg.workload.trace.trace = std::make_shared<Trace>(trace);
  Network net(cfg);
  Simulation sim(net);
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 20000));
  EXPECT_EQ(net.metrics().total_generated(), 3);
  EXPECT_EQ(net.metrics().total_completed(), 3);
}

TEST(TraceWorkload, SaveWritesMasksAsOneHexNumber) {
  // The mask column is lowercase hex without leading zeros: single-word
  // masks read exactly like the pre-multiword %x output (v1 compat), wider
  // ones as one big number, up to the 64-digit bit-255 mask.
  Trace trace;
  trace.records.push_back({5, 0, DestMask::first_n(5), 1, MsgClass::Request});
  trace.records.push_back({9, 1, DestMask::bit(0) | DestMask::bit(64), 5,
                           MsgClass::Response});
  trace.records.push_back({12, 2, DestMask::bit(255), 1, MsgClass::Request});
  const std::string path = ::testing::TempDir() + "noc_trace_hex.txt";
  ASSERT_TRUE(save_trace(path, trace));
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
    text += static_cast<char>(c);
  std::fclose(f);
  EXPECT_EQ(text,
            "# noc-trace v1\n"
            "# cycle src dest_mask(hex) length class\n"
            "5 0 1f 1 0\n"
            "9 1 10000000000000001 5 1\n"
            "12 2 8" + std::string(63, '0') + " 1 0\n");
  const auto loaded = load_trace(path);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->records.size(), trace.records.size());
  for (size_t i = 0; i < trace.records.size(); ++i)
    EXPECT_EQ(loaded->records[i], trace.records[i]) << "record " << i;
  std::remove(path.c_str());
}

TEST(TraceWorkload, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(load_trace("/nonexistent/definitely/missing.trace"), nullptr);
  const std::string path = ::testing::TempDir() + "noc_trace_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# noc-trace v1\nnot a record at all\n");
  std::fclose(f);
  EXPECT_EQ(load_trace(path), nullptr);
  // Parsable but out-of-range fields (message class 7, zero dest mask)
  // must be rejected too, not cast into the simulator.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# noc-trace v1\n100 0 1 1 7\n");
  std::fclose(f);
  EXPECT_EQ(load_trace(path), nullptr);
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# noc-trace v1\n100 0 0 1 0\n");
  std::fclose(f);
  EXPECT_EQ(load_trace(path), nullptr);
  // Every field is one whole token: no suffixes, no extra tokens, no
  // fractional class, no cycle that only fits after saturating.
  // A line past the read buffer must not split into two records.
  // A mask is hex digits only, at most DestMask::kBits / 4 of them.
  const std::string line_too_long =
      "10 3 1f 1 0" + std::string(250, ' ') + "11 3 1f 1 0";
  const std::string mask_too_wide = "10 3 1" + std::string(64, '0') + " 1 0";
  for (const char* bad :
       {"10 3 1f 1 0garbage", "10 3 1f 1 0 extra", "10 3 1f 1 1.7",
        "99999999999999999999 3 1f 1 0", "10 3x 1f 1 0", "10 3 1f 1x 0",
        "10 3 xyz 1 0", mask_too_wide.c_str(), line_too_long.c_str()}) {
    f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "# noc-trace v1\n%s\n", bad);
    std::fclose(f);
    std::string error;
    EXPECT_EQ(load_trace(path, &error), nullptr) << bad;
    EXPECT_NE(error.find(":2: "), std::string::npos) << error;
  }
  // The strict parser still takes well-formed records, with or without a
  // final newline, and hex digits in either case.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# noc-trace v1\n10 3 1F 1 0\n\t12  4 10000000000000000 5 1");
  std::fclose(f);
  const auto ok = load_trace(path);
  ASSERT_NE(ok, nullptr);
  ASSERT_EQ(ok->records.size(), 2u);
  EXPECT_EQ(ok->records[0].dest_mask, DestMask{0x1f});
  EXPECT_EQ(ok->records[1].cycle, 12);
  EXPECT_EQ(ok->records[1].src, 4);
  EXPECT_TRUE(ok->records[1].dest_mask.test(64));
  EXPECT_EQ(ok->records[1].length, 5);
  EXPECT_EQ(ok->records[1].mc, MsgClass::Response);
  std::remove(path.c_str());
}

TEST(TraceWorkload, ReplayMeasurementBitIdenticalAcrossThreadCounts) {
  const auto trace =
      std::make_shared<const Trace>(record_open_loop_trace(6000));
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::Trace;
  cfg.workload.trace.trace = trace;
  const MeasureOptions measure{.warmup = 500, .window = 3000};

  const auto serial = measure_workload(cfg, measure);
  EXPECT_GT(serial.transactions, 0);  // records replayed inside the window
  EXPECT_GT(serial.completed_packets, 0);

  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 3}};
  const auto batch =
      runner.run({SweepPoint{cfg, 0.0}, SweepPoint{cfg, 0.0}});
  ASSERT_EQ(batch.size(), 2u);
  expect_identical(batch[0], serial);
  expect_identical(batch[1], serial);
}

TEST(TraceWorkload, SourceExposesReplayProgress) {
  Trace trace;
  trace.records.push_back({5, 0, MeshGeometry::node_mask(3), 1,
                           MsgClass::Request});
  trace.records.push_back({9, 0, MeshGeometry::node_mask(7), 5,
                           MsgClass::Response});
  trace.records.push_back({9, 2, MeshGeometry::node_mask(0), 1,
                           MsgClass::Request});
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::Trace;
  cfg.workload.trace.trace = std::make_shared<Trace>(trace);
  Network net(cfg);
  Simulation sim(net);
  const auto& src0 = dynamic_cast<const TraceSource&>(net.nic(0).source());
  const auto& src1 = dynamic_cast<const TraceSource&>(net.nic(1).source());
  EXPECT_EQ(src0.records_total(), 2u);
  EXPECT_EQ(src1.records_total(), 0u);
  EXPECT_TRUE(src1.idle());
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 1000));
  EXPECT_EQ(src0.records_replayed(), 2u);
  EXPECT_EQ(net.metrics().total_completed(), 3);
}

}  // namespace
}  // namespace noc
