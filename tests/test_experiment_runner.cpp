// The parallel sweep engine: parallel_for semantics and the hard guarantee
// that ExperimentRunner output is bit-identical to the serial path.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "noc/experiment.hpp"
#include "noc/network.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"
#include "sim/thread_pool.hpp"

namespace noc {
namespace {

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(8, 257, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackAndEmptyRange) {
  int calls = 0;
  parallel_for(1, 5, [&](int) { ++calls; });  // no team: plain loop
  EXPECT_EQ(calls, 5);
  parallel_for(4, 0, [&](int) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(3, 20,
                   [](int i) {
                     if (i % 7 == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

void expect_identical(const PointResult& a, const PointResult& b) {
  // The simulation is deterministic, so every field must match exactly --
  // including the raw event counters, which catch any divergence the
  // aggregate statistics could mask.
  EXPECT_EQ(a.offered_fpc, b.offered_fpc);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.recv_flits_per_cycle, b.recv_flits_per_cycle);
  EXPECT_EQ(a.recv_gbps, b.recv_gbps);
  EXPECT_EQ(a.bypass_rate, b.bypass_rate);
  EXPECT_EQ(a.completed_packets, b.completed_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.max_ejection_load, b.max_ejection_load);
  EXPECT_EQ(a.max_bisection_load, b.max_bisection_load);
  EXPECT_EQ(a.energy.xbar_traversals, b.energy.xbar_traversals);
  EXPECT_EQ(a.energy.link_traversals, b.energy.link_traversals);
  EXPECT_EQ(a.energy.nic_link_traversals, b.energy.nic_link_traversals);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.buffer_reads, b.energy.buffer_reads);
  EXPECT_EQ(a.energy.sa1_arbitrations, b.energy.sa1_arbitrations);
  EXPECT_EQ(a.energy.sa2_arbitrations, b.energy.sa2_arbitrations);
  EXPECT_EQ(a.energy.vc_allocations, b.energy.vc_allocations);
  EXPECT_EQ(a.energy.lookaheads_sent, b.energy.lookaheads_sent);
  EXPECT_EQ(a.energy.bypasses, b.energy.bypasses);
  EXPECT_EQ(a.energy.partial_bypasses, b.energy.partial_bypasses);
  EXPECT_EQ(a.energy.buffered_hops, b.energy.buffered_hops);
  // The always-on latency histogram (docs/OBSERVABILITY.md): order
  // statistics are exact ranks, so they must be bit-identical too.
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  // Stall attribution (zero for both unless the config enables telemetry).
  for (int c = 0; c < kNumStallClasses; ++c)
    EXPECT_EQ(a.stall_cycles[c], b.stall_cycles[c]) << stall_class_name(
        static_cast<StallClass>(c));
}

TEST(ExperimentRunner, ParallelSweepIsBitIdenticalToSerial) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.seed = 7;
  const MeasureOptions measure{.warmup = 400, .window = 1500};
  const std::vector<double> loads = {0.04, 0.10, 0.16};

  const auto serial = sweep_curve(cfg, loads, measure);

  // More workers than points, on any machine: the schedule must not matter.
  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 3}};
  const auto parallel = runner.sweep(cfg, loads);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i)
    expect_identical(parallel[i], serial[i]);
}

TEST(ExperimentRunner, SweepAllMatchesPerConfigSerialCurves) {
  NetworkConfig prop = NetworkConfig::proposed(4);
  prop.traffic.pattern = TrafficPattern::MixedPaper;
  NetworkConfig base = NetworkConfig::baseline_3stage(4);
  base.traffic.pattern = TrafficPattern::MixedPaper;
  const MeasureOptions measure{.warmup = 300, .window = 1000};
  const std::vector<double> loads = {0.03, 0.08};

  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 3}};
  const auto curves = runner.sweep_all({prop, base}, loads);
  ASSERT_EQ(curves.size(), 2u);
  const std::vector<NetworkConfig> cfgs = {prop, base};
  for (size_t c = 0; c < cfgs.size(); ++c) {
    const auto serial = sweep_curve(cfgs[c], loads, measure);
    ASSERT_EQ(curves[c].size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
      expect_identical(curves[c][i], serial[i]);
  }
}

TEST(ExperimentRunner, MixedConfigBatchMatchesPointMeasurements) {
  NetworkConfig prop = NetworkConfig::proposed(4);
  prop.traffic.pattern = TrafficPattern::UniformRequest;
  NetworkConfig base = NetworkConfig::baseline_3stage(4);
  base.traffic.pattern = TrafficPattern::UniformRequest;
  const MeasureOptions measure{.warmup = 300, .window = 1000};

  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 2}};
  const auto results =
      runner.run({SweepPoint{prop, 0.10}, SweepPoint{base, 0.05}});
  ASSERT_EQ(results.size(), 2u);
  expect_identical(results[0], measure_point(prop, 0.10, measure));
  expect_identical(results[1], measure_point(base, 0.05, measure));
}

TEST(ExperimentRunner, FindSaturationsMatchesSerialSearch) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  const MeasureOptions measure{.warmup = 500, .window = 1500};

  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 2}};
  const auto sats = runner.find_saturations({cfg, cfg});
  const auto serial = find_saturation(cfg, measure);
  ASSERT_EQ(sats.size(), 2u);
  for (const auto& s : sats) {
    EXPECT_EQ(s.zero_load_latency, serial.zero_load_latency);
    EXPECT_EQ(s.saturation_offered, serial.saturation_offered);
    EXPECT_EQ(s.saturation_gbps, serial.saturation_gbps);
    expect_identical(s.at_saturation, serial.at_saturation);
  }
}

TEST(ExperimentRunner, LargeKSweepsBitIdenticalToSerial) {
  // The acceptance bar for the multi-word DestMask datapath: k=12 and k=16
  // sweeps run end-to-end and the parallel engine reproduces the serial
  // metrics bit for bit, exactly as it does at the paper's k=4.
  for (int k : {12, 16}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    NetworkConfig cfg = NetworkConfig::proposed(k);
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 11;
    const MeasureOptions measure{.warmup = 200, .window = 500};
    const std::vector<double> loads = {0.02, 0.05};

    const auto serial = sweep_curve(cfg, loads, measure);
    const ExperimentRunner runner{
        ExperimentOptions{.measure = measure, .threads = 3}};
    const auto parallel = runner.sweep(cfg, loads);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      expect_identical(parallel[i], serial[i]);
      EXPECT_GT(serial[i].completed_packets, 0);
    }
  }
}

TEST(ExperimentRunner, ThreadsResolution) {
  EXPECT_GE(ExperimentRunner{}.threads(), 1);
  const ExperimentRunner one{ExperimentOptions{.measure = {}, .threads = 1}};
  EXPECT_EQ(one.threads(), 1);
}

// ---------------------------------------------------------------------------
// Intra-network parallel stepping (docs/PERF.md Layer 4): for every pattern
// x workload x policy x gating combination, metrics must be bit-identical
// across step_threads in {1, 2, 4}.

// Force a real multi-thread budget regardless of the host's core count so
// the threaded schedule genuinely runs (restored on scope exit: other tests
// assume the default).
struct ScopedBudget {
  int saved;
  explicit ScopedBudget(int total) : saved(thread_budget::total()) {
    thread_budget::set_total(total);
  }
  ~ScopedBudget() { thread_budget::set_total(saved); }
};

void expect_step_threads_invisible(NetworkConfig cfg, double offered,
                                   const MeasureOptions& measure) {
  cfg.step_threads = 1;
  const PointResult serial = measure_point(cfg, offered, measure);
  for (int st : {2, 4}) {
    SCOPED_TRACE("step_threads=" + std::to_string(st));
    cfg.step_threads = st;
    const PointResult par = measure_point(cfg, offered, measure);
    expect_identical(par, serial);
    // The latency means too: integer sums divided once, so no
    // accumulation order can move them.
    EXPECT_EQ(par.avg_latency, serial.avg_latency);
  }
}

TEST(ParallelStepping, BitIdenticalAcrossPatternsAndGating) {
  const MeasureOptions measure{.warmup = 300, .window = 900};
  for (bool gating : {true, false}) {
    for (TrafficPattern p : {TrafficPattern::UniformRequest,
                             TrafficPattern::MixedPaper,
                             TrafficPattern::BroadcastOnly}) {
      SCOPED_TRACE("gating=" + std::to_string(gating) +
                   " pattern=" + std::to_string(static_cast<int>(p)));
      ScopedBudget budget(8);
      NetworkConfig cfg = NetworkConfig::proposed(8);
      cfg.traffic.pattern = p;
      cfg.traffic.seed = 5;
      cfg.activity_gating = gating;
      const double offered = p == TrafficPattern::BroadcastOnly ? 0.01 : 0.08;
      expect_step_threads_invisible(cfg, offered, measure);
    }
  }
}

TEST(ParallelStepping, BitIdenticalAcrossPoliciesAndPipelines) {
  const MeasureOptions measure{.warmup = 300, .window = 900};
  ScopedBudget budget(8);
  for (RoutePolicy policy : {RoutePolicy::XY, RoutePolicy::O1Turn,
                             RoutePolicy::MinimalAdaptive}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.router.routing = policy;
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    expect_step_threads_invisible(cfg, 0.10, measure);
  }
  {
    // The unicast baseline exercises NIC broadcast duplication, whose local
    // deliveries flow through the inject-phase capture path.
    NetworkConfig cfg = NetworkConfig::baseline_3stage(8);
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    expect_step_threads_invisible(cfg, 0.03, measure);
  }
}

TEST(ParallelStepping, BitIdenticalAcrossWorkloads) {
  const MeasureOptions measure{.warmup = 300, .window = 900};
  ScopedBudget budget(8);
  {
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.workload.kind = WorkloadKind::ClosedLoop;
    cfg.workload.closed.window = 4;
    cfg.workload.closed.issue_prob = 0.3;
    expect_step_threads_invisible(cfg, 0.0, measure);
  }
  {
    // Trace replay: record serially, then replay under every thread count.
    auto trace = std::make_shared<Trace>();
    {
      NetworkConfig rec = NetworkConfig::proposed(8);
      rec.traffic.pattern = TrafficPattern::MixedPaper;
      rec.traffic.offered_flits_per_node_cycle = 0.06;
      Network net(rec);
      net.record_trace(trace.get());
      Simulation sim(net);
      sim.run(4000);
    }
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.workload.kind = WorkloadKind::Trace;
    cfg.workload.trace.trace = trace;
    expect_step_threads_invisible(cfg, 0.0, measure);
  }
  {
    // Identical-PRBS synchronized bursts stress the timed-wake sharding.
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    cfg.traffic.identical_prbs = true;
    expect_step_threads_invisible(cfg, 0.04, measure);
  }
}

TEST(ParallelStepping, BitIdenticalAtLargeAndRectangularK) {
  // k=12 / k=16 cross DestMask word boundaries; 4x8 is the rectangular
  // acceptance case (kx != ky, spans over 4 columns of 8-row height).
  const MeasureOptions measure{.warmup = 200, .window = 500};
  ScopedBudget budget(8);
  for (int k : {12, 16}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    NetworkConfig cfg = NetworkConfig::proposed(k);
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 11;
    expect_step_threads_invisible(cfg, 0.04, measure);
  }
  {
    SCOPED_TRACE("rect 4x8");
    NetworkConfig cfg = NetworkConfig::proposed(4);
    cfg.ky = 8;
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 3;
    expect_step_threads_invisible(cfg, 0.06, measure);
  }
}

TEST(ParallelStepping, BitIdenticalUnderFaultSchedules) {
  // Faults are applied on the main thread at the top of step() before span
  // workers launch (partition.hpp), so a kill/revive schedule -- including
  // one that severs a node and produces drops -- must be invisible to the
  // span decomposition.
  const MeasureOptions measure{.warmup = 300, .window = 900};
  ScopedBudget budget(8);
  for (RoutePolicy policy :
       {RoutePolicy::MinimalAdaptive, RoutePolicy::XY}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.router.routing = policy;
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 17;
    // Vertical center cut in-window, revived before the end; corner 63 is
    // permanently severed mid-window so the drop path runs threaded too.
    cfg.fault.kill_link(400, 27, 35)
        .kill_link(400, 28, 36)
        .degrade_router(400, 27)
        .revive_link(900, 27, 35)
        .revive_link(900, 28, 36)
        .restore_router(900, 27)
        .kill_link(700, 63, 62)
        .kill_link(700, 63, 55);
    expect_step_threads_invisible(cfg, 0.08, measure);
  }
  {
    SCOPED_TRACE("k=12 word-boundary seam");
    NetworkConfig cfg = NetworkConfig::proposed(12);
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 11;
    cfg.fault.kill_link(300, 63, 64).kill_link(300, 127, 128);
    const MeasureOptions small{.warmup = 200, .window = 500};
    expect_step_threads_invisible(cfg, 0.04, small);
  }
}

TEST(ParallelStepping, ExternalSubmissionsBetweenStepsMatchSerial) {
  // Packets handed to a NIC between steps are created -- and a
  // NIC-duplicated broadcast's local copy retires -- outside the step loop.
  // Their events wait at the front of their span's buffer until the next
  // merge, which must still land them exactly as serial stepping does.
  struct Totals {
    int64_t generated, completed, received, latency_sum, latency_max, xbar;
    double avg_latency;
    Cycle quiescent_at;
  };
  auto run = [](int step_threads) {
    NetworkConfig cfg = NetworkConfig::baseline_3stage(8);
    cfg.traffic.offered_flits_per_node_cycle = 0.0;
    cfg.step_threads = step_threads;
    Network net(cfg);
    Simulation sim(net);
    sim.run(3);
    net.begin_measurement_window(sim.now());
    const int n = net.geom().num_nodes();
    PacketId id = 1000;
    for (int round = 0; round < 12; ++round) {
      for (NodeId src : {0, 13, 38, 63}) {
        Packet p;
        p.id = ++id;
        p.src = src;
        p.gen_cycle = sim.now();
        // Broadcasts every third round; unicasts to a never-self node in
        // between, most of them across a span seam.
        p.dest_mask = round % 3 == 0
                          ? net.geom().all_nodes_mask()
                          : MeshGeometry::node_mask((src + 7 * round + 5) % n);
        net.nic(src).submit_packet(p);
      }
      sim.run(7);
    }
    EXPECT_TRUE(sim.run_until([&] { return net.quiescent(); }, 20000));
    net.end_measurement_window(sim.now());
    const Metrics& m = net.metrics();
    return Totals{m.total_generated(),       m.completed_packets(),
                  m.received_flits(),        m.latency_hist().sum(),
                  m.latency_hist().max(),    net.energy().xbar_traversals,
                  m.avg_packet_latency(),    sim.now()};
  };
  ScopedBudget budget(4);
  const Totals serial = run(1);
  const Totals par = run(4);
  EXPECT_EQ(serial.generated, 48);
  EXPECT_EQ(serial.completed, 48);
  EXPECT_EQ(par.generated, serial.generated);
  EXPECT_EQ(par.completed, serial.completed);
  EXPECT_EQ(par.received, serial.received);
  EXPECT_EQ(par.latency_sum, serial.latency_sum);
  EXPECT_EQ(par.latency_max, serial.latency_max);
  EXPECT_EQ(par.xbar, serial.xbar);
  EXPECT_EQ(par.avg_latency, serial.avg_latency);
  EXPECT_EQ(par.quiescent_at, serial.quiescent_at);
}

TEST(ParallelStepping, TraceRecordingMatchesSerialRecording) {
  // Spans record into their own buffers and the merge appends them in
  // (cycle, src) order: the recorded trace must be byte-for-byte what a
  // serial network records.
  auto record = [](int step_threads) {
    auto trace = std::make_shared<Trace>();
    NetworkConfig cfg = NetworkConfig::proposed(8);
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    cfg.traffic.offered_flits_per_node_cycle = 0.06;
    cfg.step_threads = step_threads;
    Network net(cfg);
    net.record_trace(trace.get());
    Simulation sim(net);
    sim.run(2000);
    return trace;
  };
  ScopedBudget budget(8);
  const auto serial = record(1);
  const auto par = record(4);
  ASSERT_EQ(par->records.size(), serial->records.size());
  for (size_t i = 0; i < serial->records.size(); ++i) {
    EXPECT_EQ(par->records[i].cycle, serial->records[i].cycle);
    EXPECT_EQ(par->records[i].src, serial->records[i].src);
    EXPECT_EQ(par->records[i].dest_mask, serial->records[i].dest_mask);
    EXPECT_EQ(par->records[i].length, serial->records[i].length);
    EXPECT_EQ(par->records[i].mc, serial->records[i].mc);
  }
  const std::string serial_path = ::testing::TempDir() + "rec_serial.trace";
  const std::string par_path = ::testing::TempDir() + "rec_spans.trace";
  ASSERT_TRUE(save_trace(serial_path, *serial));
  ASSERT_TRUE(save_trace(par_path, *par));
  const std::string serial_text = json::read_file(serial_path);
  EXPECT_GT(serial_text.size(), 1000u);
  EXPECT_EQ(json::read_file(par_path), serial_text);
}

// ---------------------------------------------------------------------------
// Thread budget: nested parallelism (point fan-out x intra-network teams)
// must never exceed the configured total.

TEST(ThreadBudget, AcquireReleaseNeverExceedsTotal) {
  ScopedBudget budget(4);
  EXPECT_EQ(thread_budget::total(), 4);
  EXPECT_EQ(thread_budget::in_use(), 1);  // the root thread
  const int a = thread_budget::acquire(2);
  EXPECT_EQ(a, 2);
  const int b = thread_budget::acquire(5);  // only 1 left under the cap
  EXPECT_EQ(b, 1);
  EXPECT_EQ(thread_budget::acquire(1), 0);  // exhausted
  EXPECT_EQ(thread_budget::in_use(), 4);
  thread_budget::release(b);
  thread_budget::release(a);
  EXPECT_EQ(thread_budget::in_use(), 1);
  EXPECT_EQ(thread_budget::peak_in_use(), 4);
}

TEST(ThreadBudget, NetworkTeamsClampUnderTheCap) {
  ScopedBudget budget(3);  // root + at most 2 helpers
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = 4;
  Network a(cfg);  // leases 2 of the 3 requested helpers
  EXPECT_EQ(a.num_step_spans(), 4);
  EXPECT_EQ(a.step_workers(), 3);
  Network b(cfg);  // budget exhausted: steps its 4 spans inline
  EXPECT_EQ(b.num_step_spans(), 4);
  EXPECT_EQ(b.step_workers(), 1);
  EXPECT_LE(thread_budget::in_use(), 3);
  EXPECT_LE(thread_budget::peak_in_use(), 3);
}

TEST(ThreadBudget, NestedSweepAndSteppingStaysUnderTotal) {
  ScopedBudget budget(5);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.step_threads = 4;  // each point would like 3 extra threads
  const MeasureOptions measure{.warmup = 100, .window = 300};
  const ExperimentRunner runner{
      ExperimentOptions{.measure = measure, .threads = 4}};
  const auto results = runner.sweep(cfg, {0.02, 0.04, 0.06, 0.08});
  EXPECT_EQ(results.size(), 4u);
  // Whatever the interleaving, the lease arithmetic must have stayed under
  // the cap, and everything must have been returned.
  EXPECT_LE(thread_budget::peak_in_use(), 5);
  EXPECT_EQ(thread_budget::in_use(), 1);
  // And budget clamping must not have changed results (grant-invariance).
  cfg.step_threads = 1;
  const auto serial = sweep_curve(cfg, {0.02, 0.04, 0.06, 0.08}, measure);
  for (size_t i = 0; i < serial.size(); ++i)
    expect_identical(results[i], serial[i]);
}

}  // namespace
}  // namespace noc
