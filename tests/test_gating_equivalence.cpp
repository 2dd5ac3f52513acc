// Activity-gated stepping must be metric-invisible (docs/PERF.md): for any
// traffic pattern, workload family and pipeline mode, a network stepped with
// activity gating on must produce bit-identical PointResults -- every
// latency average, throughput figure and raw energy event count -- to the
// same config stepped through the full phase walk. Gating may only skip
// work that is a provable no-op, so any divergence here is a missed wake-up
// edge or a skipped tick that was not actually idle.
#include <gtest/gtest.h>

#include <algorithm>

#include "noc/experiment.hpp"
#include "noc/network.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"
#include "sim/thread_pool.hpp"

namespace noc {
namespace {

void expect_identical(const PointResult& a, const PointResult& b) {
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
  EXPECT_EQ(a.energy.vc_active_cycles, b.energy.vc_active_cycles);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.avg_transaction_latency, b.avg_transaction_latency);
  EXPECT_EQ(a.max_transaction_latency, b.max_transaction_latency);
  EXPECT_EQ(a.transactions_per_cycle, b.transactions_per_cycle);
  // The always-on latency histogram (docs/OBSERVABILITY.md): exact-rank
  // order statistics, so bit-identical across gating like everything else.
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

constexpr MeasureOptions kOpt{.warmup = 300, .window = 900};

void expect_gating_invisible(NetworkConfig cfg, double offered) {
  SCOPED_TRACE(std::string("pattern=") +
               traffic_pattern_name(cfg.traffic.pattern) +
               " workload=" + workload_kind_name(cfg.workload.kind) +
               " pipeline=" + std::to_string(static_cast<int>(
                                  cfg.router.pipeline)) +
               (cfg.traffic.identical_prbs ? " identical-prbs" : ""));
  cfg.activity_gating = true;
  const PointResult gated = measure_point(cfg, offered, kOpt);
  cfg.activity_gating = false;
  const PointResult full = measure_point(cfg, offered, kOpt);
  expect_identical(gated, full);
}

NetworkConfig pipeline_config(PipelineMode p) {
  switch (p) {
    case PipelineMode::Proposed: return NetworkConfig::proposed(4);
    case PipelineMode::ThreeStage: return NetworkConfig::lowswing_multicast(4);
    case PipelineMode::FourStage: return NetworkConfig::baseline_4stage(4);
  }
  return NetworkConfig::proposed(4);
}

constexpr PipelineMode kPipelines[] = {
    PipelineMode::Proposed, PipelineMode::ThreeStage, PipelineMode::FourStage};

TEST(GatingEquivalence, OpenLoopAllPatternsAllPipelines) {
  constexpr TrafficPattern kPatterns[] = {
      TrafficPattern::UniformRequest, TrafficPattern::MixedPaper,
      TrafficPattern::BroadcastOnly,  TrafficPattern::Transpose,
      TrafficPattern::BitComplement,  TrafficPattern::Tornado,
      TrafficPattern::NearestNeighbor};
  for (PipelineMode p : kPipelines) {
    for (TrafficPattern pattern : kPatterns) {
      NetworkConfig cfg = pipeline_config(p);
      cfg.traffic.pattern = pattern;
      cfg.traffic.seed = 7;
      const double offered =
          pattern == TrafficPattern::BroadcastOnly ? 0.04 : 0.10;
      expect_gating_invisible(cfg, offered);
    }
  }
}

TEST(GatingEquivalence, IdenticalPrbsTimedSleep) {
  // The identical-PRBS accumulator is the one source that predicts exact
  // future fire cycles, driving the timed-wake path; cover it at a load
  // sparse enough that NICs park between bursts, for every pipeline.
  for (PipelineMode p : kPipelines) {
    for (TrafficPattern pattern :
         {TrafficPattern::UniformRequest, TrafficPattern::MixedPaper}) {
      NetworkConfig cfg = pipeline_config(p);
      cfg.traffic.pattern = pattern;
      cfg.traffic.identical_prbs = true;
      expect_gating_invisible(cfg, 0.05);
    }
  }
}

TEST(GatingEquivalence, RoutingPoliciesAllWorkloadShapes) {
  // The routing-policy axis: O1TURN's lane coin and MinimalAdaptive's
  // credit-driven port choice read only state a sleeping router cannot
  // change, so gating must stay metric-invisible under every policy --
  // including at a sparse load where components actually park, and under
  // the broadcast-heavy mix where multicasts share the ordered lane.
  constexpr RoutePolicy kPolicies[] = {
      RoutePolicy::XY, RoutePolicy::YX, RoutePolicy::O1Turn,
      RoutePolicy::MinimalAdaptive};
  for (RoutePolicy policy : kPolicies) {
    for (TrafficPattern pattern :
         {TrafficPattern::UniformRequest, TrafficPattern::MixedPaper}) {
      NetworkConfig cfg = NetworkConfig::proposed(4);
      cfg.router.routing = policy;
      cfg.traffic.pattern = pattern;
      cfg.traffic.seed = 13;
      expect_gating_invisible(cfg, 0.05);
      expect_gating_invisible(cfg, 0.30);
    }
    NetworkConfig closed = NetworkConfig::proposed(4);
    closed.router.routing = policy;
    closed.workload.kind = WorkloadKind::ClosedLoop;
    closed.workload.closed.window = 4;
    closed.workload.closed.issue_prob = 0.05;
    closed.workload.closed.think_time = 6;
    expect_gating_invisible(closed, 0.0);
  }
}

TEST(GatingEquivalence, FaultScheduleIsGatingInvisible) {
  // Fault mode (docs/FAULTS.md): apply_faults runs at the top of every
  // step in both modes, wedged routers never sleep (busy components stay
  // on the active list), and drop events land in the same cycle whether or
  // not anything was parked -- so a mid-window kill/revive schedule must
  // stay bit-invisible to gating, drops included.
  for (RoutePolicy policy :
       {RoutePolicy::MinimalAdaptive, RoutePolicy::XY}) {
    NetworkConfig cfg = NetworkConfig::proposed(4);
    cfg.router.routing = policy;
    cfg.traffic.pattern = TrafficPattern::UniformRequest;
    cfg.traffic.seed = 31;
    // Inside kOpt's 300+900 window: kill at 500 (with an off-tree node 5
    // under adaptive: both its up links die), revive at 900.
    cfg.fault.kill_link(500, 5, 1)
        .kill_link(500, 5, 4)
        .degrade_router(500, 10)
        .revive_link(900, 5, 1)
        .revive_link(900, 5, 4)
        .restore_router(900, 10);
    expect_gating_invisible(cfg, 0.05);
    expect_gating_invisible(cfg, 0.25);
    expect_gating_invisible(cfg, 0.10);
  }
}

TEST(GatingEquivalence, TelemetryProbesAreDeterministicObservers) {
  // Telemetry (docs/OBSERVABILITY.md) must be a pure observer: with the
  // probes on, stall attribution and the latency order statistics must be
  // bit-identical across gating on/off AND serial vs step_threads=4 -- the
  // stall counters are charged only over busy VCs, so every stepping mode
  // counts the same cycles by construction. Covered across a
  // mid-window kill/revive epoch, where rerouting shifts the stall mix.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.seed = 37;
  cfg.fault.kill_link(500, 5, 1)
      .kill_link(500, 5, 4)
      .revive_link(900, 5, 1)
      .revive_link(900, 5, 4);
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 64;
  cfg.activity_gating = true;

  const PointResult base = measure_point(cfg, 0.25, kOpt);
  // The probes saw real traffic (all-zero counters would make the equality
  // checks below vacuous), and the ranks are ordered as ranks must be.
  int64_t total_stalls = 0;
  for (int64_t s : base.stall_cycles) total_stalls += s;
  EXPECT_GT(total_stalls, 0);
  EXPECT_GT(base.completed_packets, 0);
  EXPECT_LE(base.min_latency, base.p50_latency);
  EXPECT_LE(base.p50_latency, base.p95_latency);
  EXPECT_LE(base.p95_latency, base.p99_latency);
  EXPECT_LE(base.p99_latency, base.max_latency);

  {
    SCOPED_TRACE("telemetry x gating off");
    NetworkConfig ungated = cfg;
    ungated.activity_gating = false;
    expect_identical(base, measure_point(ungated, 0.25, kOpt));
  }
  {
    SCOPED_TRACE("telemetry x step_threads=4");
    const int saved = thread_budget::total();
    thread_budget::set_total(std::max(4, saved));
    NetworkConfig threaded = cfg;
    threaded.step_threads = 4;
    const PointResult par = measure_point(threaded, 0.25, kOpt);
    thread_budget::set_total(saved);
    expect_identical(base, par);
  }
  {
    // Observer effect: switching the probes off must not move a single
    // base metric (stall rows aside -- they read zero without telemetry).
    SCOPED_TRACE("telemetry off");
    NetworkConfig off = cfg;
    off.telemetry.enabled = false;
    const PointResult dark = measure_point(off, 0.25, kOpt);
    PointResult expect_dark = base;
    for (int c = 0; c < kNumStallClasses; ++c) expect_dark.stall_cycles[c] = 0;
    expect_identical(expect_dark, dark);
  }
}

TEST(GatingEquivalence, NearSaturation) {
  // Dense traffic exercises every arbitration path with nothing asleep;
  // gating must degrade into the full walk without perturbing a thing.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  expect_gating_invisible(cfg, 0.60);
}

TEST(GatingEquivalence, ClosedLoopAllPipelines) {
  for (PipelineMode p : kPipelines) {
    NetworkConfig cfg = pipeline_config(p);
    cfg.workload.kind = WorkloadKind::ClosedLoop;
    cfg.workload.closed.window = 4;
    cfg.workload.closed.issue_prob = 0.05;  // sparse: think-time sleeps
    cfg.workload.closed.think_time = 6;
    expect_gating_invisible(cfg, 0.0);
  }
}

TEST(GatingEquivalence, ClosedLoopSaturating) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 8;
  cfg.workload.closed.issue_prob = 1.0;
  expect_gating_invisible(cfg, 0.0);
}

TEST(GatingEquivalence, TraceReplay) {
  auto trace = std::make_shared<Trace>();
  {
    NetworkConfig rec = NetworkConfig::proposed(4);
    rec.traffic.pattern = TrafficPattern::MixedPaper;
    rec.traffic.offered_flits_per_node_cycle = 0.06;
    Network net(rec);
    net.record_trace(trace.get());
    Simulation sim(net);
    sim.run(2000);
  }
  ASSERT_FALSE(trace->records.empty());
  for (PipelineMode p : kPipelines) {
    NetworkConfig cfg = pipeline_config(p);
    cfg.workload.kind = WorkloadKind::Trace;
    cfg.workload.trace.trace = trace;
    expect_gating_invisible(cfg, 0.0);
  }
}

TEST(GatingEquivalence, LargeK12OpenLoop) {
  // 144 nodes: the awake bitmasks are now multi-word DestMasks, so gating
  // equivalence above 64 nodes checks the wake machinery's high words
  // (a one-word-truncation bug would leave nodes 64+ permanently asleep or
  // permanently awake and diverge immediately).
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.seed = 9;
  expect_gating_invisible(cfg, 0.01);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.identical_prbs = true;  // timed sleeps on high-word nodes
  expect_gating_invisible(cfg, 0.03);
}

TEST(GatingEquivalence, LargeK12ClosedLoop) {
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 2;
  cfg.workload.closed.issue_prob = 0.02;
  cfg.workload.closed.think_time = 6;
  expect_gating_invisible(cfg, 0.0);
}

TEST(GatingEquivalence, MidRunRateChangeOverSleepingNics) {
  // Regression: set_rate while identical-PRBS NICs are parked between
  // fires. The slept-through cycles were governed by the OLD rate; the
  // replay must use it (OpenLoopSource stashes it), or the accumulator
  // phase -- and every subsequent fire -- diverges from the ungated walk.
  struct Totals {
    int64_t completed;
    int64_t latency_sum;
    int64_t xbar;
  };
  Totals results[2];
  for (bool gating : {true, false}) {
    NetworkConfig cfg = NetworkConfig::proposed(4);
    cfg.activity_gating = gating;
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    cfg.traffic.identical_prbs = true;
    cfg.traffic.offered_flits_per_node_cycle = 0.02;  // fires ~100 apart
    Network net(cfg);
    Simulation sim(net);
    net.begin_measurement_window(sim.now());  // so latency_sum is non-zero
    sim.run(517);  // mid-sleep for every NIC
    for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
      net.nic(n).source().set_rate(0.17);
    sim.run(2000);
    for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
      net.nic(n).source().set_rate(0.0);  // a second change, mid-sleep again
    sim.run(300);
    for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
      net.nic(n).source().set_rate(0.05);
    sim.run(1000);
    results[gating ? 0 : 1] =
        Totals{net.metrics().total_completed(),
               net.metrics().latency_hist().sum(),
               net.energy().xbar_traversals};
  }
  EXPECT_EQ(results[0].completed, results[1].completed);
  EXPECT_EQ(results[0].latency_sum, results[1].latency_sum);
  EXPECT_EQ(results[0].xbar, results[1].xbar);
}

TEST(GatingEquivalence, DrainReachesQuiescenceAtTheSameCycle) {
  // quiescent() is a pure function of architectural state, so a gated and
  // an ungated network must drain in exactly the same number of cycles.
  Cycle reference = -1;
  for (bool gating : {true, false}) {
    NetworkConfig cfg = NetworkConfig::proposed(4);
    cfg.activity_gating = gating;
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    cfg.traffic.offered_flits_per_node_cycle = 0.10;
    Network net(cfg);
    Simulation sim(net);
    sim.run(1000);
    for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
      net.nic(n).source().set_rate(0.0);
    ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 10000));
    if (reference < 0)
      reference = sim.now();
    else
      EXPECT_EQ(sim.now(), reference);
  }
}

}  // namespace
}  // namespace noc
