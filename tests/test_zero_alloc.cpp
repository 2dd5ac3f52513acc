// The steady-state no-allocation invariant (docs/PERF.md): once a network
// is warmed up, Network::step must not touch the heap. Verified with a
// counting global operator new/delete -- the strongest form of the check,
// since it also catches allocations hidden inside library containers.
//
// This TU must not run anything between the counter snapshots except the
// simulation itself (gtest assertions allocate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "noc/network.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"
#include "sim/thread_pool.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

// The nothrow forms must be overridden too: libstdc++ allocates temporary
// buffers (std::stable_sort etc.) through them, and mixing its allocator
// with our free() is an alloc-dealloc mismatch under ASan.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace noc {
namespace {

uint64_t allocations_during_run(NetworkConfig cfg, Cycle warmup,
                                Cycle measured) {
  Network net(cfg);
  Simulation sim(net);
  sim.run(warmup);
  // Window bookkeeping (metrics + per-source transaction stats) is part of
  // the measured regime in real sweeps.
  net.begin_measurement_window(sim.now());
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim.run(measured);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  net.end_measurement_window(sim.now());
  return after - before;
}

TEST(ZeroAlloc, ProposedRouterSteadyStateMixedTraffic) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, ProposedRouterSteadyStateBroadcast) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  cfg.traffic.offered_flits_per_node_cycle = 0.04;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, BaselineRouterWithNicDuplication) {
  // The unicast baseline duplicates broadcasts at the NIC: its packet
  // queues see far more churn, and must still be allocation-free once the
  // ring capacities have grown to the steady-state high-water mark.
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.04;
  EXPECT_EQ(allocations_during_run(cfg, 4000, 6000), 0u);
}

TEST(ZeroAlloc, GatedIdenticalPrbsSleepWake) {
  // Sparse identical-PRBS traffic drives the activity machinery hardest:
  // NICs park on timed wake-ups between synchronized bursts, channel slots
  // are reused for later arrival cycles, routers sleep between waves. None
  // of that bookkeeping may touch the heap.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.identical_prbs = true;
  cfg.traffic.offered_flits_per_node_cycle = 0.05;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, FourStagePipelineSteadyState) {
  NetworkConfig cfg = NetworkConfig::baseline_4stage(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.08;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, ClosedLoopSourceSteadyState) {
  // Closed-loop coherence: outstanding-miss tracking, owed-response queues
  // and latency stats must all live in pre-sized source state.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 8;
  cfg.workload.closed.issue_prob = 1.0;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, ClosedLoopWithNicDuplicationSteadyState) {
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 2;
  cfg.workload.closed.issue_prob = 0.02;
  EXPECT_EQ(allocations_during_run(cfg, 4000, 6000), 0u);
}

TEST(ZeroAlloc, TraceReplaySteadyState) {
  // Record a trace first (recording may allocate freely), then verify the
  // replay datapath is allocation-free across the measured window.
  auto trace = std::make_shared<Trace>();
  {
    NetworkConfig rec = NetworkConfig::proposed(4);
    rec.traffic.pattern = TrafficPattern::MixedPaper;
    rec.traffic.offered_flits_per_node_cycle = 0.08;
    Network net(rec);
    net.record_trace(trace.get());
    Simulation sim(net);
    sim.run(10000);
  }
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::Trace;
  cfg.workload.trace.trace = trace;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, O1TurnSteadyStateUniformSaturated) {
  // Lane-partitioned VC allocation (stamped per-lane free queues) and the
  // per-packet order coin are inline state; saturating load keeps both
  // lanes churning.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::O1Turn;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.50;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, O1TurnSteadyStateMixedTraffic) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::O1Turn;
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, AdaptiveSteadyStateUniformSaturated) {
  // The adaptive re-aim path (productive-port scoring + escape fallback)
  // runs every VA retry under backpressure; it must stay heap-free.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.50;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, AdaptiveSteadyStateClosedLoop) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 8;
  cfg.workload.closed.issue_prob = 1.0;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, LargeK12SteadyStateMixedTraffic) {
  // k=12 (144 nodes, multi-word DestMask): the widened masks live inline in
  // Flit/Packet/Branch, so the invariant must hold unchanged -- any heap
  // touch here means mask state leaked into a dynamic container.
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.02;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 4000), 0u);
}

TEST(ZeroAlloc, LargeK12ClosedLoopSteadyState) {
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = 2;
  cfg.workload.closed.issue_prob = 0.02;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 4000), 0u);
}

TEST(ZeroAlloc, ParallelSteppingSteadyState) {
  // Intra-network parallel stepping (docs/PERF.md Layer 4): per-span
  // scratch (masks, staging buffers, capture shards) is
  // preallocated at partition time or grown during warmup; the steady-state
  // barrier loop itself must never touch the heap. Force a real budget so
  // the threaded schedule actually runs even on small CI hosts.
  const int saved = noc::thread_budget::total();
  noc::thread_budget::set_total(8);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = 4;
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.06;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  noc::thread_budget::set_total(saved);
}

TEST(ZeroAlloc, ParallelSteppingUngatedSteadyState) {
  const int saved = noc::thread_budget::total();
  noc::thread_budget::set_total(8);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = 2;
  cfg.activity_gating = false;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.08;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 5000), 0u);
  noc::thread_budget::set_total(saved);
}

TEST(ZeroAlloc, PortGatingSteadyState) {
  // Per-port gating (docs/PERF.md Layer 5): the wake-port words, the
  // internal-work mask build and the phase skips are all inline state; the
  // sparse identical-PRBS regime churns ports on and off every burst.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.port_gating = true;
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.identical_prbs = true;
  cfg.traffic.offered_flits_per_node_cycle = 0.05;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  cfg.router.port_gating = false;  // router-level gating only
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, PortGatingParallelSteppingSteadyState) {
  // The per-port axis under domain-decomposed stepping: wake-port words are
  // written by channel hooks on the receiver's span, so the threaded
  // schedule exercises the same inline paths (and must stay heap-free) with
  // the bits armed.
  const int saved = noc::thread_budget::total();
  noc::thread_budget::set_total(8);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.06;
  cfg.router.port_gating = true;
  cfg.step_threads = 1;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  cfg.step_threads = 4;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  noc::thread_budget::set_total(saved);
}

TEST(ZeroAlloc, FaultedAdaptiveSteadyState) {
  // Fault mode (docs/FAULTS.md): the schedule advance, the escape-tree
  // recompute on each epoch change, the in-flight branch conversion and the
  // drop-branch sweep all run INSIDE the measured window here (kill at
  // 4000, revive at 5000, kill again at 7000 against warmup 3000 + 6000
  // measured) and must never touch the heap -- FaultState preallocates
  // every table at init.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.20;
  cfg.fault.kill_link(4000, 5, 6)
      .kill_link(4000, 9, 10)
      .degrade_router(4000, 6)
      .revive_link(5000, 5, 6)
      .revive_link(5000, 9, 10)
      .restore_router(5000, 6)
      .kill_link(7000, 10, 11);
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, FaultedParallelSteppingSteadyState) {
  // The same mid-window fault schedule under span-parallel stepping: the
  // main-thread apply_faults + on_topology_change fan-out and the span
  // merge of PacketDropped events must stay heap-free too.
  const int saved = noc::thread_budget::total();
  noc::thread_budget::set_total(8);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = 4;
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  cfg.fault.kill_link(4000, 27, 35)
      .kill_link(4000, 28, 36)
      .revive_link(6000, 27, 35)
      .kill_link(7500, 18, 19);
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  noc::thread_budget::set_total(saved);
}

TEST(ZeroAlloc, TelemetrySteadyState) {
  // Telemetry (docs/OBSERVABILITY.md): the stall counters are inline
  // per-router arrays, the time-series ring and the trace-event buffer are
  // reserved at construction, and tracing stops (rather than growing) when
  // the buffer fills -- so probes-on steady state must stay heap-free with
  // sampling AND packet-lifecycle tracing armed inside the measured window.
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 32;
  cfg.telemetry.trace_sample_every = 16;
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
}

TEST(ZeroAlloc, TelemetryFaultedParallelSteppingSteadyState) {
  // Probes on under span-parallel stepping with a mid-window kill/revive:
  // tracing auto-disables in parallel mode, but the per-router stall rows,
  // the main-thread time-series sampling and the fault-marker ring all stay
  // armed -- and every one of them is preallocated.
  const int saved = noc::thread_budget::total();
  noc::thread_budget::set_total(8);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = 4;
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.offered_flits_per_node_cycle = 0.10;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = 32;
  cfg.telemetry.trace_sample_every = 16;
  cfg.fault.kill_link(4000, 27, 35).revive_link(6000, 27, 35);
  EXPECT_EQ(allocations_during_run(cfg, 3000, 6000), 0u);
  noc::thread_budget::set_total(saved);
}

TEST(ZeroAlloc, SanityCounterIsLive) {
  // Guard against the override silently not linking: an explicit heap
  // allocation must bump the counter.
  const uint64_t before = g_allocations.load();
  auto* p = new int(42);
  EXPECT_GT(g_allocations.load(), before);
  delete p;
}

}  // namespace
}  // namespace noc
