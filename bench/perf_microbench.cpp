// Simulator performance microbenchmarks (google-benchmark). Not a paper
// figure -- this guards the cycle-accurate model's own speed so the sweep
// benches stay laptop-scale.
//
// Besides the console table, the run always writes BENCH_perf.json (google
// benchmark's JSON schema) into the working directory so the perf
// trajectory can be tracked across PRs. Each scenario reports:
//   items_per_second  -- node-cycles simulated per second
//   cycles_per_sec    -- Network::step calls per second (1e9 / ns-per-step)
//   s_per_flit_hop    -- time per router or NIC link traversal (the
//                        per-hop cost docs/PERF.md tabulates per radix)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "noc/experiment.hpp"
#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace noc;

constexpr int kCyclesPerIter = 100;

void run_cycles(benchmark::State& state, NetworkConfig cfg, double offered) {
  cfg.traffic.offered_flits_per_node_cycle = offered;
  Network net(cfg);
  Simulation sim(net);
  sim.run(500);  // warm the pipelines
  const EnergyCounters before = net.energy();
  for (auto _ : state) {
    sim.run(kCyclesPerIter);
    benchmark::DoNotOptimize(net.metrics().total_completed());
  }
  const EnergyCounters work = net.energy().delta_since(before);
  state.SetItemsProcessed(state.iterations() * kCyclesPerIter *
                          net.geom().num_nodes());
  state.counters["cycles_per_sec"] =
      benchmark::Counter(kCyclesPerIter,
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["s_per_flit_hop"] = benchmark::Counter(
      static_cast<double>(work.link_traversals + work.nic_link_traversals),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["completed"] =
      static_cast<double>(net.metrics().total_completed());
}

void BM_Proposed4x4Mixed(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Proposed4x4Mixed)->Unit(benchmark::kMicrosecond);

/// The fig5 curve's low-load point (identical-PRBS mixed traffic at 0.05
/// flits/node/cycle), where the router spends most cycles idle: the
/// activity-gating headline. Arg 0 = full phase walk, Arg 1 = gated;
/// compare items_per_second between the two rows for the gating speedup.
void BM_Fig5MixedLowLoad(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.identical_prbs = true;
  cfg.activity_gating = state.range(0) != 0;
  run_cycles(state, cfg, 0.05);
}
BENCHMARK(BM_Fig5MixedLowLoad)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Proposed4x4BroadcastSaturated(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  run_cycles(state, cfg, 0.055);
}
BENCHMARK(BM_Proposed4x4BroadcastSaturated)->Unit(benchmark::kMicrosecond);

void BM_Baseline4x4Mixed(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  run_cycles(state, cfg, 0.06);
}
BENCHMARK(BM_Baseline4x4Mixed)->Unit(benchmark::kMicrosecond);

void BM_Proposed8x8Uniform(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Proposed8x8Uniform)->Unit(benchmark::kMicrosecond);

/// Policy-dispatch overhead guard: the same scenario as
/// BM_Proposed8x8Uniform routed O1TURN, so the routing-policy subsystem's
/// hot-path additions (route-class checks, lane-aware VC allocation from
/// the per-class free lists) are gated against the 10% regression
/// threshold alongside the XY rows.
void BM_Proposed8x8O1TURN(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.router.routing = RoutePolicy::O1Turn;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Proposed8x8O1TURN)->Unit(benchmark::kMicrosecond);

/// Forces a real worker budget for the duration of a benchmark so the
/// intra-network stepping rows record honest threaded numbers even when the
/// recording host reports few cores (the CI perf gate normalizes by the
/// median ratio, so only the relative spread matters).
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int total)
      : saved_(thread_budget::total()) {
    thread_budget::set_total(std::max(total, saved_));
  }
  ~ScopedThreadBudget() { thread_budget::set_total(saved_); }

 private:
  int saved_;
};

/// Saturated uniform load with domain-decomposed stepping (docs/PERF.md
/// Layer 4). Arg = step_threads: compare the Arg(4) row's items_per_second
/// against Arg(1) for the intra-network speedup; the Arg(1) row doubles as
/// the serial-overhead guard (the partition machinery is bypassed at one
/// span, so it must track BM_Proposed8x8Uniform).
void BM_Proposed8x8UniformSat(benchmark::State& state) {
  ScopedThreadBudget budget(4);
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.step_threads = static_cast<int>(state.range(0));
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 0.35);
}
BENCHMARK(BM_Proposed8x8UniformSat)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_Proposed16x16UniformSat(benchmark::State& state) {
  ScopedThreadBudget budget(4);
  NetworkConfig cfg = NetworkConfig::proposed(16);
  cfg.step_threads = static_cast<int>(state.range(0));
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 0.20);
}
BENCHMARK(BM_Proposed16x16UniformSat)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Past the single-word DestMask boundary (144 nodes): tracks the cost of
/// the multi-word mask datapath at a radix the old uint64_t mask could not
/// represent. items_per_second is node-cycles/s, so this row is comparable
/// across radices.
void BM_Proposed12x12Uniform(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(12);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Proposed12x12Uniform)->Unit(benchmark::kMicrosecond);

/// Per-hop cost against radix (docs/PERF.md "Per-hop state"): uniform load
/// at half the XY bisection limit of 4/k flits/node/cycle, so every k runs
/// at the same relative load and s_per_flit_hop compares across k.
/// Arg = k.
void BM_ProposedUniformPerK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  NetworkConfig cfg = NetworkConfig::proposed(k);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  run_cycles(state, cfg, 2.0 / k);
}
BENCHMARK(BM_ProposedUniformPerK)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

/// Degraded-mesh rows (docs/FAULTS.md): uniform 8x8 with Arg dead links
/// from the seeded planner, killed at cycle 0. Fault-mode adaptive routes
/// off the surviving escape tree while xy wedges on the dead links, so
/// these rows are expected slower than their pristine twins and are
/// exempted from the CI perf gate via --allow-slower 'Degraded'.
void BM_Degraded8x8Adaptive(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.fault = make_random_fault_plan(MeshGeometry(8), /*seed=*/7,
                                     static_cast<int>(state.range(0)),
                                     /*degrades=*/0, /*kill_at=*/0,
                                     /*revive_after=*/0);
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Degraded8x8Adaptive)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_Degraded8x8XY(benchmark::State& state) {
  NetworkConfig cfg = NetworkConfig::proposed(8);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.fault = make_random_fault_plan(MeshGeometry(8), /*seed=*/7,
                                     static_cast<int>(state.range(0)),
                                     /*degrades=*/0, /*kill_at=*/0,
                                     /*revive_after=*/0);
  run_cycles(state, cfg, 0.10);
}
BENCHMARK(BM_Degraded8x8XY)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_NetworkConstruction(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Network net(NetworkConfig::proposed(k));
    benchmark::DoNotOptimize(&net);
  }
}
BENCHMARK(BM_NetworkConstruction)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

/// Multi-point sweep through ExperimentRunner: the workload the parallel
/// engine accelerates. Thread count is the benchmark argument (1 = serial
/// fallback), so the speedup is visible directly in the JSON.
void BM_ParallelSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  const std::vector<double> loads = {0.05, 0.10, 0.15, 0.20,
                                     0.25, 0.30, 0.35, 0.40};
  ExperimentOptions opt;
  opt.measure = MeasureOptions{.warmup = 300, .window = 700};
  opt.threads = threads;
  const ExperimentRunner runner{opt};
  for (auto _ : state) {
    auto results = runner.sweep(cfg, loads);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(loads.size()));
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)  // serial fallback
    ->Arg(std::max(2, ThreadPool::hardware_threads()))  // pooled path
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  // Console for humans, BENCH_perf.json for the cross-PR perf tracker:
  // default the library's file-output flags unless the caller overrides.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_perf.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int our_argc = static_cast<int>(args.size());
  benchmark::Initialize(&our_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(our_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
