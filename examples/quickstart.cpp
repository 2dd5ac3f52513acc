// Quickstart: build the paper's 16-node mesh, run mixed traffic, print the
// headline latency/throughput/energy numbers. Start here.
//
// Flags: --pattern NAME (e.g. uniform, mixed, broadcast, transpose)
//        --load R (flits/node/cycle)
//        --k N (mesh radix, 2..16; beyond DestMask capacity is rejected)
//        --policy NAME (xy | yx | o1turn | adaptive; default the chip's xy)
//        --step-threads N (intra-network parallel stepping; 1 = serial,
//                          results are bit-identical either way)
//        --telemetry (arm the observability probes, docs/OBSERVABILITY.md:
//                     prints the latency percentile table and the
//                     per-class stall attribution after the run)
#include <cstdio>

#include "common/cli.hpp"
#include "noc/experiment.hpp"
#include "noc/telemetry.hpp"
#include "power/energy_model.hpp"
#include "power/tech_params.hpp"
#include "theory/mesh_limits.hpp"

using namespace noc;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.help()) {
    std::printf(
        "usage: %s [--pattern NAME] [--load R] [--k N] [--policy NAME]\n"
        "          [--step-threads N] [--telemetry]\n",
        argv[0]);
    return 0;
  }
  // 1. Configure the fabricated design: 4x4 mesh by default (--k scales it
  //    up to the DestMask capacity), single-cycle virtual bypassing,
  //    router-level multicast, 4x1 REQ + 2x3 RESP VCs. --policy swaps the
  //    chip's XY routing for a load-balancing alternative (docs/ROUTING.md).
  const int k = cli_mesh_radix(args, 4);
  NetworkConfig cfg = NetworkConfig::proposed(k);
  cfg.router.routing = cli_route_policy(args, RoutePolicy::XY);
  cfg.step_threads = cli_step_threads(args);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;  // Fig 5's traffic
  cfg.traffic.offered_flits_per_node_cycle =
      args.get_at_least("load", 0.10, 0.0);
  if (const std::string p = args.get_str("pattern", ""); !p.empty()) {
    const auto parsed = parse_traffic_pattern(p);
    if (!parsed) {
      std::fprintf(stderr, "unknown traffic pattern: %s\n", p.c_str());
      return 1;
    }
    cfg.traffic.pattern = *parsed;
  }
  const bool telemetry = args.has("telemetry");
  cfg.telemetry.enabled = telemetry;
  if (!args.check_unused()) return 1;

  // 2. Run it: warm up, then measure for 10k cycles.
  Network net(cfg);
  Simulation sim(net);
  sim.run(3000);
  net.begin_measurement_window(sim.now());  // also resets stall counters
  sim.run(10000);
  net.end_measurement_window(sim.now());

  // 3. Read the results.
  const Metrics& m = net.metrics();
  std::printf(
      "== quickstart: proposed %dx%d NoC, %s routing, %s traffic @ %.2f "
      "flits/node/cycle, step-threads %d (%d worker%s) ==\n",
      k, k, route_policy_name(cfg.router.routing),
      traffic_pattern_name(cfg.traffic.pattern),
      cfg.traffic.offered_flits_per_node_cycle, cfg.step_threads,
      net.step_workers(), net.step_workers() == 1 ? "" : "s");
  std::printf("packets completed        : %lld\n",
              static_cast<long long>(m.completed_packets()));
  std::printf("avg packet latency       : %.2f cycles (theory limit %.2f)\n",
              m.avg_packet_latency(),
              theory::zero_load_latency_limit_mixed(k));
  std::printf("  unicast requests       : %.2f cycles\n",
              m.latency_hist(PacketKind::UnicastRequest).mean());
  std::printf("  unicast responses      : %.2f cycles\n",
              m.latency_hist(PacketKind::UnicastResponse).mean());
  std::printf("  broadcasts (to last)   : %.2f cycles\n",
              m.latency_hist(PacketKind::Broadcast).mean());
  std::printf("received throughput      : %.1f Gb/s (limit %.0f)\n",
              m.received_flits_per_cycle() * 64.0,
              theory::aggregate_throughput_limit_gbps(k));
  std::printf("bypass rate              : %.1f%% of hops skipped buffering\n",
              100.0 * net.energy().bypass_rate());

  // 3b. Observability (docs/OBSERVABILITY.md): the always-on histogram's
  //     exact order statistics, and -- probes armed -- where the
  //     non-productive cycles went.
  if (telemetry) {
    const LatencyHistogram& h = m.latency_hist();
    std::printf(
        "latency percentiles      : p50 %lld  p95 %lld  p99 %lld  "
        "(min %lld, max %lld)\n",
        static_cast<long long>(h.percentile(0.50)),
        static_cast<long long>(h.percentile(0.95)),
        static_cast<long long>(h.percentile(0.99)),
        static_cast<long long>(h.min()), static_cast<long long>(h.max()));
    const Telemetry& t = *net.telemetry();
    std::printf("stall attribution        :");
    for (int c = 0; c < kNumStallClasses; ++c)
      std::printf(" %s %lld%s",
                  stall_class_name(static_cast<StallClass>(c)),
                  static_cast<long long>(
                      t.total_stalls(static_cast<StallClass>(c))),
                  c + 1 < kNumStallClasses ? "," : "\n");
  }

  // 4. Energy: event counts -> calibrated 45nm SOI power model.
  const auto power = power::compute_power(net.energy(), k * k,
                                          power::calibrated_tech45(),
                                          /*lowswing_datapath=*/true);
  std::printf("network power            : %.1f mW (datapath %.1f, buffers %.1f,\n"
              "                           logic %.1f, clock+leak %.1f)\n",
              power.total_mw(), power.datapath_mw, power.buffers_mw,
              power.router_logic_mw(), power.clocking_segment_mw());
  return 0;
}
