#include "noc/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "sim/thread_pool.hpp"

namespace noc {

double deliveries_per_offered_flit(const NetworkConfig& cfg) {
  const MeshGeometry geom(cfg.k, cfg.ky > 0 ? cfg.ky : cfg.k);
  // A broadcast flit is delivered at every node, the source included.
  const auto n = static_cast<double>(geom.num_nodes());
  switch (cfg.traffic.pattern) {
    case TrafficPattern::BroadcastOnly:
      return n;
    case TrafficPattern::MixedPaper: {
      // Per logical packet: flits offered and flits delivered.
      const double offered = kMixedBroadcastFrac * 1.0 +
                             kMixedUnicastRequestFrac * 1.0 +
                             kMixedUnicastResponseFrac * 5.0;
      const double delivered = kMixedBroadcastFrac * n +
                               kMixedUnicastRequestFrac * 1.0 +
                               kMixedUnicastResponseFrac * 5.0;
      return delivered / offered;
    }
    default:
      return 1.0;
  }
}

PointResult measure_point(NetworkConfig cfg, double offered,
                          const MeasureOptions& opt, Trace* capture) {
  // Only the open loop has an offered rate to set; closed-loop and trace
  // workloads carry their own load knobs in the WorkloadSpec.
  if (cfg.workload.kind == WorkloadKind::OpenLoop)
    cfg.traffic.offered_flits_per_node_cycle = offered;
  Network net(cfg);
  if (capture != nullptr) net.record_trace(capture);
  Simulation sim(net);
  sim.run(opt.warmup);
  net.begin_measurement_window(sim.now());
  const EnergyCounters before = net.energy();
  sim.run(opt.window);
  net.end_measurement_window(sim.now());

  PointResult r;
  // Offered rate only describes the open loop; other workloads report 0
  // (their load lives in transactions / closed_loop_window).
  r.offered_fpc = cfg.workload.kind == WorkloadKind::OpenLoop ? offered : 0.0;
  r.avg_latency = net.metrics().avg_packet_latency();
  r.recv_flits_per_cycle = net.metrics().received_flits_per_cycle();
  r.recv_gbps = flits_per_cycle_to_gbps(r.recv_flits_per_cycle);
  r.completed_packets = net.metrics().completed_packets();
  r.dropped_packets = net.metrics().dropped_packets();
  r.max_ejection_load = net.metrics().max_ejection_link_load();
  r.max_bisection_load = net.metrics().max_bisection_link_load();
  r.energy = net.energy().delta_since(before);
  r.bypass_rate = r.energy.bypass_rate();

  const LatencyHistogram& hist = net.metrics().latency_hist();
  r.p50_latency = hist.percentile(0.50);
  r.p95_latency = hist.percentile(0.95);
  r.p99_latency = hist.percentile(0.99);
  r.min_latency = hist.min();
  r.max_latency = hist.max();
  if (const Telemetry* t = net.telemetry()) {
    for (int c = 0; c < kNumStallClasses; ++c)
      r.stall_cycles[c] = t->total_stalls(static_cast<StallClass>(c));
  }

  TrafficSource::WindowStats total;
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n) {
    const auto s = net.source(n).window_stats();
    total.transactions += s.transactions;
    total.latency_sum += s.latency_sum;
    total.latency_max = std::max(total.latency_max, s.latency_max);
    total.probe_legs += s.probe_legs;
    total.probe_latency_sum += s.probe_latency_sum;
    total.response_legs += s.response_legs;
    total.response_latency_sum += s.response_latency_sum;
  }
  r.transactions = total.transactions;
  const auto mean = [](int64_t sum, int64_t n) {
    return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
  };
  r.avg_transaction_latency = mean(total.latency_sum, total.transactions);
  r.max_transaction_latency = static_cast<double>(total.latency_max);
  r.probe_legs = total.probe_legs;
  r.avg_probe_latency = mean(total.probe_latency_sum, total.probe_legs);
  r.response_legs = total.response_legs;
  r.avg_response_latency =
      mean(total.response_latency_sum, total.response_legs);
  r.transactions_per_cycle =
      opt.window > 0
          ? static_cast<double>(total.transactions) /
                static_cast<double>(opt.window)
          : 0.0;
  if (cfg.workload.kind == WorkloadKind::ClosedLoop)
    r.closed_loop_window = cfg.workload.closed.window;
  return r;
}

PointResult measure_workload(const NetworkConfig& cfg,
                             const MeasureOptions& opt, Trace* capture) {
  return measure_point(cfg, cfg.traffic.offered_flits_per_node_cycle, opt,
                       capture);
}

double zero_load_latency(NetworkConfig cfg, const MeasureOptions& opt) {
  MeasureOptions zl = opt;
  zl.window = std::max<Cycle>(opt.window, 20000);
  const double tiny = 0.002;
  return measure_point(cfg, tiny, zl).avg_latency;
}

SaturationResult find_saturation(NetworkConfig cfg, const MeasureOptions& opt) {
  // Offered load is the search variable: only the open loop has one.
  // Closed-loop workloads sweep their window instead (window_sweep).
  NOC_EXPECTS(cfg.workload.kind == WorkloadKind::OpenLoop);
  SaturationResult res;
  res.zero_load_latency = zero_load_latency(cfg, opt);
  const double threshold = 3.0 * res.zero_load_latency;
  const double limit = 1.0 / deliveries_per_offered_flit(cfg);

  // Geometric ramp until saturated, then bisect.
  double lo = limit * 0.05, hi = limit * 1.10;
  PointResult lo_pt = measure_point(cfg, lo, opt);
  if (lo_pt.avg_latency > threshold) {
    // Saturates below 5% of the ejection limit; bisect from ~0.
    hi = lo;
    lo = limit * 0.002;
  } else {
    double rate = lo;
    bool found = false;
    while (rate < hi) {
      const double next = rate * 1.5;
      PointResult pt = measure_point(cfg, std::min(next, hi), opt);
      if (pt.avg_latency > threshold) {
        lo = rate;
        hi = std::min(next, hi);
        found = true;
        break;
      }
      rate = next;
    }
    if (!found) {
      // Never saturated inside the physical envelope: report the limit.
      res.saturation_offered = hi;
      res.at_saturation = measure_point(cfg, hi, opt);
      res.saturation_gbps = res.at_saturation.recv_gbps;
      return res;
    }
  }
  for (int iter = 0; iter < 9; ++iter) {
    const double mid = 0.5 * (lo + hi);
    PointResult pt = measure_point(cfg, mid, opt);
    if (pt.avg_latency > threshold)
      hi = mid;
    else
      lo = mid;
  }
  res.saturation_offered = 0.5 * (lo + hi);
  res.at_saturation = measure_point(cfg, res.saturation_offered, opt);
  res.saturation_gbps = res.at_saturation.recv_gbps;
  return res;
}

std::vector<PointResult> sweep_curve(NetworkConfig cfg,
                                     const std::vector<double>& offered,
                                     const MeasureOptions& opt) {
  NOC_EXPECTS(cfg.workload.kind == WorkloadKind::OpenLoop);
  std::vector<PointResult> out;
  out.reserve(offered.size());
  for (double r : offered) out.push_back(measure_point(cfg, r, opt));
  return out;
}

int ExperimentRunner::threads() const {
  return opt_.threads > 0 ? opt_.threads : ThreadPool::hardware_threads();
}

std::vector<PointResult> ExperimentRunner::run(
    const std::vector<SweepPoint>& points) const {
  std::vector<PointResult> out(points.size());
  // Each index is a fully independent simulation writing only its own slot:
  // the schedule cannot affect any result.
  parallel_for(threads(), static_cast<int>(points.size()), [&](int i) {
    const auto idx = static_cast<size_t>(i);
    out[idx] = measure_point(points[idx].cfg, points[idx].offered,
                             opt_.measure);
  });
  return out;
}

std::vector<PointResult> ExperimentRunner::sweep(
    const NetworkConfig& cfg, const std::vector<double>& offered) const {
  NOC_EXPECTS(cfg.workload.kind == WorkloadKind::OpenLoop);
  std::vector<SweepPoint> pts;
  pts.reserve(offered.size());
  for (double r : offered) pts.push_back(SweepPoint{cfg, r});
  return run(pts);
}

std::vector<std::vector<PointResult>> ExperimentRunner::sweep_all(
    const std::vector<NetworkConfig>& cfgs,
    const std::vector<double>& offered) const {
  for (const auto& cfg : cfgs)
    NOC_EXPECTS(cfg.workload.kind == WorkloadKind::OpenLoop);
  std::vector<SweepPoint> pts;
  pts.reserve(cfgs.size() * offered.size());
  for (const auto& cfg : cfgs)
    for (double r : offered) pts.push_back(SweepPoint{cfg, r});
  const auto flat = run(pts);
  std::vector<std::vector<PointResult>> curves(cfgs.size());
  for (size_t c = 0; c < cfgs.size(); ++c)
    curves[c].assign(flat.begin() + static_cast<long>(c * offered.size()),
                     flat.begin() + static_cast<long>((c + 1) * offered.size()));
  return curves;
}

std::vector<SaturationResult> ExperimentRunner::find_saturations(
    const std::vector<NetworkConfig>& cfgs) const {
  std::vector<SaturationResult> out(cfgs.size());
  parallel_for(threads(), static_cast<int>(cfgs.size()), [&](int i) {
    const auto idx = static_cast<size_t>(i);
    out[idx] = find_saturation(cfgs[idx], opt_.measure);
  });
  return out;
}

std::vector<PointResult> ExperimentRunner::window_sweep(
    const NetworkConfig& cfg, const std::vector<int>& windows) const {
  NOC_EXPECTS(cfg.workload.kind == WorkloadKind::ClosedLoop);
  std::vector<SweepPoint> pts;
  pts.reserve(windows.size());
  for (int w : windows) {
    SweepPoint p{cfg, 0.0};
    p.cfg.workload.closed.window = w;
    pts.push_back(std::move(p));
  }
  return run(pts);
}

MeasureOptions cli_measure_options(const CliArgs& args,
                                   const MeasureOptions& defaults) {
  // The same bounds manifests hold their measurement defaults to.
  MeasureOptions opt;
  opt.warmup = args.get_at_least<int64_t>("warmup", defaults.warmup, 0);
  opt.window = args.get_at_least<int64_t>("window", defaults.window, 1);
  return opt;
}

ExperimentOptions cli_experiment_options(const CliArgs& args,
                                         const MeasureOptions& defaults) {
  ExperimentOptions opt;
  opt.measure = cli_measure_options(args, defaults);
  opt.threads = args.get_at_least("threads", 0, 0);
  return opt;
}

RoutePolicy cli_route_policy(const CliArgs& args, RoutePolicy dflt) {
  const std::string name = args.get_str("policy", "");
  if (name.empty()) return dflt;
  if (const auto p = parse_route_policy(name)) return *p;
  std::fprintf(stderr,
               "unknown routing policy: %s (valid: xy yx o1turn adaptive)\n",
               name.c_str());
  std::exit(1);
}

int cli_mesh_radix(const CliArgs& args, int dflt) {
  const int64_t k = args.get_int("k", dflt);
  if (k < 2 || k > kMaxMeshRadix) {
    std::fprintf(stderr,
                 "invalid --k %lld: mesh radix must be in 2..%d "
                 "(DestMask capacity is %d nodes)\n",
                 static_cast<long long>(k), kMaxMeshRadix,
                 DestMask::kBits);
    std::exit(1);
  }
  return static_cast<int>(k);
}

}  // namespace noc
