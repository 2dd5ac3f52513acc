// Large-k mesh scaling: saturation throughput vs. the paper's theoretical
// limits at k in {4, 8, 12, 16}, per ROUTING POLICY -- the question the
// multi-word DestMask datapath and the routing-policy subsystem exist to
// answer together (Table 1 is a function of k; the 16-node chip pins k=4
// and XY routing; this sweep asks how close larger meshes get to their OWN
// limits and how much of the residual gap is the XY share the paper blames
// on routing imbalance).
//
// Uniform 1-flit request traffic: the unicast limit crosses over from
// ejection-limited (R = 1, k <= 4) to bisection-limited (R = 4/k) exactly
// where the radix sweep starts, so the "fraction of limit" column tracks
// how much of the shrinking per-node budget each routing policy delivers
// as k grows. O1TURN and minimal-adaptive attack the XY share
// (docs/ROUTING.md); the headline comparison is their fraction-of-limit vs
// XY's at k >= 8.
//
// VC budget: the policy rows all run at 8x1 request VCs (4 per lane), NOT
// the chip's 4x1. At the fabricated budget a 2-VC lane saturates on the
// 3-cycle VC turnaround (an XY network cut to 2 request VCs loses half its
// throughput), so a 4-VC comparison measures pool granularity, not
// routing. At 8 VCs lane granularity is off the critical path and the
// residual differences are pure routing -- which is also an honest reading
// of why the chip could hardwire XY: at its tiny VC budget the
// load-balancing policies cannot pay for their lanes. The first row per
// radix keeps XY at the paper budget (emitted under the PR-4 entry name),
// so the cross-PR fraction-of-limit trajectory stays comparable.
//
// Results append to BENCH_perf.json (google-benchmark JSON schema, same
// file bench_perf_microbench writes) so the cross-PR perf tracker carries
// the large-k trajectory per policy; the CI `large-k smoke` step runs
// `--short` and uploads the file.
//
// Flags: --warmup N --window N --threads N --out FILE
//        --short     CI-sized measurement windows (same k/policy lists)
//        --all-policies  add the YX mirror (skipped by default: on uniform
//                        traffic it is XY reflected)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "campaign/grids.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "noc/experiment.hpp"
#include "sim/thread_pool.hpp"
#include "theory/mesh_limits.hpp"

using namespace noc;
using noc::Table;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.help()) {
    std::printf(
        "usage: %s [--warmup N] [--window N] [--threads N]\n"
        "          [--step-threads N] [--short] [--all-policies]\n"
        "          [--out FILE]\n",
        argv[0]);
    return 0;
  }
  const bool short_mode = args.has("short");
  const MeasureOptions opt = cli_measure_options(
      args, short_mode ? MeasureOptions{.warmup = 300, .window = 800}
                       : MeasureOptions{.warmup = 2000, .window = 6000});
  const ExperimentRunner runner{cli_experiment_options(args, opt)};
  const std::string out_path = args.get_str("out", "BENCH_perf.json");
  const int step_threads = cli_step_threads(args);
  const bool all_policies = args.has("all-policies");
  if (!args.check_unused()) return 1;

  // The point grid is campaign::large_k_manifest -- the same manifest
  // `campaign run --grid large-k` executes resumably -- so this bench and
  // the campaign engine agree on the grid. Per radix: the paper-budget XY
  // continuity row ("<k>/chip"), then the policy rows at the lane-capable
  // VC budget. --all-policies splices the YX mirror in after XY.
  campaign::Manifest manifest =
      campaign::large_k_manifest(short_mode, step_threads);
  if (all_policies) {
    for (size_t i = 0; i < manifest.points.size(); ++i) {
      if (manifest.points[i].id.rfind("/policy=xy") == std::string::npos)
        continue;
      campaign::CampaignPoint yx = manifest.points[i];
      yx.id = "k=" + std::to_string(yx.k) + "/policy=yx";
      yx.policy = RoutePolicy::YX;
      manifest.points.insert(manifest.points.begin() +
                                 static_cast<long>(++i),
                             yx);
    }
  }
  std::string err;
  const auto points = campaign::resolve_manifest(manifest, &err);
  if (points.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  // One flat batch: every (k, row) saturation search is independent, so
  // the runner fans them all across its workers at once.
  std::vector<NetworkConfig> cfgs;
  cfgs.reserve(points.size());
  for (const auto& p : points) cfgs.push_back(p.cfg);

  std::printf(
      "Large-k scaling: proposed router, uniform 1-flit requests, %s mode\n"
      "(saturation = offered load where latency reaches 3x zero-load;\n"
      " one row per routing policy per radix; step_threads=%d)\n\n",
      short_mode ? "short" : "full", step_threads);

  const auto sats = runner.find_saturations(cfgs);

  Table t("Saturation vs theoretical limit across mesh radix and policy");
  t.set_columns({"k", "Policy", "Req VCs", "Zero-load lat (cyc)",
                 "Sat R (fl/node/cyc)", "Limit R", "Sat (Gb/s)",
                 "Lat min/max (cyc)", "Fraction of limit"});
  std::vector<benchjson::Entry> entries;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    const int k = points[i].point->k;
    const bool paper_row =
        points[i].point->id.rfind("/chip") != std::string::npos;
    const auto& s = sats[i];
    const char* policy = route_policy_name(cfgs[i].router.routing);
    const double limit_r = theory::unicast_max_injection_rate(k);
    const double frac = s.saturation_offered / limit_r;
    t.add_row({Table::fmt_int(k),
               paper_row ? std::string(policy) + " (chip)"
                         : std::string(policy),
               Table::fmt_int(cfgs[i].router.vc.vcs_per_mc[0]),
               Table::fmt(s.zero_load_latency, 2),
               Table::fmt(s.saturation_offered, 3), Table::fmt(limit_r, 3),
               Table::fmt(s.saturation_gbps, 0),
               // Extremes at the saturation point (the mean alone hides the
               // queueing tail docs/OBSERVABILITY.md's histograms explain).
               Table::fmt_int(static_cast<int64_t>(
                   s.at_saturation.min_latency)) +
                   "/" +
                   Table::fmt_int(
                       static_cast<int64_t>(s.at_saturation.max_latency)),
               Table::fmt(frac, 3)});
    // The continuity row keeps the PR-4 entry name so the cross-PR
    // trajectory lines up; policy rows carry the policy in the name.
    // Delivered flits/cycle at saturation, at 1 GHz -> flits/second.
    entries.emplace_back(
        paper_row ? "large_k_scaling/k=" + std::to_string(k)
                  : "large_k_scaling/k=" + std::to_string(k) +
                        "/policy=" + policy,
        s.at_saturation.recv_flits_per_cycle * 1e9, "fraction_of_limit",
        frac);
  }
  t.print();

  // Intra-network stepping speedup (docs/PERF.md Layer 4): wall-clock of
  // the k=16 uniform saturation search, serial vs step_threads=4 on the
  // SAME search. Recorded as its own cross-PR entry; the budget is forced
  // so the threaded schedule really runs even on small recording hosts.
  // The entry carries the host context (core count, thread-budget grant) so
  // a sub-1x ratio recorded on a small machine is interpretable, and on a
  // single-core host the timed passes are skipped outright: 4 workers
  // time-slicing 1 core measures the scheduler, not the decomposition.
  {
    const unsigned cores = std::thread::hardware_concurrency();
    const int saved_budget = thread_budget::total();
    benchjson::Entry e;
    e.name = "large_k_scaling/k=16/step_threads=4_speedup";
    if (cores < 2) {
      std::printf(
          "\nk=16 step_threads=4 speedup: SKIPPED (1 hardware thread; a "
          "speedup\nratio on a time-sliced core is noise)\n");
      e.extra("skipped_single_core", 1.0);
    } else {
      thread_budget::set_total(std::max(4, saved_budget));
      NetworkConfig cfg = NetworkConfig::proposed(16);
      cfg.traffic.pattern = TrafficPattern::UniformRequest;
      double secs[2] = {0.0, 0.0};
      for (int pass = 0; pass < 2; ++pass) {
        cfg.step_threads = pass == 0 ? 1 : 4;
        const auto t0 = std::chrono::steady_clock::now();
        const auto sat = runner.find_saturations({cfg});
        const auto t1 = std::chrono::steady_clock::now();
        secs[pass] = std::chrono::duration<double>(t1 - t0).count();
        (void)sat;
      }
      thread_budget::set_total(saved_budget);
      const double speedup = secs[1] > 0.0 ? secs[0] / secs[1] : 0.0;
      std::printf(
          "\nk=16 uniform saturation-search wall-clock: serial %.2fs,"
          " step_threads=4 %.2fs -> %.2fx (%u hardware threads)\n",
          secs[0], secs[1], speedup, cores);
      e.items_per_second = secs[1] > 0.0 ? 1.0 / secs[1] : 0.0;
      e.extra("speedup_vs_serial", speedup);
    }
    e.extra("host_hw_concurrency", static_cast<double>(cores));
    e.extra("host_thread_budget", static_cast<double>(saved_budget));
    entries.push_back(e);
  }

  if (benchjson::append_entries(out_path, entries))
    std::printf("\nAppended %zu large-k entries to %s\n", entries.size(),
                out_path.c_str());
  else
    std::fprintf(stderr, "\nWARNING: could not write %s\n", out_path.c_str());

  std::printf(
      "\nReading the table: past k=4 the unicast limit is bisection-bound\n"
      "(R = 4/k), so absolute Gb/s keeps growing while the per-node budget\n"
      "shrinks. The fraction-of-limit column is the scaling story: the gap\n"
      "left by XY is part routing imbalance (what o1turn/adaptive recover\n"
      "by spreading unicasts over both dimension orders or around\n"
      "congestion) and part finite VC/credit turnaround (what remains).\n");
  return 0;
}
