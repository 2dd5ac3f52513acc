// `campaign`: run / status / gather / clean for campaign manifests
// (src/campaign/, docs/CAMPAIGN.md).
//
//   campaign run    <manifest> [--threads N] [--max-points N] [--quiet]
//   campaign status <manifest>
//   campaign gather <manifest> [--out FILE]
//   campaign clean  <manifest>
//   campaign emit --grid NAME [--out FILE] [grid options]
//   campaign telemetry [--k N] [--out-dir DIR] [...]   (docs/OBSERVABILITY.md)
//
// <manifest> is either a manifest file path or `--grid NAME` for one of the
// built-in grids (design-space | large-k | trace-ablation | smoke), with
// grid options --k N, --step-threads N, --short. Results live under
// --results DIR (default: campaign-results/<campaign-name>).
//
// `run` executes only the points without a valid record -- re-running a
// killed or partially-invalidated campaign resumes where it left off;
// --max-points N bounds one invocation (the CI smoke job's deterministic
// "kill"). `gather` merges the records into one google-benchmark-schema
// report for tools/check_perf_regression.py-style consumers.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "campaign/grids.hpp"
#include "campaign/runner.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"

using namespace noc;
using namespace noc::campaign;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s <run|status|gather|clean|emit|telemetry> [<manifest-file>]\n"
      "  manifest source: a positional manifest file path, or\n"
      "    --grid NAME   built-in grid: design-space | large-k |\n"
      "                  trace-ablation | smoke\n"
      "    --k N         grid mesh radix (design-space, trace-ablation)\n"
      "    --step-threads N  intra-network stepping threads (grids)\n"
      "    --short       CI-sized windows (large-k)\n"
      "  common:\n"
      "    --results DIR results root (default campaign-results/<name>)\n"
      "  run:\n"
      "    --threads N   point fan-out workers (0 = all cores)\n"
      "    --max-points N  execute at most N incomplete points\n"
      "    --quiet       suppress per-point lines\n"
      "  gather/emit:\n"
      "    --out FILE    output path (gather: campaign_report.json;\n"
      "                  emit: stdout manifest path, default <name>.campaign)\n"
      "  telemetry (no manifest; one instrumented run, docs/OBSERVABILITY.md):\n"
      "    --k N           mesh radix (default 8)\n"
      "    --out-dir DIR   artifact directory (default telemetry-out)\n"
      "    --offered R     open-loop load (default 0.15 flits/node/cycle)\n"
      "    --warmup/--window N  phase lengths (defaults 2000/6000)\n"
      "    --sample-every N     time-series period (default 50, 0 = off)\n"
      "    --trace-every N      packet trace sampling (default 64, 0 = off)\n",
      argv0);
}

bool build_manifest(const CliArgs& args, const std::string& path,
                    Manifest* out) {
  const std::string grid = args.get_str("grid", "");
  if (!grid.empty()) {
    const int k = cli_mesh_radix(args, 4);
    const int step_threads = cli_step_threads(args);
    if (grid == "design-space") {
      *out = design_space_manifest(k, step_threads);
    } else if (grid == "large-k") {
      *out = large_k_manifest(args.has("short"), step_threads);
    } else if (grid == "trace-ablation") {
      *out = trace_ablation_manifest(k);
    } else if (grid == "smoke") {
      *out = smoke_manifest();
    } else {
      std::fprintf(stderr,
                   "unknown grid '%s' (valid: design-space large-k "
                   "trace-ablation smoke)\n",
                   grid.c_str());
      return false;
    }
    return true;
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "no manifest: pass a manifest file or --grid NAME\n");
    return false;
  }
  std::string err;
  auto m = load_manifest(path, &err);
  if (m == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return false;
  }
  *out = *m;
  return true;
}

int cmd_run(const Manifest& m, const ResultStore& store,
            const CliArgs& args) {
  RunOptions opt;
  opt.threads = args.get_at_least("threads", 0, 0);
  if (args.has("max-points"))
    opt.max_points = args.get_at_least("max-points", 0, 0);
  opt.verbose = !args.has("quiet");
  if (!args.check_unused()) return 1;
  std::printf("campaign '%s': %zu points -> %s\n", m.name.c_str(),
              m.points.size(), store.root().c_str());
  const auto t0 = std::chrono::steady_clock::now();
  const RunSummary sum = run_campaign(m, store, opt);
  const auto t1 = std::chrono::steady_clock::now();
  for (const std::string& e : sum.errors)
    std::fprintf(stderr, "error: %s\n", e.c_str());
  std::printf(
      "executed %d, skipped %d (already complete), deferred %d, failed %d "
      "in %.1fs\n",
      sum.executed, sum.skipped, sum.deferred, sum.failed,
      std::chrono::duration<double>(t1 - t0).count());
  if (sum.deferred > 0)
    std::printf("re-run to continue (deferred points resume where this "
                "invocation stopped)\n");
  return sum.ok() ? 0 : 1;
}

int cmd_status(const Manifest& m, const ResultStore& store,
               const CliArgs& args) {
  if (!args.check_unused()) return 1;
  std::string err;
  const auto resolved = resolve_manifest(m, &err);
  if (resolved.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  // Per-grid rollup: point ids are path-shaped (grids.cpp emits
  // "<axis>/<point>"), so the prefix before the first '/' is the grid a
  // point belongs to; prefix-less ids land under "(ungrouped)". "blocked"
  // counts replay points that cannot run yet because their capture has no
  // record -- pending, but not actionable by a bare re-run.
  struct GroupCounts {
    int complete = 0;
    int pending = 0;
    int blocked = 0;
  };
  std::map<std::string, GroupCounts> groups;
  int complete = 0;
  for (const ResolvedPoint& r : resolved) {
    const bool done = store.has_record(r.point->id, r.hash);
    bool blocked = false;
    if (!done && r.dep_index >= 0) {
      const ResolvedPoint& dep = resolved[static_cast<size_t>(r.dep_index)];
      blocked = !store.has_record(dep.point->id, dep.hash);
    }
    complete += done ? 1 : 0;
    const size_t slash = r.point->id.find('/');
    const std::string group =
        slash == std::string::npos ? "(ungrouped)"
                                   : r.point->id.substr(0, slash);
    GroupCounts& g = groups[group];
    if (done)
      ++g.complete;
    else if (blocked)
      ++g.blocked;
    else
      ++g.pending;
    std::printf("  %-9s %s  %s (%s)\n",
                done ? "complete" : (blocked ? "blocked" : "pending"),
                r.hash.c_str(), r.point->id.c_str(),
                point_kind_name(r.point->kind));
  }
  std::printf("campaign '%s' under %s:\n", m.name.c_str(),
              store.root().c_str());
  for (const auto& [name, g] : groups)
    std::printf("  %-24s %d complete, %d pending, %d blocked (of %d)\n",
                name.c_str(), g.complete, g.pending, g.blocked,
                g.complete + g.pending + g.blocked);
  std::printf("total: %d/%zu points complete\n", complete, resolved.size());
  return 0;
}

int cmd_gather(const Manifest& m, const ResultStore& store,
               const CliArgs& args) {
  const std::string out =
      args.get_str("out", store.root() + "/campaign_report.json");
  if (!args.check_unused()) return 1;
  const GatherResult g = gather_campaign(m, store, out);
  if (!g.error.empty()) {
    std::fprintf(stderr, "%s\n", g.error.c_str());
    return 1;
  }
  for (const std::string& id : g.missing)
    std::fprintf(stderr, "missing record: %s\n", id.c_str());
  if (!g.wrote) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("gathered %d/%zu records into %s\n", g.complete,
              m.points.size(), out.c_str());
  return g.missing.empty() ? 0 : 1;
}

int cmd_clean(const Manifest& m, const ResultStore& store,
              const CliArgs& args) {
  if (!args.check_unused()) return 1;
  std::string err;
  const int removed = store.remove_campaign(m, &err);
  if (removed < 0) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::printf("removed %d file(s) for campaign '%s' under %s\n", removed,
              m.name.c_str(), store.root().c_str());
  return 0;
}

bool write_links_csv(const std::string& path, const Network& net) {
  std::string csv = "node,x,y,east,west,north,south,local\n";
  const MeshGeometry& g = net.geom();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const Coord c = g.coord(n);
    csv += std::to_string(n) + ',' + std::to_string(c.x) + ',' +
           std::to_string(c.y);
    for (PortDir p : {PortDir::East, PortDir::West, PortDir::North,
                      PortDir::South, PortDir::Local})
      csv += ',' + std::to_string(net.metrics().link_flits(n, p));
    csv += '\n';
  }
  return json::write_file(path, csv);
}

/// One instrumented 8x8 adaptive run with a mid-run link kill: the
/// single-command telemetry demo (docs/OBSERVABILITY.md). Two back-to-back
/// measurement windows -- pristine, then one with a central link dying a
/// quarter of the way in -- and every exporter's artifact written to
/// --out-dir for tools/plot_telemetry.py.
int cmd_telemetry(const CliArgs& args) {
  const int k = cli_mesh_radix(args, 8);
  const std::string dir = args.get_str("out-dir", "telemetry-out");
  // The bounds manifests hold these fields to; 0 turns a sampler off.
  const double offered = args.get_at_least("offered", 0.15, 0.0);
  const auto [warmup, window] =
      cli_measure_options(args, {.warmup = 2000, .window = 6000});
  const Cycle sample_every = args.get_at_least<int64_t>("sample-every", 50, 0);
  const auto trace_every =
      static_cast<uint64_t>(args.get_at_least<int64_t>("trace-every", 64, 0));
  const int step_threads = cli_step_threads(args);
  if (!args.check_unused()) return 1;

  NetworkConfig cfg = NetworkConfig::proposed(k);
  cfg.router.routing = RoutePolicy::MinimalAdaptive;
  cfg.step_threads = step_threads;
  cfg.traffic.offered_flits_per_node_cycle = offered;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = sample_every;
  cfg.telemetry.trace_sample_every = trace_every;
  // Kill a central horizontal link a quarter into the second window; the
  // faulted window's tail statistics show the rerouting detour inflation.
  const MeshGeometry geom(k, k);
  const NodeId fa = geom.id(k / 2 - 1, k / 2);
  const NodeId fb = geom.id(k / 2, k / 2);
  cfg.fault.kill_link(warmup + window + window / 4, fa, fb);

  Network net(cfg);
  Simulation sim(net);
  struct WindowRow {
    const char* name;
    int64_t packets = 0;
    double avg = 0;
    Cycle p50 = 0, p95 = 0, p99 = 0, min = 0, max = 0;
  };
  auto run_window = [&](const char* name) {
    net.begin_measurement_window(sim.now());
    sim.run(window);
    net.end_measurement_window(sim.now());
    const LatencyHistogram& h = net.metrics().latency_hist();
    return WindowRow{name,
                     h.count(),
                     net.metrics().avg_packet_latency(),
                     h.percentile(0.50),
                     h.percentile(0.95),
                     h.percentile(0.99),
                     h.min(),
                     h.max()};
  };
  sim.run(warmup);
  const WindowRow rows[2] = {run_window("pristine"), run_window("faulted")};

  std::printf("telemetry run: %dx%d adaptive, offered %.2f, link %d-%d "
              "killed at cycle %lld\n",
              k, k, offered, fa, fb,
              static_cast<long long>(warmup + window + window / 4));
  std::printf("%-9s %9s %9s %6s %6s %6s %6s %6s\n", "window", "packets",
              "avg", "p50", "p95", "p99", "min", "max");
  for (const WindowRow& r : rows)
    std::printf("%-9s %9lld %9.2f %6lld %6lld %6lld %6lld %6lld\n", r.name,
                static_cast<long long>(r.packets), r.avg,
                static_cast<long long>(r.p50), static_cast<long long>(r.p95),
                static_cast<long long>(r.p99), static_cast<long long>(r.min),
                static_cast<long long>(r.max));

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }
  const Telemetry* t = net.telemetry();
  bool ok = true;
  // stalls.csv / links.csv are window-scoped and cover the FAULTED window
  // (both reset at begin_measurement_window): the heatmaps show where the
  // rerouted traffic piles up around the dead link.
  ok = t->write_perfetto_json(dir + "/trace.json") && ok;
  ok = t->write_timeseries_json(dir + "/timeseries.json") && ok;
  ok = t->write_stalls_csv(dir + "/stalls.csv", k) && ok;
  ok = write_links_csv(dir + "/links.csv", net) && ok;
  if (!ok) {
    std::fprintf(stderr, "cannot write telemetry artifacts under %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf(
      "wrote %s/{trace.json,timeseries.json,stalls.csv,links.csv}\n"
      "render: python3 tools/plot_telemetry.py %s\n"
      "trace.json loads in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
      dir.c_str(), dir.c_str());
  return 0;
}

int cmd_emit(const Manifest& m, const CliArgs& args) {
  const std::string out = args.get_str("out", m.name + ".campaign");
  if (!args.check_unused()) return 1;
  if (!save_manifest(out, m)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu-point manifest '%s' to %s\n", m.points.size(),
              m.name.c_str(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (argc < 2 || args.help()) {
    usage(argv[0]);
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  // `telemetry` is manifest-free: one instrumented demo run.
  if (cmd == "telemetry") return cmd_telemetry(args);
  // The first non-flag token after the subcommand is the manifest path
  // (CliArgs ignores positionals; flag values are consumed by their flag).
  std::string manifest_path;
  for (int i = 2; i < argc; ++i) {
    const bool is_flag = argv[i][0] == '-';
    if (is_flag) {
      // Skip this flag's value token ("--name value" form).
      if (std::strchr(argv[i], '=') == nullptr && i + 1 < argc &&
          argv[i + 1][0] != '-')
        ++i;
      continue;
    }
    manifest_path = argv[i];
    break;
  }

  Manifest m;
  if (!build_manifest(args, manifest_path, &m)) return 1;
  if (std::string err = validate_manifest(m); !err.empty()) {
    std::fprintf(stderr, "invalid manifest: %s\n", err.c_str());
    return 1;
  }

  if (cmd == "emit") return cmd_emit(m, args);

  const ResultStore store(
      args.get_str("results", "campaign-results/" + m.name));
  if (cmd == "run") return cmd_run(m, store, args);
  if (cmd == "status") return cmd_status(m, store, args);
  if (cmd == "gather") return cmd_gather(m, store, args);
  if (cmd == "clean") return cmd_clean(m, store, args);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  usage(argv[0]);
  return 1;
}
