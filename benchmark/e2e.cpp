// noc_e2e: one measured run of the outside-in benchmark
// (benchmark/README.md).
//
//   noc_e2e --workload NAME --seed N --seconds S --out DIR [--trace] [--quick]
//
// A run repeats one named workload's batch through the simulator's public
// API for about S seconds, checks every batch's outputs, and prints one
// JSON object as the last line of stdout. All host time is measured here,
// around calls into the layers; the simulator itself carries no timers.
//
// The host this runs on drifts in speed, so a run times many short batches
// and reports medians: a batch that lands in a slow spell moves the median
// far less than it would move one long measurement. The first batch is an
// untimed warm-up whose outputs every later batch must reproduce exactly.
// Timed batches run on one thread; parallel stepping and the thread pool
// run in untimed checks and in the traced run's probes.
//
// Untraced, the run also measures set-up: every distinct Network a batch
// builds (plus the manifest resolve for the campaign), built kSetupReps
// times, median reported. Traced (--trace), untraced and traced batches
// alternate; each call this file makes into a layer during a traced batch
// is wrapped in a span, the spans are written to DIR/trace-NAME.json as
// Chrome trace events (Perfetto opens the file), and the layer probes then
// run on the workload's representative configuration. --quick shrinks
// every measurement window for the benchmark's self-test; its numbers are
// never reported.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/grids.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "common/cli.hpp"
#include "noc/experiment.hpp"
#include "sim/thread_pool.hpp"
#include "theory/mesh_limits.hpp"

using namespace noc;

namespace {

// Repetitions behind every median this file reports. Set-up is the
// noisiest metric (sub-millisecond constructions), so it gets the most.
constexpr int kSetupReps = 25;
constexpr int kIoReps = 5;
constexpr int kPointReps = 3;
// Timed batches a run makes however short --seconds is (half of them
// traced under --trace).
constexpr int kMinBatches = 4;
// Step probe: cycles stepped before timing, then individually timed steps
// (a tenth of each under --quick).
constexpr Cycle kProbeWarmup = 500;
constexpr int kProbeSteps = 2000;
// Threads of the untimed parallel checks and probes: column spans of the
// sat_k16 bit-identity check and the spans probe, runner threads of the
// pool probe. Timed batches run on one thread: on a shared few-core host,
// a batch that waits for its slowest thread slows by up to twice as much
// in a noisy spell as a serial one.
constexpr int kSpanThreads = 2;
constexpr int kPoolThreads = 2;

// --- host clocks ------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median wall time of `reps` calls of fn.
double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return quantile(t, 0.5);
}

// --- one-line JSON ----------------------------------------------------------

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  if (std::isfinite(v))
    std::snprintf(buf, sizeof buf, "%.17g", v);
  else
    std::snprintf(buf, sizeof buf, "null");
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    return raw(key, number(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i)
    out += (i > 0 ? ", " : "") + number(v[i]);
  return out + "]";
}

// --- spans ------------------------------------------------------------------

struct Span {
  std::string layer;  // repository module the call enters
  std::string name;   // the public function called
  std::string label;  // which instance (figure, point id, probe variant)
  double start_s = 0;
  double end_s = 0;
  int id = 0;
  int parent = -1;
};

/// Spans kept in memory, written once at exit. Only the main thread opens
/// spans: the calls it wraps may fan out to workers internally, but the
/// call itself returns on the caller.
class SpanRecorder {
 public:
  bool enabled = false;

  int begin(std::string layer, std::string name, std::string label) {
    if (!enabled) return -1;
    Span s;
    s.layer = std::move(layer);
    s.name = std::move(name);
    s.label = std::move(label);
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = now_s();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_s = now_s();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanRecorder g_spans;

class ScopedSpan {
 public:
  ScopedSpan(std::string layer, std::string name, std::string label = "")
      : id_(g_spans.begin(std::move(layer), std::move(name),
                          std::move(label))) {}
  ~ScopedSpan() { g_spans.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds); the span id
/// and parent id ride in args so the nesting survives outside the viewer.
bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  const auto& spans = g_spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject args;
    args.num("id", s.id).num("parent", s.parent).str("label", s.label);
    JsonObject ev;
    ev.str("name", s.label.empty() ? s.name : s.name + " " + s.label)
        .str("cat", s.layer)
        .str("ph", "X")
        .num("ts", s.start_s * 1e6)
        .num("dur", (s.end_s - s.start_s) * 1e6)
        .num("pid", 1)
        .num("tid", 1)
        .raw("args", args.text());
    std::fprintf(f, "%s%s\n", ev.text().c_str(),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

/// Span-derived layer table of the traced batches (each a "job" root span
/// and its descendants; the probes that follow are not counted), per batch:
/// time per call (and per call instance), and each layer's self time -- its
/// spans' durations minus the part their child spans cover. Children run
/// sequentially inside their parent (one recording thread), so the covered
/// part is the sum of child durations.
JsonObject layer_table() {
  const auto& spans = g_spans.spans();
  std::vector<double> child_time(spans.size(), 0.0);
  std::vector<bool> in_job(spans.size(), false);
  int batches = 0;
  for (const Span& s : spans) {
    const auto i = static_cast<size_t>(s.id);
    const bool root = s.parent < 0 && s.layer == "job";
    batches += root ? 1 : 0;
    in_job[i] =
        root || (s.parent >= 0 && in_job[static_cast<size_t>(s.parent)]);
    if (s.parent >= 0)
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::vector<std::pair<std::string, double>> rows;
  auto add = [&rows](const std::string& key, double v) {
    for (auto& [k, total] : rows)
      if (k == key) {
        total += v;
        return;
      }
    rows.emplace_back(key, v);
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!in_job[i]) continue;
    const Span& s = spans[i];
    const double dur = s.end_s - s.start_s;
    add(s.layer + "." + s.name + "_s", dur);
    if (!s.label.empty()) add(s.layer + "." + s.name + "_s." + s.label, dur);
    add("self_s." + s.layer, dur - child_time[i]);
  }
  JsonObject t;
  for (const auto& [k, v] : rows) t.num(k, v / std::max(batches, 1));
  return t;
}

// --- one batch --------------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

bool pristine(const PointResult& r) {
  return r.completed_packets > 0 && r.dropped_packets == 0 &&
         std::isfinite(r.avg_latency);
}

/// With distinct generators the zero-load latency sits at the Table 1
/// limit (H + 2 NIC cycles) give or take hop-count averaging; a model
/// change that breaks the pipeline moves it far off.
bool near_limit(double zero_load, double limit) {
  return std::isfinite(zero_load) && std::abs(zero_load / limit - 1.0) < 0.25;
}

/// What one batch did: its operations, the failed ones, a digest of its
/// simulated results and the headline outputs.
struct Batch {
  int attempted = 0;
  std::vector<std::string> errors;
  uint64_t digest = kFnvOffset;
  std::vector<std::pair<std::string, double>> simulated;

  /// One operation: attempted, and failed unless `ok`.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) errors.push_back(what);
  }

  /// Result digest: FNV-1a over every value at %.17g, in batch order.
  void fold(double v) {
    char buf[40];
    const int n = std::snprintf(buf, sizeof buf, "%.17g;", v);
    for (int i = 0; i < n; ++i) {
      digest ^= static_cast<unsigned char>(buf[i]);
      digest *= kFnvPrime;
    }
  }
  void fold(const std::vector<std::pair<std::string, double>>& report) {
    for (const auto& kv : report) fold(kv.second);
  }
  void fold(const PointResult& r) {
    fold(campaign::point_report(r));
    // The energy counts point_report leaves out.
    const EnergyCounters& e = r.energy;
    for (const int64_t v :
         {e.nic_link_traversals, e.sa1_arbitrations, e.sa2_arbitrations,
          e.vc_allocations, e.lookaheads_sent, e.cycles, e.partial_bypasses})
      fold(static_cast<double>(v));
  }

  void point(const std::string& what, const PointResult& r) {
    fold(r);
    op(pristine(r),
       what + ": no completed packets, dropped packets or non-finite latency");
  }
  void saturation(const std::string& what, const SaturationResult& s) {
    fold(s.zero_load_latency);
    fold(s.saturation_offered);
    fold(s.saturation_gbps);
    fold(s.at_saturation);
    op(pristine(s.at_saturation) && s.zero_load_latency > 0 &&
           s.saturation_gbps > 0,
       what + ": saturation search produced an invalid point");
  }
};

struct Options {
  uint64_t seed = 1;
  bool quick = false;
  std::string out_dir;

  MeasureOptions windows(MeasureOptions full) const {
    return quick ? MeasureOptions{.warmup = 100, .window = 300} : full;
  }
  int setup_reps() const { return quick ? 3 : kSetupReps; }
  Cycle probe_warmup() const {
    return quick ? kProbeWarmup / 10 : kProbeWarmup;
  }
  int probe_steps() const { return quick ? kProbeSteps / 10 : kProbeSteps; }
};

/// A workload: one batch, its set-up, and the representative configuration
/// the traced run probes.
struct Workload {
  std::function<void(Batch&)> run;
  /// An untimed check run once per job after the warm-up batch, given the
  /// warm-up's digest (sat_k16: the batch on column spans).
  std::function<void(Batch&, uint64_t)> check;
  /// Builds every distinct Network a batch builds, plus any other per-batch
  /// preparation (the campaign's manifest resolve).
  std::function<void()> setup;
  /// One-point manifest naming the representative configuration and its
  /// windows.
  campaign::Manifest probe;
};

campaign::Manifest probe_manifest(const campaign::CampaignPoint& p,
                                  const MeasureOptions& opt) {
  campaign::Manifest m;
  m.name = "probe";
  m.default_warmup = opt.warmup;
  m.default_window = opt.window;
  m.points.push_back(p);
  m.points.back().kind = campaign::PointKind::Measure;
  return m;
}

// fig5 + fig13 as bench/fig5_mixed_traffic and bench/fig13_broadcast_traffic
// run them (same configs, load lists, sweep and search calls), on a serial
// runner, at a tenth of their 3000/12000 warmup/window: the full-length
// procedure takes about 26 CPU-seconds, too long to repeat in a run.
Workload paper_k4(const Options& o) {
  struct Figure {
    std::string name;
    NetworkConfig prop, base;
    std::vector<double> loads;
    double zero_load_limit = 0;
  };
  std::vector<Figure> figs;
  for (const TrafficPattern pattern :
       {TrafficPattern::MixedPaper, TrafficPattern::BroadcastOnly}) {
    const bool mixed = pattern == TrafficPattern::MixedPaper;
    Figure f;
    f.name = mixed ? "fig5" : "fig13";
    f.prop = NetworkConfig::proposed(4);
    f.base = NetworkConfig::baseline_3stage(4);
    for (NetworkConfig* c : {&f.prop, &f.base}) {
      c->traffic.pattern = pattern;
      c->traffic.identical_prbs = true;
      c->traffic.seed = o.seed;
    }
    if (mixed) {
      f.zero_load_limit = theory::zero_load_latency_limit_mixed(4);
      const double cap = 1.0 / deliveries_per_offered_flit(f.prop);
      for (double x : {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.72, 0.78,
                       0.84, 0.88, 0.92})
        f.loads.push_back(x * cap);
    } else {
      f.zero_load_limit = theory::zero_load_latency_limit_broadcast(4);
      for (double x : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.78, 0.84, 0.9,
                       0.94})
        f.loads.push_back(x / 16.0);
    }
    figs.push_back(std::move(f));
  }
  // fig5's clean-generator zero-load latency.
  NetworkConfig clean = figs[0].prop;
  clean.traffic.identical_prbs = false;

  Workload w;
  w.setup = [figs, clean] {
    for (const Figure& f : figs) {
      Network prop(f.prop);
      Network base(f.base);
    }
    Network net(clean);
  };
  const MeasureOptions opt = o.windows({.warmup = 300, .window = 1200});
  w.run = [figs, clean, opt](Batch& b) {
    const ExperimentRunner runner{{.measure = opt, .threads = 1}};
    std::vector<SaturationResult> prop, base;  // per figure
    for (const Figure& f : figs) {
      std::vector<std::vector<PointResult>> curves;
      {
        ScopedSpan s("experiment", "sweep_all", f.name);
        curves = runner.sweep_all({f.prop, f.base}, f.loads);
      }
      for (size_t c = 0; c < curves.size(); ++c)
        for (size_t i = 0; i < f.loads.size(); ++i)
          b.point(f.name + (c == 0 ? "/proposed@" : "/baseline3@") +
                      std::to_string(f.loads[i]),
                  curves[c][i]);
      std::vector<SaturationResult> sats;
      {
        ScopedSpan s("experiment", "find_saturations", f.name);
        sats = runner.find_saturations({f.prop, f.base});
      }
      b.saturation(f.name + "/proposed", sats[0]);
      b.saturation(f.name + "/baseline3", sats[1]);
      b.op(sats[0].saturation_gbps > sats[1].saturation_gbps &&
               sats[0].zero_load_latency >= f.zero_load_limit,
           f.name + ": proposed router below baseline or below the "
                    "zero-load latency limit");
      prop.push_back(sats[0]);
      base.push_back(sats[1]);
    }
    double zl = 0;
    {
      ScopedSpan s("experiment", "zero_load_latency", "fig5-clean");
      zl = zero_load_latency(clean, opt);
    }
    b.fold(zl);
    b.op(near_limit(zl, figs[0].zero_load_limit),
         "fig5: clean-generator zero-load latency far from the limit");

    // The paper's five headline numbers for fig5 and fig13.
    const double limit_gbps = theory::aggregate_throughput_limit_gbps(4);
    const std::pair<double, double> vs_paper[] = {
        {prop[0].saturation_gbps / limit_gbps, 0.871},
        {prop[0].zero_load_latency - figs[0].zero_load_limit, 5.7},
        {prop[1].saturation_gbps / limit_gbps, 0.91},
        {prop[1].saturation_gbps / base[1].saturation_gbps, 2.2},
        {prop[1].zero_load_latency - figs[1].zero_load_limit, 6.3},
    };
    double err = 0;
    for (const auto& [got, paper] : vs_paper)
      err += std::abs(got - paper) / paper;
    b.simulated = {
        {"sat_gbps", prop[0].saturation_gbps},
        {"zero_load_cycles", prop[0].zero_load_latency},
        {"sat_p99_cycles",
         static_cast<double>(prop[0].at_saturation.p99_latency)},
        {"paper_err_pct", 100.0 * err / 5.0},
        {"fig13_sat_gbps", prop[1].saturation_gbps},
        {"fig13_zero_load_cycles", prop[1].zero_load_latency},
        {"fig13_improvement",
         prop[1].saturation_gbps / base[1].saturation_gbps},
        {"fig5_clean_zero_load_cycles", zl},
    };
  };

  // Probe: fig5's proposed router at low load, where per-cycle overhead,
  // gating and the timed PRBS wakes dominate a k=4 step.
  campaign::CampaignPoint p;
  p.id = "probe/k4_low";
  p.k = 4;
  p.pattern = TrafficPattern::MixedPaper;
  p.identical_prbs = true;
  p.offered = 0.05;
  p.seed = o.seed;
  w.probe = probe_manifest(p, opt);
  return w;
}

// The points of large_k_scaling's k=16 uniform saturation search that
// carry its cost, at the search's 300/800 warmup/window: find_saturation's
// first ramp load, the last ramp load below saturation and the first
// above it. A whole search (17 points, about 8 s) is too long to repeat in
// a run. Timed serially; once per job the same batch runs on kSpanThreads
// column spans and must agree bit for bit.
Workload sat_k16(const Options& o) {
  NetworkConfig cfg = NetworkConfig::proposed(16);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.seed = o.seed;
  const MeasureOptions opt = o.windows({.warmup = 300, .window = 800});
  const std::vector<double> loads = {0.05, 0.05 * 1.5 * 1.5 * 1.5,
                                     0.05 * 1.5 * 1.5 * 1.5 * 1.5};
  const auto batch = [opt, loads](const NetworkConfig& cfg, Batch& b) {
    std::vector<PointResult> r;
    {
      ScopedSpan s("experiment", "sweep_curve", "k16");
      r = sweep_curve(cfg, loads, opt);
    }
    for (size_t i = 0; i < loads.size(); ++i)
      b.point("k16@" + std::to_string(loads[i]), r[i]);
    b.op(near_limit(r[0].avg_latency,
                    theory::zero_load_latency_limit_unicast(16)),
         "k16: low-load latency far from the zero-load limit");
    // find_saturation's criterion: saturated once the average latency
    // passes three times the unloaded latency.
    const double threshold = 3.0 * r[0].avg_latency;
    b.op(r[1].avg_latency < threshold && r[2].avg_latency > threshold,
         "k16: the loads do not bracket saturation");
    b.simulated = {
        {"low_load_cycles", r[0].avg_latency},
        {"below_sat_cycles", r[1].avg_latency},
        {"past_sat_gbps", r[2].recv_gbps},
        {"past_sat_p99_cycles", static_cast<double>(r[2].p99_latency)},
    };
  };

  Workload w;
  w.setup = [cfg] { Network net(cfg); };
  w.run = [cfg, batch](Batch& b) { batch(cfg, b); };
  w.check = [cfg, batch](Batch& b, uint64_t serial_digest) {
    NetworkConfig spans = cfg;
    spans.step_threads = kSpanThreads;
    Batch parallel;
    batch(spans, parallel);
    b.op(parallel.errors.empty() && parallel.digest == serial_digest,
         "k16: column-span stepping differs from serial stepping");
  };

  // Probe: the same network past saturation, every router awake.
  campaign::CampaignPoint p;
  p.id = "probe/k16_sat";
  p.k = 16;
  p.offered = 0.20;
  p.seed = o.seed;
  w.probe = probe_manifest(p, opt);
  return w;
}

double report_value(const std::vector<std::pair<std::string, double>>& rep,
                    std::string_view key) {
  for (const auto& [k, v] : rep)
    if (k == key) return v;
  return NAN;
}

// trace_ablation_manifest(16) into a fresh store, at a quarter of its
// 500/2000 warmup/window (the full-length campaign takes about 8 s):
// capture, five replays (one campaign call per point, in manifest order),
// a resume that must skip everything, a gather, then the captured trace
// read back and written again.
Workload trace_ablation(const Options& o) {
  struct State {
    campaign::Manifest m;
    campaign::ResultStore store;
    std::shared_ptr<Trace> trace;  // the last batch's capture, for set-up
  };
  campaign::Manifest m = campaign::trace_ablation_manifest(16);
  for (campaign::CampaignPoint& p : m.points) p.seed = o.seed;
  const MeasureOptions opt = o.windows({.warmup = 125, .window = 500});
  m.default_warmup = opt.warmup;
  m.default_window = opt.window;
  const auto st = std::make_shared<State>(
      State{m, campaign::ResultStore(o.out_dir + "/campaign"), nullptr});

  Workload w;
  w.setup = [st] {
    std::string err;
    for (const campaign::ResolvedPoint& r :
         campaign::resolve_manifest(st->m, &err)) {
      NetworkConfig cfg = r.cfg;
      if (cfg.workload.kind == WorkloadKind::Trace) {
        if (st->trace == nullptr) continue;
        cfg.workload.trace.trace = st->trace;
      }
      Network net(cfg);
    }
  };
  w.run = [st](Batch& b) {
    const campaign::Manifest& m = st->m;
    const campaign::ResultStore& store = st->store;
    std::filesystem::remove_all(store.root());
    std::string err;
    std::vector<campaign::ResolvedPoint> resolved;
    {
      ScopedSpan s("campaign", "resolve_manifest");
      resolved = campaign::resolve_manifest(m, &err);
    }
    if (resolved.empty()) {
      b.op(false, "resolve_manifest: " + err);
      return;
    }
    const int n = static_cast<int>(resolved.size());
    const campaign::RunOptions one_point{.threads = 1, .max_points = 1};
    for (const campaign::ResolvedPoint& r : resolved) {
      campaign::RunSummary sum;
      {
        ScopedSpan s("campaign", "run_campaign", r.point->id);
        sum = campaign::run_campaign(m, store, one_point);
      }
      b.op(sum.executed == 1 && sum.failed == 0,
           r.point->id + ": " +
               (sum.errors.empty() ? "not executed" : sum.errors[0]));
    }
    {
      campaign::RunSummary sum;
      {
        ScopedSpan s("campaign", "run_campaign", "resume");
        sum = campaign::run_campaign(m, store, {.threads = 1});
      }
      b.op(sum.executed == 0 && sum.skipped == n && sum.failed == 0,
           "resume executed or failed points");
    }
    {
      campaign::GatherResult g;
      {
        ScopedSpan s("campaign", "gather_campaign");
        g = campaign::gather_campaign(m, store, store.root() + "/report.json");
      }
      b.op(g.wrote && g.complete == n && g.missing.empty(),
           "gather: report not written or rows missing");
    }

    std::vector<std::vector<std::pair<std::string, double>>> reports;
    const campaign::ResolvedPoint* capture = nullptr;
    for (const campaign::ResolvedPoint& r : resolved) {
      campaign::CampaignRecord rec;
      const bool loaded = store.load_record(r.point->id, r.hash, &rec);
      b.fold(rec.report);
      b.op(loaded && report_value(rec.report, "completed_packets") > 0 &&
               report_value(rec.report, "dropped_packets") == 0 &&
               std::isfinite(report_value(rec.report, "avg_latency")),
           r.point->id + ": record missing or invalid");
      reports.push_back(std::move(rec.report));
      if (r.point->kind == campaign::PointKind::Capture) capture = &r;
    }
    if (capture == nullptr) {
      b.op(false, "manifest has no capture point");
      return;
    }
    auto report_of = [&](std::string_view id) -> const auto& {
      for (int i = 0; i < n; ++i)
        if (resolved[static_cast<size_t>(i)].point->id == id)
          return reports[static_cast<size_t>(i)];
      return reports[0];
    };
    const auto& gated = report_of("replay/proposed");
    b.op(!gated.empty() && gated == report_of("replay/proposed-nogate"),
         "replay/proposed differs from replay/proposed-nogate");

    // The workload layer on the captured trace.
    const auto& cap_report = report_of("capture/closed-loop");
    std::shared_ptr<Trace> trace;
    {
      ScopedSpan s("workload", "load_trace", "capture");
      trace = load_trace(store.trace_path(capture->hash), &err);
    }
    b.op(trace != nullptr &&
             static_cast<double>(trace->records.size()) ==
                 report_value(cap_report, "trace_records"),
         "captured trace unreadable or short: " + err);
    if (trace == nullptr) return;
    bool saved = false;
    {
      ScopedSpan s("workload", "save_trace", "capture");
      saved = save_trace(store.root() + "/resaved.trace", *trace);
    }
    b.op(saved, "save_trace failed");
    st->trace = trace;

    b.simulated = {
        {"closed_loop_transactions", report_value(cap_report, "transactions")},
        {"closed_loop_miss_latency_cycles",
         report_value(cap_report, "avg_transaction_latency")},
        {"trace_records", static_cast<double>(trace->records.size())},
        {"replay_proposed_gbps", report_value(gated, "recv_gbps")},
        {"replay_baseline3_gbps",
         report_value(report_of("replay/baseline3"), "recv_gbps")},
    };
  };

  // Probe: the capture's closed-loop configuration.
  std::string err;
  for (const campaign::ResolvedPoint& r : campaign::resolve_manifest(m, &err))
    if (r.point->kind == campaign::PointKind::Capture) {
      campaign::CampaignPoint p = *r.point;
      p.id = "probe/k16_closed_loop";
      w.probe = probe_manifest(p, r.measure);
    }
  return w;
}

// --- layer probes (traced runs) ---------------------------------------------

struct StepStats {
  std::vector<double> ns;  // host time of each timed Network::step
  EnergyCounters work;     // simulated events over the timed steps
  double cpu_s = 0;
  double wall_s = 0;
};

StepStats step_probe(const Options& o, const NetworkConfig& cfg,
                     const std::string& label) {
  ScopedSpan span("network", "step", label);
  Network net(cfg);
  Cycle t = 0;
  for (; t < o.probe_warmup(); ++t) net.step(t);
  const EnergyCounters before = net.energy();
  StepStats st;
  st.ns.reserve(static_cast<size_t>(o.probe_steps()));
  const double c0 = cpu_s();
  const double w0 = now_s();
  for (int i = 0; i < o.probe_steps(); ++i, ++t) {
    const auto a = Clock::now();
    net.step(t);
    st.ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - a).count());
  }
  st.wall_s = now_s() - w0;
  st.cpu_s = cpu_s() - c0;
  st.work = net.energy().delta_since(before);
  return st;
}

JsonObject layer_probes(const Options& o, const Workload& w, Batch& checks) {
  const campaign::CampaignPoint& point = w.probe.points[0];
  const NetworkConfig cfg = campaign::point_config(point);
  const MeasureOptions opt = campaign::point_measure(w.probe, point);
  JsonObject out;

  // network: construction and stepping, gated and ungated.
  double construct = 0;
  {
    ScopedSpan s("network", "construct", "probe");
    construct = median_time(o.setup_reps(), [&cfg] { Network net(cfg); });
  }
  const StepStats main = step_probe(o, cfg, "probe");
  NetworkConfig ungated = cfg;
  ungated.activity_gating = false;
  const StepStats full = step_probe(o, ungated, "ungated");
  NetworkConfig spanned = cfg;
  spanned.step_threads = kSpanThreads;
  const StepStats spans = step_probe(o, spanned, "spans");
  const auto hops = static_cast<double>(main.work.link_traversals +
                                        main.work.nic_link_traversals);
  const double step_total =
      std::accumulate(main.ns.begin(), main.ns.end(), 0.0);
  out.num("network.construct_s", construct)
      .num("network.step_ns_p50", quantile(main.ns, 0.5))
      .num("network.step_ns_p99", quantile(main.ns, 0.99))
      .num("network.ns_per_flit_hop", hops > 0 ? step_total / hops : NAN)
      .num("network.flit_hops", hops)
      .num("network.gating_speedup",
           quantile(full.ns, 0.5) / quantile(main.ns, 0.5))
      .num("spans.speedup", quantile(main.ns, 0.5) / quantile(spans.ns, 0.5))
      .num("spans.cpu_per_wall", spans.cpu_s / spans.wall_s);

  // router: exact simulated work over the timed steps.
  out.num("router.xbar_traversals",
          static_cast<double>(main.work.xbar_traversals))
      .num("router.buffer_writes", static_cast<double>(main.work.buffer_writes))
      .num("router.sa2_arbitrations",
           static_cast<double>(main.work.sa2_arbitrations))
      .num("router.bypass_rate", main.work.bypass_rate());

  // Instrumented re-run of the same cycles: stall attribution, and the
  // injection trace the workload-layer probe reads and writes.
  Trace trace;
  {
    ScopedSpan s("network", "step", "telemetry");
    NetworkConfig tel = cfg;
    tel.telemetry.enabled = true;
    Network net(tel);
    net.record_trace(&trace);
    Simulation sim(net);
    sim.run(o.probe_warmup());
    net.begin_measurement_window(sim.now());
    sim.run(o.probe_steps());
    net.record_trace(nullptr);
    for (int c = 0; c < kNumStallClasses; ++c) {
      const auto cls = static_cast<StallClass>(c);
      out.num(std::string("router.stall_") + stall_class_name(cls),
              static_cast<double>(net.telemetry()->total_stalls(cls)));
    }
  }

  // workload: trace file round trip.
  const std::string trace_path = o.out_dir + "/probe.trace";
  bool io_ok = true;
  double save = 0;
  double load = 0;
  {
    ScopedSpan s("workload", "save_trace", "probe");
    save = median_time(kIoReps,
                       [&] { io_ok &= save_trace(trace_path, trace); });
  }
  {
    ScopedSpan s("workload", "load_trace", "probe");
    load = median_time(kIoReps, [&] {
      const auto back = load_trace(trace_path);
      io_ok &= back != nullptr && back->records == trace.records;
    });
  }
  checks.op(io_ok && !trace.records.empty(), "probe trace round trip failed");
  out.num("workload.save_trace_s", save)
      .num("workload.load_trace_s", load)
      .num("workload.trace_records", static_cast<double>(trace.records.size()));

  // experiment: one measurement at the workload's windows.
  double point_s = 0;
  {
    ScopedSpan s("experiment", "measure_workload", "probe");
    point_s = median_time(kPointReps, [&] {
      checks.op(pristine(measure_workload(cfg, opt)), "probe point invalid");
    });
  }
  out.num("experiment.point_s", point_s);

  // pool: the same measurement, twice per thread, fanned out by a runner.
  {
    ScopedSpan s("pool", "parallel_for", "probe");
    const ExperimentRunner runner{{.measure = opt, .threads = kPoolThreads}};
    const std::vector<SweepPoint> points(
        2 * kPoolThreads, {cfg, cfg.traffic.offered_flits_per_node_cycle});
    const double c0 = cpu_s();
    const double w0 = now_s();
    for (const PointResult& r : runner.run(points))
      checks.op(pristine(r), "pool probe point invalid");
    out.num("pool.efficiency",
            (cpu_s() - c0) / (kPoolThreads * (now_s() - w0)));
  }

  // campaign: the same point as a one-point campaign, then resume, gather.
  const campaign::ResultStore store(o.out_dir + "/probe_store");
  std::filesystem::remove_all(store.root());
  campaign::RunSummary run;
  campaign::RunSummary resume;
  const double t0 = now_s();
  {
    ScopedSpan s("campaign", "run_campaign", "probe");
    run = campaign::run_campaign(w.probe, store, {.threads = 1});
  }
  const double t1 = now_s();
  {
    ScopedSpan s("campaign", "run_campaign", "probe-resume");
    resume = campaign::run_campaign(w.probe, store, {.threads = 1});
  }
  const double t2 = now_s();
  campaign::GatherResult g;
  {
    ScopedSpan s("campaign", "gather_campaign", "probe");
    g = campaign::gather_campaign(w.probe, store,
                                  store.root() + "/report.json");
  }
  const double t3 = now_s();
  std::string err;
  const auto resolved = campaign::resolve_manifest(w.probe, &err);
  std::error_code ec;
  const auto bytes = resolved.empty()
                         ? 0
                         : std::filesystem::file_size(
                               store.record_path(point.id, resolved[0].hash),
                               ec);
  checks.op(run.executed == 1 && resume.skipped == 1 && g.complete == 1 && !ec,
            "probe campaign did not run, resume and gather its point");
  out.num("campaign.run_s", t1 - t0)
      .num("campaign.resume_s", t2 - t1)
      .num("campaign.gather_s", t3 - t2)
      .num("campaign.record_bytes", ec ? 0.0 : static_cast<double>(bytes));
  return out;
}

std::string hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  Options o;
  const std::string name = args.get_str("workload", "");
  o.seed = static_cast<uint64_t>(args.get_int("seed", 1));
  o.out_dir = args.get_str("out", "");
  o.quick = args.has("quick");
  const double seconds = args.get_double("seconds", 25.0);
  const bool traced = args.has("trace");
  if (args.help() || !args.check_unused() || o.out_dir.empty() ||
      !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --out DIR "
                 "[--trace] [--quick]\n",
                 argv[0]);
    return 2;
  }
  // glibc adapts its mmap and trim thresholds to the allocation history,
  // so whether a freed Network's memory goes back to the kernel, to be
  // faulted in again by the next one, differed from job to job: set-up
  // came out at 1 ms or 2 ms by chance. Fixed thresholds (which switch the
  // adaptation off) make every job allocate alike.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // The untimed checks and probes run at most two simulation threads, and
  // never more than the host has cores.
  thread_budget::set_total(std::min(std::max(kSpanThreads, kPoolThreads),
                                    ThreadPool::hardware_threads()));
  std::filesystem::create_directories(o.out_dir);

  Workload w;
  if (name == "paper_k4")
    w = paper_k4(o);
  else if (name == "sat_k16")
    w = sat_k16(o);
  else if (name == "trace_ablation_k16")
    w = trace_ablation(o);
  if (!w.run || w.probe.points.empty()) {
    std::fprintf(stderr,
                 "unknown workload '%s' (paper_k4 sat_k16 "
                 "trace_ablation_k16)\n",
                 name.c_str());
    return 2;
  }

  // Warm-up, untimed: caches fill, lazy set-up finishes, and its outputs
  // are the reference every timed batch must reproduce.
  Batch first;
  w.run(first);
  if (w.check) w.check(first, first.digest);
  int attempted = first.attempted;
  std::vector<std::string> errors = first.errors;
  const double setup = traced ? 0.0 : median_time(o.setup_reps(), w.setup);

  // Timed batches: start another while the run would end nearer `seconds`
  // with it than without it. Under --trace, every other batch is traced,
  // and the probes run after the batches.
  std::vector<double> wall, cpu, traced_wall, every;
  const double start = now_s();
  for (int i = 0;; ++i) {
    if (i >= kMinBatches &&
        now_s() - start + quantile(every, 0.5) / 2 >= seconds)
      break;
    const bool trace_this = traced && i % 2 == 1;
    Batch b;
    g_spans.enabled = trace_this;
    const double c0 = cpu_s();
    const double w0 = now_s();
    {
      ScopedSpan s("job", name);
      w.run(b);
    }
    const double dw = now_s() - w0;
    const double dc = cpu_s() - c0;
    g_spans.enabled = false;
    every.push_back(dw);
    if (trace_this) {
      traced_wall.push_back(dw);
    } else {
      wall.push_back(dw);
      cpu.push_back(dc);
    }
    attempted += b.attempted + 1;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    if (b.digest != first.digest)
      errors.push_back("batch " + std::to_string(i + 1) +
                       ": digest differs from the first batch");
  }
  const double wall_s = quantile(wall, 0.5);
  const double cpu_med = quantile(cpu, 0.5);

  JsonObject out;
  out.str("workload", name)
      .num("seed", static_cast<double>(o.seed))
      .raw("quick", o.quick ? "true" : "false")
      .raw("traced", traced ? "true" : "false")
      .num("batches", static_cast<double>(wall.size()))
      .num("wall_s", wall_s)
      .num("cpu_s", cpu_med)
      .raw("batch_wall_s", json_array(wall));
  if (traced) {
    Batch checks;
    g_spans.enabled = true;
    JsonObject per_layer = layer_probes(o, w, checks);
    g_spans.enabled = false;
    attempted += checks.attempted;
    errors.insert(errors.end(), checks.errors.begin(), checks.errors.end());
    per_layer.num("trace_overhead_pct",
                  100.0 * (quantile(traced_wall, 0.5) / wall_s - 1.0));
    const std::string trace_file = o.out_dir + "/trace-" + name + ".json";
    ++attempted;
    if (!write_chrome_trace(trace_file))
      errors.push_back("cannot write " + trace_file);
    out.raw("per_layer", per_layer.text())
        .raw("layers", layer_table().text())
        .str("trace_file", trace_file);
  } else {
    out.num("setup_s", setup);
  }
  out.num("peak_rss_mb", peak_rss_mb());

  JsonObject sim;
  for (const auto& [k, v] : first.simulated) sim.num(k, v);
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size() && i < 20; ++i)
    error_list += (i > 0 ? ", " : "") + quote(errors[i]);
  error_list += "]";
  out.num("attempted", attempted)
      .num("failed", static_cast<double>(errors.size()))
      .raw("errors", error_list)
      .str("digest", hex64(first.digest))
      .raw("simulated", sim.text())
      .str("compiler", NOC_E2E_COMPILER)
      .str("build_type", NOC_E2E_BUILD_TYPE);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
