#include "campaign/manifest.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/json.hpp"
#include "common/parse.hpp"

namespace noc::campaign {

const char* point_kind_name(PointKind k) {
  switch (k) {
    case PointKind::Measure: return "measure";
    case PointKind::Saturation: return "saturation";
    case PointKind::Capture: return "capture";
    case PointKind::Replay: return "replay";
  }
  return "?";
}

std::optional<PointKind> parse_point_kind(std::string_view name) {
  for (int i = 0; i < kNumPointKinds; ++i) {
    const auto k = static_cast<PointKind>(i);
    if (name == point_kind_name(k)) return k;
  }
  return std::nullopt;
}

const char* pipeline_preset_name(PipelinePreset p) {
  switch (p) {
    case PipelinePreset::Proposed: return "proposed";
    case PipelinePreset::LowswingMulticast: return "lowswing";
    case PipelinePreset::Baseline3: return "baseline3";
    case PipelinePreset::Baseline4: return "baseline4";
  }
  return "?";
}

std::optional<PipelinePreset> parse_pipeline_preset(std::string_view name) {
  for (int i = 0; i < kNumPipelinePresets; ++i) {
    const auto p = static_cast<PipelinePreset>(i);
    if (name == pipeline_preset_name(p)) return p;
  }
  return std::nullopt;
}

const CampaignPoint* Manifest::find(std::string_view id) const {
  for (const CampaignPoint& p : points)
    if (p.id == id) return &p;
  return nullptr;
}

namespace {

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '.' && c != '=' && c != '/' && c != '-')
      return false;
  return true;
}

std::string point_error(const CampaignPoint& p, const std::string& what) {
  return "point '" + p.id + "': " + what;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// The manifest's keywords, each named once with its member and, for
// numbers, the bounds validate_manifest enforces. A list calls
// visit(name, member, lo, hi) per keyword; loading, saving and the
// per-field checks loop over it. The campaign key does not: it serializes
// the resolved NetworkConfig (campaign_point_key).
constexpr auto kDefaultFields = [](auto&& visit) {
  visit("warmup", &Manifest::default_warmup, 0.0, kInf);
  visit("window", &Manifest::default_window, 1.0, kInf);
};

constexpr auto kPointFields = [](auto&& visit) {
  const auto f = [&](const char* name, auto member, double lo = -kInf,
                     double hi = kInf) { visit(name, member, lo, hi); };
  f("kind", &CampaignPoint::kind);
  f("pipeline", &CampaignPoint::pipeline);
  f("k", &CampaignPoint::k, 2, kMaxMeshRadix);
  f("ky", &CampaignPoint::ky, 0, kMaxMeshRadix);
  f("policy", &CampaignPoint::policy);
  f("request-vcs", &CampaignPoint::request_vcs, 0, kMaxTotalVcs);
  f("response-vcs", &CampaignPoint::response_vcs, 0, kMaxTotalVcs);
  f("gating", &CampaignPoint::gating);
  f("step-threads", &CampaignPoint::step_threads, 1);
  f("workload", &CampaignPoint::workload);
  f("pattern", &CampaignPoint::pattern);
  f("offered", &CampaignPoint::offered, 0);
  f("identical-prbs", &CampaignPoint::identical_prbs);
  f("seed", &CampaignPoint::seed);
  // Closed-loop bounds belong to ClosedLoopConfig::validate.
  f("mshr-window", &CampaignPoint::mshr_window);
  f("issue-prob", &CampaignPoint::issue_prob);
  f("directory-latency", &CampaignPoint::directory_latency);
  f("think-time", &CampaignPoint::think_time);
  f("fault-links", &CampaignPoint::fault_links, 0);
  f("fault-degrade", &CampaignPoint::fault_degrade, 0);
  f("fault-seed", &CampaignPoint::fault_seed);
  f("fault-kill-at", &CampaignPoint::fault_kill_at, 0);
  f("fault-revive-after", &CampaignPoint::fault_revive_after, 0);
  f("telemetry", &CampaignPoint::telemetry);
  f("telemetry-sample-every", &CampaignPoint::telemetry_sample_every, 0);
  f("warmup", &CampaignPoint::warmup, 0);
  f("window", &CampaignPoint::window, 0);
  f("trace-from", &CampaignPoint::trace_from);
};

template <typename T>
constexpr bool kIsNumber = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

std::optional<WorkloadKind> parse_workload(std::string_view s) {
  if (s == "open") return WorkloadKind::OpenLoop;
  if (s == "closed") return WorkloadKind::ClosedLoop;
  for (WorkloadKind k : {WorkloadKind::OpenLoop, WorkloadKind::ClosedLoop,
                         WorkloadKind::Trace})
    if (s == workload_kind_name(k)) return k;
  return std::nullopt;
}

// One text form per value type, shared by the manifest file and the
// campaign key: numbers as parse_number reads them (doubles at %.17g, so
// they read back bit-equal), bools as on/off, enums by name.
template <typename T>
std::string to_text(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "on" : "off";
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, PointKind>) {
    return point_kind_name(v);
  } else if constexpr (std::is_same_v<T, PipelinePreset>) {
    return pipeline_preset_name(v);
  } else if constexpr (std::is_same_v<T, RoutePolicy>) {
    return route_policy_name(v);
  } else if constexpr (std::is_same_v<T, TrafficPattern>) {
    return traffic_pattern_name(v);
  } else {
    static_assert(std::is_same_v<T, WorkloadKind>);
    return workload_kind_name(v);
  }
}

template <typename T>
bool from_text(const std::string& s, T* out) {
  std::optional<T> v;
  if constexpr (std::is_same_v<T, std::string>) {
    v = s;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s == "on" || s == "true" || s == "1") v = true;
    if (s == "off" || s == "false" || s == "0") v = false;
  } else if constexpr (kIsNumber<T>) {
    return parse_number(s, out);
  } else if constexpr (std::is_same_v<T, PointKind>) {
    v = parse_point_kind(s);
  } else if constexpr (std::is_same_v<T, PipelinePreset>) {
    v = parse_pipeline_preset(s);
  } else if constexpr (std::is_same_v<T, RoutePolicy>) {
    v = parse_route_policy(s);
  } else if constexpr (std::is_same_v<T, TrafficPattern>) {
    v = parse_traffic_pattern(s);
  } else {
    v = parse_workload(s);
  }
  if (v) *out = *v;
  return v.has_value();
}

// The first number in `obj` outside its bounds, as a diagnostic; "" when
// every one is in range.
template <typename Fields, typename Obj>
std::string check_bounds(const Fields& fields, const Obj& obj) {
  std::string err;
  fields([&](const char* name, auto member, double lo, double hi) {
    using T = std::remove_cvref_t<decltype(obj.*member)>;
    if constexpr (kIsNumber<T>) {
      const auto v = static_cast<double>(obj.*member);
      if (!err.empty() || (v >= lo && v <= hi)) return;
      char buf[96];
      std::snprintf(buf, sizeof buf, "'%s' must be in %g..%g, got %g", name,
                    lo, hi, v);
      err = buf;
    }
  });
  return err;
}

}  // namespace

std::string validate_manifest(const Manifest& m) {
  if (m.name.empty() || !valid_id(m.name))
    return "campaign name must be non-empty ([A-Za-z0-9_.=/-])";
  if (std::string err = check_bounds(kDefaultFields, m); !err.empty())
    return "campaign defaults: " + err;
  if (m.points.empty()) return "manifest has no points";
  for (size_t i = 0; i < m.points.size(); ++i) {
    const CampaignPoint& p = m.points[i];
    if (!valid_id(p.id))
      return "point " + std::to_string(i) +
             ": id must be non-empty ([A-Za-z0-9_.=/-])";
    for (size_t j = 0; j < i; ++j)
      if (m.points[j].id == p.id) return point_error(p, "duplicate id");
    if (std::string err = check_bounds(kPointFields, p); !err.empty())
      return point_error(p, err);
    // k, ky <= kMaxMeshRadix keeps k*ky within DestMask (geometry.hpp).
    if (p.ky == 1) return point_error(p, "'ky' must be 0 (square) or >= 2");
    if (p.telemetry_sample_every > 0 && !p.telemetry)
      return point_error(p,
                         "telemetry-sample-every needs 'telemetry on'");
    const int ky = p.ky > 0 ? p.ky : p.k;
    const int num_links = (p.k - 1) * ky + p.k * (ky - 1);
    if (p.fault_links > num_links)
      return point_error(p, "fault-links exceeds the mesh's link count");
    if (p.fault_degrade > p.k * ky)
      return point_error(p, "fault-degrade exceeds the node count");
    if (p.kind == PointKind::Saturation &&
        p.workload != WorkloadKind::OpenLoop)
      return point_error(p, "saturation points must be open-loop");
    if (p.kind == PointKind::Replay) {
      if (p.trace_from.empty())
        return point_error(p, "replay points need trace-from");
      const CampaignPoint* dep = m.find(p.trace_from);
      if (dep == nullptr)
        return point_error(p, "trace-from '" + p.trace_from +
                                  "' names no point in this manifest");
      if (dep->kind != PointKind::Capture)
        return point_error(p, "trace-from '" + p.trace_from +
                                  "' is not a capture point");
      if (dep->k != p.k || (dep->ky > 0 ? dep->ky : dep->k) != ky)
        return point_error(p, "trace-from '" + p.trace_from +
                                  "' is captured on another mesh ('k'/'ky')");
    } else if (!p.trace_from.empty()) {
      return point_error(p, "trace-from is only valid on replay points");
    }
    if (p.workload == WorkloadKind::Trace && p.kind != PointKind::Replay)
      return point_error(p,
                         "trace workloads enter campaigns as replay points");
    // What the resolved config must hold for the run not to trip a
    // precondition, caught here with a readable message.
    const NetworkConfig cfg = point_config(p);
    if (cfg.workload.kind == WorkloadKind::ClosedLoop) {
      if (const char* err = cfg.workload.closed.validate())
        return point_error(p, err);
    }
    if (cfg.workload.kind == WorkloadKind::OpenLoop && cfg.ky > 0 &&
        cfg.ky != cfg.k && cfg.traffic.pattern == TrafficPattern::Transpose)
      return point_error(p, "'pattern' transpose needs a square mesh "
                            "('ky' 0 or 'k')");
    if (cfg.router.vc.total_vcs() > kMaxTotalVcs)
      return point_error(p, "'request-vcs' + 'response-vcs' give " +
                                std::to_string(cfg.router.vc.total_vcs()) +
                                " VCs per port, more than kMaxTotalVcs = " +
                                std::to_string(kMaxTotalVcs));
    if (route_policy_uses_lanes(cfg.router.routing) &&
        !cfg.router.vc.lanes_available())
      return point_error(p, "policy needs >= 2 VCs per message class "
                            "(lane split; raise request-vcs/response-vcs)");
  }
  return {};
}

NetworkConfig point_config(const CampaignPoint& p) {
  NetworkConfig cfg;
  switch (p.pipeline) {
    case PipelinePreset::Proposed: cfg = NetworkConfig::proposed(p.k); break;
    case PipelinePreset::LowswingMulticast:
      cfg = NetworkConfig::lowswing_multicast(p.k);
      break;
    case PipelinePreset::Baseline3:
      cfg = NetworkConfig::baseline_3stage(p.k);
      break;
    case PipelinePreset::Baseline4:
      cfg = NetworkConfig::baseline_4stage(p.k);
      break;
  }
  cfg.ky = p.ky;
  cfg.router.routing = p.policy;
  if (p.request_vcs > 0) cfg.router.vc.vcs_per_mc[0] = p.request_vcs;
  if (p.response_vcs > 0) cfg.router.vc.vcs_per_mc[1] = p.response_vcs;
  cfg.activity_gating = p.gating;
  cfg.step_threads = p.step_threads;
  cfg.traffic.pattern = p.pattern;
  cfg.traffic.offered_flits_per_node_cycle = p.offered;
  cfg.traffic.identical_prbs = p.identical_prbs;
  cfg.traffic.seed = p.seed;
  cfg.workload.kind =
      p.kind == PointKind::Replay
          ? WorkloadKind::Trace
          : (p.kind == PointKind::Saturation ? WorkloadKind::OpenLoop
                                             : p.workload);
  cfg.workload.closed.window = p.mshr_window;
  cfg.workload.closed.issue_prob = p.issue_prob;
  cfg.workload.closed.directory_latency = p.directory_latency;
  cfg.workload.closed.think_time = p.think_time;
  if (p.fault_links > 0 || p.fault_degrade > 0) {
    const MeshGeometry geom(p.k, p.ky > 0 ? p.ky : p.k);
    cfg.fault = make_random_fault_plan(geom, p.fault_seed, p.fault_links,
                                       p.fault_degrade, p.fault_kill_at,
                                       p.fault_revive_after);
  }
  if (p.telemetry) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_every = p.telemetry_sample_every;
  }
  return cfg;
}

MeasureOptions point_measure(const Manifest& m, const CampaignPoint& p) {
  MeasureOptions opt;
  opt.warmup = p.warmup > 0 ? p.warmup : m.default_warmup;
  opt.window = p.window > 0 ? p.window : m.default_window;
  return opt;
}

namespace {

template <typename T>
void append_key(std::string& key, const char* name, const T& v) {
  key.append(name).append("=").append(to_text(v)).append(";");
}

std::string fnv1a_hex(const std::string& key) {
  uint64_t h = 1469598103934665603ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

}  // namespace

std::string campaign_point_key(const Manifest& m, const CampaignPoint& p,
                               const std::string& dep_hash) {
  // The key serializes the RESOLVED configuration, not the manifest fields:
  // two manifests that mean the same simulation hash identically, and any
  // future preset change flows into the hash automatically.
  const NetworkConfig cfg = point_config(p);
  const MeasureOptions opt = point_measure(m, p);
  std::string key;
  key.reserve(512);
  append_key(key, "schema", kCampaignSchemaVersion);
  append_key(key, "kind", p.kind);
  append_key(key, "k", cfg.k);
  append_key(key, "ky", cfg.ky);
  append_key(key, "pipeline", static_cast<int>(cfg.router.pipeline));
  append_key(key, "multicast", cfg.router.multicast ? 1 : 0);
  append_key(key, "partial_bypass", cfg.router.allow_partial_bypass ? 1 : 0);
  append_key(key, "la_priority", cfg.router.lookahead_priority ? 1 : 0);
  append_key(key, "sa1_actionable",
             cfg.router.actionable_sa1_requests ? 1 : 0);
  append_key(key, "policy", cfg.router.routing);
  append_key(key, "req_vcs", cfg.router.vc.vcs_per_mc[0]);
  append_key(key, "resp_vcs", cfg.router.vc.vcs_per_mc[1]);
  append_key(key, "req_depth", cfg.router.vc.depth_per_mc[0]);
  append_key(key, "resp_depth", cfg.router.vc.depth_per_mc[1]);
  append_key(key, "gating", cfg.activity_gating ? 1 : 0);
  append_key(key, "step_threads", cfg.step_threads);
  append_key(key, "pattern", cfg.traffic.pattern);
  append_key(key, "offered", cfg.traffic.offered_flits_per_node_cycle);
  // synced_bias, self_bcast, the frac_* fields and resp_len were config
  // knobs once; they keep their fixed values in the key, so every hash in
  // an existing result store stays valid.
  append_key(key, "identical_prbs", cfg.traffic.identical_prbs ? 1 : 0);
  append_key(key, "synced_bias", 0);
  append_key(key, "self_bcast", 1);
  append_key(key, "seed", cfg.traffic.seed);
  append_key(key, "frac_bcast", kMixedBroadcastFrac);
  append_key(key, "frac_ureq", kMixedUnicastRequestFrac);
  append_key(key, "frac_uresp", kMixedUnicastResponseFrac);
  append_key(key, "workload", cfg.workload.kind);
  append_key(key, "mshr", cfg.workload.closed.window);
  append_key(key, "issue_prob", cfg.workload.closed.issue_prob);
  append_key(key, "dir_latency", cfg.workload.closed.directory_latency);
  append_key(key, "think", cfg.workload.closed.think_time);
  append_key(key, "resp_len", kResponsePacketLen);
  append_key(key, "warmup", opt.warmup);
  append_key(key, "window", opt.window);
  // Fault knobs hash CONDITIONALLY: pristine points keep their pre-fault
  // key byte-for-byte, so existing result stores stay valid across the
  // schema's fault extension.
  if (p.fault_links > 0 || p.fault_degrade > 0) {
    append_key(key, "fault_links", p.fault_links);
    append_key(key, "fault_degrade", p.fault_degrade);
    append_key(key, "fault_seed", p.fault_seed);
    append_key(key, "fault_kill_at", p.fault_kill_at);
    append_key(key, "fault_revive_after", p.fault_revive_after);
  }
  // Telemetry knobs hash conditionally for the same reason: points without
  // them keep their existing key byte-for-byte.
  if (p.telemetry) {
    append_key(key, "telemetry", 1);
    append_key(key, "telemetry_sample", p.telemetry_sample_every);
  }
  if (!dep_hash.empty()) append_key(key, "trace", dep_hash);
  return key;
}

std::string campaign_point_hash(const Manifest& m, const CampaignPoint& p,
                                const std::string& dep_hash) {
  return fnv1a_hex(campaign_point_key(m, p, dep_hash));
}

std::vector<ResolvedPoint> resolve_manifest(const Manifest& m,
                                            std::string* error) {
  if (std::string err = validate_manifest(m); !err.empty()) {
    if (error != nullptr) *error = err;
    return {};
  }
  std::vector<ResolvedPoint> out(m.points.size());
  for (size_t i = 0; i < m.points.size(); ++i) {
    const CampaignPoint& p = m.points[i];
    ResolvedPoint& r = out[i];
    r.point = &p;
    r.cfg = point_config(p);
    r.measure = point_measure(m, p);
    // A replay folds in its capture's hash; captures have no dependency of
    // their own (validate_manifest), so that hash needs no dep_hash.
    std::string dep_hash;
    if (p.kind == PointKind::Replay) {
      const CampaignPoint* dep = m.find(p.trace_from);
      r.dep_index = static_cast<int>(dep - m.points.data());
      dep_hash = campaign_point_hash(m, *dep, {});
    }
    r.key = campaign_point_key(m, p, dep_hash);
    r.hash = fnv1a_hex(r.key);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Manifest file I/O.

namespace {

constexpr char kHeader[] = "# noc-campaign v1";

// `name value` lines, one per field of `obj` that differs from its default.
template <typename Fields, typename Obj>
void append_fields(std::string& out, const Fields& fields, const Obj& obj,
                   const char* indent) {
  const Obj dflt{};
  fields([&](const char* name, auto member, double, double) {
    if (obj.*member != dflt.*member)
      out.append(indent).append(name).append(" ")
          .append(to_text(obj.*member)).append("\n");
  });
}

// Sets the field of `obj` that `kw` names; "" on success, else why not.
template <typename Fields, typename Obj>
std::string set_field(const Fields& fields, Obj& obj, const std::string& kw,
                      const std::string& val, const char* scope) {
  std::string err = std::string("unknown ") + scope + " keyword '" + kw + "'";
  fields([&](const char* name, auto member, double, double) {
    using T = std::remove_cvref_t<decltype(obj.*member)>;
    if (kw != name) return;
    err.clear();
    if (from_text(val, &(obj.*member))) return;
    err = "'" + kw + "' cannot be '" + val + "'";
    if constexpr (std::is_same_v<T, bool>) err += " (on|off)";
    if constexpr (kIsNumber<T>) err += " (one number that fits the field)";
  });
  return err;
}

}  // namespace

bool save_manifest(const std::string& path, const Manifest& m) {
  std::string out = std::string(kHeader) + "\ncampaign " + m.name + "\n";
  append_fields(out, kDefaultFields, m, "");
  for (const CampaignPoint& p : m.points) {
    out += "\npoint " + p.id + "\n";
    append_fields(out, kPointFields, p, "  ");
    out += "end\n";
  }
  return json::write_file(path, out);
}

std::shared_ptr<Manifest> load_manifest(const std::string& path,
                                        std::string* error) {
  int line_no = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr)
      *error = path + (line_no > 0 ? ":" + std::to_string(line_no) : "") +
               ": " + what;
    return std::shared_ptr<Manifest>();
  };
  std::istringstream in(json::read_file(path));
  std::string line;
  if (!std::getline(in, line)) return fail("cannot read manifest");
  line_no = 1;
  if (line.rfind(kHeader, 0) != 0)
    return fail(std::string("missing '") + kHeader + "' header");
  auto m = std::make_shared<Manifest>();
  CampaignPoint* cur = nullptr;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream is(line);
    std::string kw;
    if (!(is >> kw) || kw[0] == '#') continue;
    std::string val;
    std::getline(is >> std::ws, val);
    while (!val.empty() && std::isspace(static_cast<unsigned char>(val.back())))
      val.pop_back();
    std::string err;
    if (cur == nullptr) {
      if (kw == "campaign") {
        m->name = val;
      } else if (kw == "point") {
        cur = &m->points.emplace_back();
        cur->id = val;
      } else {
        err = set_field(kDefaultFields, *m, kw, val, "campaign-level");
      }
    } else if (kw == "end") {
      cur = nullptr;
    } else {
      err = set_field(kPointFields, *cur, kw, val, "point");
    }
    if (!err.empty()) return fail(err);
  }
  if (cur != nullptr) {
    ++line_no;
    return fail("point '" + cur->id + "' not closed with 'end'");
  }
  line_no = 0;
  if (std::string err = validate_manifest(*m); !err.empty()) return fail(err);
  return m;
}

}  // namespace noc::campaign
