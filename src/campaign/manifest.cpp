#include "campaign/manifest.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

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

}  // namespace

std::string validate_manifest(const Manifest& m) {
  if (m.name.empty() || !valid_id(m.name))
    return "campaign name must be non-empty ([A-Za-z0-9_.=/-])";
  if (m.default_warmup < 0 || m.default_window < 1)
    return "campaign defaults: warmup must be >= 0, window >= 1";
  if (m.points.empty()) return "manifest has no points";
  for (size_t i = 0; i < m.points.size(); ++i) {
    const CampaignPoint& p = m.points[i];
    if (!valid_id(p.id))
      return "point " + std::to_string(i) +
             ": id must be non-empty ([A-Za-z0-9_.=/-])";
    for (size_t j = 0; j < i; ++j)
      if (m.points[j].id == p.id) return point_error(p, "duplicate id");
    const int ky = p.ky > 0 ? p.ky : p.k;
    if (p.k < 2 || p.k > kMaxMeshRadix || ky < 2 || ky > kMaxMeshRadix ||
        p.k * ky > DestMask::kCapacity)
      return point_error(p, "mesh geometry out of range (2..kMaxMeshRadix, "
                            "k*ky <= DestMask capacity)");
    if (p.request_vcs < 0 || p.response_vcs < 0)
      return point_error(p, "VC overrides must be >= 0 (0 = preset)");
    if (p.step_threads < 1)
      return point_error(p, "step_threads must be >= 1");
    if (p.warmup < 0 || p.window < 0)
      return point_error(p, "warmup/window overrides must be >= 0");
    if (p.fault_links < 0 || p.fault_degrade < 0 || p.fault_kill_at < 0 ||
        p.fault_revive_after < 0)
      return point_error(p, "fault knobs must be >= 0");
    if (p.telemetry_sample_every < 0)
      return point_error(p, "telemetry-sample-every must be >= 0");
    if (p.telemetry_sample_every > 0 && !p.telemetry)
      return point_error(p,
                         "telemetry-sample-every needs 'telemetry on'");
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
    } else if (!p.trace_from.empty()) {
      return point_error(p, "trace-from is only valid on replay points");
    }
    if (p.workload == WorkloadKind::ClosedLoop ||
        (p.kind == PointKind::Capture &&
         p.workload != WorkloadKind::OpenLoop)) {
      ClosedLoopConfig c;
      c.window = p.mshr_window;
      c.issue_prob = p.issue_prob;
      c.directory_latency = p.directory_latency;
      c.think_time = p.think_time;
      if (const char* err = c.validate()) return point_error(p, err);
    }
    if (p.workload == WorkloadKind::Trace && p.kind != PointKind::Replay)
      return point_error(p,
                         "trace workloads enter campaigns as replay points");
    // Lane-splitting policies need both lanes populated; catch it at
    // manifest time with a readable message instead of deep in Network
    // construction.
    NetworkConfig cfg = point_config(p);
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

void append_kv(std::string& key, const char* name, const std::string& v) {
  key += name;
  key += '=';
  key += v;
  key += ';';
}

void append_int(std::string& key, const char* name, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  append_kv(key, name, buf);
}

void append_u64(std::string& key, const char* name, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  append_kv(key, name, buf);
}

void append_double(std::string& key, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  append_kv(key, name, buf);
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
  append_int(key, "schema", kCampaignSchemaVersion);
  append_kv(key, "kind", point_kind_name(p.kind));
  append_int(key, "k", cfg.k);
  append_int(key, "ky", cfg.ky);
  append_int(key, "pipeline", static_cast<int>(cfg.router.pipeline));
  append_int(key, "multicast", cfg.router.multicast ? 1 : 0);
  append_int(key, "partial_bypass", cfg.router.allow_partial_bypass ? 1 : 0);
  append_int(key, "la_priority", cfg.router.lookahead_priority ? 1 : 0);
  append_int(key, "sa1_actionable",
             cfg.router.actionable_sa1_requests ? 1 : 0);
  append_kv(key, "policy", route_policy_name(cfg.router.routing));
  append_int(key, "req_vcs", cfg.router.vc.vcs_per_mc[0]);
  append_int(key, "resp_vcs", cfg.router.vc.vcs_per_mc[1]);
  append_int(key, "req_depth", cfg.router.vc.depth_per_mc[0]);
  append_int(key, "resp_depth", cfg.router.vc.depth_per_mc[1]);
  append_int(key, "gating", cfg.activity_gating ? 1 : 0);
  append_int(key, "step_threads", cfg.step_threads);
  append_kv(key, "pattern", traffic_pattern_name(cfg.traffic.pattern));
  append_double(key, "offered", cfg.traffic.offered_flits_per_node_cycle);
  // synced_bias, self_bcast, the frac_* fields and resp_len were config
  // knobs once; they keep their fixed values in the key, so every hash in
  // an existing result store stays valid.
  append_int(key, "identical_prbs", cfg.traffic.identical_prbs ? 1 : 0);
  append_int(key, "synced_bias", 0);
  append_int(key, "self_bcast", 1);
  append_u64(key, "seed", cfg.traffic.seed);
  append_double(key, "frac_bcast", kMixedBroadcastFrac);
  append_double(key, "frac_ureq", kMixedUnicastRequestFrac);
  append_double(key, "frac_uresp", kMixedUnicastResponseFrac);
  append_kv(key, "workload", workload_kind_name(cfg.workload.kind));
  append_int(key, "mshr", cfg.workload.closed.window);
  append_double(key, "issue_prob", cfg.workload.closed.issue_prob);
  append_int(key, "dir_latency", cfg.workload.closed.directory_latency);
  append_int(key, "think", cfg.workload.closed.think_time);
  append_int(key, "resp_len", kResponsePacketLen);
  append_int(key, "warmup", opt.warmup);
  append_int(key, "window", opt.window);
  // Fault knobs hash CONDITIONALLY: pristine points keep their pre-fault
  // key byte-for-byte, so existing result stores stay valid across the
  // schema's fault extension.
  if (p.fault_links > 0 || p.fault_degrade > 0) {
    append_int(key, "fault_links", p.fault_links);
    append_int(key, "fault_degrade", p.fault_degrade);
    append_u64(key, "fault_seed", p.fault_seed);
    append_int(key, "fault_kill_at", p.fault_kill_at);
    append_int(key, "fault_revive_after", p.fault_revive_after);
  }
  // Telemetry knobs hash conditionally for the same reason: points without
  // them keep their existing key byte-for-byte.
  if (p.telemetry) {
    append_int(key, "telemetry", 1);
    append_int(key, "telemetry_sample", p.telemetry_sample_every);
  }
  if (!dep_hash.empty()) append_kv(key, "trace", dep_hash);
  return key;
}

std::string campaign_point_hash(const Manifest& m, const CampaignPoint& p,
                                const std::string& dep_hash) {
  const std::string key = campaign_point_key(m, p, dep_hash);
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

std::vector<ResolvedPoint> resolve_manifest(const Manifest& m,
                                            std::string* error) {
  if (std::string err = validate_manifest(m); !err.empty()) {
    if (error != nullptr) *error = err;
    return {};
  }
  std::vector<ResolvedPoint> out(m.points.size());
  // Pass 1: everything without a trace dependency (captures included), so
  // pass 2's replay points can fold their capture's hash in.
  for (size_t i = 0; i < m.points.size(); ++i) {
    const CampaignPoint& p = m.points[i];
    if (p.kind == PointKind::Replay) continue;
    out[i].point = &p;
    out[i].cfg = point_config(p);
    out[i].measure = point_measure(m, p);
    out[i].key = campaign_point_key(m, p, {});
    out[i].hash = campaign_point_hash(m, p, {});
  }
  for (size_t i = 0; i < m.points.size(); ++i) {
    const CampaignPoint& p = m.points[i];
    if (p.kind != PointKind::Replay) continue;
    int dep = -1;
    for (size_t j = 0; j < m.points.size(); ++j)
      if (m.points[j].id == p.trace_from) dep = static_cast<int>(j);
    NOC_ASSERT(dep >= 0);  // validate_manifest guarantees it
    out[i].point = &p;
    out[i].cfg = point_config(p);
    out[i].measure = point_measure(m, p);
    out[i].dep_index = dep;
    const std::string& dep_hash = out[static_cast<size_t>(dep)].hash;
    out[i].key = campaign_point_key(m, p, dep_hash);
    out[i].hash = campaign_point_hash(m, p, dep_hash);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Manifest file I/O.

bool save_manifest(const std::string& path, const Manifest& m) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# noc-campaign v1\n");
  std::fprintf(f, "campaign %s\n", m.name.c_str());
  std::fprintf(f, "warmup %" PRId64 "\n", m.default_warmup);
  std::fprintf(f, "window %" PRId64 "\n", m.default_window);
  for (const CampaignPoint& p : m.points) {
    std::fprintf(f, "\npoint %s\n", p.id.c_str());
    std::fprintf(f, "  kind %s\n", point_kind_name(p.kind));
    std::fprintf(f, "  pipeline %s\n", pipeline_preset_name(p.pipeline));
    std::fprintf(f, "  k %d\n", p.k);
    if (p.ky > 0) std::fprintf(f, "  ky %d\n", p.ky);
    std::fprintf(f, "  policy %s\n", route_policy_name(p.policy));
    if (p.request_vcs > 0) std::fprintf(f, "  request-vcs %d\n", p.request_vcs);
    if (p.response_vcs > 0)
      std::fprintf(f, "  response-vcs %d\n", p.response_vcs);
    if (!p.gating) std::fprintf(f, "  gating off\n");
    if (p.step_threads > 1)
      std::fprintf(f, "  step-threads %d\n", p.step_threads);
    std::fprintf(f, "  workload %s\n", workload_kind_name(p.workload));
    std::fprintf(f, "  pattern %s\n", traffic_pattern_name(p.pattern));
    std::fprintf(f, "  offered %.17g\n", p.offered);
    if (p.identical_prbs) std::fprintf(f, "  identical-prbs on\n");
    std::fprintf(f, "  seed %" PRIu64 "\n", p.seed);
    if (p.workload == WorkloadKind::ClosedLoop) {
      std::fprintf(f, "  mshr-window %d\n", p.mshr_window);
      std::fprintf(f, "  issue-prob %.17g\n", p.issue_prob);
      std::fprintf(f, "  directory-latency %" PRId64 "\n",
                   p.directory_latency);
      std::fprintf(f, "  think-time %" PRId64 "\n", p.think_time);
    }
    if (p.fault_links > 0 || p.fault_degrade > 0) {
      std::fprintf(f, "  fault-links %d\n", p.fault_links);
      std::fprintf(f, "  fault-degrade %d\n", p.fault_degrade);
      std::fprintf(f, "  fault-seed %" PRIu64 "\n", p.fault_seed);
      std::fprintf(f, "  fault-kill-at %" PRId64 "\n", p.fault_kill_at);
      std::fprintf(f, "  fault-revive-after %" PRId64 "\n",
                   p.fault_revive_after);
    }
    if (p.telemetry) {
      std::fprintf(f, "  telemetry on\n");
      if (p.telemetry_sample_every > 0)
        std::fprintf(f, "  telemetry-sample-every %" PRId64 "\n",
                     p.telemetry_sample_every);
    }
    if (p.warmup > 0) std::fprintf(f, "  warmup %" PRId64 "\n", p.warmup);
    if (p.window > 0) std::fprintf(f, "  window %" PRId64 "\n", p.window);
    if (!p.trace_from.empty())
      std::fprintf(f, "  trace-from %s\n", p.trace_from.c_str());
    std::fprintf(f, "end\n");
  }
  return std::fclose(f) == 0;
}

namespace {

struct ParseCtx {
  const std::string& path;
  int line = 0;
  std::string* error;

  std::shared_ptr<Manifest> fail(const std::string& what) const {
    if (error != nullptr)
      *error = path + ":" + std::to_string(line) + ": " + what;
    return nullptr;
  }
};

bool parse_on_off(const std::string& v, bool* out) {
  if (v == "on" || v == "true" || v == "1") return *out = true, true;
  if (v == "off" || v == "false" || v == "0") return *out = false, true;
  return false;
}

}  // namespace

std::shared_ptr<Manifest> load_manifest(const std::string& path,
                                        std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  ParseCtx ctx{path, 0, error};
  if (f == nullptr) return ctx.fail("cannot open manifest");
  auto m = std::make_shared<Manifest>();
  CampaignPoint* cur = nullptr;
  bool saw_header = false;
  char buf[512];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    ++ctx.line;
    std::string line(buf);
    if (!saw_header) {
      if (line.rfind("# noc-campaign v1", 0) != 0) {
        std::fclose(f);
        return ctx.fail("missing '# noc-campaign v1' header");
      }
      saw_header = true;
      continue;
    }
    std::istringstream is(line);
    std::string kw;
    if (!(is >> kw) || kw[0] == '#') continue;
    std::string val;
    std::getline(is >> std::ws, val);
    while (!val.empty() && (val.back() == '\n' || val.back() == '\r' ||
                            val.back() == ' ' || val.back() == '\t'))
      val.pop_back();
    auto fail = [&](const std::string& what) {
      std::fclose(f);
      return ctx.fail(what);
    };
    bool number_ok = true;
    auto num = [&](auto* field) { number_ok = parse_number(val, field); };
    if (cur == nullptr) {
      if (kw == "campaign") {
        m->name = val;
      } else if (kw == "warmup") {
        num(&m->default_warmup);
      } else if (kw == "window") {
        num(&m->default_window);
      } else if (kw == "point") {
        m->points.emplace_back();
        cur = &m->points.back();
        cur->id = val;
      } else {
        return fail("unknown campaign-level keyword '" + kw + "'");
      }
    } else if (kw == "end") {  // point-stanza keywords from here on
      cur = nullptr;
    } else if (kw == "kind") {
      auto k = parse_point_kind(val);
      if (!k) return fail("unknown point kind '" + val + "'");
      cur->kind = *k;
    } else if (kw == "pipeline") {
      auto p = parse_pipeline_preset(val);
      if (!p) return fail("unknown pipeline preset '" + val + "'");
      cur->pipeline = *p;
    } else if (kw == "k") {
      num(&cur->k);
    } else if (kw == "ky") {
      num(&cur->ky);
    } else if (kw == "policy") {
      auto p = parse_route_policy(val);
      if (!p) return fail("unknown routing policy '" + val + "'");
      cur->policy = *p;
    } else if (kw == "request-vcs") {
      num(&cur->request_vcs);
    } else if (kw == "response-vcs") {
      num(&cur->response_vcs);
    } else if (kw == "gating") {
      if (!parse_on_off(val, &cur->gating))
        return fail("gating must be on|off");
    } else if (kw == "step-threads") {
      num(&cur->step_threads);
    } else if (kw == "workload") {
      if (val == workload_kind_name(WorkloadKind::OpenLoop) ||
          val == "open") {
        cur->workload = WorkloadKind::OpenLoop;
      } else if (val == workload_kind_name(WorkloadKind::ClosedLoop) ||
                 val == "closed") {
        cur->workload = WorkloadKind::ClosedLoop;
      } else if (val == workload_kind_name(WorkloadKind::Trace)) {
        cur->workload = WorkloadKind::Trace;
      } else {
        return fail("unknown workload '" + val + "'");
      }
    } else if (kw == "pattern") {
      auto p = parse_traffic_pattern(val);
      if (!p) return fail("unknown traffic pattern '" + val + "'");
      cur->pattern = *p;
    } else if (kw == "offered") {
      num(&cur->offered);
    } else if (kw == "identical-prbs") {
      if (!parse_on_off(val, &cur->identical_prbs))
        return fail("identical-prbs must be on|off");
    } else if (kw == "seed") {
      num(&cur->seed);
    } else if (kw == "mshr-window") {
      num(&cur->mshr_window);
    } else if (kw == "issue-prob") {
      num(&cur->issue_prob);
    } else if (kw == "directory-latency") {
      num(&cur->directory_latency);
    } else if (kw == "think-time") {
      num(&cur->think_time);
    } else if (kw == "fault-links") {
      num(&cur->fault_links);
    } else if (kw == "fault-degrade") {
      num(&cur->fault_degrade);
    } else if (kw == "fault-seed") {
      num(&cur->fault_seed);
    } else if (kw == "fault-kill-at") {
      num(&cur->fault_kill_at);
    } else if (kw == "fault-revive-after") {
      num(&cur->fault_revive_after);
    } else if (kw == "telemetry") {
      if (!parse_on_off(val, &cur->telemetry))
        return fail("telemetry must be on|off");
    } else if (kw == "telemetry-sample-every") {
      num(&cur->telemetry_sample_every);
    } else if (kw == "warmup") {
      num(&cur->warmup);
    } else if (kw == "window") {
      num(&cur->window);
    } else if (kw == "trace-from") {
      cur->trace_from = val;
    } else {
      return fail("unknown point keyword '" + kw + "'");
    }
    if (!number_ok)
      return fail("'" + kw + "' needs a whole number that fits the field, "
                  "got '" + val + "'");
  }
  std::fclose(f);
  if (cur != nullptr) {
    ctx.line += 1;
    return ctx.fail("point '" + cur->id + "' not closed with 'end'");
  }
  if (std::string err = validate_manifest(*m); !err.empty()) {
    ctx.line = 0;
    return ctx.fail(err);
  }
  return m;
}

}  // namespace noc::campaign
