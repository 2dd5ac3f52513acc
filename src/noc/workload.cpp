#include "noc/workload.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/parse.hpp"

namespace noc {

const char* workload_kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::OpenLoop: return "open-loop";
    case WorkloadKind::ClosedLoop: return "closed-loop";
    case WorkloadKind::Trace: return "trace";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Trace I/O.

namespace {

/// Hex digits of the widest destination mask.
constexpr int kMaskHexDigits = DestMask::kBits / 4;

/// Lowercase hex, most-significant digit first, no leading zeros ("0" for
/// the empty mask): masks wider than 64 bits print as one big hex number,
/// and single-word masks render exactly as the pre-multiword %" PRIx64 "
/// format did, so v1 traces from k <= 8 meshes stay byte-identical and
/// round-trip both ways. `buf` holds kMaskHexDigits + 1 bytes.
void mask_to_hex(const DestMask& m, char* buf) {
  int top = DestMask::kWords - 1;  // highest non-zero word (0 if empty)
  while (top > 0 && m.word(top) == 0) --top;
  const int bits = top * 64 + std::bit_width(m.word(top));
  const int digits = std::max(1, (bits + 3) / 4);
  for (int i = 0; i < digits; ++i) {
    const int shift = (digits - 1 - i) * 4;
    buf[i] = "0123456789abcdef"[(m.word(shift / 64) >> (shift % 64)) & 0xF];
  }
  buf[digits] = '\0';
}

/// Parse a hex mask as written by mask_to_hex (case-insensitive). Returns
/// false on an empty string, a non-hex character, or a value wider than
/// DestMask::kBits. Counted from the end, each run of 16 digits is one
/// whole word.
bool mask_from_hex(const char* s, DestMask* out) {
  const int len = static_cast<int>(std::strlen(s));
  if (len == 0 || len > kMaskHexDigits) return false;
  DestMask m;
  for (int w = 0, end = len; end > 0; ++w, end -= 16) {
    uint64_t word = 0;
    for (int i = std::max(0, end - 16); i < end; ++i) {
      const char c = s[i];
      unsigned nib;
      if (c >= '0' && c <= '9')
        nib = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        nib = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        nib = static_cast<unsigned>(c - 'A' + 10);
      else
        return false;
      word = word << 4 | nib;
    }
    m.set_word(w, word);
  }
  *out = m;
  return true;
}

}  // namespace

bool save_trace(const std::string& path, const Trace& trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  if (trace.kx > 0)
    std::fprintf(f, "# noc-trace v2 geometry %dx%d\n", trace.kx, trace.ky);
  else
    std::fprintf(f, "# noc-trace v1\n");
  std::fprintf(f, "# cycle src dest_mask(hex) length class\n");
  char mask_hex[kMaskHexDigits + 1];
  for (const TraceRecord& r : trace.records) {
    mask_to_hex(r.dest_mask, mask_hex);
    std::fprintf(f, "%" PRId64 " %d %s %d %d\n", r.cycle, r.src, mask_hex,
                 r.length, static_cast<int>(r.mc));
  }
  return std::fclose(f) == 0;
}

namespace {

std::shared_ptr<Trace> trace_fail(std::FILE* f, std::string* error,
                                  const std::string& path, int lineno,
                                  const char* what) {
  if (f != nullptr) std::fclose(f);
  if (error != nullptr)
    *error = path + ":" + std::to_string(lineno) + ": " + what;
  return nullptr;
}

}  // namespace

std::shared_ptr<Trace> load_trace(const std::string& path,
                                  std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return trace_fail(nullptr, error, path, 0,
                                      "cannot open trace file");
  auto trace = std::make_shared<Trace>();
  char line[256];
  int lineno = 0;
  bool saw_header = false;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++lineno;
    // fgets splits a line longer than the buffer; the tail would otherwise
    // parse as a record of its own.
    if (std::strchr(line, '\n') == nullptr && !std::feof(f))
      return trace_fail(f, error, path, lineno, "trace line too long");
    if (!saw_header) {
      // The first line must identify the format: geometry-stamped v2 or
      // the legacy geometry-less v1. Anything else is not a trace file --
      // bail with a message instead of misparsing whatever it really is.
      saw_header = true;
      int kx = 0, ky = 0;
      if (std::sscanf(line, "# noc-trace v2 geometry %dx%d", &kx, &ky) == 2) {
        if (kx < 2 || kx > kMaxMeshRadix || ky < 2 || ky > kMaxMeshRadix ||
            kx * ky > DestMask::kBits)
          return trace_fail(f, error, path, lineno,
                            "trace geometry out of range");
        trace->kx = kx;
        trace->ky = ky;
        continue;
      }
      if (std::strncmp(line, "# noc-trace v1", 14) == 0) continue;
      return trace_fail(f, error, path, lineno,
                        "not a noc-trace file (missing '# noc-trace v1' or "
                        "'# noc-trace v2 geometry KXxKY' header)");
    }
    if (line[0] == '#' || line[0] == '\n') continue;
    // Exactly five whitespace-separated tokens, each parsed whole: a
    // suffix ("0garbage"), a fraction ("1.7") or an overflowing cycle
    // fails instead of loading a prefix or a saturated value. Tokens are
    // split in place, each NUL-terminated at its separator.
    constexpr const char* kSpace = " \t\r\n";
    char* tok[6];
    int ntok = 0;
    for (char* p = line + std::strspn(line, kSpace); *p != '\0' && ntok < 6;) {
      tok[ntok++] = p;
      p += std::strcspn(p, kSpace);
      if (*p != '\0') *p++ = '\0';
      p += std::strspn(p, kSpace);
    }
    TraceRecord r;
    int mc = 0;
    if (ntok != 5 || !parse_number(tok[0], &r.cycle) ||
        !parse_number(tok[1], &r.src) ||
        !mask_from_hex(tok[2], &r.dest_mask) ||
        !parse_number(tok[3], &r.length) || !parse_number(tok[4], &mc) ||
        r.cycle < 0 || r.src < 0 || r.src >= DestMask::kBits ||
        r.dest_mask.none() || r.length < 1 || r.length > kMaxPacketFlits ||
        mc < 0 || mc >= kNumMsgClasses)
      return trace_fail(f, error, path, lineno, "malformed trace record");
    if (trace->kx > 0 && r.src >= trace->kx * trace->ky)
      return trace_fail(f, error, path, lineno,
                        "record source outside the declared geometry");
    r.mc = static_cast<MsgClass>(mc);
    trace->records.push_back(r);
  }
  std::fclose(f);
  if (!saw_header)
    return trace_fail(nullptr, error, path, lineno, "empty trace file");
  return trace;
}

std::string trace_geometry_error(const Trace& trace, int kx, int ky) {
  if (trace.kx == 0) return {};  // legacy v1: geometry unknown
  if (trace.kx == kx && trace.ky == ky) return {};
  return "trace was captured on a " + std::to_string(trace.kx) + "x" +
         std::to_string(trace.ky) + " mesh, cannot replay on " +
         std::to_string(kx) + "x" + std::to_string(ky);
}

// ---------------------------------------------------------------------------
// ClosedLoopSource.

const char* ClosedLoopConfig::validate() const {
  if (window < 1 || window > kMaxMshrWindow)
    return "closed-loop window must be in 1..64 (kMaxMshrWindow)";
  if (issue_prob < 0.0 || issue_prob > 1.0)
    return "closed-loop issue_prob must be in [0, 1]";
  if (directory_latency < 0) return "directory_latency must be >= 0";
  if (think_time < 0) return "think_time must be >= 0";
  return nullptr;
}

ClosedLoopSource::ClosedLoopSource(const MeshGeometry& geom,
                                   const TrafficConfig& traffic,
                                   const ClosedLoopConfig& cfg, NodeId node)
    : geom_(geom),
      cfg_(cfg),
      node_(node),
      seed_(traffic.seed),
      issue_prob_(cfg.issue_prob),
      rng_(node_rng_seed(traffic.seed, node)) {
  NOC_EXPECTS(geom.num_nodes() >= 2);
  NOC_EXPECTS(cfg.validate() == nullptr);
  // Owed responses are bounded twice: by the system's outstanding misses,
  // n * window, and by the directory latency. tick_eject drains at
  // most one flit per cycle, so at most one probe reaches this owner per
  // cycle and each owed response is due directory_latency cycles after
  // its probe. tick_inject runs first in the cycle, and there generate()
  // returns a due response before it starts a new miss, so every
  // response is popped by the cycle after it falls due. At most
  // directory_latency + 1 wait at once (on_delivery asserts it).
  pending_.reserve(static_cast<size_t>(std::min<Cycle>(
      geom.num_nodes() * cfg.window, cfg.directory_latency + 1)));
}

void ClosedLoopSource::do_set_rate(double rate) {
  issue_prob_ = std::clamp(rate, 0.0, 1.0);
}

Cycle ClosedLoopSource::next_fire_cycle(Cycle from) const {
  Cycle t = kCycleNever;
  // An owed data response fires at its due cycle; generate() consumes no
  // RNG while waiting for it.
  if (!pending_.empty()) t = std::min(t, pending_.front().due);
  // With window room the source draws its issue Bernoulli on every cycle
  // from next_miss_eligible_ on, so the NIC must be awake for each draw.
  if (outstanding_.size() < cfg_.window && issue_prob_ > 0.0)
    t = std::min(t, next_miss_eligible_);
  return std::max(from, t);
}

NodeId ClosedLoopSource::owner_of(uint64_t tag, NodeId requester) const {
  const auto n = static_cast<uint64_t>(geom_.num_nodes());
  const uint64_t h =
      SplitMix64(tag * 0x9e3779b97f4a7c15ULL + seed_).next() % (n - 1);
  auto owner = static_cast<NodeId>(h);
  if (owner >= requester) ++owner;  // skip the requester itself
  return owner;
}

std::optional<Packet> ClosedLoopSource::generate(Cycle now) {
  // Owed data responses take priority over starting new misses: the
  // response leg is on the system's critical path.
  if (!pending_.empty() && pending_.front().due <= now) {
    const PendingResponse resp = pending_.pop_front();
    Packet pkt;
    pkt.id = make_packet_id(node_, next_local_id_);
    pkt.src = node_;
    pkt.dest_mask = MeshGeometry::node_mask(resp.requester);
    pkt.mc = MsgClass::Response;
    pkt.length = kResponsePacketLen;
    pkt.gen_cycle = now;
    pkt.tag = resp.tag;
    return pkt;
  }

  if (outstanding_.size() >= cfg_.window || now < next_miss_eligible_)
    return std::nullopt;
  if (!rng_.bernoulli(issue_prob_)) return std::nullopt;

  Packet pkt;
  pkt.id = make_packet_id(node_, next_local_id_);
  pkt.src = node_;
  pkt.dest_mask = geom_.all_nodes_mask();  // snoop everyone (self included)
  pkt.mc = MsgClass::Request;
  pkt.length = kRequestPacketLen;
  pkt.gen_cycle = now;
  pkt.tag = pkt.id;
  outstanding_.push_back({pkt.tag, now});
  ++issued_;
  return pkt;
}

void ClosedLoopSource::on_delivery(const Flit& flit, Cycle now) {
  if (flit.tag == 0) return;  // externally-submitted, not ours
  if (flit.mc == MsgClass::Request) {
    // A probe reached this node. Exactly one node -- the deterministic
    // owner -- schedules the data response; everyone else just snoops.
    if (!is_head(flit.type) || flit.src == node_) return;
    if (owner_of(flit.tag, flit.src) == node_) {
      // Probe-to-owner leg: the probe's generation stamp travels in the
      // flit, so the leg is measurable right here without cross-node state.
      if (in_window_)
        window_probe_leg_.add(now - flit.gen_cycle);
      NOC_ASSERT(static_cast<Cycle>(pending_.size()) <=
                 cfg_.directory_latency);
      pending_.push_back(
          {now + cfg_.directory_latency, flit.tag, flit.src});
    }
    return;
  }
  // A data response: retire the outstanding miss it answers.
  if (!is_tail(flit.type)) return;
  for (int i = 0; i < outstanding_.size(); ++i) {
    if (outstanding_[i].tag != flit.tag) continue;
    if (in_window_) {
      window_latency_.add(now - outstanding_[i].issued);
      // Data-return leg: from the response's generation at the owner
      // (which includes the owner's NIC queueing) to tail delivery here.
      window_response_leg_.add(now - flit.gen_cycle);
    }
    outstanding_[i] = outstanding_[outstanding_.size() - 1];
    outstanding_.pop_back();
    ++completed_;
    next_miss_eligible_ = now + cfg_.think_time;
    return;
  }
}

void ClosedLoopSource::on_drop(const Packet& pkt, const DestMask& dropped,
                               Cycle now) {
  // Fault mode (docs/FAULTS.md): the NIC refused some destinations of our
  // own packet at submission. The only drop that strands closed-loop state
  // is a probe that can no longer reach its deterministic owner -- without
  // the probe there will never be a data response, so the miss would pin a
  // window slot forever. Retire it as LOST (no ++completed_, no latency
  // sample) and restart the think timer so the source keeps generating.
  //
  // Known limitation: a RESPONSE dropped at the owner's NIC (owner became
  // disconnected from the requester after accepting the probe) leaves the
  // requester's miss dangling until a revival reconnects them. Fault soaks
  // therefore use open-loop traffic; see docs/FAULTS.md.
  if (pkt.mc != MsgClass::Request || pkt.tag == 0 || pkt.src != node_) return;
  if (!dropped.test(owner_of(pkt.tag, node_))) return;
  for (int i = 0; i < outstanding_.size(); ++i) {
    if (outstanding_[i].tag != pkt.tag) continue;
    outstanding_[i] = outstanding_[outstanding_.size() - 1];
    outstanding_.pop_back();
    next_miss_eligible_ = now + cfg_.think_time;
    return;
  }
}

void ClosedLoopSource::begin_window(Cycle now) {
  (void)now;
  window_latency_.reset();
  window_probe_leg_.reset();
  window_response_leg_.reset();
  in_window_ = true;
}

void ClosedLoopSource::end_window(Cycle now) {
  (void)now;
  in_window_ = false;
}

TrafficSource::WindowStats ClosedLoopSource::window_stats() const {
  WindowStats s;
  s.transactions = window_latency_.count();
  s.latency_sum = window_latency_.sum();
  s.latency_max = window_latency_.max();
  s.probe_legs = window_probe_leg_.count();
  s.probe_latency_sum = window_probe_leg_.sum();
  s.response_legs = window_response_leg_.count();
  s.response_latency_sum = window_response_leg_.sum();
  return s;
}

// ---------------------------------------------------------------------------
// TraceSource.

TraceSource::TraceSource(const MeshGeometry& geom, const Trace& trace,
                         NodeId node)
    : node_(node) {
  // Geometry-stamped traces must match the mesh exactly; callers with a
  // message channel should pre-check trace_geometry_error themselves.
  NOC_EXPECTS(trace_geometry_error(trace, geom.kx(), geom.ky()).empty());
  const DestMask valid = geom.all_nodes_mask();
  for (const TraceRecord& r : trace.records) {
    // Every record must fit this geometry -- a trace from a bigger mesh
    // must fail loudly, not replay partially.
    NOC_EXPECTS(r.src >= 0 && r.src < geom.num_nodes());
    if (r.src != node) continue;
    NOC_EXPECTS(r.dest_mask.any() && r.dest_mask.andnot(valid).none());
    NOC_EXPECTS(r.length >= 1 && r.length <= kMaxPacketFlits);
    mine_.push_back(r);
  }
  // Capture order already sorts by cycle within a node; make it a contract.
  std::stable_sort(mine_.begin(), mine_.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.cycle < b.cycle;
                   });
}

Cycle TraceSource::next_fire_cycle(Cycle from) const {
  if (next_ >= mine_.size()) return kCycleNever;
  return std::max(from, mine_[next_].cycle);
}

std::optional<Packet> TraceSource::generate(Cycle now) {
  if (next_ >= mine_.size()) return std::nullopt;
  const TraceRecord& r = mine_[next_];
  if (r.cycle > now) return std::nullopt;
  ++next_;
  if (in_window_) ++window_injected_;
  Packet pkt;
  pkt.id = make_packet_id(node_, next_local_id_);
  pkt.src = node_;
  pkt.dest_mask = r.dest_mask;
  pkt.mc = r.mc;
  pkt.length = r.length;
  pkt.gen_cycle = now;  // includes replay slip, so latency stays honest
  return pkt;
}

void TraceSource::begin_window(Cycle now) {
  (void)now;
  window_injected_ = 0;
  in_window_ = true;
}

void TraceSource::end_window(Cycle now) {
  (void)now;
  in_window_ = false;
}

TrafficSource::WindowStats TraceSource::window_stats() const {
  WindowStats s;
  s.transactions = window_injected_;
  return s;
}

// ---------------------------------------------------------------------------
// Factory.

std::unique_ptr<TrafficSource> make_traffic_source(
    const MeshGeometry& geom, const TrafficConfig& traffic,
    const WorkloadSpec& spec, NodeId node) {
  switch (spec.kind) {
    case WorkloadKind::OpenLoop:
      return std::make_unique<OpenLoopSource>(geom, traffic, node);
    case WorkloadKind::ClosedLoop:
      return std::make_unique<ClosedLoopSource>(geom, traffic, spec.closed,
                                                node);
    case WorkloadKind::Trace:
      NOC_EXPECTS(spec.trace.trace != nullptr);
      return std::make_unique<TraceSource>(geom, *spec.trace.trace, node);
  }
  NOC_ASSERT(false);
  return nullptr;
}

}  // namespace noc
