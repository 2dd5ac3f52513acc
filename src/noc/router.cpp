#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <climits>

namespace noc {

Router::Router(NodeId node, const MeshGeometry& geom, const RouterConfig& cfg,
               EnergyCounters& energy, Metrics& metrics)
    : node_(node), geom_(geom), cfg_(cfg), energy_(energy), metrics_(metrics) {
  // Lane-splitting policies partition each message class's VCs; a class
  // whose Free lane would be empty could never allocate for half its
  // traffic -- reject the config here rather than deadlock silently.
  NOC_EXPECTS(!route_policy_uses_lanes(cfg.routing) ||
              cfg.vc.lanes_available());
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    ip.vcs.resize(static_cast<size_t>(cfg.vc.total_vcs()));
    for (int v = 0; v < cfg.vc.total_vcs(); ++v)
      ip.vcs[static_cast<size_t>(v)].configure(cfg.vc.depth_of_vc(v));
    ip.sa1 = RoundRobinArbiter(cfg.vc.total_vcs());
    auto& op = out_[static_cast<size_t>(p)];
    op.ds.configure(cfg.vc);
    op.sa2 = MatrixArbiter(kNumPorts);
  }
}

void Router::connect(PortDir port, const PortChannels& ch) {
  auto& ip = in_[static_cast<size_t>(port_index(port))];
  ip.ch = ch;
  ip.connected = true;
}

bool Router::idle() const {
  // busy_ covers every buffered flit: a VC's FIFO is only non-empty while
  // its packet holds the VC (push requires busy, close requires empty).
  if (busy_.any()) return false;
  for (const auto& ip : in_)
    if (ip.st.valid || ip.bypass.valid || ip.stage2_vc >= 0) return false;
  for (const auto& op : out_)
    if (op.lt.has_value()) return false;
  return true;
}

PortMask Router::internal_work_ports() const {
  // Collapse each port's 16-bit busy slice to one bit straight off the
  // words (the generic extract() straddle logic is overkill for the fixed
  // vc_bit layout), then consult the latch state only for non-busy ports --
  // at saturation most ports are busy, skipping all ten struct loads.
  static_assert(kMaxTotalVcs == 16 && kNumPorts == 5,
                "slice constants below assume the vc_bit layout");
  const uint64_t w0 = busy_.word(0);
  uint64_t bits = 0;
  if ((w0 & 0x000000000000FFFFull) != 0) bits |= 1u << 0;
  if ((w0 & 0x00000000FFFF0000ull) != 0) bits |= 1u << 1;
  if ((w0 & 0x0000FFFF00000000ull) != 0) bits |= 1u << 2;
  if ((w0 & 0xFFFF000000000000ull) != 0) bits |= 1u << 3;
  if ((busy_.word(1) & 0xFFFFull) != 0) bits |= 1u << 4;
  PortMask m(bits);
  for (int p = 0; p < kNumPorts; ++p) {
    if (m.test(p)) continue;
    const auto& ip = in_[static_cast<size_t>(p)];
    if (ip.st.valid || ip.bypass.valid || ip.stage2_vc >= 0 ||
        out_[static_cast<size_t>(p)].lt.has_value())
      m.set(p);
  }
  return m;
}

void Router::tick(Cycle now) {
  // Port-gated sweep set: carried-over work plus this cycle's deliveries.
  // Every phase below only ever ACTS on a port in this set -- an excluded
  // port has no arrivals (its channels' wake hooks would have set its bit),
  // no latched state, and no busy VC, so each phase's body is a no-op for
  // it. Skipping is therefore pure scheduling; per-policy equivalence
  // tests pin the bit-identity (tests/test_gating_equivalence.cpp).
  PortMask active = PortMask::first_n(kNumPorts);
  if (port_wake_armed_) {
    // Every wake for this cycle's arrivals fired before the router pass
    // (sends of the previous cycle, and latency-0 NIC lookaheads during
    // injection), so the word is complete and can be retired now. Sends of
    // this cycle land in the other word.
    uint64_t& word = wake_port_words_[static_cast<size_t>(now & 1)];
    arrived_ = word;
    word = 0;
    // One bit per port: the OR of the flit, credit and lookahead bytes.
    const uint64_t ports = (arrived_ | arrived_ >> 8 | arrived_ >> 16) &
                           ((uint64_t{1} << kNumPorts) - 1);
    active = internal_work_ports();
    active |= PortMask(ports);
  }
  apply_credits(now, active);
  phase_st_and_bw(now, active);
  fault_tick(now);
  // A degraded router's allocators run at half rate (docs/FAULTS.md): odd
  // cycles skip both switch allocation and mSA-I/VA. Credits and the ST
  // stage still run -- flits granted on even cycles drain normally, and
  // lookaheads ignored this cycle are harmless (their flit arrives next
  // cycle and takes the buffered path).
  const bool throttled =
      faults_ != nullptr && faults_->degraded(node_) && (now & 1) != 0;
  if (!throttled) {
    phase_sa2(now, active);
    phase_sa1_va(now, active);
  }
  energy_.vc_active_cycles += busy_.count();
}

void Router::apply_credits(Cycle now, const PortMask& active) {
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    if (!active.test(p)) continue;
    if (!ip.connected || ip.ch.credit_in == nullptr) continue;
    if (!arrived(Arrival::Credit, p)) continue;
    for (const Credit& c : ip.ch.credit_in->arrivals(now)) {
      auto& ds = out_[static_cast<size_t>(p)].ds;
      ds.return_credit(c.vc);
      if (c.vc_free) ds.release_vc(c.vc);
    }
  }
}

RouteSet Router::route_head(int in_port, const Flit& head,
                            DestMask* drop) const {
  *drop = DestMask{};
  if (head.rc == RouteClass::Adaptive) {
    // Adaptive packets are unicasts by construction
    // (route_class_for_packet); the hop decision is made from live credit
    // state and revisited by VA on every retry until a VC is granted.
    NOC_ASSERT(head.branch_mask.count() == 1);
    const NodeId dest = head.branch_mask.lowest();
    RouteSet rs;
    if (faults_ != nullptr && dest != node_ &&
        !faults_->escape_reachable(node_, dest)) {
      // No deadlock-free path can be guaranteed: counted drop, not a hang.
      *drop = head.branch_mask;
      return rs;
    }
    const PortDir out =
        dest == node_ ? PortDir::Local : adaptive_port_choice(dest, head.mc);
    rs[out] = head.branch_mask;
    return rs;
  }
  if (faults_ != nullptr && head.rc == RouteClass::Escape) {
    // Fault-mode escape: the up*/down* tree of the surviving topology.
    RouteSet rs = faults_->escape_tree_route(node_, head.branch_mask, drop);
    // Down-phase constraint (docs/ROUTING.md): a packet that arrived on a
    // down-class hop (via the South or West INPUT port, i.e. moving away
    // from the root) must never turn back up (out South/West). Within one
    // epoch tree paths are up* down* and this never fires; across a
    // topology change it converts the offending destinations into counted
    // drops instead of risking a down->up dependency cycle.
    if (in_port == port_index(PortDir::South) ||
        in_port == port_index(PortDir::West)) {
      for (const PortDir up : {PortDir::South, PortDir::West}) {
        DestMask& m = rs[up];
        if (m.none()) continue;
        *drop |= m;
        m = DestMask{};
      }
    }
    return rs;
  }
  return class_tree_route(head.rc, geom_, node_, head.branch_mask);
}

PortDir Router::adaptive_port_choice(NodeId dest, MsgClass mc) const {
  const PortChoices ports = productive_ports(geom_, node_, dest);
  NOC_ASSERT(!ports.empty());
  bool found = false;
  PortDir best = ports[0];
  int best_key = -1;
  for (const PortDir p : ports) {
    // Dead output ports drop out of the productive set (docs/FAULTS.md).
    if (faults_ != nullptr && faults_->port_dead(node_, p)) continue;
    found = true;
    const auto& ds = out_[static_cast<size_t>(port_index(p))].ds;
    // Free VCs weigh above credit slack (a port without a free VC cannot
    // accept a new packet no matter how empty its buffers; the actionable
    // mask relies on a free-VC port always outranking a VC-less one); the
    // strict > keeps the X-productive port on ties, so a congestion-free
    // mesh degenerates to plain XY.
    static_assert(kMaxVcDepth * kMaxTotalVcs < 1024,
                  "free-VC weight must dominate any possible credit sum");
    const int key = ds.free_vc_count(mc, VcLane::Free) * 1024 +
                    ds.lane_credits(mc, VcLane::Free);
    if (key > best_key) {
      best_key = key;
      best = p;
    }
  }
  // Every productive port dead: aim at the escape-tree hop so the bypass /
  // actionable checks look at the only port that can still make progress.
  // Callers guarantee escape_reachable (route_head / VA convert the rest
  // into drops before asking for a port).
  if (!found) return faults_->escape_next(node_, dest);
  return best;
}

bool Router::branch_could_get_vc(RouteClass rc, MsgClass mc,
                                 const Branch& b) const {
  if (b.drop) return false;  // never allocates; the fault sweep drains it
  if (rc == RouteClass::Adaptive && b.out != PortDir::Local) {
    const NodeId dest = b.dests.lowest();
    // Destination fell off the escape tree mid-flight: VA's "allocation"
    // is the conversion into a counted drop -- actionable work, so mSA-I
    // must be allowed to select the packet.
    if (faults_ != nullptr && !faults_->escape_reachable(node_, dest))
      return true;
    for (const PortDir p : productive_ports(geom_, node_, dest)) {
      if (faults_ != nullptr && faults_->port_dead(node_, p)) continue;
      if (out_[static_cast<size_t>(port_index(p))].ds.has_free_vc(
              mc, VcLane::Free))
        return true;
    }
    const PortDir esc = faults_ != nullptr ? faults_->escape_next(node_, dest)
                                           : escape_port(geom_, node_, dest);
    return out_[static_cast<size_t>(port_index(esc))].ds.has_free_vc(
        mc, VcLane::Ordered);
  }
  // A dead output port accepts no NEW packets (in-flight branches keep
  // their VC and drain; this predicate only guards fresh allocation).
  if (faults_ != nullptr && b.out != PortDir::Local &&
      faults_->port_dead(node_, b.out))
    return false;
  return out_[static_cast<size_t>(port_index(b.out))].ds.has_free_vc(
      mc, branch_lane(rc, b.out));
}

RouteClass Router::downstream_rc(const Flit& f, const GrantOut& go) const {
  if (cfg_.routing == RoutePolicy::MinimalAdaptive &&
      f.rc == RouteClass::Adaptive && go.out != PortDir::Local &&
      cfg_.vc.lane_of_vc(go.ds_vc) == VcLane::Ordered)
    return RouteClass::Escape;
  return f.rc;
}

void Router::open_packet_state(Cycle now, int port, const Flit& head) {
  NOC_EXPECTS(is_head(head.type));
  DestMask dropped;
  const RouteSet rs = route_head(port, head, &dropped);
  BranchList& branches = open_branches_;  // persistent scratch, see router.hpp
  branches.clear();
  for (int o = 0; o < kNumPorts; ++o) {
    const DestMask& m = rs.port_dests[static_cast<size_t>(o)];
    if (m.none()) continue;
    Branch b;
    b.out = port_dir(o);
    b.dests = m;
    branches.push_back(b);
  }
  if (dropped.any()) {
    // Unreachable destinations (docs/FAULTS.md): one drop branch drains
    // the shared FIFO for them and counts the lost deliveries at its tail.
    Branch b;
    b.dests = dropped;
    b.drop = true;
    branches.push_back(b);
    ++open_drop_branches_;
  }
  NOC_ASSERT(!branches.empty());
  if (!cfg_.multicast) NOC_ASSERT(branches.size() == 1);
  in_[static_cast<size_t>(port)].vcs[static_cast<size_t>(head.vc)].open_packet(
      head, branches);
  busy_.set(vc_bit(port, head.vc));
  if (telemetry_ != nullptr && telemetry_->tracing(head.logical_id))
    telemetry_->trace(TraceEventType::HopBegin, now, head.logical_id, node_);
}

void Router::forward_copy(Cycle now, const Flit& f, const GrantOut& go) {
  Flit copy = f;
  copy.branch_mask = go.dests;
  copy.vc = go.ds_vc;
  copy.rc = downstream_rc(f, go);
  ++energy_.xbar_traversals;
  auto* out_ch = in_[static_cast<size_t>(port_index(go.out))].ch.flit_out;
  NOC_ASSERT(out_ch != nullptr);
  if (cfg_.pipeline == PipelineMode::FourStage) {
    auto& lt = out_[static_cast<size_t>(port_index(go.out))].lt;
    NOC_ASSERT(!lt.has_value());
    lt = copy;
    return;
  }
  // Fused ST+LT: the copy is on the wire this cycle.
  if (go.out == PortDir::Local)
    ++energy_.nic_link_traversals;
  else
    ++energy_.link_traversals;
  metrics_.on_link_flit(node_, go.out);
  out_ch->send(now, copy);
}

void Router::send_lookahead(Cycle now, const Flit& f, const GrantOut& go) {
  if (!cfg_.has_bypass() || go.out == PortDir::Local) return;
  auto* la_ch = in_[static_cast<size_t>(port_index(go.out))].ch.la_out;
  if (la_ch == nullptr) return;
  // Aggregate-init so the flit is copy-constructed from f directly rather
  // than default-constructed and then overwritten.
  Lookahead la{port_index(opposite(go.out)), f};
  la.flit.branch_mask = go.dests;
  la.flit.vc = go.ds_vc;
  la.flit.rc = downstream_rc(f, go);
  la_ch->send(now, la);
  ++energy_.lookaheads_sent;
}

void Router::send_credit_upstream(Cycle now, int port, int vc, bool vc_free) {
  auto* ch = in_[static_cast<size_t>(port)].ch.credit_out;
  NOC_ASSERT(ch != nullptr);
  ch->send(now, Credit{static_cast<int8_t>(vc), vc_free});
}

int Router::serviceable_seq(const InputVc& ivc) const {
  int s = INT_MAX;
  for (const auto& b : ivc.branches()) {
    if (b.tail_sent || b.ds_vc < 0) continue;
    if (!ivc.has_seq(b.next_seq)) continue;
    if (!out_[static_cast<size_t>(port_index(b.out))].ds.has_credit(b.ds_vc))
      continue;
    s = std::min<int>(s, b.next_seq);
  }
  return s;
}

void Router::advance_branch(Branch& b, const Flit& f) {
  NOC_ASSERT(b.next_seq == f.seq);
  ++b.next_seq;
  if (is_tail(f.type)) b.tail_sent = true;
}

void Router::retire_sent_flits(Cycle now, int port, int vc) {
  auto& ivc = in_[static_cast<size_t>(port)].vcs[static_cast<size_t>(vc)];
  if (!ivc.busy()) return;
  while (!ivc.empty()) {
    const int fs = ivc.front_seq();
    // Fully sent iff every unfinished branch has moved past it, and every
    // finished branch finished at or beyond it (tail_sent implies so).
    bool fully_sent = true;
    for (const auto& b : ivc.branches())
      if (!b.tail_sent && b.next_seq <= fs) fully_sent = false;
    if (!fully_sent) break;
    const Flit f = ivc.pop_front();
    const bool last = is_tail(f.type) && ivc.all_branches_done();
    send_credit_upstream(now, port, vc, last);
  }
  if (ivc.empty() && ivc.all_branches_done()) {
    if (telemetry_ != nullptr && telemetry_->tracing(ivc.logical()))
      telemetry_->trace(TraceEventType::HopEnd, now, ivc.logical(), node_);
    ivc.close_packet();
    busy_.clear(vc_bit(port, vc));
  }
}

void Router::phase_st_and_bw(Cycle now, const PortMask& active) {
  // LT stage of the FourStage pipeline: drain last cycle's ST results.
  if (cfg_.pipeline == PipelineMode::FourStage) {
    for (int o = 0; o < kNumPorts; ++o) {
      auto& op = out_[static_cast<size_t>(o)];
      if (!active.test(o)) continue;  // pending LT implies membership
      if (!op.lt.has_value()) continue;
      auto* ch = in_[static_cast<size_t>(o)].ch.flit_out;
      NOC_ASSERT(ch != nullptr);
      if (port_dir(o) == PortDir::Local)
        ++energy_.nic_link_traversals;
      else
        ++energy_.link_traversals;
      metrics_.on_link_flit(node_, port_dir(o));
      ch->send(now, *op.lt);
      op.lt.reset();
    }
  }

  // ST for buffered flits granted in last cycle's mSA-II. Runs before the
  // arrival handling below so that a departing flit frees its buffer slot in
  // the same cycle a new flit lands (read-before-write register semantics);
  // the credit protocol sizes occupancy assuming exactly this.
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    if (!active.test(p) || !ip.st.valid) continue;
    const int vcid = ip.st.vc;
    auto& ivc = ip.vcs[static_cast<size_t>(vcid)];
    // Safe to borrow: forward_copy only sends downstream, and the pops in
    // retire_sent_flits happen after the loop.
    const Flit& f = ivc.flit_at_seq(ip.st.seq);
    ++energy_.buffer_reads;
    for (const auto& go : ip.st.outs) forward_copy(now, f, go);
    ip.st.valid = false;  // in-place: a fresh StLatch would re-run the
    ip.st.outs.clear();   // GrantList constructors (see granted_scratch_)
    retire_sent_flits(now, p, vcid);
  }

  // Arriving flits: bypass or buffer-write. A skipped port has no arrival
  // (the flit channel's wake hook carries this port's bit).
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    if (!active.test(p)) continue;
    if (!ip.connected || ip.ch.flit_in == nullptr) continue;
    const auto arrivals = arrived(Arrival::Flit, p)
                              ? ip.ch.flit_in->arrivals(now)
                              : std::span<const Flit>{};
    NOC_ASSERT(arrivals.size() <= 1);  // one flit per link per cycle
    if (arrivals.empty()) {
      NOC_ASSERT(!ip.bypass.valid);  // a lookahead always precedes its flit
      continue;
    }
    const Flit& f = arrivals.front();
    NOC_ASSERT(f.vc >= 0 && f.vc < cfg_.vc.total_vcs());
    auto& ivc = ip.vcs[static_cast<size_t>(f.vc)];

    if (ip.bypass.valid) {
      NOC_ASSERT(ip.bypass.vc == f.vc && ip.bypass.seq == f.seq);
      for (const auto& go : ip.bypass.outs) forward_copy(now, f, go);
      if (ip.bypass.full) {
        ++energy_.bypasses;
        const bool last = is_tail(f.type) && ivc.all_branches_done();
        send_credit_upstream(now, p, f.vc, last);
        if (ivc.empty() && ivc.all_branches_done()) {
          if (telemetry_ != nullptr && telemetry_->tracing(ivc.logical()))
            telemetry_->trace(TraceEventType::HopEnd, now, ivc.logical(),
                              node_);
          ivc.close_packet();
          busy_.clear(vc_bit(p, f.vc));
        }
      } else {
        // Partial bypass: the flit stays buffered for the remaining branches.
        ++energy_.partial_bypasses;
        ++energy_.buffer_writes;
        ivc.push(f);
      }
      ip.bypass.valid = false;
      ip.bypass.outs.clear();
      continue;
    }

    // Buffered path: BW (stage 1 action).
    if (is_head(f.type) && !ivc.busy()) open_packet_state(now, p, f);
    NOC_ASSERT(ivc.busy());
    ivc.push(f);
    ++energy_.buffer_writes;
    ++energy_.buffered_hops;
  }
}

void Router::phase_sa2(Cycle now, const PortMask& active) {
  std::array<bool, kNumPorts> out_claimed{};
  std::array<bool, kNumPorts> in_claimed{};

  if (cfg_.has_bypass() && cfg_.lookahead_priority) {
    process_lookaheads(now, active, out_claimed, in_claimed);
    arbitrate_buffered(now, out_claimed, in_claimed);
  } else if (cfg_.has_bypass()) {
    arbitrate_buffered(now, out_claimed, in_claimed);
    process_lookaheads(now, active, out_claimed, in_claimed);
  } else {
    arbitrate_buffered(now, out_claimed, in_claimed);
  }
}

void Router::process_lookaheads(Cycle now, const PortMask& active,
                                std::array<bool, kNumPorts>& out_claimed,
                                std::array<bool, kNumPorts>& in_claimed) {
  // Rotating priority across input ports keeps lookahead-vs-lookahead
  // conflicts from systematically favouring one direction. The rotation is
  // a pure function of the cycle (not stored state advanced per tick) so an
  // activity-gated router that slept through idle cycles resumes with
  // exactly the priority an always-on router would hold.
  const int rot = static_cast<int>(now % kNumPorts);

  for (int off = 0; off < kNumPorts; ++off) {
    // rot + off < 2 * kNumPorts, so one conditional subtract replaces the
    // per-iteration modulo (kNumPorts is not a power of two).
    int p = rot + off;
    if (p >= kNumPorts) p -= kNumPorts;
    auto& ip = in_[static_cast<size_t>(p)];
    // A skipped port has no lookahead arrival; the relative rotation order
    // among ports that DO is unchanged, so arbitration is unaffected.
    if (!active.test(p)) continue;
    if (!ip.connected || ip.ch.la_in == nullptr) continue;
    if (!arrived(Arrival::Lookahead, p)) continue;
    for (const Lookahead& la : ip.ch.la_in->arrivals(now)) {
      NOC_ASSERT(la.in_port == p);
      ++energy_.sa2_arbitrations;
      auto& ivc = ip.vcs[static_cast<size_t>(la.flit.vc)];

      // Install route state for an incoming head even if the bypass fails:
      // NRC was already performed upstream, the flit will need it either way.
      if (is_head(la.flit.type) && !ivc.busy())
        open_packet_state(now, p, la.flit);

      if (in_claimed[static_cast<size_t>(p)]) continue;
      if (!ivc.busy() || !ivc.empty()) continue;  // order would be violated
      // With an empty FIFO all unfinished branches sit at the same seq.
      if (ivc.current_seq() != la.flit.seq) continue;
      // Packets carrying a drop branch take the buffered path only: the
      // fault sweep consumes their flits from the FIFO, and a bypass copy
      // would race it (docs/FAULTS.md).
      if (open_drop_branches_ > 0) {
        bool has_drop = false;
        for (const auto& b : ivc.branches()) has_drop |= b.drop;
        if (has_drop) continue;
      }

      // Which branches can be granted right now?
      auto& want = la_want_;
      auto& grantable = la_grantable_;
      want.clear();
      grantable.clear();
      for (auto& b : ivc.branches()) {
        if (b.tail_sent || b.next_seq != la.flit.seq) continue;
        want.push_back(&b);
        const int o = port_index(b.out);
        if (out_claimed[static_cast<size_t>(o)]) continue;
        auto& ds = out_[static_cast<size_t>(o)].ds;
        int vc = b.ds_vc;
        // A dead output port grants no NEW VC (graceful drain: branches
        // already holding one keep sending on credits).
        if (vc < 0 && faults_ != nullptr && b.out != PortDir::Local &&
            faults_->port_dead(node_, b.out))
          continue;
        // Class-aware VA: an Adaptive flit bypasses only through its
        // primary (Free) lane on the pre-aimed port -- the escape fallback
        // stays on the buffered path, where VA re-aims every retry.
        if (vc < 0 && !ds.has_free_vc(la.flit.mc, branch_lane(ivc.rc(), b.out)))
          continue;
        if (vc >= 0 && !ds.has_credit(vc)) continue;
        grantable.push_back(GrantOut{b.out, vc, b.dests});
      }
      if (grantable.empty()) continue;
      const bool full = grantable.size() == want.size();
      if (!full && !cfg_.allow_partial_bypass) continue;
      // Multi-flit multicasts may only bypass on a full grant: a partial
      // grant would acquire a subset of branch VCs, reintroducing the
      // hold-and-wait deadlock that atomic VA exists to prevent.
      if (!full && la.flit.packet_len > 1 && want.size() > 1) continue;

      // Commit the grant, built in place (the latch is always invalid by
      // the time phase_sa2 runs: phase_st_and_bw consumed any prior grant).
      NOC_ASSERT(!ip.bypass.valid);
      BypassGrant& grant = ip.bypass;
      grant.outs.clear();
      grant.valid = true;
      grant.vc = la.flit.vc;
      grant.seq = la.flit.seq;
      grant.full = full;
      for (auto& go : grantable) {
        auto& ds = out_[static_cast<size_t>(port_index(go.out))].ds;
        // Find the matching branch to persist VA results / progress.
        Branch* br = nullptr;
        for (auto* w : want)
          if (w->out == go.out) br = w;
        NOC_ASSERT(br != nullptr);
        if (go.ds_vc < 0) {
          go.ds_vc = ds.allocate_vc(la.flit.mc, branch_lane(ivc.rc(), go.out));
          NOC_ASSERT(go.ds_vc >= 0);
          br->ds_vc = go.ds_vc;
          ++energy_.vc_allocations;
        }
        ds.consume_credit(go.ds_vc);
        out_claimed[static_cast<size_t>(port_index(go.out))] = true;
        advance_branch(*br, la.flit);
        send_lookahead(now, la.flit, go);
        grant.outs.push_back(go);
      }
      if (telemetry_ != nullptr && telemetry_->tracing(la.flit.logical_id))
        telemetry_->trace(TraceEventType::SaGrant, now, la.flit.logical_id,
                          node_);
      in_claimed[static_cast<size_t>(p)] = true;
    }
  }
}

void Router::arbitrate_buffered(Cycle now,
                                std::array<bool, kNumPorts>& out_claimed,
                                std::array<bool, kNumPorts>& in_claimed) {
  // Per-input view of the stage-2 candidate's current service state.
  struct Cand {
    bool valid = false;
    int vc = -1;
    int seq = 0;
  };
  std::array<Cand, kNumPorts> cand{};
  // Transposed request build (docs/PERF.md Layer 5): one branch walk per
  // candidate input scatters its requests into per-output PortMask rows,
  // replacing the old output-major 5x5 rescan of every input's branch
  // list. No credit state changes between here and the output loop below
  // (grants only consume in the commit loop), so the rows the output loop
  // reads match what the rescan would have recomputed.
  std::array<PortMask, kNumPorts> requests{};  // per output, bit = input
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    if (in_claimed[static_cast<size_t>(p)] || ip.stage2_vc < 0) continue;
    auto& ivc = ip.vcs[static_cast<size_t>(ip.stage2_vc)];
    if (!ivc.busy()) continue;
    // Serve the lowest sequence that can make progress; this is NOT
    // necessarily the packet's globally lowest unsent seq (see
    // serviceable_seq). One seq per input per cycle -- the crossbar has a
    // single read port per input.
    const int s = serviceable_seq(ivc);
    if (s == INT_MAX) continue;
    cand[static_cast<size_t>(p)] = Cand{true, ip.stage2_vc, s};
    for (const auto& b : ivc.branches()) {
      if (b.tail_sent || b.next_seq != s) continue;
      if (b.ds_vc < 0) continue;  // VA not yet successful for this branch
      if (!out_[static_cast<size_t>(port_index(b.out))].ds.has_credit(b.ds_vc))
        continue;
      requests[static_cast<size_t>(port_index(b.out))].set(p);
    }
  }

  // Output-port arbitration (mSA-II): matrix arbiter per output.
  auto& granted = granted_scratch_;  // per input
  for (auto& g : granted) g.clear();
  for (int o = 0; o < kNumPorts; ++o) {
    if (out_claimed[static_cast<size_t>(o)]) {
      // Buffered requesters that lost the output to a lookahead bypass
      // lost switch allocation all the same.
      if (telemetry_ != nullptr && requests[static_cast<size_t>(o)].any())
        telemetry_->add_stall(node_, StallClass::LostSa,
                              requests[static_cast<size_t>(o)].count());
      continue;
    }
    if (requests[static_cast<size_t>(o)].none()) continue;
    ++energy_.sa2_arbitrations;
    const int w =
        out_[static_cast<size_t>(o)].sa2.arbitrate(requests[static_cast<size_t>(o)]);
    NOC_ASSERT(w >= 0);
    if (telemetry_ != nullptr && requests[static_cast<size_t>(o)].count() > 1)
      telemetry_->add_stall(node_, StallClass::LostSa,
                            requests[static_cast<size_t>(o)].count() - 1);
    const auto& ivc =
        in_[static_cast<size_t>(w)].vcs[static_cast<size_t>(cand[static_cast<size_t>(w)].vc)];
    for (const auto& b : ivc.branches()) {
      if (b.tail_sent || b.next_seq != cand[static_cast<size_t>(w)].seq)
        continue;
      if (port_index(b.out) != o) continue;
      granted[static_cast<size_t>(w)].push_back(GrantOut{b.out, b.ds_vc, b.dests});
      break;
    }
  }

  // Commit grants: fill ST latches, consume credits, advance branches,
  // emit lookaheads one cycle ahead of the flit.
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    auto& gouts = granted[static_cast<size_t>(p)];
    if (!gouts.empty()) {
      auto& c = cand[static_cast<size_t>(p)];
      auto& ivc = ip.vcs[static_cast<size_t>(c.vc)];
      const Flit& f = ivc.flit_at_seq(c.seq);
      // Fill the ST latch in place (always invalid here: phase_st_and_bw
      // consumed any prior grant earlier this tick).
      NOC_ASSERT(!ip.st.valid);
      StLatch& st = ip.st;
      st.outs.clear();
      st.valid = true;
      st.vc = c.vc;
      st.seq = c.seq;
      for (auto& go : gouts) {
        auto& ds = out_[static_cast<size_t>(port_index(go.out))].ds;
        ds.consume_credit(go.ds_vc);
        out_claimed[static_cast<size_t>(port_index(go.out))] = true;
        for (auto& b : ivc.branches())
          if (b.out == go.out && !b.tail_sent && b.next_seq == c.seq)
            advance_branch(b, f);
        send_lookahead(now, f, go);
        st.outs.push_back(go);
      }
      if (telemetry_ != nullptr && telemetry_->tracing(f.logical_id))
        telemetry_->trace(TraceEventType::SaGrant, now, f.logical_id, node_);
      in_claimed[static_cast<size_t>(p)] = true;
    }
    // Stage-2 candidate lifetime: a multicast flit that won SOME of its
    // branches this cycle holds the stage-2 request so the remaining output
    // ports can be granted on subsequent cycles without re-running mSA-I
    // (the paper's mSA-II serves multicast requests port by port). A
    // candidate that won nothing releases the slot -- holding it through a
    // long ejection backlog would head-of-line-block every other VC at this
    // input port.
    bool hold = false;
    if (!gouts.empty() && ip.stage2_vc >= 0) {
      const auto& ivc = ip.vcs[static_cast<size_t>(ip.stage2_vc)];
      if (ivc.busy()) {
        const int s = ivc.current_seq();
        bool started = false;
        for (const auto& b : ivc.branches())
          if (s != INT_MAX && b.next_seq > s) started = true;
        hold = started && serviceable_seq(ivc) != INT_MAX;
      }
    }
    if (!hold) ip.stage2_vc = -1;
  }
}

void Router::phase_sa1_va(Cycle now, const PortMask& active) {
  for (int p = 0; p < kNumPorts; ++p) {
    auto& ip = in_[static_cast<size_t>(p)];
    // A skipped port has stage2_vc < 0 and an empty busy slice, so the scan
    // below would land on the eligible.none() branch and re-store -1.
    if (!active.test(p)) continue;
    if (ip.stage2_vc >= 0) {
      // A partially-served multicast is holding stage 2; retry VA for any
      // of its branches that still lack a downstream VC, but do not run
      // mSA-I over it.
      allocate_branch_vcs(now, ip.stage2_vc,
                          ip.vcs[static_cast<size_t>(ip.stage2_vc)]);
      continue;
    }
    // mSA-I scan over the port's busy-VC word: bit iteration is ascending
    // VC id, the exact order of the old 0..total_vcs object walk.
    VcMask eligible;
    for (uint32_t scan = busy_slice(p); scan != 0; scan &= scan - 1) {
      const int v = std::countr_zero(scan);
      const auto& ivc = ip.vcs[static_cast<size_t>(v)];
      NOC_ASSERT(ivc.busy());
      const int s = ivc.current_seq();
      if (s == INT_MAX) continue;
      // The output-port request is only raised when it is actionable: some
      // branch can traverse this cycle, or VA can equip one to. The
      // textbook baseline skips this masking (see
      // RouterConfig::actionable_sa1_requests).
      if (cfg_.actionable_sa1_requests) {
        bool actionable = serviceable_seq(ivc) != INT_MAX;
        if (!actionable) {
          const MsgClass mc = cfg_.vc.mc_of_vc(v);
          for (const auto& b : ivc.branches()) {
            if (b.tail_sent || !b.needs_vc() || !ivc.has_seq(b.next_seq))
              continue;
            if (branch_could_get_vc(ivc.rc(), mc, b)) {
              actionable = true;
              break;
            }
          }
        }
        if (!actionable) {
          // Stall attribution: the VC is busy but raised no request.
          if (telemetry_ != nullptr)
            telemetry_->add_stall(node_, classify_stalled_vc(ivc));
          continue;
        }
      } else if (!ivc.has_seq(s)) {
        if (telemetry_ != nullptr)
          telemetry_->add_stall(node_, StallClass::BufferEmpty);
        continue;
      }
      eligible.set(v);
    }
    if (eligible.none()) {
      ip.stage2_vc = -1;
      continue;
    }
    ++energy_.sa1_arbitrations;
    ip.stage2_vc = ip.sa1.arbitrate(eligible);
    // Eligible non-winners lost mSA-I this cycle.
    if (telemetry_ != nullptr && eligible.count() > 1)
      telemetry_->add_stall(node_, StallClass::LostSa, eligible.count() - 1);

    // VA (stage-1 action, paper Fig 3): allocate downstream VCs for the
    // selected packet's branches that still lack one.
    allocate_branch_vcs(now, ip.stage2_vc,
                        ip.vcs[static_cast<size_t>(ip.stage2_vc)]);
    if (telemetry_ != nullptr) {
      // The winner's VA left it unable to traverse next cycle: a wasted
      // mSA-I win. A failed fresh allocation is LostVa; otherwise the
      // blocking resource names the class (a VC freed between the
      // actionable check and VA can only have been taken by a
      // lower-numbered port's VA this same phase).
      const auto& wvc = ip.vcs[static_cast<size_t>(ip.stage2_vc)];
      if (wvc.busy() && serviceable_seq(wvc) == INT_MAX) {
        bool va_failed = false;
        for (const auto& b : wvc.branches())
          if (!b.tail_sent && !b.drop && b.needs_vc() &&
              wvc.has_seq(b.next_seq)) {
            va_failed = true;
            break;
          }
        telemetry_->add_stall(node_, va_failed ? StallClass::LostVa
                                               : classify_stalled_vc(wvc));
      }
    }
  }
}

StallClass Router::classify_stalled_vc(const InputVc& ivc) const {
  bool any_flit = false;
  bool credit_stall = false;
  for (const auto& b : ivc.branches()) {
    if (b.tail_sent || b.drop) continue;
    if (!ivc.has_seq(b.next_seq)) continue;
    any_flit = true;
    if (b.ds_vc >= 0) credit_stall = true;
  }
  if (!any_flit) return StallClass::BufferEmpty;
  return credit_stall ? StallClass::NoCredit : StallClass::NoFreeVc;
}

void Router::allocate_branch_vcs(Cycle now, int vc_id, InputVc& ivc) {
  if (!ivc.busy()) return;
  const MsgClass mc = cfg_.vc.mc_of_vc(vc_id);
  // Trace sampling decision hoisted: every successful allocation below
  // stamps one VA instant on this router's track.
  const bool traced =
      telemetry_ != nullptr && telemetry_->tracing(ivc.logical());

  if (ivc.rc() == RouteClass::Adaptive) {
    // Adaptive packets are single-branch unicasts whose output port is
    // re-aimed on EVERY VA retry while no downstream VC is held: first the
    // best productive port with a free Free-lane VC, then the
    // dimension-ordered escape hop on the Ordered lane. Retrying the
    // escape candidate each cycle -- not just once -- is what makes the
    // network deadlock-free (Duato): a packet blocked on adaptive
    // resources always eventually falls through to the acyclic escape
    // subnetwork, which drains independently.
    NOC_ASSERT(ivc.branches().size() == 1);
    Branch& b = ivc.branches()[0];
    if (b.tail_sent || !b.needs_vc()) return;
    if (b.out == PortDir::Local) {
      const int vc =
          out_[static_cast<size_t>(port_index(PortDir::Local))].ds.allocate_vc(
              mc, VcLane::Any);
      if (vc >= 0) {
        b.ds_vc = vc;
        ++energy_.vc_allocations;
        if (traced)
          telemetry_->trace(TraceEventType::VaGrant, now, ivc.logical(),
                            node_);
      }
      return;
    }
    const NodeId dest = b.dests.lowest();
    if (faults_ != nullptr && !faults_->escape_reachable(node_, dest)) {
      // The destination fell off the escape tree while the packet waited:
      // convert in place to a counted drop (docs/FAULTS.md) -- the fault
      // sweep drains it from here on.
      b.drop = true;
      ++open_drop_branches_;
      return;
    }
    const PortDir aim = adaptive_port_choice(dest, mc);
    auto& aim_ds = out_[static_cast<size_t>(port_index(aim))].ds;
    const bool aim_dead =
        faults_ != nullptr && faults_->port_dead(node_, aim);
    if (!aim_dead && aim_ds.has_free_vc(mc, VcLane::Free)) {
      b.out = aim;
      b.ds_vc = aim_ds.allocate_vc(mc, VcLane::Free);
      ++energy_.vc_allocations;
      if (traced)
        telemetry_->trace(TraceEventType::VaGrant, now, ivc.logical(), node_);
      return;
    }
    const PortDir esc = faults_ != nullptr ? faults_->escape_next(node_, dest)
                                           : escape_port(geom_, node_, dest);
    auto& esc_ds = out_[static_cast<size_t>(port_index(esc))].ds;
    if (esc_ds.has_free_vc(mc, VcLane::Ordered)) {
      b.out = esc;
      b.ds_vc = esc_ds.allocate_vc(mc, VcLane::Ordered);
      ++energy_.vc_allocations;
      if (traced)
        telemetry_->trace(TraceEventType::VaGrant, now, ivc.logical(), node_);
      return;
    }
    // Nothing free anywhere: keep the aim on the best adaptive candidate
    // so next cycle's bypass/actionable checks look at the right port.
    b.out = aim;
    return;
  }

  // Multi-flit multicasts must acquire every branch VC atomically: a branch
  // holding its VC while a sibling waits for one deadlocks, because buffer
  // slots only retire once ALL branches have sent a flit (hold-and-wait
  // cycle across packets). Single-flit multicasts release a branch VC the
  // moment the branch sends, so lazy per-branch VA is safe -- and that is
  // the only multicast the paper's traffic contains.
  const bool atomic = ivc.packet_len > 1 && ivc.branches().size() > 1;
  auto port_is_dead = [&](const Branch& b) {
    return faults_ != nullptr && b.out != PortDir::Local &&
           faults_->port_dead(node_, b.out);
  };
  if (atomic) {
    for (const auto& b : ivc.branches()) {
      if (b.tail_sent || !b.needs_vc()) continue;
      if (port_is_dead(b)) return;  // wedged until revival (or epoch drop)
      if (!out_[static_cast<size_t>(port_index(b.out))].ds.has_free_vc(
              mc, branch_lane(ivc.rc(), b.out)))
        return;  // all-or-nothing: try again next cycle
    }
  }
  for (auto& b : ivc.branches()) {
    if (!b.needs_vc() || b.tail_sent) continue;
    if (port_is_dead(b)) continue;  // no NEW VC across a dead link
    const int vc = out_[static_cast<size_t>(port_index(b.out))].ds.allocate_vc(
        mc, branch_lane(ivc.rc(), b.out));
    if (vc >= 0) {
      b.ds_vc = vc;
      ++energy_.vc_allocations;
      if (traced)
        telemetry_->trace(TraceEventType::VaGrant, now, ivc.logical(), node_);
    }
  }
}

void Router::fault_tick(Cycle now) {
  if (open_drop_branches_ == 0) return;
  // Consume one buffered flit per drop branch per cycle, as if sent: the
  // drop branch mimics a branch with infinite downstream credit, so the
  // shared FIFO keeps draining and sibling (live) branches never stall
  // behind unreachable destinations. Runs after this tick's ST latch was
  // consumed and before new grants are issued, so the retire pops below
  // cannot invalidate a flit reference held elsewhere.
  for (int p = 0; p < kNumPorts; ++p) {
    for (uint32_t scan = busy_slice(p); scan != 0; scan &= scan - 1) {
      const int v = std::countr_zero(scan);
      auto& ivc = in_[static_cast<size_t>(p)].vcs[static_cast<size_t>(v)];
      bool swept = false;
      for (auto& b : ivc.branches()) {
        if (!b.drop || b.tail_sent) continue;
        if (!ivc.has_seq(b.next_seq)) continue;  // flit not yet arrived
        const Flit f = ivc.flit_at_seq(b.next_seq);
        if (is_tail(f.type))
          metrics_.on_packet_dropped(f.logical_id, b.dests.count(), now);
        advance_branch(b, f);
        if (b.tail_sent) --open_drop_branches_;
        swept = true;
      }
      if (swept) retire_sent_flits(now, p, v);
    }
  }
}

void Router::on_topology_change(Cycle) {
  NOC_ASSERT(faults_ != nullptr);
  // Only the escape class routes on per-epoch state. Adaptive packets are
  // re-aimed by VA every retry (and their unreachable case is converted
  // there); the oblivious classes (XY/YX/O1TURN trees) keep their route and
  // simply wedge on dead ports until revival.
  if (cfg_.routing != RoutePolicy::MinimalAdaptive) return;
  for (int p = 0; p < kNumPorts; ++p) {
    for (uint32_t scan = busy_slice(p); scan != 0; scan &= scan - 1) {
      const int v = std::countr_zero(scan);
      auto& ivc = in_[static_cast<size_t>(p)].vcs[static_cast<size_t>(v)];
      if (ivc.rc() != RouteClass::Escape) continue;
      for (auto& b : ivc.branches()) {
        if (b.drop || b.tail_sent) continue;
        if (b.out == PortDir::Local) continue;  // local delivery unaffected
        // Started branches (downstream VC held, or flits already sent)
        // drain gracefully across the old route: dead links keep returning
        // credits for in-flight packets. Only unstarted branches are
        // re-validated against the new tree.
        if (b.ds_vc >= 0 || b.next_seq > 0) continue;
        bool ok = true;
        b.dests.for_each([&](int dest) {
          if (!ok) return;
          if (!faults_->escape_reachable(node_, dest) ||
              faults_->escape_next(node_, dest) != b.out)
            ok = false;
        });
        // Down-phase constraint for the arrival port (see route_head).
        if (ok && (p == port_index(PortDir::South) ||
                   p == port_index(PortDir::West)) &&
            (b.out == PortDir::South || b.out == PortDir::West))
          ok = false;
        if (ok) continue;
        // Convert the whole branch in place (docs/FAULTS.md): splitting it
        // per-destination could mint a second branch on an out port the
        // packet already forks to, which the grant-commit loops forbid.
        b.drop = true;
        ++open_drop_branches_;
      }
    }
  }
}

}  // namespace noc
