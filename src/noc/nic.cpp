#include "noc/nic.hpp"

#include "noc/route_policy.hpp"
#include "noc/workload.hpp"

namespace noc {

Nic::Nic(NodeId node, const MeshGeometry& geom, const RouterConfig& router_cfg,
         TrafficSource* source, EnergyCounters& energy, Metrics& metrics)
    : node_(node),
      geom_(geom),
      router_cfg_(router_cfg),
      energy_(energy),
      metrics_(metrics),
      source_(source),
      rx_vcs_(static_cast<size_t>(router_cfg.vc.total_vcs())),
      rx_rr_(router_cfg.vc.total_vcs()) {
  NOC_EXPECTS(source_ != nullptr);
  ds_.configure(router_cfg.vc);
  // Pre-size the packet queues past any below-saturation high-water mark,
  // so steady-state injection never regrows the ring (docs/PERF.md). A
  // duplicated broadcast is one entry, so this counts logical packets, not
  // copies; at 8 the saturated and closed-loop zero-alloc configs still
  // regrow mid-window. Saturated runs with unbounded queue growth still
  // regrow -- by doubling, so rarely.
  for (auto& q : queue_) q.reserve(256);
}

namespace {

/// The next unicast copy of a duplicated broadcast `entry`: its lowest
/// destination, with the id after `entry.id` (see Nic::submit_packet).
/// Each copy is its own unicast, so its route class is re-stamped: O1TURN
/// spreads the copies over both orders and adaptive copies roam.
Packet next_copy(const Packet& entry, RoutePolicy policy) {
  Packet copy = entry;
  copy.id += uint64_t{1} << 56;
  copy.dest_mask = MeshGeometry::node_mask(entry.dest_mask.lowest());
  copy.rc = route_class_for_packet(policy, copy);
  return copy;
}

}  // namespace

PacketKind Nic::classify(const Packet& pkt) const {
  if (pkt.dest_mask.count() > 1) return PacketKind::Broadcast;
  return pkt.mc == MsgClass::Response ? PacketKind::UnicastResponse
                                      : PacketKind::UnicastRequest;
}

void Nic::account_new_packet(const Packet& pkt, Cycle now) {
  metrics_.on_logical_packet(pkt.id, classify(pkt), pkt.gen_cycle,
                             pkt.dest_mask.count());
  (void)now;
}

void Nic::enqueue_for_send(Packet pkt) {
  queue_[static_cast<int>(pkt.mc)].push_back(std::move(pkt));
}

void Nic::submit_packet(Packet pkt) {
  NOC_EXPECTS(pkt.src == node_);
  NOC_EXPECTS(pkt.dest_mask.any());
  // Stamp the routing class here, not in the sources: traffic generation
  // is policy-agnostic, so traces replay and external submissions inject
  // correctly under whatever policy this network runs (docs/ROUTING.md).
  pkt.rc = route_class_for_packet(router_cfg_.routing, pkt);
  // External callers may submit while a gated NIC sleeps; make sure the
  // injection half runs next step (self-submissions fire it redundantly,
  // which is harmless).
  wake_inject_.fire();
  if (trace_out_ != nullptr)
    trace_out_->records.push_back(
        {pkt.gen_cycle, node_, pkt.dest_mask, pkt.length, pkt.mc});
  account_new_packet(pkt, pkt.gen_cycle);
  if (telemetry_ != nullptr &&
      telemetry_->tracing(pkt.effective_logical_id()))
    telemetry_->trace(TraceEventType::PacketBegin, pkt.gen_cycle,
                      pkt.effective_logical_id(), node_,
                      static_cast<uint8_t>(classify(pkt)));

  // Fault-mode injection filter (docs/FAULTS.md): destinations with no
  // usable path on the surviving topology are counted as drops at the
  // door. Adaptive routing requires the escape tree (Duato); the oblivious
  // policies only lose fully-disconnected destinations here -- a dest that
  // is connected but whose fixed dimension-ordered path crosses a dead
  // link injects normally and wedges until revival. The packet was
  // accounted with its FULL destination count above, so generated ==
  // completed + dropped conservation is exact.
  if (faults_ != nullptr) {
    DestMask dead;
    const bool adaptive = router_cfg_.routing == RoutePolicy::MinimalAdaptive;
    pkt.dest_mask.for_each([&](int d) {
      if (d == node_) return;  // local delivery never touches the mesh
      const bool ok = adaptive ? faults_->escape_reachable(node_, d)
                               : faults_->connected(node_, d);
      if (!ok) dead.set(d);
    });
    if (dead.any()) {
      metrics_.on_packet_dropped(pkt.id, dead.count(), pkt.gen_cycle);
      source_->on_drop(pkt, dead, pkt.gen_cycle);
      pkt.dest_mask = pkt.dest_mask.andnot(dead);
      if (pkt.dest_mask.none()) return;
      // A broadcast shrunk to one survivor becomes a plain unicast.
      pkt.rc = route_class_for_packet(router_cfg_.routing, pkt);
    }
  }

  if (pkt.dest_mask.count() > 1 && !router_cfg_.multicast) {
    // Routers cannot fork: the NIC sends one unicast copy per destination
    // (paper Sec 2.3). The source's own copy is delivered locally without
    // network traversal.
    if (pkt.dest_mask.test(node_)) {
      Packet self = pkt;
      self.dest_mask = MeshGeometry::node_mask(node_);
      FlitList flits;
      segment_packet_into(self, flits);
      for (const Flit& f : flits) {
        metrics_.on_flit_received(f.logical_id, f, pkt.gen_cycle);
        source_->on_delivery(f, pkt.gen_cycle);
      }
      pkt.dest_mask.clear(node_);
    }
    // The rest stays one queue entry; try_activate cuts the copies from it
    // in ascending destination order as each wins a VC. Copy i (from 1)
    // gets id (id ^ 0x5a5a5a5a) + (i << 56), so the entry's id is the last
    // cut copy's id and only the remaining destinations are stored.
    pkt.logical_id = pkt.effective_logical_id();
    pkt.id ^= 0x5a5a5a5aULL;
    // A single remaining destination is the final copy itself: only
    // duplicated broadcasts stay multi-destination in this NIC's queues.
    if (pkt.dest_mask.count() == 1) pkt = next_copy(pkt, router_cfg_.routing);
  }
  enqueue_for_send(std::move(pkt));
}

bool Nic::try_activate(MsgClass mc) {
  const int m = static_cast<int>(mc);
  ActiveTx& tx = active_[m];
  if (tx.active()) return true;
  if (queue_[m].empty()) return false;
  const int vc = ds_.allocate_vc(mc);
  if (vc < 0) return false;
  ++energy_.vc_allocations;
  Packet& head = queue_[m].front();
  if (router_cfg_.multicast || head.dest_mask.count() == 1) {
    segment_packet_into(queue_[m].pop_front(), tx.flits);
  } else {
    // A duplicated broadcast: send its next copy and keep the rest queued,
    // as the final copy once one destination remains, so later packets of
    // this class still leave after its last copy.
    const Packet copy = next_copy(head, router_cfg_.routing);
    segment_packet_into(copy, tx.flits);
    head.id = copy.id;
    head.dest_mask.clear(head.dest_mask.lowest());
    if (head.dest_mask.count() == 1)
      head = next_copy(head, router_cfg_.routing);
  }
  tx.next = 0;
  tx.vc = vc;
  return true;
}

bool Nic::can_send(MsgClass mc) const {
  const ActiveTx& tx = active_[static_cast<int>(mc)];
  return tx.active() && ds_.credits(tx.vc) > 0;
}

void Nic::send_flit(MsgClass mc, Cycle now) {
  ActiveTx& tx = active_[static_cast<int>(mc)];
  Flit& f = tx.flits[tx.next++];
  f.vc = tx.vc;
  ds_.consume_credit(tx.vc);
  NOC_ASSERT(ch_.flit_to_router != nullptr);
  ch_.flit_to_router->send(now, f);
  ++energy_.nic_link_traversals;
  metrics_.on_injection_link(node_);
  if (router_cfg_.has_bypass() && ch_.la_to_router != nullptr) {
    ch_.la_to_router->send(now, Lookahead{port_index(PortDir::Local), f});
    ++energy_.lookaheads_sent;
  }
  if (tx.next >= tx.flits.size()) tx.vc = -1;
}

void Nic::tick_inject(Cycle now) {
  // Apply credits from the router's Local input port.
  if (ch_.credit_from_router != nullptr) {
    for (const Credit& c : ch_.credit_from_router->arrivals(now)) {
      ds_.return_credit(c.vc);
      if (c.vc_free) ds_.release_vc(c.vc);
    }
  }

  // Traffic generation.
  if (auto pkt = source_->generate(now)) submit_packet(std::move(*pkt));

  // Send at most one flit (64b link). Round-robin across message classes.
  uint32_t sendable = 0;
  for (int m = 0; m < kNumMsgClasses; ++m) {
    if (try_activate(static_cast<MsgClass>(m)) &&
        can_send(static_cast<MsgClass>(m)))
      sendable |= uint32_t{1} << m;
  }
  if (sendable != 0) {
    const int m = mc_rr_.arbitrate(sendable);
    send_flit(static_cast<MsgClass>(m), now);
  }
}

void Nic::tick_eject(Cycle now) {
  // Accept arrivals from the router's Local output.
  if (ch_.flit_from_router != nullptr) {
    const auto arrivals = ch_.flit_from_router->arrivals(now);
    NOC_ASSERT(arrivals.size() <= 1);
    for (const Flit& f : arrivals) {
      NOC_ASSERT(f.vc >= 0 &&
                 f.vc < static_cast<int>(rx_vcs_.size()));
      rx_vcs_[static_cast<size_t>(f.vc)].push_back(f);
      NOC_ASSERT(static_cast<int>(rx_vcs_[static_cast<size_t>(f.vc)].size()) <=
                 router_cfg_.vc.depth_of_vc(f.vc));
    }
  }

  // Drain one flit per cycle (the ejection-bandwidth limit of Table 1).
  uint32_t occupied = 0;
  for (size_t v = 0; v < rx_vcs_.size(); ++v)
    if (!rx_vcs_[v].empty()) occupied |= uint32_t{1} << v;
  if (occupied == 0) return;
  const int v = rx_rr_.arbitrate(occupied);
  Flit f = rx_vcs_[static_cast<size_t>(v)].pop_front();
  if (ch_.credit_to_router != nullptr)
    ch_.credit_to_router->send(now,
                               Credit{static_cast<int8_t>(v), is_tail(f.type)});
  if (telemetry_ != nullptr && is_tail(f.type) &&
      telemetry_->tracing(f.logical_id))
    telemetry_->trace(TraceEventType::Eject, now, f.logical_id, node_);
  metrics_.on_flit_received(f.logical_id, f, now);
  source_->on_delivery(f, now);
  // The delivery may have unblocked the source (a closed-loop response
  // becoming due, a retired miss reopening the window): re-arm injection.
  wake_inject_.fire();
}

bool Nic::inject_busy() const {
  for (int m = 0; m < kNumMsgClasses; ++m)
    if (!queue_[m].empty() || active_[m].active()) return true;
  return false;
}

bool Nic::eject_busy() const {
  for (const auto& q : rx_vcs_)
    if (!q.empty()) return true;
  return false;
}

bool Nic::idle() const { return !inject_busy() && !eject_busy(); }

}  // namespace noc
