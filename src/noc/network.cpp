#include "noc/network.hpp"

#include <algorithm>
#include <tuple>

#include "sim/thread_pool.hpp"

namespace noc {

NetworkConfig NetworkConfig::proposed(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::Proposed;
  c.router.multicast = true;
  return c;
}

NetworkConfig NetworkConfig::lowswing_multicast(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::ThreeStage;
  c.router.multicast = true;
  return c;
}

NetworkConfig NetworkConfig::baseline_3stage(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::ThreeStage;
  c.router.multicast = false;
  c.router.actionable_sa1_requests = false;  // textbook Fig-1 allocator
  return c;
}

NetworkConfig NetworkConfig::baseline_4stage(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::FourStage;
  c.router.multicast = false;
  c.router.actionable_sa1_requests = false;  // textbook Fig-1 allocator
  return c;
}

template <typename T>
Channel<T>* Network::make_channel(std::vector<Channel<T>>& pool, int latency) {
  // The constructor reserved the exact pool size up front; growing past it
  // would reallocate and dangle every pointer already wired in.
  NOC_ASSERT(pool.size() < pool.capacity());
  pool.emplace_back(latency);
  return &pool.back();
}

Network::Network(const NetworkConfig& cfg)
    : cfg_(cfg),
      geom_(cfg.k, cfg.ky > 0 ? cfg.ky : cfg.k),
      metrics_(geom_) {
  const int n = geom_.num_nodes();
  // Fault schedule first: routers/NICs built below capture a pointer to
  // this state when the plan is non-empty (and none at all otherwise, so
  // pristine networks keep the fault-free fast path, bit for bit).
  fault_state_.init(geom_, cfg.fault);

  // Column-span partition. The span COUNT is fixed by the config (clamped
  // to one span per column), so results depend only on step_threads, never
  // on how many workers the budget actually grants.
  const int spans = SpanPartition::clamp_spans(geom_, cfg.step_threads);
  part_ = SpanPartition(geom_, spans);
  spans_.resize(static_cast<size_t>(spans));
  for (int s = 0; s < spans; ++s) {
    StepSpan& sp = spans_[static_cast<size_t>(s)];
    sp.nodes = part_.nodes_of(s);
    if (!sharded()) continue;
    sp.metrics = std::make_unique<Metrics>(geom_);
    sp.metrics->set_shared(&metrics_);
    // Per-cycle worst case per node: 8 events in each of the inject phase
    // (a packet submission plus the local deliveries of a NIC-duplicated
    // broadcast), the router phase and the eject phase. A faulted network
    // also retires router-phase drop events -- up to one per input VC.
    sp.metrics->reserve_capture(
        3 * sp.nodes.size() *
        (cfg.fault.empty() ? 8 : 8 + kNumPorts * kMaxTotalVcs));
  }
  // Telemetry sink (docs/OBSERVABILITY.md). Packet-lifecycle tracing
  // appends to one shared event buffer from router/NIC hooks, which run on
  // workers under parallel stepping -- so tracing is disabled there. The
  // other probes stay on: stall rows are per-router (one worker each),
  // histograms are filled by the merge, and the time series samples on the
  // main thread after it.
  if (cfg.telemetry.enabled) {
    telemetry_ = std::make_unique<Telemetry>(n, cfg.telemetry);
    if (sharded()) telemetry_->disable_tracing();
    metrics_.set_telemetry(telemetry_.get());
  }

  // Components record into their span's shards; a single span records
  // straight into the network-wide sinks.
  auto energy_for = [&](NodeId node) -> EnergyCounters& {
    return sharded() ? span_of(node).energy : energy_;
  };
  auto metrics_for = [&](NodeId node) -> Metrics& {
    return sharded() ? *span_of(node).metrics : metrics_;
  };

  routers_.reserve(static_cast<size_t>(n));
  sources_.reserve(static_cast<size_t>(n));
  nics_.reserve(static_cast<size_t>(n));
  for (NodeId node = 0; node < n; ++node) {
    routers_.push_back(std::make_unique<Router>(node, geom_, cfg.router,
                                                energy_for(node),
                                                metrics_for(node)));
    sources_.push_back(
        make_traffic_source(geom_, cfg.traffic, cfg.workload, node));
    nics_.push_back(std::make_unique<Nic>(node, geom_, cfg.router,
                                          sources_.back().get(),
                                          energy_for(node),
                                          metrics_for(node)));
    if (fault_state_.enabled()) {
      routers_.back()->attach_faults(&fault_state_);
      nics_.back()->attach_faults(&fault_state_);
    }
    if (telemetry_ != nullptr) {
      routers_.back()->attach_telemetry(telemetry_.get());
      nics_.back()->attach_telemetry(telemetry_.get());
    }
  }

  const bool bypass = cfg.router.has_bypass();
  const bool gated = cfg.activity_gating;

  // Exact pool sizes (pointer stability: see make_channel). Per undirected
  // mesh edge: one flit/credit/lookahead channel per direction; per node:
  // NIC flit + credit channels both ways, lookahead toward the router only.
  const int n_edges =
      (geom_.kx() - 1) * geom_.ky() + geom_.kx() * (geom_.ky() - 1);
  flit_channels_.reserve(static_cast<size_t>(2 * n_edges + 2 * n));
  credit_channels_.reserve(static_cast<size_t>(2 * n_edges + 2 * n));
  if (bypass) la_channels_.reserve(static_cast<size_t>(2 * n_edges + n));

  // Router-to-router wiring. Each undirected edge gets one channel of each
  // kind per direction. We visit each edge once (East and North neighbors).
  // With gating, each channel learns which component its arrivals must wake;
  // wake bits live in the receiver's owning span so every mask write during
  // a parallel step stays worker-local.
  auto router_wake = [&](NodeId r) {
    return gated ? WakeHook{&span_of(r).router_awake, r} : WakeHook{};
  };
  // Per-port wake refinement (docs/PERF.md Layer 5): a channel toward
  // router r arrives at exactly one input port, so its hook also ORs that
  // port's bit into r's wake word -- the ticking router then sweeps only
  // ports with work. Channels fire during the receiver-owned channel sweep
  // (or the same node's inject phase for the latency-0 NIC lookahead), both
  // before the router pass, so the bits are complete when r ticks; the
  // channel and the word share r's span, so the raw-word OR stays
  // worker-local.
  auto router_port_wake = [&](NodeId r, PortDir in_at_r) {
    WakeHook h = router_wake(r);
    if (gated && cfg.router.port_gating) {
      h.port_word = routers_[static_cast<size_t>(r)]->arm_port_wake();
      h.port_bits = uint64_t{1} << port_index(in_at_r);
    }
    return h;
  };
  auto wire_edge = [&](NodeId a, PortDir a_out, NodeId b) {
    const PortDir b_out = opposite(a_out);
    auto* f_ab = make_channel(flit_channels_, 1);
    auto* f_ba = make_channel(flit_channels_, 1);
    auto* c_ab = make_channel(credit_channels_, 1);  // a's inport -> b's outport
    auto* c_ba = make_channel(credit_channels_, 1);  // b's inport -> a's outport
    Channel<Lookahead>* l_ab = bypass ? make_channel(la_channels_, 1) : nullptr;
    Channel<Lookahead>* l_ba = bypass ? make_channel(la_channels_, 1) : nullptr;
    flit_ep_.push_back({a, b});
    flit_ep_.push_back({b, a});
    credit_ep_.push_back({a, b});
    credit_ep_.push_back({b, a});
    if (bypass) {
      la_ep_.push_back({a, b});
      la_ep_.push_back({b, a});
    }
    f_ab->set_wake_target(router_port_wake(b, b_out));
    f_ba->set_wake_target(router_port_wake(a, a_out));
    c_ab->set_wake_target(router_port_wake(b, b_out));
    c_ba->set_wake_target(router_port_wake(a, a_out));
    if (l_ab != nullptr) l_ab->set_wake_target(router_port_wake(b, b_out));
    if (l_ba != nullptr) l_ba->set_wake_target(router_port_wake(a, a_out));

    Router::PortChannels pa;  // router a, port a_out
    pa.flit_out = f_ab;
    pa.flit_in = f_ba;
    pa.credit_in = c_ba;   // credits from b for flits a sent
    pa.credit_out = c_ab;  // credits a sends for flits received from b
    pa.la_out = l_ab;
    pa.la_in = l_ba;
    routers_[static_cast<size_t>(a)]->connect(a_out, pa);

    Router::PortChannels pb;  // router b, port b_out
    pb.flit_out = f_ba;
    pb.flit_in = f_ab;
    pb.credit_in = c_ab;
    pb.credit_out = c_ba;
    pb.la_out = l_ba;
    pb.la_in = l_ab;
    routers_[static_cast<size_t>(b)]->connect(b_out, pb);
  };

  for (int y = 0; y < geom_.ky(); ++y) {
    for (int x = 0; x < geom_.kx(); ++x) {
      const NodeId a = geom_.id(x, y);
      if (x + 1 < geom_.kx()) wire_edge(a, PortDir::East, geom_.id(x + 1, y));
      if (y + 1 < geom_.ky()) wire_edge(a, PortDir::North, geom_.id(x, y + 1));
    }
  }

  // NIC wiring through each router's Local port. All five channels stay
  // inside the node and therefore inside its span.
  for (NodeId node = 0; node < n; ++node) {
    auto* f_nr = make_channel(flit_channels_, 1);   // NIC -> router
    auto* f_rn = make_channel(flit_channels_, 1);   // router -> NIC
    auto* c_rn = make_channel(credit_channels_, 1); // router local-in -> NIC
    auto* c_nr = make_channel(credit_channels_, 1); // NIC rx -> router local-out
    Channel<Lookahead>* l_nr = bypass ? make_channel(la_channels_, 0) : nullptr;
    flit_ep_.push_back({node, node});
    flit_ep_.push_back({node, node});
    credit_ep_.push_back({node, node});
    credit_ep_.push_back({node, node});
    if (bypass) la_ep_.push_back({node, node});
    if (gated) {
      StepSpan& sp = span_of(node);
      f_nr->set_wake_target(router_port_wake(node, PortDir::Local));
      f_rn->set_wake_target({&sp.eject_awake, node});
      c_rn->set_wake_target({&sp.inject_awake, node});
      c_nr->set_wake_target(router_port_wake(node, PortDir::Local));
      // Latency 0: the wake fires at send time, during the NIC injection
      // phase, so the router sees the lookahead the same cycle.
      if (l_nr != nullptr)
        l_nr->set_wake_target(router_port_wake(node, PortDir::Local));
    }

    Router::PortChannels pl;
    pl.flit_in = f_nr;
    pl.flit_out = f_rn;
    pl.credit_in = c_nr;
    pl.credit_out = c_rn;
    pl.la_in = l_nr;
    pl.la_out = nullptr;  // no lookahead toward the NIC
    routers_[static_cast<size_t>(node)]->connect(PortDir::Local, pl);

    Nic::Channels nc;
    nc.flit_to_router = f_nr;
    nc.la_to_router = l_nr;
    nc.credit_from_router = c_rn;
    nc.flit_from_router = f_rn;
    nc.credit_to_router = c_nr;
    nics_[static_cast<size_t>(node)]->connect(nc);
  }

  setup_activity();

  // Lease extra workers from the shared budget for this network's
  // lifetime. A lease of 0 (serial, budget exhausted, nested parallelism)
  // leaves a one-worker team whose run() is a direct call over every span,
  // so results stay identical.
  budget_lease_ = thread_budget::acquire(spans - 1);
  team_ = std::make_unique<StepTeam>(budget_lease_ + 1);
}

Network::~Network() {
  team_.reset();
  thread_budget::release(budget_lease_);
}

void Network::setup_activity() {
  const int n = geom_.num_nodes();
  NOC_EXPECTS(n <= DestMask::kCapacity);  // one awake bit per node
  const bool gated = cfg_.activity_gating;

  // Contiguous channel ids per pool so the active-list sweep can recover
  // the typed pointer from the id alone. Every channel is owned by its
  // RECEIVER's span: it registers on that span's active list (gated only)
  // and items counter (always: quiescent() relies on it), and a channel
  // whose sender lives in a different span is the boundary case -- it
  // becomes deferred (double-buffered sends committed by the owner after
  // the compute barrier).
  const int total = num_channels();
  for (auto& sp : spans_) {
    sp.active.init(total);
    sp.channels.reserve(static_cast<size_t>(total));
  }

  auto install = [&](auto& ch, const std::pair<NodeId, NodeId>& ep, int id,
                     auto cross_of) {
    StepSpan& sp = span_of(ep.second);
    ch.set_activity(gated ? &sp.active : nullptr, id, &sp.items);
    sp.channels.push_back(id);
    if (part_.crosses(ep.first, ep.second)) {
      ch.set_deferred(true);
      cross_of(sp).push_back(&ch);
    }
  };
  int id = 0;
  for (size_t i = 0; i < flit_channels_.size(); ++i, ++id)
    install(flit_channels_[i], flit_ep_[i], id,
            [](StepSpan& sp) -> auto& { return sp.cross_flit; });
  credit_id_base_ = id;
  for (size_t i = 0; i < credit_channels_.size(); ++i, ++id)
    install(credit_channels_[i], credit_ep_[i], id,
            [](StepSpan& sp) -> auto& { return sp.cross_credit; });
  la_id_base_ = id;
  for (size_t i = 0; i < la_channels_.size(); ++i, ++id)
    install(la_channels_[i], la_ep_[i], id,
            [](StepSpan& sp) -> auto& { return sp.cross_la; });

  inject_wake_at_.assign(static_cast<size_t>(n), kCycleNever);
  // Everything starts awake; idle components fall asleep after their first
  // tick, which keeps cycle 0 identical to the ungated walk.
  for (auto& sp : spans_) {
    DestMask m;
    for (NodeId node : sp.nodes) m.set(node);
    sp.router_awake = sp.inject_awake = sp.eject_awake = m;
  }

  if (gated) {
    for (NodeId node = 0; node < n; ++node) {
      const WakeHook inject{&span_of(node).inject_awake, node};
      nics_[static_cast<size_t>(node)]->set_inject_wake_hook(inject);
      sources_[static_cast<size_t>(node)]->set_wake_hook(inject);
    }
  }
}

// ---------------------------------------------------------------------------
// The step loop (docs/PERF.md Layers 3-4).
//
// Schedule per cycle:
//
//   A. compute  -- each worker runs its spans' timed wakes, channel
//      deliveries, NIC-inject / router / NIC-eject passes. Every write lands
//      in span-owned state; sends on cross-span channels only stage.
//   B. commit   -- each owner replays the messages other spans staged into
//      its boundary channels, through the normal send path.
//   C. merge    (main thread) -- add the per-span energy shards and drain
//      the per-span metrics and trace-record buffers, span by span.
//
// With one span, A is the whole step: components record straight into the
// network-wide sinks and there is nothing to commit or merge. Bit-identity
// to one span holds because every within-cycle wake is intra-node, every
// cross-node interaction crosses a latency>=1 channel (visible only after
// the next cycle's begin_cycle), and everything C accumulates commutes
// (Metrics: integer counts, sums, maxima and histogram bins).

void Network::step(Cycle now) {
  apply_faults(now);
  StepCtx ctx{this, now, &Network::span_compute};
  team_->run(&Network::phase_thunk, &ctx);
  if (sharded()) {
    ctx.phase = &Network::span_commit;
    team_->run(&Network::phase_thunk, &ctx);
    merge_spans();
  }
  if (telemetry_ != nullptr && telemetry_->want_sample(now))
    sample_telemetry(now);
  ++energy_.cycles;
}

void Network::sample_telemetry(Cycle now) {
  TimeSample s;
  s.cycle = now;
  s.injected_flits = energy_.nic_link_traversals;
  s.delivered_flits = metrics_.lifetime_flits_received();
  s.open_packets = metrics_.open_packets();
  s.fault_epoch = fault_state_.epoch();
  // Awake-router count is a SCHEDULING observable -- how many routers the
  // gated sweep would visit -- so it legitimately differs across stepping
  // modes (ungated runs report every router awake) and is excluded from the
  // determinism comparisons in tests/test_gating_equivalence.cpp.
  for (const auto& sp : spans_) s.awake_routers += sp.router_awake.count();
  telemetry_->push_sample(s);
}

void Network::apply_faults(Cycle now) {
  // One compare on the pristine/idle path (next event kCycleNever). Runs
  // on the main thread before gating decisions and the span fan-out, so
  // every stepping mode sees identical fault state for the whole cycle.
  if (fault_state_.next_event_at() > now) return;
  const uint64_t epoch = fault_state_.epoch();
  const size_t applied_before = fault_state_.cursor();
  fault_state_.advance(now);
  if (telemetry_ != nullptr) {
    for (size_t i = applied_before; i < fault_state_.cursor(); ++i) {
      const FaultEvent& e = fault_state_.event(i);
      telemetry_->record_fault(now, e.kind, e.a, e.b);
    }
  }
  if (fault_state_.epoch() != epoch) {
    // The surviving topology changed: re-validate open escape-class
    // packets everywhere (routers convert stranded branches to drops).
    // Wedged/busy routers are never asleep (busy VCs keep them awake), so
    // no wake edges are needed.
    for (auto& r : routers_) r->on_topology_change(now);
  }
}

void Network::span_compute(int s, Cycle now) {
  StepSpan& sp = spans_[static_cast<size_t>(s)];
  const bool gated = cfg_.activity_gating;

  // 0. Timed wake-ups: sources that promised a future fire cycle (never
  //    armed when ungated).
  if (sp.next_timed_wake <= now) {
    sp.next_timed_wake = kCycleNever;
    for (NodeId i : sp.nodes) {
      Cycle& at = inject_wake_at_[static_cast<size_t>(i)];
      if (at <= now) {
        sp.inject_awake.set(i);
        at = kCycleNever;
      } else if (at < sp.next_timed_wake) {
        sp.next_timed_wake = at;
      }
    }
  }

  // 1. Channels deliver; newly visible arrivals wake their receivers (this
  //    runs before every component phase, so same-cycle consumption is
  //    guaranteed). Gated, only channels holding messages are visited and
  //    fully drained ones drop off the list -- their slots are all empty,
  //    so skipping begin_cycle is safe (see Channel's activity contract).
  //    Per-entry work is order-independent: begin_cycle touches only the
  //    channel itself and wake bits are ORed.
  if (gated)
    sp.active.sweep([&](int id) { return begin_channel(id, now); });
  else
    for (int id : sp.channels) begin_channel(id, now);

  // 2. NIC injection halves, ascending node id. A NIC stays awake while it
  //    holds queued work or its source may fire next cycle; otherwise it
  //    parks, with a timed wake if the source promised a future fire.
  const DestMask inject_pass = sp.inject_awake;
  inject_pass.for_each([&](int node) {
    const auto i = static_cast<size_t>(node);
    nics_[i]->tick_inject(now);
    if (!gated || nics_[i]->inject_busy()) return;
    const Cycle wake = sources_[i]->next_fire_cycle(now + 1);
    if (wake <= now + 1) return;
    sp.inject_awake.clear(node);
    // Overwrite unconditionally: an early hook wake may have left a stale
    // earlier entry that would otherwise fire a pointless timed wake.
    inject_wake_at_[i] = wake;
    if (wake < sp.next_timed_wake) sp.next_timed_wake = wake;
  });

  // 3. Routers. Skipped ticks are exact no-ops for idle routers (no
  //    arbiter state advances without requests; the lookahead rotation is
  //    cycle-derived), so sleeping preserves bit-identical metrics.
  const DestMask router_pass = sp.router_awake;
  router_pass.for_each([&](int node) {
    const auto i = static_cast<size_t>(node);
    routers_[i]->tick(now);
    if (gated && routers_[i]->idle()) sp.router_awake.clear(node);
  });

  // 4. NIC ejection halves.
  const DestMask eject_pass = sp.eject_awake;
  eject_pass.for_each([&](int node) {
    const auto i = static_cast<size_t>(node);
    nics_[i]->tick_eject(now);
    if (gated && !nics_[i]->eject_busy()) sp.eject_awake.clear(node);
  });
}

bool Network::begin_channel(int id, Cycle now) {
  if (id < credit_id_base_) {
    auto& ch = flit_channels_[static_cast<size_t>(id)];
    ch.begin_cycle(now);
    return ch.stored() > 0;
  }
  if (id < la_id_base_) {
    auto& ch = credit_channels_[static_cast<size_t>(id - credit_id_base_)];
    ch.begin_cycle(now);
    return ch.stored() > 0;
  }
  auto& ch = la_channels_[static_cast<size_t>(id - la_id_base_)];
  ch.begin_cycle(now);
  return ch.stored() > 0;
}

void Network::phase_thunk(void* ctx, int worker) {
  auto* c = static_cast<StepCtx*>(ctx);
  Network& net = *c->net;
  const int workers = net.team_->workers();
  const int spans = static_cast<int>(net.spans_.size());
  // Strided span -> worker assignment: the worker count changes only the
  // schedule, never which span owns what, so results are grant-invariant.
  for (int s = worker; s < spans; s += workers) (net.*c->phase)(s, c->now);
}

void Network::span_commit(int s, Cycle now) {
  StepSpan& sp = spans_[static_cast<size_t>(s)];
  for (auto* ch : sp.cross_flit) ch->commit_staged(now);
  for (auto* ch : sp.cross_credit) ch->commit_staged(now);
  for (auto* ch : sp.cross_la) ch->commit_staged(now);
}

// Span-order drain of each span's events in emission order. Within one
// cycle, events of a logical packet that come from different spans are only
// tail decrements and drops (creation and its NIC-local deliveries happen at
// one node), and those commute, as does every latency accumulation. Packets
// submitted through a NIC between steps simply sit at the front of their
// span's buffer.
void Network::merge_spans() {
  for (auto& sp : spans_) {
    energy_ += sp.energy;
    sp.energy.reset();
    for (const auto& e : sp.metrics->captured()) metrics_.apply(e);
    sp.metrics->clear_captured();
  }
  merge_records();
}

// Each span records its NICs in ascending node order, and every generated
// packet is stamped with the current cycle, so a stable (cycle, src) sort
// of one step's records is exactly the order a single span records.
void Network::merge_records() {
  if (trace_out_ == nullptr || !sharded()) return;
  auto& out = trace_out_->records;
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (auto& sp : spans_) {
    out.insert(out.end(), sp.records.records.begin(),
               sp.records.records.end());
    sp.records.records.clear();
  }
  std::stable_sort(out.begin() + first, out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return std::tie(a.cycle, a.src) < std::tie(b.cycle, b.src);
                   });
}

void Network::record_trace(Trace* out) {
  merge_records();  // records submitted since the last step
  trace_out_ = out;
  if (out != nullptr) {
    // Stamp the capture geometry so replay layers can reject a trace fed
    // to the wrong mesh (trace_geometry_error / the v2 file header).
    out->kx = geom_.kx();
    out->ky = geom_.ky();
  }
  for (NodeId node = 0; node < geom_.num_nodes(); ++node) {
    Trace* rec = out != nullptr && sharded() ? &span_of(node).records : out;
    nics_[static_cast<size_t>(node)]->set_trace_recorder(rec);
  }
}

void Network::begin_measurement_window(Cycle now) {
  metrics_.begin_window(now);
  if (telemetry_ != nullptr) telemetry_->reset_stalls();
  for (auto& src : sources_) src->begin_window(now);
}

void Network::end_measurement_window(Cycle now) {
  metrics_.end_window(now);
  for (auto& src : sources_) src->end_window(now);
}

int64_t Network::channel_items() const {
  int64_t total = 0;
  for (const auto& sp : spans_) total += sp.items;
  return total;
}

bool Network::quiescent() const {
  if (metrics_.open_packets() != 0) return false;
  // The aggregate counter covers flit, credit AND lookahead channels: the
  // old flit-only scan let a drain phase end with a credit still on a wire,
  // corrupting back-to-back measurement windows.
  if (channel_items() != 0) return false;
  for (const auto& r : routers_)
    if (!r->idle()) return false;
  for (const auto& nic : nics_)
    if (!nic->idle()) return false;
  for (const auto& src : sources_)
    if (!src->idle()) return false;
  return true;
}

}  // namespace noc
