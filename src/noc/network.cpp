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

template <typename C>
C* Network::make_channel(std::vector<C>& pool, int latency, NodeId from,
                         NodeId to, const WakeHook& wake) {
  // The constructor reserved the exact pool size up front; growing past it
  // would reallocate and dangle every pointer already wired in.
  NOC_ASSERT(pool.size() < pool.capacity());
  C& ch = pool.emplace_back(latency);
  ch.set_wake_target(wake);
  // The receiver's span owns the channel: the in-flight count (always kept:
  // quiescent() relies on it) and every wake target live there, and a
  // channel whose sender lives in another span is the boundary case -- it
  // becomes deferred (sends staged, committed by the owner after the
  // compute barrier).
  StepSpan& sp = span_of(to);
  ch.set_counter(sp.items.data());
  if (part_.crosses(from, to)) {
    ch.set_deferred(true);
    std::get<std::vector<C*>>(sp.cross).push_back(&ch);
  }
  return &ch;
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

  // With gating, each channel wakes its receiver when a message is sent,
  // for the arrival cycle: a latency-1 send marks the span's next-cycle
  // mask, the latency-0 NIC lookahead this cycle's (it is sent during the
  // inject phase, before the router pass). Wake bits live in the
  // receiver's span, so every mask write during a parallel step stays
  // worker-local.
  auto router_wake = [&](NodeId r, int latency = 1) {
    if (!gated) return WakeHook{};
    StepSpan& sp = span_of(r);
    return WakeHook{latency == 0 ? &sp.router_awake : &sp.router_next, r};
  };
  // Router-to-router wiring. Each undirected edge gets one channel of each
  // kind per direction. We visit each edge once (East and North neighbors).
  auto wire_edge = [&](NodeId a, PortDir a_out, NodeId b) {
    const PortDir b_out = opposite(a_out);
    auto* f_ab = make_channel(flit_channels_, 1, a, b, router_wake(b));
    auto* f_ba = make_channel(flit_channels_, 1, b, a, router_wake(a));
    // a's inport -> b's outport, and b's inport -> a's outport
    auto* c_ab = make_channel(credit_channels_, 1, a, b, router_wake(b));
    auto* c_ba = make_channel(credit_channels_, 1, b, a, router_wake(a));
    LookaheadChannel* l_ab =
        bypass ? make_channel(la_channels_, 1, a, b, router_wake(b)) : nullptr;
    LookaheadChannel* l_ba =
        bypass ? make_channel(la_channels_, 1, b, a, router_wake(a)) : nullptr;

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
    StepSpan& sp = span_of(node);
    const WakeHook inject =
        gated ? WakeHook{&sp.inject_next, node} : WakeHook{};
    const WakeHook eject = gated ? WakeHook{&sp.eject_next, node} : WakeHook{};
    auto* f_nr = make_channel(flit_channels_, 1, node, node, router_wake(node));
    auto* f_rn = make_channel(flit_channels_, 1, node, node, eject);
    // router local-in -> NIC, and NIC rx -> router local-out
    auto* c_rn = make_channel(credit_channels_, 1, node, node, inject);
    auto* c_nr =
        make_channel(credit_channels_, 1, node, node, router_wake(node));
    LookaheadChannel* l_nr =
        bypass ? make_channel(la_channels_, 0, node, node, router_wake(node, 0))
               : nullptr;

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
  NOC_EXPECTS(n <= DestMask::kBits);  // one awake bit per node
  const bool gated = cfg_.activity_gating;

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
//   A. compute  -- each worker runs its spans' wake-ups (last cycle's sends
//      and timed wakes) and NIC-inject / router / NIC-eject passes, which
//      read this cycle's arrivals straight from the stamped channel slots.
//      Every write lands in span-owned state; sends on cross-span channels
//      only stage.
//   B. commit   -- each owner replays the messages other spans staged into
//      its boundary channels, through the normal send path.
//   C. merge    (main thread) -- add the per-span energy shards and drain
//      the per-span metrics and trace-record buffers, span by span.
//
// With one span, A is the whole step: components record straight into the
// network-wide sinks and there is nothing to commit or merge. Bit-identity
// to one span holds because every within-cycle wake is intra-node, every
// cross-node interaction crosses a latency>=1 channel (written to a slot
// stamped with the next cycle, which reads empty until then), and
// everything C accumulates commutes (Metrics: integer counts, sums, maxima
// and histogram bins).

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

  // 0. Retire the count of last cycle's arrivals; their slots already read
  //    empty (a stale stamp), so nothing else has to touch the channels.
  sp.items[static_cast<size_t>((now + 1) & 1)] = 0;

  // 1. Wake-ups. A message arriving this cycle woke its receiver into the
  //    next-cycle masks when it was sent, so merging them here wakes every
  //    receiver before any component phase runs. Timed wake-ups re-arm
  //    sources that promised a future fire cycle (never armed when
  //    ungated).
  if (gated) {
    sp.router_awake |= sp.router_next;
    sp.inject_awake |= sp.inject_next;
    sp.eject_awake |= sp.eject_next;
    sp.router_next = sp.inject_next = sp.eject_next = DestMask{};
  }
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
  const auto commit = [now](const auto& list) {
    for (auto* ch : list) ch->commit_staged(now);
  };
  std::apply([&](const auto&... lists) { (commit(lists), ...); },
             spans_[static_cast<size_t>(s)].cross);
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
  for (const auto& sp : spans_) total += sp.items[0] + sp.items[1];
  return total;
}

int Network::channel_owner(int i) const {
  const auto nf = static_cast<int>(flit_channels_.size());
  const auto nc = static_cast<int>(credit_channels_.size());
  const int64_t* items =
      i < nf        ? flit_channels_[static_cast<size_t>(i)].counter()
      : i < nf + nc ? credit_channels_[static_cast<size_t>(i - nf)].counter()
                    : la_channels_[static_cast<size_t>(i - nf - nc)].counter();
  for (size_t s = 0; s < spans_.size(); ++s)
    if (items == spans_[s].items.data()) return static_cast<int>(s);
  return -1;
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
