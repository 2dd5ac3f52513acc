#include "noc/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "noc/telemetry.hpp"

namespace noc {

Metrics::Metrics(const MeshGeometry& geom)
    : geom_(geom),
      link_flits_(static_cast<size_t>(geom.num_nodes())),
      injection_flits_(static_cast<size_t>(geom.num_nodes()), 0) {
  for (auto& arr : link_flits_) arr.fill(0);
}

void Metrics::on_logical_packet(PacketId logical_id, PacketKind kind,
                                Cycle gen, int deliveries) {
  NOC_EXPECTS(deliveries > 0);
  if (shared_ != nullptr) {
    // Capture shard: the open-packet map is shared across nodes; buffer
    // the event for the main thread's drain after the span barrier.
    captured_.push_back(
        {.kind = CapturedMetricsEvent::Kind::LogicalPacket,
         .pkind = kind,
         .deliveries = deliveries,
         .id = logical_id,
         .cycle = gen});
    return;
  }
  auto [slot, inserted] = open_.find_or_insert(logical_id);
  if (inserted) {
    slot->gen = gen;
    slot->kind = kind;
    slot->remaining = deliveries;
    ++total_generated_;
  } else {
    // NIC-duplicated broadcast: copies accumulate onto one logical record.
    slot->remaining += deliveries;
  }
}

void Metrics::on_flit_received(PacketId logical_id, const Flit& f, Cycle now) {
  if (shared_ != nullptr) {
    captured_.push_back(
        {.kind = CapturedMetricsEvent::Kind::FlitReceived,
         .tail = is_tail(f.type),
         .id = logical_id,
         .cycle = now});
    return;
  }
  apply_flit_received(logical_id, is_tail(f.type), now);
}

void Metrics::apply_flit_received(PacketId logical_id, bool tail, Cycle now) {
  ++lifetime_flits_received_;
  if (in_window_) ++window_flits_received_;
  if (!tail) return;
  OpenPacket* op = open_.find(logical_id);
  NOC_ASSERT(op != nullptr);
  NOC_ASSERT(op->remaining > 0);
  --op->remaining;
  retire_if_closed(logical_id, op, now);
}

void Metrics::on_packet_dropped(PacketId logical_id, int count, Cycle now) {
  NOC_EXPECTS(count > 0);
  if (shared_ != nullptr) {
    captured_.push_back(
        {.kind = CapturedMetricsEvent::Kind::PacketDropped,
         .deliveries = count,
         .id = logical_id,
         .cycle = now});
    return;
  }
  apply_packet_dropped(logical_id, count);
}

void Metrics::apply_packet_dropped(PacketId logical_id, int count) {
  OpenPacket* op = open_.find(logical_id);
  NOC_ASSERT(op != nullptr);
  NOC_ASSERT(op->remaining >= count);
  op->remaining -= count;
  op->dropped += count;
  retire_if_closed(logical_id, op, /*now=*/0);
}

void Metrics::retire_if_closed(PacketId logical_id, OpenPacket* op,
                               Cycle now) {
  if (op->remaining != 0) return;
  if (op->dropped > 0) {
    // Any lost delivery disqualifies the packet from the latency sample
    // (its "complete action" never happens); it is conserved as a drop.
    ++total_dropped_;
    if (in_window_) ++window_packets_dropped_;
  } else {
    ++total_completed_;
    if (in_window_) {
      const Cycle lat = now - op->gen;
      hist_all_.add(lat);
      hist_by_kind_[static_cast<int>(op->kind)].add(lat);
      ++window_packets_completed_;
    }
    if (telemetry_ != nullptr && telemetry_->tracing(logical_id))
      telemetry_->trace(TraceEventType::PacketEnd, now, logical_id, 0);
  }
  open_.erase(logical_id);
}

void Metrics::on_link_flit(NodeId node, PortDir port) {
  // Shards forward per-node counters straight to the shared instance: each
  // node is ticked by exactly one worker per cycle, so concurrent writers
  // always hit disjoint counters. in_window_ is only flipped between steps.
  if (shared_ != nullptr) {
    shared_->on_link_flit(node, port);
    return;
  }
  if (!in_window_) return;
  ++link_flits_[static_cast<size_t>(node)][static_cast<size_t>(port_index(port))];
}

void Metrics::on_injection_link(NodeId node) {
  if (shared_ != nullptr) {
    shared_->on_injection_link(node);
    return;
  }
  if (!in_window_) return;
  ++injection_flits_[static_cast<size_t>(node)];
}

void Metrics::apply(const CapturedMetricsEvent& e) {
  NOC_EXPECTS(shared_ == nullptr);  // replay targets the shared instance
  if (e.kind == CapturedMetricsEvent::Kind::LogicalPacket)
    on_logical_packet(e.id, e.pkind, e.cycle, e.deliveries);
  else if (e.kind == CapturedMetricsEvent::Kind::PacketDropped)
    apply_packet_dropped(e.id, e.deliveries);
  else
    apply_flit_received(e.id, e.tail, e.cycle);
}

void Metrics::begin_window(Cycle now) {
  in_window_ = true;
  window_start_ = now;
  window_end_ = now;
  hist_all_.reset();
  for (auto& h : hist_by_kind_) h.reset();
  window_flits_received_ = 0;
  window_packets_completed_ = 0;
  window_packets_dropped_ = 0;
  for (auto& arr : link_flits_) arr.fill(0);
  std::fill(injection_flits_.begin(), injection_flits_.end(), 0);
}

void Metrics::end_window(Cycle now) {
  in_window_ = false;
  window_end_ = now;
}

Cycle Metrics::window_cycles() const { return window_end_ - window_start_; }

Cycle LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  auto rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<int64_t>(rank, 1, count_);
  // Overflow samples are all >= kBins, i.e. above every binned sample: a
  // rank beyond the binned population resolves to the tracked max.
  if (rank > count_ - overflow_) return max_;
  int64_t cum = 0;
  for (int b = 0; b < kBins; ++b) {
    cum += bins_[static_cast<size_t>(b)];
    if (cum >= rank) return b;
  }
  return max_;
}

double Metrics::received_flits_per_cycle() const {
  const Cycle w = window_cycles();
  return w > 0 ? static_cast<double>(window_flits_received_) /
                     static_cast<double>(w)
               : 0.0;
}

double Metrics::max_bisection_link_load() const {
  const Cycle w = window_cycles();
  if (w <= 0) return 0.0;
  // The vertical cut between columns kx/2-1 and kx/2 crosses one E/W link
  // pair per row; rectangular meshes (kx != ky) cut ky rows.
  const int xw = geom_.kx() / 2 - 1;  // west column of the bisection cut
  int64_t worst = 0;
  for (int y = 0; y < geom_.ky(); ++y) {
    const NodeId west = geom_.id(xw, y), east = geom_.id(xw + 1, y);
    worst = std::max(
        worst, link_flits_[static_cast<size_t>(west)][port_index(PortDir::East)]);
    worst = std::max(
        worst, link_flits_[static_cast<size_t>(east)][port_index(PortDir::West)]);
  }
  return static_cast<double>(worst) / static_cast<double>(w);
}

double Metrics::max_ejection_link_load() const {
  const Cycle w = window_cycles();
  if (w <= 0) return 0.0;
  int64_t worst = 0;
  for (const auto& arr : link_flits_)
    worst = std::max(worst, arr[port_index(PortDir::Local)]);
  return static_cast<double>(worst) / static_cast<double>(w);
}

}  // namespace noc
