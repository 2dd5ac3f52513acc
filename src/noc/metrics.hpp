#pragma once
// Network-level measurement: packet latency (to the LAST destination for
// multicasts, per the paper's "complete action" definition), received
// throughput, and per-link channel loads.
//
// Latency is measured from packet *generation* (so source queueing counts,
// which the paper's saturation definition -- latency reaching 3x the no-load
// latency -- requires), to the cycle the tail flit is drained at the last
// destination NIC.

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/flat_map.hpp"
#include "noc/flit.hpp"
#include "noc/geometry.hpp"
#include "noc/routing.hpp"

namespace noc {

class Telemetry;

/// Fixed-bin latency histogram (docs/OBSERVABILITY.md): one bin per cycle
/// of latency, pow-2 bin count, held inline so recording is a single
/// array increment with no heap traffic. Packet latencies are integer
/// cycle counts, so percentiles below kBins are *exact*; samples at or
/// above kBins land in an overflow count (min/max/sum still tracked
/// exactly) and percentile() falls back to the observed max when the
/// requested rank lies in the overflow region. Every field is an integer,
/// so the histogram is the same whatever order its samples arrive in.
class LatencyHistogram {
 public:
  static constexpr int kBins = 1 << 12;

  void add(Cycle lat) {
    ++count_;
    sum_ += lat;
    if (lat < min_) min_ = lat;
    if (lat > max_) max_ = lat;
    if (lat >= 0 && lat < kBins)
      ++bins_[static_cast<size_t>(lat)];
    else
      ++overflow_;
  }
  void reset() {
    bins_.fill(0);
    count_ = overflow_ = sum_ = 0;
    min_ = std::numeric_limits<Cycle>::max();
    max_ = 0;
  }

  int64_t count() const { return count_; }
  int64_t overflow() const { return overflow_; }
  int64_t sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }
  Cycle min() const { return count_ > 0 ? min_ : 0; }
  Cycle max() const { return count_ > 0 ? max_ : 0; }
  /// Smallest latency L such that at least ceil(q * count) samples are
  /// <= L. Exact for samples below kBins; 0 when empty.
  Cycle percentile(double q) const;

 private:
  std::array<int64_t, kBins> bins_{};
  int64_t count_ = 0;
  int64_t overflow_ = 0;
  int64_t sum_ = 0;
  Cycle min_ = std::numeric_limits<Cycle>::max();
  Cycle max_ = 0;
};

/// Classification used for per-traffic-type statistics.
enum class PacketKind { UnicastRequest, UnicastResponse, Broadcast };
constexpr int kNumPacketKinds = 3;

/// One deferred packet-lifecycle event recorded by a per-span Metrics shard
/// during parallel stepping and applied to the shared Metrics after the
/// cycle's barrier (docs/PERF.md Layer 4).
struct CapturedMetricsEvent {
  enum class Kind : uint8_t { LogicalPacket, FlitReceived, PacketDropped };
  Kind kind;
  bool tail = false;                             // FlitReceived
  PacketKind pkind = PacketKind::UnicastRequest; // LogicalPacket
  int deliveries = 0;  // LogicalPacket: required; PacketDropped: lost
  PacketId id = 0;
  Cycle cycle = 0;  // generation (LogicalPacket) or receive/drop cycle
};

class Metrics {
 public:
  explicit Metrics(const MeshGeometry& geom);

  // ---- recording interface (called by NICs / routers) ----

  /// A logical packet came into existence. `deliveries` is the number of
  /// tail-flit deliveries required for completion (dest count; for a
  /// NIC-duplicated broadcast the copies share the logical id so the latency
  /// spans all of them).
  void on_logical_packet(PacketId logical_id, PacketKind kind, Cycle gen,
                         int deliveries);

  /// A flit was drained at a destination NIC.
  void on_flit_received(PacketId logical_id, const Flit& f, Cycle now);

  /// `count` of a logical packet's required deliveries will never happen
  /// (docs/FAULTS.md): destinations unreachable on the surviving topology,
  /// counted by the NIC at submission or by a router retiring a fault-mode
  /// drop branch. A packet with any dropped delivery counts toward
  /// dropped_packets (never completed_packets) once nothing remains open,
  /// keeping generated == completed + dropped conservation exact.
  void on_packet_dropped(PacketId logical_id, int count, Cycle now);

  /// A flit crossed the link leaving `node` through `port` (Local = ejection
  /// link toward the NIC). Injection links are recorded via
  /// on_injection_link.
  void on_link_flit(NodeId node, PortDir port);
  void on_injection_link(NodeId node);

  // ---- capture shards (parallel stepping, docs/PERF.md Layer 4) ----
  //
  // A shard is a Metrics instance owned by one span worker with set_shared()
  // installed. Its per-node link counters forward straight to the shared
  // instance (disjoint nodes -> disjoint memory, race-free), while the
  // packet-lifecycle events (churn in the shared open-packet map) are
  // buffered in emission order and applied by the main thread via apply()
  // after the barrier. Everything they feed is an integer count, sum,
  // maximum or histogram bin, so the drain order does not matter beyond
  // creating a packet before its deliveries.

  /// Turn this instance into a capture shard of `shared` (nullptr reverts).
  void set_shared(Metrics* shared) { shared_ = shared; }

  /// Pre-size the capture buffer (zero-alloc invariant: sized at partition
  /// time for the per-cycle worst case, not grown under load).
  void reserve_capture(size_t events) { captured_.reserve(events); }

  const std::vector<CapturedMetricsEvent>& captured() const {
    return captured_;
  }
  void clear_captured() { captured_.clear(); }

  /// Apply one captured event to this (shared) instance.
  void apply(const CapturedMetricsEvent& e);

  // ---- measurement window ----

  void begin_window(Cycle now);
  void end_window(Cycle now);
  Cycle window_cycles() const;

  // ---- results ----

  /// Average latency over packets *completed* inside the window.
  double avg_packet_latency() const { return hist_all_.mean(); }

  /// Exact window latency histograms (docs/OBSERVABILITY.md), also the
  /// latency count/sum/max. Always on: recording is one inline-array
  /// increment per completed packet, and it happens where packets retire
  /// -- on the shared instance only -- so serial and parallel stepping fill
  /// identical bins.
  const LatencyHistogram& latency_hist() const { return hist_all_; }
  const LatencyHistogram& latency_hist(PacketKind k) const {
    return hist_by_kind_[static_cast<int>(k)];
  }

  /// Aggregate received flits per cycle inside the window.
  double received_flits_per_cycle() const;
  int64_t received_flits() const { return window_flits_received_; }
  int64_t completed_packets() const { return window_packets_completed_; }
  /// Packets retired inside the window with at least one dropped delivery
  /// (fault mode only; always 0 on a pristine mesh).
  int64_t dropped_packets() const { return window_packets_dropped_; }

  /// Flits per cycle on the busiest bisection link (the k vertical cut E/W
  /// channels in each direction), Table 1's L_bisection.
  double max_bisection_link_load() const;
  /// Flits per cycle on the busiest ejection (router->NIC) link, L_ejection.
  double max_ejection_link_load() const;

  /// Number of logical packets generated but not yet fully delivered.
  int64_t open_packets() const { return static_cast<int64_t>(open_.size()); }
  int64_t total_generated() const { return total_generated_; }
  int64_t total_completed() const { return total_completed_; }
  /// Lifetime dropped-packet count (conservation checks:
  /// total_generated == total_completed + total_dropped once quiescent).
  int64_t total_dropped() const { return total_dropped_; }
  /// Lifetime flits drained at destination NICs (not window-scoped) -- the
  /// telemetry time-series "delivered" counter.
  int64_t lifetime_flits_received() const { return lifetime_flits_received_; }

  /// Window flit count on the link leaving `node` through `port` (the
  /// telemetry per-link load heatmap input).
  int64_t link_flits(NodeId node, PortDir port) const {
    return link_flits_[static_cast<size_t>(node)]
                      [static_cast<size_t>(port_index(port))];
  }

  /// Attach the telemetry sink for packet-lifecycle trace events (shared
  /// instance only; shards never retire packets). Null detaches.
  void set_telemetry(Telemetry* t) { telemetry_ = t; }

 private:
  struct OpenPacket {
    Cycle gen = 0;
    int remaining = 0;
    int dropped = 0;  // deliveries lost to faults (docs/FAULTS.md)
    PacketKind kind = PacketKind::UnicastRequest;
  };

  void apply_flit_received(PacketId logical_id, bool tail, Cycle now);
  void apply_packet_dropped(PacketId logical_id, int count);
  void retire_if_closed(PacketId logical_id, OpenPacket* op, Cycle now);

  const MeshGeometry& geom_;
  Metrics* shared_ = nullptr;  // non-null: this instance is a capture shard
  std::vector<CapturedMetricsEvent> captured_;
  /// Flat open-addressing map: insert/erase churn is allocation-free once
  /// the pre-reserved capacity covers the in-flight packet high-water mark.
  U64FlatMap<OpenPacket> open_{4096};

  bool in_window_ = false;
  Cycle window_start_ = 0;
  Cycle window_end_ = 0;

  LatencyHistogram hist_all_;
  LatencyHistogram hist_by_kind_[kNumPacketKinds];
  Telemetry* telemetry_ = nullptr;
  int64_t lifetime_flits_received_ = 0;
  int64_t window_flits_received_ = 0;
  int64_t window_packets_completed_ = 0;
  int64_t window_packets_dropped_ = 0;
  int64_t total_generated_ = 0;
  int64_t total_completed_ = 0;
  int64_t total_dropped_ = 0;

  // link flit counters, window-scoped: [node][port]
  std::vector<std::array<int64_t, kNumPorts>> link_flits_;
  std::vector<int64_t> injection_flits_;
};

}  // namespace noc
