#pragma once
// Telemetry: config-gated observability for the NoC datapath
// (docs/OBSERVABILITY.md).
//
// Four probes, all preallocated at construction so telemetry-on keeps the
// steady-state zero-allocation invariant (tests/test_zero_alloc.cpp):
//
//  1. Stall attribution -- per-router counters splitting every
//     non-productive busy-VC cycle into the five disjoint classes below.
//     The router accumulates them from the masks mSA-I/mSA-II already
//     compute (router.cpp), and only ever over busy VCs, so the counts are
//     bit-identical across activity gating and parallel stepping by
//     construction.
//  2. Latency histograms live in Metrics (noc/metrics.hpp), not here: they
//     are fed where packets retire, on the shared Metrics only, and hold
//     integer counts, so serial and parallel stepping fill identical bins.
//  3. A cycle-sampled time series (sample_every) recording injected /
//     delivered flits, open packets, awake-router count, and the fault
//     epoch into a fixed-capacity ring. Sampled on the main thread at the
//     end of Network::step; recording stops when the ring is full.
//  4. A packet-lifecycle trace exporter emitting Chrome/Perfetto
//     trace_event JSON: one track per router, async slices for each
//     sampled packet's inject->eject life and per-router residency, VA/SA
//     grants as instants, fault kill/revive as global instants. Packet
//     tracing is serial-mode only (the event buffer is shared); stall
//     counters, histograms, and the time series stay parallel-safe.
//
// The subsystem is always compiled; a Network without
// TelemetryConfig::enabled never constructs it, and every hot-path hook
// sits behind a null-pointer test exactly like Router::attach_faults.

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "noc/fault.hpp"
#include "noc/flit.hpp"

namespace noc {

/// Why a busy VC failed to move a flit this cycle. The classes are
/// disjoint by code path (docs/OBSERVABILITY.md "Stall taxonomy"):
/// exactly one is charged per (busy VC, cycle) that ends non-productive,
/// plus LostSa for each mSA-II requester that lost its output port.
enum class StallClass : uint8_t {
  BufferEmpty = 0,  // VC held by a packet, next needed flit not yet buffered
  NoFreeVc = 1,     // flit ready, branch needs a downstream VC, none free
  NoCredit = 2,     // flit ready, VC allocated, zero downstream credits
  LostSa = 3,       // eligible but lost switch allocation (mSA-I or mSA-II)
  LostVa = 4,       // won mSA-I but VC allocation left the flit stranded
};
constexpr int kNumStallClasses = 5;

const char* stall_class_name(StallClass c);

/// Time-series ring capacity; sampling stops (silently) when full.
constexpr int kMaxTelemetrySamples = 1 << 14;
/// Trace event buffer capacity; tracing stops when full, keeping saturated
/// runs bounded.
constexpr int kMaxTraceEvents = 1 << 16;

/// Knobs (NetworkConfig::telemetry). Default-constructed = fully off.
struct TelemetryConfig {
  /// Master gate: off = Network never constructs a Telemetry instance and
  /// the hot path pays one untaken null test per hook.
  bool enabled = false;
  /// Time-series sampling period in cycles; 0 = no time series.
  Cycle sample_every = 0;
  /// Packet-lifecycle trace: sample packets with logical_id % this == 0;
  /// 0 = no packet trace, 1 = every packet. Serial stepping only.
  uint64_t trace_sample_every = 0;
};

/// One time-series sample (cumulative counters, not per-interval deltas:
/// plots diff adjacent rows, which keeps the probe a pure read).
struct TimeSample {
  Cycle cycle = 0;
  int64_t injected_flits = 0;   // NIC->router link traversals to date
  int64_t delivered_flits = 0;  // flits ejected at NICs to date
  int64_t open_packets = 0;     // logical packets in flight
  int awake_routers = 0;        // scheduling observable; differs by mode
  uint64_t fault_epoch = 0;     // FaultState::epoch() at the sample
};

/// Trace event kinds; the Perfetto writer maps them to trace_event
/// phases ("b"/"e" async, "i" instant).
enum class TraceEventType : uint8_t {
  PacketBegin,  // async begin, cat "pkt", id = logical packet
  PacketEnd,    // async end, cat "pkt"
  HopBegin,     // async begin, cat "hop", id = (logical, router)
  HopEnd,       // async end, cat "hop"
  VaGrant,      // instant on the router track
  SaGrant,      // instant on the router track
  Eject,        // instant on the ejecting NIC's router track
  Fault,        // global instant; aux = FaultKind, a/b = endpoints
};

struct TraceEvent {
  Cycle ts = 0;
  PacketId id = 0;  // logical packet id; 0 for Fault events
  int32_t node = 0; // track (tid); packet-level events use the source node
  TraceEventType type = TraceEventType::PacketBegin;
  uint8_t aux = 0;  // FaultKind for Fault, PacketKind for PacketBegin
  int16_t a = -1;   // fault endpoints
  int16_t b = -1;
};

/// Fault-schedule marker mirrored into both the time series JSON and the
/// Perfetto trace.
struct FaultMarker {
  Cycle cycle = 0;
  FaultKind kind = FaultKind::LinkDown;
  NodeId a = 0;
  NodeId b = 0;
};

class Telemetry {
 public:
  Telemetry(int num_nodes, const TelemetryConfig& cfg);

  const TelemetryConfig& config() const { return cfg_; }
  int num_nodes() const { return num_nodes_; }

  // --- Stall attribution (router hot path) -------------------------------
  // One row per router, padded to a cache line: in parallel stepping each
  // router is ticked by exactly one worker, so plain adds are race-free
  // and padding keeps neighbouring routers off each other's line.

  void add_stall(NodeId node, StallClass c, int64_t k = 1) {
    rows_[static_cast<size_t>(node)]
        .counts[static_cast<size_t>(c)] += k;
  }
  int64_t stalls(NodeId node, StallClass c) const {
    return rows_[static_cast<size_t>(node)]
        .counts[static_cast<size_t>(c)];
  }
  int64_t total_stalls(StallClass c) const;
  /// Clear the stall counters (measurement-window boundary).
  void reset_stalls();

  // --- Time series (main thread, end of Network::step) -------------------

  bool want_sample(Cycle now) const {
    return cfg_.sample_every > 0 && now % cfg_.sample_every == 0 &&
           samples_.size() < samples_.capacity();
  }
  void push_sample(const TimeSample& s) {
    if (samples_.size() < samples_.capacity()) samples_.push_back(s);
  }
  const std::vector<TimeSample>& samples() const { return samples_; }

  // --- Fault markers -----------------------------------------------------

  void record_fault(Cycle now, FaultKind kind, NodeId a, NodeId b);
  const std::vector<FaultMarker>& fault_markers() const { return markers_; }

  // --- Packet-lifecycle trace --------------------------------------------

  /// Permanently disable packet tracing (Network calls this when stepping
  /// in parallel: the event buffer is shared across span workers).
  void disable_tracing() { trace_on_ = false; }

  /// Is this logical packet sampled for tracing? Hot-path guard: callers
  /// test the Telemetry pointer first, then this.
  bool tracing(PacketId logical) const {
    return trace_on_ && logical % cfg_.trace_sample_every == 0 &&
           events_.size() < events_.capacity();
  }
  void trace(TraceEventType type, Cycle ts, PacketId id, int node,
             uint8_t aux = 0) {
    if (events_.size() < events_.capacity())
      events_.push_back(TraceEvent{ts, id, node, type, aux, -1, -1});
  }
  const std::vector<TraceEvent>& trace_events() const { return events_; }

  // --- Exporters (cold path; allocate freely) ----------------------------

  /// Chrome/Perfetto trace_event JSON: thread-name metadata per router,
  /// async pkt/hop slices, instants, fault markers. Both JSON exporters go
  /// through common/json.hpp and return false when the file cannot be
  /// written.
  bool write_perfetto_json(const std::string& path) const;
  /// Time series as {"samples": [...], "faults": [...]}: one object per
  /// sample and per fault marker.
  bool write_timeseries_json(const std::string& path) const;
  /// Per-router stall mix as CSV: node,x,y,<five classes> -- the
  /// tools/plot_telemetry.py heatmap input. Mesh coordinates derive from
  /// the given radix (row-major node ids, matching MeshGeometry).
  bool write_stalls_csv(const std::string& path, int kx) const;

 private:
  struct alignas(64) StallRow {
    int64_t counts[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };

  TelemetryConfig cfg_;
  int num_nodes_;
  bool trace_on_;
  std::vector<StallRow> rows_;
  std::vector<TimeSample> samples_;
  std::vector<TraceEvent> events_;
  std::vector<FaultMarker> markers_;
};

}  // namespace noc
