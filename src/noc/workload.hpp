#pragma once
// First-class workloads behind the TrafficSource interface (the traffic the
// paper's router exists to serve, Sec 3: snoopy-coherence request/response):
//
//  - ClosedLoopSource: coherence-shaped miss/probe/response traffic with a
//    bounded outstanding-request window (MSHR-style). Each node issues a
//    broadcast probe when its window has room; the deterministic "owner" of
//    the probed line answers with a multi-flit data response after a fixed
//    directory latency; the requester retires the miss when the response
//    tail arrives. Load is controlled by the window size and issue
//    probability instead of an offered rate -- the network's sustained
//    throughput at a given window is the measurement.
//
//  - TraceSource: replays (cycle, src, dest_mask, flits, class) records
//    from an in-memory or on-disk trace; Network::record_trace captures
//    such traces from any running workload.
//
// Both preserve the two PR-1 invariants: behaviour is a deterministic
// function of (config, seed, node) plus observed deliveries -- coordination
// happens only through delivered flits and pure functions of their fields,
// never through shared state -- and steady-state stepping performs no heap
// allocations (all source state is pre-sized at construction).

#include <memory>
#include <string>
#include <vector>

#include "common/inline_vec.hpp"
#include "common/stats.hpp"
#include "common/vec_deque.hpp"
#include "noc/traffic.hpp"

namespace noc {

enum class WorkloadKind { OpenLoop, ClosedLoop, Trace };
const char* workload_kind_name(WorkloadKind k);

/// Hard cap on the per-node outstanding-request window (real MSHR files are
/// 4-32 entries; 64 bounds the inline storage).
constexpr int kMaxMshrWindow = 64;

struct ClosedLoopConfig {
  /// Max outstanding misses per node (MSHR entries). In [1, kMaxMshrWindow].
  int window = 4;
  /// Per-cycle probability of issuing a new miss when the window has room.
  /// 1.0 = saturating closed loop (the throughput-at-window measurement);
  /// lower values model compute phases between misses.
  double issue_prob = 1.0;
  /// Cycles between a probe's delivery at the owner and the data response
  /// entering the owner's NIC (tag directory / L2 lookup).
  Cycle directory_latency = 2;
  /// Cycles a node must wait after retiring a miss before issuing the next.
  Cycle think_time = 0;

  /// nullptr when every knob is in contract, else a printable description
  /// of the violated bound. CLI layers reject with the message;
  /// ClosedLoopSource asserts on it.
  const char* validate() const;
};

/// One replayable injection: at `cycle`, node `src` offered a packet.
struct TraceRecord {
  Cycle cycle = 0;
  NodeId src = 0;
  DestMask dest_mask;
  int length = 1;
  MsgClass mc = MsgClass::Request;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// An in-memory trace: records ordered by cycle (ties in capture order).
/// kx/ky is the mesh the trace was captured on (0 = unknown, a legacy v1
/// file); Network::record_trace stamps it, and replay layers check it with
/// trace_geometry_error before building a network, so a trace from the
/// wrong mesh fails with a message instead of a deep assert (or, worse, a
/// partial replay).
struct Trace {
  int kx = 0;
  int ky = 0;
  std::vector<TraceRecord> records;
};

/// Plain-text trace file I/O. Files with known geometry carry a
/// "# noc-trace v2 geometry KXxKY" header; geometry-less traces write (and
/// v1 files load under) the legacy "# noc-trace v1" header. One record per
/// line: cycle src dest_mask(hex) length class. save returns false on I/O
/// failure; load returns nullptr and, when `error` is non-null, a
/// path:line diagnostic on I/O or parse failure.
bool save_trace(const std::string& path, const Trace& trace);
std::shared_ptr<Trace> load_trace(const std::string& path,
                                  std::string* error = nullptr);

/// Empty when `trace` fits a kx x ky mesh (unknown geometry passes -- v1
/// files keep working and TraceSource still bound-checks every record);
/// else a printable mismatch description.
std::string trace_geometry_error(const Trace& trace, int kx, int ky);

struct TraceConfig {
  /// The replayed trace, shared read-only across sweep threads (load a
  /// file with load_trace).
  std::shared_ptr<const Trace> trace;
};

/// Which workload family a Network's sources come from, plus its knobs.
/// OpenLoop reads the existing NetworkConfig::traffic (pattern, offered
/// load, seeds) so all pre-existing configs behave unchanged.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::OpenLoop;
  ClosedLoopConfig closed;
  TraceConfig trace;
};

/// Factory: build node `node`'s source for the given workload. Seeding
/// derives from (traffic.seed, node) for every family. WorkloadKind::Trace
/// requires spec.trace.trace.
std::unique_ptr<TrafficSource> make_traffic_source(
    const MeshGeometry& geom, const TrafficConfig& traffic,
    const WorkloadSpec& spec, NodeId node);

/// Coherence-shaped closed loop (see file header). All cross-node
/// coordination is a pure function of delivered flit fields: the owner of a
/// probe is hash(tag, requester), computable identically at every node.
class ClosedLoopSource final : public TrafficSource {
 public:
  ClosedLoopSource(const MeshGeometry& geom, const TrafficConfig& traffic,
                   const ClosedLoopConfig& cfg, NodeId node);

  std::optional<Packet> generate(Cycle now) override;
  void on_delivery(const Flit& flit, Cycle now) override;
  void on_drop(const Packet& pkt, const DestMask& dropped, Cycle now) override;
  Cycle next_fire_cycle(Cycle from) const override;
  bool idle() const override {
    return outstanding_.empty() && pending_.empty();
  }
  void begin_window(Cycle now) override;
  void end_window(Cycle now) override;
  WindowStats window_stats() const override;

  const ClosedLoopConfig& config() const { return cfg_; }
  int outstanding() const { return outstanding_.size(); }
  /// Lifetime counters (not window-scoped; conservation checks).
  int64_t issued_probes() const { return issued_; }
  int64_t completed_transactions() const { return completed_; }

  /// Deterministic owner of the line probed by (tag, requester): uniform
  /// over all nodes except the requester.
  NodeId owner_of(uint64_t tag, NodeId requester) const;

 protected:
  void do_set_rate(double rate) override;

 private:
  struct OutstandingMiss {
    uint64_t tag = 0;
    Cycle issued = 0;
  };
  struct PendingResponse {
    Cycle due = 0;
    uint64_t tag = 0;
    NodeId requester = 0;
  };

  const MeshGeometry& geom_;
  ClosedLoopConfig cfg_;
  NodeId node_;
  uint64_t seed_;  // node-independent: all nodes must agree on owner_of
  double issue_prob_;
  Xoshiro256 rng_;
  uint64_t next_local_id_ = 0;
  Cycle next_miss_eligible_ = 0;
  InlineVec<OutstandingMiss, kMaxMshrWindow> outstanding_;
  /// Responses this node owes, in due order (deliveries arrive in
  /// nondecreasing `now`, so appends keep the deque sorted). At most
  /// min(n * window, directory_latency + 1) wait at once (the argument is
  /// in the constructor), and the ring is pre-sized to that bound.
  VecDeque<PendingResponse> pending_;
  int64_t issued_ = 0;
  int64_t completed_ = 0;
  bool in_window_ = false;
  IntStat window_latency_;
  /// Leg breakdown feeding WindowStats (see TrafficSource::WindowStats):
  /// probe-to-owner measured here when this node owns the probed line,
  /// data-return measured here when a response retires one of our misses.
  IntStat window_probe_leg_;
  IntStat window_response_leg_;
};

/// Trace replay: injects this node's records in order, one per cycle at the
/// earliest cycle >= the recorded one (NIC queues absorb any backlog).
class TraceSource final : public TrafficSource {
 public:
  TraceSource(const MeshGeometry& geom, const Trace& trace, NodeId node);

  std::optional<Packet> generate(Cycle now) override;
  Cycle next_fire_cycle(Cycle from) const override;
  bool idle() const override { return next_ >= mine_.size(); }
  void begin_window(Cycle now) override;
  void end_window(Cycle now) override;
  WindowStats window_stats() const override;

  size_t records_total() const { return mine_.size(); }
  size_t records_replayed() const { return next_; }

 private:
  NodeId node_;
  std::vector<TraceRecord> mine_;  // this node's records, time-ordered
  size_t next_ = 0;
  uint64_t next_local_id_ = 0;
  bool in_window_ = false;
  int64_t window_injected_ = 0;
};

}  // namespace noc
