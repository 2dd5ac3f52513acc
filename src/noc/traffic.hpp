#pragma once
// Traffic generation (paper Sec 2.2 / 4.1).
//
// The workload API is built around the abstract TrafficSource: one source
// per NIC, driven once per cycle for injection and notified of every flit
// drained at its node, so workloads can close the loop on deliveries (see
// docs/WORKLOADS.md for the full contract). Three families implement it:
//
//  - OpenLoopSource (this header): Bernoulli injection of the classic
//    synthetic patterns below.
//  - ClosedLoopSource (noc/workload.hpp): coherence-shaped miss/probe/
//    response traffic with a bounded MSHR-style outstanding window.
//  - TraceSource (noc/workload.hpp): replay of recorded (cycle, src,
//    dest_mask, flits, class) records.
//
// Open-loop patterns:
//  - UniformRequest : 1-flit requests to a uniform random other node.
//  - MixedPaper     : the paper's Fig 5 mix -- 50% broadcast requests,
//                     25% unicast requests, 25% unicast 5-flit responses.
//  - BroadcastOnly  : the paper's Fig 13 / Appendix D traffic.
//  - Transpose / BitComplement / Tornado / NearestNeighbor: classic
//    permutation patterns (extensions; used by the examples).
//
// `identical_prbs` reproduces the chip artifact of Sec 4.1: every NIC runs
// the same generator sequence, so injections and destination choices are
// synchronized across the whole chip and collide, which is what limited
// bypassing at low loads on silicon.

#include <optional>
#include <string_view>

#include "common/wake_hook.hpp"
#include "common/rng.hpp"
#include "noc/geometry.hpp"
#include "noc/packet.hpp"

namespace noc {

enum class TrafficPattern {
  UniformRequest,
  MixedPaper,
  BroadcastOnly,
  Transpose,
  BitComplement,
  Tornado,
  NearestNeighbor,
};

const char* traffic_pattern_name(TrafficPattern p);

/// Inverse of traffic_pattern_name. Also accepts the short aliases used on
/// bench/example command lines ("uniform", "mixed", "broadcast", ...).
std::optional<TrafficPattern> parse_traffic_pattern(std::string_view name);

/// Shared (seed, node) stream derivation: every TrafficSource family draws
/// its RNG stream through this, so per-node streams stay independent but
/// reproducible -- and equivalent across source families.
inline uint64_t node_rng_seed(uint64_t seed, NodeId node) {
  return seed ^ SplitMix64(static_cast<uint64_t>(node) + 1).next();
}

/// MixedPaper fractions (paper Fig 5): broadcast requests, unicast
/// requests and unicast 5-flit responses, summing to 1.
constexpr double kMixedBroadcastFrac = 0.50;
constexpr double kMixedUnicastRequestFrac = 0.25;
constexpr double kMixedUnicastResponseFrac = 0.25;

struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::MixedPaper;
  /// Offered load in *logical* flits per node per cycle (a broadcast packet
  /// counts its flits once regardless of NIC duplication).
  double offered_flits_per_node_cycle = 0.1;
  bool identical_prbs = false;
  uint64_t seed = 1;
};

/// Abstract per-node traffic source: the NIC's only view of the workload.
///
/// Contract (docs/WORKLOADS.md):
///  - Determinism: a source's behaviour is a pure function of
///    (config, seed, node) and the delivery events it observes, so
///    simulations are bit-identical at any ExperimentRunner thread count.
///  - Allocation: generate / on_delivery must not touch the heap once the
///    network is warmed up (pre-size state in the constructor; use the
///    inline containers in src/common/).
///  - generate() is called once per cycle before the routers tick and may
///    emit at most one logical packet.
///  - on_delivery() is called for every flit drained at this node's NIC
///    (including locally-delivered broadcast self-copies), after the flit
///    has been counted by Metrics.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Possibly emit one logical packet this cycle.
  virtual std::optional<Packet> generate(Cycle now) = 0;

  /// A flit addressed to this node was drained at the NIC.
  virtual void on_delivery(const Flit& flit, Cycle now) {
    (void)flit;
    (void)now;
  }

  /// Fault mode only (docs/FAULTS.md): the NIC refused `dropped` of this
  /// source's own packet `pkt`'s destinations at submission time -- they
  /// are unreachable on the surviving topology and were counted as drops
  /// by Metrics. Closed-loop sources use this to retire transactions whose
  /// probe can never arrive instead of waiting forever. Called after the
  /// drop has been counted; open-loop sources need no reaction.
  virtual void on_drop(const Packet& pkt, const DestMask& dropped, Cycle now) {
    (void)pkt;
    (void)dropped;
    (void)now;
  }

  /// Change the injection rate mid-run. Open loop: offered flits per node
  /// per cycle (0 stops injection; used to drain at the end of a run).
  /// Closed loop: per-cycle probability of starting a new transaction when
  /// the window has room (clamped to [0,1]). Trace sources ignore it.
  /// Non-virtual on purpose: it wakes any activity-gated NIC that parked on
  /// the old rate before deferring to do_set_rate.
  void set_rate(double rate) {
    do_set_rate(rate);
    wake_.fire();
  }

  /// Earliest cycle >= `from` at which generate() might emit a packet or
  /// consume RNG state, assuming generate() is then called every cycle from
  /// the returned value on. kCycleNever when the source cannot fire again
  /// without external input (rate 0, trace exhausted, closed-loop window
  /// full). Gating contract (docs/PERF.md): skipping generate() for every
  /// cycle below the returned value must leave the source bit-identical to
  /// having called it each cycle. The conservative default -- "may fire
  /// right away" -- keeps the NIC polling every cycle.
  virtual Cycle next_fire_cycle(Cycle from) const { return from; }

  /// Installed by the Network: lets mutating entry points (set_rate) wake
  /// the sleeping NIC that polls this source.
  void set_wake_hook(const WakeHook& h) { wake_ = h; }

  /// True when the source holds no pending obligations (outstanding
  /// transactions, scheduled responses, unreplayed records). Open-loop
  /// sources are always idle: a Bernoulli process is memoryless.
  virtual bool idle() const { return true; }

  /// Reset per-window measurement state (start of the metrics window).
  virtual void begin_window(Cycle now) { (void)now; }

  /// Close the measurement window: window_stats freeze until the next
  /// begin_window, mirroring Metrics' window scoping.
  virtual void end_window(Cycle now) { (void)now; }

  /// Transaction-level statistics accumulated since begin_window. Open-loop
  /// sources report zeros; closed-loop sources report completed misses and
  /// their latencies; trace sources report replayed records.
  struct WindowStats {
    int64_t transactions = 0;
    int64_t latency_sum = 0;  // cycles, like every latency below
    int64_t latency_max = 0;
    /// Per-leg breakdown (closed loop only, zeros elsewhere): the
    /// probe-to-owner leg is measured at the OWNER from the probe head's
    /// generation stamp, the data-return leg at the REQUESTER from the
    /// response's generation stamp at the owner to its tail delivery. The
    /// two legs plus the directory latency and the owner's response
    /// queueing compose the full transaction latency.
    int64_t probe_legs = 0;
    int64_t probe_latency_sum = 0;
    int64_t response_legs = 0;
    int64_t response_latency_sum = 0;
  };
  virtual WindowStats window_stats() const { return {}; }

 protected:
  virtual void do_set_rate(double rate) { (void)rate; }

 private:
  WakeHook wake_;
};

/// Open-loop synthetic traffic: a Bernoulli process over the patterns
/// above (broadcasts include the source, Table 1's k^2 R ejection load).
/// Deterministic given (config, node).
class OpenLoopSource final : public TrafficSource {
 public:
  OpenLoopSource(const MeshGeometry& geom, const TrafficConfig& cfg,
                 NodeId node);

  /// Possibly generate one logical packet this cycle. Packet ids are made
  /// globally unique from (node, local counter). `now` must be strictly
  /// increasing across calls; skipped cycles are allowed only below
  /// next_fire_cycle() (their bookkeeping is replayed bit-exactly, see the
  /// identical-PRBS accumulator).
  std::optional<Packet> generate(Cycle now) override;

  /// Bernoulli draws happen every cycle, so with a positive rate the source
  /// may fire immediately; the identical-PRBS accumulator is deterministic
  /// and the exact fire cycle is predicted by replaying its per-cycle
  /// additions.
  Cycle next_fire_cycle(Cycle from) const override;

  /// Average flits per logical packet for this pattern (converts offered
  /// flit rate to packet rate).
  double avg_flits_per_packet() const;

  const TrafficConfig& config() const { return cfg_; }

  /// Current injection rate (flits/node/cycle). Starts at the config's
  /// offered load; set_rate changes it without touching config(), so the
  /// config always reports what the experiment asked for.
  double rate() const { return rate_; }

 protected:
  /// The first change since the last generate() stashes the outgoing rate:
  /// cycles a gated NIC slept through were governed by it and replay at
  /// that rate, so the new rate takes effect at exactly the cycle it would
  /// ungated.
  void do_set_rate(double rate) override {
    if (replay_rate_ < 0.0) replay_rate_ = rate_;
    rate_ = rate;
  }

 private:
  NodeId pick_unicast_dest();

  const MeshGeometry& geom_;
  TrafficConfig cfg_;
  NodeId node_;
  double rate_;
  Xoshiro256 rng_;
  uint64_t next_local_id_ = 0;
  /// Identical-PRBS mode: deterministic rate accumulator so every NIC
  /// injects at exactly the same cycles (the on-chip generators were
  /// free-running identical LFSRs, not independent Bernoulli sources).
  double inject_credit_ = 0.0;
  /// Last cycle generate() ran; the gap to `now` is replayed one
  /// accumulator step at a time so a gated NIC that slept through
  /// guaranteed-silent cycles stays bit-identical to an ungated one.
  Cycle last_gen_cycle_ = -1;
  /// Rate in force before the first set_rate since the last generate()
  /// (the rate the slept-through cycles must replay at); < 0 = unchanged.
  double replay_rate_ = -1.0;
};

}  // namespace noc
