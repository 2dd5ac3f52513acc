#pragma once
// Point-to-point synchronous channels (pipelined wires).
//
// A Channel<T> models a set of wires with a fixed latency in cycles, like
// the pipeline register at the end of a chip link: a message sent during
// tick t is latched at the receiver at t + latency. Latency 0 is allowed for
// the NIC->router lookahead shortcut (the NIC is physically adjacent to its
// router and its injection request feeds mSA-II combinationally);
// correctness then relies on the global phase order executing the sender
// before the receiver in the same tick.
//
// Storage is one slot per in-flight arrival cycle, stamped with that cycle.
// send() writes the slot of now + latency, clearing it first when it still
// holds an older stamp; arrivals(now) returns the slot only while its stamp
// equals now. A stale slot reads empty, so nothing has to visit a channel
// between its sends: there is no per-cycle channel step. The slots and
// their messages live inline in the Channel, sized at compile time: at
// most kPerCycle messages arrive per cycle (one flit or lookahead per link,
// a credit per VC; one more asserts), and the latency is at most
// kMaxLatency (1 on the mesh), so sends never allocate (docs/PERF.md).
//
// The receiver is woken at send time: the hook names the arrival cycle, and
// the Network points latency-1 hooks at next-cycle wake masks and
// latency-0 hooks at this cycle's (docs/PERF.md Layer 3). An optional
// counter pair, indexed by arrival-cycle parity, counts messages in flight
// for the Network's O(1) quiescence check; the Network retires a parity's
// count when its arrivals have been read.

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/inline_vec.hpp"
#include "common/wake_hook.hpp"
#include "sim/tickable.hpp"

namespace noc {

template <typename T, int kPerCycle, int kMaxLatency = 1>
class Channel {
 public:
  explicit Channel(int latency = 1)
      : latency_(latency),
        mask_(static_cast<int>(
            std::bit_ceil(static_cast<unsigned>(latency + 1)) - 1)) {
    NOC_EXPECTS(latency >= 0 && latency <= kMaxLatency);
    stamps_.fill(-1);
  }

  /// Wake target fired at every send with the message's arrival cycle.
  void set_wake_target(const WakeHook& wake) { wake_ = wake; }

  /// In-flight counter pair: each send adds one to items[arrival & 1].
  /// Parity indexing needs latency <= 1.
  void set_counter(int64_t* items) {
    NOC_EXPECTS(items == nullptr || latency_ <= 1);
    items_ = items;
  }
  const int64_t* counter() const { return items_; }

  /// Cross-span boundary mode (docs/PERF.md Layer 4). A deferred channel's
  /// send() only appends to a private staging buffer -- it touches none of
  /// the slots, counters or wake state, so the sender's worker may run
  /// concurrently with the receiver's. The receiver-side worker replays the
  /// staged messages through the normal send path with commit_staged()
  /// after the compute-phase barrier of the SAME cycle, preserving the
  /// exact arrival cycle (now + latency) and send order. Latency-0 channels
  /// cannot be deferred: their wake must fire inside the sender's phase.
  void set_deferred(bool on) {
    NOC_EXPECTS(!on || latency_ >= 1);
    deferred_ = on;
    // Zero-alloc invariant: pre-size the staging buffer for the per-cycle
    // worst case (one flit, a credit per VC, one lookahead) at partition
    // time rather than growing it under load.
    if (on) staging_.reserve(16);
  }

  /// Send a message during tick `now`; it arrives at `now + latency`.
  /// By const reference: messages here are trivially copyable and copied
  /// into the slot exactly once.
  void send(Cycle now, const T& msg) {
    if (deferred_) {
      staging_.push_back(msg);
      return;
    }
    send_direct(now, msg);
  }

  /// Replay messages staged by a cross-span sender during tick `now`. Must
  /// run on the owning (receiver-side) worker, after the sender's phase.
  void commit_staged(Cycle now) {
    for (const auto& msg : staging_) send_direct(now, msg);
    staging_.clear();
  }

  /// Messages arriving at tick `now`, in send order (a borrowed view, valid
  /// through tick `now`).
  std::span<const T> arrivals(Cycle now) const {
    const size_t i = slot_index(now);
    if (stamps_[i] != now) return {};
    return {slots_[i].begin(), slots_[i].end()};
  }

 private:
  static constexpr size_t kRing =
      std::bit_ceil(static_cast<unsigned>(kMaxLatency) + 1);

  size_t slot_index(Cycle c) const { return static_cast<size_t>(c & mask_); }

  void send_direct(Cycle now, const T& msg) {
    const Cycle at = now + latency_;
    const size_t i = slot_index(at);
    if (stamps_[i] != at) {
      stamps_[i] = at;
      slots_[i].clear();
    }
    slots_[i].push_back(msg);
    if (items_ != nullptr) ++items_[at & 1];
    wake_.fire_at(at);
  }

  int latency_;
  // The slots form a power-of-two ring just above the latency: a slot's
  // index is its arrival cycle & mask_.
  int mask_;
  // Each slot's arrival cycle, kept apart from the messages so a check
  // that finds nothing touches only the channel's first cache line.
  std::array<Cycle, kRing> stamps_;
  int64_t* items_ = nullptr;
  WakeHook wake_;
  bool deferred_ = false;
  std::vector<T> staging_;  // cross-span sends awaiting commit_staged
  std::array<InlineVec<T, kPerCycle>, kRing> slots_;
};

}  // namespace noc
