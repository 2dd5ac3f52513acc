#pragma once
// Point-to-point synchronous channels (pipelined wires).
//
// A Channel<T> models a set of wires with a fixed latency in cycles:
// messages sent during tick t become visible to the receiver's tick at
// t + latency. Latency 0 is allowed for the NIC->router lookahead shortcut
// (the NIC is physically adjacent to its router and its injection request
// feeds mSA-II combinationally); correctness then relies on the global
// phase order executing the sender before the receiver in the same tick.
//
// Storage is a ring of latency+1 slot vectors indexed by cycle modulo the
// ring size: send() appends to the slot that becomes visible at now+latency,
// begin_cycle() clears the slot about to be reused and exposes the current
// one. Slot vectors keep their capacity across cycles, so a warmed-up
// channel never allocates (docs/PERF.md).
//
// Activity contract (docs/PERF.md "activity-gated stepping"): a channel
// holding any message must receive begin_cycle for every consecutive cycle
// until it is fully drained -- the Network keeps such channels on its active
// list. While a channel is drained, begin_cycle may be skipped entirely:
// every slot is empty, so send() simply fast-forwards the ring to the
// current cycle. An ungated Network calls begin_cycle on every channel every
// cycle, which trivially satisfies the contract.

#include <span>
#include <utility>
#include <vector>

#include "common/active_set.hpp"
#include "common/assert.hpp"
#include "sim/tickable.hpp"

namespace noc {

template <typename T>
class Channel {
 public:
  explicit Channel(int latency = 1)
      : latency_(latency), slots_(static_cast<size_t>(latency + 1)) {
    NOC_EXPECTS(latency >= 0);
  }

  int latency() const { return latency_; }

  /// Activity wiring (installed by a gating Network): the channel inserts
  /// itself into `reg` under `id` whenever it holds messages, and
  /// `items_counter` (shared across all of a Network's channels) tracks the
  /// aggregate in-flight count for O(1) quiescence checks. Either pointer
  /// may be null.
  void set_activity(ActiveList* reg, int id, int64_t* items_counter) {
    registry_ = reg;
    id_ = id;
    items_counter_ = items_counter;
  }

  /// Wake target fired when arrivals become visible to the receiver: at
  /// begin_cycle for latency >= 1, at send for latency 0 (whose messages
  /// are visible the same cycle, before the receiver's phase runs).
  void set_wake_target(const WakeHook& wake) { wake_ = wake; }

  /// Cross-span boundary mode (docs/PERF.md Layer 4). A deferred channel's
  /// send() only appends to a private staging buffer -- it touches none of
  /// the ring, counters, registry or wake state, so the sender's worker may
  /// run concurrently with the receiver's. The receiver-side worker replays
  /// the staged messages through the normal send path with commit_staged()
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
  bool deferred() const { return deferred_; }

  /// Send a message during tick `now`; it arrives at `now + latency`.
  /// By const reference: messages here are trivially copyable and copied
  /// into the slot exactly once (a by-value parameter cost a second copy
  /// per send on the hot path).
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

  /// Called at the start of a tick, before any component runs: recycles the
  /// slot whose messages were exposed latency+1 ticks ago (it becomes this
  /// tick's send target) and exposes this tick's arrivals, waking the
  /// receiver when they are non-empty.
  void begin_cycle(Cycle now) {
    if (prev_ >= 0 && now == prev_ + 1) {
      // Consecutive tick (the hot path, modulo-free): the ring advances one
      // slot per cycle, so the slot to recycle -- slot_index(now + latency_)
      // -- is exactly the slot exposed last tick, i.e. the old cur_.
      auto& recycle = slots_[cur_];
      if (!recycle.empty()) {
        stored_ -= static_cast<int>(recycle.size());
        if (items_counter_ != nullptr)
          *items_counter_ -= static_cast<int64_t>(recycle.size());
        recycle.clear();
      }
      ++cur_;
      if (cur_ == slots_.size()) cur_ = 0;
    } else {
      // First call, a gap, or a same-cycle restep. A gap is only legal
      // while fully drained (activity contract above); all slots are empty,
      // so there is nothing to recycle.
      NOC_EXPECTS(prev_ < 0 || stored_ == 0);
      cur_ = slot_index(now);
    }
    prev_ = now;
    if (!slots_[cur_].empty()) wake_.fire();
  }

  /// Messages arriving this tick, in send order (a borrowed view: valid
  /// until the next begin_cycle on this channel).
  std::span<const T> arrivals() const {
    const auto& s = slots_[cur_];
    return {s.data(), s.size()};
  }

  /// Total messages in the ring, including arrivals already exposed but not
  /// yet recycled. O(1).
  int stored() const { return stored_; }

  bool idle() const { return stored_ == 0; }

 private:
  size_t slot_index(Cycle c) const {
    return static_cast<size_t>(c % (latency_ + 1));
  }

  void send_direct(Cycle now, const T& msg) {
    if (stored_ == 0 && prev_ != now) {
      // Drained channels may have skipped begin_cycle (activity gating);
      // every slot is empty, so realigning the ring to `now` is safe.
      prev_ = now;
      cur_ = slot_index(now);
    }
    NOC_ASSERT(prev_ == now);  // active channels are stepped every cycle
    // cur_ == slot_index(now), so the send target slot_index(now + latency_)
    // is cur_ + latency_ with a single conditional wrap (latency_ < ring).
    size_t tgt = cur_ + static_cast<size_t>(latency_);
    if (tgt >= slots_.size()) tgt -= slots_.size();
    slots_[tgt].push_back(msg);
    ++stored_;
    if (items_counter_ != nullptr) ++*items_counter_;
    if (latency_ == 0) wake_.fire();
    if (registry_ != nullptr) registry_->insert(id_);
  }

  int latency_;
  std::vector<std::vector<T>> slots_;
  size_t cur_ = 0;
  Cycle prev_ = -1;
  int stored_ = 0;
  ActiveList* registry_ = nullptr;
  int id_ = -1;
  int64_t* items_counter_ = nullptr;
  WakeHook wake_;
  bool deferred_ = false;
  std::vector<T> staging_;  // cross-span sends awaiting commit_staged
};

}  // namespace noc
