#pragma once
// Wake targets for the activity-gated cycle core (docs/PERF.md Layer 3).
//
// A WakeHook is a one-bit wake target: a component sets a bit in a
// Network-owned per-node mask (a DestMask, one bit per node -- the same
// multi-word bitset the datapath uses for destination sets) to schedule
// another component (or itself) for execution. Null hooks are no-ops, so
// ungated networks pay nothing.

#include <cstdint>

#include "common/dest_mask.hpp"

namespace noc {

struct WakeHook {
  DestMask* mask = nullptr;
  int bit = 0;
  /// Optional port-granular target for channel arrivals: the receiving
  /// router's pair of per-port wake words (Router::arm_port_wake), indexed
  /// by arrival-cycle parity, plus the arriving port's bit. Kept as raw
  /// words so this header needs no dependency on the mask's width; only the
  /// owning router ever reads or clears them, and every channel that writes
  /// them is owned by the same span, so parallel stepping stays race-free
  /// (docs/PERF.md Layer 5).
  uint64_t* port_words = nullptr;
  uint64_t port_bits = 0;

  void fire() const {
    if (mask != nullptr) mask->set(bit);
  }

  /// A message arrives at cycle `at`: wake the receiver and mark the
  /// arriving port in the wake word of `at`'s parity.
  void fire_at(int64_t at) const {
    fire();
    if (port_words != nullptr) port_words[at & 1] |= port_bits;
  }
};

}  // namespace noc
