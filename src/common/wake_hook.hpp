#pragma once
// Wake targets for the activity-gated cycle core (docs/PERF.md Layer 3).
//
// A WakeHook is a one-bit wake target: a component sets a bit in a
// Network-owned per-node mask (a DestMask, one bit per node -- the same
// multi-word bitset the datapath uses for destination sets) to schedule
// another component (or itself) for execution. Null hooks are no-ops, so
// ungated networks pay nothing.

#include "common/dest_mask.hpp"

namespace noc {

struct WakeHook {
  DestMask* mask = nullptr;
  int bit = 0;

  void fire() const {
    if (mask != nullptr) mask->set(bit);
  }
};

}  // namespace noc
