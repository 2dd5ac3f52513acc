#pragma once
// Simulated time.
//
// The NoC is modeled as a fully synchronous design: every component is
// stepped once per clock cycle in a fixed phase order chosen so that all
// cross-component communication flows through Channel objects with >= 1
// cycle of latency (or explicitly-ordered 0-cycle lookahead wires). This
// gives cycle-accurate register-transfer semantics without a delta-cycle
// event queue.

#include <cstdint>
#include <limits>

namespace noc {

using Cycle = int64_t;

/// Sentinel for "no such cycle" (e.g. a traffic source that can never fire
/// again without external input; see TrafficSource::next_fire_cycle).
constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

}  // namespace noc
