#pragma once
// Unit conversion shared by every bench: the simulator works in cycles and
// flits, the paper reports Gb/s (e.g. the 1024 Gb/s ejection limit is
// 16 nodes x 64 b/flit x 1 flit/cycle x 1 GHz).

namespace noc {

/// Aggregate flits per cycle -> Gb/s for 64-bit flits at the paper's 1 GHz
/// network clock.
constexpr double flits_per_cycle_to_gbps(double fpc) { return fpc * 64.0; }

}  // namespace noc
