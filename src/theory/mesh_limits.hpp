#pragma once
// Theoretical limits of a k x k mesh NoC (paper Table 1 / Appendix A).
//
// Assumptions (paper Appendix A): perfect routing (balanced minimal paths),
// perfect flow control (links never idle under backlog), perfect router
// microarchitecture (only ST+LT delay/energy per hop).
//
// The formulas are implemented exactly as printed in Table 1. Two of them
// are slightly loose relative to exact enumeration, and we provide the exact
// counterparts for cross-checking:
//  - unicast H_avg = 2(k+1)/3 conditions on src/dst differing per dimension;
//    the exact uniform average (src != dst) is 2k/3.
//  - broadcast H for even k, (3k-1)/2, is 0.5 above the exact
//    average-furthest distance (3k-2)/2; the odd-k formula is exact.

#include "noc/geometry.hpp"

namespace noc::theory {

/// --- Table 1, latency (hops == cycles under assumption 3) ---
double unicast_avg_hops(int k);    // 2(k+1)/3
double broadcast_avg_hops(int k);  // (3k-1)/2 even, (k-1)(3k+1)/2k odd

/// Exact enumerated counterparts (for tests and the quirk discussion).
double unicast_avg_hops_exact(int k);
double broadcast_avg_hops_exact(int k);

/// --- Table 1, channel loads at per-node flit injection rate R ---
double unicast_bisection_load(int k, double R);    // k R / 4
double unicast_ejection_load(double R);            // R
double broadcast_bisection_load(int k, double R);  // k^2 R / 4
double broadcast_ejection_load(int k, double R);   // k^2 R

/// --- Table 1, throughput limit: max sustainable R (flits/node/cycle) ---
/// Unicast: ejection-limited for k <= 4 (R = 1), bisection-limited beyond
/// (R = 4/k). Broadcast: always ejection-limited, R = 1/k^2.
double unicast_max_injection_rate(int k);
double broadcast_max_injection_rate(int k);

/// Aggregate ejection-capacity limit in Gb/s: k^2 nodes x flit_bits x f.
/// The paper's 1024 Gb/s for the 4x4 at 64b / 1 GHz.
double aggregate_throughput_limit_gbps(int k, double flit_bits = 64.0,
                                       double clock_ghz = 1.0);

/// --- Table 1, energy limits per packet (units of the caller's Exbar/Elink)
double unicast_energy_limit(int k, double e_xbar, double e_link);
double broadcast_energy_limit(int k, double e_xbar, double e_link);

/// Zero-load latency including the 2 NIC link cycles the paper adds for
/// Fig 5's limit lines, plus serialization for multi-flit packets.
double zero_load_latency_limit_unicast(int k, int packet_len = 1);
double zero_load_latency_limit_broadcast(int k, int packet_len = 1);

/// Weighted Fig 5 mixed-traffic latency limit (50% broadcast request, 25%
/// unicast request, 25% 5-flit unicast response).
double zero_load_latency_limit_mixed(int k);

}  // namespace noc::theory
