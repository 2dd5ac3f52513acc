// Regenerates Table 1: theoretical limits of a k x k mesh NoC for unicast
// and broadcast traffic, as printed, plus the exact enumerated cross-checks
// discussed in theory/mesh_limits.hpp.
#include <cstdio>

#include "common/table.hpp"
#include "theory/mesh_limits.hpp"

using noc::Table;
namespace th = noc::theory;

int main() {
  std::printf("Table 1: Theoretical limits of a k x k mesh NoC (paper Sec 2.2)\n");
  std::printf("Loads are per unit injection rate R (flits/node/cycle).\n\n");

  Table t("Theoretical limits (formulas as printed in the paper)");
  t.set_columns({"k", "H_uni", "H_uni exact", "H_bcast", "H_bcast exact",
                 "L_bis uni (xR)", "L_ej uni (xR)", "L_bis bc (xR)",
                 "L_ej bc (xR)", "R_max uni", "R_max bcast",
                 "E_uni (Ex=El=1)", "E_bc (Ex=El=1)"});
  for (int k : {2, 3, 4, 5, 6, 7, 8, 10, 12, 16}) {
    t.add_row({Table::fmt_int(k), Table::fmt(th::unicast_avg_hops(k)),
               Table::fmt(th::unicast_avg_hops_exact(k)),
               Table::fmt(th::broadcast_avg_hops(k)),
               Table::fmt(th::broadcast_avg_hops_exact(k)),
               Table::fmt(th::unicast_bisection_load(k, 1.0)),
               Table::fmt(th::unicast_ejection_load(1.0)),
               Table::fmt(th::broadcast_bisection_load(k, 1.0)),
               Table::fmt(th::broadcast_ejection_load(k, 1.0)),
               Table::fmt(th::unicast_max_injection_rate(k), 3),
               Table::fmt(th::broadcast_max_injection_rate(k), 4),
               Table::fmt(th::unicast_energy_limit(k, 1.0, 1.0)),
               Table::fmt(th::broadcast_energy_limit(k, 1.0, 1.0))});
  }
  t.print();

  std::printf("\nPaper anchor points:\n");
  std::printf("  k=4: H_uni=%.2f (paper 3.3), H_bcast=%.2f (paper 5.5)\n",
              th::unicast_avg_hops(4), th::broadcast_avg_hops(4));
  std::printf("  k=8: H_uni=%.2f (paper 6),   H_bcast=%.2f (paper 11.5)\n",
              th::unicast_avg_hops(8), th::broadcast_avg_hops(8));
  std::printf("  Aggregate ejection limit, k=4 @64b/1GHz: %.0f Gb/s (paper 1024)\n",
              th::aggregate_throughput_limit_gbps(4));
  std::printf("\nFig 5 latency-limit lines (hops + 2 NIC cycles + serialization):\n");
  std::printf("  unicast request %.2f | unicast response %.2f | broadcast %.2f | mixed %.2f\n",
              th::zero_load_latency_limit_unicast(4, 1),
              th::zero_load_latency_limit_unicast(4, 5),
              th::zero_load_latency_limit_broadcast(4, 1),
              th::zero_load_latency_limit_mixed(4));
  return 0;
}
