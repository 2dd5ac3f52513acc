// Regenerates Table 2: comparison of mesh NoC chip prototypes (Teraflops,
// TILE64, SWIFT, this work as 8x8, this work 4x4).
#include <cstdio>

#include "common/table.hpp"
#include "theory/chip_models.hpp"

using noc::Table;
namespace th = noc::theory;

int main() {
  std::printf("Table 2: Comparison of mesh NoC chip prototypes (paper Sec 2.3)\n\n");

  const auto chips = th::table2_chips();
  Table t("Prototype comparison (R = injection rate/core)");
  t.set_columns({"Metric", chips[0].name, chips[1].name, chips[2].name,
                 chips[3].name, chips[4].name});
  auto row = [&](const char* name, auto getter, int precision = 1) {
    std::vector<std::string> cells{name};
    for (const auto& c : chips) cells.push_back(Table::fmt(getter(c), precision));
    t.add_row(cells);
  };
  {
    std::vector<std::string> cells{"Clock frequency (GHz)"};
    for (const auto& c : chips) cells.push_back(Table::fmt(c.clock_ghz, 3));
    t.add_row(cells);
  }
  row("Delay per hop, best (ns)",
      [](const th::ChipModel& c) { return c.delay_per_hop_min_ns(); }, 2);
  row("Delay per hop, worst (ns)",
      [](const th::ChipModel& c) { return c.delay_per_hop_max_ns(); }, 2);
  row("Zero-load latency, unicast (cycles)",
      [](const th::ChipModel& c) { return c.zero_load_unicast_cycles(); });
  row("Zero-load latency, broadcast (cycles)",
      [](const th::ChipModel& c) { return c.zero_load_broadcast_cycles(); });
  row("Bisection bandwidth (Gb/s)",
      [](const th::ChipModel& c) { return c.bisection_bandwidth_gbps(); });
  row("Channel load, unicast (xR)",
      [](const th::ChipModel& c) { return c.channel_load_unicast_coeff(); }, 0);
  row("Channel load, broadcast (xR)",
      [](const th::ChipModel& c) { return c.channel_load_broadcast_coeff(); },
      0);
  t.print();

  std::printf(
      "\nPaper values for reference:\n"
      "  zero-load unicast:   30 / 9 / 12 / 6 / 3.3 cycles\n"
      "  zero-load broadcast: 120.5 / 77.5 / 86 / 11.5 / 5.5 cycles\n"
      "  bisection bandwidth: 1560 / 937.5 / 112.5 / 512 / 256 Gb/s\n"
      "  channel load uni/bc: 64R,4096R / 64R,4096R / 64R,4096R / 64R,64R / 16R,16R\n"
      "Known deviations: TILE64 broadcast 80.25 vs 77.5 (we model 1.5\n"
      "cycles/hop uniformly) and TILE64 bisection 960 vs 937.5 (we use the\n"
      "nominal 750 MHz clock).\n");
  return 0;
}
