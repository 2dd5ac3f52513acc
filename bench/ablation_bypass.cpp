// Ablation bench: isolates the contribution of each microarchitectural
// choice the paper's design bundles together -- lookahead bypass, partial
// multicast bypass, lookahead priority, the identical-PRBS artifact, and
// the VC organization around the paper's 4x1 REQ + 2x3 RESP design point.
#include <cstdio>

#include "common/table.hpp"
#include "noc/experiment.hpp"

using namespace noc;
using noc::Table;

namespace {

struct Variant {
  const char* label;
  NetworkConfig cfg;
};

void run(const char* title, TrafficPattern pat,
         const std::vector<Variant>& variants) {
  const MeasureOptions opt{.warmup = 2000, .window = 8000};
  Table t(title);
  t.set_columns({"Variant", "Zero-load lat (cyc)", "Sat throughput (Gb/s)",
                 "Bypass rate @sat"});
  for (auto v : variants) {
    v.cfg.traffic.pattern = pat;
    auto s = find_saturation(v.cfg, opt);
    t.add_row({v.label, Table::fmt(s.zero_load_latency, 2),
               Table::fmt(s.saturation_gbps, 0),
               Table::fmt(s.at_saturation.bypass_rate, 2)});
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Ablations around the fabricated design point (4x4, 1GHz, 64b)\n\n");

  NetworkConfig D = NetworkConfig::proposed(4);
  NetworkConfig C = NetworkConfig::lowswing_multicast(4);  // no bypass
  NetworkConfig no_partial = D;
  no_partial.router.allow_partial_bypass = false;
  NetworkConfig fair_la = D;
  fair_la.router.lookahead_priority = false;
  NetworkConfig artifact = D;
  artifact.traffic.identical_prbs = true;

  run("Bypass machinery (broadcast-only traffic)",
      TrafficPattern::BroadcastOnly,
      {{"D: full design", D},
       {"no lookahead bypass (3-stage)", C},
       {"all-or-nothing multicast bypass", no_partial},
       {"buffered flits arbitrate first", fair_la},
       {"identical-PRBS NICs (chip artifact)", artifact}});

  // VC organization sweep around the paper's 4x1 + 2x3 point (Sec 3.3:
  // REQ VCs must cover the 3-cycle turnaround; RESP VCs trade throughput
  // for critical path and buffer power).
  std::vector<Variant> vcs;
  static const int req_counts[] = {2, 3, 4, 6};
  static NetworkConfig cfgs[4];
  static char labels[4][48];
  for (int i = 0; i < 4; ++i) {
    cfgs[i] = NetworkConfig::proposed(4);
    cfgs[i].router.vc.vcs_per_mc[0] = req_counts[i];
    std::snprintf(labels[i], sizeof labels[i], "%d REQ VCs x 1 deep%s",
                  req_counts[i], req_counts[i] == 4 ? " (paper)" : "");
    vcs.push_back({labels[i], cfgs[i]});
  }
  run("Request-class VC count vs the 3-cycle turnaround (broadcast-only)",
      TrafficPattern::BroadcastOnly, vcs);

  run("Mixed traffic sanity on the same variants", TrafficPattern::MixedPaper,
      {{"D: full design", D},
       {"no lookahead bypass (3-stage)", C},
       {"identical-PRBS NICs (chip artifact)", artifact}});

  // Routing-order ablation: the paper attributes part of the throughput gap
  // to "imbalance in load" from XY routing; YX is the mirror tree.
  NetworkConfig yx = D;
  yx.router.routing = RoutePolicy::YX;
  run("Dimension order under uniform unicast", TrafficPattern::UniformRequest,
      {{"XY tree (the chip)", D}, {"YX tree", yx}});
  run("Dimension order under transpose (adversarial)",
      TrafficPattern::Transpose,
      {{"XY tree (the chip)", D}, {"YX tree", yx}});

  std::printf(
      "Reading: bypass buys ~zero-load = hops+2 and higher saturation via the\n"
      "3-cycle buffer turnaround; REQ VC counts below 3 cannot cover the\n"
      "turnaround and lose broadcast throughput, matching the paper's choice\n"
      "of 4; lookahead priority costs little at these loads because the\n"
      "bypass path drains contention quickly.\n");
  return 0;
}
