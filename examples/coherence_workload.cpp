// A cache-coherence-shaped workload -- the message pattern the paper's
// router was designed for (Sec 3: request/response message classes avoid
// protocol deadlock; broadcasts serve snoopy coherence) -- expressed with
// the first-class ClosedLoopSource instead of a hand-rolled loop outside
// the simulator: each miss issues a broadcast probe, the (deterministic)
// owner answers with a 5-flit cache-line response after a directory
// lookup, and at most `--mshr` misses are outstanding per node.
//
// Because the workload is a TrafficSource, the standard harness measures
// it: measure_workload reports miss latency and sustained transaction
// throughput, and ExperimentRunner sweeps the MSHR window across cores
// with bit-identical-to-serial results.
//
// Flags: --mshr N --issue-prob P --dir-latency N --warmup N --window N
//        --threads N
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "noc/experiment.hpp"

using namespace noc;
using noc::Table;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.help()) {
    std::printf(
        "usage: %s [--mshr N] [--issue-prob P] [--dir-latency N]\n"
        "          [--warmup N] [--window N] [--threads N]\n",
        argv[0]);
    return 0;
  }
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.workload.kind = WorkloadKind::ClosedLoop;
  cfg.workload.closed.window = args.get_at_least("mshr", 4, 1);
  // Default models a compute-bound core: a miss every ~50 cycles per node.
  cfg.workload.closed.issue_prob = args.get_double("issue-prob", 0.02);
  cfg.workload.closed.directory_latency = args.get_int("dir-latency", 2);
  // Reject out-of-contract knobs with a message, not an assert abort.
  if (const char* err = cfg.workload.closed.validate()) {
    std::fprintf(stderr, "%s\n", err);
    return 1;
  }
  const MeasureOptions opt =
      cli_measure_options(args, {.warmup = 2000, .window = 18000});
  const ExperimentRunner runner{cli_experiment_options(args, opt)};
  if (!args.check_unused()) return 1;

  const double nodes = cfg.k * cfg.k;
  const PointResult r = measure_workload(cfg, opt);

  std::printf("== coherence workload on the proposed 4x4 NoC ==\n");
  std::printf("MSHR window              : %d outstanding misses/node\n",
              r.closed_loop_window);
  std::printf("miss transactions        : %lld completed in %lld cycles\n",
              static_cast<long long>(r.transactions),
              static_cast<long long>(opt.window));
  std::printf("miss latency (probe->data): %.2f cycles avg, %.0f max\n",
              r.avg_transaction_latency, r.max_transaction_latency);
  std::printf("sustained miss rate      : %.4f misses/node/cycle\n",
              r.transactions_per_cycle / nodes);
  std::printf("received throughput      : %.1f Gb/s\n", r.recv_gbps);
  std::printf("bypass rate              : %.1f%%\n", 100.0 * r.bypass_rate);

  // The closed-loop analogue of a latency-throughput curve: saturate the
  // window (issue_prob = 1) and sweep its size. All points run in parallel.
  NetworkConfig sat = cfg;
  sat.workload.closed.issue_prob = 1.0;
  const std::vector<int> windows = {1, 2, 4, 8};
  const auto curve = runner.window_sweep(sat, windows);

  std::printf("\n");
  Table t("Saturating closed loop vs MSHR window (issue_prob = 1)");
  t.set_columns({"Window", "Misses/node/cyc", "Miss latency (cyc)",
                 "Network lat (cyc)", "Recv (Gb/s)"});
  for (const PointResult& p : curve)
    t.add_row({Table::fmt_int(p.closed_loop_window),
               Table::fmt(p.transactions_per_cycle / nodes, 4),
               Table::fmt(p.avg_transaction_latency, 1),
               Table::fmt(p.avg_latency, 1), Table::fmt(p.recv_gbps, 0)});
  t.print();

  std::printf(
      "\nA miss costs probe + directory + data response end to end -- the\n"
      "single-cycle broadcast tree keeps the probe leg flat, so miss latency\n"
      "tracks the 5-flit response serialization until the window saturates\n"
      "the ejection links.\n");
  return 0;
}
