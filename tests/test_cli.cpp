// CliArgs numeric flags (common/cli.hpp) and the shared bench/example flag
// helpers (noc/experiment.hpp): a value that does not parse as a whole,
// finite, in-range number, or lies outside the field's bounds, must stop the
// run with a message instead of saturating, truncating or passing NaN into a
// config.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "noc/experiment.hpp"

namespace noc {
namespace {

/// argv storage for one CliArgs parse; argv[0] is the program name.
class Argv {
 public:
  Argv(std::initializer_list<std::string> args) : strings_{"prog"} {
    strings_.insert(strings_.end(), args);
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  CliArgs parse() {
    return CliArgs(static_cast<int>(ptrs_.size()), ptrs_.data());
  }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(CliArgs, PlainNegativeAndExponentFormsParse) {
  Argv argv{"--window", "5000", "--shift=-3", "--load", "1e-3",
            "--offered", "-0.25", "--rate=2.5E1", "--zero", "0"};
  const CliArgs args = argv.parse();
  EXPECT_EQ(args.get_int("window", 1), 5000);
  EXPECT_EQ(args.get_int("shift", 1), -3);
  EXPECT_EQ(args.get_int("zero", 1), 0);
  EXPECT_DOUBLE_EQ(args.get_double("load", 1.0), 1e-3);
  EXPECT_DOUBLE_EQ(args.get_double("offered", 1.0), -0.25);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.0), 25.0);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 0.5), 0.5);
  EXPECT_TRUE(args.check_unused());
}

TEST(CliArgs, IntegersAtTheLimitsParse) {
  Argv argv{"--max", "9223372036854775807", "--min", "-9223372036854775808"};
  const CliArgs args = argv.parse();
  EXPECT_EQ(args.get_int("max", 0), INT64_MAX);
  EXPECT_EQ(args.get_int("min", 0), INT64_MIN);
}

TEST(CliArgsDeathTest, OverflowExits) {
  Argv argv{"--window", "99999999999999999999", "--load", "1e999"};
  const CliArgs args = argv.parse();
  EXPECT_EXIT(args.get_int("window", 1), ::testing::ExitedWithCode(1),
              "invalid value for --window");
  EXPECT_EXIT(args.get_double("load", 1.0), ::testing::ExitedWithCode(1),
              "invalid value for --load");
}

TEST(CliArgsDeathTest, NonFiniteValuesExit) {
  Argv argv{"--load", "nan", "--offered", "inf", "--rate", "-inf"};
  const CliArgs args = argv.parse();
  EXPECT_EXIT(args.get_double("load", 1.0), ::testing::ExitedWithCode(1),
              "invalid value for --load: 'nan'");
  EXPECT_EXIT(args.get_double("offered", 1.0), ::testing::ExitedWithCode(1),
              "invalid value for --offered: 'inf'");
  EXPECT_EXIT(args.get_double("rate", 1.0), ::testing::ExitedWithCode(1),
              "invalid value for --rate");
}

TEST(CliArgsDeathTest, TrailingJunkAndMissingValuesExit) {
  Argv argv{"--window", "12o00", "--load", "0.05x", "--warmup", "1.5",
            "--threads"};
  const CliArgs args = argv.parse();
  EXPECT_EXIT(args.get_int("window", 1), ::testing::ExitedWithCode(1),
              "invalid value for --window: '12o00'");
  EXPECT_EXIT(args.get_double("load", 1.0), ::testing::ExitedWithCode(1),
              "invalid value for --load");
  EXPECT_EXIT(args.get_int("warmup", 1), ::testing::ExitedWithCode(1),
              "invalid value for --warmup");
  EXPECT_EXIT(args.get_int("threads", 1), ::testing::ExitedWithCode(1),
              "invalid value for --threads");
}

TEST(CliArgsDeathTest, MeshRadixOutOfRangeExits) {
  Argv big{"--k", "99"};
  EXPECT_EXIT(cli_mesh_radix(big.parse(), 4), ::testing::ExitedWithCode(1),
              "invalid --k 99");
  Argv small{"--k", "1"};
  EXPECT_EXIT(cli_mesh_radix(small.parse(), 4), ::testing::ExitedWithCode(1),
              "invalid --k 1");
}

TEST(CliArgsDeathTest, NegativeWarmupOrEmptyWindowExits) {
  const MeasureOptions defaults;
  Argv warmup{"--warmup", "-1"};
  EXPECT_EXIT(cli_measure_options(warmup.parse(), defaults),
              ::testing::ExitedWithCode(1), "invalid --warmup -1");
  Argv window{"--window", "0"};
  EXPECT_EXIT(cli_measure_options(window.parse(), defaults),
              ::testing::ExitedWithCode(1), "invalid --window 0");
  Argv zero_warmup{"--warmup", "0", "--window", "1"};
  const MeasureOptions opt = cli_measure_options(zero_warmup.parse(), defaults);
  EXPECT_EQ(opt.warmup, 0);
  EXPECT_EQ(opt.window, 1);
}

TEST(CliArgsDeathTest, ValuesBelowTheirBoundExitNamingTheFlag) {
  // The rate and sampling-period flags of example_quickstart and
  // `campaign telemetry` hold the bounds manifests hold their fields to.
  Argv argv{"--load", "-0.1", "--sample-every", "-5", "--trace-every=-5",
            "--step-threads", "0"};
  const CliArgs args = argv.parse();
  EXPECT_EXIT(args.get_at_least("load", 0.10, 0.0),
              ::testing::ExitedWithCode(1), "invalid --load -0.1: need >= 0");
  EXPECT_EXIT(args.get_at_least<int64_t>("sample-every", 50, 0),
              ::testing::ExitedWithCode(1),
              "invalid --sample-every -5: need >= 0");
  EXPECT_EXIT(args.get_at_least<int64_t>("trace-every", 64, 0),
              ::testing::ExitedWithCode(1),
              "invalid --trace-every -5: need >= 0");
  EXPECT_EXIT(cli_step_threads(args), ::testing::ExitedWithCode(1),
              "invalid --step-threads 0: need >= 1");
}

TEST(CliArgs, ValuesAtTheirBoundPass) {
  Argv argv{"--offered", "0", "--sample-every", "0", "--step-threads", "1"};
  const CliArgs args = argv.parse();
  EXPECT_EQ(args.get_at_least("offered", 0.15, 0.0), 0.0);
  EXPECT_EQ(args.get_at_least<int64_t>("sample-every", 50, 0), 0);
  EXPECT_EQ(args.get_at_least<int64_t>("trace-every", 64, 0), 64);
  EXPECT_EQ(cli_step_threads(args), 1);
  EXPECT_TRUE(args.check_unused());
}

}  // namespace
}  // namespace noc
