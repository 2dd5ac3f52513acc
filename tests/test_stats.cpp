#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace noc {
namespace {

TEST(IntStat, CountSumMaxMean) {
  IntStat s;
  for (int64_t x : {3, 9, 4, 1}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.sum(), 17);
  EXPECT_EQ(s.max(), 9);
  EXPECT_DOUBLE_EQ(s.mean(), 4.25);
}

TEST(IntStat, EmptyAndResetAreSafe) {
  IntStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.sum(), 0);
  EXPECT_EQ(s.max(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(-5);  // the first sample sets the max, whatever its sign
  EXPECT_EQ(s.max(), -5);
  s.reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(IntStat, ArrivalOrderCannotMoveAnyField) {
  // The property the span merge relies on: the same samples in any order
  // give the same bits, the mean included.
  IntStat fwd, rev;
  for (int i = 0; i < 1000; ++i) {
    fwd.add(i * 37 % 101);
    rev.add((999 - i) * 37 % 101);
  }
  EXPECT_EQ(fwd.count(), rev.count());
  EXPECT_EQ(fwd.sum(), rev.sum());
  EXPECT_EQ(fwd.max(), rev.max());
  EXPECT_EQ(fwd.mean(), rev.mean());
}

}  // namespace
}  // namespace noc
