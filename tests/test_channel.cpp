#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

// Up to four messages per cycle, latencies up to 3.
using IntChannel = Channel<int, 4, 3>;

std::vector<int> got(const IntChannel& ch, Cycle now) {
  const auto a = ch.arrivals(now);
  return {a.begin(), a.end()};
}

TEST(Channel, OneCycleLatency) {
  IntChannel ch(1);
  ch.send(0, 42);
  EXPECT_TRUE(ch.arrivals(0).empty());
  EXPECT_EQ(got(ch, 1), std::vector<int>{42});
  EXPECT_TRUE(ch.arrivals(2).empty());
}

TEST(Channel, ZeroLatencyVisibleSameCycle) {
  IntChannel ch(0);
  ch.send(5, 7);
  EXPECT_EQ(got(ch, 5), std::vector<int>{7});
  EXPECT_TRUE(ch.arrivals(6).empty());
}

TEST(Channel, MultiCycleLatencyPreservesOrder) {
  IntChannel ch(3);
  ch.send(0, 1);
  ch.send(0, 2);
  ch.send(1, 3);
  EXPECT_TRUE(ch.arrivals(1).empty());
  EXPECT_TRUE(ch.arrivals(2).empty());
  EXPECT_EQ(got(ch, 3), (std::vector<int>{1, 2}));
  EXPECT_EQ(got(ch, 4), std::vector<int>{3});
  EXPECT_TRUE(ch.arrivals(5).empty());
}

TEST(Channel, MoreThanThePerCycleBoundAsserts) {
  // A flit link carries one message per cycle; the inline slot holds one.
  Channel<int, 1> ch(1);
  ch.send(0, 1);
  ch.send(1, 2);  // the next cycle's slot
  EXPECT_DEATH(ch.send(0, 3), "Precondition");
}

TEST(Channel, SendsAfterSkippedCycles) {
  // Nothing visits a channel between its sends: a send many cycles after
  // the last one must deliver with normal latency, and the cycles in
  // between read empty.
  IntChannel ch(1);
  ch.send(0, 1);
  EXPECT_EQ(got(ch, 1), std::vector<int>{1});
  ch.send(10, 5);  // eight silent cycles
  for (Cycle c = 2; c <= 10; ++c) EXPECT_TRUE(ch.arrivals(c).empty()) << c;
  EXPECT_EQ(got(ch, 11), std::vector<int>{5});
  EXPECT_TRUE(ch.arrivals(12).empty());
}

TEST(Channel, ZeroLatencySendAfterSkippedCycles) {
  // The NIC->router lookahead shortcut: latency 0, a send after silent
  // cycles must be visible the same cycle.
  IntChannel ch(0);
  ch.send(0, 1);
  ch.send(7, 42);
  EXPECT_EQ(got(ch, 7), std::vector<int>{42});
  EXPECT_TRUE(ch.arrivals(8).empty());
}

TEST(Channel, StaleSlotReadsEmpty) {
  // A slot is reused for a later arrival cycle (from t + latency + 1 on, at
  // latency 0). Until a send for that cycle rewrites it, its old stamp
  // makes it read empty instead of replaying the old messages.
  for (int latency = 0; latency <= 3; ++latency) {
    SCOPED_TRACE("latency " + std::to_string(latency));
    IntChannel ch(latency);
    ch.send(3, 9);
    const Cycle at = 3 + latency;
    EXPECT_EQ(got(ch, at), std::vector<int>{9});
    for (Cycle c = at + 1; c <= at + 8; ++c)
      EXPECT_TRUE(ch.arrivals(c).empty()) << c;
    // A send into the reused slot clears the stale message first.
    ch.send(at + 5, 4);
    EXPECT_EQ(got(ch, at + 5 + latency), std::vector<int>{4});
  }
}

TEST(Channel, InFlightCountByArrivalParity) {
  // The Network's quiescence counter: each send adds one to the pair entry
  // of its arrival cycle's parity, and the start of cycle t retires cycle
  // t - 1's entry. Between cycles the pair holds every message arriving at
  // the last cycle or later -- what the channel still holds.
  int64_t items[2] = {0, 0};
  IntChannel ch(1);
  IntChannel lookahead(0);  // shares the pair, like a span's channels
  ch.set_counter(items);
  lookahead.set_counter(items);
  auto begin = [&](Cycle t) { items[(t + 1) & 1] = 0; };
  auto in_flight = [&] { return items[0] + items[1]; };

  begin(0);
  ch.send(0, 1);
  ch.send(0, 2);
  lookahead.send(0, 9);
  EXPECT_EQ(items[1], 2);
  EXPECT_EQ(items[0], 1);
  EXPECT_EQ(in_flight(), 3);
  begin(1);  // the lookahead arrived at cycle 0: retired
  EXPECT_EQ(in_flight(), 2);
  ch.send(1, 3);
  EXPECT_EQ(in_flight(), 3);
  begin(2);  // both cycle-1 arrivals retired
  EXPECT_EQ(in_flight(), 1);
  begin(3);
  EXPECT_EQ(in_flight(), 0);
}

TEST(Channel, WakeFiresAtSend) {
  DestMask next;
  IntChannel ch(1);
  ch.set_wake_target(WakeHook{&next, 3});
  ch.send(4, 1);
  EXPECT_TRUE(next.test(3));
  EXPECT_EQ(next.count(), 1);
}

TEST(Channel, DeferredCommitKeepsSendOrder) {
  // A cross-span channel stages its sends; nothing is visible, counted or
  // woken until the owner commits them, in send order, for the same
  // arrival cycle.
  int64_t items[2] = {0, 0};
  DestMask next;
  IntChannel ch(1);
  ch.set_counter(items);
  ch.set_wake_target(WakeHook{&next, 0});
  ch.set_deferred(true);
  ch.send(5, 1);
  ch.send(5, 2);
  ch.send(5, 3);
  EXPECT_TRUE(ch.arrivals(6).empty());
  EXPECT_EQ(items[0] + items[1], 0);
  EXPECT_TRUE(next.none());
  ch.commit_staged(5);
  EXPECT_EQ(got(ch, 6), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(items[0], 3);  // arrival cycle 6
  EXPECT_TRUE(next.test(0));
  ch.commit_staged(6);  // the staging buffer was emptied
  EXPECT_TRUE(ch.arrivals(7).empty());
}

struct Counter : Steppable {
  Cycle last = -1;
  int steps = 0;
  void step(Cycle now) override {
    last = now;
    ++steps;
  }
};

TEST(Simulation, RunAdvancesCycles) {
  Counter c;
  Simulation sim(c);
  sim.run(10);
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(c.steps, 10);
  EXPECT_EQ(c.last, 9);
}

TEST(Simulation, RunUntilPredicate) {
  Counter c;
  Simulation sim(c);
  EXPECT_TRUE(sim.run_until([&] { return c.steps >= 5; }, 100));
  EXPECT_EQ(c.steps, 5);
  EXPECT_FALSE(sim.run_until([&] { return false; }, 10));
}

}  // namespace
}  // namespace noc
