#include "hpcwhisk/sim/simulation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpcwhisk::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::seconds(1).ticks(), 1'000'000);
  EXPECT_EQ(SimTime::minutes(2).ticks(), 120'000'000);
  EXPECT_EQ(SimTime::hours(1), SimTime::minutes(60));
  EXPECT_EQ(SimTime::days(1), SimTime::hours(24));
  EXPECT_DOUBLE_EQ(SimTime::minutes(90).to_hours(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(90);
  const SimTime b = SimTime::minutes(1);
  EXPECT_EQ(a - b, SimTime::seconds(30));
  EXPECT_EQ(a + b, SimTime::seconds(150));
  EXPECT_EQ(b * 3, SimTime::minutes(3));
  EXPECT_EQ(a / b, 1);
  EXPECT_EQ(a % b, SimTime::seconds(30));
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime::seconds(1.5).to_string(), "1.500s");
  EXPECT_EQ(SimTime::minutes(2).to_string(), "2m00.0s");
  EXPECT_EQ(SimTime::hours(1.5).to_string(), "1h30m00.0s");
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  SimTime seen;
  sim.at(SimTime::seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(5));
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  std::vector<double> times;
  sim.at(SimTime::seconds(10), [&] {
    sim.after(SimTime::seconds(5), [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.at(SimTime::seconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(SimTime::seconds(5), [] {}), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(2), [&] { ++fired; });
  sim.at(SimTime::seconds(3), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrains) {
  Simulation sim;
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(sim.now(), SimTime::minutes(5));
}

TEST(Simulation, CancelledEventDoesNotFire) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.at(SimTime::seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, PeriodicFiresAtInterval) {
  Simulation sim;
  std::vector<double> at;
  auto handle = sim.every(SimTime::seconds(10), [&] { at.push_back(sim.now().to_seconds()); });
  sim.run_until(SimTime::seconds(35));
  handle.stop();
  EXPECT_EQ(at, (std::vector<double>{10, 20, 30}));
}

TEST(Simulation, PeriodicStopsWhenHandleStopped) {
  Simulation sim;
  int count = 0;
  auto handle = sim.every(SimTime::seconds(1), [&] { ++count; });
  sim.run_until(SimTime::seconds(3));
  handle.stop();
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(handle.active());
}

TEST(Simulation, PeriodicCanStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicHandle handle;
  handle = sim.every(SimTime::seconds(1), [&] {
    if (++count == 5) handle.stop();
  });
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(count, 5);
}

TEST(Simulation, SeriesStoppedBySameInstantSeriesDoesNotFire) {
  // Both series are due at every second; the first one's callback stops
  // the second, whose tick at that same instant is already queued.
  Simulation sim;
  int first = 0;
  int second = 0;
  PeriodicHandle victim;
  auto stopper = sim.every(SimTime::seconds(1), [&] {
    ++first;
    victim.stop();
  });
  victim = sim.every(SimTime::seconds(1), [&] { ++second; });
  sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(first, 5);
  EXPECT_EQ(second, 0);
  EXPECT_FALSE(victim.active());
  EXPECT_TRUE(stopper.active());
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, SeriesStoppingItselfKeepsItsCapturesUntilItReturns) {
  // The series stops itself, then starts another and still reads its own
  // captures: its storage is released only after the callback returns,
  // so the new series cannot take it over mid-call.
  Simulation sim;
  std::vector<std::string> log;
  PeriodicHandle self;
  PeriodicHandle next;
  self = sim.every(SimTime::seconds(1), [&, tag = std::string(40, 'a')] {
    self.stop();
    next = sim.every(SimTime::seconds(1), [&log] { log.emplace_back("next"); });
    log.push_back(tag);
  });
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(log, (std::vector<std::string>{std::string(40, 'a'), "next", "next"}));
  EXPECT_FALSE(self.active());
  EXPECT_TRUE(next.active());
  PeriodicHandle reuser = sim.every(SimTime::seconds(1), [] {});
  self.stop();  // stale: must not stop the series now in its storage
  EXPECT_TRUE(reuser.active());
}

TEST(Simulation, SeriesTickFollowsWhatItsCallbackScheduledForThatInstant) {
  // The next tick draws its seq after the callback returns, so a one-shot
  // the callback schedules for the next tick's instant fires first.
  Simulation sim;
  std::vector<int> order;
  auto series = sim.every(SimTime::seconds(1), [&] {
    order.push_back(0);
    sim.after(SimTime::seconds(1), [&order] { order.push_back(1); });
  });
  sim.run_until(SimTime::seconds(3));
  series.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0}));
}

TEST(Simulation, ZeroIntervalPeriodicThrows) {
  Simulation sim;
  EXPECT_THROW(sim.every(SimTime::zero(), [] {}), std::invalid_argument);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsScheduledDuringRunAreExecuted) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(SimTime::micros(1), recurse);
  };
  sim.after(SimTime::micros(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Simulation, SettleToRejectsPendingEarlierEvents) {
  Simulation sim;
  sim.at(SimTime::seconds(1), [] {});
  EXPECT_THROW(sim.settle_to(SimTime::seconds(2)), std::logic_error);
}

}  // namespace
}  // namespace hpcwhisk::sim
