// Unit tests for the discrete-event scheduler: ordering, tie-breaking,
// cancellation, clock semantics, nested scheduling.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"

namespace pandarus::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(42, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  util::SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { seen = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  bool fired = false;
  s.schedule_after(-5, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  auto handle = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler s;
  auto handle = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Scheduler, DefaultHandleIsInert) {
  Scheduler::EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler s;
  std::vector<util::SimTime> fired;
  for (util::SimTime t : {10, 20, 30, 40}) {
    s.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<util::SimTime>{10, 20}));
  EXPECT_EQ(s.now(), 25);
  s.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler s;
  bool fired = false;
  s.schedule_at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_at(5, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, ProcessedCountSkipsCancelled) {
  Scheduler s;
  auto h1 = s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  h1.cancel();
  s.run();
  EXPECT_EQ(s.processed_count(), 1u);
}

TEST(Scheduler, CancelledFarFutureEventLeavesSchedulerDrained) {
  // A campaign drains with run_until(horizon); a cancelled entry timed
  // past the horizon is never swept, but nothing is left to fire.
  Scheduler s;
  s.schedule_at(10, [] {});
  auto far = s.schedule_at(1'000'000, [] {});
  far.cancel();
  s.run_until(100);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.queued_count(), 1u);
  EXPECT_TRUE(s.drained());
}

TEST(Scheduler, LiveFarFutureEventIsNotDrained) {
  Scheduler s;
  auto cancelled = s.schedule_at(500'000, [] {});
  s.schedule_at(1'000'000, [] {});
  cancelled.cancel();
  s.run_until(100);
  EXPECT_EQ(s.queued_count(), 2u);
  EXPECT_FALSE(s.drained());
  s.run();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.drained());
}

TEST(Scheduler, EventsCanRescheduleThemselves) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.schedule_after(10, tick);
  };
  s.schedule_at(0, tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(Scheduler, CancelInsideEarlierEvent) {
  Scheduler s;
  bool fired = false;
  auto later = s.schedule_at(20, [&] { fired = true; });
  s.schedule_at(10, [&] { later.cancel(); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  util::SimTime last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10'000; ++i) {
    const util::SimTime t = (i * 7919) % 1000;  // scrambled times
    s.schedule_at(t, [&, t] {
      if (t < last) monotonic = false;
      last = t;
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(s.processed_count(), 10'000u);
}

}  // namespace
}  // namespace pandarus::sim
