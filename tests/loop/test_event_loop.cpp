// EventLoop semantics tests, both modes:
//  - eager (no driver): dispatch runs inline, post drains before
//    returning, stats account every task — the compatibility contract
//    that keeps pre-loop call sites and sim traces unchanged.
//  - queued (SimDriver): dispatch defers, run_ready() reaches
//    quiescence across loops in registration order, advance() stops at
//    every timer deadline, periodic timers re-arm — the determinism
//    contract the scenario sweeps rely on.
//  - the loop's timer wheel (suite TimerWheel), through schedule/
//    cancel_timer/fire_timers/next_timer_deadline on a virtual clock:
//    (deadline, id) order, no early fire, cancel, and a clock leap
//    far past every wheel level.
#include "loop/event_loop.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "loop/sim_driver.hpp"
#include "util/clock.hpp"

namespace h2::loop {
namespace {

TEST(EventLoopEager, DispatchRunsInline) {
  EventLoop loop("t");
  int ran = 0;
  loop.dispatch([&ran, &loop] {
    ++ran;
    EXPECT_TRUE(loop.is_current());
  });
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(loop.is_current());

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(stats.posted, 0u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(EventLoopEager, PostDrainsBeforeReturning) {
  EventLoop loop("t");
  std::vector<int> order;
  loop.post([&] {
    order.push_back(1);
    // Posted from inside a task: must run after the current task, in
    // FIFO order, still within the outer post() drain.
    loop.post([&] { order.push_back(3); });
    order.push_back(2);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.posted, 2u);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.pending, 0u);
}

TEST(EventLoopEager, NestedDispatchStaysInline) {
  EventLoop loop("t");
  int depth = 0;
  loop.dispatch([&] {
    loop.dispatch([&] { depth = 2; });
    EXPECT_EQ(depth, 2);  // inner dispatch completed before outer returned
  });
  EXPECT_EQ(loop.stats().inline_runs, 2u);
}

TEST(EventLoopEager, RunSyncAndOffloadRunInline) {
  EventLoop loop("t");
  int ran = 0;
  loop.run_sync([&] { ++ran; });
  loop.offload([&] { ++ran; }, [&] { ++ran; });
  EXPECT_EQ(ran, 3);
}

TEST(EventLoopEager, TimersFireViaFireTimers) {
  EventLoop loop("t");
  std::vector<int> order;
  // Eager mode's time base is the wall clock, so deadlines are absolute
  // wall times — fire relative to loop.now().
  (void)loop.schedule(5 * kMillisecond, [&] { order.push_back(2); });
  (void)loop.schedule(kMillisecond, [&] { order.push_back(1); });
  TimerId never = loop.schedule(2 * kMillisecond, [&] { order.push_back(99); });
  EXPECT_TRUE(loop.cancel_timer(never));

  EXPECT_NE(loop.next_timer_deadline(), kNoDeadline);
  std::size_t fired = loop.fire_timers(loop.now() + 10 * kMillisecond);
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  const LoopStats stats = loop.stats();
  EXPECT_EQ(stats.timers_scheduled, 3u);
  EXPECT_EQ(stats.timers_fired, 2u);
  EXPECT_EQ(stats.timers_cancelled, 1u);
}

TEST(EventLoopEager, DeliverFdEventRoutesToCallback) {
  EventLoop loop("t");
  unsigned seen = 0;
  ASSERT_TRUE(loop.watch_fd(42, kFdRead, [&seen](unsigned ev) { seen |= ev; }).ok());
  loop.deliver_fd_event(42, kFdRead);
  loop.deliver_fd_event(42, kFdError);  // error class always delivered
  loop.deliver_fd_event(7, kFdRead);    // unwatched fd: ignored
  EXPECT_EQ(seen, kFdRead | kFdError);
  EXPECT_EQ(loop.stats().fd_events, 2u);
  EXPECT_EQ(loop.stats().fds_watched, 1u);
  ASSERT_TRUE(loop.unwatch_fd(42).ok());
  EXPECT_EQ(loop.stats().fds_watched, 0u);
}

TEST(EventLoopQueued, DispatchDefersUntilPumped) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  ASSERT_TRUE(loop.has_driver());

  int ran = 0;
  loop.dispatch([&ran] { ++ran; });
  loop.post([&ran] { ++ran; });
  EXPECT_EQ(ran, 0);  // queued mode: nothing runs until the driver pumps
  EXPECT_EQ(loop.stats().pending, 2u);

  EXPECT_EQ(driver.run_ready(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.stats().pending, 0u);
  EXPECT_EQ(loop.stats().posted, loop.stats().executed);
}

TEST(EventLoopQueued, RunReadyReachesQuiescenceAcrossLoops) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop a("a");
  EventLoop b("b");
  driver.add_loop(a);
  driver.add_loop(b);
  EXPECT_EQ(driver.loop_count(), 2u);

  // a's task posts to b, whose task posts back to a: run_ready must
  // iterate until the whole cross-loop chain is quiescent.
  std::vector<std::string> order;
  a.dispatch([&] {
    order.push_back("a1");
    b.dispatch([&] {
      order.push_back("b1");
      a.dispatch([&] { order.push_back("a2"); });
    });
  });
  (void)driver.run_ready();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2"}));
}

TEST(EventLoopQueued, DeterministicServiceOrderIsRegistrationOrder) {
  auto run_once = [] {
    VirtualClock clock;
    SimDriver driver(clock);
    EventLoop a("a");
    EventLoop b("b");
    driver.add_loop(a);
    driver.add_loop(b);
    std::vector<std::string> order;
    b.dispatch([&order] { order.push_back("b"); });
    a.dispatch([&order] { order.push_back("a"); });
    (void)driver.run_ready();
    return order;
  };
  auto first = run_once();
  // a is serviced first regardless of enqueue order, and the schedule
  // replays identically.
  EXPECT_EQ(first, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(first, run_once());
}

TEST(EventLoopQueued, AdvanceStopsAtEveryDeadline) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  std::vector<Nanos> fire_times;
  (void)loop.schedule(3 * kMillisecond, [&] { fire_times.push_back(clock.now()); });
  (void)loop.schedule(7 * kMillisecond, [&] { fire_times.push_back(clock.now()); });
  EXPECT_EQ(driver.next_deadline(), 3 * kMillisecond);

  (void)driver.advance(10 * kMillisecond);
  // Each callback observed its own deadline, not the advance target:
  // the driver stopped the clock at every deadline along the way.
  EXPECT_EQ(fire_times, (std::vector<Nanos>{3 * kMillisecond, 7 * kMillisecond}));
  EXPECT_EQ(clock.now(), 10 * kMillisecond);
  EXPECT_EQ(driver.next_deadline(), kNoDeadline);
}

TEST(EventLoopQueued, PeriodicTimerFiresOncePerPeriod) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  int fires = 0;
  TimerId id = loop.schedule_periodic(2 * kMillisecond, [&fires] { ++fires; });
  (void)driver.advance(9 * kMillisecond);
  EXPECT_EQ(fires, 4);  // t=2,4,6,8
  EXPECT_TRUE(loop.cancel_timer(id));
  (void)driver.advance(9 * kMillisecond);
  EXPECT_EQ(fires, 4);
}

TEST(EventLoopQueued, TimerTaskChainsRunBeforeTimeMovesOn) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  Nanos posted_at = -1;
  (void)loop.schedule(2 * kMillisecond, [&] {
    // Work a timer posts must run at the deadline's virtual time.
    loop.dispatch([&] { posted_at = clock.now(); });
  });
  (void)driver.advance(10 * kMillisecond);
  EXPECT_EQ(posted_at, 2 * kMillisecond);
}

TEST(EventLoopQueued, DetachRevertsToEagerAndRunsSurvivors) {
  VirtualClock clock;
  EventLoop loop("t");
  int ran = 0;
  {
    SimDriver driver(clock);
    driver.add_loop(loop);
    loop.dispatch([&ran] { ++ran; });
    EXPECT_EQ(ran, 0);
  }  // driver destroyed: loop detaches, queued task survives
  EXPECT_FALSE(loop.has_driver());
  loop.post([&ran] { ++ran; });  // eager post drains the survivor too
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopQueued, FdWatchUnsupportedUnderSimDriver) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  Status status = loop.watch_fd(3, kFdRead, [](unsigned) {});
  EXPECT_FALSE(status.ok());
}

TEST(EventLoopQueued, NowFollowsVirtualClock) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);
  EXPECT_EQ(loop.now(), 0);
  clock.advance(5 * kMillisecond);
  EXPECT_EQ(loop.now(), 5 * kMillisecond);
}

// The loop's timer wheel, seen through EventLoop's timer API. The loop
// runs under a SimDriver so schedule() measures delays from virtual
// time 0; fire_timers() is then called with explicit collection times.

TEST(TimerWheel, FiresInDeadlineThenIdOrder) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  std::vector<int> order;
  // Armed out of deadline order on purpose; same-deadline ties break by id.
  TimerId late = loop.schedule(5 * kMillisecond, [&order] { order.push_back(3); });
  TimerId early = loop.schedule(kMillisecond, [&order] { order.push_back(1); });
  TimerId tied = loop.schedule(5 * kMillisecond, [&order] { order.push_back(4); });
  ASSERT_LT(late, tied);
  ASSERT_LT(early, tied);

  EXPECT_EQ(loop.fire_timers(10 * kMillisecond), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
  EXPECT_EQ(loop.stats().timers_fired, 3u);
}

TEST(TimerWheel, NothingFiresBeforeItsDeadline) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  int fired = 0;
  (void)loop.schedule(10 * kMillisecond, [&fired] { ++fired; });
  EXPECT_EQ(loop.fire_timers(9 * kMillisecond), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.next_timer_deadline(), 10 * kMillisecond);
  EXPECT_EQ(loop.fire_timers(10 * kMillisecond), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, NextDeadlineTracksArmedTimers) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
  TimerId a = loop.schedule(7 * kMillisecond, [] {});
  (void)loop.schedule(3 * kMillisecond, [] {});
  EXPECT_EQ(loop.next_timer_deadline(), 3 * kMillisecond);
  ASSERT_EQ(loop.fire_timers(3 * kMillisecond), 1u);
  EXPECT_EQ(loop.next_timer_deadline(), 7 * kMillisecond);
  EXPECT_TRUE(loop.cancel_timer(a));
  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
}

TEST(TimerWheel, CancelledTimerNeverFires) {
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  int fired = 0;
  TimerId id = loop.schedule(kMillisecond, [&fired] { ++fired; });
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));  // second cancel: already gone
  EXPECT_EQ(loop.fire_timers(10 * kMillisecond), 0u);
  EXPECT_EQ(fired, 0);
  LoopStats stats = loop.stats();
  EXPECT_EQ(stats.timers_cancelled, 1u);
  EXPECT_EQ(stats.timers_fired, 0u);
}

TEST(TimerWheel, ClockLeapBeyondOneRotationStillFiresEverything) {
  // The loop's wheel spans 1ms x 256 slots per level over 4 levels
  // (~50 days); a one-year leap overshoots every level, yet each armed
  // timer must still fire exactly once, in deadline order.
  VirtualClock clock;
  SimDriver driver(clock);
  EventLoop loop("t");
  driver.add_loop(loop);

  std::vector<Nanos> fired;
  constexpr int kTimers = 40;
  for (int i = 0; i < kTimers; ++i) {
    Nanos delay = (i + 1) * 3 * kMillisecond;
    (void)loop.schedule(delay, [&fired, delay] { fired.push_back(delay); });
  }
  EXPECT_EQ(loop.fire_timers(365LL * 24 * 3600 * kSecond),
            static_cast<std::size_t>(kTimers));
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kTimers));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LT(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(loop.next_timer_deadline(), kNoDeadline);
}

}  // namespace
}  // namespace h2::loop
