//===- tests/doppio/kernel_test.cpp ---------------------------------------==//
//
// Tests for the unified scheduling kernel: lane priority, FIFO-within-lane
// ordering, the (DueNs, Seq) timer min-heap, cancellation by handle before
// and after promotion, cancelled timer reaping, and the exported counters.
// Run with `ctest -L kernel`.
//
//===----------------------------------------------------------------------===//

#include "doppio/kernel/kernel.h"

#include "browser/env.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::kernel;

namespace {

/// Drains the kernel the way the event-loop facade does, recording each
/// dispatch so the counters are populated.
void drain(Kernel &K, browser::VirtualClock &Clock) {
  while (auto W = K.next()) {
    uint64_t Start = Clock.nowNs();
    W->Fn();
    K.noteDispatched(*W, Start, Clock.nowNs());
  }
}

TEST(Kernel, LanesDrainInStrictPriorityOrder) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<std::string> Order;
  // Posted in reverse-priority order; dispatch must follow lane priority.
  K.post(Lane::Background, [&] { Order.push_back("background"); });
  K.post(Lane::Timer, [&] { Order.push_back("timer"); });
  K.post(Lane::Resume, [&] { Order.push_back("resume"); });
  K.post(Lane::IoCompletion, [&] { Order.push_back("io"); });
  K.post(Lane::Input, [&] { Order.push_back("input"); });
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<std::string>{"input", "io", "resume",
                                             "timer", "background"}));
}

TEST(Kernel, QueuedInputBeatsPendingBackgroundCompletions) {
  // The acceptance scenario: a flood of background completions is already
  // queued when an input event arrives — the input still dispatches first.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<std::string> Order;
  for (int I = 0; I < 100; ++I)
    K.post(Lane::Background, [&] { Order.push_back("completion"); });
  K.post(Lane::Input, [&] { Order.push_back("input"); });
  drain(K, Clock);
  ASSERT_EQ(Order.size(), 101u);
  EXPECT_EQ(Order.front(), "input");
}

TEST(Kernel, FifoWithinLane) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  for (int I = 0; I < 5; ++I)
    K.post(Lane::Resume, [&Order, I] { Order.push_back(I); });
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, TimersFireInDueOrderThenInsertionOrder) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  K.postAfter(Lane::Timer, [&] { Order.push_back(1); }, browser::msToNs(20));
  K.postAfter(Lane::Timer, [&] { Order.push_back(2); }, browser::msToNs(10));
  K.postAfter(Lane::Timer, [&] { Order.push_back(3); }, browser::msToNs(10));
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1}));
}

TEST(Kernel, IdleGapsAdvanceTheVirtualClock) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  uint64_t FiredAt = 0;
  K.postAfter(Lane::Timer, [&] { FiredAt = Clock.nowNs(); },
              browser::msToNs(50));
  drain(K, Clock);
  EXPECT_EQ(FiredAt, browser::msToNs(50));
}

TEST(Kernel, SameInstantTimerCancelledByItsPeerNeverRuns) {
  // Two timers due at the same instant are promoted together; the first
  // one's callback cancels the second, which is already queued.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  bool SecondRan = false;
  uint64_t Second = 0;
  std::vector<bool> Cancels;
  K.postAfter(Lane::Timer,
              [&] {
                Cancels.push_back(K.cancelTimer(Second));
                Cancels.push_back(K.cancelTimer(Second));
              },
              browser::msToNs(5));
  Second = K.postAfter(Lane::Timer, [&] { SecondRan = true; },
                       browser::msToNs(5));
  drain(K, Clock);
  EXPECT_FALSE(SecondRan);
  EXPECT_EQ(Cancels, (std::vector<bool>{true, false}));
  const Counters &C = K.counters();
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].CancelledSkipped, 1u);
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].Dispatched, 1u);
  EXPECT_EQ(C.TimersCancelled, 0u);
}

TEST(Kernel, CancelTimerByHandle) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  bool Ran = false;
  uint64_t H = K.postAfter(Lane::Timer, [&] { Ran = true; },
                           browser::msToNs(10));
  EXPECT_TRUE(K.cancelTimer(H));
  EXPECT_FALSE(K.cancelTimer(H)) << "second cancel is a no-op";
  EXPECT_FALSE(K.cancelTimer(9999)) << "unknown handle is a no-op";
  drain(K, Clock);
  EXPECT_FALSE(Ran);
  EXPECT_EQ(K.counters().TimersCancelled, 1u);
}

TEST(Kernel, CancelledEntriesDoNotAccumulate) {
  // The cancel-leak regression: the old event loop kept
  // Cancelled entries in its timer vector until their due time passed —
  // a server arming and cancelling far-future timers grew without bound.
  // The kernel reaps on promotion and compacts when cancelled entries
  // outnumber live ones.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  for (int I = 0; I < 10000; ++I) {
    // Far-future due times: the old implementation never discarded these.
    uint64_t H = K.postAfter(Lane::Timer, [] {},
                             browser::msToNs(1000 + I));
    EXPECT_TRUE(K.cancelTimer(H));
  }
  EXPECT_EQ(K.pendingTimers(), 0u);
  EXPECT_LT(K.cancelledTimers(), 64u)
      << "lazy deletion must be bounded by compaction";
  EXPECT_GE(K.counters().HeapCompactions, 1u);
  EXPECT_TRUE(K.idle());
  // And the loop terminates immediately: no spinning over dead timers.
  EXPECT_FALSE(K.next().has_value());
}

TEST(Kernel, MixedCancelledAndLiveTimersStayOrdered) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  std::vector<uint64_t> ToCancel;
  for (int I = 0; I < 100; ++I) {
    uint64_t H = K.postAfter(Lane::Timer, [&Order, I] { Order.push_back(I); },
                             browser::msToNs(1 + I));
    if (I % 2)
      ToCancel.push_back(H);
  }
  for (uint64_t H : ToCancel)
    K.cancelTimer(H);
  drain(K, Clock);
  ASSERT_EQ(Order.size(), 50u);
  for (size_t I = 0; I + 1 < Order.size(); ++I) {
    EXPECT_LT(Order[I], Order[I + 1]);
    EXPECT_EQ(Order[I] % 2, 0);
  }
}

TEST(Kernel, CountersAggregatePerLane) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  K.post(Lane::Input, [&] { Clock.chargeNs(browser::usToNs(100)); });
  K.post(Lane::Input, [&] { Clock.chargeNs(browser::usToNs(300)); });
  K.postAfter(Lane::Timer, [] {}, browser::msToNs(1));
  drain(K, Clock);
  const Counters &C = K.counters();
  EXPECT_EQ(C.Lanes[size_t(Lane::Input)].Posted, 2u);
  EXPECT_EQ(C.Lanes[size_t(Lane::Input)].Dispatched, 2u);
  EXPECT_EQ(C.Lanes[size_t(Lane::Input)].TotalRunNs, browser::usToNs(400));
  EXPECT_EQ(C.Lanes[size_t(Lane::Input)].MaxRunNs, browser::usToNs(300));
  EXPECT_EQ(C.Lanes[size_t(Lane::Input)].MaxQueueDelayNs,
            browser::usToNs(100));
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].Posted, 1u);
  EXPECT_EQ(C.TimersScheduled, 1u);
  EXPECT_EQ(C.totalDispatched(), 3u);
  EXPECT_STREQ(laneName(Lane::Input), "input");
  EXPECT_STREQ(laneName(Lane::Background), "background");
}

// --- Facade integration: the browser event loop over kernel lanes. ------===//

TEST(EventLoopFacade, ClearTimeoutReapsFarFutureTimers) {
  // The same regression at the EventLoop level: cancelled timeouts used
  // to stay in the timer vector until their due time arrived; with kernel
  // handles they are reaped eagerly.
  browser::BrowserEnv Env(browser::chromeProfile());
  for (int I = 0; I < 10000; ++I)
    EXPECT_TRUE(Env.loop()
                    .setTimeout([] {}, browser::msToNs(100000 + I))
                    .cancel());
  const kernel::Kernel &K = Env.loop().kernel();
  EXPECT_EQ(K.pendingTimers(), 0u);
  EXPECT_LT(K.cancelledTimers(), 64u);
  uint64_t Before = Env.clock().nowNs();
  Env.loop().run(); // Must return immediately, not spin to t=100s.
  EXPECT_EQ(Env.clock().nowNs(), Before);
}

TEST(EventLoopFacade, InputLanePreemptsQueuedBackgroundTasks) {
  browser::BrowserEnv Env(browser::chromeProfile());
  std::vector<std::string> Order;
  for (int I = 0; I < 10; ++I)
    Env.loop().enqueueTask([&] { Order.push_back("task"); });
  Env.loop().enqueueTask([&] { Order.push_back("input"); },
                         browser::EventKind::Input);
  Env.loop().run();
  ASSERT_EQ(Order.size(), 11u);
  EXPECT_EQ(Order.front(), "input");
}

TEST(EventLoopFacade, StatsShapePreservedAndTraceExported) {
  browser::BrowserEnv Env(browser::chromeProfile());
  Env.loop().enqueueTask(
      [&] { Env.clock().chargeNs(browser::msToNs(10)); });
  Env.loop().run();
  const browser::EventLoop::Stats &S = Env.loop().stats();
  EXPECT_EQ(S.EventsRun, 1u);
  EXPECT_EQ(S.MaxEventNs, browser::msToNs(10));
  EXPECT_EQ(S.TotalEventNs, browser::msToNs(10));
  EXPECT_EQ(S.WatchdogKills, 0u);
  // Every facade dispatch reaches the kernel's lane counters.
  const kernel::Counters &C = Env.loop().kernel().counters();
  EXPECT_EQ(C.totalDispatched(), 1u);
  EXPECT_EQ(C.Lanes[size_t(Lane::Background)].TotalRunNs,
            browser::msToNs(10));
}

TEST(EventLoopFacade, PostAfterHandleCancelsAPromotedTimer) {
  // The timer is due and promoted behind a long input event; cancelling
  // the handle from that event still stops it.
  browser::BrowserEnv Env(browser::chromeProfile());
  bool Ran = false;
  browser::TimerHandle H = Env.loop().postAfter(
      kernel::Lane::Timer, [&] { Ran = true; }, browser::msToNs(1));
  Env.loop().scheduleAfter(
      [&] {
        Env.clock().chargeNs(browser::msToNs(5));
        Env.loop().enqueueTask([&] { EXPECT_TRUE(H.cancel()); },
                               browser::EventKind::Input);
      },
      0, browser::EventKind::Input);
  Env.loop().run();
  EXPECT_FALSE(Ran);
  EXPECT_FALSE(H.armed());
  const kernel::Counters &C = Env.loop().kernel().counters();
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].CancelledSkipped, 1u);
  EXPECT_EQ(C.TimersCancelled, 0u);
}

} // namespace
