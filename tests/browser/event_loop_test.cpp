//===- tests/browser/event_loop_test.cpp ----------------------------------==//
//
// Tests for the simulated browser execution model (§3.1, §4.4): FIFO
// run-to-completion dispatch, timer clamping, the watchdog, and the
// message-channel / setImmediate resumption mechanisms.
//
//===----------------------------------------------------------------------===//

#include "browser/env.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::browser;

namespace {

TEST(EventLoop, TasksRunInFifoOrder) {
  BrowserEnv Env(chromeProfile());
  std::vector<int> Order;
  Env.loop().enqueueTask([&] { Order.push_back(1); });
  Env.loop().enqueueTask([&] { Order.push_back(2); });
  Env.loop().enqueueTask([&] { Order.push_back(3); });
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, EventsRunToCompletionBeforeLaterEvents) {
  BrowserEnv Env(chromeProfile());
  std::vector<int> Order;
  Env.loop().enqueueTask([&] {
    Env.loop().enqueueTask([&] { Order.push_back(2); });
    Order.push_back(1); // Runs before the nested task despite being queued
                        // after it: events are never preempted.
  });
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, SetTimeoutAppliesFourMillisecondClamp) {
  // §4.4: even with a requested delay of 0 the spec imposes >= 4 ms, which
  // is what makes setTimeout unacceptable for suspend-and-resume.
  BrowserEnv Env(chromeProfile());
  uint64_t FiredAt = 0;
  Env.loop().setTimeout([&] { FiredAt = Env.clock().nowNs(); },
                        /*DelayNs=*/0);
  Env.loop().run();
  EXPECT_GE(FiredAt, msToNs(4));
}

TEST(EventLoop, SetTimeoutHonorsLongerDelays) {
  BrowserEnv Env(chromeProfile());
  uint64_t FiredAt = 0;
  Env.loop().setTimeout([&] { FiredAt = Env.clock().nowNs(); }, msToNs(50));
  Env.loop().run();
  EXPECT_GE(FiredAt, msToNs(50));
  EXPECT_LT(FiredAt, msToNs(51));
}

TEST(EventLoop, TimersFireInDueOrderThenInsertionOrder) {
  BrowserEnv Env(chromeProfile());
  std::vector<int> Order;
  Env.loop().setTimeout([&] { Order.push_back(1); }, msToNs(20));
  Env.loop().setTimeout([&] { Order.push_back(2); }, msToNs(10));
  Env.loop().setTimeout([&] { Order.push_back(3); }, msToNs(10));
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1}));
}

TEST(EventLoop, ClearTimeoutCancels) {
  BrowserEnv Env(chromeProfile());
  bool Fired = false;
  TimerHandle H = Env.loop().setTimeout([&] { Fired = true; }, msToNs(10));
  EXPECT_TRUE(H.cancel());
  Env.loop().run();
  EXPECT_FALSE(Fired);
}

TEST(EventLoop, ScheduleAfterIsNotClamped) {
  BrowserEnv Env(chromeProfile());
  uint64_t FiredAt = ~0ull;
  Env.loop().scheduleAfter([&] { FiredAt = Env.clock().nowNs(); },
                           usToNs(100));
  Env.loop().run();
  EXPECT_EQ(FiredAt, usToNs(100));
}

TEST(EventLoop, WatchdogFlagsLongEvents) {
  // §3.1: browsers stop scripts that block the page too long.
  BrowserEnv Env(chromeProfile());
  Env.loop().enqueueTask(
      [&] { Env.clock().chargeNs(Env.profile().WatchdogLimitNs + 1); });
  Env.loop().run();
  EXPECT_TRUE(Env.loop().watchdogFired());
  EXPECT_EQ(Env.loop().stats().WatchdogKills, 1u);
}

TEST(EventLoop, ShortEventsDoNotTripWatchdog) {
  BrowserEnv Env(chromeProfile());
  for (int I = 0; I != 100; ++I)
    Env.loop().enqueueTask([&] { Env.clock().chargeNs(msToNs(10)); });
  Env.loop().run();
  EXPECT_FALSE(Env.loop().watchdogFired());
  EXPECT_EQ(Env.loop().stats().EventsRun, 100u);
}

TEST(EventLoop, CurrentEventOverLimitIsVisibleToCooperativeCode) {
  BrowserEnv Env(chromeProfile());
  bool SawOverLimit = false;
  Env.loop().enqueueTask([&] {
    EXPECT_FALSE(Env.loop().currentEventOverLimit());
    Env.clock().chargeNs(Env.profile().WatchdogLimitNs + 1);
    SawOverLimit = Env.loop().currentEventOverLimit();
  });
  Env.loop().run();
  EXPECT_TRUE(SawOverLimit);
}

TEST(EventLoop, InputLatencyMeasuresQueuingDelay) {
  // A long-running event delays user input: the paper's responsiveness
  // problem (§3.1). Input due at t=10ms is dispatched only after the
  // 100 ms event finishes.
  BrowserEnv Env(chromeProfile());
  Env.loop().setTimeout([] {}, msToNs(10), EventKind::Input);
  Env.loop().enqueueTask([&] { Env.clock().chargeNs(msToNs(100)); });
  Env.loop().run();
  EXPECT_GE(Env.loop().stats().MaxInputLatencyNs, msToNs(89));
}

TEST(EventLoop, IdleInputIsDispatchedPromptly) {
  BrowserEnv Env(chromeProfile());
  for (int I = 1; I <= 5; ++I)
    Env.loop().setTimeout([&] { Env.clock().chargeNs(usToNs(100)); },
                          msToNs(10 * I), EventKind::Input);
  Env.loop().run();
  EXPECT_LE(Env.loop().stats().MaxInputLatencyNs, usToNs(500));
}

TEST(MessageChannel, DeliversAsEventOnModernBrowsers) {
  BrowserEnv Env(chromeProfile());
  std::vector<std::string> Order;
  Env.channel().setOnMessage(
      [&](const js::String &M) { Order.push_back(js::toAscii(M)); });
  Env.loop().enqueueTask([&] {
    Env.channel().post(js::fromAscii("resume-1"));
    Order.push_back("after-post");
  });
  Env.loop().run();
  ASSERT_EQ(Order.size(), 2u);
  // Asynchronous: the posting event finishes before the handler runs.
  EXPECT_EQ(Order[0], "after-post");
  EXPECT_EQ(Order[1], "resume-1");
  EXPECT_EQ(Env.channel().syncDispatchCount(), 0u);
}

TEST(MessageChannel, Ie8DispatchesSynchronously) {
  // §4.4: sendMessage is synchronous in IE8, so the handler runs inside
  // post() — before the posting event completes.
  BrowserEnv Env(ie8Profile());
  std::vector<std::string> Order;
  Env.channel().setOnMessage(
      [&](const js::String &M) { Order.push_back(js::toAscii(M)); });
  Env.loop().enqueueTask([&] {
    Env.channel().post(js::fromAscii("resume-1"));
    Order.push_back("after-post");
  });
  Env.loop().run();
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], "resume-1");
  EXPECT_EQ(Order[1], "after-post");
  EXPECT_EQ(Env.channel().syncDispatchCount(), 1u);
}

TEST(MessageChannel, MessageDeliveryBeatsTimeoutClamp) {
  // The entire reason Doppio prefers sendMessage (§4.4): it reaches the
  // back of the queue without the 4 ms timer clamp.
  BrowserEnv Env(chromeProfile());
  uint64_t MessageAt = 0, TimerAt = 0;
  Env.channel().setOnMessage(
      [&](const js::String &) { MessageAt = Env.clock().nowNs(); });
  Env.loop().enqueueTask([&] {
    Env.loop().setTimeout([&] { TimerAt = Env.clock().nowNs(); }, 0);
    Env.channel().post(js::fromAscii("m"));
  });
  Env.loop().run();
  EXPECT_LT(MessageAt, TimerAt);
}

TEST(SetImmediate, OnlyAvailableOnIe10) {
  for (const Profile &P : allProfiles()) {
    BrowserEnv Env(P);
    bool Ran = false;
    bool Accepted = Env.loop().trySetImmediate([&] { Ran = true; });
    Env.loop().run();
    EXPECT_EQ(Accepted, P.HasSetImmediate) << P.Name;
    EXPECT_EQ(Ran, P.HasSetImmediate) << P.Name;
  }
  EXPECT_TRUE(ie10Profile().HasSetImmediate);
  EXPECT_FALSE(chromeProfile().HasSetImmediate);
}

TEST(Profiles, MatchPaperFeatureMatrix) {
  EXPECT_FALSE(ie8Profile().HasTypedArrays);
  EXPECT_TRUE(ie8Profile().SendMessageSynchronous);
  EXPECT_FALSE(ie8Profile().HasWebSockets);
  EXPECT_TRUE(safariProfile().LeaksTypedArrays);
  EXPECT_TRUE(chromeProfile().HasIndexedDB);
  EXPECT_FALSE(safariProfile().HasIndexedDB);
  EXPECT_EQ(allProfiles().size(), 6u);
  EXPECT_NE(findProfile("opera"), nullptr);
  EXPECT_EQ(findProfile("netscape"), nullptr);
}

TEST(PagingModel, LeakedTypedArraysSlowSafariDown) {
  BrowserEnv Env(safariProfile());
  EXPECT_DOUBLE_EQ(Env.pagingMultiplier(), 1.0);
  Env.noteTypedArrayAlloc(Env.profile().MemoryPressureBytes + (64u << 20));
  Env.noteTypedArrayFree(Env.profile().MemoryPressureBytes + (64u << 20));
  // Freed, but Safari never reclaims typed arrays: pressure persists.
  EXPECT_GT(Env.pagingMultiplier(), 1.0);
  EXPECT_GT(Env.leakedTypedArrayBytes(), Env.profile().MemoryPressureBytes);
}

TEST(PagingModel, NonLeakingBrowsersReclaim) {
  BrowserEnv Env(chromeProfile());
  Env.noteTypedArrayAlloc(1ull << 30);
  Env.noteTypedArrayFree(1ull << 30);
  EXPECT_DOUBLE_EQ(Env.pagingMultiplier(), 1.0);
  EXPECT_EQ(Env.liveTypedArrayBytes(), 0u);
}

TEST(TimerHandle, DoubleCancelOnlyFirstPreventsAFire) {
  BrowserEnv Env(chromeProfile());
  bool Fired = false;
  TimerHandle H = Env.loop().postAfter(kernel::Lane::Timer,
                                       [&] { Fired = true; }, msToNs(5));
  EXPECT_TRUE(H.armed());
  EXPECT_TRUE(H.cancel());
  // The second cancel prevented nothing: it must say so.
  EXPECT_FALSE(H.cancel());
  EXPECT_FALSE(H.armed());
  Env.loop().run();
  EXPECT_FALSE(Fired);
  // And a third, after the loop drained, is still false.
  EXPECT_FALSE(H.cancel());
}

TEST(TimerHandle, CancelAfterFireReportsNothingPrevented) {
  BrowserEnv Env(chromeProfile());
  bool Fired = false;
  TimerHandle H = Env.loop().postAfter(kernel::Lane::Timer,
                                       [&] { Fired = true; }, msToNs(5));
  Env.loop().run();
  EXPECT_TRUE(Fired);
  // Still bound to its (spent) timer, but no longer armed.
  EXPECT_TRUE(static_cast<bool>(H));
  EXPECT_FALSE(H.armed());
  EXPECT_FALSE(H.cancel());
}

TEST(TimerHandle, NotArmedInsideItsOwnCallback) {
  // Callbacks that re-arm themselves (doppiod's idle sweep, the storage
  // flush timer) test armed() from inside the fire.
  BrowserEnv Env(chromeProfile());
  TimerHandle H;
  bool ArmedInside = true;
  H = Env.loop().setTimeout([&] { ArmedInside = H.armed(); }, msToNs(5));
  EXPECT_TRUE(H.armed());
  Env.loop().run();
  EXPECT_FALSE(ArmedInside);
  EXPECT_FALSE(H.cancel());
}

TEST(TimerHandle, MoveAssignmentReleasesOldHandleWithoutCancelling) {
  BrowserEnv Env(chromeProfile());
  bool FiredA = false;
  bool FiredB = false;
  TimerHandle A = Env.loop().postAfter(kernel::Lane::Timer,
                                       [&] { FiredA = true; }, msToNs(5));
  TimerHandle B = Env.loop().postAfter(kernel::Lane::Timer,
                                       [&] { FiredB = true; }, msToNs(10));
  uint64_t IdB = B.id();
  // Overwriting A releases its timer — released, not cancelled: dropping
  // a handle lets the timer fire (the documented non-owning-destructor
  // semantics).
  A = std::move(B);
  EXPECT_EQ(A.id(), IdB);
  EXPECT_TRUE(A.armed());
  EXPECT_FALSE(B.armed()); // NOLINT(bugprone-use-after-move): moved-from
                           // handles must report disarmed, that's the API.
  EXPECT_FALSE(B.cancel());
  // A now controls B's timer: cancelling it stops B's callback while the
  // released one still fires.
  EXPECT_TRUE(A.cancel());
  Env.loop().run();
  EXPECT_TRUE(FiredA);
  EXPECT_FALSE(FiredB);
}

} // namespace
