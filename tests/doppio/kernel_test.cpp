//===- tests/doppio/kernel_test.cpp ---------------------------------------==//
//
// Tests for the unified scheduling kernel: lane priority, FIFO-within-lane
// ordering, the (DueNs, Seq) timer min-heap, cancellation by handle before
// and after promotion, cancelled timer reaping, timer-slot reuse under
// generation handles, a seeded model check of dispatch order, and the
// exported counters.
// Run with `ctest -L kernel`.
//
//===----------------------------------------------------------------------===//

#include "doppio/kernel/kernel.h"

#include "browser/env.h"

#include "gtest/gtest.h"

#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
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

/// The slot index a handle names (its low 32 bits, minus one).
uint64_t slotOf(uint64_t Handle) { return (Handle & 0xffffffffu) - 1; }

TEST(Kernel, StaleHandleDoesNotCancelTheSlotsNextTimer) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  // Dispatched: the slot is freed at dispatch and reused by the next timer.
  uint64_t Fired = K.postAfter(Lane::Timer, [] {}, browser::msToNs(1));
  drain(K, Clock);
  bool Ran = false;
  uint64_t Reuser = K.postAfter(Lane::Timer, [&] { Ran = true; },
                                browser::msToNs(1));
  ASSERT_EQ(slotOf(Reuser), slotOf(Fired)) << "the freed slot is reused";
  EXPECT_NE(Reuser, Fired);
  EXPECT_FALSE(K.timerArmed(Fired));
  EXPECT_FALSE(K.cancelTimer(Fired));
  EXPECT_TRUE(K.timerArmed(Reuser));
  drain(K, Clock);
  EXPECT_TRUE(Ran);

  // Cancelled in the heap: the slot is freed once the entry is reaped.
  uint64_t Cancelled = K.postAfter(Lane::Timer, [] {}, browser::msToNs(1));
  ASSERT_TRUE(K.cancelTimer(Cancelled));
  EXPECT_FALSE(K.next().has_value()); // Reaps the cancelled top.
  Ran = false;
  Reuser = K.postAfter(Lane::Timer, [&] { Ran = true; }, browser::msToNs(1));
  ASSERT_EQ(slotOf(Reuser), slotOf(Cancelled));
  EXPECT_FALSE(K.cancelTimer(Cancelled));
  drain(K, Clock);
  EXPECT_TRUE(Ran);
  EXPECT_EQ(K.counters().TimersCancelled, 1u);
  EXPECT_EQ(K.counters().TimersReaped, 1u);
}

TEST(Kernel, CancellingAPromotedTimerFreesItsSlot) {
  // Two timers due at once are promoted together; the first cancels the
  // second (already queued) and arms a third, which takes the second's
  // slot while the second's lane item is still queued.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<std::string> Order;
  uint64_t Second = 0;
  uint64_t Third = 0;
  K.postAfter(Lane::Timer,
              [&] {
                Order.push_back("first");
                EXPECT_TRUE(K.cancelTimer(Second));
                Third = K.postAfter(
                    Lane::Timer, [&] { Order.push_back("third"); }, 0);
              },
              browser::msToNs(5));
  Second = K.postAfter(Lane::Timer, [&] { Order.push_back("second"); },
                       browser::msToNs(5));
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<std::string>{"first", "third"}));
  EXPECT_EQ(slotOf(Third), slotOf(Second));
  EXPECT_FALSE(K.timerArmed(Second));
  const Counters &C = K.counters();
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].CancelledSkipped, 1u);
  EXPECT_EQ(C.Lanes[size_t(Lane::Timer)].Dispatched, 2u);
  EXPECT_TRUE(K.idle());
}

/// Arms \p Count timers from its destructor: a closure holding it re-enters
/// the kernel, and grows the slot table, when the last copy dies.
struct PostsOnDestroy {
  PostsOnDestroy(Kernel &K, int Count, int &Fired)
      : K(K), Count(Count), Fired(Fired) {}
  PostsOnDestroy(const PostsOnDestroy &) = delete;
  PostsOnDestroy &operator=(const PostsOnDestroy &) = delete;
  ~PostsOnDestroy() {
    for (int I = 0; I < Count; ++I)
      K.postAfter(Lane::Timer, [&F = Fired] { ++F; }, browser::msToNs(1));
  }
  Kernel &K;
  int Count;
  int &Fired;
};

TEST(Kernel, ClosureDestructorMayArmTimersDuringCancel) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  int Fired = 0;
  // 70 live timers; the 36th cancel tips cancelled entries past half and
  // compacts the heap. Its closure's destructor then arms 100 more.
  std::vector<uint64_t> Handles;
  for (int I = 0; I < 69; ++I)
    Handles.push_back(
        K.postAfter(Lane::Timer, [&] { ++Fired; }, browser::msToNs(2)));
  auto Guard = std::make_shared<PostsOnDestroy>(K, 100, Fired);
  uint64_t Reentrant = K.postAfter(
      Lane::Timer, [Guard] { FAIL() << "cancelled timer ran"; },
      browser::msToNs(2));
  Guard.reset();
  for (int I = 0; I < 35; ++I)
    ASSERT_TRUE(K.cancelTimer(Handles[I]));
  EXPECT_EQ(K.counters().HeapCompactions, 0u);
  ASSERT_TRUE(K.cancelTimer(Reentrant));
  EXPECT_EQ(K.counters().HeapCompactions, 1u);
  EXPECT_EQ(K.pendingTimers(), 34u + 100u);
  // A promoted timer's closure dies on the skip inside next() instead.
  Guard = std::make_shared<PostsOnDestroy>(K, 10, Fired);
  uint64_t Skipped = K.postAfter(
      Lane::Timer, [Guard] { FAIL() << "cancelled timer ran"; }, 0);
  Guard.reset();
  K.post(Lane::Input, [&] { EXPECT_TRUE(K.cancelTimer(Skipped)); });
  drain(K, Clock);
  EXPECT_EQ(Fired, 34 + 100 + 10);
  EXPECT_TRUE(K.idle());
}

/// Drives a kernel and a reference model with the same seeded mix of
/// posts, timers and cancels (also from inside callbacks) and checks every
/// dispatch against the model. Timers use the Timer lane and plain posts
/// the Background lane, so the model's rule is: the earliest (due, seq)
/// timer if it is due, else the oldest post, else the earliest timer after
/// an idle jump to its due time.
class KernelModel {
public:
  explicit KernelModel(uint64_t Seed) : Rng(Seed), K(Clock) {}

  void run(int Ops) {
    while (OpsDone < Ops) {
      randomOps(1);
      step();
    }
    while (step()) {
    }
    EXPECT_TRUE(Armed.empty());
    EXPECT_TRUE(Posts.empty());
    EXPECT_TRUE(K.idle());
    const Counters &C = K.counters();
    EXPECT_EQ(C.TimersScheduled, Handles.size());
    EXPECT_EQ(C.TimersCancelled + C.Lanes[size_t(Lane::Timer)].CancelledSkipped,
              SuccessfulCancels);
    EXPECT_EQ(C.totalDispatched(), Dispatched);
    EXPECT_GT(SuccessfulCancels, 1000u);
    EXPECT_GE(C.HeapCompactions, 1u);
  }

private:
  using Key = std::pair<uint64_t, uint64_t>; // (due, seq)

  uint64_t pick(uint64_t N) { return Rng() % N; }

  void randomOps(int N) {
    for (int I = 0; I < N; ++I, ++OpsDone) {
      uint64_t Roll = pick(200);
      if (Roll == 0) {
        // Arm a burst of far-future timers and cancel most of them, the
        // way a server arms and clears idle timers: the heap passes the
        // compaction threshold.
        size_t First = Handles.size();
        for (int B = 0; B < 80; ++B)
          postTimer(browser::msToNs(20) + pick(browser::msToNs(20)));
        for (size_t B = First; B < Handles.size(); ++B)
          if (pick(4) != 0)
            cancel(B);
      } else if (Roll < 80)
        postTimer(pick(4) == 0 ? 0 : pick(browser::msToNs(5)));
      else if (Roll < 110)
        postWork();
      else if (Roll < 180 && !Handles.empty())
        // Mostly recent handles, which are likelier to be live; the rest
        // are any handle ever issued, stale ones included.
        cancel(pick(4) == 0 ? pick(Handles.size())
                            : Handles.size() - 1 -
                                  pick(std::min<uint64_t>(Handles.size(), 64)));
    }
  }

  void postTimer(uint64_t Delay) {
    int Id = static_cast<int>(Handles.size());
    Key At{Clock.nowNs() + Delay, NextSeq++};
    Handles.push_back(K.postAfter(
        Lane::Timer, [this, Id] { ran(Id, /*Timer=*/true); }, Delay));
    Armed.emplace(At, Id);
    Live.emplace(Id, At);
  }

  void postWork() {
    int Id = NextPost++;
    K.post(Lane::Background, [this, Id] { ran(Id, /*Timer=*/false); });
    Posts.push_back(Id);
  }

  void cancel(uint64_t Id) {
    auto It = Live.find(static_cast<int>(Id));
    bool Want = It != Live.end();
    ASSERT_EQ(K.timerArmed(Handles[Id]), Want);
    ASSERT_EQ(K.cancelTimer(Handles[Id]), Want);
    if (!Want)
      return;
    ++SuccessfulCancels;
    Armed.erase(It->second);
    Live.erase(It);
  }

  void ran(int Id, bool Timer) {
    LastRan = {Id, Timer};
    if (Timer) {
      EXPECT_FALSE(K.timerArmed(Handles[Id]));
      EXPECT_FALSE(K.cancelTimer(Handles[Id]));
    }
    if (pick(8) == 0)
      Clock.chargeNs(pick(browser::usToNs(50)));
    randomOps(static_cast<int>(pick(2)));
  }

  /// Pops the model's next dispatch, or false when it holds no work.
  bool expectNext(std::pair<int, bool> &Want, uint64_t &WantNs) {
    WantNs = Clock.nowNs();
    if (!Armed.empty() && (Armed.begin()->first.first <= WantNs ||
                           Posts.empty())) {
      WantNs = std::max(WantNs, Armed.begin()->first.first);
      Want = {Armed.begin()->second, true};
      Live.erase(Armed.begin()->second);
      Armed.erase(Armed.begin());
      return true;
    }
    if (Posts.empty())
      return false;
    Want = {Posts.front(), false};
    Posts.pop_front();
    return true;
  }

  bool step() {
    std::pair<int, bool> Want;
    uint64_t WantNs = 0;
    bool Has = expectNext(Want, WantNs);
    std::optional<Kernel::Work> W = K.next();
    EXPECT_EQ(W.has_value(), Has);
    if (!W || !Has)
      return false;
    EXPECT_EQ(Clock.nowNs(), WantNs);
    uint64_t Start = Clock.nowNs();
    LastRan = {-1, false};
    W->Fn();
    K.noteDispatched(*W, Start, Clock.nowNs());
    ++Dispatched;
    EXPECT_EQ(LastRan, Want) << "dispatch " << Dispatched;
    return LastRan == Want;
  }

  std::mt19937_64 Rng;
  browser::VirtualClock Clock;
  Kernel K;
  std::multimap<Key, int> Armed;
  std::map<int, Key> Live;
  std::deque<int> Posts;
  std::vector<uint64_t> Handles;
  uint64_t NextSeq = 0;
  int NextPost = 0;
  int OpsDone = 0;
  uint64_t SuccessfulCancels = 0;
  uint64_t Dispatched = 0;
  std::pair<int, bool> LastRan{-1, false};
};

TEST(Kernel, SeededDispatchOrderMatchesAReferenceModel) {
  KernelModel(20241018).run(20000);
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
