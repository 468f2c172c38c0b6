//===- tests/doppio/suspend_test.cpp --------------------------------------==//
//
// Tests for §4: suspend-and-resume, the adaptive suspend counter, the
// resumption-mechanism choice per browser, the green-thread pool, and the
// synchronous-over-asynchronous bridge.
//
//===----------------------------------------------------------------------===//

#include "doppio/suspend.h"
#include "doppio/threads.h"

#include "gtest/gtest.h"

#include <memory>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::browser;

namespace {

TEST(ResumeMechanism, ChoiceMatchesSection44) {
  EXPECT_EQ(chooseResumeMechanism(chromeProfile()),
            ResumeMechanism::SendMessage);
  EXPECT_EQ(chooseResumeMechanism(firefoxProfile()),
            ResumeMechanism::SendMessage);
  EXPECT_EQ(chooseResumeMechanism(safariProfile()),
            ResumeMechanism::SendMessage);
  EXPECT_EQ(chooseResumeMechanism(operaProfile()),
            ResumeMechanism::SendMessage);
  // IE10 is the only browser with setImmediate.
  EXPECT_EQ(chooseResumeMechanism(ie10Profile()),
            ResumeMechanism::SetImmediate);
  // IE8's sendMessage is synchronous; setTimeout is the fallback.
  EXPECT_EQ(chooseResumeMechanism(ie8Profile()),
            ResumeMechanism::SetTimeout);
}

TEST(Suspender, ResumptionRunsAsSeparateEvent) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  std::vector<int> Order;
  Env.loop().enqueueTask([&] {
    Susp.scheduleResumption([&] { Order.push_back(2); });
    Order.push_back(1);
  });
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_EQ(Susp.resumptionCount(), 1u);
}

TEST(Suspender, TracksSuspendedTime) {
  // Figure 5's measurement: time between scheduling and resumption.
  BrowserEnv Env(ie8Profile()); // setTimeout: at least the 4 ms clamp.
  Suspender Susp(Env);
  Env.loop().enqueueTask(
      [&] { Susp.scheduleResumption([] {}); });
  Env.loop().run();
  EXPECT_GE(Susp.totalSuspendedNs(), msToNs(4));
}

TEST(Suspender, SendMessageResumptionIsFast) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  Env.loop().enqueueTask([&] { Susp.scheduleResumption([] {}); });
  Env.loop().run();
  EXPECT_LT(Susp.totalSuspendedNs(), msToNs(1))
      << "sendMessage avoids the 4 ms clamp (§4.4)";
}

TEST(Suspender, MechanismLatencyOrdering) {
  // setImmediate < sendMessage < setTimeout, the §4.4 ranking.
  auto suspendedFor = [](const Profile &P, ResumeMechanism M) {
    BrowserEnv Env(P);
    Suspender Susp(Env);
    Susp.forceMechanism(M);
    Env.loop().enqueueTask([&] { Susp.scheduleResumption([] {}); });
    Env.loop().run();
    return Susp.totalSuspendedNs();
  };
  uint64_t Imm = suspendedFor(ie10Profile(), ResumeMechanism::SetImmediate);
  uint64_t Msg = suspendedFor(chromeProfile(),
                              ResumeMechanism::SendMessage);
  uint64_t Timer = suspendedFor(chromeProfile(),
                                ResumeMechanism::SetTimeout);
  EXPECT_LT(Imm, Msg);
  EXPECT_LT(Msg, Timer);
}

TEST(Suspender, ForcedSendMessageOnIe8NeverYields) {
  // The §4.4 pitfall: on IE8 the message handler runs inside post, so the
  // "resumption" executes synchronously within the same event.
  BrowserEnv Env(ie8Profile());
  Suspender Susp(Env);
  Susp.forceMechanism(ResumeMechanism::SendMessage);
  std::vector<int> Order;
  Env.loop().enqueueTask([&] {
    Susp.scheduleResumption([&] { Order.push_back(1); });
    Order.push_back(2);
  });
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2}))
      << "resumption ran before the posting event finished";
  EXPECT_EQ(Env.channel().syncDispatchCount(), 1u);
}

TEST(Suspender, ForeignResumeMessagesAreIgnored) {
  // The message channel is page-wide, so other scripts' messages reach the
  // resumption handler. Only a suffix that is exactly the decimal id of a
  // parked resumption is ours: a malformed one, or one naming an id that
  // already resumed or was never issued, must neither throw out of the
  // loop, abort on the one-shot assert, nor resume the parked
  // continuation early.
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  Susp.forceMechanism(ResumeMechanism::SendMessage);
  int Fired = 0;
  // The first resumption registers the channel handler.
  Env.loop().enqueueTask([&] { Susp.scheduleResumption([&] { ++Fired; }); });
  Env.loop().run();
  ASSERT_EQ(Fired, 1);
  // The foreign messages are delivered first, while resumption 2 waits.
  Env.loop().enqueueTask([&] {
    for (const char *Msg :
         {"doppio-resume:x", "doppio-resume:", "doppio-resume:2abc",
          "doppio-resume:1abc", "doppio-resume:18446744073709551616",
          "doppio-resume:99", "doppio-resume:1", "doppio-resume:3"})
      Env.channel().post(js::fromAscii(Msg));
    Susp.scheduleResumption([&] { ++Fired; });
  });
  EXPECT_NO_THROW(Env.loop().run());
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(Susp.resumptionCount(), 2u);
  EXPECT_EQ(Susp.resumeMisses(), 0u);
  EXPECT_EQ(Susp.pendingResumptions(), 0u);
}

TEST(Suspender, AdaptiveCounterConvergesTowardTimeSlice) {
  // §4.1: with checks costing ~1 us each and a 10 ms slice, the counter
  // should converge to ~10000 checks per slice.
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  Susp.setTimeSliceNs(msToNs(10));
  Susp.beginSlice();
  int Suspensions = 0;
  for (int I = 0; I != 200000 && Suspensions < 8; ++I) {
    Env.clock().chargeNs(1000); // 1 us of simulated work per check.
    if (Susp.shouldSuspend()) {
      ++Suspensions;
      Susp.beginSlice();
    }
  }
  EXPECT_GE(Suspensions, 4);
  EXPECT_NEAR(static_cast<double>(Susp.currentCounterTarget()), 10000.0,
              3000.0);
  EXPECT_NEAR(Susp.avgCheckIntervalNs(), 1000.0, 250.0);
}

TEST(Suspender, AdaptiveCounterAdjustsWhenCheckCostChanges) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  Susp.setTimeSliceNs(msToNs(10));
  Susp.beginSlice();
  // Cheap checks first.
  int Fired = 0;
  for (int I = 0; I != 100000 && Fired < 3; ++I) {
    Env.clock().chargeNs(100);
    if (Susp.shouldSuspend()) {
      ++Fired;
      Susp.beginSlice();
    }
  }
  uint64_t CheapTarget = Susp.currentCounterTarget();
  // Now each check is 100x more expensive; the target must shrink.
  Fired = 0;
  for (int I = 0; I != 100000 && Fired < 6; ++I) {
    Env.clock().chargeNs(10000);
    if (Susp.shouldSuspend()) {
      ++Fired;
      Susp.beginSlice();
    }
  }
  EXPECT_LT(Susp.currentCounterTarget(), CheapTarget);
}

//===--------------------------------------------------------------------===//
// ThreadPool
//===--------------------------------------------------------------------===//

/// A guest thread that "computes" by charging virtual time in bounded
/// slices, checking the suspend counter like a real language runtime.
class WorkThread : public GuestThread {
public:
  WorkThread(BrowserEnv &Env, Suspender &Susp, int TotalUnits,
             std::vector<int> &Journal, int Tag)
      : Env(Env), Susp(Susp), Remaining(TotalUnits), Journal(Journal),
        Tag(Tag) {}

  RunOutcome resume() override {
    while (Remaining > 0) {
      Env.clock().chargeNs(50000); // 50 us per unit.
      --Remaining;
      Journal.push_back(Tag);
      if (Susp.shouldSuspend())
        return RunOutcome::Yielded;
    }
    return RunOutcome::Terminated;
  }

private:
  BrowserEnv &Env;
  Suspender &Susp;
  int Remaining;
  std::vector<int> &Journal;
  int Tag;
};

TEST(ThreadPool, RunsSingleThreadToCompletion) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 500, Journal, 1));
  Env.loop().run();
  EXPECT_EQ(Journal.size(), 500u);
  EXPECT_FALSE(Pool.hasLiveThreads());
  EXPECT_FALSE(Env.loop().watchdogFired())
      << "segmentation kept every event under the watchdog limit";
}

TEST(ThreadPool, LongComputationStaysUnderWatchdogOnlyWithSegmentation) {
  // 500 units x 50 us = 25 ms of work; the watchdog limit is 5 s, so use a
  // much longer computation: 200000 units = 10 s.
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 200000, Journal, 1));
  Env.loop().run();
  EXPECT_EQ(Journal.size(), 200000u);
  EXPECT_FALSE(Env.loop().watchdogFired());
  EXPECT_GT(Env.loop().stats().EventsRun, 100u)
      << "the computation was split into many events";
}

TEST(ThreadPool, InterleavesTwoThreads) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 2000, Journal, 1));
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 2000, Journal, 2));
  Env.loop().run();
  ASSERT_EQ(Journal.size(), 4000u);
  // Both threads made progress before either finished: find a 2 before
  // the last 1 and a 1 after the first 2.
  size_t First2 = std::find(Journal.begin(), Journal.end(), 2) -
                  Journal.begin();
  size_t Last1 = Journal.rend() - std::find(Journal.rbegin(),
                                            Journal.rend(), 1);
  EXPECT_LT(First2, Last1) << "threads did not interleave";
  EXPECT_GT(Pool.contextSwitches(), 0u);
}

TEST(ThreadPool, CustomSchedulerControlsOrder) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 300, Journal, 1));
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 300, Journal, 2));
  // Always prefer the highest-numbered ready thread (§4.3: language
  // implementations can provide a scheduling function).
  Pool.setScheduler([](const std::vector<ThreadPool::ThreadId> &Ready) {
    return Ready.back();
  });
  Env.loop().run();
  ASSERT_EQ(Journal.size(), 600u);
  // Thread 2 must fully finish before thread 1 starts.
  size_t First1 = std::find(Journal.begin(), Journal.end(), 1) -
                  Journal.begin();
  size_t Last2 = Journal.rend() -
                 std::find(Journal.rbegin(), Journal.rend(), 2);
  EXPECT_GE(First1 + 1, Last2) << "scheduler order was not respected";
}

TEST(ThreadPool, InputStaysResponsiveDuringLongComputation) {
  // The core §4.1 claim: a long computation no longer blocks user input.
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 100000, Journal, 1));
  // User input arriving throughout the ~5 s computation.
  for (int I = 1; I <= 40; ++I)
    Env.loop().setTimeout([&] { Env.clock().chargeNs(usToNs(200)); },
                          msToNs(100) * I, EventKind::Input);
  Env.loop().run();
  EXPECT_EQ(Journal.size(), 100000u);
  EXPECT_LT(Env.loop().stats().MaxInputLatencyNs, msToNs(50))
      << "input waited behind compute events";
}

//===--------------------------------------------------------------------===//
// AsyncBridge (§4.2)
//===--------------------------------------------------------------------===//

/// A guest thread that performs a "synchronous" read of a value only
/// obtainable asynchronously, using the bridge.
class BlockingReadThread : public GuestThread {
public:
  BlockingReadThread(BrowserEnv &Env, ThreadPool &Pool, AsyncBridge &Bridge)
      : Env(Env), Pool(Pool), Bridge(Bridge) {}

  RunOutcome resume() override {
    switch (Stage) {
    case 0: {
      Stage = 1;
      // Initiate the async op; the completion deposits the result and
      // unblocks this thread, emulating a synchronous call (§4.2).
      Bridge.blockOn(Pool.currentThread(),
                     [this](std::function<void()> Resume) {
                       Env.loop().scheduleAfter(
                           [this, Resume] {
                             Result = 42;
                             Resume();
                           },
                           msToNs(3));
                     });
      return RunOutcome::Blocked;
    }
    case 1:
      // Resumed "as if it had just received data synchronously".
      SawResult = Result;
      return RunOutcome::Terminated;
    }
    return RunOutcome::Terminated;
  }

  int sawResult() const { return SawResult; }

private:
  BrowserEnv &Env;
  ThreadPool &Pool;
  AsyncBridge &Bridge;
  int Stage = 0;
  int Result = 0;
  int SawResult = -1;
};

TEST(AsyncBridge, SynchronousCallOverAsyncApi) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  AsyncBridge Bridge(Pool);
  auto Thread = std::make_unique<BlockingReadThread>(Env, Pool, Bridge);
  BlockingReadThread *Raw = Thread.get();
  ThreadPool::ThreadId Id = Pool.spawn(std::move(Thread));
  Env.loop().run();
  EXPECT_EQ(Raw->sawResult(), 42);
  EXPECT_EQ(Pool.state(Id), ThreadState::Terminated);
}

TEST(AsyncBridge, OtherThreadsRunWhileOneBlocks) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  AsyncBridge Bridge(Pool);
  auto Blocking = std::make_unique<BlockingReadThread>(Env, Pool, Bridge);
  BlockingReadThread *Raw = Blocking.get();
  std::vector<int> Journal;
  Pool.spawn(std::move(Blocking));
  Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 100, Journal, 7));
  Env.loop().run();
  EXPECT_EQ(Raw->sawResult(), 42);
  EXPECT_EQ(Journal.size(), 100u)
      << "the compute thread ran while the other was blocked on I/O";
}

//===--------------------------------------------------------------------===//
// AsyncBridge edge cases: completions are kernel-scheduled events, so they
// can legally arrive after the thread they targeted has moved on or died.
//===--------------------------------------------------------------------===//

/// Like BlockingReadThread, but the async operation fires its completion
/// twice (a buggy or racy browser API).
class DoubleCompletionThread : public GuestThread {
public:
  DoubleCompletionThread(BrowserEnv &Env, ThreadPool &Pool,
                         AsyncBridge &Bridge)
      : Env(Env), Pool(Pool), Bridge(Bridge) {}

  RunOutcome resume() override {
    switch (Stage) {
    case 0:
      Stage = 1;
      Bridge.blockOn(Pool.currentThread(),
                     [this](std::function<void()> Resume) {
                       Env.loop().scheduleAfter([this, Resume] {
                         Result = 42;
                         Resume();
                       }, msToNs(3));
                       Env.loop().scheduleAfter([Resume] { Resume(); },
                                                msToNs(5));
                     });
      return RunOutcome::Blocked;
    case 1:
      SawResult = Result;
      return RunOutcome::Terminated;
    }
    return RunOutcome::Terminated;
  }

  int sawResult() const { return SawResult; }

private:
  BrowserEnv &Env;
  ThreadPool &Pool;
  AsyncBridge &Bridge;
  int Stage = 0;
  int Result = 0;
  int SawResult = -1;
};

TEST(AsyncBridge, UnblockOfTerminatedThreadIsTolerated) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  std::vector<int> Journal;
  ThreadPool::ThreadId Id =
      Pool.spawn(std::make_unique<WorkThread>(Env, Susp, 10, Journal, 1));
  Env.loop().run();
  ASSERT_EQ(Pool.state(Id), ThreadState::Terminated);
  // A late completion targeting the dead thread: no crash, no state
  // change, counted as spurious.
  EXPECT_FALSE(Pool.unblock(Id));
  EXPECT_EQ(Pool.state(Id), ThreadState::Terminated);
  EXPECT_EQ(Pool.spuriousUnblocks(), 1u);
}

TEST(AsyncBridge, DoubleUnblockIsCountedSpurious) {
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  AsyncBridge Bridge(Pool);
  auto Thread =
      std::make_unique<DoubleCompletionThread>(Env, Pool, Bridge);
  DoubleCompletionThread *Raw = Thread.get();
  ThreadPool::ThreadId Id = Pool.spawn(std::move(Thread));
  Env.loop().run();
  // The first completion wakes the thread; the duplicate finds it already
  // finished and is absorbed.
  EXPECT_EQ(Raw->sawResult(), 42);
  EXPECT_EQ(Pool.state(Id), ThreadState::Terminated);
  EXPECT_EQ(Bridge.completionCount(), 2u);
  EXPECT_EQ(Pool.spuriousUnblocks(), 1u);
}

TEST(AsyncBridge, CompletionArrivingDuringWatchdogOverrunStillUnblocks) {
  // The completion comes due at t=3ms, but a runaway event is hogging the
  // thread far past the watchdog limit at that point. The kernel holds
  // the completion until the event ends; the blocked thread still wakes
  // and finishes.
  BrowserEnv Env(chromeProfile());
  Suspender Susp(Env);
  ThreadPool Pool(Env, Susp);
  AsyncBridge Bridge(Pool);
  auto Thread = std::make_unique<BlockingReadThread>(Env, Pool, Bridge);
  BlockingReadThread *Raw = Thread.get();
  ThreadPool::ThreadId Id = Pool.spawn(std::move(Thread));
  // The runaway event: overruns the watchdog while the completion is due.
  Env.loop().enqueueTask(
      [&] { Env.clock().chargeNs(Env.profile().WatchdogLimitNs + msToNs(1)); });
  Env.loop().run();
  EXPECT_TRUE(Env.loop().watchdogFired());
  EXPECT_EQ(Raw->sawResult(), 42);
  EXPECT_EQ(Pool.state(Id), ThreadState::Terminated);
  EXPECT_EQ(Pool.spuriousUnblocks(), 0u);
}

} // namespace
