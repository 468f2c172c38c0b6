//===- doppio/cluster/driver.cpp ------------------------------------------==//

#include "doppio/cluster/driver.h"

#include <algorithm>

using namespace doppio;
using namespace doppio::cluster;

//===----------------------------------------------------------------------===//
// LockstepDriver
//===----------------------------------------------------------------------===//

LockstepDriver::Report LockstepDriver::run(uint64_t MaxRounds) {
  return runUntil([] { return false; }, MaxRounds);
}

LockstepDriver::Report
LockstepDriver::runUntil(const std::function<bool()> &Done,
                         uint64_t MaxRounds) {
  Report R;
  while (R.Rounds < MaxRounds) {
    if (Done())
      return R;
    ++R.Rounds;
    // Re-read per round: spawnShard() may attach tabs between rounds.
    size_t N = Fab.tabCount();
    // 1. Move every mailbox into its tab's loop (fixed tab order: the
    //    interleaving is part of the deterministic timeline).
    for (TabId T = 0; T < N; ++T)
      R.MailPumped += Fab.pump(T);
    // 2. Global causal horizon: the earliest runnable virtual time across
    //    the cluster. No tab may idle-jump its clock past it, because the
    //    tab that owns it may send mail stamped as early as horizon+hop.
    std::optional<uint64_t> Horizon;
    for (TabId T = 0; T < N; ++T)
      if (auto NE = Fab.env(T).loop().nextEligibleNs())
        Horizon = Horizon ? std::min(*Horizon, *NE) : *NE;
    if (!Horizon) {
      // Every loop idle. Finished only once no mail is pending anywhere.
      if (Fab.quiescent())
        return R;
      continue; // Mail arrived between pump and scan: next round gets it.
    }
    // 3. Each tab dispatches everything reachable at or before the
    //    horizon (execution may charge past it; only idle jumps are
    //    gated — kernel::Kernel::next).
    size_t Ran = 0;
    for (TabId T = 0; T < N; ++T)
      Ran += Fab.env(T).loop().runReadyUntil(*Horizon);
    R.EventsRun += Ran;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// ThreadedDriver
//===----------------------------------------------------------------------===//

ThreadedDriver::ThreadedDriver(Fabric &Fab) : Fab(Fab) {
  for (size_t I = 0; I < Fab.tabCount(); ++I)
    // Frontiers start at 0, not idle: until a tab's thread runs and
    // publishes its real frontier, peers must assume it still sits at
    // virtual 0 and may mail them at 0+hop. Starting at idle lets an
    // early-scheduled tab leap its clock to a far-future timer (e.g. the
    // shard idle sweep) before the balancer's first mail ever arrives,
    // and the sweep then reaps connections whose requests are still in
    // host-side flight.
    Frontiers.push_back(std::make_unique<std::atomic<uint64_t>>(0));
}

ThreadedDriver::~ThreadedDriver() {
  requestStop();
  join();
}

void ThreadedDriver::start() {
  for (TabId T = 0; T < Fab.tabCount(); ++T)
    Threads.emplace_back([this, T] { tabMain(T); });
}

void ThreadedDriver::join() {
  for (std::thread &Th : Threads)
    if (Th.joinable())
      Th.join();
  Threads.clear();
}

uint64_t ThreadedDriver::safeHorizon(TabId T) const {
  uint64_t Hop = Fab.costs().HopLatencyNs;
  while (true) {
    uint64_t Epoch = Fab.crossings();
    // Mail not yet covered by its tab's frontier bounds that tab's next
    // work as well. Each floor is read before its frontier: a tab raises
    // its floor only after publishing a frontier that covers the mail.
    uint64_t Own = kIdleFrontier, Min = kIdleFrontier;
    for (size_t I = 0; I < Frontiers.size(); ++I) {
      uint64_t Floor = Fab.mailFloorNs(static_cast<TabId>(I));
      if (I == T) {
        Own = Floor;
        continue;
      }
      Min = std::min(
          {Min, Floor, Frontiers[I]->load(std::memory_order_acquire)});
    }
    // A send during the scan may hide behind a frontier its sender raised
    // afterwards; the send moved the epoch, so scan again.
    if (Fab.crossings() != Epoch)
      continue;
    return std::min(Own, Min >= kIdleFrontier - Hop ? kIdleFrontier
                                                    : Min + Hop);
  }
}

void ThreadedDriver::tabMain(TabId T) {
  browser::EventLoop &Loop = Fab.env(T).loop();
  std::atomic<uint64_t> &Frontier = *Frontiers[T];
  while (!Stop.load(std::memory_order_relaxed)) {
    Fab.pump(T);
    // The pumped mail is the loop's work now: publish a frontier that
    // covers it before the mail floor stops counting it.
    std::optional<uint64_t> First = Loop.nextEligibleNs();
    Frontier.store(First ? *First : kIdleFrontier, std::memory_order_release);
    Fab.settleMailFloor(T);
    size_t Ran = 0;
    // Dispatch in small slices so the published frontier stays fresh for
    // peers computing their own horizons.
    for (int Slice = 0; Slice < 64; ++Slice) {
      std::optional<uint64_t> NE = Loop.nextEligibleNs();
      Frontier.store(NE ? *NE : kIdleFrontier, std::memory_order_release);
      if (!NE)
        break;
      uint64_t H = safeHorizon(T);
      if (*NE > H)
        break; // A peer may still mail something earlier: wait for it.
      if (!Loop.runOne(H))
        break;
      ++Ran;
    }
    if (!Ran && Fab.mailboxEmpty(T)) {
      std::optional<uint64_t> NE = Loop.nextEligibleNs();
      Frontier.store(NE ? *NE : kIdleFrontier, std::memory_order_release);
      // Idle or blocked on a peer's frontier: park briefly. The timed
      // wait bounds the cost of any missed wake.
      Fab.waitForMail(T, /*TimeoutUs=*/200);
    }
  }
  // Exiting: publish idle so no peer waits on this tab's frontier.
  Frontier.store(kIdleFrontier, std::memory_order_release);
}
