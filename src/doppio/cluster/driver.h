//===- doppio/cluster/driver.h - Multi-tab fabric drivers --------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two ways a Fabric's tabs get driven (DESIGN.md §15):
///
/// LockstepDriver — single host thread, deterministic. Rounds of
/// { pump every mailbox; T = min over tabs of next-eligible virtual time;
/// every tab dispatches all work reachable without idle-jumping its clock
/// past T }. The horizon gates clock *jumps*, not execution (see
/// kernel::Kernel::next), so no tab ever sleeps past mail another tab
/// already sent: the fabric's positive hop latency plus the global-minimum
/// horizon give a conservative, repeatable interleaving. Two identical runs
/// produce identical virtual timelines — the mode every cluster test and
/// virtual-clock figure uses.
///
/// ThreadedDriver — one host thread per tab, for the fig7_cluster bench's
/// real-parallelism rows. Classic conservative synchronization: each tab
/// publishes the virtual time of its earliest runnable work (its frontier)
/// in an atomic; a tab may dispatch work up to min(other frontiers) + hop,
/// because no peer can deliver mail below its own frontier plus one hop.
/// Mail that sits in a mailbox is in no frontier yet, so the horizon also
/// takes every tab's mail floor (Fabric::mailFloorNs), and a scan that a
/// send overlapped is repeated (Fabric::crossings is its epoch). Without
/// both, a tab could jump its clock to a far timer (a shard's idle sweep)
/// while a request for it was still in host-side flight. Idle tabs park
/// in Fabric::waitForMail with a short timed wait, so a missed wake costs
/// microseconds, never a deadlock. Timelines are causally consistent but
/// not bit-identical across runs — throughput hardware noise, exactly what
/// a real multi-core bench row wants.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CLUSTER_DRIVER_H
#define DOPPIO_DOPPIO_CLUSTER_DRIVER_H

#include "doppio/cluster/fabric.h"

#include <atomic>
#include <thread>

namespace doppio {
namespace cluster {

/// Deterministic single-thread driver: runs all tabs in causal lockstep
/// until the whole cluster is quiescent (no runnable work in any tab, no
/// mail in flight anywhere).
class LockstepDriver {
public:
  explicit LockstepDriver(Fabric &Fab) : Fab(Fab) {}

  struct Report {
    uint64_t Rounds = 0;
    uint64_t EventsRun = 0;
    uint64_t MailPumped = 0;
  };

  /// Runs to global quiescence (bounded by \p MaxRounds as a runaway
  /// backstop). Returns what happened; Rounds == MaxRounds means the
  /// backstop tripped, which no healthy workload ever hits.
  Report run(uint64_t MaxRounds = UINT64_MAX);

  /// Runs until \p Done returns true (checked once per round) or global
  /// quiescence, whichever is first.
  Report runUntil(const std::function<bool()> &Done,
                  uint64_t MaxRounds = UINT64_MAX);

private:
  Fabric &Fab;
};

/// One host thread per tab; conservative frontier synchronization. For
/// bench rows and the threaded cluster tests that the TSan job runs;
/// tests that need determinism use LockstepDriver.
class ThreadedDriver {
public:
  explicit ThreadedDriver(Fabric &Fab);
  ~ThreadedDriver();

  ThreadedDriver(const ThreadedDriver &) = delete;
  ThreadedDriver &operator=(const ThreadedDriver &) = delete;

  /// Spawns the per-tab threads. Call once.
  void start();

  /// Asks every thread to finish its current dispatch and exit. Safe from
  /// any thread (a workload-completion callback inside a tab calls this).
  void requestStop() {
    Stop.store(true);
    Fab.wakeAll();
  }

  /// Joins all tab threads. The cluster may still hold undelivered mail;
  /// finish with a LockstepDriver pass to reach quiescence.
  void join();

private:
  void tabMain(TabId T);
  /// min over other tabs' published frontiers, +hop, saturating.
  uint64_t safeHorizon(TabId T) const;

  static constexpr uint64_t kIdleFrontier = UINT64_MAX;

  Fabric &Fab;
  std::atomic<bool> Stop{false};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> Frontiers;
  std::vector<std::thread> Threads;
};

} // namespace cluster
} // namespace doppio

#endif // DOPPIO_DOPPIO_CLUSTER_DRIVER_H
