//===- browser/event_loop.h - Single-threaded browser event loop -*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JavaScript execution model the paper describes in §3.1: programs run
/// as a sequence of finite-duration events on a single thread; an event runs
/// to completion (it cannot be preempted), and events that keep the page
/// unresponsive for too long are killed by the browser's watchdog. This
/// event loop reproduces those semantics over the virtual clock, including
/// the setTimeout 4 ms minimum clamp (§4.4) and per-event latency
/// accounting used to measure page responsiveness in the §7.2 case study.
///
/// Since the unified-kernel refactor the loop no longer owns queues of its
/// own: it is a run-to-completion facade over doppio::kernel::Kernel's
/// prioritized dispatch lanes. Browser policy lives here (the timer clamp,
/// watchdog accounting, input-latency stats); ordering, timers,
/// cancellation, and dispatch counters live in the kernel. The classic
/// browser API (enqueueTask / setTimeout / scheduleAfter /
/// trySetImmediate) maps onto lanes, and lane-aware callers can use
/// post()/postAfter() directly.
///
/// The loop also owns the tab's obs::Registry (the simulated tab is the
/// paper's process): every subsystem above it — fs, doppiod, suspender,
/// thread pool — allocates instruments there, and the loop restores each
/// work item's causal span around its dispatch so span ids follow
/// operations across async hops (see obs/span.h). The loop's own Stats
/// struct is a registry-backed view (`loop.*` cells).
///
/// setTimeout() and postAfter() return a TimerHandle: the loop and the
/// kernel timer handle, nothing more. The kernel keeps the handle live
/// until the timer is dispatched, so TimerHandle::cancel() stops a timer
/// whether it still waits in the heap or is already queued in its lane.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BROWSER_EVENT_LOOP_H
#define DOPPIO_BROWSER_EVENT_LOOP_H

#include "browser/profile.h"
#include "browser/virtual_clock.h"
#include "doppio/kernel/kernel.h"
#include "doppio/obs/registry.h"

#include <cstdint>
#include <functional>
#include <utility>

namespace doppio {
namespace browser {

/// Classifies events for latency accounting. Input events model user
/// interaction; their queueing delay is the "page responsiveness" metric.
enum class EventKind { Task, Input };

class EventLoop;

/// Handle for a pending timer, returned by EventLoop::setTimeout /
/// postAfter. Move-only; destruction does NOT cancel (dropping the handle
/// lets the timer fire). A moved-from handle is unbound. armed() and
/// cancel() ask the loop's kernel, so the loop must outlive any call to
/// them.
class TimerHandle {
public:
  TimerHandle() = default;
  TimerHandle(TimerHandle &&O) noexcept
      : Loop(std::exchange(O.Loop, nullptr)),
        Handle(std::exchange(O.Handle, 0)) {}
  TimerHandle &operator=(TimerHandle &&O) noexcept {
    Loop = std::exchange(O.Loop, nullptr);
    Handle = std::exchange(O.Handle, 0);
    return *this;
  }
  TimerHandle(const TimerHandle &) = delete;
  TimerHandle &operator=(const TimerHandle &) = delete;

  /// True if this handle was ever bound to a timer.
  explicit operator bool() const { return Loop != nullptr; }

  /// True while the timer is still going to fire: bound, not yet
  /// dispatched, not cancelled. False inside the timer's own callback.
  bool armed() const;

  /// Cancels the pending fire (kernel::Kernel::cancelTimer). Returns true
  /// if a fire was actually prevented; false for unbound, already-fired,
  /// or already-cancelled handles.
  bool cancel();

  /// The kernel timer handle (0 when unbound).
  uint64_t id() const { return Handle; }

private:
  friend class EventLoop;
  TimerHandle(EventLoop *Loop, uint64_t Handle) : Loop(Loop), Handle(Handle) {}

  EventLoop *Loop = nullptr;
  uint64_t Handle = 0;
};

/// The single-threaded, run-to-completion browser event loop: browser
/// semantics over kernel scheduling.
class EventLoop {
public:
  using Event = std::function<void()>;

  /// Aggregate statistics over all dispatched events. A registry-backed
  /// view since the obs subsystem landed: stats() assembles it from the
  /// `loop.*` cells, field-for-field what the loop used to keep privately.
  struct Stats {
    uint64_t EventsRun = 0;
    /// Events whose charged virtual duration exceeded the watchdog limit.
    uint64_t WatchdogKills = 0;
    uint64_t MaxEventNs = 0;
    uint64_t TotalEventNs = 0;
    /// Worst observed delay between an input event becoming due and its
    /// dispatch. Long-running events inflate this (§3.1).
    uint64_t MaxInputLatencyNs = 0;
  };

  EventLoop(VirtualClock &Clock, const Profile &P)
      : Clock(Clock), Prof(P), Reg(Clock), K(Clock, Reg),
        EventsRunC(&Reg.counter("loop.events_run")),
        WatchdogKillsC(&Reg.counter("loop.watchdog_kills")),
        TotalEventNsC(&Reg.counter("loop.event_ns_total")),
        MaxEventNsG(&Reg.gauge("loop.event_ns_max")),
        MaxInputLatencyNsG(&Reg.gauge("loop.input_latency_ns_max")) {}

  /// Places \p Fn at the back of the ready queue (a macrotask). Input
  /// events go to the Input lane (dispatched ahead of everything else);
  /// plain tasks go to the Background lane.
  void enqueueTask(Event Fn, EventKind Kind = EventKind::Task);

  /// JavaScript timer: schedules \p Fn after \p DelayNs, subject to the
  /// profile's minimum timeout clamp. Input timers land in the Input
  /// lane, the rest in the Timer lane.
  TimerHandle setTimeout(Event Fn, uint64_t DelayNs,
                         EventKind Kind = EventKind::Task);

  /// Schedules \p Fn exactly \p DelayNs from now with no minimum clamp.
  /// This is not a JavaScript-visible API: it models the completion of
  /// browser-internal asynchronous work (XHR responses, IndexedDB
  /// transactions, network frames) which is not subject to timer clamping;
  /// it lands in the I/O-completion lane.
  void scheduleAfter(Event Fn, uint64_t DelayNs,
                     EventKind Kind = EventKind::Task);

  /// Schedules \p Fn at the back of the queue with no clamp. Returns false
  /// (scheduling nothing) if this browser lacks setImmediate (§4.4).
  bool trySetImmediate(Event Fn);

  /// Lane-aware enqueue: \p Fn is eligible now, dispatched in \p L's
  /// priority position.
  void post(kernel::Lane L, Event Fn);

  /// Posts a reified continuation (DESIGN.md §16) for one-shot dispatch
  /// on lane \p L.
  void post(kernel::Lane L, rt::Continuation K);

  /// Lane-aware timer: \p Fn runs on lane \p L after exactly \p DelayNs
  /// (no clamp).
  TimerHandle postAfter(kernel::Lane L, Event Fn, uint64_t DelayNs);

  /// Dispatches a single event, advancing the virtual clock over idle gaps.
  /// Returns false when no work remains.
  bool runOne();

  /// Horizon-bounded variant for multi-tab driving: dispatches a single
  /// event, but never jumps the clock over an idle gap past \p HorizonNs
  /// (returns false instead). Already-ready work still runs even when the
  /// clock has charged past the horizon.
  bool runOne(uint64_t HorizonNs);

  /// Runs until every lane and the timer heap are empty.
  void run();

  /// Dispatches every event reachable without jumping the clock past
  /// \p HorizonNs; returns the number of events run. The cluster lockstep
  /// driver calls this per tab per round (doppio/cluster/driver.h).
  size_t runReadyUntil(uint64_t HorizonNs);

  /// Virtual time of this loop's earliest runnable work (now for queued
  /// work, a due time for timers, nullopt when fully idle). See
  /// kernel::Kernel::nextEligibleNs.
  std::optional<uint64_t> nextEligibleNs() { return K.nextEligibleNs(); }

  /// True while an event callback is executing.
  bool inEvent() const { return EventDepth > 0; }

  /// Virtual time charged so far by the currently running event.
  uint64_t currentEventElapsedNs() const;

  /// True if the currently running event has already exceeded the watchdog
  /// limit; cooperative VMs poll this to simulate the browser killing the
  /// script (§3.1).
  bool currentEventOverLimit() const;

  /// Snapshot of the loop statistics, assembled from the `loop.*` registry
  /// cells. By-value; existing `const Stats &S = Loop.stats();` callers
  /// keep working via temporary lifetime extension.
  Stats stats() const;

  const Profile &profile() const { return Prof; }
  VirtualClock &clock() { return Clock; }

  /// The scheduling core: lanes, per-lane counters, timer state.
  kernel::Kernel &kernel() { return K; }
  const kernel::Kernel &kernel() const { return K; }

  /// The tab-wide metrics registry + span store. Every subsystem on this
  /// loop allocates its instruments here.
  obs::Registry &metrics() { return Reg; }
  const obs::Registry &metrics() const { return Reg; }

  /// True once any event has overrun the watchdog limit.
  bool watchdogFired() const { return WatchdogKillsC->value() > 0; }

private:
  void dispatch(kernel::Kernel::Work W);

  VirtualClock &Clock;
  const Profile &Prof;
  /// The registry outlives the kernel member, which holds cells in it.
  obs::Registry Reg;
  kernel::Kernel K;
  obs::Counter *EventsRunC;
  obs::Counter *WatchdogKillsC;
  obs::Counter *TotalEventNsC;
  obs::Gauge *MaxEventNsG;
  obs::Gauge *MaxInputLatencyNsG;
  int EventDepth = 0;
  uint64_t CurrentEventStartNs = 0;
};

} // namespace browser
} // namespace doppio

#endif // DOPPIO_BROWSER_EVENT_LOOP_H
