//===- doppio/suspend.h - Suspend-and-resume (§4.1, §4.4) --------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of Doppio's execution environment: the *suspend-and-resume*
/// mechanism that lets a running program save itself to the heap, yield the
/// JavaScript thread so queued events (user input!) can run, and continue
/// from a *resumption callback* later.
///
/// Two pieces live here:
///
///  - Resumption scheduling (§4.4): choosing the fastest browser mechanism
///    able to place the resumption callback at the back of the event queue —
///    setImmediate where available (IE10), the sendMessage channel with a
///    string-ID-to-callback map elsewhere, and setTimeout (with its 4 ms
///    clamp) on IE8 where sendMessage is synchronous.
///
///  - The adaptive suspend counter (§4.1): the language implementation
///    calls shouldSuspend() at its check points; a counter decrements to 0,
///    at which point Doppio measures how long the countdown took, updates a
///    cumulative moving average of the check rate, and sizes the next
///    counter so one countdown spans the configured time slice.
///
/// Suspension time is tracked (scheduled -> resumed), which is the data
/// behind Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SUSPEND_H
#define DOPPIO_DOPPIO_SUSPEND_H

#include "browser/env.h"
#include "doppio/cont/continuation.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace doppio {
namespace rt {

/// The browser primitives usable for scheduling a resumption (§4.4).
enum class ResumeMechanism { SetTimeout, SendMessage, SetImmediate };

const char *resumeMechanismName(ResumeMechanism M);

/// Selects the best resumption mechanism for \p P, per §4.4: setImmediate
/// if present; otherwise sendMessage unless it dispatches synchronously
/// (IE8); otherwise setTimeout.
ResumeMechanism chooseResumeMechanism(const browser::Profile &P);

/// Suspend-and-resume services for one program.
class Suspender {
public:
  explicit Suspender(browser::BrowserEnv &Env);

  /// Overrides the mechanism (used by the §4.4 ablation benchmark).
  void forceMechanism(ResumeMechanism M) { Mechanism = M; }
  ResumeMechanism mechanism() const { return Mechanism; }

  /// Ablation of §4.1's adaptive counter: pins the countdown to a fixed
  /// value instead of deriving it from the cumulative moving average.
  /// Pass 0 to restore adaptation: the next countdown is reseeded from
  /// the CMA immediately (not left at the stale pinned target).
  void forceFixedCounter(uint64_t Count);

  /// Schedules \p Resume to run as a fresh event at the back of the queue.
  /// The time between this call and the callback running is accounted as
  /// suspension time (Figure 5).
  void scheduleResumption(std::function<void()> Resume);

  /// The reified form (DESIGN.md §16): parks \p K in the resumption
  /// registry and dispatches it through the §4.4 mechanism. Every
  /// mechanism — not just sendMessage — now demultiplexes through the
  /// registry by prompt id, so the one-shot/leak accounting covers all of
  /// them and a double dispatch is detected instead of silently lost.
  void scheduleResumption(rt::Continuation K);

  /// Sets the target duration of one execution slice (default 10 ms — the
  /// event must stay well under the watchdog limit while staying long
  /// enough to amortize resumption latency).
  void setTimeSliceNs(uint64_t Ns) { TimeSliceNs = Ns; }
  uint64_t timeSliceNs() const { return TimeSliceNs; }

  /// The language implementation's periodic check (§4.1): decrements the
  /// counter; when it reaches zero, re-derives the counter from the
  /// cumulative moving average of check cost and returns true — the
  /// program should suspend now. Only the decrement is inline: it is the
  /// whole check in all but one of every CounterTarget calls.
  bool shouldSuspend() {
    if (Counter > 1) {
      --Counter;
      return false;
    }
    return countdownExpired();
  }

  /// Resets the countdown measurement window; called when a fresh slice
  /// begins (after resumption).
  void beginSlice();

  // Figure 5 accounting (registry-backed: `suspend.*` cells).
  uint64_t totalSuspendedNs() const { return SuspendedNsC->value(); }
  uint64_t resumptionCount() const { return ResumptionsC->value(); }
  /// Average virtual nanoseconds between suspend checks (the CMA of §4.1).
  double avgCheckIntervalNs() const { return CmaCheckNs; }
  uint64_t currentCounterTarget() const { return CounterTarget; }

  /// Resumptions currently parked (scheduled, not yet dispatched).
  size_t pendingResumptions() const { return PendingResumptions.size(); }
  /// Dispatches that found no parked resumption for their id — a double
  /// dispatch or a dropped registration; always a bug.
  uint64_t resumeMisses() const { return ResumeMissesC->value(); }

private:
  static constexpr uint64_t DefaultCounterTarget = 1000;

  /// One parked resumption: the continuation plus the suspend timestamp
  /// that prices the Figure 5 wait on dispatch.
  struct Pending {
    rt::Continuation K;
    uint64_t SuspendedAtNs = 0;
  };

  /// shouldSuspend's expiring check: measures the countdown, updates the
  /// CMA, sizes the next countdown, and returns true.
  bool countdownExpired();
  void dispatchViaMechanism(uint64_t Id);
  /// Dispatch tail shared by all three mechanisms: unparks \p Id, charges
  /// the suspension wait, and resumes the continuation.
  void fire(uint64_t Id);
  /// §4.1 counter size for the current CMA estimate (clamped).
  uint64_t targetFromCma() const;

  browser::BrowserEnv &Env;
  ResumeMechanism Mechanism;

  // Resumption registry: every mechanism parks the continuation here and
  // carries only the prompt id across the browser hop (sendMessage can
  // carry nothing else — strings only, §4.4 — and the others follow the
  // same discipline so the accounting is uniform).
  std::map<uint64_t, Pending> PendingResumptions;
  uint64_t NextResumptionId = 1;
  bool HandlerRegistered = false;

  // Adaptive counter state (§4.1).
  uint64_t FixedCounter = 0; // Nonzero disables adaptation (ablation).
  uint64_t TimeSliceNs;
  uint64_t CounterTarget = DefaultCounterTarget;
  uint64_t Counter = DefaultCounterTarget;
  uint64_t SliceStartNs = 0;
  double CmaCheckNs = 0.0;
  uint64_t CmaSamples = 0;

  // Accounting cells (resolved once in the constructor).
  obs::Counter *SuspendedNsC = nullptr;
  obs::Counter *ResumptionsC = nullptr;
  /// Per-resumption suspension latency — the Figure 5 distribution,
  /// scrapeable through the metrics handler.
  obs::Histogram *ResumeNsH = nullptr;
  /// Parked-resumption depth (`suspend.pending_resumptions`).
  obs::Gauge *PendingG = nullptr;
  obs::Counter *ResumeMissesC = nullptr;
  rt::cont::Cells ContCells;
};

} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SUSPEND_H
