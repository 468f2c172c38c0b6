//===- doppio/kernel/kernel.h - Unified scheduling kernel --------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single dispatch core under every scheduling path in the system. The
/// paper's execution environment is one mechanism viewed from four angles —
/// event segmentation (§3.1, §4.1), resumption scheduling (§4.4), green
/// threads (§4.3), and sync-over-async I/O (§4.2) — and before this kernel
/// existed each angle kept its own ad-hoc callback queue (the event loop's
/// ready deque, the Suspender's resumption registry, the AsyncBridge's
/// inline unblocks, SimNet's deliveries, doppiod's sweep timers). Browsix
/// (PAPERS.md) shows that pushing these into one shared in-browser kernel
/// is what unlocks multi-process scale; this class is that kernel.
///
/// It provides:
///
///  - **Prioritized dispatch lanes.** Ready work lives in five lanes
///    (input, I/O completion, resumption, timer, background), drained in
///    strict priority order with FIFO order inside a lane. A queued input
///    event therefore always dispatches before pending background
///    completions — a 100-client request flood can no longer starve user
///    input (the §3.1 responsiveness property, now structural).
///
///  - **An O(log n) timer heap.** Timed work is a binary min-heap keyed by
///    (due time, sequence), replacing the event loop's sorted-on-demand
///    vector. Equal due times preserve insertion order, which is what TCP
///    FIFO delivery in SimNet relies on. The heap holds plain
///    (due, sequence, slot) entries; the timers themselves live inline in
///    a slot table with a free list, so arming a timer allocates nothing
///    once the table has grown to the working set.
///
///  - **One way to cancel a timer.** Every timer returns a handle that
///    stays live until the timer is dispatched. A handle is the timer's
///    slot plus the slot's generation, which is bumped each time the slot
///    is freed, so a stale handle never reaches the slot's next occupant.
///    cancelTimer() works while the timer waits in the heap (O(1), lazy
///    deletion) and after it has been promoted into its lane (the lane
///    skips it at dispatch). Cancelled heap entries are reaped on
///    promotion and the heap is compacted whenever cancelled entries
///    outnumber live ones, so a long-lived server that arms and cancels
///    timers forever stays bounded.
///
///  - **Per-lane counters.** Every dispatch lands in registry cells
///    (`kernel.lane.<lane>.*`: posted, dispatched, cancelled-skipped,
///    queue delay and run time, totals and maxima) — the data that answers
///    *why* a Figure 5/7 number moved. Per-operation queue delay rides the
///    causal span instead (obs/span.h).
///
/// The kernel is policy-free about browser semantics: the 4 ms setTimeout
/// clamp, the watchdog, and per-profile costs stay in browser::EventLoop,
/// which is now a run-to-completion facade over these lanes.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_KERNEL_KERNEL_H
#define DOPPIO_DOPPIO_KERNEL_KERNEL_H

#include "browser/virtual_clock.h"
#include "doppio/cont/continuation.h"
#include "doppio/obs/registry.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace doppio {
namespace kernel {

/// Dispatch lanes in strict priority order: when several lanes hold ready
/// work, the lowest-numbered lane always runs first; within a lane order
/// is FIFO (by due time, then insertion sequence, for timed work).
enum class Lane : uint8_t {
  /// User interaction; its queueing delay is the page-responsiveness
  /// metric of §3.1.
  Input = 0,
  /// Completions of browser-internal asynchronous work: XHR responses,
  /// IndexedDB transactions, SimNet/WebSocket deliveries (§4.2).
  IoCompletion = 1,
  /// Suspend-and-resume resumption callbacks and green-thread slices
  /// (§4.3, §4.4).
  Resume = 2,
  /// JavaScript-visible timers (setTimeout) and housekeeping timers such
  /// as doppiod's idle sweep.
  Timer = 3,
  /// Deferred cleanup: connection reaping, bridge teardown.
  Background = 4,
};

constexpr size_t NumLanes = 5;

const char *laneName(Lane L);

/// Aggregate dispatch statistics for one lane.
struct LaneCounters {
  uint64_t Posted = 0;
  uint64_t Dispatched = 0;
  /// Timers cancelled after promotion into this lane, skipped at
  /// dispatch.
  uint64_t CancelledSkipped = 0;
  uint64_t TotalQueueDelayNs = 0;
  uint64_t MaxQueueDelayNs = 0;
  uint64_t TotalRunNs = 0;
  uint64_t MaxRunNs = 0;
};

/// Exported kernel counters (per lane + timer machinery). Since the obs
/// registry landed this is a *view*: counters() assembles it on demand
/// from registry cells (`kernel.lane.<lane>.*`, `kernel.timer.*`), shape
/// and values identical to when the kernel kept a private struct.
struct Counters {
  LaneCounters Lanes[NumLanes];
  uint64_t TimersScheduled = 0;
  /// cancelTimer() calls that found the timer still in the heap (a
  /// cancel after promotion counts in the lane's CancelledSkipped).
  uint64_t TimersCancelled = 0;
  /// Cancelled heap entries discarded before firing (on promotion, top
  /// cleanup, or compaction).
  uint64_t TimersReaped = 0;
  uint64_t HeapCompactions = 0;

  uint64_t totalDispatched() const {
    uint64_t N = 0;
    for (const LaneCounters &LC : Lanes)
      N += LC.Dispatched;
    return N;
  }
};

/// The unified scheduler. Single-threaded over the virtual clock; drained
/// by a host loop (browser::EventLoop) that calls next(), runs the item,
/// and reports the dispatch back via noteDispatched().
class Kernel {
public:
  using WorkFn = std::function<void()>;

  /// Standalone kernel: owns a private metrics registry (tests, tools).
  explicit Kernel(browser::VirtualClock &Clock);

  /// Kernel over a shared registry (the event loop's): lane and timer
  /// counters become cells in \p Reg, and posted work captures the
  /// registry's current span so causal ids ride every async hop.
  Kernel(browser::VirtualClock &Clock, obs::Registry &Reg);

  Kernel(const Kernel &) = delete;
  Kernel &operator=(const Kernel &) = delete;

  /// Enqueues \p Fn at the back of lane \p L, eligible to run now.
  void post(Lane L, WorkFn Fn);

  /// Enqueues a reified continuation on lane \p L (DESIGN.md §16). The
  /// registry's current span is captured like any other post, so causal
  /// ids follow the suspended computation across the hop. A continuation
  /// disarmed before dispatch (resumed elsewhere, or its owner died) is a
  /// tolerated no-op at dispatch time.
  void post(Lane L, rt::Continuation K);

  /// Schedules \p Fn on lane \p L, due \p DelayNs from now. Returns a
  /// timer handle (never 0) usable with cancelTimer() until the timer is
  /// dispatched.
  uint64_t postAfter(Lane L, WorkFn Fn, uint64_t DelayNs);

  /// Cancels a timer that has not been dispatched yet: in O(1) from the
  /// heap, or, once it has been promoted into its lane, by having next()
  /// skip it. Returns false (a no-op) for already-dispatched,
  /// already-cancelled, or unknown handles.
  bool cancelTimer(uint64_t Handle);

  /// True while \p Handle's timer is still going to run: scheduled, not
  /// yet dispatched, not cancelled. False inside the timer's own callback.
  bool timerArmed(uint64_t Handle) const {
    return liveSlot(Handle).has_value();
  }

  /// A dispatched unit of work, handed to the host loop.
  struct Work {
    WorkFn Fn;
    Lane L = Lane::Background;
    /// When the item became eligible (for queue-delay accounting).
    uint64_t ReadyNs = 0;
    /// The span current when the item was posted (0 for none). The host
    /// loop restores it around the dispatch so the causal id follows the
    /// operation across the hop.
    obs::SpanId Span = 0;
  };

  /// Promotes due timers, then pops the highest-priority ready item,
  /// skipping cancelled work. If every lane is empty but live timers
  /// remain, advances the virtual clock over the idle gap to the next due
  /// time. Returns nullopt when no runnable work remains.
  ///
  /// With \p HorizonNs set, the idle-gap advance is bounded: the clock is
  /// never jumped past the horizon, and nullopt is returned instead when
  /// the earliest timer lies beyond it. Already-queued lane work still
  /// runs even if the clock has charged past the horizon — the bound
  /// gates clock *jumps*, not execution. This is what lets a cluster
  /// driver interleave several kernels (one per tab) without any tab
  /// skipping over traffic still in flight from another tab
  /// (doppio/cluster/driver.h).
  std::optional<Work> next(std::optional<uint64_t> HorizonNs = std::nullopt);

  /// Virtual time of the earliest runnable work: now if any lane holds an
  /// item, else the earliest live timer's due time, else nullopt (fully
  /// idle). Reaps cancelled heap tops as a side effect, hence non-const.
  /// The cluster lockstep driver uses this to pick its global horizon.
  std::optional<uint64_t> nextEligibleNs();

  /// Records lane counters for a dispatch performed by the host loop.
  void noteDispatched(const Work &W, uint64_t StartNs, uint64_t EndNs);

  /// True when no queued work and no live timers remain.
  bool idle() const;

  /// Live (non-cancelled) timers in the heap.
  size_t pendingTimers() const { return HeapSize() - CancelledInHeap; }
  /// Cancelled entries still occupying heap slots (bounded: reaped on
  /// promotion and compacted when they outnumber live entries).
  size_t cancelledTimers() const { return CancelledInHeap; }
  /// Items currently queued across all lanes (including not-yet-skipped
  /// cancelled items).
  size_t queuedWork() const;

  /// Snapshot of the kernel counters, assembled from registry cells.
  /// Shape-compatible with the former by-reference accessor: callers that
  /// bound `const Counters &C = K.counters();` keep working via temporary
  /// lifetime extension.
  Counters counters() const;

  /// The metrics registry this kernel reports into (owned or shared).
  obs::Registry &metrics() { return Reg; }
  const obs::Registry &metrics() const { return Reg; }

private:
  struct ReadyItem {
    WorkFn Fn;
    uint64_t ReadyNs = 0;
    /// A promoted timer's handle (0 for plain posts): the item runs only
    /// if the handle is still live when it reaches the front.
    uint64_t Timer = 0;
    obs::SpanId Span = 0;
  };

  /// Where a timer slot's record is in its life.
  enum class SlotState : uint8_t {
    /// On the free list.
    Free,
    /// Waiting in the heap; Fn holds the work.
    Armed,
    /// Cancelled while in the heap: its entry still points here until it
    /// is reaped, so the slot cannot be reused yet. Fn is empty.
    Cancelled,
    /// Promoted into its lane; the lane item holds Fn and the handle.
    Queued,
  };

  /// One timer, stored inline in the slot table. A handle is
  /// `(Gen << 32) | (slot + 1)`; freeing a slot bumps Gen, so every handle
  /// issued for the slot's previous occupants stops resolving.
  struct TimerRec {
    WorkFn Fn;
    obs::SpanId Span = 0;
    uint32_t Gen = 0;
    Lane L = Lane::Timer;
    SlotState State = SlotState::Free;
  };

  /// A heap entry: the (DueNs, Seq) key plus the slot it schedules.
  struct HeapEntry {
    uint64_t DueNs = 0;
    uint64_t Seq = 0;
    uint32_t Slot = 0;
  };

  /// Per-lane registry cells, resolved once at construction so the hot
  /// path stays a pointer increment.
  struct LaneCells {
    obs::Counter *Posted = nullptr;
    obs::Counter *Dispatched = nullptr;
    obs::Counter *CancelledSkipped = nullptr;
    obs::Counter *QueueDelayNsTotal = nullptr;
    obs::Counter *RunNsTotal = nullptr;
    obs::Gauge *QueueDelayNsMax = nullptr;
    obs::Gauge *RunNsMax = nullptr;
  };

  /// Resolves every lane/timer cell in the registry under a claimed
  /// "kernel" prefix.
  void bindCells();

  size_t HeapSize() const { return Heap.size(); }
  /// Min-heap ordering: earliest (DueNs, Seq) at the top.
  static bool heapLater(const HeapEntry &A, const HeapEntry &B);
  HeapEntry heapPop();
  /// The slot \p Handle names, if its timer is Armed or Queued.
  std::optional<uint32_t> liveSlot(uint64_t Handle) const;
  /// The handle for \p Slot's current occupant.
  uint64_t handleOf(uint32_t Slot) const;
  /// Returns \p Slot to the free list, retiring every handle issued for it.
  void freeSlot(uint32_t Slot);
  /// Discards cancelled records sitting at the top of the heap.
  void dropCancelledTop();
  /// Moves every timer due at or before now into its lane, reaping
  /// cancelled entries it passes over.
  void promoteDue();
  /// Rebuilds the heap without cancelled entries once they outnumber live
  /// ones (keeps a cancel-heavy server's heap bounded).
  void compactIfNeeded();

  browser::VirtualClock &Clock;
  /// Set only by the standalone constructor; Reg aliases it then.
  std::unique_ptr<obs::Registry> OwnedReg;
  obs::Registry &Reg;
  std::deque<ReadyItem> Lanes[NumLanes];
  /// Timer records by slot; a slot is reused once its timer is dispatched,
  /// cancelled after promotion, or reaped from the heap.
  std::vector<TimerRec> Slots;
  std::vector<uint32_t> FreeSlots;
  std::vector<HeapEntry> Heap;
  size_t CancelledInHeap = 0;
  uint64_t NextSeq = 0;
  LaneCells Cells[NumLanes];
  obs::Counter *TimersScheduledC = nullptr;
  obs::Counter *TimersCancelledC = nullptr;
  obs::Counter *TimersReapedC = nullptr;
  obs::Counter *HeapCompactionsC = nullptr;
};

} // namespace kernel
} // namespace doppio

#endif // DOPPIO_DOPPIO_KERNEL_KERNEL_H
