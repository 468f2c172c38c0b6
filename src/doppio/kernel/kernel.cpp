//===- doppio/kernel/kernel.cpp - Unified scheduling kernel ---------------==//

#include "doppio/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace doppio;
using namespace doppio::kernel;

const char *doppio::kernel::laneName(Lane L) {
  switch (L) {
  case Lane::Input:
    return "input";
  case Lane::IoCompletion:
    return "io";
  case Lane::Resume:
    return "resume";
  case Lane::Timer:
    return "timer";
  case Lane::Background:
    return "background";
  }
  return "?";
}

Kernel::Kernel(browser::VirtualClock &Clock)
    : Clock(Clock), OwnedReg(std::make_unique<obs::Registry>(Clock)),
      Reg(*OwnedReg) {
  bindCells();
}

Kernel::Kernel(browser::VirtualClock &Clock, obs::Registry &Reg)
    : Clock(Clock), Reg(Reg) {
  bindCells();
}

void Kernel::bindCells() {
  // claimPrefix so a second kernel on a shared registry (not a
  // configuration the tree builds today, but claimPrefix makes it safe)
  // gets "kernel2.*" cells instead of corrupting the first one's.
  std::string P = Reg.claimPrefix("kernel");
  for (size_t I = 0; I < NumLanes; ++I) {
    std::string Base = P + ".lane." + laneName(static_cast<Lane>(I)) + ".";
    LaneCells &LC = Cells[I];
    LC.Posted = &Reg.counter(Base + "posted");
    LC.Dispatched = &Reg.counter(Base + "dispatched");
    LC.CancelledSkipped = &Reg.counter(Base + "cancelled_skipped");
    LC.QueueDelayNsTotal = &Reg.counter(Base + "queue_delay_ns_total");
    LC.RunNsTotal = &Reg.counter(Base + "run_ns_total");
    LC.QueueDelayNsMax = &Reg.gauge(Base + "queue_delay_ns_max");
    LC.RunNsMax = &Reg.gauge(Base + "run_ns_max");
  }
  TimersScheduledC = &Reg.counter(P + ".timer.scheduled");
  TimersCancelledC = &Reg.counter(P + ".timer.cancelled");
  TimersReapedC = &Reg.counter(P + ".timer.reaped");
  HeapCompactionsC = &Reg.counter(P + ".timer.heap_compactions");
}

Counters Kernel::counters() const {
  Counters Out;
  for (size_t I = 0; I < NumLanes; ++I) {
    const LaneCells &LC = Cells[I];
    LaneCounters &O = Out.Lanes[I];
    O.Posted = LC.Posted->value();
    O.Dispatched = LC.Dispatched->value();
    O.CancelledSkipped = LC.CancelledSkipped->value();
    O.TotalQueueDelayNs = LC.QueueDelayNsTotal->value();
    O.MaxQueueDelayNs = static_cast<uint64_t>(LC.QueueDelayNsMax->value());
    O.TotalRunNs = LC.RunNsTotal->value();
    O.MaxRunNs = static_cast<uint64_t>(LC.RunNsMax->value());
  }
  Out.TimersScheduled = TimersScheduledC->value();
  Out.TimersCancelled = TimersCancelledC->value();
  Out.TimersReaped = TimersReapedC->value();
  Out.HeapCompactions = HeapCompactionsC->value();
  return Out;
}

void Kernel::post(Lane L, WorkFn Fn) {
  assert(Fn && "posting empty work");
  size_t Idx = static_cast<size_t>(L);
  Lanes[Idx].push_back(
      {std::move(Fn), Clock.nowNs(), /*Timer=*/0, Reg.spans().current()});
  Cells[Idx].Posted->inc();
}

void Kernel::post(Lane L, rt::Continuation K) {
  // WorkFn is a copyable std::function; the move-only continuation rides
  // in a shared_ptr. One-shot enforcement lives in the continuation, so
  // even a pathological double-dispatch is accounted, not undefined.
  auto Held = std::make_shared<rt::Continuation>(std::move(K));
  post(L, [Held] {
    if (Held->armed())
      Held->resume();
  });
}

uint64_t Kernel::postAfter(Lane L, WorkFn Fn, uint64_t DelayNs) {
  assert(Fn && "scheduling empty work");
  uint32_t Slot = 0;
  if (FreeSlots.empty()) {
    // Slot + 1 must fit the handle's low 32 bits.
    assert(Slots.size() < UINT32_MAX && "timer slot table full");
    Slot = static_cast<uint32_t>(Slots.size());
    Slots.emplace_back();
  } else {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
  }
  TimerRec &Rec = Slots[Slot];
  Rec.Fn = std::move(Fn);
  Rec.Span = Reg.spans().current();
  Rec.L = L;
  Rec.State = SlotState::Armed;
  Heap.push_back({Clock.nowNs() + DelayNs, NextSeq++, Slot});
  std::push_heap(Heap.begin(), Heap.end(), heapLater);
  TimersScheduledC->inc();
  Cells[static_cast<size_t>(L)].Posted->inc();
  return handleOf(Slot);
}

bool Kernel::cancelTimer(uint64_t Handle) {
  std::optional<uint32_t> Slot = liveSlot(Handle);
  if (!Slot)
    return false;
  TimerRec &Rec = Slots[*Slot];
  if (Rec.State == SlotState::Queued) {
    // Already promoted: the lane item's handle stops resolving, so next()
    // skips it, and the slot is free for the next timer.
    freeSlot(*Slot);
    return true;
  }
  // Drop captured state eagerly, but only once the bookkeeping is done: a
  // closure's destructor may post or cancel timers, which can grow Slots
  // out from under Rec.
  WorkFn Dead = std::exchange(Rec.Fn, nullptr);
  Rec.State = SlotState::Cancelled;
  ++CancelledInHeap;
  TimersCancelledC->inc();
  compactIfNeeded();
  return true;
}

std::optional<uint32_t> Kernel::liveSlot(uint64_t Handle) const {
  uint64_t Index = Handle & UINT32_MAX;
  if (Index == 0 || Index > Slots.size())
    return std::nullopt;
  const TimerRec &Rec = Slots[Index - 1];
  if (Rec.Gen != (Handle >> 32) ||
      (Rec.State != SlotState::Armed && Rec.State != SlotState::Queued))
    return std::nullopt;
  return static_cast<uint32_t>(Index - 1);
}

uint64_t Kernel::handleOf(uint32_t Slot) const {
  return (static_cast<uint64_t>(Slots[Slot].Gen) << 32) | (Slot + 1ULL);
}

void Kernel::freeSlot(uint32_t Slot) {
  TimerRec &Rec = Slots[Slot];
  assert(!Rec.Fn && "freeing a timer slot that still holds work");
  ++Rec.Gen;
  Rec.State = SlotState::Free;
  FreeSlots.push_back(Slot);
}

bool Kernel::heapLater(const HeapEntry &A, const HeapEntry &B) {
  // std::push_heap builds a max-heap; invert so the earliest (DueNs, Seq)
  // surfaces at Heap.front().
  if (A.DueNs != B.DueNs)
    return A.DueNs > B.DueNs;
  return A.Seq > B.Seq;
}

Kernel::HeapEntry Kernel::heapPop() {
  std::pop_heap(Heap.begin(), Heap.end(), heapLater);
  HeapEntry E = Heap.back();
  Heap.pop_back();
  return E;
}

void Kernel::dropCancelledTop() {
  while (!Heap.empty() &&
         Slots[Heap.front().Slot].State == SlotState::Cancelled) {
    freeSlot(heapPop().Slot);
    --CancelledInHeap;
    TimersReapedC->inc();
  }
}

void Kernel::promoteDue() {
  uint64_t NowNs = Clock.nowNs();
  for (;;) {
    dropCancelledTop();
    if (Heap.empty() || Heap.front().DueNs > NowNs)
      break;
    HeapEntry E = heapPop();
    TimerRec &Rec = Slots[E.Slot];
    // The handle stays live, now marking a queued timer, until next()
    // dispatches or skips it.
    Rec.State = SlotState::Queued;
    // A promoted timer's ReadyNs is its due time, not the promotion
    // moment: queue-delay accounting should charge the wait behind other
    // work, and input-latency tracking in the facade depends on it.
    Lanes[static_cast<size_t>(Rec.L)].push_back(
        {std::exchange(Rec.Fn, nullptr), E.DueNs, handleOf(E.Slot),
         Rec.Span});
  }
}

void Kernel::compactIfNeeded() {
  // Lazy deletion keeps cancelTimer O(1), but a server that arms and
  // cancels an idle-sweep timer per connection forever would grow the
  // heap without bound. Rebuild once cancelled entries dominate.
  if (Heap.size() < 64 || CancelledInHeap * 2 <= Heap.size())
    return;
  TimersReapedC->inc(CancelledInHeap);
  HeapCompactionsC->inc();
  size_t Kept = 0;
  for (size_t I = 0; I < Heap.size(); ++I) {
    if (Slots[Heap[I].Slot].State == SlotState::Cancelled)
      freeSlot(Heap[I].Slot);
    else
      Heap[Kept++] = Heap[I];
  }
  Heap.resize(Kept);
  std::make_heap(Heap.begin(), Heap.end(), heapLater);
  CancelledInHeap = 0;
}

std::optional<Kernel::Work> Kernel::next(std::optional<uint64_t> HorizonNs) {
  for (;;) {
    promoteDue();
    bool Popped = false;
    for (size_t Idx = 0; Idx < NumLanes; ++Idx) {
      std::deque<ReadyItem> &Q = Lanes[Idx];
      if (Q.empty())
        continue;
      ReadyItem Item = std::move(Q.front());
      Q.pop_front();
      Popped = true;
      // A timer runs only if its handle is still live; dispatch retires
      // the handle, so the callback already sees itself disarmed.
      if (Item.Timer) {
        std::optional<uint32_t> Slot = liveSlot(Item.Timer);
        if (!Slot) {
          Cells[Idx].CancelledSkipped->inc();
          break; // Re-promote and re-scan from the top lane.
        }
        freeSlot(*Slot);
      }
      return Work{std::move(Item.Fn), static_cast<Lane>(Idx), Item.ReadyNs,
                  Item.Span};
    }
    if (Popped)
      continue;
    // Every lane empty. If live timers remain, the system is idle until
    // the earliest due time: advance the virtual clock over the gap —
    // unless a horizon forbids jumping that far (lockstep cluster
    // driving: traffic from another tab may still be due earlier).
    dropCancelledTop();
    if (Heap.empty())
      return std::nullopt;
    if (HorizonNs && Heap.front().DueNs > *HorizonNs)
      return std::nullopt;
    Clock.advanceTo(Heap.front().DueNs);
  }
}

std::optional<uint64_t> Kernel::nextEligibleNs() {
  // Queued lane work (even cancelled timers: popping them is still a
  // dispatch step) is eligible immediately.
  for (const std::deque<ReadyItem> &Q : Lanes)
    if (!Q.empty())
      return Clock.nowNs();
  dropCancelledTop();
  if (Heap.empty())
    return std::nullopt;
  return Heap.front().DueNs;
}

void Kernel::noteDispatched(const Work &W, uint64_t StartNs,
                            uint64_t EndNs) {
  assert(EndNs >= StartNs);
  uint64_t QueueDelayNs = StartNs > W.ReadyNs ? StartNs - W.ReadyNs : 0;
  uint64_t RunNs = EndNs - StartNs;
  const LaneCells &LC = Cells[static_cast<size_t>(W.L)];
  LC.Dispatched->inc();
  LC.QueueDelayNsTotal->inc(QueueDelayNs);
  LC.QueueDelayNsMax->noteMax(static_cast<int64_t>(QueueDelayNs));
  LC.RunNsTotal->inc(RunNs);
  LC.RunNsMax->noteMax(static_cast<int64_t>(RunNs));
}

bool Kernel::idle() const {
  return queuedWork() == 0 && pendingTimers() == 0;
}

size_t Kernel::queuedWork() const {
  size_t N = 0;
  for (const std::deque<ReadyItem> &Q : Lanes)
    N += Q.size();
  return N;
}
