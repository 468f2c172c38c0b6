//===- doppio/kernel/kernel.cpp - Unified scheduling kernel ---------------==//

#include "doppio/kernel/kernel.h"

#include <algorithm>
#include <cassert>

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
  auto Rec = std::make_unique<TimerRec>();
  Rec->DueNs = Clock.nowNs() + DelayNs;
  Rec->Seq = NextSeq++;
  Rec->Handle = NextHandle++;
  Rec->L = L;
  Rec->Fn = std::move(Fn);
  Rec->Span = Reg.spans().current();
  uint64_t Handle = Rec->Handle;
  LiveTimers.emplace(Handle, Rec.get());
  heapPush(std::move(Rec));
  TimersScheduledC->inc();
  Cells[static_cast<size_t>(L)].Posted->inc();
  return Handle;
}

bool Kernel::cancelTimer(uint64_t Handle) {
  auto It = LiveTimers.find(Handle);
  if (It == LiveTimers.end())
    return false;
  TimerRec *Rec = It->second;
  LiveTimers.erase(It);
  if (!Rec)
    return true; // Already promoted: next() skips it.
  Rec->Cancelled = true;
  Rec->Fn = nullptr; // Drop captured state eagerly.
  ++CancelledInHeap;
  TimersCancelledC->inc();
  compactIfNeeded();
  return true;
}

bool Kernel::heapLater(const std::unique_ptr<TimerRec> &A,
                       const std::unique_ptr<TimerRec> &B) {
  // std::push_heap builds a max-heap; invert so the earliest (DueNs, Seq)
  // surfaces at Heap.front().
  if (A->DueNs != B->DueNs)
    return A->DueNs > B->DueNs;
  return A->Seq > B->Seq;
}

void Kernel::heapPush(std::unique_ptr<TimerRec> Rec) {
  Heap.push_back(std::move(Rec));
  std::push_heap(Heap.begin(), Heap.end(), heapLater);
}

std::unique_ptr<Kernel::TimerRec> Kernel::heapPop() {
  std::pop_heap(Heap.begin(), Heap.end(), heapLater);
  std::unique_ptr<TimerRec> Rec = std::move(Heap.back());
  Heap.pop_back();
  return Rec;
}

void Kernel::dropCancelledTop() {
  while (!Heap.empty() && Heap.front()->Cancelled) {
    heapPop();
    --CancelledInHeap;
    TimersReapedC->inc();
  }
}

void Kernel::promoteDue() {
  uint64_t NowNs = Clock.nowNs();
  for (;;) {
    dropCancelledTop();
    if (Heap.empty() || Heap.front()->DueNs > NowNs)
      break;
    std::unique_ptr<TimerRec> Rec = heapPop();
    // The handle stays live, now marking a queued timer, until next()
    // dispatches or skips it.
    auto It = LiveTimers.find(Rec->Handle);
    assert(It != LiveTimers.end() && "live heap entry without a handle");
    It->second = nullptr;
    // A promoted timer's ReadyNs is its due time, not the promotion
    // moment: queue-delay accounting should charge the wait behind other
    // work, and input-latency tracking in the facade depends on it.
    Lanes[static_cast<size_t>(Rec->L)].push_back(
        {std::move(Rec->Fn), Rec->DueNs, Rec->Handle, Rec->Span});
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
  std::erase_if(Heap, [](const std::unique_ptr<TimerRec> &Rec) {
    return Rec->Cancelled;
  });
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
      if (Item.Timer && LiveTimers.erase(Item.Timer) == 0) {
        Cells[Idx].CancelledSkipped->inc();
        break; // Re-promote and re-scan from the top lane.
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
    if (HorizonNs && Heap.front()->DueNs > *HorizonNs)
      return std::nullopt;
    Clock.advanceTo(Heap.front()->DueNs);
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
  return Heap.front()->DueNs;
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
