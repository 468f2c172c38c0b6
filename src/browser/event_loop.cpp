//===- browser/event_loop.cpp ---------------------------------------------==//

#include "browser/event_loop.h"

#include <algorithm>
#include <cassert>

using namespace doppio;
using namespace doppio::browser;
using doppio::kernel::Lane;

void EventLoop::enqueueTask(Event Fn, EventKind Kind) {
  K.post(Kind == EventKind::Input ? Lane::Input : Lane::Background,
         std::move(Fn));
}

bool TimerHandle::armed() const {
  return Loop && Loop->kernel().timerArmed(Handle);
}

bool TimerHandle::cancel() {
  return Loop && Loop->kernel().cancelTimer(Handle);
}

TimerHandle EventLoop::setTimeout(Event Fn, uint64_t DelayNs,
                                  EventKind Kind) {
  // The HTML timer specification imposes a minimum delay; the paper (§4.4)
  // identifies this 4 ms clamp as what makes setTimeout-based resumption
  // unacceptably slow.
  uint64_t Effective = std::max(DelayNs, Prof.MinTimeoutClampNs);
  return postAfter(Kind == EventKind::Input ? Lane::Input : Lane::Timer,
                   std::move(Fn), Effective);
}

void EventLoop::scheduleAfter(Event Fn, uint64_t DelayNs, EventKind Kind) {
  K.postAfter(Kind == EventKind::Input ? Lane::Input : Lane::IoCompletion,
              std::move(Fn), DelayNs);
}

bool EventLoop::trySetImmediate(Event Fn) {
  if (!Prof.HasSetImmediate)
    return false;
  Clock.chargeNs(Prof.Costs.ImmediateLatencyNs);
  K.post(Lane::Resume, std::move(Fn));
  return true;
}

void EventLoop::post(kernel::Lane L, Event Fn) { K.post(L, std::move(Fn)); }

void EventLoop::post(kernel::Lane L, rt::Continuation Cont) {
  K.post(L, std::move(Cont));
}

TimerHandle EventLoop::postAfter(kernel::Lane L, Event Fn, uint64_t DelayNs) {
  return TimerHandle(this, K.postAfter(L, std::move(Fn), DelayNs));
}

bool EventLoop::runOne() {
  std::optional<kernel::Kernel::Work> W = K.next();
  if (!W)
    return false;
  dispatch(std::move(*W));
  return true;
}

bool EventLoop::runOne(uint64_t HorizonNs) {
  std::optional<kernel::Kernel::Work> W = K.next(HorizonNs);
  if (!W)
    return false;
  dispatch(std::move(*W));
  return true;
}

void EventLoop::run() {
  while (runOne()) {
  }
}

size_t EventLoop::runReadyUntil(uint64_t HorizonNs) {
  size_t N = 0;
  while (runOne(HorizonNs))
    ++N;
  return N;
}

void EventLoop::dispatch(kernel::Kernel::Work W) {
  assert(EventDepth == 0 && "browser events never nest");
  uint64_t Start = Clock.nowNs();
  if (W.L == Lane::Input) {
    uint64_t Latency = Start > W.ReadyNs ? Start - W.ReadyNs : 0;
    MaxInputLatencyNsG->noteMax(static_cast<int64_t>(Latency));
  }
  // Attribute the scheduler wait to the causal span *before* running the
  // callback: the callback may be the one that closes the span, and a
  // closed span no longer accepts queue delay.
  if (W.Span)
    Reg.spans().addQueueDelay(W.Span, Start > W.ReadyNs ? Start - W.ReadyNs
                                                        : 0);
  CurrentEventStartNs = Start;
  ++EventDepth;
  {
    // Restore the span that was current when the work was posted, so the
    // causal id follows the operation across the async hop.
    obs::SpanStore::Scope SpanScope(Reg.spans(), W.Span);
    W.Fn();
  }
  --EventDepth;
  uint64_t End = Clock.nowNs();
  uint64_t DurationNs = End - Start;
  EventsRunC->inc();
  TotalEventNsC->inc(DurationNs);
  MaxEventNsG->noteMax(static_cast<int64_t>(DurationNs));
  if (DurationNs > Prof.WatchdogLimitNs)
    WatchdogKillsC->inc();
  K.noteDispatched(W, Start, End);
}

EventLoop::Stats EventLoop::stats() const {
  Stats S;
  S.EventsRun = EventsRunC->value();
  S.WatchdogKills = WatchdogKillsC->value();
  S.MaxEventNs = static_cast<uint64_t>(MaxEventNsG->value());
  S.TotalEventNs = TotalEventNsC->value();
  S.MaxInputLatencyNs = static_cast<uint64_t>(MaxInputLatencyNsG->value());
  return S;
}

uint64_t EventLoop::currentEventElapsedNs() const {
  assert(EventDepth > 0 && "no event is running");
  return Clock.nowNs() - CurrentEventStartNs;
}

bool EventLoop::currentEventOverLimit() const {
  return currentEventElapsedNs() > Prof.WatchdogLimitNs;
}
