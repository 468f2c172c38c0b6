//===- doppio/suspend.cpp -------------------------------------------------==//

#include "doppio/suspend.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <string_view>

using namespace doppio;
using namespace doppio::rt;

const char *rt::resumeMechanismName(ResumeMechanism M) {
  switch (M) {
  case ResumeMechanism::SetTimeout:
    return "setTimeout";
  case ResumeMechanism::SendMessage:
    return "sendMessage";
  case ResumeMechanism::SetImmediate:
    return "setImmediate";
  }
  return "?";
}

ResumeMechanism rt::chooseResumeMechanism(const browser::Profile &P) {
  if (P.HasSetImmediate)
    return ResumeMechanism::SetImmediate;
  if (!P.SendMessageSynchronous)
    return ResumeMechanism::SendMessage;
  // IE8: sendMessage dispatches synchronously, so it cannot yield the
  // JavaScript thread; fall back to setTimeout and eat the 4 ms clamp.
  return ResumeMechanism::SetTimeout;
}

Suspender::Suspender(browser::BrowserEnv &Env)
    : Env(Env), Mechanism(chooseResumeMechanism(Env.profile())),
      TimeSliceNs(browser::msToNs(10)) {
  SliceStartNs = Env.clock().nowNs();
  obs::Registry &Reg = Env.metrics();
  std::string P = Reg.claimPrefix("suspend");
  SuspendedNsC = &Reg.counter(P + ".suspended_ns_total");
  ResumptionsC = &Reg.counter(P + ".resumptions");
  ResumeNsH = &Reg.histogram(P + ".resume_ns");
  PendingG = &Reg.gauge(P + ".pending_resumptions");
  ResumeMissesC = &Reg.counter(P + ".resume_misses");
  ContCells = cont::Cells::resolve(Reg);
}

void Suspender::forceFixedCounter(uint64_t Count) {
  FixedCounter = Count;
  if (Count) {
    CounterTarget = Count;
    Counter = Count;
    return;
  }
  // Restoring adaptation: reseed from the CMA now. Leaving the stale
  // pinned target in place would run one whole countdown (possibly
  // millions of checks at an ablation-sized target) before the next
  // adaptation point corrects it.
  CounterTarget = targetFromCma();
  Counter = CounterTarget;
}

uint64_t Suspender::targetFromCma() const {
  if (CmaCheckNs <= 0.0)
    return DefaultCounterTarget;
  double Target = static_cast<double>(TimeSliceNs) / CmaCheckNs;
  return static_cast<uint64_t>(
      std::clamp(Target, 64.0, 64.0 * 1024.0 * 1024.0));
}

void Suspender::scheduleResumption(std::function<void()> Resume) {
  scheduleResumption(
      Continuation::capture(ContCells, std::move(Resume), "suspend"));
}

void Suspender::scheduleResumption(Continuation K) {
  uint64_t Id = NextResumptionId++;
  PendingResumptions.emplace(
      Id, Pending{std::move(K), Env.clock().nowNs()});
  PendingG->set(static_cast<int64_t>(PendingResumptions.size()));
  dispatchViaMechanism(Id);
}

void Suspender::fire(uint64_t Id) {
  auto It = PendingResumptions.find(Id);
  if (It == PendingResumptions.end()) {
    // A dispatch with no parked resumption: the id fired twice, or was
    // never registered. Either way a one-shot invariant broke upstream.
    ResumeMissesC->inc();
    assert(!"resumption dispatched with no parked continuation");
    return;
  }
  Continuation K = std::move(It->second.K);
  uint64_t SuspendedAt = It->second.SuspendedAtNs;
  PendingResumptions.erase(It);
  PendingG->set(static_cast<int64_t>(PendingResumptions.size()));
  uint64_t WaitNs = Env.clock().nowNs() - SuspendedAt;
  SuspendedNsC->inc(WaitNs);
  ResumptionsC->inc();
  ResumeNsH->record(WaitNs);
  beginSlice();
  K.resume();
}

void Suspender::dispatchViaMechanism(uint64_t Id) {
  // Mechanism choice is kernel lane-backend selection: every path lands
  // the resumption on the Resume lane; what differs is the latency charged
  // on the way there (immediate cost, message cost, or the 4 ms clamp).
  // The continuation stays parked in PendingResumptions; only the prompt
  // id crosses the hop.
  switch (Mechanism) {
  case ResumeMechanism::SetImmediate: {
    bool Ok = Env.loop().trySetImmediate([this, Id] { fire(Id); });
    assert(Ok && "setImmediate chosen on a browser without it");
    (void)Ok;
    return;
  }
  case ResumeMechanism::SendMessage: {
    // sendMessage carries only strings; the hop is the unique string ID,
    // demultiplexed by one global handler (§4.4).
    if (!HandlerRegistered) {
      // The channel is page-wide: any script may post to it, so a
      // message is ours only if its whole suffix is a decimal uint64_t
      // naming a parked resumption. Anything else is foreign: ignored,
      // and not a resume miss.
      Env.channel().setOnMessage([this](const js::String &Msg) {
        std::string Text = js::toAscii(Msg);
        constexpr std::string_view Prefix = "doppio-resume:";
        if (!std::string_view(Text).starts_with(Prefix))
          return;
        const char *First = Text.data() + Prefix.size();
        const char *Last = Text.data() + Text.size();
        uint64_t Id = 0;
        auto [End, Ec] = std::from_chars(First, Last, Id);
        if (Ec != std::errc() || End != Last ||
            !PendingResumptions.contains(Id))
          return;
        fire(Id);
      });
      HandlerRegistered = true;
    }
    Env.channel().post(
        js::fromAscii("doppio-resume:" + std::to_string(Id)));
    return;
  }
  case ResumeMechanism::SetTimeout: {
    // IE8 fallback: the resumption still targets the Resume lane but
    // must eat the HTML timer clamp on the way (§4.4). A resumption is
    // never cancelled, so the handle is dropped (dropping does not
    // cancel).
    Env.loop().postAfter(kernel::Lane::Resume, [this, Id] { fire(Id); },
                         Env.profile().MinTimeoutClampNs);
    return;
  }
  }
}

bool Suspender::countdownExpired() {
  // Counter hit zero: measure how long this countdown took and update the
  // cumulative moving average of per-check cost (§4.1).
  uint64_t Now = Env.clock().nowNs();
  uint64_t ElapsedNs = Now - SliceStartNs;
  double NsPerCheck =
      static_cast<double>(ElapsedNs) / static_cast<double>(CounterTarget);
  CmaCheckNs = (CmaCheckNs * static_cast<double>(CmaSamples) + NsPerCheck) /
               static_cast<double>(CmaSamples + 1);
  ++CmaSamples;
  if (FixedCounter) {
    // Ablation mode: no adaptation.
    CounterTarget = FixedCounter;
  } else if (CmaCheckNs > 0.0) {
    CounterTarget = targetFromCma();
  } else {
    // Clock did not advance over the countdown: double, within the same
    // clamp range the CMA path uses.
    CounterTarget = static_cast<uint64_t>(std::clamp(
        static_cast<double>(CounterTarget) * 2.0, 64.0,
        64.0 * 1024.0 * 1024.0));
  }
  Counter = CounterTarget;
  SliceStartNs = Now;
  return true;
}

void Suspender::beginSlice() {
  Counter = CounterTarget;
  SliceStartNs = Env.clock().nowNs();
}
