//===- doppio/obs/span.cpp ------------------------------------------------==//

#include "doppio/obs/span.h"

using namespace doppio;
using namespace doppio::obs;

SpanId SpanStore::beginChildOf(std::string Name, SpanId Parent) {
  if ((OpenCount + 1) * 4 > Open.size() * 3)
    grow();
  SpanId Id = NextId++;
  size_t Mask = Open.size() - 1;
  size_t I = Id & Mask;
  while (Open[I].Id != 0)
    I = (I + 1) & Mask;
  Span &S = Open[I];
  S.Id = Id;
  S.Parent = Parent;
  S.Name = std::move(Name);
  S.StartNs = Clock.nowNs();
  S.EndNs = 0;
  S.QueueDelayNs = 0;
  ++OpenCount;
  ++Started;
  return Id;
}

void SpanStore::end(SpanId Id) {
  size_t I = slotOf(Id);
  if (I == NoSlot)
    return;
  Span S = std::move(Open[I]);
  // Backward-shift deletion: walk the rest of the probe run and pull each
  // entry whose home slot is not after the hole back into it, so lookups
  // never need tombstones.
  size_t Mask = Open.size() - 1;
  for (size_t J = (I + 1) & Mask; Open[J].Id != 0; J = (J + 1) & Mask) {
    size_t Home = Open[J].Id & Mask;
    if (((J - Home) & Mask) >= ((J - I) & Mask)) {
      Open[I] = std::move(Open[J]);
      I = J;
    }
  }
  Open[I].Id = 0;
  --OpenCount;
  S.EndNs = Clock.nowNs();
  ++Ended;
  Finished.push_back(std::move(S));
  while (Finished.size() > Retain)
    Finished.pop_front();
}

void SpanStore::addQueueDelay(SpanId Id, uint64_t Ns) {
  if (Ns == 0)
    return;
  size_t I = slotOf(Id);
  if (I != NoSlot)
    Open[I].QueueDelayNs += Ns;
}

const Span *SpanStore::findOpen(SpanId Id) const {
  size_t I = slotOf(Id);
  return I == NoSlot ? nullptr : &Open[I];
}

size_t SpanStore::slotOf(SpanId Id) const {
  if (Id == 0 || Open.empty())
    return NoSlot;
  size_t Mask = Open.size() - 1;
  for (size_t I = Id & Mask;; I = (I + 1) & Mask) {
    if (Open[I].Id == Id)
      return I;
    if (Open[I].Id == 0)
      return NoSlot;
  }
}

void SpanStore::grow() {
  std::vector<Span> Old(Open.empty() ? InitialSlots : Open.size() * 2);
  Old.swap(Open);
  size_t Mask = Open.size() - 1;
  for (Span &S : Old) {
    if (S.Id == 0)
      continue;
    size_t I = S.Id & Mask;
    while (Open[I].Id != 0)
      I = (I + 1) & Mask;
    Open[I] = std::move(S);
  }
}

void SpanStore::reset() {
  Open.clear();
  OpenCount = 0;
  Finished.clear();
  Started = 0;
  Ended = 0;
  Current = 0;
}
