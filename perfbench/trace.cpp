//===- perfbench/trace.cpp - Span self time and span output ---------------===//

#include "trace.h"

#include <algorithm>
#include <numeric>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Bench:
    return "bench";
  case Layer::Loop:
    return "loop";
  case Layer::Jvm:
    return "jvm";
  case Layer::Xhr:
    return "xhr";
  case Layer::Fs:
    return "fs";
  case Layer::Server:
    return "server";
  case Layer::Store:
    return "store";
  case Layer::Slow:
    return "slowstore";
  case Layer::Count:
    break;
  }
  return "?";
}

namespace {

/// Length of the union of [Start, End) intervals (sorted by start),
/// clipped to [Lo, Hi).
template <typename It, typename Get>
uint64_t coveredNs(It Begin, It End, Get Interval, uint64_t Lo, uint64_t Hi) {
  uint64_t Covered = 0, RunStart = 0, RunEnd = 0;
  bool InRun = false;
  for (It I = Begin; I != End; ++I) {
    auto [S, E] = Interval(*I);
    S = std::max(S, Lo);
    E = std::min(E, Hi);
    if (E <= S)
      continue;
    if (InRun && S <= RunEnd) {
      RunEnd = std::max(RunEnd, E);
      continue;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    RunStart = S;
    RunEnd = E;
    InRun = true;
  }
  if (InRun)
    Covered += RunEnd - RunStart;
  return Covered;
}

} // namespace

std::vector<uint64_t> Tracer::selfNs() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].durationNs();
  // Group children by parent, each group in start order.
  std::vector<uint32_t> Order(Spans.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [this](uint32_t A, uint32_t B) {
    if (Spans[A].Parent != Spans[B].Parent)
      return Spans[A].Parent < Spans[B].Parent;
    return Spans[A].StartNs < Spans[B].StartNs;
  });
  auto Interval = [this](uint32_t I) {
    const Span &S = Spans[I];
    return std::pair<uint64_t, uint64_t>(S.StartNs,
                                         S.EndNs ? S.EndNs : S.StartNs);
  };
  size_t I = 0;
  while (I != Order.size()) {
    uint32_t Parent = Spans[Order[I]].Parent;
    size_t J = I;
    while (J != Order.size() && Spans[Order[J]].Parent == Parent)
      ++J;
    if (Parent != 0) {
      const Span &P = Spans[Parent - 1];
      if (P.EndNs)
        Self[Parent - 1] -= coveredNs(Order.begin() + I, Order.begin() + J,
                                      Interval, P.StartNs, P.EndNs);
    }
    I = J;
  }
  return Self;
}

bool Tracer::writeSpans(const std::string &Path) const {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<uint64_t> Self = selfNs();
  uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "{\"id\": %zu, \"parent\": %u, \"layer\": \"%s\", \"name\": "
            "\"%s\", \"start_ns\": %llu, \"end_ns\": %llu, \"self_ns\": "
            "%llu}\n",
            I + 1, S.Parent, layerName(S.L), S.Name,
            static_cast<unsigned long long>(S.StartNs - Origin),
            static_cast<unsigned long long>(S.EndNs ? S.EndNs - Origin : 0),
            static_cast<unsigned long long>(Self[I]));
  }
  return fclose(F) == 0;
}

uint64_t perfbench::unionNs(const Tracer &T, Layer L) {
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  for (const Span &S : T.spans())
    if (S.L == L && S.EndNs)
      Iv.emplace_back(S.StartNs, S.EndNs);
  std::sort(Iv.begin(), Iv.end());
  return coveredNs(Iv.begin(), Iv.end(), [](const auto &P) { return P; }, 0,
                   UINT64_MAX);
}
