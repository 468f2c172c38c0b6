//===- perfbench/calibrate.cpp --------------------------------------------===//

#include "calibrate.h"

#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using namespace perfbench;

namespace {

/// A fixed amount of host work of the kinds the runtime does (switch
/// dispatch, hash and tree maps with string keys, indirect calls through
/// std::function, short-lived allocations, shift-subtract division) that
/// shares none of its code.
/// Returns a checksum so the work cannot be elided.
uint64_t referenceWork() {
  Rng R(42);
  std::vector<uint8_t> Program(4096);
  for (uint8_t &Op : Program)
    Op = static_cast<uint8_t>(R.below(6));
  uint64_t Acc = 1, Reg = 7;
  for (int Pass = 0; Pass != 12; ++Pass)
    for (uint8_t Op : Program) {
      switch (Op) {
      case 0:
        Acc += Reg;
        break;
      case 1:
        Acc ^= Acc >> 7;
        break;
      case 2:
        Reg = Reg * 31 + Acc;
        break;
      case 3:
        Acc = (Acc << 3) | (Reg & 7);
        break;
      case 4:
        Reg ^= Acc + static_cast<uint64_t>(Pass);
        break;
      default:
        Acc -= Reg >> 1;
        break;
      }
    }
  std::unordered_map<uint64_t, uint64_t> Table;
  for (int I = 0; I != 4000; ++I) {
    uint64_t K = R.below(8192);
    Table[K] += static_cast<uint64_t>(I);
    Acc += Table.count(K ^ 1);
  }
  std::map<std::string, uint64_t> Tree;
  for (int I = 0; I != 1500; ++I) {
    std::string Key = "/work/pkg" + std::to_string(R.below(24)) + "/C" +
                      std::to_string(R.below(512));
    Tree[Key] += Acc;
    Acc += Tree.size();
  }
  std::vector<std::function<uint64_t(uint64_t)>> Calls;
  for (uint64_t K = 0; K != 8; ++K)
    Calls.push_back([K](uint64_t V) { return V * 33 + K; });
  for (int I = 0; I != 20000; ++I)
    Acc = Calls[static_cast<size_t>(I) % Calls.size()](Acc);
  for (int I = 0; I != 500; ++I) {
    std::vector<uint64_t> V(16 + R.below(64), Acc);
    Acc += V.back() + V.size();
  }
  // Bit-at-a-time division, the shape of software 64-bit arithmetic.
  for (int I = 0; I != 600; ++I) {
    uint64_t N = R.next(), D = (R.next() >> R.below(63)) | 1, Q = 0, Rem = 0;
    for (int Bit = 63; Bit >= 0; --Bit) {
      Rem = (Rem << 1) | ((N >> Bit) & 1);
      if (Rem >= D) {
        Rem -= D;
        Q |= uint64_t(1) << Bit;
      }
    }
    Acc += Q ^ Rem;
  }
  return Acc + Reg + Table.size();
}

} // namespace

uint64_t SpeedProbe::referenceNs() {
  uint64_t Start = hostNs();
  Sink += referenceWork();
  return hostNs() - Start;
}

void SpeedProbe::maybeRepin() {
  if (hostNs() < NextRepinNs)
    return;
  static cpu_set_t Allowed;
  static bool HaveAllowed =
      sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0;
  if (!HaveAllowed)
    return;
  int Best = -1;
  uint64_t BestNs = UINT64_MAX;
  for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      continue;
    uint64_t Ns = std::min(referenceNs(), referenceNs());
    if (Ns < BestNs) {
      BestNs = Ns;
      Best = Cpu;
    }
  }
  if (Best >= 0) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Best, &One);
    sched_setaffinity(0, sizeof(One), &One);
  } else {
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }
  NextRepinNs = hostNs() + 1'000'000'000;
}
