//===- perfbench/bench.h - Workload interface of the benchmark --*- C++ -*-===//
//
// A workload is a unit of work main.cpp repeats until the
// measurement window closes. Each repetition builds its own stack from
// scratch (set-up, timed separately), runs the timed phase, checks its
// outputs against oracles that do not come from the code under test, and
// — when handed a tracer — reports per-layer metrics.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Everything a workload derives its inputs from.
struct Inputs {
  uint64_t Seed = 0;
  /// Directory holding the committed expected-output files.
  std::string ExpectedDir;
};

/// One repetition of a workload.
struct Iteration {
  uint64_t SetupNs = 0;
  uint64_t RunNs = 0;
  /// Reference speed over measured speed around this repetition
  /// (calibrate.h); host times are multiplied by it when reported.
  double Speed = 1;
  /// Virtual-clock duration of the timed phase.
  uint64_t VirtualNs = 0;
  /// Virtual-clock latency of every user-visible operation in the timed
  /// phase (see README.md for what an operation is per workload).
  std::vector<uint64_t> OpVirtualNs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First failure, for the log.
  std::string FirstFailure;
  /// Per-layer metrics; filled only when the repetition was traced.
  std::map<std::string, double> Layers;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = What;
  }
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Runs one repetition; \p T is null for untraced repetitions.
  virtual Iteration iterate(Tracer *T) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Inputs &In);

/// Small deterministic generator for seeded inputs (splitmix64).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  std::vector<uint8_t> bytes(size_t N) {
    std::vector<uint8_t> Out(N);
    for (size_t I = 0; I < N; I += 8) {
      uint64_t V = next();
      for (size_t K = 0; K != 8 && I + K < N; ++K)
        Out[I + K] = static_cast<uint8_t>(V >> (8 * K));
    }
    return Out;
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
