//===- perfbench/calibrate.h - Host-speed calibration -----------*- C++ -*-===//
//
// On a shared host the processor this benchmark runs on slows down for
// seconds at a time when its sibling gets busy; raw host time then moves
// by 20-50% between runs of identical code. Two measures keep that out of
// the reported times:
//
//  - the process is pinned to the allowed processor that currently runs a
//    fixed reference work fastest, re-chosen about once a second;
//  - the reference work is timed right before and right after every
//    repetition, and the repetition's host times are scaled by
//    ReferenceNominalNs over that measurement. A reported second is thus
//    a host second at the reference speed.
//
// The reference work shares no code with the runtime, so no change to the
// runtime can move it.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstdint>

namespace perfbench {

/// Host ns the reference work takes on an uncontended processor of the
/// machine the baseline was measured on (README.md).
constexpr uint64_t ReferenceNominalNs = 1'450'000;

class SpeedProbe {
public:
  /// Re-pins to the quietest processor if a second has passed since the
  /// last choice.
  void maybeRepin();
  /// Host ns of one run of the reference work, now.
  uint64_t referenceNs();

private:
  uint64_t NextRepinNs = 0;
  /// Keeps the reference work's result alive.
  uint64_t Sink = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
