//===- doppio/obs/metrics.h - Registry instrument types ----------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three instrument kinds every stats producer in the system shares:
/// monotonically increasing counters, settable gauges (with a high-water
/// helper), and fixed-bucket latency histograms. Before this module the
/// repo had four disconnected stat mechanisms (kernel LaneCounters, the
/// event loop's Stats, server::ServerStats with its own percentile math,
/// fs::OpStats) — "Not So Fast" (PAPERS.md) argues credible perf claims
/// need uniform instrumentation, and these are the uniform pieces.
///
/// Everything here is single-threaded over the virtual clock, like the
/// rest of the simulated browser: plain integers, no atomics. Instruments
/// never charge virtual time, so adding one can never move a figure.
///
/// The nearest-rank percentile implementation lives here too — the one
/// copy, shared by Histogram, server::ServerStats, and the traffic
/// generator's report (it used to be duplicated per subsystem).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_OBS_METRICS_H
#define DOPPIO_DOPPIO_OBS_METRICS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace doppio {
namespace obs {

/// Nearest-rank percentile over \p Samples (0 when empty). \p Pct in
/// [0, 100]. This is the single percentile implementation in the repo;
/// Histogram::percentile and every stats view build on it.
uint64_t percentileNs(const std::vector<uint64_t> &Samples, double Pct);

/// A monotonically increasing count.
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }
  void reset() { V = 0; }

private:
  uint64_t V = 0;
};

/// A value that can move both ways, with a high-water-mark helper for the
/// "max observed" statistics the legacy structs carry.
class Gauge {
public:
  void set(int64_t X) { V = X; }
  void add(int64_t N) { V += N; }
  void sub(int64_t N) { V -= N; }
  /// Raises the gauge to \p X if it is below it (max-tracking gauges such
  /// as loop.event_ns_max).
  void noteMax(int64_t X) { V = std::max(V, X); }
  int64_t value() const { return V; }
  void reset() { V = 0; }

private:
  int64_t V = 0;
};

/// A latency histogram with fixed log-spaced buckets plus (optionally)
/// exact sample retention.
///
/// The buckets drive the Prometheus-style exposition; the exact samples —
/// on by default — make percentile() bit-identical to the nearest-rank
/// math the fig6/fig7 harnesses always used, so retrofitting a producer
/// onto the registry can never move a published number. Every producer in
/// the tree keeps the default, so each histogram grows by 8 bytes per
/// recorded value; with KeepSamples off (only obs_test turns it off)
/// percentile() falls back to bucket upper bounds.
class Histogram {
public:
  struct Options {
    /// Retain every recorded value for exact percentiles. Costs 8 bytes
    /// per sample; disable on unbounded streams.
    bool KeepSamples = true;
  };

  /// Bucket upper bounds: 1us * 2^i for i in [0, 26) (~1us .. ~34s), then
  /// +infinity. Fixed for every histogram so expositions line up.
  static constexpr size_t NumBuckets = 27;

  Histogram() = default;
  explicit Histogram(Options O) : Opt(O) {}

  /// Upper bound of bucket \p I in nanoseconds (UINT64_MAX for the last).
  static uint64_t bucketBoundNs(size_t I);

  void record(uint64_t ValueNs);

  uint64_t count() const { return Count; }
  uint64_t sumNs() const { return SumNs; }
  uint64_t maxNs() const { return MaxNs; }

  /// Nearest-rank percentile: exact over the retained samples, or the
  /// upper bound of the bucket holding the rank when samples are off.
  uint64_t percentile(double Pct) const;

  /// The retained samples in record order (empty when KeepSamples is off).
  const std::vector<uint64_t> &samples() const { return Samples; }
  bool keepsSamples() const { return Opt.KeepSamples; }

  const std::array<uint64_t, NumBuckets> &buckets() const { return Buckets; }

  void reset();

private:
  Options Opt;
  uint64_t Count = 0;
  uint64_t SumNs = 0;
  uint64_t MaxNs = 0;
  std::array<uint64_t, NumBuckets> Buckets{};
  std::vector<uint64_t> Samples;
};

} // namespace obs
} // namespace doppio

#endif // DOPPIO_DOPPIO_OBS_METRICS_H
