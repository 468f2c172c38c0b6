//===- doppio/obs/span.h - Causal spans across layers ------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Causal spans: a span id is minted where a logical operation begins (a
/// doppiod request arriving, a client issuing a request, an fs op
/// starting) and *rides every kernel work item posted while it is
/// current*. Because all asynchronous hops in the system — SimNet
/// deliveries, fs completions, resumptions — go through Kernel::post /
/// postAfter, and those capture SpanStore::current() at enqueue time, the
/// id follows the request across the client -> server -> fs -> response
/// chain with no per-subsystem plumbing. One request's queue delay, fs
/// time, and handler time become attributable end to end, which is the
/// instrumentation the paper's evaluation (§7) needed and each subsystem
/// used to approximate with its own counters.
///
/// Spans form a tree: begin() parents the new span under the current one.
/// Finished spans land in a bounded ring (the store is long-lived; a
/// server minting a span per request must stay bounded). Kernel queue
/// delay observed by work items carrying a span is accumulated onto the
/// open span, attributing scheduler wait to the operation that suffered
/// it.
///
/// Open spans live inline in an open-addressed table keyed by id (linear
/// probing, backward-shift deletion), so opening and closing a span
/// allocates no node. Ids are minted sequentially: they are visible in the
/// JSON exposition, and consecutive ids land in consecutive slots.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_OBS_SPAN_H
#define DOPPIO_DOPPIO_OBS_SPAN_H

#include "browser/virtual_clock.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace doppio {
namespace obs {

/// Span identifier; 0 means "no span".
using SpanId = uint64_t;

/// One causal span on the virtual clock.
struct Span {
  SpanId Id = 0;
  /// The span current when this one began (0 for a root).
  SpanId Parent = 0;
  std::string Name;
  uint64_t StartNs = 0;
  /// 0 while the span is open.
  uint64_t EndNs = 0;
  /// Kernel queue delay accumulated by work items dispatched under this
  /// span while it was open: time the operation spent waiting behind
  /// other events rather than running.
  uint64_t QueueDelayNs = 0;

  uint64_t durationNs() const { return EndNs > StartNs ? EndNs - StartNs : 0; }
};

/// Mints, tracks, and retains spans. Single-threaded, like everything
/// over the virtual clock; "current span" is plain state swapped by
/// Scope, not thread-local magic.
class SpanStore {
public:
  static constexpr size_t DefaultRetain = 256;

  explicit SpanStore(browser::VirtualClock &Clock,
                     size_t Retain = DefaultRetain)
      : Clock(Clock), Retain(Retain) {}

  /// Mints a span parented under the current span (or a root if none) and
  /// records its start time. Does not make the new span current — wrap a
  /// Scope around the work that belongs to it.
  SpanId begin(std::string Name) { return beginChildOf(Name, Current); }

  /// Mints a span with an explicit parent (0 for a root).
  SpanId beginChildOf(std::string Name, SpanId Parent);

  /// Closes \p Id, stamping its end time and moving it to the finished
  /// ring. Unknown / already-ended ids are a no-op.
  void end(SpanId Id);

  /// The span id new work is attributed to right now.
  SpanId current() const { return Current; }

  /// RAII current-span swap: makes \p Id current for the enclosing block
  /// and restores the previous span after. Used by the event loop around
  /// each dispatch (restoring the id the work item carried) and by
  /// producers around the code that belongs to a freshly minted span.
  class Scope {
  public:
    Scope(SpanStore &S, SpanId Id) : S(S), Prev(S.Current) { S.Current = Id; }
    ~Scope() { S.Current = Prev; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanStore &S;
    SpanId Prev;
  };

  /// Adds kernel queue delay to an open span (no-op once ended: a closed
  /// request cannot retroactively suffer scheduler wait).
  void addQueueDelay(SpanId Id, uint64_t Ns);

  /// Open-span lookup; nullptr when unknown or already finished. The
  /// pointer is valid until the next begin, end, or reset.
  const Span *findOpen(SpanId Id) const;

  /// Finished spans, oldest first, bounded by the retention limit.
  const std::deque<Span> &recent() const { return Finished;  }

  uint64_t started() const { return Started; }
  uint64_t finished() const { return Ended; }
  size_t openCount() const { return OpenCount; }

  /// Drops finished history and open-span bookkeeping; ids keep
  /// increasing so a live Scope's id simply never resolves again.
  void reset();

private:
  /// First table size: 8 inline spans stay under 1 KB, so a short-lived
  /// store's first allocation stays a small-bin request.
  static constexpr size_t InitialSlots = 8;
  static constexpr size_t NoSlot = SIZE_MAX;

  /// The slot holding open span \p Id, or NoSlot.
  size_t slotOf(SpanId Id) const;
  /// Moves every open span into a table twice the size (or allocates the
  /// first one).
  void grow();

  browser::VirtualClock &Clock;
  size_t Retain;
  SpanId Current = 0;
  SpanId NextId = 1;
  uint64_t Started = 0;
  uint64_t Ended = 0;
  /// Open spans by `Id & (size - 1)`, probing forward; an empty slot has
  /// Id 0. The size is 0 or a power of two, kept under 3/4 full.
  std::vector<Span> Open;
  size_t OpenCount = 0;
  std::deque<Span> Finished;
};

} // namespace obs
} // namespace doppio

#endif // DOPPIO_DOPPIO_OBS_SPAN_H
