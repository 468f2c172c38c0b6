//===- jvm/exec_profile.h - Unified execution-profile knobs -------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One struct for every knob that changes *how* the interpreter executes
/// without changing *what* it computes: verifier-trusted check elision
/// (DESIGN.md §12), suspend-check placement (§17), and constant-pool
/// quickening with field inline caches (§18). Before this existed the
/// knobs were scattered — `JvmOptions::TrustVerifier`, a
/// `DOPPIO_JVM_TRUST_VERIFIER` env var parsed in the Jvm constructor, a
/// `DOPPIO_JVM_SUSPEND_PLACEMENT` env var parsed next to it — and each
/// new optimization would have added another. ExecProfile collapses them
/// behind one parser (presets + key=value overrides, shared by env and
/// CLI) and four named presets that the benches, tests, and tools refer
/// to by name.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_EXEC_PROFILE_H
#define DOPPIO_JVM_EXEC_PROFILE_H

#include <cstdint>
#include <string>

namespace doppio {
namespace jvm {

/// Where the interpreter executes suspend checks (DESIGN.md §17).
enum class SuspendCheckMode : uint8_t {
  /// The paper's behavior (§6.1): checks at call boundaries only —
  /// invokes, returns, monitor ops. Branches never check, so a tight
  /// intra-method loop cannot be preempted. The default.
  CallBoundary,
  /// A check before every bytecode dispatch: the naive baseline the
  /// fig4 placement ablation measures against.
  Everywhere,
  /// Analysis-driven placement (Stopify's insight): call boundaries plus
  /// only the loop back-edge branches the CFG/loop pass kept; proven
  /// branch sites elide the check. Methods without a proof (jsr/ret,
  /// irreducible loops, exception-carried cycles) degrade to Everywhere
  /// behavior — conservative, never incorrect.
  Placed,
};

/// The execution profile a Jvm runs under. Every field preserves
/// bit-identical guest-visible behavior; profiles trade host speed and
/// dynamic check counts only.
struct ExecProfile {
  /// Preset (or "custom") this profile was derived from, for display.
  std::string Name = "verified";
  /// When true, methods the dataflow verifier proved safe run on the
  /// interpreter's check-elided fast path; unverified methods keep the
  /// guarded path (DESIGN.md §12).
  bool TrustVerifier = true;
  /// Suspend-check placement (DESIGN.md §17).
  SuspendCheckMode SuspendChecks = SuspendCheckMode::CallBoundary;
  /// When true, trusted frames rewrite resolved constant-pool ops to
  /// their _quick forms in place on first execution (DESIGN.md §18).
  bool Quicken = false;
  /// When true, quickened invokevirtual/invokeinterface sites keep a
  /// monomorphic (class, callee) inline cache, and quickened field sites,
  /// which always cache their receiver class and slot, count that
  /// cache's hits and misses (DESIGN.md §18). Requires Quicken.
  bool InlineCaches = false;

  // Named presets. `verified` is the construction default (the exact
  // pre-ExecProfile behavior); `baseline` turns every optimization off.
  static ExecProfile baseline();
  static ExecProfile verified();
  static ExecProfile placed();
  static ExecProfile quick();

  /// The one profile parser, shared by the env override and every CLI
  /// that accepts a profile. \p Spec is a preset name ("baseline",
  /// "verified", "placed", "quick") optionally followed by comma-
  /// separated key=value overrides, or just the overrides:
  ///   "quick", "placed,trust=0", "trust=1,suspend=everywhere,quicken=1".
  /// Keys: trust=0|1, suspend=call|everywhere|placed, quicken=0|1,
  /// ic=0|1. Returns false (and fills \p Err) on an unknown preset or
  /// key.
  static bool parse(const std::string &Spec, ExecProfile &Out,
                    std::string *Err = nullptr);

  /// Applies the DOPPIO_JVM_PROFILE environment override (a full parse()
  /// spec, e.g. "trust=0" or "suspend=placed"). Called once at Jvm
  /// construction.
  void applyEnv();

  /// "verified(trust=1, suspend=call, quicken=0, ic=0)" — for tools
  /// and logs.
  std::string describe() const;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_EXEC_PROFILE_H
