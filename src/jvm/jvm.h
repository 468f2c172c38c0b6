//===- jvm/jvm.h - The DoppioJVM embedder facade (§6, §6.8) -------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level DoppioJVM object: "DoppioJVM also makes it possible for a
/// JavaScript program to invoke the JVM much as one would invoke Java on
/// the command line via an API: the programmer specifies the classpath,
/// main class, and arguments, and optionally, custom functions to redirect
/// standard input and output" (§6.8). It owns every subsystem the JVM sits
/// on: the Doppio execution environment (suspender + thread pool + async
/// bridge), the file system, the unmanaged heap (for sun.misc.Unsafe,
/// §6.5), the class loader, the object arena (standing in for the
/// JavaScript garbage collector of §6.7), and the string intern table.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_JVM_H
#define DOPPIO_JVM_JVM_H

#include "doppio/fs.h"
#include "doppio/heap.h"
#include "doppio/obs/metrics.h"
#include "doppio/threads.h"
#include "jvm/classfile/builder.h"
#include "jvm/classloader.h"
#include "jvm/exec_profile.h"
#include "jvm/natives.h"

#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>

namespace doppio {
namespace jvm {

class JvmThread;
struct CheckpointAccess;

/// Construction options.
struct JvmOptions {
  ExecutionMode Mode = ExecutionMode::DoppioJS;
  /// Unmanaged heap size (§5.2/§6.5).
  uint32_t HeapBytes = 4u << 20;
  /// Directories searched for class files.
  std::vector<std::string> Classpath = {"/classes"};
  /// Virtual JS-engine cost per interpreted bytecode (DoppioJS mode; the
  /// browser profile's engine factor scales it further).
  uint64_t OpCostNs = 64;
  /// Virtual cost per bytecode for the native-interpreter baseline, used
  /// when benchmarks compare browser virtual time against HotSpot
  /// (DESIGN.md: calibrated so Chrome lands in the paper's 24-42x band).
  uint64_t NativeOpCostNs = 2;
  /// Virtual JS-engine cost per *quickened* dispatched bytecode: with
  /// threaded dispatch and pre-resolved operands the modeled engine does
  /// far less work per instruction (DESIGN.md §18; "Mind the Gap"
  /// attributes most interpreter overhead to dispatch + redundant
  /// checks). Software-long surcharges still charge OpCostNs — the
  /// intrinsic Long64 work does not get faster.
  uint64_t QuickOpCostNs = 24;
  /// How the interpreter executes: verifier trust, suspend-check
  /// placement, quickening, inline caches — one struct, one parser,
  /// named presets (exec_profile.h). The DOPPIO_JVM_PROFILE environment
  /// override is applied at Jvm construction.
  ExecProfile Exec = ExecProfile::verified();
};

/// Statistics the evaluation harness reads.
struct JvmStats {
  uint64_t OpsExecuted = 0;
  uint64_t MethodInvocations = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t SuspendYields = 0;
  uint64_t ContextSwitchPoints = 0;
  /// High-water mark of the per-thread dynamic between-checks counter:
  /// bytecodes dispatched between two executed suspend checks. In Placed
  /// mode this must never exceed ClassLoader::provenBoundMax() — debug
  /// builds assert it, the fig4 ablation and analysis tests verify it.
  uint64_t MaxOpsBetweenChecks = 0;
  /// Constant-pool sites rewritten in place to their _quick form
  /// (DESIGN.md §18).
  uint64_t QuickenedSites = 0;
};

/// One DoppioJVM instance inside one browser tab.
class Jvm {
public:
  /// \p Fs is the Doppio file system the JVM mounts (class path, program
  /// I/O). The built-in class library is installed immediately.
  Jvm(browser::BrowserEnv &Env, rt::fs::FileSystem &Fs, rt::Process &Proc,
      JvmOptions Options = JvmOptions());
  ~Jvm();

  // Subsystems.
  browser::BrowserEnv &env() { return Env; }
  rt::fs::FileSystem &fs() { return Fs; }
  rt::Process &process() { return Proc; }
  rt::Suspender &suspender() { return Susp; }
  rt::ThreadPool &pool() { return Pool; }
  rt::UnmanagedHeap &heap() { return Heap; }
  ClassLoader &loader() { return Loader; }
  const JvmOptions &options() const { return Options; }
  ExecutionMode mode() const { return Options.Mode; }
  /// The execution profile this VM runs under (exec_profile.h).
  const ExecProfile &profile() const { return Options.Exec; }
  JvmStats &stats() { return Stats; }

  // Suspend-check accounting (obs cells jvm.suspend_checks_executed /
  // jvm.suspend_checks_elided, resolved once at construction). The
  // interpreter calls these on its hot path, so they are inline.
  /// Records one executed check that closed a span of \p Span dispatched
  /// bytecodes, asserting the span stays within the proven bound in
  /// Placed mode.
  void noteSuspendCheckExecuted(uint64_t Span) {
    SuspendChecksExecutedC->inc();
    if (Span > Stats.MaxOpsBetweenChecks)
      Stats.MaxOpsBetweenChecks = Span;
    // The placement proof's dynamic half: in Placed mode no span of
    // dispatched bytecodes between two checks may exceed the largest
    // statically proven bound K (DESIGN.md §17). Unproven frames check
    // every instruction, so only proven methods can grow a span.
    assert((Options.Exec.SuspendChecks != SuspendCheckMode::Placed ||
            Loader.provenBoundMax() == 0 ||
            Span <= Loader.provenBoundMax()) &&
           "suspend-check span exceeded the statically proven bound K");
  }
  void noteSuspendCheckElided() { SuspendChecksElidedC->inc(); }
  uint64_t suspendChecksExecuted() const {
    return SuspendChecksExecutedC->value();
  }
  uint64_t suspendChecksElided() const {
    return SuspendChecksElidedC->value();
  }

  // Inline-cache accounting (obs cells jvm.ic.hits / jvm.ic.misses,
  // resolved once at construction; DESIGN.md §18).
  void noteIcHit() { IcHitsC->inc(); }
  void noteIcMiss() { IcMissesC->inc(); }
  uint64_t icHits() const { return IcHitsC->value(); }
  uint64_t icMisses() const { return IcMissesC->value(); }

  // Object allocation: the arena stands in for the JS garbage collector
  // (§6.7) — objects live until the Jvm dies. DESIGN.md records this
  // substitution.
  Object *allocObject(Klass *K);
  ArrayObject *allocArray(Klass *ArrayKlass, int32_t Length);
  /// Allocates an array, synthesizing its array class ("[I", "[Lx;").
  ArrayObject *allocArrayOf(const std::string &ElemDesc, int32_t Length);

  // String support: java.lang.String objects backed by char arrays.
  Object *internString(const std::string &Utf8);
  Object *newString(const std::string &Utf8);
  /// Reads a java.lang.String's characters back; "<null>" for null.
  std::string stringValue(Object *Str) const;

  /// The java.lang.Class mirror of \p K (created lazily).
  Object *mirrorOf(Klass *K);
  /// Inverse of mirrorOf; null if \p Mirror is not a mirror.
  Klass *mirroredClass(Object *Mirror) const;

  /// Identity hash codes (stable per object).
  int32_t identityHash(Object *O);

  /// Constructs a Throwable instance of \p ClassName with \p Message
  /// (fields set directly; constructors are not run — matches how the VM
  /// itself raises errors).
  Object *makeThrowable(const std::string &ClassName,
                        const std::string &Message);

  // Threads (§6.2): the JVM thread table.
  JvmThread *threadForTid(int32_t Tid);
  JvmThread *threadForObject(Object *ThreadObj);
  /// Spawns a JVM thread whose first frame invokes \p M with \p Args.
  int32_t spawnThread(Method *M, std::vector<Value> Args,
                      Object *ThreadObj);
  int32_t currentTid() const { return Pool.currentThread(); }

  // §6.8: JavaScript interop. The embedder may install an eval hook; the
  // doppio/JS.eval native routes through it.
  void setJsEval(std::function<std::string(const std::string &)> Hook) {
    JsEval = std::move(Hook);
  }
  const std::function<std::string(const std::string &)> &jsEval() const {
    return JsEval;
  }

  /// §6.8 command-line-style entry: loads \p MainClass, runs
  /// main([Ljava/lang/String;)V on a fresh thread. \p Done receives the
  /// exit code (0, or 1 after an uncaught exception / missing main).
  void runMain(const std::string &MainClass,
               const std::vector<std::string> &Args,
               std::function<void(int)> Done);

  /// runMain + drive the event loop until the JVM is idle. For tests,
  /// examples, and benchmarks.
  int runMainToCompletion(const std::string &MainClass,
                          const std::vector<std::string> &Args);

  /// Charges accumulated interpreter work to the browser's virtual clock
  /// (DoppioJS mode). Called by the interpreter at slice boundaries.
  /// \p DispatchOps are dispatched bytecodes, charged at the effective
  /// per-dispatch cost (QuickOpCostNs under a quickening profile,
  /// OpCostNs otherwise). \p ExtraOps are surcharge units (software
  /// Long64 arithmetic, §8), always charged at OpCostNs — quickening
  /// does not speed up the intrinsic long emulation.
  void flushOpCharges(uint64_t DispatchOps, uint64_t ExtraOps) {
    if ((DispatchOps == 0 && ExtraOps == 0) ||
        Options.Mode != ExecutionMode::DoppioJS)
      return;
    // One charge per flush: under a non-quick profile DispatchCostNs ==
    // OpCostNs and this totals exactly (DispatchOps + ExtraOps) *
    // OpCostNs — the historical single-counter charge, bit for bit.
    Env.chargeCompute(DispatchOps * DispatchCostNs +
                      ExtraOps * Options.OpCostNs);
  }

  /// Exit code recorded by the main thread (-1 while running).
  int exitCode() const { return ExitCode; }
  void setExitCode(int Code) { ExitCode = Code; }

  /// Called by the interpreter when a thread terminates: wakes join
  /// waiters, and completes the runMain callback for the main thread.
  void noteThreadFinished(JvmThread &T);

private:
  /// The checkpoint serializer (checkpoint.cpp) reads and rebuilds the
  /// arena, tables, and thread list wholesale (DESIGN.md §16).
  friend struct CheckpointAccess;

  browser::BrowserEnv &Env;
  rt::fs::FileSystem &Fs;
  rt::Process &Proc;
  JvmOptions Options;
  rt::Suspender Susp;
  rt::ThreadPool Pool;
  rt::UnmanagedHeap Heap;
  ClassLoader Loader;
  JvmStats Stats;
  obs::Counter *SuspendChecksExecutedC = nullptr;
  obs::Counter *SuspendChecksElidedC = nullptr;
  obs::Counter *IcHitsC = nullptr;
  obs::Counter *IcMissesC = nullptr;
  /// Resolved once after env overrides: QuickOpCostNs when the profile
  /// quickens, OpCostNs otherwise.
  uint64_t DispatchCostNs = 0;

  std::vector<std::unique_ptr<Object>> Arena;
  std::unordered_map<std::string, Object *> InternedStrings;
  std::unordered_map<Klass *, Object *> Mirrors;
  std::unordered_map<Object *, Klass *> MirrorToKlass;
  std::unordered_map<Object *, int32_t> IdentityHashes;
  /// Insertion counter behind identityHash: hashes must survive a
  /// checkpoint bit-identically, so the sequence position is explicit
  /// state rather than IdentityHashes.size().
  int32_t NextIdentityHash = 0;
  std::unordered_map<Object *, int32_t> ThreadObjToTid;
  std::vector<JvmThread *> Threads; // Indexed by tid; owned by the pool.
  std::function<std::string(const std::string &)> JsEval;
  int ExitCode = -1;
  int32_t MainTid = -1;
  std::function<void(int)> MainDone;
};

/// Installs the built-in class library (jcl.cpp): java/lang core,
/// java/io streams over the Doppio fs, sun/misc/Unsafe over the heap,
/// doppio/Socket over WebSockets, doppio/JS interop.
void installCoreClasses(Jvm &Vm);

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_JVM_H
