//===- jvm/interpreter.h - The bytecode interpreter (§6.1-6.6) ----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DoppioJVM interpreter: all 201 JVM-spec-2 opcodes over an explicit
/// call stack — "DoppioJVM's stack frame is a JavaScript object that
/// contains an array for the operand stack, an array for the local
/// variables, and a reference to the method that the stack frame belongs
/// to. The call stack is simply an array of these stack frame objects"
/// (§6.1). Because the stack is explicit, the thread can suspend at any
/// call boundary (automatic event segmentation), block on asynchronous
/// natives (§4.2/§6.3), switch threads at monitor points (§6.2), and
/// dispatch exceptions by walking the virtual stack (§6.6).
///
/// The two per-frame arrays are windows into one contiguous value array
/// per thread (DESIGN.md §9): a frame's locals sit directly below its
/// operand stack, and a callee's locals start on its caller's first
/// argument slot, so the arguments are already in place and a call or
/// return moves no values. The frame list stays explicit, so
/// introspection, suspension and serialization work as before.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_INTERPRETER_H
#define DOPPIO_JVM_INTERPRETER_H

#include "doppio/threads.h"
#include "jvm/jvm.h"
#include "jvm/klass.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

/// One frame of the explicit call stack (§6.1): two windows into its
/// thread's value array. It owns no memory, and the pointers are rebased
/// whenever the array grows (JvmThread::reserveFrame).
struct Frame {
  Method *M = nullptr;
  uint32_t Pc = 0;
  /// Local variables, [Locals, Stack): max_locals slots, the first of
  /// them the caller's argument slots. Category-2 values take a slot plus
  /// padding.
  Value *Locals = nullptr;
  /// The operand stack, Locals + max_locals upward, same two-slot
  /// convention. It ends at the next frame's Locals, or at the thread's
  /// stack top for the top frame.
  Value *Stack = nullptr;
  /// Monitor held by a synchronized method (released on exit/unwind).
  Object *Locked = nullptr;
  /// When this frame is a <clinit>, the class to mark initialized on
  /// return.
  Klass *ClinitOf = nullptr;
  /// Suspend-check placement for this frame (DESIGN.md §17), set from
  /// the VM's SuspendCheckMode when the frame is pushed or restored. In
  /// Placed mode a proven method points SuspendKeep at its per-pc keep
  /// bits (klass.h) and branch sites consult them. The default
  /// CallBoundary mode leaves it null: zero new work on the legacy path.
  const uint8_t *SuspendKeep = nullptr;
  /// Why step() must run this frame down its general path, with memory
  /// in sync on every dispatch (DESIGN.md §18); zero for a frame that
  /// runs register-resident. GuardedBit: the verifier did not prove the
  /// method or the VM does not trust it (ExecProfile::TrustVerifier), so
  /// every instruction is prechecked (DESIGN.md §12). CheckEveryBit: a
  /// suspend check before every dispatch (Everywhere mode, or a method
  /// the placement analysis could not prove in Placed mode).
  static constexpr uint8_t GuardedBit = 1, CheckEveryBit = 2;
  uint8_t General = 0;
  bool trusted() const { return !(General & GuardedBit); }
  bool checkEvery() const { return General & CheckEveryBit; }
};

/// A JVM thread: a guest thread of the Doppio pool (§4.3/§6.2).
class JvmThread : public rt::GuestThread {
public:
  JvmThread(Jvm &Vm, int32_t Tid) : Vm(Vm), Tid(Tid) {}

  rt::RunOutcome resume() override;
  std::string name() const override {
    return "jvm-thread-" + std::to_string(Tid);
  }

  /// Pushes a frame invoking \p M with \p Args (receiver first for
  /// instance methods). Used to seed main() and Thread.run().
  void pushEntryFrame(Method *M, std::vector<Value> Args);

  int32_t tid() const { return Tid; }
  bool finished() const { return Finished; }
  bool uncaughtException() const { return Uncaught; }
  const std::vector<Frame> &callStack() const { return CallStack; }
  /// The live operand stack of callStack()[\p I].
  std::span<const Value> operands(size_t I) const {
    return {CallStack[I].Stack,
            I + 1 == CallStack.size() ? Sp : CallStack[I + 1].Locals};
  }

  /// Slots a thread's value array starts with: small, since most guest
  /// threads stay shallow, and doubled on demand.
  static constexpr size_t InitialStackSlots = 1024;
  /// StackOverflowError bounds, checked where a frame is pushed: frames
  /// per thread, and slots in the thread's value array. Both sit far above
  /// what any shipped program reaches.
  static constexpr size_t MaxCallDepth = size_t{1} << 14;
  static constexpr size_t MaxStackSlots = size_t{1} << 20;

  /// The java.lang.Thread object bound to this thread (may be null for
  /// the main thread until Thread.currentThread materializes it).
  Object *ThreadObj = nullptr;
  /// Threads blocked in join() on this one.
  std::vector<int32_t> JoinWaiters;

  // Asynchronous-native bookkeeping (§4.2/§6.3): the invoke already
  // completed (args popped, pc advanced); on resume the settled result is
  // pushed or the stored error thrown.
  bool AwaitingNativeResult = false;
  rt::ErrorOr<Value> PendingNativeResult{Value()};
  /// Set when an asynchronous class load failed; thrown as
  /// NoClassDefFoundError when the thread resumes (§6.4).
  std::optional<std::string> PendingLoadFailure;

  // Object.wait reacquisition (§6.2): after a notify, the monitor must be
  // reacquired at its saved entry count before wait() returns.
  struct Reacquire {
    Object *Obj;
    int32_t Count;
  };
  std::optional<Reacquire> PendingReacquire;
  /// Generation counter distinguishing timed-wait timeouts.
  uint64_t WaitGeneration = 0;

  /// Tears the call stack down (System.exit): the invoking native returns
  /// into an empty stack and the thread terminates.
  void killForExit() {
    CallStack.clear();
    Sp = Values.data();
  }

private:
  enum class StepResult { Continue, Yield, Block, Done };

  /// Executes bytecodes on the top frame until the thread yields, blocks
  /// or finishes; never returns Continue (handlers dispatch the next
  /// bytecode in place, DESIGN.md §18). Pc, the stack top and the
  /// dispatched-op count live in locals and reach memory only at slow
  /// handler entry, before a helper call, and on return.
  StepResult step();
  /// The wide prefix; returns Continue to step() like any helper.
  StepResult stepWide(Frame &F);
  /// Guarded path for frames the verifier did not prove: bounds-checks
  /// the next instruction's stack pops/pushes and locals accesses before
  /// step() executes it. Returns false after throwing VerifyError, with
  /// the dispatch outcome in \p Out.
  bool guardedPrecheck(Frame &F, StepResult &Out);

  // Operand stack helpers (two-slot convention for category 2). No
  // capacity checks: a trusted frame's depth is proven within max_stack,
  // guardedPrecheck bounds every other frame's pushes, and reserveFrame
  // made room for max_stack above the locals.
  void push(Value V) { *Sp++ = V; }
  void push2(Value V) {
    push(V);
    push(Value()); // Padding slot.
  }
  Value pop() { return *--Sp; }
  Value pop2() {
    --Sp; // Padding.
    return pop();
  }
  Value &peek(int Depth = 0) { return Sp[-1 - Depth]; }
  /// Pushes a value using the slot convention its kind demands.
  void pushSlotted(Value V) {
    if (V.isCategory2())
      push2(V);
    else
      push(V);
  }

  // Arithmetic helpers honouring the execution mode.
  int32_t modeAdd(int32_t A, int32_t B);
  int32_t modeSub(int32_t A, int32_t B);
  int32_t modeMul(int32_t A, int32_t B);
  Value nativeLongBin(Op O, Value A, Value B);

  // Exception machinery (§6.6).
  StepResult throwJvm(const std::string &ClassName,
                      const std::string &Message);
  StepResult dispatchException(Object *Exception);
  /// "<class>: <message>", or the class alone when there is no message.
  std::string throwableText(Object *Ex);

  // Class resolution that may block on the Doppio fs (§6.4).
  Klass *resolveClass(const std::string &Name, StepResult &Out);
  /// Ensures static initialization; pushes a <clinit> frame and asks the
  /// caller to re-execute when initialization is pending. Throws
  /// NoClassDefFoundError for a class whose initialization failed.
  bool ensureInitialized(Klass *K, StepResult &Out);

  // The value array (DESIGN.md §9).
  /// Slot index of the stack top.
  size_t top() const { return static_cast<size_t>(Sp - Values.data()); }
  /// Whether a frame of \p M whose locals start at slot \p Base fits the
  /// value array as it is and stays within MaxCallDepth. The array never
  /// outgrows MaxStackSlots, so a fitting frame is within that bound too.
  bool frameFits(size_t Base, const Method &M) const {
    // One slot of slack above max_stack: a caught exception is pushed
    // even into a frame whose (unverified) max_stack is 0.
    return CallStack.size() < MaxCallDepth &&
           Base + M.Code.MaxLocals + M.Code.MaxStack + 1 <= Values.size();
  }
  /// The single growth point: makes room for a frame of \p M whose locals
  /// start at slot \p Base, reallocating the array and rebasing every
  /// frame's windows and Sp when it is too small. Returns false, changing
  /// nothing, when the frame would pass MaxCallDepth or MaxStackSlots.
  /// Nothing may hold a window pointer across this call.
  bool reserveFrame(size_t Base, const Method &M);
  /// Pushes a frame of \p M at slot \p Base, room for which reserveFrame
  /// made: the first \p ArgSlots locals are already in place, the rest
  /// are cleared, and the operand stack starts empty.
  Frame &pushFrame(Method *M, size_t Base, size_t ArgSlots);
  /// Pushes a frame of \p M on top of the stack with copies of \p Locals
  /// (max_locals slots) and \p Operands; null, pushing nothing, past the
  /// StackOverflowError bounds. For entry frames and checkpoint restore.
  Frame *placeFrame(Method *M, std::span<const Value> Locals,
                    std::span<const Value> Operands);
  /// Pops the top frame, on a return or while unwinding past it: the
  /// caller's stack top drops to the frame's base, where its arguments
  /// were. A synchronized frame and a <clinit> frame take releaseFrame
  /// first.
  void popFrame() {
    Frame &F = CallStack.back();
    if (F.Locked || F.ClinitOf) [[unlikely]]
      releaseFrame(F);
    Sp = F.Locals;
    CallStack.pop_back();
  }
  /// popFrame's out-of-line part: releases \p F's monitor and marks the
  /// class whose <clinit> it ran initialized.
  void releaseFrame(Frame &F);

  // Invocation. step()'s call tail runs every call (DESIGN.md §18); these
  // are its out-of-line cases.
  /// Invokes \p M, a native or abstract method whose receiver (when
  /// \p HasReceiver) and arguments sit on the top frame's operand stack,
  /// from the \p InsnLen-byte invoke at its pc.
  StepResult invokeMethod(Method *M, bool HasReceiver,
                          uint32_t InsnLen);
  /// Grows the value array for a frame of \p M at slot \p Base that does
  /// not fit it. Past the StackOverflowError bounds it throws that error
  /// instead, with pc still at the invoke, into \p Out and returns false.
  bool growForCall(Method *M, size_t Base, StepResult &Out);
  /// Enters the monitor of \p F, a synchronized callee's new frame: its
  /// receiver, or its class's mirror for a static method.
  void lockFrame(Frame &F, bool HasReceiver);
  StepResult invokeNative(Method *M, std::vector<Value> Args,
                          uint32_t InsnLen);

  // Monitors (§6.2).
  StepResult monitorEnter(Object *O);
  StepResult monitorExit(Object *O);
  void releaseMonitor(Object *O);

  /// Call-boundary suspend check (§6.1): counts the check, charges the
  /// ops dispatched since the last one, and runs the §4.1 countdown.
  /// Inline (interpreter.cpp, ahead of step()): in the common case it is
  /// a few increments and a decrement.
  inline bool wantsSuspend();
  /// Stamps \p F's placement fields (Frame::SuspendKeep and the
  /// CheckEveryBit) from the VM mode and the method's analysis verdict.
  void configureSuspendChecks(Frame &F);
  /// Tail of every branch in a frame with keep bits (Placed mode):
  /// executes the kept suspend check or counts the elision for the
  /// branch that sat at \p Site.
  StepResult branchDone(Frame &F, uint32_t Site);
  /// In-place quickening (DESIGN.md §18) of the instruction at \p F's
  /// pc, whose slow handler has fully resolved constant-pool entry
  /// \p Idx: rewrites the opcode byte to its _quick form and returns the
  /// side-table entry to stash the resolution in. Null when the profile
  /// does not quicken or the frame is not verifier-trusted.
  QuickEntry *quicken(Frame &F, uint16_t Idx);

  friend struct NativeContext;
  friend class Jvm;
  friend struct CheckpointAccess;

  Jvm &Vm;
  int32_t Tid;
  std::vector<Frame> CallStack;
  /// Every frame's locals and operand stack, bottom frame first.
  std::vector<Value> Values;
  /// One past the top frame's topmost operand.
  Value *Sp = nullptr;
  bool Finished = false;
  bool Uncaught = false;
  /// Dispatched bytecodes awaiting a virtual-clock charge, flushed at
  /// slice boundaries via Jvm::flushOpCharges. Charged at the profile's
  /// per-dispatch cost (QuickOpCostNs when quickening, else OpCostNs).
  uint64_t OpsSinceFlush = 0;
  /// Surcharge units (software Long64 arithmetic, §8) accumulated since
  /// the last flush. Always charged at OpCostNs: quickened dispatch does
  /// not speed up the intrinsic long emulation (DESIGN.md §18).
  uint64_t ExtraOpsSinceFlush = 0;
  /// Dynamic between-checks counter (DESIGN.md §17): bytecodes
  /// dispatched since the last executed suspend check. Reset by every
  /// check and whenever the thread blocks (leaving the host stack is a
  /// stronger preemption point than any check).
  uint64_t OpsSinceCheck = 0;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_INTERPRETER_H
