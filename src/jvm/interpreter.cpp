//===- jvm/interpreter.cpp - All 201 opcodes ------------------------------==//
//
// The DoppioJVM interpreter core. Execution-mode differences (§7.1's
// comparison) are concentrated in a handful of helpers: int arithmetic
// (double+ToInt32 vs hardware int32), long arithmetic (software Long64 vs
// hardware int64), and the suspend checks at call boundaries that only
// DoppioJS mode performs. Field access is the same in both modes: a name
// resolves to a slot through the receiver's class (object.h), and the
// §6.7 dictionary's price stays in DoppioJS mode's per-op virtual cost.
//
//===----------------------------------------------------------------------===//

#include "jvm/interpreter.h"

#include "jvm/classfile/opcodes.h"
#include "jvm/jsnumber.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <utility>

using namespace doppio;
using namespace doppio::jvm;
using rt::RunOutcome;

//===----------------------------------------------------------------------===//
// NativeContext
//===----------------------------------------------------------------------===//

void NativeContext::blockWithResult(
    std::function<void(NativeCompletion Complete)> Start) {
  Blocked = true;
  Jvm &TheVm = Vm;
  int32_t Tid = Thread.tid();
  Start([&TheVm, Tid](rt::ErrorOr<Value> R) {
    JvmThread *T = TheVm.threadForTid(Tid);
    assert(T && "completion for a dead thread");
    T->PendingNativeResult = std::move(R);
    T->AwaitingNativeResult = true;
    TheVm.pool().unblock(Tid);
  });
}

//===----------------------------------------------------------------------===//
// Mode-sensitive arithmetic
//===----------------------------------------------------------------------===//

int32_t JvmThread::modeAdd(int32_t A, int32_t B) {
  if (Vm.mode() == ExecutionMode::DoppioJS)
    return jsnum::addInt32(A, B);
  return static_cast<int32_t>(static_cast<int64_t>(A) + B);
}

int32_t JvmThread::modeSub(int32_t A, int32_t B) {
  if (Vm.mode() == ExecutionMode::DoppioJS)
    return jsnum::subInt32(A, B);
  return static_cast<int32_t>(static_cast<int64_t>(A) - B);
}

int32_t JvmThread::modeMul(int32_t A, int32_t B) {
  if (Vm.mode() == ExecutionMode::DoppioJS)
    return jsnum::mulInt32(A, B);
  return static_cast<int32_t>(static_cast<int64_t>(A) *
                              static_cast<int64_t>(B));
}

/// Long binary operation in the NativeHotspot baseline: hardware int64.
/// DoppioJS mode runs Long64 inline in step()'s long handlers (§8).
Value JvmThread::nativeLongBin(Op O, Value A, Value B) {
  int64_t X = A.J, Y = B.J;
  uint64_t UX = static_cast<uint64_t>(X), UY = static_cast<uint64_t>(Y);
  switch (O) {
  case Op::Ladd:
    return Value::longVal(static_cast<int64_t>(UX + UY));
  case Op::Lsub:
    return Value::longVal(static_cast<int64_t>(UX - UY));
  case Op::Lmul:
    return Value::longVal(static_cast<int64_t>(UX * UY));
  case Op::Ldiv:
    if (X == INT64_MIN && Y == -1)
      return Value::longVal(X);
    return Value::longVal(X / Y);
  case Op::Lrem:
    if (X == INT64_MIN && Y == -1)
      return Value::longVal(static_cast<int64_t>(0));
    return Value::longVal(X % Y);
  case Op::Land:
    return Value::longVal(X & Y);
  case Op::Lor:
    return Value::longVal(X | Y);
  case Op::Lxor:
    return Value::longVal(X ^ Y);
  default:
    assert(false && "not a long binop");
    return Value();
  }
}

//===----------------------------------------------------------------------===//
// Instance checks (arrays included)
//===----------------------------------------------------------------------===//

/// instanceof/checkcast relation, including array covariance.
static bool isInstanceOfKlass(Jvm &Vm, Object *O, Klass *Target) {
  if (!O)
    return false;
  Klass *OK = O->klass();
  if (OK == Target)
    return true;
  if (O->isArray()) {
    if (Target->Name == "java/lang/Object")
      return true;
    if (!Target->IsArrayClass)
      return false;
    auto *A = static_cast<ArrayObject *>(O);
    const std::string &SrcElem = A->elemDesc();
    const std::string &DstElem = Target->ElemDesc;
    if (SrcElem == DstElem)
      return true;
    // Reference-array covariance: [A assignable to [B iff A <= B.
    if (desc::isReference(SrcElem) && desc::isReference(DstElem)) {
      if (DstElem == "Ljava/lang/Object;")
        return true;
      Klass *Src = Vm.loader().lookup(desc::toClassName(SrcElem));
      Klass *Dst = Vm.loader().lookup(desc::toClassName(DstElem));
      return Src && Dst && Src->isAssignableTo(Dst);
    }
    return false;
  }
  return OK->isAssignableTo(Target);
}

//===----------------------------------------------------------------------===//
// Thread entry and the resume loop
//===----------------------------------------------------------------------===//

void JvmThread::pushEntryFrame(Method *M, std::vector<Value> Args) {
  assert(M->HasCode && "entry frame needs bytecode");
  // Spread args into slots (category-2 values get padding).
  std::vector<Value> Locals;
  for (const Value &V : Args) {
    Locals.push_back(V);
    if (V.isCategory2())
      Locals.push_back(Value());
  }
  Locals.resize(M->Code.MaxLocals);
  Frame *F = placeFrame(M, Locals, {});
  assert(F && "an entry frame always fits");
  (void)F;
}

//===----------------------------------------------------------------------===//
// The value array (DESIGN.md §9)
//===----------------------------------------------------------------------===//

bool JvmThread::reserveFrame(size_t Base, const Method &M) {
  if (frameFits(Base, M))
    return true;
  size_t Need = Base + M.Code.MaxLocals + M.Code.MaxStack + 1;
  if (CallStack.size() >= MaxCallDepth || Need > MaxStackSlots)
    return false;
  std::vector<Value> Grown(
      std::min(MaxStackSlots, std::max({Need, 2 * Values.size(),
                                        InitialStackSlots})));
  std::copy(Values.data(), Sp, Grown.data());
  for (Frame &F : CallStack) {
    F.Locals = Grown.data() + (F.Locals - Values.data());
    F.Stack = Grown.data() + (F.Stack - Values.data());
  }
  Sp = Grown.data() + top();
  Values.swap(Grown);
  return true;
}

Frame &JvmThread::pushFrame(Method *M, size_t Base, size_t ArgSlots) {
  // Built in place: a by-value Frame copied in costs more than the rest
  // of the call.
  Frame &F = CallStack.emplace_back();
  F.M = M;
  F.Locals = Values.data() + Base;
  F.Stack = F.Locals + M->Code.MaxLocals;
  std::fill(F.Locals + std::min<size_t>(ArgSlots, M->Code.MaxLocals),
            F.Stack, Value());
  if (!M->Verified || !Vm.profile().TrustVerifier)
    F.General = Frame::GuardedBit;
  configureSuspendChecks(F);
  Sp = F.Stack;
  return F;
}

Frame *JvmThread::placeFrame(Method *M, std::span<const Value> Locals,
                             std::span<const Value> Operands) {
  assert(Locals.size() == M->Code.MaxLocals && "locals must fill the window");
  assert(Operands.size() <= M->Code.MaxStack && "operands past max_stack");
  size_t Base = top();
  if (!reserveFrame(Base, *M))
    return nullptr;
  Frame &F = pushFrame(M, Base, 0);
  std::copy(Locals.begin(), Locals.end(), F.Locals);
  Sp = std::copy(Operands.begin(), Operands.end(), F.Stack);
  return &F;
}

void JvmThread::releaseFrame(Frame &F) {
  if (F.Locked)
    releaseMonitor(F.Locked);
  if (F.ClinitOf)
    F.ClinitOf->Init = Klass::InitState::Initialized;
}

RunOutcome JvmThread::resume() {
  // Reacquire a monitor released by Object.wait (§6.2).
  if (PendingReacquire) {
    Object *O = PendingReacquire->Obj;
    Monitor &M = O->monitor();
    if (M.OwnerTid != -1 && M.OwnerTid != Tid) {
      bool Queued = false;
      for (int32_t T : M.EntrySet)
        Queued |= T == Tid;
      if (!Queued)
        M.EntrySet.push_back(Tid);
      return RunOutcome::Blocked;
    }
    M.OwnerTid = Tid;
    M.EntryCount = PendingReacquire->Count;
    std::erase(M.EntrySet, Tid);
    PendingReacquire.reset();
  }

  // A failed class load becomes NoClassDefFoundError at the faulting
  // instruction (§6.4).
  if (PendingLoadFailure) {
    std::string Name = *PendingLoadFailure;
    PendingLoadFailure.reset();
    StepResult R = throwJvm("java/lang/NoClassDefFoundError", Name);
    if (R == StepResult::Done) {
      Vm.flushOpCharges(OpsSinceFlush, ExtraOpsSinceFlush);
      OpsSinceFlush = ExtraOpsSinceFlush = 0;
      Vm.noteThreadFinished(*this);
      return RunOutcome::Terminated;
    }
  }

  // Settle an asynchronous native result (§4.2/§6.3): the program resumes
  // "as if it had just received data synchronously".
  if (AwaitingNativeResult) {
    AwaitingNativeResult = false;
    if (!PendingNativeResult.ok()) {
      StepResult R = throwJvm("java/io/IOException",
                              PendingNativeResult.error().message());
      if (R == StepResult::Done) {
        Vm.flushOpCharges(OpsSinceFlush, ExtraOpsSinceFlush);
        OpsSinceFlush = ExtraOpsSinceFlush = 0;
        Vm.noteThreadFinished(*this);
        return RunOutcome::Terminated;
      }
    } else if (PendingNativeResult->K != Value::Kind::Empty) {
      pushSlotted(*PendingNativeResult);
    }
  }

  // step() runs bytecodes until the thread yields, blocks or finishes.
  StepResult R = step();
  Vm.flushOpCharges(OpsSinceFlush, ExtraOpsSinceFlush);
  OpsSinceFlush = ExtraOpsSinceFlush = 0;
  switch (R) {
  case StepResult::Yield:
    return RunOutcome::Yielded;
  case StepResult::Block:
    // Blocking leaves the host stack — a stronger preemption point than
    // any suspend check — so the between-checks span restarts (the
    // blocked instruction also re-dispatches on wake and must not count
    // twice against the static bound).
    OpsSinceCheck = 0;
    return RunOutcome::Blocked;
  case StepResult::Done:
    break;
  case StepResult::Continue:
    assert(false && "step() dispatches Continue in place");
    break;
  }
  Vm.noteThreadFinished(*this);
  return RunOutcome::Terminated;
}

inline bool JvmThread::wantsSuspend() {
  if (Vm.mode() != ExecutionMode::DoppioJS)
    return false;
  // Close the dynamic between-checks span (DESIGN.md §17): the counter
  // measures checks *executed*, whether or not this one yields.
  Vm.noteSuspendCheckExecuted(OpsSinceCheck);
  OpsSinceCheck = 0;
  // Charge the work done since the last boundary so the virtual clock
  // advances between checks — the adaptive counter (§4.1) measures the
  // elapsed time of each countdown from it.
  Vm.flushOpCharges(OpsSinceFlush, ExtraOpsSinceFlush);
  OpsSinceFlush = ExtraOpsSinceFlush = 0;
  if (!Vm.suspender().shouldSuspend())
    return false;
  ++Vm.stats().SuspendYields;
  return true;
}

void JvmThread::configureSuspendChecks(Frame &F) {
  switch (Vm.profile().SuspendChecks) {
  case SuspendCheckMode::CallBoundary:
    break; // Legacy §6.1 behavior: boundaries only, branches free.
  case SuspendCheckMode::Everywhere:
    F.General |= Frame::CheckEveryBit;
    break;
  case SuspendCheckMode::Placed:
    // Placement rides on the verifier like trust does: the proof used
    // the verified boundaries, so an unverified method degrades too.
    if (F.M->placementProved() && F.M->Verified)
      F.SuspendKeep = F.M->SuspendKeep.data();
    else
      F.General |= Frame::CheckEveryBit;
    break;
  }
}

JvmThread::StepResult JvmThread::branchDone(Frame &F, uint32_t Site) {
  assert(F.SuspendKeep && "only frames with keep bits check at branches");
  if (F.SuspendKeep[Site]) {
    // A loop back edge: the one branch site that must keep its check.
    // Pc already points at the destination, so a yield resumes there.
    if (wantsSuspend())
      return StepResult::Yield;
  } else {
    Vm.noteSuspendCheckElided();
  }
  return StepResult::Continue;
}

QuickEntry *JvmThread::quicken(Frame &F, uint16_t Idx) {
  // Widths match, so no pc, branch offset, SuspendKeep bit, or
  // checkpointed frame image ever moves. Gated on the frame being
  // verifier-trusted: quick forms bypass the guarded precheck's operand
  // re-validation, so only proven bodies may install them.
  if (!Vm.profile().Quicken || !F.trusted())
    return nullptr;
  uint8_t &Opcode = F.M->Code.Bytecode[F.Pc];
  if (!isQuickOpcode(Opcode)) {
    Opcode = quickenedForm(Opcode);
    ++Vm.stats().QuickenedSites;
  }
  return &F.M->Owner->quickEntry(Idx);
}

//===----------------------------------------------------------------------===//
// Exceptions (§6.6)
//===----------------------------------------------------------------------===//

JvmThread::StepResult JvmThread::throwJvm(const std::string &ClassName,
                                          const std::string &Message) {
  Object *Ex = Vm.makeThrowable(ClassName, Message);
  return dispatchException(Ex);
}

JvmThread::StepResult JvmThread::dispatchException(Object *Ex) {
  // §6.1's free stack introspection: a line per frame this dispatch
  // unwinds, top first. Only an uncaught exception prints it, and by then
  // it has unwound every frame.
  std::string Trace;
  // "Iterating through its virtual stack representation until it finds a
  // stack frame with an applicable exception handler" (§6.6). The frame
  // that threw is at its throwing instruction. A frame below a popped
  // callee is at the return address, one past its invoke, so it matches
  // at the invoke's last byte: handler ranges are instruction-aligned.
  // A frame below a popped <clinit> is still at the instruction that
  // triggered it.
  uint32_t Back = 0;
  while (!CallStack.empty()) {
    Frame &F = CallStack.back();
    uint32_t At = F.Pc - Back;
    if (F.M->HasCode) {
      for (const ExceptionHandler &H : F.M->Code.Handlers) {
        if (At < H.StartPc || At >= H.EndPc)
          continue;
        if (H.CatchType != 0) {
          const std::string &CatchName =
              F.M->Owner->Cf.Pool.className(H.CatchType);
          Klass *Catch = Vm.loader().lookup(CatchName);
          // An unloaded catch type cannot match: every superclass of the
          // (loaded) exception class was loaded transitively.
          if (!Catch || !isInstanceOfKlass(Vm, Ex, Catch))
            continue;
        }
        Sp = F.Stack;
        push(Value::ref(Ex));
        F.Pc = H.HandlerPc;
        // Handler entry is a check site in Placed mode: the throwing
        // path may have run check-free since the last kept site, and the
        // handler's own proof assumes a fresh span from its entry
        // (DESIGN.md §17).
        if (F.SuspendKeep && wantsSuspend())
          return StepResult::Yield;
        return StepResult::Continue;
      }
    }
    Trace.append("\tat ")
        .append(F.M->Owner->Name)
        .append(".")
        .append(F.M->Name)
        .append(F.M->Descriptor)
        .append(" (pc=")
        .append(std::to_string(F.Pc))
        .append(")\n");
    Back = F.ClinitOf ? 0 : 1;
    if (Klass *Failed = F.ClinitOf) {
      // JVMS §5.5: a <clinit> that completes abruptly leaves its class
      // erroneous for good, and anything but an Error reaches the
      // triggering instruction wrapped in ExceptionInInitializerError.
      F.ClinitOf = nullptr; // Not initialized after all.
      Failed->Init = Klass::InitState::Erroneous;
      if (!isInstanceOfKlass(Vm, Ex, Vm.loader().lookup("java/lang/Error")))
        Ex = Vm.makeThrowable("java/lang/ExceptionInInitializerError",
                              throwableText(Ex));
    }
    popFrame();
  }
  // Uncaught: report and terminate the thread ("exits with an error").
  Uncaught = true;
  Finished = true;
  Vm.process().writeStderr("Exception in thread \"" + name() + "\" " +
                           throwableText(Ex) + "\n" + Trace);
  return StepResult::Done;
}

std::string JvmThread::throwableText(Object *Ex) {
  std::string Text = Ex->klass()->Name;
  Value Detail = Ex->field("detailMessage");
  if (Detail.K == Value::Kind::Ref && Detail.R)
    Text += ": " + Vm.stringValue(Detail.R);
  return Text;
}

//===----------------------------------------------------------------------===//
// Class resolution and initialization (§6.4)
//===----------------------------------------------------------------------===//

Klass *JvmThread::resolveClass(const std::string &Name, StepResult &Out) {
  if (Klass *K = Vm.loader().lookup(Name)) {
    Out = StepResult::Continue;
    return K;
  }
  // Not loaded: start the asynchronous download through the Doppio file
  // system (§6.4) and block; the triggering instruction re-executes.
  Jvm &TheVm = Vm;
  int32_t MyTid = Tid;
  Vm.loader().loadAsync(Name, [&TheVm, MyTid,
                               Name](rt::ErrorOr<Klass *> R) {
    JvmThread *T = TheVm.threadForTid(MyTid);
    if (!R)
      T->PendingLoadFailure = Name; // Thrown when the thread resumes.
    TheVm.pool().unblock(MyTid);
  });
  Out = StepResult::Block;
  return nullptr;
}

bool JvmThread::ensureInitialized(Klass *K, StepResult &Out) {
  // Find the topmost uninitialized ancestor: supers initialize first.
  Klass *Top = nullptr;
  for (Klass *C = K; C; C = C->Super) {
    if (C->Init == Klass::InitState::Uninitialized)
      Top = C;
    if (C->Init == Klass::InitState::Erroneous) {
      // JVMS §5.5: an initializer that failed once is not run again.
      Out = throwJvm("java/lang/NoClassDefFoundError", K->Name);
      return false;
    }
  }
  if (!Top) {
    Out = StepResult::Continue;
    return true;
  }
  Top->Init = Klass::InitState::Initializing;
  Method *Clinit = Top->clinit();
  if (!Clinit || !Clinit->HasCode) {
    Top->Init = Klass::InitState::Initialized;
    // Loop: more ancestors (or K itself) may still need work.
    return ensureInitialized(K, Out);
  }
  // The <clinit> frame sits on the caller's stack top, which the
  // re-executed instruction then finds intact.
  size_t Base = top();
  if (!reserveFrame(Base, *Clinit)) {
    Top->Init = Klass::InitState::Uninitialized;
    Out = throwJvm("java/lang/StackOverflowError", Clinit->qualifiedName());
    return false;
  }
  pushFrame(Clinit, Base, 0).ClinitOf = Top;
  ++Vm.stats().MethodInvocations;
  Out = StepResult::Continue; // Re-executes the triggering instruction
  // A <clinit> push is a method-entry boundary like any invoke; outside
  // the legacy CallBoundary mode it closes the caller's span so the
  // bound proof holds across static initialization (DESIGN.md §17).
  if (Vm.profile().SuspendChecks != SuspendCheckMode::CallBoundary &&
      wantsSuspend())
    Out = StepResult::Yield;
  return false; // After <clinit> returns.
}

//===----------------------------------------------------------------------===//
// Monitors (§6.2)
//===----------------------------------------------------------------------===//

JvmThread::StepResult JvmThread::monitorEnter(Object *O) {
  Monitor &M = O->monitor();
  if (M.OwnerTid == -1 || M.OwnerTid == Tid) {
    M.OwnerTid = Tid;
    ++M.EntryCount;
    std::erase(M.EntrySet, Tid);
    return StepResult::Continue;
  }
  bool Queued = false;
  for (int32_t T : M.EntrySet)
    Queued |= T == Tid;
  if (!Queued)
    M.EntrySet.push_back(Tid);
  return StepResult::Block;
}

void JvmThread::releaseMonitor(Object *O) {
  Monitor &M = O->monitor();
  assert(M.OwnerTid == Tid && "releasing a monitor we do not own");
  if (--M.EntryCount > 0)
    return;
  M.OwnerTid = -1;
  // Wake every contender; one will win, the rest re-block (§4.3's
  // cooperative switching makes this cheap).
  std::vector<int32_t> Waiters = M.EntrySet;
  for (int32_t T : Waiters)
    if (Vm.pool().state(T) == rt::ThreadState::Blocked)
      Vm.pool().unblock(T);
}

JvmThread::StepResult JvmThread::monitorExit(Object *O) {
  Monitor &M = O->monitor();
  if (M.OwnerTid != Tid)
    return throwJvm("java/lang/IllegalMonitorStateException",
                    "thread does not own monitor");
  releaseMonitor(O);
  return StepResult::Continue;
}

//===----------------------------------------------------------------------===//
// Invocation
//===----------------------------------------------------------------------===//

JvmThread::StepResult JvmThread::invokeNative(Method *M,
                                              std::vector<Value> Args,
                                              uint32_t InsnLen) {
  NativeContext Ctx(Vm, *this, *M);
  Ctx.Args = std::move(Args);
  if (!M->Native)
    return throwJvm("java/lang/UnsatisfiedLinkError", M->qualifiedName());
  M->Native(Ctx);
  // Exceptions dispatch with pc still at the invoke instruction, so
  // handler ranges that end right after the call still match (§6.6).
  if (Ctx.Thrown)
    return throwJvm(Ctx.Thrown->first, Ctx.Thrown->second);
  if (CallStack.empty()) {
    // System.exit tore the stack down.
    Finished = true;
    return StepResult::Done;
  }
  // Completing later (or now) must not re-run the invoke: step past it.
  CallStack.back().Pc += InsnLen;
  if (Ctx.Blocked || Ctx.BlockedOnMonitor)
    return StepResult::Block;
  if (Ctx.HasRet && M->RetSlots > 0)
    pushSlotted(Ctx.Ret);
  if (wantsSuspend())
    return StepResult::Yield;
  return StepResult::Continue;
}

/// Unpacks slot-encoded arguments into distinct values (receiver first).
static std::vector<Value> unpackArgs(const Value *Slots, const Method &M,
                                     bool HasReceiver) {
  std::vector<Value> Args;
  size_t I = 0;
  if (HasReceiver)
    Args.push_back(Slots[I++]);
  for (const std::string &P : M.Parsed.Params) {
    Args.push_back(Slots[I]);
    I += desc::slotSize(P);
  }
  return Args;
}

JvmThread::StepResult JvmThread::invokeMethod(Method *M, bool HasReceiver,
                                              uint32_t InsnLen) {
  // The call tail counted the call; the argument slots sit on the
  // caller's operand stack and pc still points at the invoke instruction.
  // Popping them leaves the slots intact for unpackArgs.
  Sp -= M->ParamSlots + (HasReceiver ? 1 : 0);
  if (M->isNative())
    return invokeNative(M, unpackArgs(Sp, *M, HasReceiver), InsnLen);
  return throwJvm("java/lang/AbstractMethodError", M->qualifiedName());
}

bool JvmThread::growForCall(Method *M, size_t Base, StepResult &Out) {
  if (reserveFrame(Base, *M))
    return true;
  // Pc still points at the invoke, so the handler search sees it.
  Sp = Values.data() + Base;
  Out = throwJvm("java/lang/StackOverflowError", M->qualifiedName());
  return false;
}

void JvmThread::lockFrame(Frame &F, bool HasReceiver) {
  Object *Lock = HasReceiver ? F.Locals[0].R : Vm.mirrorOf(F.M->Owner);
  // The invoke handler checked contention before the call; entering here
  // cannot block.
  StepResult R = monitorEnter(Lock);
  assert(R == StepResult::Continue && "lock vanished between checks");
  (void)R;
  F.Locked = Lock;
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

namespace doppio::jvm {
namespace {

/// Big-endian operand readers over a method's code: the hot-path
/// pointer overloads of opcodes.h's vector readers.
inline uint8_t rdU1(const uint8_t *C, uint32_t At) { return C[At]; }
inline int8_t rdS1(const uint8_t *C, uint32_t At) {
  return static_cast<int8_t>(C[At]);
}
inline uint16_t rdU2(const uint8_t *C, uint32_t At) {
  return static_cast<uint16_t>((C[At] << 8) | C[At + 1]);
}
inline int16_t rdS2(const uint8_t *C, uint32_t At) {
  return static_cast<int16_t>(rdU2(C, At));
}
inline int32_t rdS4(const uint8_t *C, uint32_t At) {
  return static_cast<int32_t>((static_cast<uint32_t>(C[At]) << 24) |
                              (static_cast<uint32_t>(C[At + 1]) << 16) |
                              (static_cast<uint32_t>(C[At + 2]) << 8) |
                              static_cast<uint32_t>(C[At + 3]));
}

/// The monomorphic cache of a quickened getfield/putfield site: true when
/// \p Receiver is the class whose slot the site cached. Sites cache in
/// every profile; InlineCaches decides whether they count.
inline bool fieldSiteHits(Jvm &Vm, const QuickEntry &Q, Klass *Receiver) {
  if (Receiver != Q.IcKlass)
    return false;
  if (Vm.profile().InlineCaches)
    Vm.noteIcHit();
  return true;
}

/// A field site's cache miss: resolves \p Receiver's slot for the field by
/// name and caches it. False when the class declares no such field.
[[gnu::noinline]] bool cacheFieldSite(Jvm &Vm, QuickEntry &Q,
                                      Klass *Receiver) {
  if (Vm.profile().InlineCaches)
    Vm.noteIcMiss();
  FieldInfo *FI = Receiver->findField(Q.Name);
  if (!FI)
    return false;
  Q.IcKlass = Receiver;
  Q.IcSlot = static_cast<uint32_t>(FI->SlotIndex);
  return true;
}

} // namespace
} // namespace doppio::jvm

/// Bounds-checks the next instruction of an untrusted frame: enough
/// operand-stack slots to pop, room below max_stack for the pushes, and
/// every local access inside max_locals. The effect comes from the
/// opcodes.def table (decodeStackEffect). Verified frames skip this — the
/// dataflow analysis proved the same properties statically, which is the
/// whole point of the elision (DESIGN.md §12). Types are not re-checked
/// here: slot misuse in unverified code yields wrong values, not memory
/// errors, exactly as the seed interpreter behaved for all code.
bool JvmThread::guardedPrecheck(Frame &F, StepResult &Out) {
  const CodeAttr &Code = F.M->Code;
  // Quick forms never reach untrusted frames (quickening requires a
  // trusted frame), but the decoder maps them to their base form
  // defensively: the operand layouts are identical by construction.
  StackEffect E =
      decodeStackEffect(Code.Bytecode, F.Pc, F.M->Owner->Cf.Pool);
  if (E.Error) {
    Out = throwJvm("java/lang/VerifyError", E.Error);
    return false;
  }
  const char *Fault = nullptr;
  size_t Depth = static_cast<size_t>(Sp - F.Stack);
  if (Depth < static_cast<size_t>(E.Pops))
    Fault = "stack underflow at ";
  else if (Depth - E.Pops + E.Pushes > Code.MaxStack)
    Fault = "stack overflow at ";
  else if (E.LocalTop >= Code.MaxLocals)
    Fault = "local out of bounds at ";
  else
    return true;
  Out = throwJvm("java/lang/VerifyError",
                 std::string(Fault) +
                     opcodeName(baseOpcode(Code.Bytecode[F.Pc])) + " (pc " +
                     std::to_string(F.Pc) + ")");
  return false;
}

// Register-resident threaded dispatch (DESIGN.md §18). step() keeps the
// top frame's pc, stack top, code base and length, and a count of
// dispatched ops in locals. Fast handlers use only those and dispatch
// their successor themselves; memory (Frame::Pc, Sp and the three op
// counters) is written back by SYNC() on entry to a slow handler, before
// a fast handler calls a helper that can observe the thread, and on every
// return. Frames with Frame::General set run the general path: Next does
// the per-instruction check, counting and precheck in memory. Without
// DOPPIO_COMPUTED_GOTO the handlers are cases of a portable switch, and
// every dispatch syncs and returns to Next.
#ifdef DOPPIO_COMPUTED_GOTO
#define OPC(name) Lbl_##name:
#define OPC_ILLEGAL Lbl_Illegal:

namespace {

/// Opcodes whose handlers run with memory in sync: they may push or pop
/// frames, resolve or load classes, allocate through the class loader,
/// block, or throw from deep inside a helper. Illegal opcodes are slow
/// too.
constexpr bool isSlowOpcode(Op O) {
  switch (O) {
  case Op::Ldc:
  case Op::LdcW:
  case Op::Getstatic:
  case Op::Putstatic:
  case Op::Getfield:
  case Op::Putfield:
  case Op::Invokevirtual:
  case Op::Invokespecial:
  case Op::Invokestatic:
  case Op::Invokeinterface:
  case Op::InvokevirtualQuick:
  case Op::InvokespecialQuick:
  case Op::InvokestaticQuick:
  case Op::InvokeinterfaceQuick:
  case Op::Ireturn:
  case Op::Lreturn:
  case Op::Freturn:
  case Op::Dreturn:
  case Op::Areturn:
  case Op::Return:
  case Op::New:
  case Op::Newarray:
  case Op::Anewarray:
  case Op::Multianewarray:
  case Op::Checkcast:
  case Op::Instanceof:
  case Op::Athrow:
  case Op::Monitorenter:
  case Op::Monitorexit:
  case Op::Wide:
    return true;
  default:
    return false;
  }
}

/// The label tables, indexed by opcode byte. Full holds every handler
/// (gaps at the illegal handler, like the switch default) and is entered
/// with memory in sync. Fast is the fast path's successor table: slow
/// and illegal opcodes point at the sync stub. Resync is the general
/// path's successor table: every entry returns to Next.
struct DispatchTables {
  const void *Full[256];
  const void *Fast[256];
  const void *Resync[256];

  DispatchTables(
      const void *Illegal, const void *Sync, const void *ToNext,
      std::initializer_list<std::pair<uint8_t, const void *>> Handlers) {
    std::fill(std::begin(Full), std::end(Full), Illegal);
    std::fill(std::begin(Fast), std::end(Fast), Sync);
    std::fill(std::begin(Resync), std::end(Resync), ToNext);
    for (const auto &[Opcode, Target] : Handlers) {
      Full[Opcode] = Target;
      if (!isSlowOpcode(static_cast<Op>(Opcode)))
        Fast[Opcode] = Target;
    }
  }
};

} // namespace
#else
#define OPC(name) case Op::name:
#define OPC_ILLEGAL default:
#endif

// The register-resident operand stack: the same two-slot convention as
// push/pop, over the local stack top S.
#define PUSH(V) (*S++ = (V))
#define PUSH2(V)                                                           \
  do {                                                                     \
    *S++ = (V);                                                            \
    *S++ = Value();                                                        \
  } while (0)
#define POP() (*--S)
#define POP2() (S -= 2, S[0])
#define PEEK() (S[-1])

// Writes the dispatch locals back to memory.
#define SYNC()                                                             \
  do {                                                                     \
    F.Pc = Pc;                                                             \
    Sp = S;                                                                \
    Vm.stats().OpsExecuted += Ops;                                         \
    OpsSinceFlush += Ops;                                                  \
    OpsSinceCheck += Ops;                                                  \
    Ops = 0;                                                               \
  } while (0)

// Fast-handler exit: dispatch the successor at Pc.
#ifdef DOPPIO_COMPUTED_GOTO
#define DISPATCH()                                                         \
  do {                                                                     \
    assert(Pc < CodeLen && "pc ran off the end of the method");            \
    O = static_cast<Op>(C[Pc]);                                            \
    ++Ops;                                                                 \
    goto *Successor[C[Pc]];                                                \
  } while (0)
#else
#define DISPATCH()                                                         \
  do {                                                                     \
    SYNC();                                                                \
    goto Next;                                                             \
  } while (0)
#endif

// Slow-handler exits. NEXT() reloads the locals from memory at Next.
// NEXT_IF_CONTINUE() does the same with a helper's outcome, and returns
// any other outcome (Yield, Block, Done) to resume().
#define NEXT() goto Next
#define NEXT_IF_CONTINUE(Outcome)                                          \
  do {                                                                     \
    if (StepResult Out_ = (Outcome); Out_ != StepResult::Continue)         \
      return Out_;                                                         \
    goto Next;                                                             \
  } while (0)
// A fast handler's call into a helper that may see the thread's state:
// sync first, then exit like a slow handler.
#define SYNC_NEXT_IF_CONTINUE(Outcome)                                     \
  do {                                                                     \
    SYNC();                                                                \
    NEXT_IF_CONTINUE(Outcome);                                             \
  } while (0)
// Tail of every branch: only frames with keep bits (Placed mode) run
// branchDone, with memory in sync since it may flush and yield.
#define BRANCH_DONE(Site)                                                  \
  do {                                                                     \
    if (F.SuspendKeep) {                                                   \
      SYNC();                                                              \
      if (StepResult Out_ = branchDone(F, Site);                           \
          Out_ != StepResult::Continue)                                    \
        return Out_;                                                       \
    }                                                                      \
    DISPATCH();                                                            \
  } while (0)

[[gnu::aligned(64)]] JvmThread::StepResult JvmThread::step() {
#ifdef DOPPIO_COMPUTED_GOTO
  // Built from opcodes.def on the first step(). A function-local static,
  // so concurrent first entries from several host threads initialize it
  // exactly once; its guard is checked once per step(), not per bytecode.
  static const DispatchTables Tables(&&Lbl_Illegal, &&SyncEntry, &&Resync, {
#define JVM_OPCODE(NAME, VALUE, ...) {VALUE, &&Lbl_##NAME},
#define JVM_QUICK_OPCODE(NAME, VALUE, ...) {VALUE, &&Lbl_##NAME},
#include "jvm/classfile/opcodes.def"
#undef JVM_QUICK_OPCODE
#undef JVM_OPCODE
  });
  const void *const *Successor = Tables.Fast;
#endif
  // The dispatch locals: valid from Next on, written back by SYNC().
  const uint8_t *C = nullptr;
  uint32_t CodeLen = 0;
  uint32_t Pc = 0;
  Value *S = nullptr;
  Value *L = nullptr;
  uint64_t Ops = 0;
  Op O = Op::Nop;
  (void)CodeLen;
  // Set by an invoke handler for the call tail, and by a return handler
  // for the return tail.
  struct {
    Method *M;
    bool HasReceiver;
    uint32_t InsnLen;
  } Call = {};
  std::optional<Value> Ret;

Next:
  // Memory is in sync here, and Ops is zero.
  Frame &F = CallStack.back();
  if (F.General) {
    // Everywhere mode — and Placed-mode frames the analysis could not
    // prove — checks before every dispatch. Pc is untouched, so a yield
    // re-enters at the same instruction; nothing below has run yet.
    if (F.checkEvery() && wantsSuspend())
      return StepResult::Yield;
#ifdef DOPPIO_COMPUTED_GOTO
    Successor = Tables.Resync;
  } else {
    Successor = Tables.Fast;
#endif
  }
  C = F.M->Code.Bytecode.data();
  CodeLen = static_cast<uint32_t>(F.M->Code.Bytecode.size());
  assert(F.Pc < CodeLen && "pc ran off the end of the method");
  ++Vm.stats().OpsExecuted;
  ++OpsSinceFlush;
  ++OpsSinceCheck;
  // Check-elision fast path: frames the verifier proved skip the guarded
  // precheck entirely (DESIGN.md §12).
  if (!F.trusted()) {
    StepResult Guarded;
    if (!guardedPrecheck(F, Guarded))
      NEXT_IF_CONTINUE(Guarded);
  }
  Pc = F.Pc;
  S = Sp;
  L = F.Locals;
  O = static_cast<Op>(C[Pc]);
#ifdef DOPPIO_COMPUTED_GOTO
  goto *Tables.Full[C[Pc]];

SyncEntry:
  // A fast handler dispatched a slow opcode, already counted in Ops.
  SYNC();
  goto *Tables.Full[C[Pc]];

Resync:
  // A fast handler ran in a general-path frame: Next counts and checks
  // the successor itself.
  --Ops;
  SYNC();
  goto Next;
#else
  switch (O) {
#endif
  OPC(Nop)
    ++Pc;
    DISPATCH();

  // Constants -----------------------------------------------------------
  OPC(AconstNull)
    PUSH(Value::null());
    ++Pc;
    DISPATCH();
  OPC(IconstM1)
  OPC(Iconst0)
  OPC(Iconst1)
  OPC(Iconst2)
  OPC(Iconst3)
  OPC(Iconst4)
  OPC(Iconst5)
    PUSH(Value::intVal(static_cast<int32_t>(O) -
                       static_cast<int32_t>(Op::Iconst0)));
    ++Pc;
    DISPATCH();
  OPC(Lconst0)
  OPC(Lconst1)
    PUSH2(Value::longVal(static_cast<int64_t>(
        static_cast<int32_t>(O) - static_cast<int32_t>(Op::Lconst0))));
    ++Pc;
    DISPATCH();
  OPC(Fconst0)
  OPC(Fconst1)
  OPC(Fconst2)
    PUSH(Value::floatVal(static_cast<float>(
        static_cast<int32_t>(O) - static_cast<int32_t>(Op::Fconst0))));
    ++Pc;
    DISPATCH();
  OPC(Dconst0)
  OPC(Dconst1)
    PUSH2(Value::doubleVal(static_cast<double>(
        static_cast<int32_t>(O) - static_cast<int32_t>(Op::Dconst0))));
    ++Pc;
    DISPATCH();
  OPC(Bipush)
    PUSH(Value::intVal(rdS1(C, Pc + 1)));
    Pc += 2;
    DISPATCH();
  OPC(Sipush)
    PUSH(Value::intVal(rdS2(C, Pc + 1)));
    Pc += 3;
    DISPATCH();

  OPC(Ldc)
  OPC(LdcW) {
    uint16_t Idx = O == Op::Ldc ? rdU1(C, F.Pc + 1) : rdU2(C, F.Pc + 1);
    uint32_t Len = O == Op::Ldc ? 2 : 3;
    const CpEntry &E = F.M->Owner->Cf.Pool.at(Idx);
    Value V;
    switch (E.Tag) {
    case CpTag::Integer:
      V = Value::intVal(E.Int);
      break;
    case CpTag::Float:
      V = Value::floatVal(E.F);
      break;
    case CpTag::String:
      V = Value::ref(Vm.internString(F.M->Owner->Cf.Pool.stringValue(Idx)));
      break;
    case CpTag::Class: {
      StepResult R;
      Klass *K = resolveClass(F.M->Owner->Cf.Pool.className(Idx), R);
      if (!K)
        return R;
      V = Value::ref(Vm.mirrorOf(K));
      break;
    }
    default:
      NEXT_IF_CONTINUE(throwJvm("java/lang/ClassFormatError",
                                "bad ldc constant"));
    }
    // Interned strings and class mirrors are VM-cached, so replaying the
    // materialized value from the quick entry preserves identity.
    if (QuickEntry *Q = quicken(F, Idx))
      Q->Constant = V;
    push(V);
    F.Pc += Len;
    NEXT();
  }
  OPC(Ldc2W) {
    uint16_t Idx = rdU2(C, Pc + 1);
    const CpEntry &E = F.M->Owner->Cf.Pool.at(Idx);
    if (E.Tag == CpTag::Long)
      PUSH2(Value::longVal(E.LongBits));
    else if (E.Tag == CpTag::Double)
      PUSH2(Value::doubleVal(std::bit_cast<double>(E.LongBits)));
    else
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/ClassFormatError",
                                     "bad ldc2_w constant"));
    Pc += 3;
    DISPATCH();
  }

  // Loads ----------------------------------------------------------------
  OPC(Iload)
  OPC(Fload)
  OPC(Aload)
    PUSH(L[rdU1(C, Pc + 1)]);
    Pc += 2;
    DISPATCH();
  OPC(Lload)
  OPC(Dload)
    PUSH2(L[rdU1(C, Pc + 1)]);
    Pc += 2;
    DISPATCH();
  OPC(Iload0)
  OPC(Iload1)
  OPC(Iload2)
  OPC(Iload3)
    PUSH(L[static_cast<int>(O) - static_cast<int>(Op::Iload0)]);
    ++Pc;
    DISPATCH();
  OPC(Lload0)
  OPC(Lload1)
  OPC(Lload2)
  OPC(Lload3)
    PUSH2(L[static_cast<int>(O) - static_cast<int>(Op::Lload0)]);
    ++Pc;
    DISPATCH();
  OPC(Fload0)
  OPC(Fload1)
  OPC(Fload2)
  OPC(Fload3)
    PUSH(L[static_cast<int>(O) - static_cast<int>(Op::Fload0)]);
    ++Pc;
    DISPATCH();
  OPC(Dload0)
  OPC(Dload1)
  OPC(Dload2)
  OPC(Dload3)
    PUSH2(L[static_cast<int>(O) - static_cast<int>(Op::Dload0)]);
    ++Pc;
    DISPATCH();
  OPC(Aload0)
  OPC(Aload1)
  OPC(Aload2)
  OPC(Aload3)
    PUSH(L[static_cast<int>(O) - static_cast<int>(Op::Aload0)]);
    ++Pc;
    DISPATCH();

  // Array loads ----------------------------------------------------------
  OPC(Iaload)
  OPC(Laload)
  OPC(Faload)
  OPC(Daload)
  OPC(Aaload)
  OPC(Baload)
  OPC(Caload)
  OPC(Saload) {
    int32_t Index = POP().I;
    Object *Ref = POP().R;
    if (!Ref)
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                     "array load"));
    auto *A = static_cast<ArrayObject *>(Ref);
    if (Index < 0 || Index >= A->length())
      SYNC_NEXT_IF_CONTINUE(throwJvm(
          "java/lang/ArrayIndexOutOfBoundsException", std::to_string(Index)));
    Value V = A->get(Index);
    if (O == Op::Laload || O == Op::Daload)
      PUSH2(V);
    else
      PUSH(V);
    ++Pc;
    DISPATCH();
  }

  // Stores ---------------------------------------------------------------
  OPC(Istore)
  OPC(Fstore)
  OPC(Astore)
    L[rdU1(C, Pc + 1)] = POP();
    Pc += 2;
    DISPATCH();
  OPC(Lstore)
  OPC(Dstore)
    L[rdU1(C, Pc + 1)] = POP2();
    Pc += 2;
    DISPATCH();
  OPC(Istore0)
  OPC(Istore1)
  OPC(Istore2)
  OPC(Istore3)
    L[static_cast<int>(O) - static_cast<int>(Op::Istore0)] = POP();
    ++Pc;
    DISPATCH();
  OPC(Lstore0)
  OPC(Lstore1)
  OPC(Lstore2)
  OPC(Lstore3)
    L[static_cast<int>(O) - static_cast<int>(Op::Lstore0)] = POP2();
    ++Pc;
    DISPATCH();
  OPC(Fstore0)
  OPC(Fstore1)
  OPC(Fstore2)
  OPC(Fstore3)
    L[static_cast<int>(O) - static_cast<int>(Op::Fstore0)] = POP();
    ++Pc;
    DISPATCH();
  OPC(Dstore0)
  OPC(Dstore1)
  OPC(Dstore2)
  OPC(Dstore3)
    L[static_cast<int>(O) - static_cast<int>(Op::Dstore0)] = POP2();
    ++Pc;
    DISPATCH();
  OPC(Astore0)
  OPC(Astore1)
  OPC(Astore2)
  OPC(Astore3)
    L[static_cast<int>(O) - static_cast<int>(Op::Astore0)] = POP();
    ++Pc;
    DISPATCH();

  // Array stores ---------------------------------------------------------
  OPC(Iastore)
  OPC(Fastore)
  OPC(Aastore)
  OPC(Bastore)
  OPC(Castore)
  OPC(Sastore)
  OPC(Lastore)
  OPC(Dastore) {
    Value V = (O == Op::Lastore || O == Op::Dastore) ? POP2() : POP();
    int32_t Index = POP().I;
    Object *Ref = POP().R;
    if (!Ref)
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                     "array store"));
    auto *A = static_cast<ArrayObject *>(Ref);
    if (Index < 0 || Index >= A->length())
      SYNC_NEXT_IF_CONTINUE(throwJvm(
          "java/lang/ArrayIndexOutOfBoundsException", std::to_string(Index)));
    switch (O) {
    case Op::Bastore:
      V = Value::intVal(static_cast<int8_t>(V.I));
      break;
    case Op::Castore:
      V = Value::intVal(V.I & 0xFFFF);
      break;
    case Op::Sastore:
      V = Value::intVal(static_cast<int16_t>(V.I));
      break;
    case Op::Aastore:
      if (V.R && desc::isReference(A->elemDesc()) &&
          A->elemDesc() != "Ljava/lang/Object;") {
        Klass *ElemK = Vm.loader().lookup(desc::toClassName(A->elemDesc()));
        if (ElemK && !isInstanceOfKlass(Vm, V.R, ElemK))
          SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/ArrayStoreException",
                                         V.R->klass()->Name));
      }
      break;
    default:
      break;
    }
    A->set(Index, V);
    ++Pc;
    DISPATCH();
  }

  // Stack manipulation ----------------------------------------------------
  OPC(Pop)
    --S;
    ++Pc;
    DISPATCH();
  OPC(Pop2)
    S -= 2;
    ++Pc;
    DISPATCH();
  OPC(Dup) {
    Value V = PEEK();
    PUSH(V);
    ++Pc;
    DISPATCH();
  }
  OPC(DupX1) {
    Value A = POP(), B = POP();
    PUSH(A);
    PUSH(B);
    PUSH(A);
    ++Pc;
    DISPATCH();
  }
  OPC(DupX2) {
    Value A = POP(), B = POP(), X = POP();
    PUSH(A);
    PUSH(X);
    PUSH(B);
    PUSH(A);
    ++Pc;
    DISPATCH();
  }
  OPC(Dup2) {
    Value A = POP(), B = POP();
    PUSH(B);
    PUSH(A);
    PUSH(B);
    PUSH(A);
    ++Pc;
    DISPATCH();
  }
  OPC(Dup2X1) {
    Value A = POP(), B = POP(), X = POP();
    PUSH(B);
    PUSH(A);
    PUSH(X);
    PUSH(B);
    PUSH(A);
    ++Pc;
    DISPATCH();
  }
  OPC(Dup2X2) {
    Value A = POP(), B = POP(), X = POP(), Y = POP();
    PUSH(B);
    PUSH(A);
    PUSH(Y);
    PUSH(X);
    PUSH(B);
    PUSH(A);
    ++Pc;
    DISPATCH();
  }
  OPC(Swap) {
    Value A = POP(), B = POP();
    PUSH(A);
    PUSH(B);
    ++Pc;
    DISPATCH();
  }

  // Integer arithmetic ----------------------------------------------------
  OPC(Iadd) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(modeAdd(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Isub) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(modeSub(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Imul) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(modeMul(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Idiv) {
    int32_t B = POP().I, A = POP().I;
    if (B == 0)
      SYNC_NEXT_IF_CONTINUE(
          throwJvm("java/lang/ArithmeticException", "/ by zero"));
    if (Vm.mode() == ExecutionMode::DoppioJS)
      PUSH(Value::intVal(jsnum::divInt32(A, B)));
    else
      PUSH(Value::intVal(A == INT32_MIN && B == -1 ? A : A / B));
    ++Pc;
    DISPATCH();
  }
  OPC(Irem) {
    int32_t B = POP().I, A = POP().I;
    if (B == 0)
      SYNC_NEXT_IF_CONTINUE(
          throwJvm("java/lang/ArithmeticException", "/ by zero"));
    if (Vm.mode() == ExecutionMode::DoppioJS)
      PUSH(Value::intVal(jsnum::remInt32(A, B)));
    else
      PUSH(Value::intVal(A == INT32_MIN && B == -1 ? 0 : A % B));
    ++Pc;
    DISPATCH();
  }
  OPC(Ineg) {
    int32_t A = POP().I;
    PUSH(Value::intVal(Vm.mode() == ExecutionMode::DoppioJS
                           ? jsnum::negInt32(A)
                           : modeSub(0, A)));
    ++Pc;
    DISPATCH();
  }
  OPC(Ishl) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(jsnum::shlInt32(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Ishr) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(jsnum::shrInt32(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Iushr) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(jsnum::ushrInt32(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Iand) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(A & B));
    ++Pc;
    DISPATCH();
  }
  OPC(Ior) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(A | B));
    ++Pc;
    DISPATCH();
  }
  OPC(Ixor) {
    int32_t B = POP().I, A = POP().I;
    PUSH(Value::intVal(A ^ B));
    ++Pc;
    DISPATCH();
  }
  OPC(Iinc) {
    uint8_t Slot = rdU1(C, Pc + 1);
    int8_t Delta = rdS1(C, Pc + 2);
    L[Slot] = Value::intVal(modeAdd(L[Slot].I, Delta));
    Pc += 3;
    DISPATCH();
  }

  // Long arithmetic (§8's software longs in DoppioJS mode) ----------------
  // §8: software longs are "extremely slow when compared to normal numeric
  // operations" — each op is tens of JS operations in the paper's gLong.
  // The surcharges model that JS cost (DESIGN.md §8), not the host cost of
  // long64.h, and accumulate apart from dispatch counts: quickened dispatch
  // does not make the intrinsic Long64 work cheaper (DESIGN.md §18).
  OPC(Ladd)
  OPC(Lsub)
  OPC(Lmul)
  OPC(Land)
  OPC(Lor)
  OPC(Lxor) {
    Value B = POP2(), A = POP2();
    if (Vm.mode() == ExecutionMode::DoppioJS) {
      Long64 X = A.asLong64(), Y = B.asLong64(), R;
      switch (O) {
      case Op::Ladd:
        R = addLong(X, Y);
        break;
      case Op::Lsub:
        R = subLong(X, Y);
        break;
      case Op::Lmul:
        R = mulLong(X, Y);
        break;
      case Op::Land:
        R = andLong(X, Y);
        break;
      case Op::Lor:
        R = orLong(X, Y);
        break;
      default:
        assert(O == Op::Lxor);
        R = xorLong(X, Y);
        break;
      }
      ExtraOpsSinceFlush += O == Op::Lmul ? 10 : 3;
      PUSH2(Value::longVal(R));
    } else {
      PUSH2(nativeLongBin(O, A, B));
    }
    ++Pc;
    DISPATCH();
  }
  OPC(Ldiv)
  OPC(Lrem) {
    Value B = POP2(), A = POP2();
    if (B.J == 0)
      SYNC_NEXT_IF_CONTINUE(
          throwJvm("java/lang/ArithmeticException", "/ by zero"));
    if (Vm.mode() == ExecutionMode::DoppioJS) {
      ExtraOpsSinceFlush += 24;
      DivRem QR = divRemLong(A.asLong64(), B.asLong64());
      PUSH2(Value::longVal(O == Op::Ldiv ? QR.Q : QR.R));
    } else {
      PUSH2(nativeLongBin(O, A, B));
    }
    ++Pc;
    DISPATCH();
  }
  OPC(Lneg) {
    Value A = POP2();
    if (Vm.mode() == ExecutionMode::DoppioJS)
      PUSH2(Value::longVal(negLong(A.asLong64())));
    else
      PUSH2(Value::longVal(
          static_cast<int64_t>(0 - static_cast<uint64_t>(A.J))));
    ++Pc;
    DISPATCH();
  }
  OPC(Lshl)
  OPC(Lshr)
  OPC(Lushr) {
    int32_t Count = POP().I;
    Value A = POP2();
    if (Vm.mode() == ExecutionMode::DoppioJS) {
      ExtraOpsSinceFlush += 2; // Software shift across the 32-bit halves.
      Long64 X = A.asLong64();
      Long64 R = O == Op::Lshl    ? shlLong(X, Count)
                 : O == Op::Lshr ? shrLong(X, Count)
                                 : ushrLong(X, Count);
      PUSH2(Value::longVal(R));
    } else {
      int64_t X = A.J;
      int32_t Sh = Count & 63;
      int64_t R;
      if (O == Op::Lshl)
        R = static_cast<int64_t>(static_cast<uint64_t>(X) << Sh);
      else if (O == Op::Lshr)
        R = X >> Sh;
      else
        R = static_cast<int64_t>(static_cast<uint64_t>(X) >> Sh);
      PUSH2(Value::longVal(R));
    }
    ++Pc;
    DISPATCH();
  }

  // Float/double arithmetic ------------------------------------------------
  OPC(Fadd) {
    float B = POP().F, A = POP().F;
    PUSH(Value::floatVal(A + B));
    ++Pc;
    DISPATCH();
  }
  OPC(Fsub) {
    float B = POP().F, A = POP().F;
    PUSH(Value::floatVal(A - B));
    ++Pc;
    DISPATCH();
  }
  OPC(Fmul) {
    float B = POP().F, A = POP().F;
    PUSH(Value::floatVal(A * B));
    ++Pc;
    DISPATCH();
  }
  OPC(Fdiv) {
    float B = POP().F, A = POP().F;
    PUSH(Value::floatVal(A / B));
    ++Pc;
    DISPATCH();
  }
  OPC(Frem) {
    float B = POP().F, A = POP().F;
    PUSH(Value::floatVal(std::fmod(A, B)));
    ++Pc;
    DISPATCH();
  }
  OPC(Fneg) {
    float A = POP().F;
    PUSH(Value::floatVal(-A));
    ++Pc;
    DISPATCH();
  }
  OPC(Dadd) {
    Value B = POP2(), A = POP2();
    PUSH2(Value::doubleVal(A.D + B.D));
    ++Pc;
    DISPATCH();
  }
  OPC(Dsub) {
    Value B = POP2(), A = POP2();
    PUSH2(Value::doubleVal(A.D - B.D));
    ++Pc;
    DISPATCH();
  }
  OPC(Dmul) {
    Value B = POP2(), A = POP2();
    PUSH2(Value::doubleVal(A.D * B.D));
    ++Pc;
    DISPATCH();
  }
  OPC(Ddiv) {
    Value B = POP2(), A = POP2();
    PUSH2(Value::doubleVal(A.D / B.D));
    ++Pc;
    DISPATCH();
  }
  OPC(Drem) {
    Value B = POP2(), A = POP2();
    PUSH2(Value::doubleVal(std::fmod(A.D, B.D)));
    ++Pc;
    DISPATCH();
  }
  OPC(Dneg) {
    Value A = POP2();
    PUSH2(Value::doubleVal(-A.D));
    ++Pc;
    DISPATCH();
  }

  // Conversions ------------------------------------------------------------
  OPC(I2l) {
    int32_t A = POP().I;
    PUSH2(Value::longVal(Vm.mode() == ExecutionMode::DoppioJS
                             ? Long64::fromInt32(A)
                             : Long64::fromBits(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(I2f) {
    int32_t A = POP().I;
    PUSH(Value::floatVal(static_cast<float>(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(I2d) {
    int32_t A = POP().I;
    PUSH2(Value::doubleVal(static_cast<double>(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(L2i) {
    Value A = POP2();
    PUSH(Value::intVal(Vm.mode() == ExecutionMode::DoppioJS
                           ? A.asLong64().toInt32()
                           : static_cast<int32_t>(A.J)));
    ++Pc;
    DISPATCH();
  }
  OPC(L2f) {
    Value A = POP2();
    PUSH(Value::floatVal(Vm.mode() == ExecutionMode::DoppioJS
                             ? A.asLong64().toFloat()
                             : static_cast<float>(A.J)));
    ++Pc;
    DISPATCH();
  }
  OPC(L2d) {
    Value A = POP2();
    PUSH2(Value::doubleVal(Vm.mode() == ExecutionMode::DoppioJS
                               ? A.asLong64().toDouble()
                               : static_cast<double>(A.J)));
    ++Pc;
    DISPATCH();
  }
  OPC(F2i) {
    float A = POP().F;
    PUSH(Value::intVal(jsnum::doubleToInt(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(F2l) {
    float A = POP().F;
    PUSH2(Value::longVal(Long64::fromDouble(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(F2d) {
    float A = POP().F;
    PUSH2(Value::doubleVal(static_cast<double>(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(D2i) {
    Value A = POP2();
    PUSH(Value::intVal(jsnum::doubleToInt(A.D)));
    ++Pc;
    DISPATCH();
  }
  OPC(D2l) {
    Value A = POP2();
    PUSH2(Value::longVal(Long64::fromDouble(A.D)));
    ++Pc;
    DISPATCH();
  }
  OPC(D2f) {
    Value A = POP2();
    PUSH(Value::floatVal(static_cast<float>(A.D)));
    ++Pc;
    DISPATCH();
  }
  OPC(I2b) {
    int32_t A = POP().I;
    PUSH(Value::intVal(static_cast<int8_t>(A)));
    ++Pc;
    DISPATCH();
  }
  OPC(I2c) {
    int32_t A = POP().I;
    PUSH(Value::intVal(A & 0xFFFF));
    ++Pc;
    DISPATCH();
  }
  OPC(I2s) {
    int32_t A = POP().I;
    PUSH(Value::intVal(static_cast<int16_t>(A)));
    ++Pc;
    DISPATCH();
  }

  // Comparisons ------------------------------------------------------------
  OPC(Lcmp) {
    Value B = POP2(), A = POP2();
    int32_t R;
    if (Vm.mode() == ExecutionMode::DoppioJS) {
      ExtraOpsSinceFlush += 2; // Software comparison of the halves.
      R = cmpLong(A.asLong64(), B.asLong64());
    } else {
      R = A.J < B.J ? -1 : (A.J > B.J ? 1 : 0);
    }
    PUSH(Value::intVal(R));
    ++Pc;
    DISPATCH();
  }
  OPC(Fcmpl)
  OPC(Fcmpg) {
    float B = POP().F, A = POP().F;
    int32_t R;
    if (std::isnan(A) || std::isnan(B))
      R = O == Op::Fcmpg ? 1 : -1;
    else
      R = A < B ? -1 : (A > B ? 1 : 0);
    PUSH(Value::intVal(R));
    ++Pc;
    DISPATCH();
  }
  OPC(Dcmpl)
  OPC(Dcmpg) {
    Value VB = POP2(), VA = POP2();
    double B = VB.D, A = VA.D;
    int32_t R;
    if (std::isnan(A) || std::isnan(B))
      R = O == Op::Dcmpg ? 1 : -1;
    else
      R = A < B ? -1 : (A > B ? 1 : 0);
    PUSH(Value::intVal(R));
    ++Pc;
    DISPATCH();
  }

  // Branches ---------------------------------------------------------------
  OPC(Ifeq)
  OPC(Ifne)
  OPC(Iflt)
  OPC(Ifge)
  OPC(Ifgt)
  OPC(Ifle) {
    int32_t A = POP().I;
    bool Taken = false;
    switch (O) {
    case Op::Ifeq:
      Taken = A == 0;
      break;
    case Op::Ifne:
      Taken = A != 0;
      break;
    case Op::Iflt:
      Taken = A < 0;
      break;
    case Op::Ifge:
      Taken = A >= 0;
      break;
    case Op::Ifgt:
      Taken = A > 0;
      break;
    default:
      Taken = A <= 0;
      break;
    }
    uint32_t Site = Pc;
    Pc = Taken ? Pc + rdS2(C, Pc + 1) : Pc + 3;
    BRANCH_DONE(Site);
  }
  OPC(IfIcmpeq)
  OPC(IfIcmpne)
  OPC(IfIcmplt)
  OPC(IfIcmpge)
  OPC(IfIcmpgt)
  OPC(IfIcmple) {
    int32_t B = POP().I, A = POP().I;
    bool Taken = false;
    switch (O) {
    case Op::IfIcmpeq:
      Taken = A == B;
      break;
    case Op::IfIcmpne:
      Taken = A != B;
      break;
    case Op::IfIcmplt:
      Taken = A < B;
      break;
    case Op::IfIcmpge:
      Taken = A >= B;
      break;
    case Op::IfIcmpgt:
      Taken = A > B;
      break;
    default:
      Taken = A <= B;
      break;
    }
    uint32_t Site = Pc;
    Pc = Taken ? Pc + rdS2(C, Pc + 1) : Pc + 3;
    BRANCH_DONE(Site);
  }
  OPC(IfAcmpeq)
  OPC(IfAcmpne) {
    Object *B = POP().R, *A = POP().R;
    bool Taken = O == Op::IfAcmpeq ? A == B : A != B;
    uint32_t Site = Pc;
    Pc = Taken ? Pc + rdS2(C, Pc + 1) : Pc + 3;
    BRANCH_DONE(Site);
  }
  OPC(Ifnull)
  OPC(Ifnonnull) {
    Object *A = POP().R;
    bool Taken = O == Op::Ifnull ? A == nullptr : A != nullptr;
    uint32_t Site = Pc;
    Pc = Taken ? Pc + rdS2(C, Pc + 1) : Pc + 3;
    BRANCH_DONE(Site);
  }
  OPC(Goto) {
    uint32_t Site = Pc;
    Pc += rdS2(C, Pc + 1);
    BRANCH_DONE(Site);
  }
  OPC(GotoW) {
    uint32_t Site = Pc;
    Pc += rdS4(C, Pc + 1);
    BRANCH_DONE(Site);
  }
  OPC(Jsr)
    PUSH(Value::retAddr(Pc + 3));
    Pc += rdS2(C, Pc + 1);
    DISPATCH();
  OPC(JsrW)
    PUSH(Value::retAddr(Pc + 5));
    Pc += rdS4(C, Pc + 1);
    DISPATCH();
  OPC(Ret)
    Pc = L[rdU1(C, Pc + 1)].Ret;
    DISPATCH();

  OPC(Tableswitch) {
    uint32_t Base = Pc;
    uint32_t Operands = (Base + 4) & ~3u;
    int32_t Default = rdS4(C, Operands);
    int32_t Low = rdS4(C, Operands + 4);
    int32_t High = rdS4(C, Operands + 8);
    int32_t Index = POP().I;
    if (Index < Low || Index > High) {
      Pc = Base + Default;
    } else {
      int32_t Offset = rdS4(C, Operands + 12 + 4 * (Index - Low));
      Pc = Base + Offset;
    }
    BRANCH_DONE(Base);
  }
  OPC(Lookupswitch) {
    uint32_t Base = Pc;
    uint32_t Operands = (Base + 4) & ~3u;
    int32_t Default = rdS4(C, Operands);
    int32_t NPairs = rdS4(C, Operands + 4);
    int32_t Key = POP().I;
    int32_t Offset = Default;
    for (int32_t I = 0; I != NPairs; ++I) {
      int32_t Match = rdS4(C, Operands + 8 + 8 * I);
      if (Match == Key) {
        Offset = rdS4(C, Operands + 12 + 8 * I);
        break;
      }
    }
    Pc = Base + Offset;
    BRANCH_DONE(Base);
  }

  // Returns ----------------------------------------------------------------
  // The whole return runs here: only a synchronized or <clinit> frame
  // leaves step(), for popFrame's releaseFrame.
  OPC(Ireturn)
  OPC(Freturn)
  OPC(Areturn)
    Ret = pop();
    goto ReturnTail;
  OPC(Lreturn)
  OPC(Dreturn)
    Ret = pop2();
    goto ReturnTail;
  OPC(Return)
    Ret.reset();
  ReturnTail:
    popFrame();
    if (CallStack.empty()) {
      Finished = true;
      return StepResult::Done;
    }
    if (Ret)
      pushSlotted(*Ret);
  BoundaryCheck:
    // "DoppioJVM checks at each function call boundary whether it should
    // suspend" (§6.1): after every return, and on entry to every callee.
    if (wantsSuspend())
      return StepResult::Yield;
    NEXT();

  // The call tail, shared by every invoke handler: memory is in sync, pc
  // still points at the invoke, and the resolved callee's receiver and
  // arguments sit on the operand stack. Every bytecode callee is entered
  // here; invokeMethod takes natives and abstract methods.
  CallTail: {
    Method *M = Call.M;
    ++Vm.stats().MethodInvocations;
    if (!M->HasCode || M->isNative()) [[unlikely]]
      NEXT_IF_CONTINUE(invokeMethod(M, Call.HasReceiver, Call.InsnLen));
    size_t ArgSlots = M->ParamSlots + (Call.HasReceiver ? 1 : 0);
    // The callee's locals start on the first argument slot, as in
    // HotSpot's interpreter: the arguments are already its first locals.
    size_t Base = top() - ArgSlots;
    if (!frameFits(Base, *M)) [[unlikely]] {
      StepResult Overflow;
      if (!growForCall(M, Base, Overflow))
        NEXT_IF_CONTINUE(Overflow);
    }
    F.Pc += Call.InsnLen; // Return lands after the invoke.
    Frame &Callee = pushFrame(M, Base, ArgSlots);
    if (M->isSynchronized()) [[unlikely]]
      lockFrame(Callee, Call.HasReceiver);
    goto BoundaryCheck;
  }

  // Fields -----------------------------------------------------------------
  OPC(Getstatic)
  OPC(Putstatic) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    ConstantPool::MemberRef Ref = F.M->Owner->Cf.Pool.memberRef(Idx);
    StepResult R;
    Klass *K = resolveClass(Ref.ClassName, R);
    if (!K)
      return R;
    if (!ensureInitialized(K, R))
      NEXT_IF_CONTINUE(R);
    // The field may be declared in a superclass.
    Klass *Holder = K;
    while (Holder && !Holder->Statics.count(Ref.Name))
      Holder = Holder->Super;
    if (!Holder)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NoSuchFieldError",
                                Ref.ClassName + "." + Ref.Name));
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = Holder;
      Q->Name = Ref.Name;
      Q->Descriptor = Ref.Descriptor;
      // std::map nodes are stable, so the cell pointer stays valid.
      Q->StaticCell = &Holder->Statics[Ref.Name];
      Q->Wide = desc::slotSize(Ref.Descriptor) == 2;
    }
    if (O == Op::Getstatic) {
      Value V = Holder->Statics[Ref.Name];
      if (desc::slotSize(Ref.Descriptor) == 2)
        push2(V);
      else
        push(V);
    } else {
      Holder->Statics[Ref.Name] =
          desc::slotSize(Ref.Descriptor) == 2 ? pop2() : pop();
    }
    F.Pc += 3;
    NEXT();
  }
  OPC(Getfield) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    ConstantPool::MemberRef Ref = F.M->Owner->Cf.Pool.memberRef(Idx);
    Object *Obj = pop().R;
    if (!Obj)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "getfield " + Ref.Name));
    // §6.7's name lookup, through the receiver's class.
    FieldInfo *FI = Obj->klass()->findField(Ref.Name);
    if (!FI)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NoSuchFieldError", Ref.Name));
    Value V = Obj->getSlot(FI->SlotIndex);
    if (V.K == Value::Kind::Empty)
      V = ArrayObject::defaultElement(Ref.Descriptor);
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Name = Ref.Name;
      Q->Descriptor = Ref.Descriptor;
      Q->Wide = desc::slotSize(Ref.Descriptor) == 2;
    }
    if (desc::slotSize(Ref.Descriptor) == 2)
      push2(V);
    else
      push(V);
    F.Pc += 3;
    NEXT();
  }
  OPC(Putfield) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    ConstantPool::MemberRef Ref = F.M->Owner->Cf.Pool.memberRef(Idx);
    Value V = desc::slotSize(Ref.Descriptor) == 2 ? pop2() : pop();
    Object *Obj = pop().R;
    if (!Obj)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "putfield " + Ref.Name));
    FieldInfo *FI = Obj->klass()->findField(Ref.Name);
    if (!FI)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NoSuchFieldError", Ref.Name));
    Obj->setSlot(FI->SlotIndex, V);
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Name = Ref.Name;
      Q->Descriptor = Ref.Descriptor;
      Q->Wide = desc::slotSize(Ref.Descriptor) == 2;
    }
    F.Pc += 3;
    NEXT();
  }

  // Invocations ------------------------------------------------------------
  // Each handler resolves its callee and ends in the call tail.
  OPC(Invokestatic) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    ConstantPool::MemberRef Ref = F.M->Owner->Cf.Pool.memberRef(Idx);
    StepResult R;
    Klass *K = resolveClass(Ref.ClassName, R);
    if (!K)
      return R;
    if (!ensureInitialized(K, R))
      NEXT_IF_CONTINUE(R);
    Method *M = K->findMethod(Ref.Name, Ref.Descriptor);
    if (!M)
      NEXT_IF_CONTINUE(
          throwJvm("java/lang/NoSuchMethodError",
                   Ref.ClassName + "." + Ref.Name + Ref.Descriptor));
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = K;
      Q->Callee = M;
      Q->Name = Ref.Name;
      Q->Descriptor = Ref.Descriptor;
      Q->ArgSlots = M->ParamSlots;
    }
    if (M->isSynchronized()) {
      Object *Lock = Vm.mirrorOf(M->Owner);
      Monitor &Mon = Lock->monitor();
      if (Mon.OwnerTid != -1 && Mon.OwnerTid != Tid)
        NEXT_IF_CONTINUE(monitorEnter(Lock));
    }
    Call = {M, /*HasReceiver=*/false, /*InsnLen=*/3};
    goto CallTail;
  }
  OPC(Invokespecial)
  OPC(Invokevirtual)
  OPC(Invokeinterface) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    uint32_t InsnLen = O == Op::Invokeinterface ? 5 : 3;
    ConstantPool::MemberRef Ref = F.M->Owner->Cf.Pool.memberRef(Idx);
    StepResult R;
    Klass *K = resolveClass(Ref.ClassName, R);
    if (!K)
      return R;
    std::optional<desc::MethodDesc> D = desc::parseMethod(Ref.Descriptor);
    int ArgSlots = desc::paramSlots(*D);
    Value Receiver = peek(ArgSlots);
    if (!Receiver.R)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "invoke " + Ref.Name));
    Method *M = nullptr;
    if (O == Op::Invokespecial) {
      M = K->findMethod(Ref.Name, Ref.Descriptor);
    } else {
      // Virtual dispatch from the receiver's class (§6.7's class ref).
      M = Receiver.R->klass()->findMethod(Ref.Name, Ref.Descriptor);
      if (!M)
        M = K->findMethod(Ref.Name, Ref.Descriptor);
    }
    if (!M)
      NEXT_IF_CONTINUE(
          throwJvm("java/lang/NoSuchMethodError",
                   Ref.ClassName + "." + Ref.Name + Ref.Descriptor));
    if (M->isAbstract())
      NEXT_IF_CONTINUE(throwJvm("java/lang/AbstractMethodError",
                                M->qualifiedName()));
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = K;
      Q->Name = Ref.Name;
      Q->Descriptor = Ref.Descriptor;
      Q->ArgSlots = ArgSlots;
      if (O == Op::Invokespecial) {
        Q->Callee = M; // Statically bound; virtual sites re-dispatch.
      } else if (O == Op::Invokevirtual) {
        // Inline-cache misses dispatch through this slot for receivers
        // that descend from its root (Klass::vtableTarget).
        Q->VSlot = M->VSlot;
        Q->VRoot = M->VRoot;
      }
    }
    if (M->isSynchronized()) {
      Monitor &Mon = Receiver.R->monitor();
      if (Mon.OwnerTid != -1 && Mon.OwnerTid != Tid)
        NEXT_IF_CONTINUE(monitorEnter(Receiver.R));
    }
    Call = {M, /*HasReceiver=*/true, InsnLen};
    goto CallTail;
  }

  // Allocation -------------------------------------------------------------
  OPC(New) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    const std::string &Name = F.M->Owner->Cf.Pool.className(Idx);
    StepResult R;
    Klass *K = resolveClass(Name, R);
    if (!K)
      return R;
    if (!ensureInitialized(K, R))
      NEXT_IF_CONTINUE(R);
    if (K->isInterface() || (K->AccessFlags & AccAbstract))
      NEXT_IF_CONTINUE(throwJvm("java/lang/InstantiationError", Name));
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = K;
      Q->Name = Name;
    }
    push(Value::ref(Vm.allocObject(K)));
    F.Pc += 3;
    NEXT();
  }
  OPC(Newarray) {
    int32_t Len = pop().I;
    if (Len < 0)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NegativeArraySizeException",
                                std::to_string(Len)));
    static const char *Descs[] = {"Z", "C", "F", "D", "B", "S", "I", "J"};
    uint8_t AType = rdU1(C, F.Pc + 1);
    assert(AType >= 4 && AType <= 11 && "bad newarray type");
    push(Value::ref(Vm.allocArrayOf(Descs[AType - 4], Len)));
    F.Pc += 2;
    NEXT();
  }
  OPC(Anewarray) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    const std::string &ElemName = F.M->Owner->Cf.Pool.className(Idx);
    StepResult R;
    Klass *Elem = resolveClass(ElemName, R);
    if (!Elem)
      return R;
    int32_t Len = pop().I;
    if (Len < 0)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NegativeArraySizeException",
                                std::to_string(Len)));
    std::string ElemDesc = desc::toFieldDesc(ElemName);
    push(Value::ref(Vm.allocArrayOf(ElemDesc, Len)));
    F.Pc += 3;
    NEXT();
  }
  OPC(Multianewarray) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    uint8_t Dims = rdU1(C, F.Pc + 3);
    std::string ArrayDesc = F.M->Owner->Cf.Pool.className(Idx);
    StepResult R;
    if (!resolveClass(ArrayDesc, R))
      return R;
    std::vector<int32_t> Counts(Dims);
    for (int I = Dims - 1; I >= 0; --I)
      Counts[I] = pop().I;
    for (int32_t N : Counts)
      if (N < 0)
        NEXT_IF_CONTINUE(throwJvm("java/lang/NegativeArraySizeException",
                                  std::to_string(N)));
    // Recursive allocation of the nested arrays.
    std::function<Object *(const std::string &, size_t)> Build =
        [&](const std::string &Desc, size_t Dim) -> Object * {
      std::string Elem = Desc.substr(1);
      ArrayObject *A = Vm.allocArrayOf(Elem, Counts[Dim]);
      if (Dim + 1 < Counts.size() && !Elem.empty() && Elem[0] == '[')
        for (int32_t I = 0; I != Counts[Dim]; ++I)
          A->set(I, Value::ref(Build(Elem, Dim + 1)));
      return A;
    };
    push(Value::ref(Build(ArrayDesc, 0)));
    F.Pc += 4;
    NEXT();
  }
  OPC(Arraylength) {
    Object *Ref = POP().R;
    if (!Ref)
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                     "arraylength"));
    PUSH(Value::intVal(static_cast<ArrayObject *>(Ref)->length()));
    ++Pc;
    DISPATCH();
  }

  // Casts ------------------------------------------------------------------
  OPC(Checkcast) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    const std::string &Name = F.M->Owner->Cf.Pool.className(Idx);
    StepResult R;
    Klass *K = resolveClass(Name, R);
    if (!K)
      return R;
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = K;
      Q->Name = Name;
    }
    Object *Obj = peek().R;
    if (Obj && !isInstanceOfKlass(Vm, Obj, K))
      NEXT_IF_CONTINUE(
          throwJvm("java/lang/ClassCastException",
                   Obj->klass()->Name + " cannot be cast to " + Name));
    F.Pc += 3;
    NEXT();
  }
  OPC(Instanceof) {
    uint16_t Idx = rdU2(C, F.Pc + 1);
    const std::string &Name = F.M->Owner->Cf.Pool.className(Idx);
    StepResult R;
    Klass *K = resolveClass(Name, R);
    if (!K)
      return R;
    if (QuickEntry *Q = quicken(F, Idx)) {
      Q->Holder = K;
      Q->Name = Name;
    }
    Object *Obj = pop().R;
    push(Value::intVal(isInstanceOfKlass(Vm, Obj, K) ? 1 : 0));
    F.Pc += 3;
    NEXT();
  }

  // Exceptions and monitors --------------------------------------------------
  OPC(Athrow) {
    Object *Ex = pop().R;
    if (!Ex)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException", "athrow"));
    NEXT_IF_CONTINUE(dispatchException(Ex));
  }
  OPC(Monitorenter) {
    Object *Obj = peek().R;
    if (!Obj)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "monitorenter"));
    StepResult R = monitorEnter(Obj);
    if (R == StepResult::Block)
      return R; // pc unchanged; retried when the owner releases.
    pop();
    ++F.Pc;
    // §6.2: monitor checks are DoppioJVM's context-switch points.
    ++Vm.stats().ContextSwitchPoints;
    if (wantsSuspend())
      return StepResult::Yield;
    NEXT();
  }
  OPC(Monitorexit) {
    Object *Obj = pop().R;
    if (!Obj)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "monitorexit"));
    // An unowned monitor throws. Return the dispatch outcome directly:
    // when a handler in this frame catches, dispatch already repointed
    // pc at it, and the ++F.Pc below would skip its first instruction.
    if (Obj->monitor().OwnerTid != Tid)
      NEXT_IF_CONTINUE(monitorExit(Obj));
    StepResult R = monitorExit(Obj);
    if (R != StepResult::Continue)
      return R;
    ++F.Pc;
    ++Vm.stats().ContextSwitchPoints;
    if (wantsSuspend())
      return StepResult::Yield;
    NEXT();
  }

  OPC(Wide)
    NEXT_IF_CONTINUE(stepWide(F));


  // Quickened forms (DESIGN.md §18) --------------------------------------
  // Each handler replays its base instruction from the resolution the
  // slow path stashed in the owning class's quick-entry table: no
  // constant-pool parsing, no class resolution, no initialization checks
  // (the class initialized before the site could quicken). Observable
  // behavior is bit-identical to the base form. The non-invoke forms are
  // fast handlers.
  OPC(LdcQuick)
  OPC(LdcWQuick) {
    uint16_t Idx = O == Op::LdcQuick ? rdU1(C, Pc + 1) : rdU2(C, Pc + 1);
    PUSH(F.M->Owner->quickEntry(Idx).Constant);
    Pc += O == Op::LdcQuick ? 2 : 3;
    DISPATCH();
  }
  OPC(GetstaticQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    if (Q.Wide)
      PUSH2(*Q.StaticCell);
    else
      PUSH(*Q.StaticCell);
    Pc += 3;
    DISPATCH();
  }
  OPC(PutstaticQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    *Q.StaticCell = Q.Wide ? POP2() : POP();
    Pc += 3;
    DISPATCH();
  }
  OPC(GetfieldQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    Object *Obj = POP().R;
    if (!Obj)
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                     "getfield " + Q.Name));
    if (!fieldSiteHits(Vm, Q, Obj->klass()) &&
        !cacheFieldSite(Vm, Q, Obj->klass())) [[unlikely]]
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NoSuchFieldError", Q.Name));
    Value V = Obj->getSlot(Q.IcSlot);
    if (V.K == Value::Kind::Empty)
      V = ArrayObject::defaultElement(Q.Descriptor);
    if (Q.Wide)
      PUSH2(V);
    else
      PUSH(V);
    Pc += 3;
    DISPATCH();
  }
  OPC(PutfieldQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    Value V = Q.Wide ? POP2() : POP();
    Object *Obj = POP().R;
    if (!Obj)
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                     "putfield " + Q.Name));
    if (!fieldSiteHits(Vm, Q, Obj->klass()) &&
        !cacheFieldSite(Vm, Q, Obj->klass())) [[unlikely]]
      SYNC_NEXT_IF_CONTINUE(throwJvm("java/lang/NoSuchFieldError", Q.Name));
    Obj->setSlot(Q.IcSlot, V);
    Pc += 3;
    DISPATCH();
  }
  OPC(InvokestaticQuick) {
    Method *M = F.M->Owner->quickEntry(rdU2(C, F.Pc + 1)).Callee;
    if (M->isSynchronized()) {
      Object *Lock = Vm.mirrorOf(M->Owner);
      Monitor &Mon = Lock->monitor();
      if (Mon.OwnerTid != -1 && Mon.OwnerTid != Tid)
        NEXT_IF_CONTINUE(monitorEnter(Lock));
    }
    Call = {M, /*HasReceiver=*/false, /*InsnLen=*/3};
    goto CallTail;
  }
  OPC(InvokespecialQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, F.Pc + 1));
    Method *M = Q.Callee;
    Value Receiver = peek(Q.ArgSlots);
    if (!Receiver.R)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "invoke " + Q.Name));
    if (M->isSynchronized()) {
      Monitor &Mon = Receiver.R->monitor();
      if (Mon.OwnerTid != -1 && Mon.OwnerTid != Tid)
        NEXT_IF_CONTINUE(monitorEnter(Receiver.R));
    }
    Call = {M, /*HasReceiver=*/true, /*InsnLen=*/3};
    goto CallTail;
  }
  OPC(InvokevirtualQuick)
  OPC(InvokeinterfaceQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, F.Pc + 1));
    uint32_t InsnLen = O == Op::InvokeinterfaceQuick ? 5 : 3;
    Value Receiver = peek(Q.ArgSlots);
    if (!Receiver.R)
      NEXT_IF_CONTINUE(throwJvm("java/lang/NullPointerException",
                                "invoke " + Q.Name));
    Klass *RK = Receiver.R->klass();
    Method *M;
    if (Vm.profile().InlineCaches && RK == Q.IcKlass) {
      // Monomorphic inline cache: same receiver class as last time, so
      // the devirtualized callee is already known.
      Vm.noteIcHit();
      M = Q.IcCallee;
    } else {
      // Behind the cache, a receiver descending from the site's root
      // method dispatches through its vtable slot; interface sites,
      // arrays and unrelated receivers resolve by name.
      M = RK->vtableTarget(Q.VSlot, Q.VRoot);
      if (!M)
        M = RK->findMethod(Q.Name, Q.Descriptor);
      if (!M)
        M = Q.Holder->findMethod(Q.Name, Q.Descriptor);
      if (!M)
        NEXT_IF_CONTINUE(
            throwJvm("java/lang/NoSuchMethodError",
                     Q.Holder->Name + "." + Q.Name + Q.Descriptor));
      if (M->isAbstract())
        NEXT_IF_CONTINUE(throwJvm("java/lang/AbstractMethodError",
                                  M->qualifiedName()));
      if (Vm.profile().InlineCaches) {
        Vm.noteIcMiss();
        Q.IcKlass = RK;
        Q.IcCallee = M;
      }
    }
    if (M->isSynchronized()) {
      Monitor &Mon = Receiver.R->monitor();
      if (Mon.OwnerTid != -1 && Mon.OwnerTid != Tid)
        NEXT_IF_CONTINUE(monitorEnter(Receiver.R));
    }
    Call = {M, /*HasReceiver=*/true, InsnLen};
    goto CallTail;
  }
  OPC(NewQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    PUSH(Value::ref(Vm.allocObject(Q.Holder)));
    Pc += 3;
    DISPATCH();
  }
  OPC(CheckcastQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    Object *Obj = PEEK().R;
    if (Obj && !isInstanceOfKlass(Vm, Obj, Q.Holder))
      SYNC_NEXT_IF_CONTINUE(
          throwJvm("java/lang/ClassCastException",
                   Obj->klass()->Name + " cannot be cast to " + Q.Name));
    Pc += 3;
    DISPATCH();
  }
  OPC(InstanceofQuick) {
    QuickEntry &Q = F.M->Owner->quickEntry(rdU2(C, Pc + 1));
    Object *Obj = POP().R;
    PUSH(Value::intVal(isInstanceOfKlass(Vm, Obj, Q.Holder) ? 1 : 0));
    Pc += 3;
    DISPATCH();
  }

  OPC_ILLEGAL
    NEXT_IF_CONTINUE(throwJvm("java/lang/ClassFormatError",
                              "illegal opcode " + std::to_string(C[F.Pc])));
#ifndef DOPPIO_COMPUTED_GOTO
  }
#endif
}

#undef OPC
#undef OPC_ILLEGAL
#undef PUSH
#undef PUSH2
#undef POP
#undef POP2
#undef PEEK
#undef SYNC
#undef DISPATCH
#undef NEXT
#undef NEXT_IF_CONTINUE
#undef SYNC_NEXT_IF_CONTINUE
#undef BRANCH_DONE

JvmThread::StepResult JvmThread::stepWide(Frame &F) {
  const uint8_t *C = F.M->Code.Bytecode.data();
  Op Inner = static_cast<Op>(C[F.Pc + 1]);
  uint16_t Slot = rdU2(C, F.Pc + 2);
  switch (Inner) {
  case Op::Iload:
  case Op::Fload:
  case Op::Aload:
    push(F.Locals[Slot]);
    F.Pc += 4;
    return StepResult::Continue;
  case Op::Lload:
  case Op::Dload:
    push2(F.Locals[Slot]);
    F.Pc += 4;
    return StepResult::Continue;
  case Op::Istore:
  case Op::Fstore:
  case Op::Astore:
    F.Locals[Slot] = pop();
    F.Pc += 4;
    return StepResult::Continue;
  case Op::Lstore:
  case Op::Dstore:
    F.Locals[Slot] = pop2();
    F.Pc += 4;
    return StepResult::Continue;
  case Op::Ret:
    F.Pc = F.Locals[Slot].Ret;
    return StepResult::Continue;
  case Op::Iinc: {
    int16_t Delta = rdS2(C, F.Pc + 4);
    F.Locals[Slot] = Value::intVal(modeAdd(F.Locals[Slot].I, Delta));
    F.Pc += 6;
    return StepResult::Continue;
  }
  default:
    return throwJvm("java/lang/ClassFormatError", "bad wide instruction");
  }
}
