//===- jvm/checkpoint.cpp - Whole-VM snapshot & revive ---------------------==//

#include "jvm/checkpoint.h"

#include "doppio/cont/snapshot.h"
#include "jvm/classfile/descriptor.h"
#include "jvm/interpreter.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <set>
#include <unordered_map>

using namespace doppio;
using namespace doppio::jvm;
using doppio::rt::snap::Reader;
using doppio::rt::snap::Writer;

namespace doppio {
namespace jvm {

/// The one gate into Jvm/JvmThread private state for the serializer.
struct CheckpointAccess {
  static std::vector<std::unique_ptr<Object>> &arena(Jvm &Vm) {
    return Vm.Arena;
  }
  static std::unordered_map<std::string, Object *> &interned(Jvm &Vm) {
    return Vm.InternedStrings;
  }
  static std::unordered_map<Klass *, Object *> &mirrors(Jvm &Vm) {
    return Vm.Mirrors;
  }
  static std::unordered_map<Object *, Klass *> &mirrorToKlass(Jvm &Vm) {
    return Vm.MirrorToKlass;
  }
  static std::unordered_map<Object *, int32_t> &identityHashes(Jvm &Vm) {
    return Vm.IdentityHashes;
  }
  static int32_t &nextIdentityHash(Jvm &Vm) { return Vm.NextIdentityHash; }
  static std::unordered_map<Object *, int32_t> &threadObjToTid(Jvm &Vm) {
    return Vm.ThreadObjToTid;
  }
  static std::vector<JvmThread *> &threads(Jvm &Vm) { return Vm.Threads; }
  static int &exitCode(Jvm &Vm) { return Vm.ExitCode; }
  static int32_t &mainTid(Jvm &Vm) { return Vm.MainTid; }
  static std::function<void(int)> &mainDone(Jvm &Vm) { return Vm.MainDone; }
  static Frame *placeFrame(JvmThread &T, Method *M,
                           std::span<const Value> Locals,
                           std::span<const Value> Operands) {
    return T.placeFrame(M, Locals, Operands);
  }
  static bool &finished(JvmThread &T) { return T.Finished; }
  static bool &uncaught(JvmThread &T) { return T.Uncaught; }
};

} // namespace jvm
} // namespace doppio

namespace {

constexpr uint32_t JvmImageMagic = 0x4a564d49; // "JVMI"
constexpr uint32_t JvmImageVersion = 1;

//===----------------------------------------------------------------------===//
// checkpointReady
//===----------------------------------------------------------------------===//

/// Tids parked in any monitor's entry or wait set, or in a join.
std::set<int32_t> dataBorneBlockedTids(Jvm &Vm) {
  std::set<int32_t> Tids;
  for (const auto &O : CheckpointAccess::arena(Vm))
    if (const Monitor *M = O->monitorIfAny()) {
      Tids.insert(M->EntrySet.begin(), M->EntrySet.end());
      Tids.insert(M->WaitSet.begin(), M->WaitSet.end());
    }
  for (JvmThread *T : CheckpointAccess::threads(Vm))
    Tids.insert(T->JoinWaiters.begin(), T->JoinWaiters.end());
  return Tids;
}

} // namespace

bool doppio::jvm::checkpointReady(Jvm &Vm, std::string *WhyNot) {
  auto No = [&](std::string Why) {
    if (WhyNot)
      *WhyNot = std::move(Why);
    return false;
  };
  if (Vm.loader().hasPendingLoads())
    return No("class load in flight");
  std::set<int32_t> DataBorne = dataBorneBlockedTids(Vm);
  for (JvmThread *T : CheckpointAccess::threads(Vm)) {
    auto Id = static_cast<rt::ThreadPool::ThreadId>(T->tid());
    switch (Vm.pool().state(Id)) {
    case rt::ThreadState::Running:
      return No("thread " + std::to_string(T->tid()) + " is mid-slice");
    case rt::ThreadState::Blocked:
      // A monitor/join park is pure data; anything else (timer, fs,
      // socket, sleep) has its wake-up in a host closure that cannot
      // cross the wire — the caller retries once it settles.
      if (!T->PendingReacquire && !DataBorne.count(T->tid()))
        return No("thread " + std::to_string(T->tid()) +
                  " is blocked on an in-flight asynchronous operation");
      break;
    case rt::ThreadState::Ready:
    case rt::ThreadState::Terminated:
      break;
    }
  }
  if (WhyNot)
    WhyNot->clear();
  return true;
}

//===----------------------------------------------------------------------===//
// serializeJvm
//===----------------------------------------------------------------------===//

namespace {

uint32_t floatBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}
float bitsFloat(uint32_t B) {
  float F;
  std::memcpy(&F, &B, sizeof(F));
  return F;
}
uint64_t doubleBits(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}
double bitsDouble(uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

/// Object ids on the wire: arena index + 1, 0 for null.
class ObjectIds {
public:
  explicit ObjectIds(Jvm &Vm) {
    const auto &Arena = CheckpointAccess::arena(Vm);
    Ids.reserve(Arena.size());
    for (size_t I = 0; I != Arena.size(); ++I)
      Ids[Arena[I].get()] = static_cast<uint32_t>(I + 1);
  }
  uint32_t of(const Object *O) const {
    if (!O)
      return 0;
    auto It = Ids.find(O);
    assert(It != Ids.end() && "ref to an object outside the arena");
    return It->second;
  }

private:
  std::unordered_map<const Object *, uint32_t> Ids;
};

void writeValue(Writer &W, const Value &V, const ObjectIds &Ids) {
  W.u8(static_cast<uint8_t>(V.K));
  switch (V.K) {
  case Value::Kind::Empty:
    break;
  case Value::Kind::Int:
    W.u32(static_cast<uint32_t>(V.I));
    break;
  case Value::Kind::Long:
    W.u64(static_cast<uint64_t>(V.J));
    break;
  case Value::Kind::Float:
    W.u32(floatBits(V.F));
    break;
  case Value::Kind::Double:
    W.u64(doubleBits(V.D));
    break;
  case Value::Kind::Ref:
    W.u32(Ids.of(V.R));
    break;
  case Value::Kind::RetAddr:
    W.u32(V.Ret);
    break;
  }
}

Value readValue(Reader &R, const std::vector<Object *> &Objects, bool &Ok) {
  uint8_t Kind = R.u8();
  switch (static_cast<Value::Kind>(Kind)) {
  case Value::Kind::Empty:
    return Value();
  case Value::Kind::Int:
    return Value::intVal(static_cast<int32_t>(R.u32()));
  case Value::Kind::Long:
    return Value::longVal(static_cast<int64_t>(R.u64()));
  case Value::Kind::Float:
    return Value::floatVal(bitsFloat(R.u32()));
  case Value::Kind::Double:
    return Value::doubleVal(bitsDouble(R.u64()));
  case Value::Kind::Ref: {
    uint32_t Id = R.u32();
    if (Id == 0)
      return Value::null();
    if (Id > Objects.size()) {
      Ok = false;
      return Value::null();
    }
    return Value::ref(Objects[Id - 1]);
  }
  case Value::Kind::RetAddr:
    return Value::retAddr(R.u32());
  }
  Ok = false;
  return Value();
}

void writeMonitor(Writer &W, const Monitor &M) {
  W.i64(M.OwnerTid);
  W.i64(M.EntryCount);
  W.u32(static_cast<uint32_t>(M.EntrySet.size()));
  for (int32_t T : M.EntrySet)
    W.i64(T);
  W.u32(static_cast<uint32_t>(M.WaitSet.size()));
  for (int32_t T : M.WaitSet)
    W.i64(T);
}

void writeThread(Writer &W, Jvm &Vm, JvmThread &T, const ObjectIds &Ids) {
  rt::ThreadState S =
      Vm.pool().state(static_cast<rt::ThreadPool::ThreadId>(T.tid()));
  assert(S != rt::ThreadState::Running && "serializing a mid-slice thread");
  W.u8(S == rt::ThreadState::Blocked     ? 1
       : S == rt::ThreadState::Terminated ? 2
                                          : 0);
  W.u8(T.finished() ? 1 : 0);
  W.u8(T.uncaughtException() ? 1 : 0);
  W.u32(Ids.of(T.ThreadObj));
  W.u32(static_cast<uint32_t>(T.JoinWaiters.size()));
  for (int32_t J : T.JoinWaiters)
    W.i64(J);
  // A settled-but-unconsumed native result (the thread went Ready before
  // the checkpoint) travels; checkpointReady refused in-flight ones.
  if (!T.AwaitingNativeResult) {
    W.u8(0);
  } else if (T.PendingNativeResult.ok()) {
    W.u8(1);
    writeValue(W, *T.PendingNativeResult, Ids);
  } else {
    W.u8(2);
    W.u32(static_cast<uint32_t>(T.PendingNativeResult.error().Code));
    W.str(T.PendingNativeResult.error().Detail);
  }
  W.u8(T.PendingLoadFailure ? 1 : 0);
  if (T.PendingLoadFailure)
    W.str(*T.PendingLoadFailure);
  W.u8(T.PendingReacquire ? 1 : 0);
  if (T.PendingReacquire) {
    W.u32(Ids.of(T.PendingReacquire->Obj));
    W.i64(T.PendingReacquire->Count);
  }
  W.u64(T.WaitGeneration);
  // Each frame is written from its two windows into the thread's value
  // array (DESIGN.md §9): the wire form keeps one locals and one operand
  // array per frame.
  const std::vector<Frame> &Stack = T.callStack();
  W.u32(static_cast<uint32_t>(Stack.size()));
  for (size_t I = 0; I != Stack.size(); ++I) {
    const Frame &F = Stack[I];
    assert(F.M && F.M->Owner && "frame without a resolved method");
    W.str(F.M->Owner->Name);
    W.str(F.M->Name);
    W.str(F.M->Descriptor);
    W.u32(F.Pc);
    W.u32(Ids.of(F.Locked));
    W.str(F.ClinitOf ? F.ClinitOf->Name : std::string());
    W.u32(static_cast<uint32_t>(F.Stack - F.Locals));
    for (const Value *V = F.Locals; V != F.Stack; ++V)
      writeValue(W, *V, Ids);
    std::span<const Value> Operands = T.operands(I);
    W.u32(static_cast<uint32_t>(Operands.size()));
    for (const Value &V : Operands)
      writeValue(W, V, Ids);
  }
}

} // namespace

rt::ErrorOr<std::vector<uint8_t>> doppio::jvm::serializeJvm(Jvm &Vm) {
  std::string Why;
  if (!checkpointReady(Vm, &Why))
    return rt::ApiError(rt::Errno::Again, "checkpoint: " + Why);

  Writer W(JvmImageMagic, JvmImageVersion);
  W.u8(Vm.mode() == ExecutionMode::DoppioJS ? 0 : 1);
  W.i64(CheckpointAccess::exitCode(Vm));
  W.i64(CheckpointAccess::mainTid(Vm));
  W.u64(static_cast<uint64_t>(CheckpointAccess::nextIdentityHash(Vm)));

  // Classes: names and init states, in loader (name) order. Array classes
  // are omitted — the destination resynthesizes them on demand.
  std::vector<Klass *> Classes;
  for (Klass *K : Vm.loader().loadedClasses())
    if (!K->IsArrayClass)
      Classes.push_back(K);
  W.u32(static_cast<uint32_t>(Classes.size()));
  for (Klass *K : Classes) {
    W.str(K->Name);
    W.u8(static_cast<uint8_t>(K->Init));
  }

  // Objects, two passes: allocation shape first (so every ref in pass two
  // resolves), then contents.
  ObjectIds Ids(Vm);
  auto &Arena = CheckpointAccess::arena(Vm);
  W.u32(static_cast<uint32_t>(Arena.size()));
  for (const auto &O : Arena) {
    if (O->isArray()) {
      const auto *A = static_cast<const ArrayObject *>(O.get());
      W.u8(1);
      W.str(A->elemDesc());
      W.u32(static_cast<uint32_t>(A->length()));
    } else {
      W.u8(0);
      W.str(O->klass()->Name);
    }
  }
  for (const auto &O : Arena) {
    if (O->isArray()) {
      auto *A = static_cast<ArrayObject *>(O.get());
      W.u32(static_cast<uint32_t>(A->elems().size()));
      for (const Value &V : A->elems())
        writeValue(W, V, Ids);
    } else if (Vm.mode() == ExecutionMode::DoppioJS) {
      // The §6.7 dictionary's wire form: the written fields, sorted by
      // name. A redeclared name's superclass slot is never written, so
      // each name appears once.
      std::vector<std::pair<std::string, Value>> Fields;
      for (const Klass *K = O->klass(); K; K = K->Super)
        for (const FieldInfo &F : K->Fields)
          if (!F.isStatic() &&
              O->getSlot(F.SlotIndex).K != Value::Kind::Empty)
            Fields.emplace_back(F.Name, O->getSlot(F.SlotIndex));
      std::sort(Fields.begin(), Fields.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      W.u32(static_cast<uint32_t>(Fields.size()));
      for (const auto &[Name, V] : Fields) {
        W.str(Name);
        writeValue(W, V, Ids);
      }
    } else {
      W.u32(static_cast<uint32_t>(O->slotStorage().size()));
      for (const Value &V : O->slotStorage())
        writeValue(W, V, Ids);
    }
    const Monitor *M = O->monitorIfAny();
    W.u8(M ? 1 : 0);
    if (M)
      writeMonitor(W, *M);
  }

  // Statics (after objects: ref statics point into the arena).
  W.u32(static_cast<uint32_t>(Classes.size()));
  for (Klass *K : Classes) {
    W.str(K->Name);
    W.u32(static_cast<uint32_t>(K->Statics.size()));
    for (const auto &[Name, V] : K->Statics) {
      W.str(Name);
      writeValue(W, V, Ids);
    }
  }

  // Intern table, mirrors, identity hashes — each sorted for determinism.
  {
    std::vector<std::pair<std::string, Object *>> Interned(
        CheckpointAccess::interned(Vm).begin(),
        CheckpointAccess::interned(Vm).end());
    std::sort(Interned.begin(), Interned.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    W.u32(static_cast<uint32_t>(Interned.size()));
    for (const auto &[Utf8, O] : Interned) {
      W.str(Utf8);
      W.u32(Ids.of(O));
    }
  }
  {
    std::vector<std::pair<std::string, Object *>> Mirrors;
    for (const auto &[K, O] : CheckpointAccess::mirrors(Vm))
      Mirrors.emplace_back(K->Name, O);
    std::sort(Mirrors.begin(), Mirrors.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    W.u32(static_cast<uint32_t>(Mirrors.size()));
    for (const auto &[Name, O] : Mirrors) {
      W.str(Name);
      W.u32(Ids.of(O));
    }
  }
  {
    std::vector<std::pair<uint32_t, int32_t>> Hashes;
    for (const auto &[O, H] : CheckpointAccess::identityHashes(Vm))
      Hashes.emplace_back(Ids.of(O), H);
    std::sort(Hashes.begin(), Hashes.end());
    W.u32(static_cast<uint32_t>(Hashes.size()));
    for (const auto &[Id, H] : Hashes) {
      W.u32(Id);
      W.i64(H);
    }
  }

  // Threads, in tid order (the vector is tid-indexed).
  auto &Threads = CheckpointAccess::threads(Vm);
  W.u32(static_cast<uint32_t>(Threads.size()));
  for (JvmThread *T : Threads)
    writeThread(W, Vm, *T, Ids);

  return W.take();
}

//===----------------------------------------------------------------------===//
// restoreJvm
//===----------------------------------------------------------------------===//

namespace {

struct RestoreState {
  Jvm &Vm;
  std::vector<uint8_t> Image;
  Reader R;
  std::function<void(int)> ExitFn;
  std::function<void(rt::ErrorOr<bool>)> Done;

  int64_t ExitCode = -1;
  int64_t MainTid = -1;
  uint64_t NextIdentityHash = 0;
  /// (name, init state), blob order; loaded sequentially before the rest
  /// of the image is decoded.
  std::vector<std::pair<std::string, uint8_t>> Classes;
  size_t NextClass = 0;

  RestoreState(Jvm &Vm, std::vector<uint8_t> InImage,
               std::function<void(int)> ExitFn,
               std::function<void(rt::ErrorOr<bool>)> Done)
      : Vm(Vm), Image(std::move(InImage)),
        R(Image, JvmImageMagic, JvmImageVersion), ExitFn(std::move(ExitFn)),
        Done(std::move(Done)) {}

  void fail(rt::Errno Code, const std::string &Why) {
    if (Done) {
      auto D = std::move(Done);
      Done = nullptr;
      D(rt::ApiError(Code, "restore: " + Why));
    }
  }
  void succeed() {
    if (Done) {
      auto D = std::move(Done);
      Done = nullptr;
      D(true);
    }
  }
};

void finishRestore(const std::shared_ptr<RestoreState> &St);

/// Loads the image's classes one after another (supers chain through
/// loadAsync on their own); already-present classes — the built-in
/// library — are skipped.
void loadImageClasses(const std::shared_ptr<RestoreState> &St) {
  while (St->NextClass < St->Classes.size() &&
         St->Vm.loader().lookup(St->Classes[St->NextClass].first))
    ++St->NextClass;
  if (St->NextClass == St->Classes.size()) {
    finishRestore(St);
    return;
  }
  std::string Name = St->Classes[St->NextClass].first;
  ++St->NextClass;
  St->Vm.loader().loadAsync(Name, [St, Name](rt::ErrorOr<Klass *> R) {
    if (!R) {
      St->fail(R.error().Code, "class " + Name);
      return;
    }
    loadImageClasses(St);
  });
}

/// Everything after class loading is synchronous decode.
void finishRestore(const std::shared_ptr<RestoreState> &St) {
  Jvm &Vm = St->Vm;
  Reader &R = St->R;

  for (const auto &[Name, Init] : St->Classes) {
    Klass *K = Vm.loader().lookup(Name);
    assert(K && "image class vanished after load");
    K->Init = static_cast<Klass::InitState>(Init); // Checked when read.
  }

  // Objects, pass one: allocate shapes in arena order so ids resolve.
  // Every object, and every array element, takes at least one more byte
  // of the image, so counts beyond the unread bytes are forgeries.
  uint32_t NObjects = R.u32();
  if (NObjects > R.remaining()) {
    St->fail(rt::Errno::Io, "object count exceeds the image");
    return;
  }
  std::vector<Object *> Objects;
  Objects.reserve(NObjects);
  for (uint32_t I = 0; I != NObjects && R.ok(); ++I) {
    if (R.u8() == 1) {
      std::string ElemDesc = R.str();
      uint32_t Len = R.u32();
      if (!R.ok())
        break;
      if (Len > std::min<size_t>(R.remaining(), INT32_MAX)) {
        St->fail(rt::Errno::Io, "array length exceeds the image");
        return;
      }
      Klass *AK = Vm.loader().lookup("[" + ElemDesc);
      if (!AK) {
        St->fail(rt::Errno::Io,
                 desc::isField(ElemDesc)
                     ? "array of unknown class [" + ElemDesc
                     : "malformed array element '" + ElemDesc + "'");
        return;
      }
      Objects.push_back(
          Vm.allocArray(AK, static_cast<int32_t>(Len)));
    } else {
      std::string Name = R.str();
      Klass *K = Vm.loader().lookup(Name);
      if (!K) {
        St->fail(rt::Errno::Io, "object of unknown class " + Name);
        return;
      }
      Objects.push_back(Vm.allocObject(K));
    }
  }

  // Pass two: contents.
  bool ValuesOk = true;
  for (uint32_t I = 0; I != NObjects && R.ok() && ValuesOk; ++I) {
    Object *O = Objects[I];
    if (O->isArray()) {
      auto *A = static_cast<ArrayObject *>(O);
      uint32_t N = R.u32();
      if (N != static_cast<uint32_t>(A->length())) {
        St->fail(rt::Errno::Io, "array length mismatch");
        return;
      }
      for (uint32_t E = 0; E != N && R.ok(); ++E)
        A->set(static_cast<int32_t>(E), readValue(R, Objects, ValuesOk));
    } else if (Vm.mode() == ExecutionMode::DoppioJS) {
      uint32_t N = R.u32();
      for (uint32_t F = 0; F != N && R.ok(); ++F) {
        std::string Name = R.str();
        if (!O->setField(Name, readValue(R, Objects, ValuesOk)) && R.ok()) {
          St->fail(rt::Errno::Io, "field record " + Name +
                                      " names no instance field of " +
                                      O->klass()->Name);
          return;
        }
      }
    } else {
      uint32_t N = R.u32();
      auto &Slots = O->slotStorage();
      if (N != Slots.size()) {
        St->fail(rt::Errno::Io, "slot count mismatch");
        return;
      }
      for (uint32_t S = 0; S != N && R.ok(); ++S)
        Slots[S] = readValue(R, Objects, ValuesOk);
    }
    if (R.u8() == 1) {
      Monitor &M = O->monitor();
      M.OwnerTid = static_cast<int32_t>(R.i64());
      M.EntryCount = static_cast<int32_t>(R.i64());
      M.EntrySet.clear();
      for (uint32_t N = R.u32(); N != 0 && R.ok(); --N)
        M.EntrySet.push_back(static_cast<int32_t>(R.i64()));
      M.WaitSet.clear();
      for (uint32_t N = R.u32(); N != 0 && R.ok(); --N)
        M.WaitSet.push_back(static_cast<int32_t>(R.i64()));
    }
  }

  // Statics.
  for (uint32_t N = R.u32(); N != 0 && R.ok() && ValuesOk; --N) {
    std::string Name = R.str();
    Klass *K = Vm.loader().lookup(Name);
    if (!K) {
      St->fail(rt::Errno::Io, "statics of unknown class " + Name);
      return;
    }
    for (uint32_t F = R.u32(); F != 0 && R.ok(); --F) {
      std::string Field = R.str();
      K->Statics[Field] = readValue(R, Objects, ValuesOk);
    }
  }

  // Tables.
  auto ObjAt = [&](uint32_t Id) -> Object * {
    if (Id == 0 || Id > Objects.size())
      return nullptr;
    return Objects[Id - 1];
  };
  for (uint32_t N = R.u32(); N != 0 && R.ok(); --N) {
    std::string Utf8 = R.str();
    if (Object *O = ObjAt(R.u32()))
      CheckpointAccess::interned(Vm)[Utf8] = O;
  }
  for (uint32_t N = R.u32(); N != 0 && R.ok(); --N) {
    std::string Name = R.str();
    Object *O = ObjAt(R.u32());
    Klass *K = Vm.loader().lookup(Name);
    if (K && O) {
      CheckpointAccess::mirrors(Vm)[K] = O;
      CheckpointAccess::mirrorToKlass(Vm)[O] = K;
    }
  }
  for (uint32_t N = R.u32(); N != 0 && R.ok(); --N) {
    uint32_t Id = R.u32();
    int32_t H = static_cast<int32_t>(R.i64());
    if (Object *O = ObjAt(Id))
      CheckpointAccess::identityHashes(Vm)[O] = H;
  }

  // Threads: rebuild each record, spawn it into the pool (tids are dense
  // and pool-ordered), then force its checkpointed state — a Blocked
  // thread gets a fresh park continuation, so the ordinary unblock paths
  // (notify, monitor exit, join completion) wake it on the destination.
  uint32_t NThreads = R.u32();
  for (uint32_t Tid = 0; Tid != NThreads && R.ok() && ValuesOk; ++Tid) {
    uint8_t PoolState = R.u8();
    auto T = std::make_unique<JvmThread>(Vm, static_cast<int32_t>(Tid));
    JvmThread *Raw = T.get();
    CheckpointAccess::finished(*Raw) = R.u8() == 1;
    CheckpointAccess::uncaught(*Raw) = R.u8() == 1;
    Raw->ThreadObj = ObjAt(R.u32());
    for (uint32_t N = R.u32(); N != 0 && R.ok(); --N)
      Raw->JoinWaiters.push_back(static_cast<int32_t>(R.i64()));
    switch (R.u8()) {
    case 1:
      Raw->AwaitingNativeResult = true;
      Raw->PendingNativeResult = readValue(R, Objects, ValuesOk);
      break;
    case 2: {
      Raw->AwaitingNativeResult = true;
      auto Code = static_cast<rt::Errno>(R.u32());
      Raw->PendingNativeResult = rt::ApiError(Code, R.str());
      break;
    }
    default:
      break;
    }
    if (R.u8() == 1)
      Raw->PendingLoadFailure = R.str();
    if (R.u8() == 1) {
      Object *Obj = ObjAt(R.u32());
      auto Count = static_cast<int32_t>(R.i64());
      Raw->PendingReacquire = JvmThread::Reacquire{Obj, Count};
    }
    Raw->WaitGeneration = R.u64();
    // Each frame is decoded into temporaries and checked against its
    // method, then placed on top of the thread's value array.
    for (uint32_t N = R.u32(); N != 0 && R.ok() && ValuesOk; --N) {
      std::string KName = R.str();
      std::string MName = R.str();
      std::string MDesc = R.str();
      uint32_t Pc = R.u32();
      Object *Locked = ObjAt(R.u32());
      std::string ClinitName = R.str();
      std::vector<Value> Locals, Operands;
      for (uint32_t L = R.u32(); L != 0 && R.ok(); --L)
        Locals.push_back(readValue(R, Objects, ValuesOk));
      for (uint32_t S = R.u32(); S != 0 && R.ok(); --S)
        Operands.push_back(readValue(R, Objects, ValuesOk));
      Klass *K = Vm.loader().lookup(KName);
      Method *M = K ? K->findDeclaredMethod(MName, MDesc) : nullptr;
      if (!M) {
        St->fail(rt::Errno::Io, "frame method " + KName + "." + MName);
        return;
      }
      // The interpreter indexes a frame by its method's verified bounds
      // (DESIGN.md §12), so a frame that disagrees with its method is
      // refused here rather than trusted there.
      if (Pc >= M->Code.Bytecode.size() ||
          Locals.size() != M->Code.MaxLocals ||
          Operands.size() > M->Code.MaxStack) {
        St->fail(rt::Errno::Io, "frame of " + KName + "." + MName +
                                    " does not fit its method");
        return;
      }
      // Trust and suspend-check placement are re-derived from this VM's
      // verifier run and mode, not taken from the image (DESIGN.md §17).
      Frame *F = CheckpointAccess::placeFrame(*Raw, M, Locals, Operands);
      if (!F) {
        St->fail(rt::Errno::Io, "call stack of thread " +
                                    std::to_string(Tid) + " is too deep");
        return;
      }
      F->Pc = Pc;
      F->Locked = Locked;
      F->ClinitOf =
          ClinitName.empty() ? nullptr : Vm.loader().lookup(ClinitName);
    }
    rt::ThreadPool::ThreadId Got = Vm.pool().spawn(std::move(T));
    assert(Got == Tid && "pool and image thread order diverged");
    (void)Got;
    CheckpointAccess::threads(Vm).push_back(Raw);
    if (Raw->ThreadObj)
      CheckpointAccess::threadObjToTid(Vm)[Raw->ThreadObj] =
          static_cast<int32_t>(Tid);
    if (PoolState == 1)
      Vm.pool().restoreThreadState(Tid, rt::ThreadState::Blocked);
    else if (PoolState == 2)
      Vm.pool().restoreThreadState(Tid, rt::ThreadState::Terminated);
  }

  if (!R.ok() || !ValuesOk || !R.atEnd()) {
    St->fail(rt::Errno::Io, "truncated or corrupt image");
    return;
  }

  CheckpointAccess::exitCode(Vm) = static_cast<int>(St->ExitCode);
  CheckpointAccess::mainTid(Vm) = static_cast<int32_t>(St->MainTid);
  CheckpointAccess::nextIdentityHash(Vm) =
      static_cast<int32_t>(St->NextIdentityHash);
  auto &Threads = CheckpointAccess::threads(Vm);
  int32_t MainTid = static_cast<int32_t>(St->MainTid);
  bool MainFinished = MainTid >= 0 &&
                      MainTid < static_cast<int32_t>(Threads.size()) &&
                      Threads[MainTid]->finished();
  if (MainFinished) {
    // The checkpoint caught the VM after main exited (stragglers still
    // running): deliver the recorded exit immediately.
    int Code = CheckpointAccess::exitCode(Vm);
    auto ExitFn = std::move(St->ExitFn);
    Vm.env().loop().post(kernel::Lane::Resume,
                         [ExitFn, Code] { ExitFn(Code); });
  } else {
    CheckpointAccess::mainDone(Vm) = std::move(St->ExitFn);
  }
  St->succeed();
}

} // namespace

void doppio::jvm::restoreJvm(Jvm &Vm, std::vector<uint8_t> Image,
                             std::function<void(int)> ExitFn,
                             std::function<void(rt::ErrorOr<bool>)> Done) {
  auto St = std::make_shared<RestoreState>(Vm, std::move(Image),
                                           std::move(ExitFn), std::move(Done));
  if (!St->R.ok()) {
    St->fail(rt::Errno::Io, "bad magic or version");
    return;
  }
  uint8_t Mode = St->R.u8();
  if (Mode != (Vm.mode() == ExecutionMode::DoppioJS ? 0 : 1)) {
    St->fail(rt::Errno::Invalid, "execution mode mismatch");
    return;
  }
  St->ExitCode = St->R.i64();
  St->MainTid = St->R.i64();
  St->NextIdentityHash = St->R.u64();
  for (uint32_t N = St->R.u32(); N != 0 && St->R.ok(); --N) {
    std::string Name = St->R.str();
    uint8_t Init = St->R.u8();
    if (Init > static_cast<uint8_t>(Klass::InitState::Erroneous)) {
      St->fail(rt::Errno::Io, "class " + Name + " has init state " +
                                  std::to_string(Init));
      return;
    }
    St->Classes.emplace_back(std::move(Name), Init);
  }
  if (!St->R.ok()) {
    St->fail(rt::Errno::Io, "truncated class table");
    return;
  }
  loadImageClasses(St);
}
