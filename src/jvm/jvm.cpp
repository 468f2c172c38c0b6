//===- jvm/jvm.cpp - DoppioJVM facade -------------------------------------==//

#include "jvm/jvm.h"

#include "jvm/interpreter.h"

#include <cassert>
#include <cstdlib>

using namespace doppio;
using namespace doppio::jvm;
using rt::ApiError;
using rt::Errno;
using rt::ErrorOr;

Jvm::Jvm(browser::BrowserEnv &Env, rt::fs::FileSystem &Fs, rt::Process &Proc,
         JvmOptions InOptions)
    : Env(Env), Fs(Fs), Proc(Proc), Options(std::move(InOptions)),
      Susp(Env), Pool(Env, Susp), Heap(Env, Options.HeapBytes),
      Loader(*this) {
  // The one env override point for execution knobs (exec_profile.h):
  // DOPPIO_JVM_PROFILE.
  Options.Exec.applyEnv();
  DispatchCostNs =
      Options.Exec.Quicken ? Options.QuickOpCostNs : Options.OpCostNs;
  // Resolved once, pointer-increment hot path (registry.h).
  std::string Prefix = Env.metrics().claimPrefix("jvm");
  SuspendChecksExecutedC =
      &Env.metrics().counter(Prefix + ".suspend_checks_executed");
  SuspendChecksElidedC =
      &Env.metrics().counter(Prefix + ".suspend_checks_elided");
  IcHitsC = &Env.metrics().counter(Prefix + ".ic.hits");
  IcMissesC = &Env.metrics().counter(Prefix + ".ic.misses");
  for (const std::string &Dir : Options.Classpath)
    Loader.addClasspathEntry(Dir);
  installCoreClasses(*this);
}

Jvm::~Jvm() = default;

Object *Jvm::allocObject(Klass *K) {
  ++Stats.ObjectsAllocated;
  // A JS engine boxes every object; charge a small allocation cost.
  if (Options.Mode == ExecutionMode::DoppioJS)
    Env.chargeCompute(Options.OpCostNs);
  Arena.push_back(std::make_unique<Object>(K, K->InstanceSlotCount));
  return Arena.back().get();
}

ArrayObject *Jvm::allocArray(Klass *ArrayKlass, int32_t Length) {
  ++Stats.ObjectsAllocated;
  if (Options.Mode == ExecutionMode::DoppioJS)
    Env.chargeCompute(Options.OpCostNs + Length / 8);
  Arena.push_back(std::make_unique<ArrayObject>(ArrayKlass, Length));
  return static_cast<ArrayObject *>(Arena.back().get());
}

ArrayObject *Jvm::allocArrayOf(const std::string &ElemDesc, int32_t Length) {
  Klass *AK = Loader.lookup("[" + ElemDesc);
  assert(AK && "array class could not be synthesized");
  return allocArray(AK, Length);
}

Object *Jvm::newString(const std::string &Utf8) {
  Klass *StringK = Loader.lookup("java/lang/String");
  assert(StringK && "core classes not installed");
  Object *S = allocObject(StringK);
  ArrayObject *Chars = allocArrayOf("C", static_cast<int32_t>(Utf8.size()));
  for (size_t I = 0; I != Utf8.size(); ++I)
    Chars->set(static_cast<int32_t>(I),
               Value::intVal(static_cast<uint8_t>(Utf8[I])));
  bool Set = S->setField("value", Value::ref(Chars));
  assert(Set && "String.value missing");
  (void)Set;
  return S;
}

Object *Jvm::internString(const std::string &Utf8) {
  auto It = InternedStrings.find(Utf8);
  if (It != InternedStrings.end())
    return It->second;
  Object *S = newString(Utf8);
  InternedStrings.emplace(Utf8, S);
  return S;
}

std::string Jvm::stringValue(Object *Str) const {
  if (!Str)
    return "<null>";
  Value V = Str->field("value");
  if (V.K != Value::Kind::Ref || !V.R || !V.R->isArray())
    return "<not-a-string>";
  auto *Chars = static_cast<ArrayObject *>(V.R);
  std::string Out;
  Out.reserve(Chars->length());
  for (int32_t I = 0; I != Chars->length(); ++I)
    Out.push_back(static_cast<char>(Chars->get(I).I & 0xFF));
  return Out;
}

Object *Jvm::mirrorOf(Klass *K) {
  auto It = Mirrors.find(K);
  if (It != Mirrors.end())
    return It->second;
  Klass *ClassK = Loader.lookup("java/lang/Class");
  assert(ClassK && "core classes not installed");
  Object *Mirror = allocObject(ClassK);
  Mirrors.emplace(K, Mirror);
  MirrorToKlass.emplace(Mirror, K);
  return Mirror;
}

Klass *Jvm::mirroredClass(Object *Mirror) const {
  auto It = MirrorToKlass.find(Mirror);
  return It == MirrorToKlass.end() ? nullptr : It->second;
}

int32_t Jvm::identityHash(Object *O) {
  if (!O)
    return 0;
  auto [It, Inserted] = IdentityHashes.try_emplace(
      O, static_cast<int32_t>(
             static_cast<uint32_t>(NextIdentityHash) * 2654435761u));
  if (Inserted)
    ++NextIdentityHash;
  return It->second;
}

Object *Jvm::makeThrowable(const std::string &ClassName,
                           const std::string &Message) {
  Klass *K = Loader.lookup(ClassName);
  if (!K) {
    // Unknown (user-defined, unloaded) type: degrade to RuntimeException.
    K = Loader.lookup("java/lang/RuntimeException");
    assert(K && "core classes not installed");
  }
  Object *Ex = allocObject(K);
  Object *Msg = Message.empty() ? nullptr : newString(Message);
  Ex->setField("detailMessage", Value::ref(Msg));
  return Ex;
}

JvmThread *Jvm::threadForTid(int32_t Tid) {
  if (Tid < 0 || static_cast<size_t>(Tid) >= Threads.size())
    return nullptr;
  return Threads[Tid];
}

JvmThread *Jvm::threadForObject(Object *ThreadObj) {
  auto It = ThreadObjToTid.find(ThreadObj);
  return It == ThreadObjToTid.end() ? nullptr : threadForTid(It->second);
}

int32_t Jvm::spawnThread(Method *M, std::vector<Value> Args,
                         Object *ThreadObj) {
  auto Thread = std::make_unique<JvmThread>(
      *this, static_cast<int32_t>(Threads.size()));
  JvmThread *Raw = Thread.get();
  Raw->ThreadObj = ThreadObj;
  Raw->pushEntryFrame(M, std::move(Args));
  int32_t Tid = static_cast<int32_t>(Pool.spawn(std::move(Thread)));
  assert(Tid == static_cast<int32_t>(Threads.size()) &&
         "pool and thread table diverged");
  Threads.push_back(Raw);
  if (ThreadObj)
    ThreadObjToTid[ThreadObj] = Tid;
  return Tid;
}

void Jvm::noteThreadFinished(JvmThread &T) {
  for (int32_t Waiter : T.JoinWaiters)
    if (Pool.state(Waiter) == rt::ThreadState::Blocked)
      Pool.unblock(Waiter);
  T.JoinWaiters.clear();
  if (T.tid() == MainTid) {
    if (ExitCode == -1) // System.exit may have set it already.
      ExitCode = T.uncaughtException() ? 1 : 0;
    if (MainDone) {
      auto Done = std::move(MainDone);
      MainDone = nullptr;
      Done(ExitCode);
    }
  }
}

void Jvm::runMain(const std::string &MainClass,
                  const std::vector<std::string> &Args,
                  std::function<void(int)> Done) {
  MainDone = std::move(Done);
  Loader.loadAsync(MainClass, [this, MainClass,
                               Args](ErrorOr<Klass *> R) {
    auto Fail = [this](const std::string &Msg) {
      Proc.writeStderr("Error: " + Msg + "\n");
      ExitCode = 1;
      if (MainDone) {
        auto Done = std::move(MainDone);
        MainDone = nullptr;
        Done(1);
      }
    };
    if (!R) {
      Fail("Could not find or load main class " + MainClass + " (" +
           R.error().message() + ")");
      return;
    }
    Method *Main = (*R)->findMethod("main", "([Ljava/lang/String;)V");
    if (!Main || !Main->isStatic()) {
      Fail("Main method not found in class " + MainClass);
      return;
    }
    ArrayObject *ArgArray = allocArrayOf(
        "Ljava/lang/String;", static_cast<int32_t>(Args.size()));
    for (size_t I = 0; I != Args.size(); ++I)
      ArgArray->set(static_cast<int32_t>(I),
                    Value::ref(internString(Args[I])));
    if (Main->isNative()) {
      Fail("main must be a bytecode method");
      return;
    }
    MainTid = spawnThread(Main, {Value::ref(ArgArray)}, nullptr);
  });
}

int Jvm::runMainToCompletion(const std::string &MainClass,
                             const std::vector<std::string> &Args) {
  int Result = -1;
  runMain(MainClass, Args, [&Result](int Code) { Result = Code; });
  Env.loop().run();
  return Result;
}
