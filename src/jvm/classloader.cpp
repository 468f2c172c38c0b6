//===- jvm/classloader.cpp ------------------------------------------------==//

#include "jvm/classloader.h"

#include "jvm/classfile/analysis.h"
#include "jvm/classfile/verifier.h"

#include "jvm/jvm.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace doppio;
using namespace doppio::jvm;
using rt::ApiError;
using rt::Errno;
using rt::ErrorOr;

Klass *ClassLoader::lookup(const std::string &Name) {
  auto It = Classes.find(Name);
  if (It != Classes.end())
    return It->second.get();
  if (!Name.empty() && Name[0] == '[')
    return makeArrayClass(Name);
  auto Later = Deferred.find(Name);
  if (Later == Deferred.end())
    return nullptr;
  ClassFile Cf = std::move(Later->second);
  Deferred.erase(Later);
  return defineBuiltin(std::move(Cf));
}

Klass *ClassLoader::makeArrayClass(const std::string &Name) {
  // "The special array class that the JVM constructs according to the
  // array's component type" (§6.7). The element must be one well-formed
  // field descriptor, and a reference element's class must be loaded
  // first; primitive element arrays are always constructible.
  std::string Elem = Name.substr(1);
  if (!desc::isField(Elem))
    return nullptr;
  if (desc::isReference(Elem)) {
    if (!lookup(desc::toClassName(Elem)))
      return nullptr; // Element class not yet loaded.
  }
  auto K = std::make_unique<Klass>();
  K->Name = Name;
  K->Super = lookup("java/lang/Object");
  assert(K->Super && "array classes require java/lang/Object");
  K->IsArrayClass = true;
  K->ElemDesc = Elem;
  K->Init = Klass::InitState::Initialized;
  Klass *Raw = K.get();
  Classes.emplace(Name, std::move(K));
  return Raw;
}

/// Marks each method's Verified bit: a method earns check-elided
/// execution only when the class carried no class-level diagnostics and
/// none of the method's own. Unverified methods still run — guarded.
static void markVerified(Klass &K, const std::vector<VerifyError> &Errors) {
  bool ClassLevel = false;
  std::set<std::string> Flagged;
  for (const VerifyError &E : Errors) {
    if (E.Method.empty())
      ClassLevel = true;
    else
      Flagged.insert(E.Method);
  }
  for (std::unique_ptr<Method> &M : K.Methods)
    M->Verified =
        M->HasCode && !ClassLevel && Flagged.count(M->key()) == 0;
}

Klass *ClassLoader::link(ClassFile Cf,
                         const std::vector<VerifyError> *Known) {
  std::vector<VerifyError> Computed;
  if (!Known) {
    Computed = verifyClass(Cf);
    Known = &Computed;
  }
  Klass *Super = nullptr;
  if (!Cf.SuperClass.empty()) {
    Super = lookup(Cf.SuperClass);
    assert(Super && "superclass must be linked first");
  }
  std::vector<Klass *> Interfaces;
  for (const std::string &I : Cf.Interfaces) {
    Klass *Iface = lookup(I);
    assert(Iface && "interfaces must be linked first");
    Interfaces.push_back(Iface);
  }
  std::string Name = Cf.ThisClass;
  std::unique_ptr<Klass> K =
      linkClass(std::move(Cf), Super, std::move(Interfaces));
  markVerified(*K, *Known);
  analyzePlacement(*K);
  Klass *Raw = K.get();
  Classes.emplace(Name, std::move(K));
  return Raw;
}

void ClassLoader::analyzePlacement(Klass &K) {
  // Placement rides on the verifier's verdict: only bytecode the
  // dataflow pass proved gets a CFG/loop proof; everything else degrades
  // to checks-everywhere in Placed mode (DESIGN.md §17).
  for (std::unique_ptr<Method> &M : K.Methods) {
    if (!M->HasCode)
      continue;
    MethodAnalysis A =
        analyzeCode(M->Code.Bytecode, M->Code.Handlers, M->Verified);
    M->Placement = A.Status;
    ++AnalysisCounts[static_cast<size_t>(A.Status)];
    if (A.ok()) {
      M->SuspendBoundK = A.BoundK;
      M->SuspendKeep = std::move(A.KeepCheck);
      ProvenBoundMax = std::max(ProvenBoundMax, A.BoundK);
    }
  }
}

Klass *ClassLoader::defineBuiltin(ClassFile Cf,
                                  std::vector<NativeBinding> Natives) {
  assert(!Classes.count(Cf.ThisClass) && "built-in class defined twice");
  Klass *K = link(std::move(Cf));
  for (NativeBinding &N : Natives) {
    Method *M = K->findDeclaredMethod(N.Name, N.Descriptor);
    assert(M && M->isNative() && "native body for an undeclared method");
    M->Native = std::move(N.Fn);
  }
  return K;
}

ErrorOr<Klass *>
ClassLoader::defineFromBytes(const std::vector<uint8_t> &Bytes) {
  ErrorOr<ClassFile> Cf = readClassFile(Bytes);
  if (!Cf)
    return Cf.error();
  if (Classes.count(Cf->ThisClass))
    return ApiError(Errno::Exists, Cf->ThisClass);
  if (!Cf->SuperClass.empty() && !lookup(Cf->SuperClass))
    return ApiError(Errno::NoEnt, "superclass " + Cf->SuperClass);
  for (const std::string &I : Cf->Interfaces)
    if (!lookup(I))
      return ApiError(Errno::NoEnt, "interface " + I);
  return link(std::move(*Cf));
}

void ClassLoader::fetchFromClasspath(
    std::shared_ptr<std::string> Name, size_t Index,
    std::function<void(ErrorOr<std::vector<uint8_t>>)> Done) {
  if (Index >= Classpath.size()) {
    Done(ApiError(Errno::NoEnt, *Name + ".class"));
    return;
  }
  std::string Path = Classpath[Index] + "/" + *Name + ".class";
  // Each class file arrives through the Doppio file system — with an XHR
  // mount this is the lazy on-demand download of §6.4.
  Vm.fs().readFile(Path, [this, Name, Index,
                          Done](ErrorOr<std::vector<uint8_t>> R) {
    if (R) {
      ++FileLoads;
      Done(std::move(R));
      return;
    }
    fetchFromClasspath(Name, Index + 1, Done);
  });
}

void ClassLoader::loadAsync(const std::string &Name,
                            std::function<void(ErrorOr<Klass *>)> Done) {
  if (Klass *K = lookup(Name)) {
    Done(K);
    return;
  }
  if (!Name.empty() && Name[0] == '[') {
    // Array class: load the element class, then synthesize.
    std::string Elem = Name.substr(1);
    if (!desc::isReference(Elem)) {
      Done(ApiError(Errno::Invalid, "bad array class " + Name));
      return;
    }
    loadAsync(desc::toClassName(Elem),
              [this, Name, Done](ErrorOr<Klass *> R) {
                if (!R) {
                  Done(R.error());
                  return;
                }
                Done(makeArrayClass(Name));
              });
    return;
  }

  // Coalesce concurrent requests for the same class.
  auto [It, IsFirst] = Pending.try_emplace(Name);
  (void)IsFirst;
  It->second.push_back(std::move(Done));
  if (It->second.size() > 1)
    return; // A load is already in flight.

  auto Complete = [this, Name](ErrorOr<Klass *> R) {
    auto PendingIt = Pending.find(Name);
    if (PendingIt == Pending.end())
      return;
    std::vector<std::function<void(ErrorOr<Klass *>)>> Waiters =
        std::move(PendingIt->second);
    Pending.erase(PendingIt);
    for (auto &W : Waiters)
      W(R);
  };

  auto NamePtr = std::make_shared<std::string>(Name);
  fetchFromClasspath(
      NamePtr, 0,
      [this, Name, Complete](ErrorOr<std::vector<uint8_t>> Bytes) {
        if (!Bytes) {
          Complete(Bytes.error());
          return;
        }
        ErrorOr<ClassFile> Cf = readClassFile(*Bytes);
        if (!Cf) {
          Complete(Cf.error());
          return;
        }
        if (Cf->ThisClass != Name) {
          Complete(ApiError(Errno::Invalid,
                            "class file declares " + Cf->ThisClass));
          return;
        }
        // Structural + dataflow verification before linking. Monitor-only
        // diagnostics demote the method to guarded execution rather than
        // rejecting the class (verifier.h).
        auto Violations = std::make_shared<std::vector<VerifyError>>(
            verifyClass(*Cf));
        if (rejectsClass(*Violations)) {
          for (const VerifyError &E : *Violations)
            if (!E.MonitorOnly) {
              Complete(ApiError(Errno::Invalid,
                                "verification failed: " + E.str()));
              return;
            }
        }
        // Load the superclass chain and interfaces, then link. The
        // dependency list is loaded sequentially; cycles among
        // superclasses are rejected by the depth guard in Pending.
        auto Deps = std::make_shared<std::vector<std::string>>();
        if (!Cf->SuperClass.empty())
          Deps->push_back(Cf->SuperClass);
        for (const std::string &I : Cf->Interfaces)
          Deps->push_back(I);
        auto CfShared = std::make_shared<ClassFile>(std::move(*Cf));
        // Self-referencing recursion via shared_ptr so the continuation
        // outlives this scope.
        auto LoadNext =
            std::make_shared<std::function<void(size_t)>>();
        *LoadNext = [this, Deps, CfShared, Violations, Complete,
                     LoadNext](size_t I) {
          if (I == Deps->size()) {
            Complete(link(std::move(*CfShared), Violations.get()));
            return;
          }
          loadAsync((*Deps)[I],
                    [Complete, LoadNext, I](ErrorOr<Klass *> R) {
                      if (!R) {
                        Complete(R.error());
                        return;
                      }
                      (*LoadNext)(I + 1);
                    });
        };
        (*LoadNext)(0);
      });
}
