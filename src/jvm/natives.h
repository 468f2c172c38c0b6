//===- jvm/natives.h - Native method interface (§6.3) -------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The Java Class Library exposes JVM interfaces to a wide variety of
/// native functionality ... DoppioJVM implements a wide variety of these
/// native methods directly in JavaScript" (§6.3). Here, native methods are
/// host functions receiving a NativeContext. The class library (jcl.cpp)
/// declares each native next to its body, and the class loader binds the
/// body to its Method when it defines the owning class. When a native
/// needs an asynchronous browser API it calls blockWithResult: the calling
/// green thread blocks (only that thread — the event loop stays free), and
/// the asynchronous completion delivers the return value, so the method
/// "retains its JVM-level synchronous semantics".
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_NATIVES_H
#define DOPPIO_JVM_NATIVES_H

#include "doppio/errors.h"
#include "jvm/value.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

class Jvm;
class JvmThread;
struct Method;

/// Delivered by an asynchronous native's completion: the method's return
/// value, or an error the interpreter rethrows as java.io.IOException.
using NativeCompletion = std::function<void(rt::ErrorOr<Value>)>;

/// Execution context handed to a native method body.
struct NativeContext {
  Jvm &Vm;
  JvmThread &Thread;
  Method &M;
  /// Arguments; the receiver (for instance methods) is Args[0].
  std::vector<Value> Args;

  // Outcome (at most one of these):
  Value Ret;
  bool HasRet = false;
  /// Async block: the completion passed to blockWithResult will deliver
  /// the result and resume the thread.
  bool Blocked = false;
  /// Monitor-style block (Object.wait): nothing auto-resumes; a notify or
  /// timeout does.
  bool BlockedOnMonitor = false;
  /// Pending JVM exception (class internal name + message).
  std::optional<std::pair<std::string, std::string>> Thrown;

  NativeContext(Jvm &Vm, JvmThread &Thread, Method &M)
      : Vm(Vm), Thread(Thread), M(M) {}

  void setReturn(Value V) {
    Ret = V;
    HasRet = true;
  }

  void throwEx(std::string ClassName, std::string Message) {
    Thrown = {std::move(ClassName), std::move(Message)};
  }

  /// Performs the §4.2 dance: marks this call blocked, and hands \p Start
  /// a completion. \p Start initiates the asynchronous browser operation
  /// and arranges for the completion to run from its callback. Defined in
  /// interpreter.cpp (needs Jvm internals).
  void blockWithResult(
      std::function<void(NativeCompletion Complete)> Start);
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_NATIVES_H
