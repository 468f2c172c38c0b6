//===- jvm/jcl.cpp - The built-in Java class library (§6.3) ---------------==//
//
// The minimal class library DoppioJVM programs run against. The paper uses
// the OpenJDK class library, whose class files cannot be redistributed
// here; this synthesized library (assembled with ClassBuilder, natives
// implemented against the Doppio services exactly as §6.3 prescribes)
// preserves the architecture: file I/O natives call the Doppio file system
// through the §4.2 blocking bridge, sun.misc.Unsafe uses the Doppio heap
// (§6.5), sockets use Doppio sockets (§5.3), threads map to the Doppio
// thread pool (§6.2), and doppio/JS.eval is the §6.8 interop hook.
//
//===----------------------------------------------------------------------===//

#include "jvm/interpreter.h"
#include "jvm/jvm.h"

#include "doppio/sockets.h"

#include <cmath>
#include <memory>

using namespace doppio;
using namespace doppio::jvm;
using rt::ApiError;
using rt::Errno;
using rt::ErrorOr;

namespace {

/// Long argument as a host int64 (both modes store the same bit pattern).
int64_t longArg(const Value &V) { return V.J; }

std::string strArg(Jvm &Vm, const Value &V) {
  return Vm.stringValue(V.R);
}

/// Builds a [B array object from raw bytes.
ArrayObject *bytesToArray(Jvm &Vm, const std::vector<uint8_t> &Bytes) {
  ArrayObject *A =
      Vm.allocArrayOf("B", static_cast<int32_t>(Bytes.size()));
  for (size_t I = 0; I != Bytes.size(); ++I)
    A->set(static_cast<int32_t>(I),
           Value::intVal(static_cast<int8_t>(Bytes[I])));
  return A;
}

std::vector<uint8_t> arrayToBytes(ArrayObject *A) {
  std::vector<uint8_t> Out(A->length());
  for (int32_t I = 0; I != A->length(); ++I)
    Out[I] = static_cast<uint8_t>(A->get(I).I);
  return Out;
}

//===----------------------------------------------------------------------===//
// Class definitions
//===----------------------------------------------------------------------===//

void defineObjectAndCore(Jvm &Vm) {
  {
    ClassBuilder B("java/lang/Object", "");
    B.method(AccPublic, "<init>", "()V").op(Op::Return);
    B.nativeMethod(AccPublic, "hashCode", "()I");
    B.nativeMethod(AccPublic, "equals", "(Ljava/lang/Object;)Z");
    B.nativeMethod(AccPublic, "getClass", "()Ljava/lang/Class;");
    B.nativeMethod(AccPublic, "toString", "()Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccFinal, "wait", "()V");
    B.nativeMethod(AccPublic | AccFinal, "wait", "(J)V");
    B.nativeMethod(AccPublic | AccFinal, "notify", "()V");
    B.nativeMethod(AccPublic | AccFinal, "notifyAll", "()V");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/Class");
    B.addDefaultConstructor();
    B.nativeMethod(AccPublic, "getName", "()Ljava/lang/String;");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/String");
    B.addField(AccPrivate | AccFinal, "value", "[C");
    B.addDefaultConstructor();
    B.nativeMethod(AccPublic, "length", "()I");
    B.nativeMethod(AccPublic, "charAt", "(I)C");
    B.nativeMethod(AccPublic, "equals", "(Ljava/lang/Object;)Z");
    B.nativeMethod(AccPublic, "hashCode", "()I");
    B.nativeMethod(AccPublic, "toString", "()Ljava/lang/String;");
    B.nativeMethod(AccPublic, "concat",
                   "(Ljava/lang/String;)Ljava/lang/String;");
    B.nativeMethod(AccPublic, "substring", "(II)Ljava/lang/String;");
    B.nativeMethod(AccPublic, "substring", "(I)Ljava/lang/String;");
    B.nativeMethod(AccPublic, "indexOf", "(I)I");
    B.nativeMethod(AccPublic, "indexOf", "(Ljava/lang/String;)I");
    B.nativeMethod(AccPublic, "startsWith", "(Ljava/lang/String;)Z");
    B.nativeMethod(AccPublic, "endsWith", "(Ljava/lang/String;)Z");
    B.nativeMethod(AccPublic, "compareTo", "(Ljava/lang/String;)I");
    B.nativeMethod(AccPublic, "toCharArray", "()[C");
    B.nativeMethod(AccPublic, "intern", "()Ljava/lang/String;");
    B.nativeMethod(AccPublic, "trim", "()Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "(I)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "(J)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "(D)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "(C)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "(Z)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "valueOf",
                   "([C)Ljava/lang/String;");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/StringBuilder");
    B.addField(AccPrivate, "str", "Ljava/lang/String;");
    MethodBuilder &Init = B.method(AccPublic, "<init>", "()V");
    Init.aload(0)
        .invokespecial("java/lang/Object", "<init>", "()V")
        .aload(0)
        .ldcString("")
        .putfield("java/lang/StringBuilder", "str", "Ljava/lang/String;")
        .op(Op::Return);
    const char *SB = "Ljava/lang/StringBuilder;";
    B.nativeMethod(AccPublic, "append",
                   ("(Ljava/lang/String;)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append",
                   ("(Ljava/lang/Object;)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append", ("(I)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append", ("(J)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append", ("(C)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append", ("(D)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "append", ("(Z)" + std::string(SB)).c_str());
    B.nativeMethod(AccPublic, "toString", "()Ljava/lang/String;");
    B.nativeMethod(AccPublic, "length", "()I");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/Runnable");
    B.setAccess(AccPublic | AccInterface | AccAbstract);
    B.abstractMethod(AccPublic, "run", "()V");
    Vm.loader().defineBuiltin(B.build());
  }
}

void defineThrowables(Jvm &Vm) {
  {
    ClassBuilder B("java/lang/Throwable");
    B.addField(AccPrivate, "detailMessage", "Ljava/lang/String;");
    B.addDefaultConstructor();
    MethodBuilder &Init =
        B.method(AccPublic, "<init>", "(Ljava/lang/String;)V");
    Init.aload(0)
        .invokespecial("java/lang/Object", "<init>", "()V")
        .aload(0)
        .aload(1)
        .putfield("java/lang/Throwable", "detailMessage",
                  "Ljava/lang/String;")
        .op(Op::Return);
    MethodBuilder &GetMsg =
        B.method(AccPublic, "getMessage", "()Ljava/lang/String;");
    GetMsg.aload(0)
        .getfield("java/lang/Throwable", "detailMessage",
                  "Ljava/lang/String;")
        .op(Op::Areturn);
    Vm.loader().defineBuiltin(B.build());
  }
  auto DefEx = [&Vm](const char *Name, const char *Super) {
    ClassBuilder B(Name, Super);
    B.addDefaultConstructor();
    MethodBuilder &Init =
        B.method(AccPublic, "<init>", "(Ljava/lang/String;)V");
    Init.aload(0)
        .aload(1)
        .invokespecial(Super, "<init>", "(Ljava/lang/String;)V")
        .op(Op::Return);
    Vm.loader().defineBuiltin(B.build());
  };
  DefEx("java/lang/Error", "java/lang/Throwable");
  DefEx("java/lang/Exception", "java/lang/Throwable");
  DefEx("java/lang/RuntimeException", "java/lang/Exception");
  DefEx("java/lang/ArithmeticException", "java/lang/RuntimeException");
  DefEx("java/lang/NullPointerException", "java/lang/RuntimeException");
  DefEx("java/lang/IndexOutOfBoundsException",
        "java/lang/RuntimeException");
  DefEx("java/lang/ArrayIndexOutOfBoundsException",
        "java/lang/IndexOutOfBoundsException");
  DefEx("java/lang/StringIndexOutOfBoundsException",
        "java/lang/IndexOutOfBoundsException");
  DefEx("java/lang/NegativeArraySizeException",
        "java/lang/RuntimeException");
  DefEx("java/lang/ClassCastException", "java/lang/RuntimeException");
  DefEx("java/lang/ArrayStoreException", "java/lang/RuntimeException");
  DefEx("java/lang/IllegalMonitorStateException",
        "java/lang/RuntimeException");
  DefEx("java/lang/IllegalArgumentException",
        "java/lang/RuntimeException");
  DefEx("java/lang/NumberFormatException",
        "java/lang/IllegalArgumentException");
  DefEx("java/lang/IllegalStateException", "java/lang/RuntimeException");
  DefEx("java/lang/IllegalThreadStateException",
        "java/lang/IllegalStateException");
  DefEx("java/lang/UnsupportedOperationException",
        "java/lang/RuntimeException");
  DefEx("java/lang/InterruptedException", "java/lang/Exception");
  DefEx("java/lang/ClassNotFoundException", "java/lang/Exception");
  DefEx("java/lang/LinkageError", "java/lang/Error");
  DefEx("java/lang/NoClassDefFoundError", "java/lang/LinkageError");
  DefEx("java/lang/NoSuchMethodError", "java/lang/LinkageError");
  DefEx("java/lang/NoSuchFieldError", "java/lang/LinkageError");
  DefEx("java/lang/AbstractMethodError", "java/lang/LinkageError");
  DefEx("java/lang/UnsatisfiedLinkError", "java/lang/LinkageError");
  DefEx("java/lang/InstantiationError", "java/lang/LinkageError");
  DefEx("java/lang/ClassFormatError", "java/lang/LinkageError");
  DefEx("java/lang/VerifyError", "java/lang/LinkageError");
  DefEx("java/lang/StackOverflowError", "java/lang/Error");
  DefEx("java/lang/OutOfMemoryError", "java/lang/Error");
  DefEx("java/io/IOException", "java/lang/Exception");
  DefEx("java/io/FileNotFoundException", "java/io/IOException");
}

void defineSystemIo(Jvm &Vm) {
  {
    ClassBuilder B("java/io/PrintStream");
    B.addField(AccPrivate, "isErr", "I");
    B.addDefaultConstructor();
    B.nativeMethod(AccPublic, "println", "(Ljava/lang/String;)V");
    B.nativeMethod(AccPublic, "println", "(I)V");
    B.nativeMethod(AccPublic, "println", "(J)V");
    B.nativeMethod(AccPublic, "println", "(D)V");
    B.nativeMethod(AccPublic, "println", "(C)V");
    B.nativeMethod(AccPublic, "println", "(Z)V");
    B.nativeMethod(AccPublic, "println", "(Ljava/lang/Object;)V");
    B.nativeMethod(AccPublic, "println", "()V");
    B.nativeMethod(AccPublic, "print", "(Ljava/lang/String;)V");
    B.nativeMethod(AccPublic, "print", "(I)V");
    B.nativeMethod(AccPublic, "print", "(C)V");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/System");
    B.addField(AccPublic | AccStatic | AccFinal, "out",
               "Ljava/io/PrintStream;");
    B.addField(AccPublic | AccStatic | AccFinal, "err",
               "Ljava/io/PrintStream;");
    B.nativeMethod(AccPublic | AccStatic, "currentTimeMillis", "()J");
    B.nativeMethod(AccPublic | AccStatic, "nanoTime", "()J");
    B.nativeMethod(
        AccPublic | AccStatic, "arraycopy",
        "(Ljava/lang/Object;ILjava/lang/Object;II)V");
    B.nativeMethod(AccPublic | AccStatic, "exit", "(I)V");
    B.nativeMethod(AccPublic | AccStatic, "identityHashCode",
                   "(Ljava/lang/Object;)I");
    Klass *K = Vm.loader().defineBuiltin(B.build());
    // Wire up stdout/stderr immediately (no <clinit> needed).
    Klass *Ps = Vm.loader().lookup("java/io/PrintStream");
    Object *Out = Vm.allocObject(Ps);
    Object *Err = Vm.allocObject(Ps);
    Err->setField("isErr", Value::intVal(1));
    Out->setField("isErr", Value::intVal(0));
    K->Statics["out"] = Value::ref(Out);
    K->Statics["err"] = Value::ref(Err);
    K->Init = Klass::InitState::Initialized;
  }
  {
    // The Doppio file API (stands in for java.io streams; DESIGN.md).
    // Every native blocks through the §4.2 bridge onto the Doppio fs.
    ClassBuilder B("doppio/io/Files");
    B.nativeMethod(AccPublic | AccStatic, "readAllBytes",
                   "(Ljava/lang/String;)[B");
    B.nativeMethod(AccPublic | AccStatic, "readString",
                   "(Ljava/lang/String;)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "write",
                   "(Ljava/lang/String;[B)V");
    B.nativeMethod(AccPublic | AccStatic, "writeString",
                   "(Ljava/lang/String;Ljava/lang/String;)V");
    B.nativeMethod(AccPublic | AccStatic, "exists",
                   "(Ljava/lang/String;)Z");
    B.nativeMethod(AccPublic | AccStatic, "list",
                   "(Ljava/lang/String;)[Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "delete",
                   "(Ljava/lang/String;)V");
    B.nativeMethod(AccPublic | AccStatic, "mkdirs",
                   "(Ljava/lang/String;)V");
    B.nativeMethod(AccPublic | AccStatic, "size", "(Ljava/lang/String;)I");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    // Synchronous console input over asynchronous keyboard events: the
    // paper's §3.2 motivating example, made possible by §4.2.
    ClassBuilder B("doppio/Stdin");
    B.nativeMethod(AccPublic | AccStatic, "readLine",
                   "()Ljava/lang/String;");
    Vm.loader().defineBuiltin(B.build());
  }
}

void defineNumericsAndMath(Jvm &Vm) {
  {
    ClassBuilder B("java/lang/Math");
    B.nativeMethod(AccPublic | AccStatic, "sqrt", "(D)D");
    B.nativeMethod(AccPublic | AccStatic, "pow", "(DD)D");
    B.nativeMethod(AccPublic | AccStatic, "floor", "(D)D");
    B.nativeMethod(AccPublic | AccStatic, "ceil", "(D)D");
    B.nativeMethod(AccPublic | AccStatic, "abs", "(I)I");
    B.nativeMethod(AccPublic | AccStatic, "abs", "(J)J");
    B.nativeMethod(AccPublic | AccStatic, "abs", "(D)D");
    B.nativeMethod(AccPublic | AccStatic, "max", "(II)I");
    B.nativeMethod(AccPublic | AccStatic, "min", "(II)I");
    B.nativeMethod(AccPublic | AccStatic, "sin", "(D)D");
    B.nativeMethod(AccPublic | AccStatic, "cos", "(D)D");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/Integer");
    B.addField(AccPublic | AccStatic | AccFinal, "MAX_VALUE", "I");
    B.addField(AccPublic | AccStatic | AccFinal, "MIN_VALUE", "I");
    B.nativeMethod(AccPublic | AccStatic, "toString",
                   "(I)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "toHexString",
                   "(I)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "parseInt",
                   "(Ljava/lang/String;)I");
    Klass *K = Vm.loader().defineBuiltin(B.build());
    K->Statics["MAX_VALUE"] = Value::intVal(INT32_MAX);
    K->Statics["MIN_VALUE"] = Value::intVal(INT32_MIN);
    K->Init = Klass::InitState::Initialized;
  }
  {
    ClassBuilder B("java/lang/Long");
    B.nativeMethod(AccPublic | AccStatic, "toString",
                   "(J)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "parseLong",
                   "(Ljava/lang/String;)J");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/Double");
    B.nativeMethod(AccPublic | AccStatic, "toString",
                   "(D)Ljava/lang/String;");
    B.nativeMethod(AccPublic | AccStatic, "parseDouble",
                   "(Ljava/lang/String;)D");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    ClassBuilder B("java/lang/Character");
    B.nativeMethod(AccPublic | AccStatic, "isDigit", "(C)Z");
    B.nativeMethod(AccPublic | AccStatic, "isLetter", "(C)Z");
    B.nativeMethod(AccPublic | AccStatic, "isWhitespace", "(C)Z");
    Vm.loader().defineBuiltin(B.build());
  }
}

void defineThreading(Jvm &Vm) {
  ClassBuilder B("java/lang/Thread");
  B.addField(AccPrivate, "target", "Ljava/lang/Runnable;");
  B.addField(AccPrivate, "started", "I");
  B.addDefaultConstructor();
  MethodBuilder &Init =
      B.method(AccPublic, "<init>", "(Ljava/lang/Runnable;)V");
  Init.aload(0)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .aload(0)
      .aload(1)
      .putfield("java/lang/Thread", "target", "Ljava/lang/Runnable;")
      .op(Op::Return);
  // run(): if (target != null) target.run();
  MethodBuilder &Run = B.method(AccPublic, "run", "()V");
  MethodBuilder::Label Skip = Run.newLabel();
  Run.aload(0)
      .getfield("java/lang/Thread", "target", "Ljava/lang/Runnable;")
      .branch(Op::Ifnull, Skip)
      .aload(0)
      .getfield("java/lang/Thread", "target", "Ljava/lang/Runnable;")
      .invokeinterface("java/lang/Runnable", "run", "()V")
      .bind(Skip)
      .op(Op::Return);
  B.nativeMethod(AccPublic, "start", "()V");
  B.nativeMethod(AccPublic, "join", "()V");
  B.nativeMethod(AccPublic, "isAlive", "()Z");
  B.nativeMethod(AccPublic | AccStatic, "sleep", "(J)V");
  B.nativeMethod(AccPublic | AccStatic, "yield", "()V");
  B.nativeMethod(AccPublic | AccStatic, "currentThread",
                 "()Ljava/lang/Thread;");
  Vm.loader().defineBuiltin(B.build());
}

void defineUnsafeAndInterop(Jvm &Vm) {
  {
    // §6.5: sun.misc.Unsafe over the Doppio unmanaged heap.
    ClassBuilder B("sun/misc/Unsafe");
    B.addField(AccPublic | AccStatic | AccFinal, "theUnsafe",
               "Lsun/misc/Unsafe;");
    B.addDefaultConstructor();
    B.nativeMethod(AccPublic, "allocateMemory", "(J)J");
    B.nativeMethod(AccPublic, "freeMemory", "(J)V");
    B.nativeMethod(AccPublic, "putByte", "(JB)V");
    B.nativeMethod(AccPublic, "getByte", "(J)B");
    B.nativeMethod(AccPublic, "putInt", "(JI)V");
    B.nativeMethod(AccPublic, "getInt", "(J)I");
    B.nativeMethod(AccPublic, "putLong", "(JJ)V");
    B.nativeMethod(AccPublic, "getLong", "(J)J");
    B.nativeMethod(AccPublic, "putDouble", "(JD)V");
    B.nativeMethod(AccPublic, "getDouble", "(J)D");
    B.nativeMethod(AccPublic, "addressSize", "()I");
    B.nativeMethod(AccPublic, "pageSize", "()I");
    Klass *K = Vm.loader().defineBuiltin(B.build());
    K->Statics["theUnsafe"] = Value::ref(Vm.allocObject(K));
    K->Init = Klass::InitState::Initialized;
  }
  {
    // §6.8: JVM -> JavaScript interop.
    ClassBuilder B("doppio/JS");
    B.nativeMethod(AccPublic | AccStatic, "eval",
                   "(Ljava/lang/String;)Ljava/lang/String;");
    Vm.loader().defineBuiltin(B.build());
  }
  {
    // §5.3: Unix-style sockets over WebSockets.
    ClassBuilder B("doppio/net/Socket");
    B.nativeMethod(AccPublic | AccStatic, "connect", "(I)I");
    B.nativeMethod(AccPublic | AccStatic, "send", "(I[B)V");
    B.nativeMethod(AccPublic | AccStatic, "recv", "(I)[B");
    B.nativeMethod(AccPublic | AccStatic, "close", "(I)V");
    Vm.loader().defineBuiltin(B.build());
  }
}

//===----------------------------------------------------------------------===//
// Native implementations
//===----------------------------------------------------------------------===//

void registerObjectNatives(Jvm &Vm) {
  Vm.registerNative("java/lang/Object", "hashCode", "()I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(
                          Ctx.Vm.identityHash(Ctx.Args[0].R)));
                    });
  Vm.registerNative("java/lang/Object", "equals",
                    "(Ljava/lang/Object;)Z", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(
                          Ctx.Args[0].R == Ctx.Args[1].R ? 1 : 0));
                    });
  Vm.registerNative("java/lang/Object", "getClass",
                    "()Ljava/lang/Class;", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::ref(
                          Ctx.Vm.mirrorOf(Ctx.Args[0].R->klass())));
                    });
  Vm.registerNative(
      "java/lang/Object", "toString", "()Ljava/lang/String;",
      [](NativeContext &Ctx) {
        Object *O = Ctx.Args[0].R;
        char Buf[16];
        snprintf(Buf, sizeof(Buf), "@%x", Ctx.Vm.identityHash(O));
        Ctx.setReturn(
            Value::ref(Ctx.Vm.newString(O->klass()->Name + Buf)));
      });
  Vm.registerNative("java/lang/Class", "getName",
                    "()Ljava/lang/String;", [](NativeContext &Ctx) {
                      Klass *K = Ctx.Vm.mirroredClass(Ctx.Args[0].R);
                      std::string Name = K ? K->Name : "?";
                      for (char &C : Name)
                        if (C == '/')
                          C = '.';
                      Ctx.setReturn(Value::ref(Ctx.Vm.newString(Name)));
                    });

  // Object.wait / notify (§6.2). The wait set and reacquisition protocol
  // live on the object's monitor.
  auto WaitImpl = [](NativeContext &Ctx, int64_t TimeoutMs) {
    Object *O = Ctx.Args[0].R;
    Monitor &M = O->monitor();
    int32_t Tid = Ctx.Thread.tid();
    if (M.OwnerTid != Tid) {
      Ctx.throwEx("java/lang/IllegalMonitorStateException", "wait");
      return;
    }
    int32_t Saved = M.EntryCount;
    M.OwnerTid = -1;
    M.EntryCount = 0;
    // Releasing wakes the entry set.
    for (int32_t T : M.EntrySet)
      if (Ctx.Vm.pool().state(T) == rt::ThreadState::Blocked)
        Ctx.Vm.pool().unblock(T);
    M.WaitSet.push_back(Tid);
    Ctx.Thread.PendingReacquire = {O, Saved};
    uint64_t Generation = ++Ctx.Thread.WaitGeneration;
    Ctx.BlockedOnMonitor = true;
    if (TimeoutMs > 0) {
      Jvm &TheVm = Ctx.Vm;
      // Object.wait(timeout) is a JVM-visible timer, not an I/O
      // completion: Timer lane. The wake-up is never cancelled — a notify
      // is handled by the generation check, and cancelling would change
      // when the virtual clock goes idle — so the handle is dropped
      // (dropping does not cancel).
      Ctx.Vm.env().loop().postAfter(
          kernel::Lane::Timer,
          [&TheVm, O, Tid, Generation] {
            JvmThread *T = TheVm.threadForTid(Tid);
            if (!T || T->WaitGeneration != Generation)
              return; // Already notified (or waited again).
            Monitor &M2 = O->monitor();
            auto It = std::find(M2.WaitSet.begin(), M2.WaitSet.end(), Tid);
            if (It == M2.WaitSet.end())
              return;
            M2.WaitSet.erase(It);
            if (TheVm.pool().state(Tid) == rt::ThreadState::Blocked)
              TheVm.pool().unblock(Tid);
          },
          browser::msToNs(static_cast<uint64_t>(TimeoutMs)));
    }
  };
  Vm.registerNative("java/lang/Object", "wait", "()V",
                    [WaitImpl](NativeContext &Ctx) { WaitImpl(Ctx, 0); });
  Vm.registerNative("java/lang/Object", "wait", "(J)V",
                    [WaitImpl](NativeContext &Ctx) {
                      WaitImpl(Ctx, longArg(Ctx.Args[1]));
                    });
  auto NotifyImpl = [](NativeContext &Ctx, bool All) {
    Object *O = Ctx.Args[0].R;
    Monitor &M = O->monitor();
    if (M.OwnerTid != Ctx.Thread.tid()) {
      Ctx.throwEx("java/lang/IllegalMonitorStateException", "notify");
      return;
    }
    while (!M.WaitSet.empty()) {
      int32_t T = M.WaitSet.front();
      M.WaitSet.erase(M.WaitSet.begin());
      if (Ctx.Vm.pool().state(T) == rt::ThreadState::Blocked)
        Ctx.Vm.pool().unblock(T);
      if (!All)
        break;
    }
  };
  Vm.registerNative("java/lang/Object", "notify", "()V",
                    [NotifyImpl](NativeContext &Ctx) {
                      NotifyImpl(Ctx, false);
                    });
  Vm.registerNative("java/lang/Object", "notifyAll", "()V",
                    [NotifyImpl](NativeContext &Ctx) {
                      NotifyImpl(Ctx, true);
                    });
}

void registerStringNatives(Jvm &Vm) {
  auto Chars = [](NativeContext &Ctx, Object *S) {
    return Ctx.Vm.stringValue(S);
  };
  Vm.registerNative("java/lang/String", "length", "()I",
                    [Chars](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(static_cast<int32_t>(
                          Chars(Ctx, Ctx.Args[0].R).size())));
                    });
  Vm.registerNative(
      "java/lang/String", "charAt", "(I)C", [Chars](NativeContext &Ctx) {
        std::string S = Chars(Ctx, Ctx.Args[0].R);
        int32_t I = Ctx.Args[1].I;
        if (I < 0 || static_cast<size_t>(I) >= S.size()) {
          Ctx.throwEx("java/lang/StringIndexOutOfBoundsException",
                      std::to_string(I));
          return;
        }
        Ctx.setReturn(Value::intVal(static_cast<uint8_t>(S[I])));
      });
  Vm.registerNative(
      "java/lang/String", "equals", "(Ljava/lang/Object;)Z",
      [Chars](NativeContext &Ctx) {
        Object *Other = Ctx.Args[1].R;
        if (!Other || Other->klass() != Ctx.Args[0].R->klass()) {
          Ctx.setReturn(Value::intVal(0));
          return;
        }
        Ctx.setReturn(Value::intVal(
            Chars(Ctx, Ctx.Args[0].R) == Chars(Ctx, Other) ? 1 : 0));
      });
  Vm.registerNative("java/lang/String", "hashCode", "()I",
                    [Chars](NativeContext &Ctx) {
                      std::string S = Chars(Ctx, Ctx.Args[0].R);
                      int32_t H = 0;
                      for (char C : S)
                        H = static_cast<int32_t>(
                            31 * static_cast<int64_t>(H) +
                            static_cast<uint8_t>(C));
                      Ctx.setReturn(Value::intVal(H));
                    });
  Vm.registerNative("java/lang/String", "toString",
                    "()Ljava/lang/String;", [](NativeContext &Ctx) {
                      Ctx.setReturn(Ctx.Args[0]);
                    });
  Vm.registerNative(
      "java/lang/String", "concat",
      "(Ljava/lang/String;)Ljava/lang/String;",
      [Chars](NativeContext &Ctx) {
        Ctx.setReturn(Value::ref(Ctx.Vm.newString(
            Chars(Ctx, Ctx.Args[0].R) + Chars(Ctx, Ctx.Args[1].R))));
      });
  auto Substring = [Chars](NativeContext &Ctx, int32_t From, int32_t To) {
    std::string S = Chars(Ctx, Ctx.Args[0].R);
    if (From < 0 || To > static_cast<int32_t>(S.size()) || From > To) {
      Ctx.throwEx("java/lang/StringIndexOutOfBoundsException",
                  std::to_string(From) + ".." + std::to_string(To));
      return;
    }
    Ctx.setReturn(Value::ref(Ctx.Vm.newString(S.substr(From, To - From))));
  };
  Vm.registerNative("java/lang/String", "substring",
                    "(II)Ljava/lang/String;",
                    [Substring](NativeContext &Ctx) {
                      Substring(Ctx, Ctx.Args[1].I, Ctx.Args[2].I);
                    });
  Vm.registerNative("java/lang/String", "substring",
                    "(I)Ljava/lang/String;",
                    [Substring, Chars](NativeContext &Ctx) {
                      Substring(Ctx, Ctx.Args[1].I,
                                static_cast<int32_t>(
                                    Chars(Ctx, Ctx.Args[0].R).size()));
                    });
  Vm.registerNative("java/lang/String", "indexOf", "(I)I",
                    [Chars](NativeContext &Ctx) {
                      std::string S = Chars(Ctx, Ctx.Args[0].R);
                      size_t At = S.find(
                          static_cast<char>(Ctx.Args[1].I & 0xFF));
                      Ctx.setReturn(Value::intVal(
                          At == std::string::npos
                              ? -1
                              : static_cast<int32_t>(At)));
                    });
  Vm.registerNative("java/lang/String", "indexOf",
                    "(Ljava/lang/String;)I", [Chars](NativeContext &Ctx) {
                      std::string S = Chars(Ctx, Ctx.Args[0].R);
                      size_t At = S.find(Chars(Ctx, Ctx.Args[1].R));
                      Ctx.setReturn(Value::intVal(
                          At == std::string::npos
                              ? -1
                              : static_cast<int32_t>(At)));
                    });
  Vm.registerNative("java/lang/String", "startsWith",
                    "(Ljava/lang/String;)Z", [Chars](NativeContext &Ctx) {
                      std::string S = Chars(Ctx, Ctx.Args[0].R);
                      std::string P = Chars(Ctx, Ctx.Args[1].R);
                      Ctx.setReturn(Value::intVal(
                          S.compare(0, P.size(), P) == 0 ? 1 : 0));
                    });
  Vm.registerNative(
      "java/lang/String", "endsWith", "(Ljava/lang/String;)Z",
      [Chars](NativeContext &Ctx) {
        std::string S = Chars(Ctx, Ctx.Args[0].R);
        std::string P = Chars(Ctx, Ctx.Args[1].R);
        bool Ok = S.size() >= P.size() &&
                  S.compare(S.size() - P.size(), P.size(), P) == 0;
        Ctx.setReturn(Value::intVal(Ok ? 1 : 0));
      });
  Vm.registerNative("java/lang/String", "compareTo",
                    "(Ljava/lang/String;)I", [Chars](NativeContext &Ctx) {
                      int R = Chars(Ctx, Ctx.Args[0].R)
                                  .compare(Chars(Ctx, Ctx.Args[1].R));
                      Ctx.setReturn(
                          Value::intVal(R < 0 ? -1 : (R > 0 ? 1 : 0)));
                    });
  Vm.registerNative("java/lang/String", "toCharArray", "()[C",
                    [Chars](NativeContext &Ctx) {
                      std::string S = Chars(Ctx, Ctx.Args[0].R);
                      ArrayObject *A = Ctx.Vm.allocArrayOf(
                          "C", static_cast<int32_t>(S.size()));
                      for (size_t I = 0; I != S.size(); ++I)
                        A->set(static_cast<int32_t>(I),
                               Value::intVal(static_cast<uint8_t>(S[I])));
                      Ctx.setReturn(Value::ref(A));
                    });
  Vm.registerNative("java/lang/String", "intern",
                    "()Ljava/lang/String;", [Chars](NativeContext &Ctx) {
                      Ctx.setReturn(Value::ref(Ctx.Vm.internString(
                          Chars(Ctx, Ctx.Args[0].R))));
                    });
  Vm.registerNative(
      "java/lang/String", "trim", "()Ljava/lang/String;",
      [Chars](NativeContext &Ctx) {
        std::string S = Chars(Ctx, Ctx.Args[0].R);
        size_t B = S.find_first_not_of(" \t\r\n");
        size_t E = S.find_last_not_of(" \t\r\n");
        Ctx.setReturn(Value::ref(Ctx.Vm.newString(
            B == std::string::npos ? "" : S.substr(B, E - B + 1))));
      });

  auto RetStr = [](NativeContext &Ctx, const std::string &S) {
    Ctx.setReturn(Value::ref(Ctx.Vm.newString(S)));
  };
  Vm.registerNative("java/lang/String", "valueOf",
                    "(I)Ljava/lang/String;", [RetStr](NativeContext &Ctx) {
                      RetStr(Ctx, std::to_string(Ctx.Args[0].I));
                    });
  Vm.registerNative("java/lang/String", "valueOf",
                    "(J)Ljava/lang/String;", [RetStr](NativeContext &Ctx) {
                      RetStr(Ctx, std::to_string(longArg(Ctx.Args[0])));
                    });
  Vm.registerNative("java/lang/String", "valueOf",
                    "(D)Ljava/lang/String;", [RetStr](NativeContext &Ctx) {
                      RetStr(Ctx, std::to_string(Ctx.Args[0].D));
                    });
  Vm.registerNative("java/lang/String", "valueOf",
                    "(C)Ljava/lang/String;", [RetStr](NativeContext &Ctx) {
                      RetStr(Ctx, std::string(
                                      1, static_cast<char>(Ctx.Args[0].I)));
                    });
  Vm.registerNative("java/lang/String", "valueOf",
                    "(Z)Ljava/lang/String;", [RetStr](NativeContext &Ctx) {
                      RetStr(Ctx, Ctx.Args[0].I ? "true" : "false");
                    });
  Vm.registerNative(
      "java/lang/String", "valueOf", "([C)Ljava/lang/String;",
      [RetStr](NativeContext &Ctx) {
        auto *A = static_cast<ArrayObject *>(Ctx.Args[0].R);
        std::string S;
        for (int32_t I = 0; I != A->length(); ++I)
          S.push_back(static_cast<char>(A->get(I).I & 0xFF));
        RetStr(Ctx, S);
      });

  // StringBuilder over its "str" field.
  auto SbAppend = [](NativeContext &Ctx, const std::string &Suffix) {
    Object *Sb = Ctx.Args[0].R;
    Value Cur = Sb->field("str");
    std::string Text = Cur.R ? Ctx.Vm.stringValue(Cur.R) : "";
    Sb->setField("str", Value::ref(Ctx.Vm.newString(Text + Suffix)));
    Ctx.setReturn(Ctx.Args[0]);
  };
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(Ljava/lang/String;)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      Object *S = Ctx.Args[1].R;
                      SbAppend(Ctx, S ? Ctx.Vm.stringValue(S) : "null");
                    });
  Vm.registerNative(
      "java/lang/StringBuilder", "append",
      "(Ljava/lang/Object;)Ljava/lang/StringBuilder;",
      [SbAppend](NativeContext &Ctx) {
        Object *O = Ctx.Args[1].R;
        if (!O) {
          SbAppend(Ctx, "null");
          return;
        }
        if (O->klass()->Name == "java/lang/String") {
          SbAppend(Ctx, Ctx.Vm.stringValue(O));
          return;
        }
        char Buf[16];
        snprintf(Buf, sizeof(Buf), "@%x", Ctx.Vm.identityHash(O));
        SbAppend(Ctx, O->klass()->Name + Buf);
      });
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(I)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      SbAppend(Ctx, std::to_string(Ctx.Args[1].I));
                    });
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(J)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      SbAppend(Ctx, std::to_string(longArg(Ctx.Args[1])));
                    });
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(C)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      SbAppend(Ctx, std::string(1, static_cast<char>(
                                                       Ctx.Args[1].I)));
                    });
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(D)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      SbAppend(Ctx, std::to_string(Ctx.Args[1].D));
                    });
  Vm.registerNative("java/lang/StringBuilder", "append",
                    "(Z)Ljava/lang/StringBuilder;",
                    [SbAppend](NativeContext &Ctx) {
                      SbAppend(Ctx, Ctx.Args[1].I ? "true" : "false");
                    });
  Vm.registerNative("java/lang/StringBuilder", "toString",
                    "()Ljava/lang/String;", [](NativeContext &Ctx) {
                      Value Cur = Ctx.Args[0].R->field("str");
                      Ctx.setReturn(Cur.R ? Cur
                                          : Value::ref(Ctx.Vm.newString("")));
                    });
  Vm.registerNative("java/lang/StringBuilder", "length", "()I",
                    [](NativeContext &Ctx) {
                      Value Cur = Ctx.Args[0].R->field("str");
                      std::string S =
                          Cur.R ? Ctx.Vm.stringValue(Cur.R) : "";
                      Ctx.setReturn(Value::intVal(
                          static_cast<int32_t>(S.size())));
                    });
}

void registerSystemNatives(Jvm &Vm) {
  auto PrintTo = [](NativeContext &Ctx, const std::string &Text,
                    bool Newline) {
    bool IsErr = Ctx.Args[0].R->field("isErr").I != 0;
    std::string Out = Newline ? Text + "\n" : Text;
    // Process-subsystem routing: when the owning proc::Process installed
    // an fd-table write hook, the write is asynchronous and may park on a
    // full pipe — block the green thread until the bytes land, which is
    // what gives System.out real pipe backpressure (§4.2 bridge).
    const rt::Process::WriteHook &Hook = IsErr
                                             ? Ctx.Vm.process().stderrHook()
                                             : Ctx.Vm.process().stdoutHook();
    if (Hook) {
      Ctx.blockWithResult([Hook, Out](NativeCompletion Complete) {
        Hook(Out, [Complete] { Complete(Value()); });
      });
      return;
    }
    if (IsErr)
      Ctx.Vm.process().writeStderr(Out);
    else
      Ctx.Vm.process().writeStdout(Out);
  };
  Vm.registerNative("java/io/PrintStream", "println",
                    "(Ljava/lang/String;)V", [PrintTo](NativeContext &Ctx) {
                      Object *S = Ctx.Args[1].R;
                      PrintTo(Ctx, S ? Ctx.Vm.stringValue(S) : "null",
                              true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "(I)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx, std::to_string(Ctx.Args[1].I), true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "(J)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx, std::to_string(longArg(Ctx.Args[1])),
                              true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "(D)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx, std::to_string(Ctx.Args[1].D), true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "(C)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx,
                              std::string(1, static_cast<char>(
                                                 Ctx.Args[1].I)),
                              true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "(Z)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx, Ctx.Args[1].I ? "true" : "false", true);
                    });
  Vm.registerNative("java/io/PrintStream", "println",
                    "(Ljava/lang/Object;)V", [PrintTo](NativeContext &Ctx) {
                      Object *O = Ctx.Args[1].R;
                      if (!O) {
                        PrintTo(Ctx, "null", true);
                        return;
                      }
                      if (O->klass()->Name == "java/lang/String") {
                        PrintTo(Ctx, Ctx.Vm.stringValue(O), true);
                        return;
                      }
                      char Buf[16];
                      snprintf(Buf, sizeof(Buf), "@%x",
                               Ctx.Vm.identityHash(O));
                      PrintTo(Ctx, O->klass()->Name + Buf, true);
                    });
  Vm.registerNative("java/io/PrintStream", "println", "()V",
                    [PrintTo](NativeContext &Ctx) { PrintTo(Ctx, "", true); });
  Vm.registerNative("java/io/PrintStream", "print",
                    "(Ljava/lang/String;)V", [PrintTo](NativeContext &Ctx) {
                      Object *S = Ctx.Args[1].R;
                      PrintTo(Ctx, S ? Ctx.Vm.stringValue(S) : "null",
                              false);
                    });
  Vm.registerNative("java/io/PrintStream", "print", "(I)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx, std::to_string(Ctx.Args[1].I), false);
                    });
  Vm.registerNative("java/io/PrintStream", "print", "(C)V",
                    [PrintTo](NativeContext &Ctx) {
                      PrintTo(Ctx,
                              std::string(1, static_cast<char>(
                                                 Ctx.Args[1].I)),
                              false);
                    });

  Vm.registerNative("java/lang/System", "currentTimeMillis", "()J",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::longVal(static_cast<int64_t>(
                          Ctx.Vm.env().clock().nowNs() / 1000000)));
                    });
  Vm.registerNative("java/lang/System", "nanoTime", "()J",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::longVal(static_cast<int64_t>(
                          Ctx.Vm.env().clock().nowNs())));
                    });
  Vm.registerNative("java/lang/System", "identityHashCode",
                    "(Ljava/lang/Object;)I", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(
                          Ctx.Vm.identityHash(Ctx.Args[0].R)));
                    });
  Vm.registerNative(
      "java/lang/System", "arraycopy",
      "(Ljava/lang/Object;ILjava/lang/Object;II)V",
      [](NativeContext &Ctx) {
        Object *SrcO = Ctx.Args[0].R;
        int32_t SrcPos = Ctx.Args[1].I;
        Object *DstO = Ctx.Args[2].R;
        int32_t DstPos = Ctx.Args[3].I;
        int32_t Len = Ctx.Args[4].I;
        if (!SrcO || !DstO) {
          Ctx.throwEx("java/lang/NullPointerException", "arraycopy");
          return;
        }
        if (!SrcO->isArray() || !DstO->isArray()) {
          Ctx.throwEx("java/lang/ArrayStoreException", "not arrays");
          return;
        }
        auto *Src = static_cast<ArrayObject *>(SrcO);
        auto *Dst = static_cast<ArrayObject *>(DstO);
        if (Len < 0 || SrcPos < 0 || DstPos < 0 ||
            SrcPos + Len > Src->length() || DstPos + Len > Dst->length()) {
          Ctx.throwEx("java/lang/ArrayIndexOutOfBoundsException",
                      "arraycopy");
          return;
        }
        // Copy with memmove semantics for overlapping self-copies.
        if (Src == Dst && SrcPos < DstPos) {
          for (int32_t I = Len - 1; I >= 0; --I)
            Dst->set(DstPos + I, Src->get(SrcPos + I));
        } else {
          for (int32_t I = 0; I != Len; ++I)
            Dst->set(DstPos + I, Src->get(SrcPos + I));
        }
      });
  Vm.registerNative("java/lang/System", "exit", "(I)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.setExitCode(Ctx.Args[0].I);
                      Ctx.Thread.killForExit();
                    });
}

void registerMathAndNumberNatives(Jvm &Vm) {
  Vm.registerNative("java/lang/Math", "sqrt", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::sqrt(Ctx.Args[0].D)));
                    });
  Vm.registerNative("java/lang/Math", "pow", "(DD)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::doubleVal(
                          std::pow(Ctx.Args[0].D, Ctx.Args[1].D)));
                    });
  Vm.registerNative("java/lang/Math", "floor", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::floor(Ctx.Args[0].D)));
                    });
  Vm.registerNative("java/lang/Math", "ceil", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::ceil(Ctx.Args[0].D)));
                    });
  Vm.registerNative("java/lang/Math", "abs", "(I)I",
                    [](NativeContext &Ctx) {
                      int32_t V = Ctx.Args[0].I;
                      Ctx.setReturn(Value::intVal(V < 0 ? -V : V));
                    });
  Vm.registerNative("java/lang/Math", "abs", "(J)J",
                    [](NativeContext &Ctx) {
                      int64_t V = longArg(Ctx.Args[0]);
                      Ctx.setReturn(Value::longVal(V < 0 ? -V : V));
                    });
  Vm.registerNative("java/lang/Math", "abs", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::abs(Ctx.Args[0].D)));
                    });
  Vm.registerNative("java/lang/Math", "max", "(II)I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(
                          std::max(Ctx.Args[0].I, Ctx.Args[1].I)));
                    });
  Vm.registerNative("java/lang/Math", "min", "(II)I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(
                          std::min(Ctx.Args[0].I, Ctx.Args[1].I)));
                    });
  Vm.registerNative("java/lang/Math", "sin", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::sin(Ctx.Args[0].D)));
                    });
  Vm.registerNative("java/lang/Math", "cos", "(D)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(std::cos(Ctx.Args[0].D)));
                    });

  Vm.registerNative("java/lang/Integer", "toString",
                    "(I)Ljava/lang/String;", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::ref(Ctx.Vm.newString(
                          std::to_string(Ctx.Args[0].I))));
                    });
  Vm.registerNative("java/lang/Integer", "toHexString",
                    "(I)Ljava/lang/String;", [](NativeContext &Ctx) {
                      char Buf[16];
                      snprintf(Buf, sizeof(Buf), "%x",
                               static_cast<uint32_t>(Ctx.Args[0].I));
                      Ctx.setReturn(Value::ref(Ctx.Vm.newString(Buf)));
                    });
  Vm.registerNative(
      "java/lang/Integer", "parseInt", "(Ljava/lang/String;)I",
      [](NativeContext &Ctx) {
        std::string S = strArg(Ctx.Vm, Ctx.Args[0]);
        try {
          size_t Used = 0;
          long V = std::stol(S, &Used);
          if (Used != S.size() || V > INT32_MAX || V < INT32_MIN)
            throw std::invalid_argument(S);
          Ctx.setReturn(Value::intVal(static_cast<int32_t>(V)));
        } catch (...) {
          Ctx.throwEx("java/lang/NumberFormatException", S);
        }
      });
  Vm.registerNative("java/lang/Long", "toString",
                    "(J)Ljava/lang/String;", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::ref(Ctx.Vm.newString(
                          std::to_string(longArg(Ctx.Args[0])))));
                    });
  Vm.registerNative(
      "java/lang/Long", "parseLong", "(Ljava/lang/String;)J",
      [](NativeContext &Ctx) {
        std::string S = strArg(Ctx.Vm, Ctx.Args[0]);
        try {
          size_t Used = 0;
          long long V = std::stoll(S, &Used);
          if (Used != S.size())
            throw std::invalid_argument(S);
          Ctx.setReturn(Value::longVal(static_cast<int64_t>(V)));
        } catch (...) {
          Ctx.throwEx("java/lang/NumberFormatException", S);
        }
      });
  Vm.registerNative("java/lang/Double", "toString",
                    "(D)Ljava/lang/String;", [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::ref(Ctx.Vm.newString(
                          std::to_string(Ctx.Args[0].D))));
                    });
  Vm.registerNative(
      "java/lang/Double", "parseDouble", "(Ljava/lang/String;)D",
      [](NativeContext &Ctx) {
        std::string S = strArg(Ctx.Vm, Ctx.Args[0]);
        try {
          Ctx.setReturn(Value::doubleVal(std::stod(S)));
        } catch (...) {
          Ctx.throwEx("java/lang/NumberFormatException", S);
        }
      });
  Vm.registerNative("java/lang/Character", "isDigit", "(C)Z",
                    [](NativeContext &Ctx) {
                      int32_t C = Ctx.Args[0].I;
                      Ctx.setReturn(
                          Value::intVal(C >= '0' && C <= '9' ? 1 : 0));
                    });
  Vm.registerNative("java/lang/Character", "isLetter", "(C)Z",
                    [](NativeContext &Ctx) {
                      int32_t C = Ctx.Args[0].I;
                      bool L = (C >= 'a' && C <= 'z') ||
                               (C >= 'A' && C <= 'Z');
                      Ctx.setReturn(Value::intVal(L ? 1 : 0));
                    });
  Vm.registerNative("java/lang/Character", "isWhitespace", "(C)Z",
                    [](NativeContext &Ctx) {
                      int32_t C = Ctx.Args[0].I;
                      bool W = C == ' ' || C == '\t' || C == '\n' ||
                               C == '\r';
                      Ctx.setReturn(Value::intVal(W ? 1 : 0));
                    });
}

void registerThreadNatives(Jvm &Vm) {
  Vm.registerNative(
      "java/lang/Thread", "start", "()V", [](NativeContext &Ctx) {
        Object *ThreadObj = Ctx.Args[0].R;
        if (ThreadObj->field("started").I != 0) {
          Ctx.throwEx("java/lang/IllegalThreadStateException",
                      "already started");
          return;
        }
        ThreadObj->setField("started", Value::intVal(1));
        Method *Run = ThreadObj->klass()->findMethod("run", "()V");
        if (!Run || !Run->HasCode) {
          Ctx.throwEx("java/lang/IllegalStateException", "no run()");
          return;
        }
        Ctx.Vm.spawnThread(Run, {Value::ref(ThreadObj)}, ThreadObj);
      });
  Vm.registerNative(
      "java/lang/Thread", "join", "()V", [](NativeContext &Ctx) {
        JvmThread *Target = Ctx.Vm.threadForObject(Ctx.Args[0].R);
        if (!Target || Target->finished())
          return; // Already dead: join returns immediately.
        Target->JoinWaiters.push_back(Ctx.Thread.tid());
        Ctx.BlockedOnMonitor = true; // Resumed by noteThreadFinished.
      });
  Vm.registerNative("java/lang/Thread", "isAlive", "()Z",
                    [](NativeContext &Ctx) {
                      JvmThread *Target =
                          Ctx.Vm.threadForObject(Ctx.Args[0].R);
                      Ctx.setReturn(Value::intVal(
                          Target && !Target->finished() ? 1 : 0));
                    });
  Vm.registerNative(
      "java/lang/Thread", "sleep", "(J)V", [](NativeContext &Ctx) {
        int64_t Ms = longArg(Ctx.Args[0]);
        Ctx.blockWithResult([&Ctx, Ms](NativeCompletion Complete) {
          // Thread.sleep is a timer wake-up, not I/O (sleep is
          // uninterruptible here, the handle is dropped).
          Ctx.Vm.env().loop().postAfter(
              kernel::Lane::Timer, [Complete] { Complete(Value()); },
              browser::msToNs(static_cast<uint64_t>(Ms < 0 ? 0 : Ms)));
        });
      });
  Vm.registerNative(
      "java/lang/Thread", "yield", "()V", [](NativeContext &Ctx) {
        // Yield by bouncing through the Resume lane: other threads'
        // pending slices (FIFO ahead of this wake-up) run before this one
        // resumes. The Background lane would deadlock the pool under
        // strict priority — the pool's own drive chain lives on Resume
        // and would starve the bounce forever.
        Ctx.blockWithResult([&Ctx](NativeCompletion Complete) {
          Ctx.Vm.env().loop().post(kernel::Lane::Resume,
                                   [Complete] { Complete(Value()); });
        });
      });
  Vm.registerNative(
      "java/lang/Thread", "currentThread", "()Ljava/lang/Thread;",
      [](NativeContext &Ctx) {
        if (!Ctx.Thread.ThreadObj) {
          Klass *ThreadK = Ctx.Vm.loader().lookup("java/lang/Thread");
          Object *O = Ctx.Vm.allocObject(ThreadK);
          O->setField("started", Value::intVal(1));
          Ctx.Thread.ThreadObj = O;
        }
        Ctx.setReturn(Value::ref(Ctx.Thread.ThreadObj));
      });
}

void registerUnsafeAndInteropNatives(Jvm &Vm) {
  // §6.5: unsafe memory operations over the Doppio heap.
  Vm.registerNative(
      "sun/misc/Unsafe", "allocateMemory", "(J)J",
      [](NativeContext &Ctx) {
        uint32_t Addr = Ctx.Vm.heap().malloc(
            static_cast<uint32_t>(longArg(Ctx.Args[1])));
        if (Addr == 0) {
          Ctx.throwEx("java/lang/OutOfMemoryError", "unmanaged heap");
          return;
        }
        Ctx.setReturn(Value::longVal(static_cast<int64_t>(Addr)));
      });
  Vm.registerNative("sun/misc/Unsafe", "freeMemory", "(J)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.heap().free(static_cast<uint32_t>(
                          longArg(Ctx.Args[1])));
                    });
  Vm.registerNative("sun/misc/Unsafe", "putByte", "(JB)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.heap().writeInt8(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])),
                          static_cast<int8_t>(Ctx.Args[2].I));
                    });
  Vm.registerNative("sun/misc/Unsafe", "getByte", "(J)B",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(Ctx.Vm.heap().readInt8(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])))));
                    });
  Vm.registerNative("sun/misc/Unsafe", "putInt", "(JI)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.heap().writeInt32(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])),
                          Ctx.Args[2].I);
                    });
  Vm.registerNative("sun/misc/Unsafe", "getInt", "(J)I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(Ctx.Vm.heap().readInt32(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])))));
                    });
  Vm.registerNative("sun/misc/Unsafe", "putLong", "(JJ)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.heap().writeInt64(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])),
                          longArg(Ctx.Args[2]));
                    });
  Vm.registerNative("sun/misc/Unsafe", "getLong", "(J)J",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::longVal(Ctx.Vm.heap().readInt64(
                              static_cast<uint32_t>(
                                  longArg(Ctx.Args[1])))));
                    });
  Vm.registerNative("sun/misc/Unsafe", "putDouble", "(JD)V",
                    [](NativeContext &Ctx) {
                      Ctx.Vm.heap().writeDouble(
                          static_cast<uint32_t>(longArg(Ctx.Args[1])),
                          Ctx.Args[2].D);
                    });
  Vm.registerNative("sun/misc/Unsafe", "getDouble", "(J)D",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(
                          Value::doubleVal(Ctx.Vm.heap().readDouble(
                              static_cast<uint32_t>(
                                  longArg(Ctx.Args[1])))));
                    });
  Vm.registerNative("sun/misc/Unsafe", "addressSize", "()I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(4));
                    });
  Vm.registerNative("sun/misc/Unsafe", "pageSize", "()I",
                    [](NativeContext &Ctx) {
                      Ctx.setReturn(Value::intVal(4096));
                    });

  // §6.8: eval.
  Vm.registerNative(
      "doppio/JS", "eval", "(Ljava/lang/String;)Ljava/lang/String;",
      [](NativeContext &Ctx) {
        const auto &Hook = Ctx.Vm.jsEval();
        if (!Hook) {
          Ctx.throwEx("java/lang/UnsupportedOperationException",
                      "no JavaScript engine attached");
          return;
        }
        std::string Result = Hook(strArg(Ctx.Vm, Ctx.Args[0]));
        Ctx.setReturn(Value::ref(Ctx.Vm.newString(Result)));
      });
}

void registerFileNatives(Jvm &Vm) {
  // All file natives block through the §4.2 bridge onto the asynchronous
  // Doppio fs, preserving JVM-level synchronous semantics (§6.3).
  Vm.registerNative(
      "doppio/io/Files", "readAllBytes", "(Ljava/lang/String;)[B",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().readFile(
              Path, [&TheVm, Complete](ErrorOr<std::vector<uint8_t>> R) {
                if (!R) {
                  Complete(R.error());
                  return;
                }
                Complete(Value::ref(bytesToArray(TheVm, *R)));
              });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "readString",
      "(Ljava/lang/String;)Ljava/lang/String;", [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().readFile(
              Path, [&TheVm, Complete](ErrorOr<std::vector<uint8_t>> R) {
                if (!R) {
                  Complete(R.error());
                  return;
                }
                Complete(Value::ref(TheVm.newString(
                    std::string(R->begin(), R->end()))));
              });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "write", "(Ljava/lang/String;[B)V",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        if (!Ctx.Args[1].R) {
          Ctx.throwEx("java/lang/NullPointerException", "write");
          return;
        }
        std::vector<uint8_t> Bytes =
            arrayToBytes(static_cast<ArrayObject *>(Ctx.Args[1].R));
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult(
            [&TheVm, Path, Bytes](NativeCompletion Complete) {
              TheVm.fs().writeFile(
                  Path, Bytes, [Complete](std::optional<ApiError> E) {
                    if (E)
                      Complete(*E);
                    else
                      Complete(Value());
                  });
            });
      });
  Vm.registerNative(
      "doppio/io/Files", "writeString",
      "(Ljava/lang/String;Ljava/lang/String;)V", [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        std::string Text = strArg(Ctx.Vm, Ctx.Args[1]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path, Text](NativeCompletion Complete) {
          TheVm.fs().writeFile(
              Path, std::vector<uint8_t>(Text.begin(), Text.end()),
              [Complete](std::optional<ApiError> E) {
                if (E)
                  Complete(*E);
                else
                  Complete(Value());
              });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "exists", "(Ljava/lang/String;)Z",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          // exists() always yields a success value (a failed stat means
          // "absent", not an error).
          TheVm.fs().exists(Path, [Complete](ErrorOr<bool> Exists) {
            Complete(Value::intVal(*Exists ? 1 : 0));
          });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "list",
      "(Ljava/lang/String;)[Ljava/lang/String;", [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().readdir(
              Path,
              [&TheVm, Complete](ErrorOr<std::vector<std::string>> R) {
                if (!R) {
                  Complete(R.error());
                  return;
                }
                ArrayObject *A = TheVm.allocArrayOf(
                    "Ljava/lang/String;", static_cast<int32_t>(R->size()));
                for (size_t I = 0; I != R->size(); ++I)
                  A->set(static_cast<int32_t>(I),
                         Value::ref(TheVm.newString((*R)[I])));
                Complete(Value::ref(A));
              });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "delete", "(Ljava/lang/String;)V",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().unlink(Path, [Complete](std::optional<ApiError> E) {
            if (E)
              Complete(*E);
            else
              Complete(Value());
          });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "mkdirs", "(Ljava/lang/String;)V",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().mkdirp(Path, [Complete](std::optional<ApiError> E) {
            if (E)
              Complete(*E);
            else
              Complete(Value());
          });
        });
      });
  Vm.registerNative(
      "doppio/io/Files", "size", "(Ljava/lang/String;)I",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().stat(Path, [Complete](ErrorOr<rt::fs::Stats> R) {
            if (!R) {
              Complete(R.error());
              return;
            }
            Complete(Value::intVal(static_cast<int32_t>(R->SizeBytes)));
          });
        });
      });

  // §3.2's example made real: synchronous console input. The "keyboard
  // event" arrives asynchronously; the guest blocks until it does.
  Vm.registerNative(
      "doppio/Stdin", "readLine", "()Ljava/lang/String;",
      [](NativeContext &Ctx) {
        Jvm &TheVm = Ctx.Vm;
        // Process-subsystem routing: System.in drains the owning process's
        // fd 0 (possibly a pipe from an upstream stage), blocking the green
        // thread until a line — or EOF (null) — arrives.
        if (const rt::Process::StdinHook &Hook = TheVm.process().stdinHook()) {
          Ctx.blockWithResult([&TheVm, Hook](NativeCompletion Complete) {
            Hook([&TheVm, Complete](std::optional<std::string> Line) {
              if (!Line) {
                Complete(Value::null()); // EOF.
                return;
              }
              Complete(Value::ref(TheVm.newString(*Line)));
            });
          });
          return;
        }
        if (!TheVm.process().hasStdin()) {
          Ctx.setReturn(Value::null()); // EOF.
          return;
        }
        Ctx.blockWithResult([&TheVm](NativeCompletion Complete) {
          // Model keystroke delivery latency; a keystroke is user input,
          // so it arrives on the Input lane ahead of everything queued.
          // The keystroke is never cancelled, so the handle is dropped
          // (dropping does not cancel).
          TheVm.env().loop().postAfter(
              kernel::Lane::Input,
              [&TheVm, Complete] {
                if (!TheVm.process().hasStdin()) {
                  Complete(Value::null());
                  return;
                }
                Complete(Value::ref(
                    TheVm.newString(TheVm.process().popStdin())));
              },
              browser::msToNs(1));
        });
      });
}

void registerSocketNatives(Jvm &Vm) {
  // §5.3 through §6.3: socket natives over Doppio sockets. The handle
  // table lives in a shared_ptr captured by all four natives.
  auto Sockets = std::make_shared<
      std::map<int32_t, std::unique_ptr<rt::DoppioSocket>>>();
  auto NextHandle = std::make_shared<int32_t>(1);

  Vm.registerNative(
      "doppio/net/Socket", "connect", "(I)I",
      [Sockets, NextHandle](NativeContext &Ctx) {
        int32_t Port = Ctx.Args[0].I;
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Sockets, NextHandle,
                             Port](NativeCompletion Complete) {
          auto Sock = std::make_unique<rt::DoppioSocket>(TheVm.env());
          rt::DoppioSocket *Raw = Sock.get();
          int32_t Handle = (*NextHandle)++;
          (*Sockets)[Handle] = std::move(Sock);
          Raw->connect(static_cast<uint16_t>(Port),
                       [Complete, Handle, Sockets](
                           std::optional<ApiError> E) {
                         if (E) {
                           Sockets->erase(Handle);
                           Complete(*E);
                           return;
                         }
                         Complete(Value::intVal(Handle));
                       });
        });
      });
  Vm.registerNative(
      "doppio/net/Socket", "send", "(I[B)V",
      [Sockets](NativeContext &Ctx) {
        auto It = Sockets->find(Ctx.Args[0].I);
        if (It == Sockets->end() || !Ctx.Args[1].R) {
          Ctx.throwEx("java/io/IOException", "bad socket");
          return;
        }
        std::vector<uint8_t> Bytes =
            arrayToBytes(static_cast<ArrayObject *>(Ctx.Args[1].R));
        It->second->send(std::move(Bytes),
                         [](std::optional<ApiError>) {});
      });
  Vm.registerNative(
      "doppio/net/Socket", "recv", "(I)[B",
      [Sockets](NativeContext &Ctx) {
        auto It = Sockets->find(Ctx.Args[0].I);
        if (It == Sockets->end()) {
          Ctx.throwEx("java/io/IOException", "bad socket");
          return;
        }
        rt::DoppioSocket *Sock = It->second.get();
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Sock](NativeCompletion Complete) {
          Sock->recv([&TheVm, Complete](
                         ErrorOr<std::vector<uint8_t>> R) {
            if (!R) {
              Complete(R.error());
              return;
            }
            Complete(Value::ref(bytesToArray(TheVm, *R)));
          });
        });
      });
  Vm.registerNative("doppio/net/Socket", "close", "(I)V",
                    [Sockets](NativeContext &Ctx) {
                      auto It = Sockets->find(Ctx.Args[0].I);
                      if (It != Sockets->end()) {
                        It->second->close();
                        Sockets->erase(It);
                      }
                    });
}

} // namespace

void jvm::installCoreClasses(Jvm &Vm) {
  registerObjectNatives(Vm);
  registerStringNatives(Vm);
  registerSystemNatives(Vm);
  registerMathAndNumberNatives(Vm);
  registerThreadNatives(Vm);
  registerUnsafeAndInteropNatives(Vm);
  registerFileNatives(Vm);
  registerSocketNatives(Vm);

  defineObjectAndCore(Vm);
  defineThrowables(Vm);
  defineSystemIo(Vm);
  defineNumericsAndMath(Vm);
  defineThreading(Vm);
  defineUnsafeAndInterop(Vm);
}
