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
#include <map>
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

/// One built-in class under construction: a ClassBuilder whose natives
/// are each declared once, together with their bodies. define() hands
/// both to the class loader, which binds every body to its method.
class Builtin : public ClassBuilder {
public:
  using ClassBuilder::ClassBuilder;

  /// Declares a native method, in declaration order with the rest of the
  /// class, and supplies its body.
  void native(uint16_t Flags, const std::string &Name,
              const std::string &Desc, NativeFn Fn) {
    nativeMethod(Flags, Name, Desc);
    Natives.push_back({Name, Desc, std::move(Fn)});
  }

  Klass *define(Jvm &Vm) {
    return Vm.loader().defineBuiltin(build(), std::move(Natives));
  }

private:
  std::vector<NativeBinding> Natives;
};

/// Text of an object for print and append: a string's characters, or
/// the class name and identity hash.
std::string objectText(Jvm &Vm, Object *O) {
  if (!O)
    return "null";
  if (O->klass()->Name == "java/lang/String")
    return Vm.stringValue(O);
  char Buf[16];
  snprintf(Buf, sizeof(Buf), "@%x", Vm.identityHash(O));
  return O->klass()->Name + Buf;
}

//===----------------------------------------------------------------------===//
// java/lang core
//===----------------------------------------------------------------------===//

/// Object.wait (§6.2). The wait set and reacquisition protocol live on the
/// object's monitor.
void waitOn(NativeContext &Ctx, int64_t TimeoutMs) {
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
    // Object.wait(timeout) is a JVM-visible timer, not an I/O completion:
    // Timer lane. The wake-up is never cancelled — a notify is handled by
    // the generation check, and cancelling would change when the virtual
    // clock goes idle — so the handle is dropped (dropping does not
    // cancel).
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
}

/// Object.notify and notifyAll.
void notifyOn(NativeContext &Ctx, bool All) {
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
}

void defineObject(Jvm &Vm) {
  Builtin B("java/lang/Object", "");
  B.method(AccPublic, "<init>", "()V").op(Op::Return);
  B.native(AccPublic, "hashCode", "()I", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::intVal(Ctx.Vm.identityHash(Ctx.Args[0].R)));
  });
  B.native(AccPublic, "equals", "(Ljava/lang/Object;)Z",
           [](NativeContext &Ctx) {
             Ctx.setReturn(
                 Value::intVal(Ctx.Args[0].R == Ctx.Args[1].R ? 1 : 0));
           });
  B.native(AccPublic, "getClass", "()Ljava/lang/Class;",
           [](NativeContext &Ctx) {
             Ctx.setReturn(
                 Value::ref(Ctx.Vm.mirrorOf(Ctx.Args[0].R->klass())));
           });
  B.native(AccPublic, "toString", "()Ljava/lang/String;",
           [](NativeContext &Ctx) {
             Object *O = Ctx.Args[0].R;
             char Buf[16];
             snprintf(Buf, sizeof(Buf), "@%x", Ctx.Vm.identityHash(O));
             Ctx.setReturn(
                 Value::ref(Ctx.Vm.newString(O->klass()->Name + Buf)));
           });
  B.native(AccPublic | AccFinal, "wait", "()V",
           [](NativeContext &Ctx) { waitOn(Ctx, 0); });
  B.native(AccPublic | AccFinal, "wait", "(J)V", [](NativeContext &Ctx) {
    waitOn(Ctx, longArg(Ctx.Args[1]));
  });
  B.native(AccPublic | AccFinal, "notify", "()V",
           [](NativeContext &Ctx) { notifyOn(Ctx, false); });
  B.native(AccPublic | AccFinal, "notifyAll", "()V",
           [](NativeContext &Ctx) { notifyOn(Ctx, true); });
  B.define(Vm);
}

void defineClass(Jvm &Vm) {
  Builtin B("java/lang/Class");
  B.addDefaultConstructor();
  B.native(AccPublic, "getName", "()Ljava/lang/String;",
           [](NativeContext &Ctx) {
             Klass *K = Ctx.Vm.mirroredClass(Ctx.Args[0].R);
             std::string Name = K ? K->Name : "?";
             for (char &C : Name)
               if (C == '/')
                 C = '.';
             Ctx.setReturn(Value::ref(Ctx.Vm.newString(Name)));
           });
  B.define(Vm);
}

/// The receiver's characters (a String native's Args[0]).
std::string self(NativeContext &Ctx) {
  return Ctx.Vm.stringValue(Ctx.Args[0].R);
}

void returnString(NativeContext &Ctx, const std::string &S) {
  Ctx.setReturn(Value::ref(Ctx.Vm.newString(S)));
}

void substring(NativeContext &Ctx, int32_t From, int32_t To) {
  std::string S = self(Ctx);
  if (From < 0 || To > static_cast<int32_t>(S.size()) || From > To) {
    Ctx.throwEx("java/lang/StringIndexOutOfBoundsException",
                std::to_string(From) + ".." + std::to_string(To));
    return;
  }
  returnString(Ctx, S.substr(From, To - From));
}

/// String.indexOf's result for a std::string find.
void returnIndex(NativeContext &Ctx, size_t At) {
  Ctx.setReturn(
      Value::intVal(At == std::string::npos ? -1 : static_cast<int32_t>(At)));
}

void defineString(Jvm &Vm) {
  Builtin B("java/lang/String");
  B.addField(AccPrivate | AccFinal, "value", "[C");
  B.addDefaultConstructor();
  B.native(AccPublic, "length", "()I", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::intVal(static_cast<int32_t>(self(Ctx).size())));
  });
  B.native(AccPublic, "charAt", "(I)C", [](NativeContext &Ctx) {
    std::string S = self(Ctx);
    int32_t I = Ctx.Args[1].I;
    if (I < 0 || static_cast<size_t>(I) >= S.size()) {
      Ctx.throwEx("java/lang/StringIndexOutOfBoundsException",
                  std::to_string(I));
      return;
    }
    Ctx.setReturn(Value::intVal(static_cast<uint8_t>(S[I])));
  });
  B.native(AccPublic, "equals", "(Ljava/lang/Object;)Z",
           [](NativeContext &Ctx) {
             Object *Other = Ctx.Args[1].R;
             if (!Other || Other->klass() != Ctx.Args[0].R->klass()) {
               Ctx.setReturn(Value::intVal(0));
               return;
             }
             Ctx.setReturn(Value::intVal(
                 self(Ctx) == Ctx.Vm.stringValue(Other) ? 1 : 0));
           });
  B.native(AccPublic, "hashCode", "()I", [](NativeContext &Ctx) {
    int32_t H = 0;
    for (char C : self(Ctx))
      H = static_cast<int32_t>(31 * static_cast<int64_t>(H) +
                               static_cast<uint8_t>(C));
    Ctx.setReturn(Value::intVal(H));
  });
  B.native(AccPublic, "toString", "()Ljava/lang/String;",
           [](NativeContext &Ctx) { Ctx.setReturn(Ctx.Args[0]); });
  B.native(AccPublic, "concat", "(Ljava/lang/String;)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx, self(Ctx) + strArg(Ctx.Vm, Ctx.Args[1]));
           });
  B.native(AccPublic, "substring", "(II)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             substring(Ctx, Ctx.Args[1].I, Ctx.Args[2].I);
           });
  B.native(AccPublic, "substring", "(I)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             substring(Ctx, Ctx.Args[1].I,
                       static_cast<int32_t>(self(Ctx).size()));
           });
  B.native(AccPublic, "indexOf", "(I)I", [](NativeContext &Ctx) {
    returnIndex(Ctx, self(Ctx).find(static_cast<char>(Ctx.Args[1].I & 0xFF)));
  });
  B.native(AccPublic, "indexOf", "(Ljava/lang/String;)I",
           [](NativeContext &Ctx) {
             returnIndex(Ctx, self(Ctx).find(strArg(Ctx.Vm, Ctx.Args[1])));
           });
  B.native(AccPublic, "startsWith", "(Ljava/lang/String;)Z",
           [](NativeContext &Ctx) {
             std::string S = self(Ctx);
             std::string P = strArg(Ctx.Vm, Ctx.Args[1]);
             Ctx.setReturn(
                 Value::intVal(S.compare(0, P.size(), P) == 0 ? 1 : 0));
           });
  B.native(AccPublic, "endsWith", "(Ljava/lang/String;)Z",
           [](NativeContext &Ctx) {
             std::string S = self(Ctx);
             std::string P = strArg(Ctx.Vm, Ctx.Args[1]);
             bool Ok = S.size() >= P.size() &&
                       S.compare(S.size() - P.size(), P.size(), P) == 0;
             Ctx.setReturn(Value::intVal(Ok ? 1 : 0));
           });
  B.native(AccPublic, "compareTo", "(Ljava/lang/String;)I",
           [](NativeContext &Ctx) {
             int R = self(Ctx).compare(strArg(Ctx.Vm, Ctx.Args[1]));
             Ctx.setReturn(Value::intVal(R < 0 ? -1 : (R > 0 ? 1 : 0)));
           });
  B.native(AccPublic, "toCharArray", "()[C", [](NativeContext &Ctx) {
    std::string S = self(Ctx);
    ArrayObject *A =
        Ctx.Vm.allocArrayOf("C", static_cast<int32_t>(S.size()));
    for (size_t I = 0; I != S.size(); ++I)
      A->set(static_cast<int32_t>(I),
             Value::intVal(static_cast<uint8_t>(S[I])));
    Ctx.setReturn(Value::ref(A));
  });
  B.native(AccPublic, "intern", "()Ljava/lang/String;",
           [](NativeContext &Ctx) {
             Ctx.setReturn(Value::ref(Ctx.Vm.internString(self(Ctx))));
           });
  B.native(AccPublic, "trim", "()Ljava/lang/String;",
           [](NativeContext &Ctx) {
             std::string S = self(Ctx);
             size_t From = S.find_first_not_of(" \t\r\n");
             size_t To = S.find_last_not_of(" \t\r\n");
             returnString(Ctx, From == std::string::npos
                                   ? ""
                                   : S.substr(From, To - From + 1));
           });
  B.native(AccPublic | AccStatic, "valueOf", "(I)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx, std::to_string(Ctx.Args[0].I));
           });
  B.native(AccPublic | AccStatic, "valueOf", "(J)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx, std::to_string(longArg(Ctx.Args[0])));
           });
  B.native(AccPublic | AccStatic, "valueOf", "(D)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx, std::to_string(Ctx.Args[0].D));
           });
  B.native(AccPublic | AccStatic, "valueOf", "(C)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx,
                          std::string(1, static_cast<char>(Ctx.Args[0].I)));
           });
  B.native(AccPublic | AccStatic, "valueOf", "(Z)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             returnString(Ctx, Ctx.Args[0].I ? "true" : "false");
           });
  B.native(AccPublic | AccStatic, "valueOf", "([C)Ljava/lang/String;",
           [](NativeContext &Ctx) {
             auto *A = static_cast<ArrayObject *>(Ctx.Args[0].R);
             std::string S;
             for (int32_t I = 0; I != A->length(); ++I)
               S.push_back(static_cast<char>(A->get(I).I & 0xFF));
             returnString(Ctx, S);
           });
  B.define(Vm);
}

/// StringBuilder over its "str" field: the current text.
std::string builderText(NativeContext &Ctx) {
  Value Cur = Ctx.Args[0].R->field("str");
  return Cur.R ? Ctx.Vm.stringValue(Cur.R) : "";
}

void append(NativeContext &Ctx, const std::string &Suffix) {
  Ctx.Args[0].R->setField(
      "str", Value::ref(Ctx.Vm.newString(builderText(Ctx) + Suffix)));
  Ctx.setReturn(Ctx.Args[0]);
}

void defineStringBuilder(Jvm &Vm) {
  Builtin B("java/lang/StringBuilder");
  B.addField(AccPrivate, "str", "Ljava/lang/String;");
  MethodBuilder &Init = B.method(AccPublic, "<init>", "()V");
  Init.aload(0)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .aload(0)
      .ldcString("")
      .putfield("java/lang/StringBuilder", "str", "Ljava/lang/String;")
      .op(Op::Return);
  auto Append = [&B](const char *Param, NativeFn Fn) {
    B.native(AccPublic, "append",
             std::string("(") + Param + ")Ljava/lang/StringBuilder;",
             std::move(Fn));
  };
  Append("Ljava/lang/String;", [](NativeContext &Ctx) {
    Object *S = Ctx.Args[1].R;
    append(Ctx, S ? Ctx.Vm.stringValue(S) : "null");
  });
  Append("Ljava/lang/Object;", [](NativeContext &Ctx) {
    append(Ctx, objectText(Ctx.Vm, Ctx.Args[1].R));
  });
  Append("I", [](NativeContext &Ctx) {
    append(Ctx, std::to_string(Ctx.Args[1].I));
  });
  Append("J", [](NativeContext &Ctx) {
    append(Ctx, std::to_string(longArg(Ctx.Args[1])));
  });
  Append("C", [](NativeContext &Ctx) {
    append(Ctx, std::string(1, static_cast<char>(Ctx.Args[1].I)));
  });
  Append("D", [](NativeContext &Ctx) {
    append(Ctx, std::to_string(Ctx.Args[1].D));
  });
  Append("Z", [](NativeContext &Ctx) {
    append(Ctx, Ctx.Args[1].I ? "true" : "false");
  });
  B.native(AccPublic, "toString", "()Ljava/lang/String;",
           [](NativeContext &Ctx) {
             Value Cur = Ctx.Args[0].R->field("str");
             Ctx.setReturn(Cur.R ? Cur : Value::ref(Ctx.Vm.newString("")));
           });
  B.native(AccPublic, "length", "()I", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::intVal(static_cast<int32_t>(builderText(Ctx).size())));
  });
  B.define(Vm);
}

void defineObjectAndCore(Jvm &Vm) {
  defineObject(Vm);
  defineClass(Vm);
  defineString(Vm);
  defineStringBuilder(Vm);
  ClassBuilder B("java/lang/Runnable");
  B.setAccess(AccPublic | AccInterface | AccAbstract);
  B.abstractMethod(AccPublic, "run", "()V");
  Vm.loader().defineBuiltin(B.build());
}

//===----------------------------------------------------------------------===//
// Throwables
//===----------------------------------------------------------------------===//

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
  // Each throwable takes () and (String) constructors.
  auto ExClass = [](const char *Name, const char *Super) {
    ClassBuilder B(Name, Super);
    B.addDefaultConstructor();
    MethodBuilder &Init =
        B.method(AccPublic, "<init>", "(Ljava/lang/String;)V");
    Init.aload(0)
        .aload(1)
        .invokespecial(Super, "<init>", "(Ljava/lang/String;)V")
        .op(Op::Return);
    return B.build();
  };
  auto DefEx = [&Vm, &ExClass](const char *Name, const char *Super) {
    Vm.loader().defineBuiltin(ExClass(Name, Super));
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
  // Thrown only when a <clinit> fails (JVMS §5.5), so it is defined on
  // first use: a program whose initializers all succeed never loads it,
  // and its checkpoint images list the same classes as before.
  Vm.loader().deferBuiltin(ExClass("java/lang/ExceptionInInitializerError",
                                   "java/lang/LinkageError"));
  DefEx("java/lang/StackOverflowError", "java/lang/Error");
  DefEx("java/lang/OutOfMemoryError", "java/lang/Error");
  DefEx("java/io/IOException", "java/lang/Exception");
  DefEx("java/io/FileNotFoundException", "java/io/IOException");
}

//===----------------------------------------------------------------------===//
// System and I/O
//===----------------------------------------------------------------------===//

/// Writes \p Text to the receiver PrintStream's stream.
void printTo(NativeContext &Ctx, const std::string &Text, bool Newline) {
  bool IsErr = Ctx.Args[0].R->field("isErr").I != 0;
  std::string Out = Newline ? Text + "\n" : Text;
  // Process-subsystem routing: when the owning proc::Process installed an
  // fd-table write hook, the write is asynchronous and may park on a full
  // pipe — block the green thread until the bytes land, which is what
  // gives System.out real pipe backpressure (§4.2 bridge).
  const rt::Process::WriteHook &Hook = IsErr ? Ctx.Vm.process().stderrHook()
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
}

void definePrintStream(Jvm &Vm) {
  Builtin B("java/io/PrintStream");
  B.addField(AccPrivate, "isErr", "I");
  B.addDefaultConstructor();
  // println and print over one argument's text.
  auto Print = [&B](const char *Name, const char *Desc,
                    std::string (*Text)(NativeContext &)) {
    bool Newline = std::string(Name) == "println";
    B.native(AccPublic, Name, Desc, [Text, Newline](NativeContext &Ctx) {
      printTo(Ctx, Text(Ctx), Newline);
    });
  };
  auto StringArg = [](NativeContext &Ctx) {
    Object *S = Ctx.Args[1].R;
    return S ? Ctx.Vm.stringValue(S) : std::string("null");
  };
  auto IntArg = [](NativeContext &Ctx) {
    return std::to_string(Ctx.Args[1].I);
  };
  auto CharArg = [](NativeContext &Ctx) {
    return std::string(1, static_cast<char>(Ctx.Args[1].I));
  };
  Print("println", "(Ljava/lang/String;)V", StringArg);
  Print("println", "(I)V", IntArg);
  Print("println", "(J)V", [](NativeContext &Ctx) {
    return std::to_string(longArg(Ctx.Args[1]));
  });
  Print("println", "(D)V", [](NativeContext &Ctx) {
    return std::to_string(Ctx.Args[1].D);
  });
  Print("println", "(C)V", CharArg);
  Print("println", "(Z)V", [](NativeContext &Ctx) {
    return std::string(Ctx.Args[1].I ? "true" : "false");
  });
  Print("println", "(Ljava/lang/Object;)V", [](NativeContext &Ctx) {
    return objectText(Ctx.Vm, Ctx.Args[1].R);
  });
  Print("println", "()V", [](NativeContext &) { return std::string(); });
  Print("print", "(Ljava/lang/String;)V", StringArg);
  Print("print", "(I)V", IntArg);
  Print("print", "(C)V", CharArg);
  B.define(Vm);
}

void defineSystem(Jvm &Vm) {
  Builtin B("java/lang/System");
  B.addField(AccPublic | AccStatic | AccFinal, "out", "Ljava/io/PrintStream;");
  B.addField(AccPublic | AccStatic | AccFinal, "err", "Ljava/io/PrintStream;");
  B.native(AccPublic | AccStatic, "currentTimeMillis", "()J",
           [](NativeContext &Ctx) {
             Ctx.setReturn(Value::longVal(static_cast<int64_t>(
                 Ctx.Vm.env().clock().nowNs() / 1000000)));
           });
  B.native(AccPublic | AccStatic, "nanoTime", "()J", [](NativeContext &Ctx) {
    Ctx.setReturn(
        Value::longVal(static_cast<int64_t>(Ctx.Vm.env().clock().nowNs())));
  });
  B.native(AccPublic | AccStatic, "arraycopy",
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
             // Subtracting from a length cannot overflow, as adding a
             // guest position to a guest length can.
             if (Len < 0 || SrcPos < 0 || DstPos < 0 ||
                 Len > Src->length() - SrcPos ||
                 Len > Dst->length() - DstPos) {
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
  B.native(AccPublic | AccStatic, "exit", "(I)V", [](NativeContext &Ctx) {
    Ctx.Vm.setExitCode(Ctx.Args[0].I);
    Ctx.Thread.killForExit();
  });
  B.native(AccPublic | AccStatic, "identityHashCode", "(Ljava/lang/Object;)I",
           [](NativeContext &Ctx) {
             Ctx.setReturn(
                 Value::intVal(Ctx.Vm.identityHash(Ctx.Args[0].R)));
           });
  Klass *K = B.define(Vm);
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

/// Blocks the calling thread on a Doppio fs operation that completes
/// with no value (§4.2): \p Start(Fs, Done) begins it.
template <typename StartFn> void blockOnFs(NativeContext &Ctx, StartFn Start) {
  Jvm &TheVm = Ctx.Vm;
  Ctx.blockWithResult([&TheVm, Start](NativeCompletion Complete) {
    Start(TheVm.fs(), [Complete](std::optional<ApiError> E) {
      if (E)
        Complete(*E);
      else
        Complete(Value());
    });
  });
}

/// Reads the file named by Args[0] and completes with \p Wrap of its
/// bytes.
void readFileAs(NativeContext &Ctx,
                Value (*Wrap)(Jvm &, std::vector<uint8_t> &)) {
  std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
  Jvm &TheVm = Ctx.Vm;
  Ctx.blockWithResult([&TheVm, Path, Wrap](NativeCompletion Complete) {
    TheVm.fs().readFile(Path, [&TheVm, Complete,
                               Wrap](ErrorOr<std::vector<uint8_t>> R) {
      if (!R) {
        Complete(R.error());
        return;
      }
      Complete(Wrap(TheVm, *R));
    });
  });
}

void defineFiles(Jvm &Vm) {
  // The Doppio file API (stands in for java.io streams; DESIGN.md). Every
  // native blocks through the §4.2 bridge onto the asynchronous Doppio fs,
  // preserving JVM-level synchronous semantics (§6.3).
  Builtin B("doppio/io/Files");
  B.native(AccPublic | AccStatic, "readAllBytes", "(Ljava/lang/String;)[B",
           [](NativeContext &Ctx) {
             readFileAs(Ctx, [](Jvm &TheVm, std::vector<uint8_t> &Bytes) {
               return Value::ref(bytesToArray(TheVm, Bytes));
             });
           });
  B.native(AccPublic | AccStatic, "readString",
           "(Ljava/lang/String;)Ljava/lang/String;", [](NativeContext &Ctx) {
             readFileAs(Ctx, [](Jvm &TheVm, std::vector<uint8_t> &Bytes) {
               return Value::ref(
                   TheVm.newString(std::string(Bytes.begin(), Bytes.end())));
             });
           });
  B.native(AccPublic | AccStatic, "write", "(Ljava/lang/String;[B)V",
           [](NativeContext &Ctx) {
             std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
             if (!Ctx.Args[1].R) {
               Ctx.throwEx("java/lang/NullPointerException", "write");
               return;
             }
             std::vector<uint8_t> Bytes =
                 arrayToBytes(static_cast<ArrayObject *>(Ctx.Args[1].R));
             blockOnFs(Ctx, [Path, Bytes](rt::fs::FileSystem &Fs, auto Done) {
               Fs.writeFile(Path, Bytes, Done);
             });
           });
  B.native(AccPublic | AccStatic, "writeString",
           "(Ljava/lang/String;Ljava/lang/String;)V", [](NativeContext &Ctx) {
             std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
             std::string Text = strArg(Ctx.Vm, Ctx.Args[1]);
             blockOnFs(Ctx, [Path, Text](rt::fs::FileSystem &Fs, auto Done) {
               Fs.writeFile(
                   Path, std::vector<uint8_t>(Text.begin(), Text.end()),
                   Done);
             });
           });
  B.native(AccPublic | AccStatic, "exists", "(Ljava/lang/String;)Z",
           [](NativeContext &Ctx) {
             std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
             Jvm &TheVm = Ctx.Vm;
             Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
               // exists() always yields a success value (a failed stat
               // means "absent", not an error).
               TheVm.fs().exists(Path, [Complete](ErrorOr<bool> Exists) {
                 Complete(Value::intVal(*Exists ? 1 : 0));
               });
             });
           });
  B.native(
      AccPublic | AccStatic, "list", "(Ljava/lang/String;)[Ljava/lang/String;",
      [](NativeContext &Ctx) {
        std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
        Jvm &TheVm = Ctx.Vm;
        Ctx.blockWithResult([&TheVm, Path](NativeCompletion Complete) {
          TheVm.fs().readdir(
              Path, [&TheVm, Complete](ErrorOr<std::vector<std::string>> R) {
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
  B.native(AccPublic | AccStatic, "delete", "(Ljava/lang/String;)V",
           [](NativeContext &Ctx) {
             std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
             blockOnFs(Ctx, [Path](rt::fs::FileSystem &Fs, auto Done) {
               Fs.unlink(Path, Done);
             });
           });
  B.native(AccPublic | AccStatic, "mkdirs", "(Ljava/lang/String;)V",
           [](NativeContext &Ctx) {
             std::string Path = strArg(Ctx.Vm, Ctx.Args[0]);
             blockOnFs(Ctx, [Path](rt::fs::FileSystem &Fs, auto Done) {
               Fs.mkdirp(Path, Done);
             });
           });
  B.native(AccPublic | AccStatic, "size", "(Ljava/lang/String;)I",
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
  B.define(Vm);
}

void defineStdin(Jvm &Vm) {
  // Synchronous console input over asynchronous keyboard events: the
  // paper's §3.2 motivating example, made possible by §4.2. The "keyboard
  // event" arrives asynchronously; the guest blocks until it does.
  Builtin B("doppio/Stdin");
  B.native(
      AccPublic | AccStatic, "readLine", "()Ljava/lang/String;",
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
                Complete(
                    Value::ref(TheVm.newString(TheVm.process().popStdin())));
              },
              browser::msToNs(1));
        });
      });
  B.define(Vm);
}

void defineSystemIo(Jvm &Vm) {
  definePrintStream(Vm);
  defineSystem(Vm);
  defineFiles(Vm);
  defineStdin(Vm);
}

//===----------------------------------------------------------------------===//
// Numerics and math
//===----------------------------------------------------------------------===//

/// A static native from one double to one double.
void doubleFn(Builtin &B, const char *Name, double (*Fn)(double)) {
  B.native(AccPublic | AccStatic, Name, "(D)D", [Fn](NativeContext &Ctx) {
    Ctx.setReturn(Value::doubleVal(Fn(Ctx.Args[0].D)));
  });
}

/// A static native that parses its string argument with \p Parse, which
/// throws on malformed text (NumberFormatException).
void parser(Builtin &B, const char *Name, const char *Desc,
            Value (*Parse)(const std::string &)) {
  B.native(AccPublic | AccStatic, Name, Desc, [Parse](NativeContext &Ctx) {
    std::string S = strArg(Ctx.Vm, Ctx.Args[0]);
    try {
      Ctx.setReturn(Parse(S));
    } catch (...) {
      Ctx.throwEx("java/lang/NumberFormatException", S);
    }
  });
}

void defineNumericsAndMath(Jvm &Vm) {
  {
    Builtin B("java/lang/Math");
    doubleFn(B, "sqrt", [](double V) { return std::sqrt(V); });
    B.native(AccPublic | AccStatic, "pow", "(DD)D", [](NativeContext &Ctx) {
      Ctx.setReturn(
          Value::doubleVal(std::pow(Ctx.Args[0].D, Ctx.Args[1].D)));
    });
    doubleFn(B, "floor", [](double V) { return std::floor(V); });
    doubleFn(B, "ceil", [](double V) { return std::ceil(V); });
    B.native(AccPublic | AccStatic, "abs", "(I)I", [](NativeContext &Ctx) {
      int32_t V = Ctx.Args[0].I;
      Ctx.setReturn(Value::intVal(V < 0 ? -V : V));
    });
    B.native(AccPublic | AccStatic, "abs", "(J)J", [](NativeContext &Ctx) {
      int64_t V = longArg(Ctx.Args[0]);
      Ctx.setReturn(Value::longVal(V < 0 ? -V : V));
    });
    doubleFn(B, "abs", [](double V) { return std::abs(V); });
    B.native(AccPublic | AccStatic, "max", "(II)I", [](NativeContext &Ctx) {
      Ctx.setReturn(Value::intVal(std::max(Ctx.Args[0].I, Ctx.Args[1].I)));
    });
    B.native(AccPublic | AccStatic, "min", "(II)I", [](NativeContext &Ctx) {
      Ctx.setReturn(Value::intVal(std::min(Ctx.Args[0].I, Ctx.Args[1].I)));
    });
    doubleFn(B, "sin", [](double V) { return std::sin(V); });
    doubleFn(B, "cos", [](double V) { return std::cos(V); });
    B.define(Vm);
  }
  {
    Builtin B("java/lang/Integer");
    B.addField(AccPublic | AccStatic | AccFinal, "MAX_VALUE", "I");
    B.addField(AccPublic | AccStatic | AccFinal, "MIN_VALUE", "I");
    B.native(AccPublic | AccStatic, "toString", "(I)Ljava/lang/String;",
             [](NativeContext &Ctx) {
               returnString(Ctx, std::to_string(Ctx.Args[0].I));
             });
    B.native(AccPublic | AccStatic, "toHexString", "(I)Ljava/lang/String;",
             [](NativeContext &Ctx) {
               char Buf[16];
               snprintf(Buf, sizeof(Buf), "%x",
                        static_cast<uint32_t>(Ctx.Args[0].I));
               returnString(Ctx, Buf);
             });
    parser(B, "parseInt", "(Ljava/lang/String;)I", [](const std::string &S) {
      size_t Used = 0;
      long V = std::stol(S, &Used);
      if (Used != S.size() || V > INT32_MAX || V < INT32_MIN)
        throw std::invalid_argument(S);
      return Value::intVal(static_cast<int32_t>(V));
    });
    Klass *K = B.define(Vm);
    K->Statics["MAX_VALUE"] = Value::intVal(INT32_MAX);
    K->Statics["MIN_VALUE"] = Value::intVal(INT32_MIN);
    K->Init = Klass::InitState::Initialized;
  }
  {
    Builtin B("java/lang/Long");
    B.native(AccPublic | AccStatic, "toString", "(J)Ljava/lang/String;",
             [](NativeContext &Ctx) {
               returnString(Ctx, std::to_string(longArg(Ctx.Args[0])));
             });
    parser(B, "parseLong", "(Ljava/lang/String;)J", [](const std::string &S) {
      size_t Used = 0;
      long long V = std::stoll(S, &Used);
      if (Used != S.size())
        throw std::invalid_argument(S);
      return Value::longVal(static_cast<int64_t>(V));
    });
    B.define(Vm);
  }
  {
    Builtin B("java/lang/Double");
    B.native(AccPublic | AccStatic, "toString", "(D)Ljava/lang/String;",
             [](NativeContext &Ctx) {
               returnString(Ctx, std::to_string(Ctx.Args[0].D));
             });
    parser(B, "parseDouble", "(Ljava/lang/String;)D",
           [](const std::string &S) { return Value::doubleVal(std::stod(S)); });
    B.define(Vm);
  }
  {
    Builtin B("java/lang/Character");
    auto Test = [&B](const char *Name, bool (*Pred)(int32_t)) {
      B.native(AccPublic | AccStatic, Name, "(C)Z", [Pred](NativeContext &Ctx) {
        Ctx.setReturn(Value::intVal(Pred(Ctx.Args[0].I) ? 1 : 0));
      });
    };
    Test("isDigit", [](int32_t C) { return C >= '0' && C <= '9'; });
    Test("isLetter", [](int32_t C) {
      return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
    });
    Test("isWhitespace", [](int32_t C) {
      return C == ' ' || C == '\t' || C == '\n' || C == '\r';
    });
    B.define(Vm);
  }
}

//===----------------------------------------------------------------------===//
// Threads (§6.2)
//===----------------------------------------------------------------------===//

void defineThreading(Jvm &Vm) {
  Builtin B("java/lang/Thread");
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
  B.native(AccPublic, "start", "()V", [](NativeContext &Ctx) {
    Object *ThreadObj = Ctx.Args[0].R;
    if (ThreadObj->field("started").I != 0) {
      Ctx.throwEx("java/lang/IllegalThreadStateException", "already started");
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
  B.native(AccPublic, "join", "()V", [](NativeContext &Ctx) {
    JvmThread *Target = Ctx.Vm.threadForObject(Ctx.Args[0].R);
    if (!Target || Target->finished())
      return; // Already dead: join returns immediately.
    Target->JoinWaiters.push_back(Ctx.Thread.tid());
    Ctx.BlockedOnMonitor = true; // Resumed by noteThreadFinished.
  });
  B.native(AccPublic, "isAlive", "()Z", [](NativeContext &Ctx) {
    JvmThread *Target = Ctx.Vm.threadForObject(Ctx.Args[0].R);
    Ctx.setReturn(Value::intVal(Target && !Target->finished() ? 1 : 0));
  });
  B.native(AccPublic | AccStatic, "sleep", "(J)V", [](NativeContext &Ctx) {
    int64_t Ms = longArg(Ctx.Args[0]);
    Ctx.blockWithResult([&Ctx, Ms](NativeCompletion Complete) {
      // Thread.sleep is a timer wake-up, not I/O (sleep is
      // uninterruptible here, the handle is dropped).
      Ctx.Vm.env().loop().postAfter(
          kernel::Lane::Timer, [Complete] { Complete(Value()); },
          browser::msToNs(static_cast<uint64_t>(Ms < 0 ? 0 : Ms)));
    });
  });
  B.native(AccPublic | AccStatic, "yield", "()V", [](NativeContext &Ctx) {
    // Yield by bouncing through the Resume lane: other threads' pending
    // slices (FIFO ahead of this wake-up) run before this one resumes.
    // The Background lane would deadlock the pool under strict priority —
    // the pool's own drive chain lives on Resume and would starve the
    // bounce forever.
    Ctx.blockWithResult([&Ctx](NativeCompletion Complete) {
      Ctx.Vm.env().loop().post(kernel::Lane::Resume,
                               [Complete] { Complete(Value()); });
    });
  });
  B.native(AccPublic | AccStatic, "currentThread", "()Ljava/lang/Thread;",
           [](NativeContext &Ctx) {
             if (!Ctx.Thread.ThreadObj) {
               Klass *ThreadK = Ctx.Vm.loader().lookup("java/lang/Thread");
               Object *O = Ctx.Vm.allocObject(ThreadK);
               O->setField("started", Value::intVal(1));
               Ctx.Thread.ThreadObj = O;
             }
             Ctx.setReturn(Value::ref(Ctx.Thread.ThreadObj));
           });
  B.define(Vm);
}

//===----------------------------------------------------------------------===//
// Unsafe, JavaScript interop and sockets
//===----------------------------------------------------------------------===//

/// The unmanaged-heap address in an Unsafe native's first argument.
uint32_t address(NativeContext &Ctx) {
  return static_cast<uint32_t>(longArg(Ctx.Args[1]));
}

void defineUnsafe(Jvm &Vm) {
  // §6.5: sun.misc.Unsafe over the Doppio unmanaged heap.
  Builtin B("sun/misc/Unsafe");
  B.addField(AccPublic | AccStatic | AccFinal, "theUnsafe",
             "Lsun/misc/Unsafe;");
  B.addDefaultConstructor();
  B.native(AccPublic, "allocateMemory", "(J)J", [](NativeContext &Ctx) {
    uint32_t Addr = Ctx.Vm.heap().malloc(address(Ctx));
    if (Addr == 0) {
      Ctx.throwEx("java/lang/OutOfMemoryError", "unmanaged heap");
      return;
    }
    Ctx.setReturn(Value::longVal(static_cast<int64_t>(Addr)));
  });
  B.native(AccPublic, "freeMemory", "(J)V", [](NativeContext &Ctx) {
    Ctx.Vm.heap().free(address(Ctx));
  });
  B.native(AccPublic, "putByte", "(JB)V", [](NativeContext &Ctx) {
    Ctx.Vm.heap().writeInt8(address(Ctx), static_cast<int8_t>(Ctx.Args[2].I));
  });
  B.native(AccPublic, "getByte", "(J)B", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::intVal(Ctx.Vm.heap().readInt8(address(Ctx))));
  });
  B.native(AccPublic, "putInt", "(JI)V", [](NativeContext &Ctx) {
    Ctx.Vm.heap().writeInt32(address(Ctx), Ctx.Args[2].I);
  });
  B.native(AccPublic, "getInt", "(J)I", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::intVal(Ctx.Vm.heap().readInt32(address(Ctx))));
  });
  B.native(AccPublic, "putLong", "(JJ)V", [](NativeContext &Ctx) {
    Ctx.Vm.heap().writeInt64(address(Ctx), longArg(Ctx.Args[2]));
  });
  B.native(AccPublic, "getLong", "(J)J", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::longVal(Ctx.Vm.heap().readInt64(address(Ctx))));
  });
  B.native(AccPublic, "putDouble", "(JD)V", [](NativeContext &Ctx) {
    Ctx.Vm.heap().writeDouble(address(Ctx), Ctx.Args[2].D);
  });
  B.native(AccPublic, "getDouble", "(J)D", [](NativeContext &Ctx) {
    Ctx.setReturn(Value::doubleVal(Ctx.Vm.heap().readDouble(address(Ctx))));
  });
  B.native(AccPublic, "addressSize", "()I",
           [](NativeContext &Ctx) { Ctx.setReturn(Value::intVal(4)); });
  B.native(AccPublic, "pageSize", "()I",
           [](NativeContext &Ctx) { Ctx.setReturn(Value::intVal(4096)); });
  Klass *K = B.define(Vm);
  K->Statics["theUnsafe"] = Value::ref(Vm.allocObject(K));
  K->Init = Klass::InitState::Initialized;
}

void defineSocket(Jvm &Vm) {
  // §5.3 through §6.3: Unix-style socket natives over Doppio sockets
  // (WebSockets). The handle table lives in a shared_ptr captured by all
  // four natives.
  auto Sockets =
      std::make_shared<std::map<int32_t, std::unique_ptr<rt::DoppioSocket>>>();
  auto NextHandle = std::make_shared<int32_t>(1);
  Builtin B("doppio/net/Socket");
  B.native(
      AccPublic | AccStatic, "connect", "(I)I",
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
                       [Complete, Handle,
                        Sockets](std::optional<ApiError> E) {
                         if (E) {
                           Sockets->erase(Handle);
                           Complete(*E);
                           return;
                         }
                         Complete(Value::intVal(Handle));
                       });
        });
      });
  B.native(AccPublic | AccStatic, "send", "(I[B)V",
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
  B.native(AccPublic | AccStatic, "recv", "(I)[B",
           [Sockets](NativeContext &Ctx) {
             auto It = Sockets->find(Ctx.Args[0].I);
             if (It == Sockets->end()) {
               Ctx.throwEx("java/io/IOException", "bad socket");
               return;
             }
             rt::DoppioSocket *Sock = It->second.get();
             Jvm &TheVm = Ctx.Vm;
             Ctx.blockWithResult([&TheVm, Sock](NativeCompletion Complete) {
               Sock->recv([&TheVm,
                           Complete](ErrorOr<std::vector<uint8_t>> R) {
                 if (!R) {
                   Complete(R.error());
                   return;
                 }
                 Complete(Value::ref(bytesToArray(TheVm, *R)));
               });
             });
           });
  B.native(AccPublic | AccStatic, "close", "(I)V",
           [Sockets](NativeContext &Ctx) {
             auto It = Sockets->find(Ctx.Args[0].I);
             if (It != Sockets->end()) {
               It->second->close();
               Sockets->erase(It);
             }
           });
  B.define(Vm);
}

void defineUnsafeAndInterop(Jvm &Vm) {
  defineUnsafe(Vm);
  {
    // §6.8: JVM -> JavaScript interop.
    Builtin B("doppio/JS");
    B.native(AccPublic | AccStatic, "eval",
             "(Ljava/lang/String;)Ljava/lang/String;", [](NativeContext &Ctx) {
               const auto &Hook = Ctx.Vm.jsEval();
               if (!Hook) {
                 Ctx.throwEx("java/lang/UnsupportedOperationException",
                             "no JavaScript engine attached");
                 return;
               }
               returnString(Ctx, Hook(strArg(Ctx.Vm, Ctx.Args[0])));
             });
    B.define(Vm);
  }
  defineSocket(Vm);
}

} // namespace

void jvm::installCoreClasses(Jvm &Vm) {
  defineObjectAndCore(Vm);
  defineThrowables(Vm);
  defineSystemIo(Vm);
  defineNumericsAndMath(Vm);
  defineThreading(Vm);
  defineUnsafeAndInterop(Vm);
}
