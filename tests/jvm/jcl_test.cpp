//===- tests/jvm/jcl_test.cpp ---------------------------------------------==//
//
// The built-in class library (jcl.cpp) as a whole, in both execution
// modes: every builtin class file is pinned byte for byte, every declared
// native has a body, a native no builtin defines stays unbound, and the
// natives and class initialization refuse what the JVM specification
// refuses (System.arraycopy bounds, JVMS §5.5's erroneous state).
//
//===----------------------------------------------------------------------===//

#include "jvm_test_util.h"

#include "jvm/checkpoint.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <tuple>
#include <utility>

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

const char *Out = "Ljava/io/PrintStream;";

class Jcl : public ::testing::TestWithParam<ExecutionMode> {};

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 14695981039346656037ull;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 1099511628211ull;
  }
  return H;
}

MethodBuilder &mainOf(ClassBuilder &B) {
  return B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
}

/// Emits: System.out.println(<String on stack>).
void printlnString(MethodBuilder &M) {
  M.getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V");
}

/// Emits a handler body for a caught Throwable on the stack: prints its
/// class name, then its message, then returns.
void printCaught(MethodBuilder &M) {
  M.op(Op::Dup)
      .invokevirtual("java/lang/Object", "getClass", "()Ljava/lang/Class;")
      .invokevirtual("java/lang/Class", "getName", "()Ljava/lang/String;");
  printlnString(M);
  M.invokevirtual("java/lang/Throwable", "getMessage",
                  "()Ljava/lang/String;");
  printlnString(M);
}

/// Emits `try { <Body> } catch (<Catch> e) { print e }` and falls through
/// after either branch; a normal completion prints \p Completed.
template <typename BodyFn>
void tryPrint(MethodBuilder &M, const std::string &Catch, BodyFn Body,
              const char *Completed) {
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start);
  Body(M);
  M.bind(End).ldcString(Completed);
  printlnString(M);
  M.branch(Op::Goto, After);
  M.bind(Handler);
  printCaught(M);
  M.bind(After);
  M.handler(Start, End, Handler, Catch);
}

//===----------------------------------------------------------------------===//
// The library as data
//===----------------------------------------------------------------------===//

/// FNV-1a of writeClassFile() for every non-array class a fresh VM holds,
/// in the loader's (name) order. The class files carry every member in
/// declaration order, so a builtin whose methods, natives or fields move
/// fails here. ExceptionInInitializerError, defined on first use, is not
/// among them.
const std::pair<const char *, uint64_t> BuiltinClassPin[] = {
    {"doppio/JS", 6063573834468039789ull},
    {"doppio/Stdin", 3705457946785310889ull},
    {"doppio/io/Files", 18295924289607163462ull},
    {"doppio/net/Socket", 4658469171977256674ull},
    {"java/io/FileNotFoundException", 17718061800214987162ull},
    {"java/io/IOException", 8361059063334244328ull},
    {"java/io/PrintStream", 14952257633444519735ull},
    {"java/lang/AbstractMethodError", 5561754114326566775ull},
    {"java/lang/ArithmeticException", 6903379627527840113ull},
    {"java/lang/ArrayIndexOutOfBoundsException", 7637444353236219710ull},
    {"java/lang/ArrayStoreException", 17595773929110179361ull},
    {"java/lang/Character", 16100140105997530645ull},
    {"java/lang/Class", 2454443837604831700ull},
    {"java/lang/ClassCastException", 6655636541182140765ull},
    {"java/lang/ClassFormatError", 9486172567360411195ull},
    {"java/lang/ClassNotFoundException", 9068873868708803246ull},
    {"java/lang/Double", 13216559486037505990ull},
    {"java/lang/Error", 4598712729425013383ull},
    {"java/lang/Exception", 12480176780248061065ull},
    {"java/lang/IllegalArgumentException", 4152889429673945413ull},
    {"java/lang/IllegalMonitorStateException", 16198203706414132533ull},
    {"java/lang/IllegalStateException", 17561893227486869159ull},
    {"java/lang/IllegalThreadStateException", 4857934220514232155ull},
    {"java/lang/IndexOutOfBoundsException", 14119837376561415981ull},
    {"java/lang/InstantiationError", 5717306085646386091ull},
    {"java/lang/Integer", 1197201061978066321ull},
    {"java/lang/InterruptedException", 17320437614461547750ull},
    {"java/lang/LinkageError", 18375337456165676947ull},
    {"java/lang/Long", 9881299059573319137ull},
    {"java/lang/Math", 4012037131682067115ull},
    {"java/lang/NegativeArraySizeException", 16288578448308621921ull},
    {"java/lang/NoClassDefFoundError", 8437458259331511683ull},
    {"java/lang/NoSuchFieldError", 13227111967953129075ull},
    {"java/lang/NoSuchMethodError", 16197101632560390931ull},
    {"java/lang/NullPointerException", 8871140942838731293ull},
    {"java/lang/NumberFormatException", 2381603582785755500ull},
    {"java/lang/Object", 13638778394881068341ull},
    {"java/lang/OutOfMemoryError", 16595117729211005247ull},
    {"java/lang/Runnable", 14715962272607292570ull},
    {"java/lang/RuntimeException", 8228594013290391770ull},
    {"java/lang/StackOverflowError", 10775901052399746615ull},
    {"java/lang/String", 4539988241131392007ull},
    {"java/lang/StringBuilder", 4443913886803982233ull},
    {"java/lang/StringIndexOutOfBoundsException", 10716548836309840928ull},
    {"java/lang/System", 4062869826667369338ull},
    {"java/lang/Thread", 11495521823780604391ull},
    {"java/lang/Throwable", 5643878306805607639ull},
    {"java/lang/UnsatisfiedLinkError", 13942595524747934343ull},
    {"java/lang/UnsupportedOperationException", 15616962443639678717ull},
    {"java/lang/VerifyError", 11232143706843247467ull},
    {"sun/misc/Unsafe", 9768965133524535122ull},
};

TEST_P(Jcl, EveryBuiltinClassFileIsPinned) {
  JvmRig Rig(GetParam());
  std::vector<std::pair<std::string, uint64_t>> Got;
  for (Klass *K : Rig.vm().loader().loadedClasses())
    if (!K->IsArrayClass)
      Got.emplace_back(K->Name, fnv1a(writeClassFile(K->Cf)));
  std::vector<std::pair<std::string, uint64_t>> Want(
      std::begin(BuiltinClassPin), std::end(BuiltinClassPin));
  EXPECT_EQ(Got, Want);
}

TEST_P(Jcl, EveryBuiltinNativeHasABody) {
  JvmRig Rig(GetParam());
  size_t Natives = 0;
  for (Klass *K : Rig.vm().loader().loadedClasses())
    for (const std::unique_ptr<Method> &M : K->Methods)
      if (M->isNative()) {
        ++Natives;
        EXPECT_TRUE(M->Native) << M->qualifiedName();
      }
  EXPECT_EQ(Natives, 110u);
}

TEST_P(Jcl, UserNativesStayUnboundAndThrowUnsatisfiedLinkError) {
  // A user class's natives bind to nothing, even one whose name and
  // descriptor equal a library native's (Object.hashCode()I): only the
  // class that defines a native supplies its body.
  JvmRig Rig(GetParam());
  ClassBuilder Lib("Lib");
  Lib.addDefaultConstructor();
  Lib.nativeMethod(AccPublic | AccStatic, "madeUp", "()V");
  Lib.nativeMethod(AccPublic, "hashCode", "()I");
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  tryPrint(
      M, "java/lang/UnsatisfiedLinkError",
      [](MethodBuilder &T) { T.invokestatic("Lib", "madeUp", "()V"); },
      "madeUp returned");
  tryPrint(
      M, "java/lang/UnsatisfiedLinkError",
      [](MethodBuilder &T) {
        T.anew("Lib")
            .op(Op::Dup)
            .invokespecial("Lib", "<init>", "()V")
            .invokevirtual("Lib", "hashCode", "()I")
            .op(Op::Pop);
      },
      "hashCode returned");
  M.op(Op::Return);
  Rig.addClass(Lib);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
  EXPECT_EQ(Rig.out(), "java.lang.UnsatisfiedLinkError\nLib.madeUp()V\n"
                       "java.lang.UnsatisfiedLinkError\nLib.hashCode()I\n");
}

//===----------------------------------------------------------------------===//
// System.arraycopy bounds
//===----------------------------------------------------------------------===//

TEST_P(Jcl, ArraycopyBoundsDoNotOverflow) {
  // Positions plus a length near INT32_MAX overflow an int sum; each copy
  // must still be refused before it touches an element.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.iconst(4).newarray(ArrayType::Int).astore(1);
  M.iconst(4).newarray(ArrayType::Int).astore(2);
  for (std::tuple<int32_t, int32_t, int32_t> Copy :
       {std::tuple{1, 1, INT32_MAX}, std::tuple{INT32_MAX, 0, 1},
        std::tuple{0, INT32_MAX, 1}, std::tuple{4, 0, 1},
        std::tuple{3, 3, 1}}) {
    tryPrint(
        M, "java/lang/ArrayIndexOutOfBoundsException",
        [&Copy](MethodBuilder &T) {
          auto [SrcPos, DstPos, Len] = Copy;
          T.aload(1).iconst(SrcPos).aload(2).iconst(DstPos).iconst(Len);
          T.invokestatic("java/lang/System", "arraycopy",
                         "(Ljava/lang/Object;ILjava/lang/Object;II)V");
        },
        "copied");
  }
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
  std::string Refused =
      "java.lang.ArrayIndexOutOfBoundsException\narraycopy\n";
  EXPECT_EQ(Rig.out(), Refused + Refused + Refused + Refused + "copied\n");
}

//===----------------------------------------------------------------------===//
// A <clinit> that throws (JVMS §5.5)
//===----------------------------------------------------------------------===//

/// class Bad { static int x; static { x = 9; throw new <Thrown>("boom"); }
///             static void f() {} }
std::vector<uint8_t> badClass(const std::string &Thrown) {
  ClassBuilder Bad("Bad");
  Bad.addField(AccPublic | AccStatic, "x", "I");
  Bad.addDefaultConstructor();
  Bad.method(AccPublic | AccStatic, "f", "()V").op(Op::Return);
  Bad.method(AccStatic, "<clinit>", "()V")
      .iconst(9)
      .putstatic("Bad", "x", "I")
      .anew(Thrown)
      .op(Op::Dup)
      .ldcString("boom")
      .invokespecial(Thrown, "<init>", "(Ljava/lang/String;)V")
      .op(Op::Athrow);
  return Bad.bytes();
}

/// Main touches Bad once under a handler for \p FirstCatch, then through
/// getstatic, putstatic, invokestatic and new, each under a
/// NoClassDefFoundError handler.
std::vector<uint8_t> mainTouchingBad(const std::string &FirstCatch) {
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  tryPrint(
      M, FirstCatch,
      [](MethodBuilder &T) { T.getstatic("Bad", "x", "I").op(Op::Pop); },
      "first access completed");
  const char *NoDef = "java/lang/NoClassDefFoundError";
  tryPrint(
      M, NoDef,
      [](MethodBuilder &T) {
        T.getstatic("Bad", "x", "I")
            .invokestatic("java/lang/Integer", "toString",
                          "(I)Ljava/lang/String;");
        printlnString(T);
      },
      "getstatic completed");
  tryPrint(
      M, NoDef,
      [](MethodBuilder &T) { T.iconst(1).putstatic("Bad", "x", "I"); },
      "putstatic completed");
  tryPrint(
      M, NoDef, [](MethodBuilder &T) { T.invokestatic("Bad", "f", "()V"); },
      "invokestatic completed");
  tryPrint(
      M, NoDef,
      [](MethodBuilder &T) {
        T.anew("Bad")
            .op(Op::Dup)
            .invokespecial("Bad", "<init>", "()V")
            .op(Op::Pop);
      },
      "new completed");
  M.op(Op::Return);
  return B.bytes();
}

const char *NoDefLines = "java.lang.NoClassDefFoundError\nBad\n"
                         "java.lang.NoClassDefFoundError\nBad\n"
                         "java.lang.NoClassDefFoundError\nBad\n"
                         "java.lang.NoClassDefFoundError\nBad\n";

TEST_P(Jcl, ClinitExceptionLeavesTheClassErroneous) {
  for (const char *Profile : {"verified", "quick"}) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    ASSERT_TRUE(ExecProfile::parse(Profile, Rig.Options.Exec));
    std::vector<uint8_t> Bad = badClass("java/lang/IllegalStateException");
    std::vector<uint8_t> Main =
        mainTouchingBad("java/lang/ExceptionInInitializerError");
    Rig.addClassBytes("Bad", Bad);
    Rig.addClassBytes("Main", Main);
    EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
    EXPECT_EQ(Rig.out(),
              std::string("java.lang.ExceptionInInitializerError\n"
                          "java/lang/IllegalStateException: boom\n") +
                  NoDefLines);
    EXPECT_EQ(Rig.vm().loader().lookup("Bad")->Init,
              Klass::InitState::Erroneous);
  }
}

TEST_P(Jcl, ClinitErrorPropagatesUnwrapped) {
  // An Error thrown by <clinit> reaches the caller as itself.
  JvmRig Rig(GetParam());
  std::vector<uint8_t> Bad = badClass("java/lang/LinkageError");
  std::vector<uint8_t> Main = mainTouchingBad("java/lang/LinkageError");
  Rig.addClassBytes("Bad", Bad);
  Rig.addClassBytes("Main", Main);
  EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
  EXPECT_EQ(Rig.out(), std::string("java.lang.LinkageError\nboom\n") +
                           NoDefLines);
}

TEST_P(Jcl, ErroneousStateCrossesACheckpointAndForgedStatesAreRefused) {
  JvmRig Src(GetParam());
  std::vector<uint8_t> Bad = badClass("java/lang/IllegalStateException");
  std::vector<uint8_t> Main = mainTouchingBad("java/lang/Throwable");
  Src.addClassBytes("Bad", Bad);
  Src.addClassBytes("Main", Main);
  ASSERT_EQ(Src.run("Main"), 0) << Src.err();
  rt::ErrorOr<std::vector<uint8_t>> Image = serializeJvm(Src.vm());
  ASSERT_TRUE(Image.ok()) << Image.error().message();

  // The class table entry of Bad: u32 name length, the name, init u8.
  const std::vector<uint8_t> Entry = {0, 0, 0, 3, 'B', 'a', 'd'};
  auto It = std::search(Image->begin(), Image->end(), Entry.begin(),
                        Entry.end());
  ASSERT_NE(It, Image->end());
  size_t InitAt = static_cast<size_t>(It - Image->begin()) + Entry.size();
  EXPECT_EQ((*Image)[InitAt], 3u) << "Erroneous is state 3";

  for (uint8_t Init : {uint8_t(3), uint8_t(4), uint8_t(0xff)}) {
    SCOPED_TRACE(static_cast<int>(Init));
    std::vector<uint8_t> Forged = *Image;
    Forged[InitAt] = Init;
    JvmRig Dst(GetParam());
    Dst.addClassBytes("Bad", Bad);
    Dst.addClassBytes("Main", Main);
    std::optional<rt::ErrorOr<bool>> Result;
    restoreJvm(Dst.vm(), Forged, [](int) {},
               [&](rt::ErrorOr<bool> R) { Result = std::move(R); });
    Dst.Env.loop().run();
    ASSERT_TRUE(Result.has_value());
    if (Init == 3) {
      EXPECT_TRUE(Result->ok());
      EXPECT_EQ(Dst.vm().loader().lookup("Bad")->Init,
                Klass::InitState::Erroneous);
      continue;
    }
    ASSERT_FALSE(Result->ok());
    EXPECT_EQ(Result->error().Code, rt::Errno::Io);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, Jcl,
                         ::testing::Values(ExecutionMode::DoppioJS,
                                           ExecutionMode::NativeHotspot),
                         [](const auto &Info) {
                           return std::string(
                               executionModeName(Info.param));
                         });

} // namespace
