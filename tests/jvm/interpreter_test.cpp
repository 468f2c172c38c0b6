//===- tests/jvm/interpreter_test.cpp -------------------------------------==//
//
// End-to-end interpreter tests, parameterized over both execution modes
// (the paper's system and its HotSpot-interpreter baseline): identical
// observable behaviour is itself the §7.1 completeness claim in miniature.
//
//===----------------------------------------------------------------------===//

#include "jvm_test_util.h"

#include "jvm/checkpoint.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

const char *PrintlnI = "(I)V";
const char *Out = "Ljava/io/PrintStream;";

/// Starts a main method builder that is expected to end with Return.
MethodBuilder &mainOf(ClassBuilder &B) {
  return B.method(AccPublic | AccStatic, "main",
                  "([Ljava/lang/String;)V");
}

/// Emits: System.out.println(<int on stack>).
void printlnInt(MethodBuilder &M) {
  // Stack: ..., value -> print it. getstatic pushes the stream, so swap.
  M.getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println", PrintlnI);
}

/// Emits: System.out.println(<long on stack>).
void printlnLong(MethodBuilder &M) {
  M.invokestatic("java/lang/Long", "toString", "(J)Ljava/lang/String;")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V");
}

class BothModes : public ::testing::TestWithParam<ExecutionMode> {};

/// The profiles the call-path edge cases run under: the default, whose
/// invokes keep their base forms, and `quick`, whose invokes quicken on
/// first execution and reach the same fallbacks (natives, monitors,
/// array growth, StackOverflowError, <clinit>, AbstractMethodError) from
/// the quickened handlers.
constexpr const char *CallPathProfiles[] = {"verified", "quick"};

void useProfile(JvmRig &Rig, const char *Spec) {
  ASSERT_TRUE(ExecProfile::parse(Spec, Rig.Options.Exec)) << Spec;
}

TEST_P(BothModes, ArithmeticAndPrintln) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.iconst(6).iconst(7).op(Op::Imul);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "42\n");
}

TEST_P(BothModes, IntegerOverflowWraps) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.iconst(INT32_MAX).iconst(1).op(Op::Iadd);
  printlnInt(M);
  M.iconst(INT32_MIN).iconst(-1).op(Op::Imul); // MIN * -1 wraps to MIN.
  printlnInt(M);
  M.iconst(123456789).iconst(987654321).op(Op::Imul);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "-2147483648\n-2147483648\n-67153019\n");
}

TEST_P(BothModes, LoopsAndConditionals) {
  // Sum of 1..100 via a while loop.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1); // sum
  M.iconst(1).istore(2); // i
  M.bind(Loop)
      .iload(2)
      .iconst(100)
      .branch(Op::IfIcmpgt, Done)
      .iload(1)
      .iload(2)
      .op(Op::Iadd)
      .istore(1)
      .iinc(2, 1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .iload(1);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "5050\n");
}

TEST_P(BothModes, StaticMethodCallsAndRecursion) {
  // fib(15) = 610, doubly recursive.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &Fib = B.method(AccPublic | AccStatic, "fib", "(I)I");
  MethodBuilder::Label Recurse = Fib.newLabel();
  Fib.iload(0)
      .iconst(2)
      .branch(Op::IfIcmpge, Recurse)
      .iload(0)
      .op(Op::Ireturn)
      .bind(Recurse)
      .iload(0)
      .iconst(1)
      .op(Op::Isub)
      .invokestatic("Main", "fib", "(I)I")
      .iload(0)
      .iconst(2)
      .op(Op::Isub)
      .invokestatic("Main", "fib", "(I)I")
      .op(Op::Iadd)
      .op(Op::Ireturn);
  MethodBuilder &M = mainOf(B);
  M.iconst(15).invokestatic("Main", "fib", "(I)I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "610\n");
}

TEST_P(BothModes, LongArithmeticSoftwareVsHardware) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.lconst(123456789012345ll).lconst(987654321ll).op(Op::Ladd);
  printlnLong(M);
  M.lconst(1ll << 40).lconst(3).op(Op::Lmul);
  printlnLong(M);
  M.lconst(-1000000000000ll).lconst(7).op(Op::Ldiv);
  printlnLong(M);
  M.lconst(-1000000000000ll).lconst(7).op(Op::Lrem);
  printlnLong(M);
  M.lconst(1).iconst(62).op(Op::Lshl);
  printlnLong(M);
  M.lconst(-8).iconst(1).op(Op::Lshr);
  printlnLong(M);
  M.lconst(-8).iconst(1).op(Op::Lushr);
  printlnLong(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "123457776666666\n3298534883328\n-142857142857\n"
                       "-1\n4611686018427387904\n-4\n9223372036854775804\n");
}

// Alternates ldiv and lrem on the same and on different pairs (word,
// negative, multi-digit and MIN operands, one pair divided in a callee),
// and throws one ArithmeticException between two divisions of the same
// pair. Both modes must print exactly what hardware int64 computes.
TEST(LongDivision, AlternatingDivRemMatchesHardwareInBothModes) {
  const int64_t Min = INT64_MIN;
  struct Step {
    int64_t A, B;
    Op O;
  };
  const Step Before[] = {
      {1000000007, 97, Op::Ldiv},     {1000000007, 97, Op::Lrem},
      {-1000000007, 97, Op::Lrem},    {-1000000007, 97, Op::Ldiv},
      {1000000007, -97, Op::Ldiv},    {-1000000007, -97, Op::Lrem},
      {Min, -1, Op::Ldiv},            {Min, -1, Op::Lrem},
      {Min, 3, Op::Lrem},             {3, Min, Op::Lrem},
      {Min, 3, Op::Ldiv},             {Min, Min, Op::Ldiv},
      {0x100000005ll, 0xFFFFFFFFll, Op::Ldiv},
      {0x100000005ll, 0xFFFFFFFEll, Op::Ldiv},
      {0x100000005ll, 0xFFFFFFFFll, Op::Lrem},
      {-0x7654321ll, 0x10000ll, Op::Ldiv}};
  // After the zero divisor: the same pair again, its remainder first.
  const Step After[] = {{-0x7654321ll, 0x10000ll, Op::Lrem},
                        {-0x7654321ll, 0x10000ll, Op::Ldiv}};
  auto Hardware = [](const Step &S) {
    if (S.A == INT64_MIN && S.B == -1)
      return S.O == Op::Ldiv ? S.A : 0;
    return S.O == Op::Ldiv ? S.A / S.B : S.A % S.B;
  };
  std::string Want;
  for (const Step &S : Before)
    Want += std::to_string(Hardware(S)) + "\n";
  Want += "/ by zero\n";
  for (const Step &S : After)
    Want += std::to_string(Hardware(S)) + "\n";
  Want += std::to_string(Hardware({Min, 7, Op::Ldiv})) + "\n" +
          std::to_string(Hardware({Min, 7, Op::Lrem})) + "\n";

  std::string Outputs[2];
  ExecutionMode Modes[2] = {ExecutionMode::DoppioJS,
                            ExecutionMode::NativeHotspot};
  for (int I = 0; I != 2; ++I) {
    JvmRig Rig(Modes[I]);
    ClassBuilder B("Main");
    MethodBuilder &Rem = B.method(AccPublic | AccStatic, "rem", "(JJ)J");
    Rem.lload(0).lload(2).op(Op::Lrem).op(Op::Lreturn);
    MethodBuilder &M = mainOf(B);
    auto Emit = [&M](const Step &S) {
      M.lconst(S.A).lconst(S.B).op(S.O);
      printlnLong(M);
    };
    for (const Step &S : Before)
      Emit(S);
    MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                         Handler = M.newLabel(), Done = M.newLabel();
    M.bind(Start)
        .lconst(-0x7654321ll)
        .lconst(0)
        .op(Op::Ldiv)
        .op(Op::Pop2)
        .bind(End)
        .branch(Op::Goto, Done)
        .bind(Handler)
        .invokevirtual("java/lang/Throwable", "getMessage",
                       "()Ljava/lang/String;")
        .getstatic("java/lang/System", "out", Out)
        .op(Op::Swap)
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V")
        .bind(Done)
        .handler(Start, End, Handler, "java/lang/ArithmeticException");
    for (const Step &S : After)
      Emit(S);
    // A quotient here, its remainder in a callee's frame.
    Emit({Min, 7, Op::Ldiv});
    M.lconst(Min).lconst(7).invokestatic("Main", "rem", "(JJ)J");
    printlnLong(M);
    M.op(Op::Return);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0);
    Outputs[I] = Rig.out();
  }
  EXPECT_EQ(Outputs[0], Want);
  EXPECT_EQ(Outputs[1], Outputs[0]);
}

TEST_P(BothModes, LongComparisonDrivesControlFlow) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Less = M.newLabel(), End = M.newLabel();
  M.lconst(0x123456789ll)
      .lconst(0x123456790ll)
      .op(Op::Lcmp)
      .branch(Op::Iflt, Less)
      .iconst(0);
  printlnInt(M);
  M.branch(Op::Goto, End).bind(Less).iconst(1);
  printlnInt(M);
  M.bind(End).op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "1\n");
}

TEST_P(BothModes, FloatsAndDoubles) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // (int)(2.5 * 4.0) == 10
  M.dconst(2.5).dconst(4.0).op(Op::Dmul).op(Op::D2i);
  printlnInt(M);
  // float comparison: 1.5f > 1.0f
  MethodBuilder::Label True1 = M.newLabel(), End1 = M.newLabel();
  M.fconst(1.5f)
      .fconst(1.0f)
      .op(Op::Fcmpl)
      .branch(Op::Ifgt, True1)
      .iconst(0)
      .branch(Op::Goto, End1)
      .bind(True1)
      .iconst(1)
      .bind(End1);
  printlnInt(M);
  // Math.sqrt(144.0) -> 12
  M.dconst(144.0)
      .invokestatic("java/lang/Math", "sqrt", "(D)D")
      .op(Op::D2i);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "10\n1\n12\n");
}

TEST_P(BothModes, ArraysAndArraycopy) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // int[] a = new int[5]; a[i] = i*i; sum
  MethodBuilder::Label Fill = M.newLabel(), Sum = M.newLabel(),
                       Done = M.newLabel();
  M.iconst(5).newarray(ArrayType::Int).astore(1);
  M.iconst(0).istore(2);
  M.bind(Fill)
      .iload(2)
      .iconst(5)
      .branch(Op::IfIcmpge, Sum)
      .aload(1)
      .iload(2)
      .iload(2)
      .iload(2)
      .op(Op::Imul)
      .op(Op::Iastore)
      .iinc(2, 1)
      .branch(Op::Goto, Fill);
  M.bind(Sum).iconst(0).istore(3).iconst(0).istore(2);
  MethodBuilder::Label Loop2 = M.newLabel();
  M.bind(Loop2)
      .iload(2)
      .aload(1)
      .op(Op::Arraylength)
      .branch(Op::IfIcmpge, Done)
      .iload(3)
      .aload(1)
      .iload(2)
      .op(Op::Iaload)
      .op(Op::Iadd)
      .istore(3)
      .iinc(2, 1)
      .branch(Op::Goto, Loop2);
  M.bind(Done).iload(3);
  printlnInt(M); // 0+1+4+9+16 = 30
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "30\n");
}

TEST_P(BothModes, MultiDimensionalArrays) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // int[][] m = new int[3][4]; m[2][3] = 77; print m[2][3] and m[0][0].
  M.iconst(3).iconst(4).multianewarray("[[I", 2).astore(1);
  M.aload(1).iconst(2).op(Op::Aaload).iconst(3).iconst(77).op(Op::Iastore);
  M.aload(1).iconst(2).op(Op::Aaload).iconst(3).op(Op::Iaload);
  printlnInt(M);
  M.aload(1).iconst(0).op(Op::Aaload).iconst(0).op(Op::Iaload);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "77\n0\n");
}

TEST_P(BothModes, ObjectsFieldsAndVirtualDispatch) {
  JvmRig Rig(GetParam());
  // class Animal { int legs() { return 4; } }
  ClassBuilder Animal("Animal");
  Animal.addDefaultConstructor();
  Animal.method(AccPublic, "legs", "()I").iconst(4).op(Op::Ireturn);
  // class Bird extends Animal { int legs() { return 2; } }
  ClassBuilder Bird("Bird", "Animal");
  Bird.addDefaultConstructor();
  Bird.method(AccPublic, "legs", "()I").iconst(2).op(Op::Ireturn);
  // main: Animal a = new Bird(); print a.legs() + new Animal().legs()
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.anew("Bird")
      .op(Op::Dup)
      .invokespecial("Bird", "<init>", "()V")
      .invokevirtual("Animal", "legs", "()I")
      .anew("Animal")
      .op(Op::Dup)
      .invokespecial("Animal", "<init>", "()V")
      .invokevirtual("Animal", "legs", "()I")
      .op(Op::Iadd);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(Animal);
  Rig.addClass(Bird);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "6\n");
}

TEST_P(BothModes, InstanceFieldsAndCounters) {
  JvmRig Rig(GetParam());
  ClassBuilder Counter("Counter");
  Counter.addField(AccPrivate, "count", "I");
  Counter.addDefaultConstructor();
  MethodBuilder &Inc = Counter.method(AccPublic, "inc", "()V");
  Inc.aload(0)
      .aload(0)
      .getfield("Counter", "count", "I")
      .iconst(1)
      .op(Op::Iadd)
      .putfield("Counter", "count", "I")
      .op(Op::Return);
  MethodBuilder &Get = Counter.method(AccPublic, "get", "()I");
  Get.aload(0).getfield("Counter", "count", "I").op(Op::Ireturn);

  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.anew("Counter")
      .op(Op::Dup)
      .invokespecial("Counter", "<init>", "()V")
      .astore(1)
      .iconst(0)
      .istore(2)
      .bind(Loop)
      .iload(2)
      .iconst(10)
      .branch(Op::IfIcmpge, Done)
      .aload(1)
      .invokevirtual("Counter", "inc", "()V")
      .iinc(2, 1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .aload(1)
      .invokevirtual("Counter", "get", "()I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(Counter);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "10\n");
}

TEST_P(BothModes, InterfacesAndInvokeinterface) {
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder Shape("Shape");
    Shape.setAccess(AccPublic | AccInterface | AccAbstract);
    Shape.abstractMethod(AccPublic, "area", "()I");
    ClassBuilder Square("Square");
    Square.addInterface("Shape");
    Square.addField(AccPrivate, "side", "I");
    Square.addDefaultConstructor();
    MethodBuilder &SetSide = Square.method(AccPublic, "setSide", "(I)V");
    SetSide.aload(0).iload(1).putfield("Square", "side", "I").op(Op::Return);
    MethodBuilder &Area = Square.method(AccPublic, "area", "()I");
    Area.aload(0)
        .getfield("Square", "side", "I")
        .aload(0)
        .getfield("Square", "side", "I")
        .op(Op::Imul)
        .op(Op::Ireturn);
    ClassBuilder B("Main");
    MethodBuilder &M = mainOf(B);
    M.anew("Square")
        .op(Op::Dup)
        .invokespecial("Square", "<init>", "()V")
        .astore(1)
        .aload(1)
        .iconst(9)
        .invokevirtual("Square", "setSide", "(I)V")
        .aload(1)
        .invokeinterface("Shape", "area", "()I");
    printlnInt(M);
    // instanceof through the interface.
    M.aload(1).instanceOf("Shape");
    printlnInt(M);
    M.op(Op::Return);
    Rig.addClass(Shape);
    Rig.addClass(Square);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0);
    EXPECT_EQ(Rig.out(), "81\n1\n");
  }
}

TEST_P(BothModes, StaticFieldsAndClinit) {
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder Config("Config");
    Config.addField(AccPublic | AccStatic, "magic", "I");
    MethodBuilder &Clinit =
        Config.method(AccStatic, "<clinit>", "()V");
    Clinit.iconst(1234)
        .putstatic("Config", "magic", "I")
        .getstatic("java/lang/System", "out", Out)
        .ldcString("clinit ran")
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V")
        .op(Op::Return);
    ClassBuilder B("Main");
    MethodBuilder &M = mainOf(B);
    // Two reads: <clinit> must run exactly once.
    M.getstatic("Config", "magic", "I");
    printlnInt(M);
    M.getstatic("Config", "magic", "I");
    printlnInt(M);
    M.op(Op::Return);
    Rig.addClass(Config);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0);
    EXPECT_EQ(Rig.out(), "clinit ran\n1234\n1234\n");
  }
}

TEST_P(BothModes, StringsAndStringBuilder) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  const char *SB = "Ljava/lang/StringBuilder;";
  M.anew("java/lang/StringBuilder")
      .op(Op::Dup)
      .invokespecial("java/lang/StringBuilder", "<init>", "()V")
      .ldcString("x=")
      .invokevirtual("java/lang/StringBuilder", "append",
                     ("(Ljava/lang/String;)" + std::string(SB)))
      .iconst(42)
      .invokevirtual("java/lang/StringBuilder", "append",
                     ("(I)" + std::string(SB)))
      .ldcString(", y=")
      .invokevirtual("java/lang/StringBuilder", "append",
                     ("(Ljava/lang/String;)" + std::string(SB)))
      .dconst(1.5)
      .invokevirtual("java/lang/StringBuilder", "append",
                     ("(D)" + std::string(SB)))
      .invokevirtual("java/lang/StringBuilder", "toString",
                     "()Ljava/lang/String;")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V");
  // String methods: length, charAt, substring, equals, intern identity.
  M.ldcString("doppio")
      .invokevirtual("java/lang/String", "length", "()I");
  printlnInt(M);
  M.ldcString("doppio")
      .iconst(1)
      .invokevirtual("java/lang/String", "charAt", "(I)C");
  printlnInt(M); // 'o' = 111
  M.ldcString("breaking the barrier")
      .iconst(9)
      .iconst(12)
      .invokevirtual("java/lang/String", "substring",
                     "(II)Ljava/lang/String;")
      .ldcString("the")
      .invokevirtual("java/lang/String", "equals",
                     "(Ljava/lang/Object;)Z");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "x=42, y=1.500000\n6\n111\n1\n");
}

TEST_P(BothModes, ExceptionsCaughtBySubtype) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start)
      .iconst(10)
      .iconst(0)
      .op(Op::Idiv) // Throws ArithmeticException.
      .op(Op::Pop)
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler) // Catches java/lang/Exception (a supertype).
      .invokevirtual("java/lang/Throwable", "getMessage",
                     "()Ljava/lang/String;")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .bind(After)
      .op(Op::Return)
      .handler(Start, End, Handler, "java/lang/Exception");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "/ by zero\n");
}

TEST_P(BothModes, ExceptionsUnwindAcrossFrames) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  // thrower(): throws ArrayIndexOutOfBounds deep in a call chain.
  MethodBuilder &Deep = B.method(AccPublic | AccStatic, "deep", "()I");
  Deep.iconst(1)
      .newarray(ArrayType::Int)
      .iconst(5)
      .op(Op::Iaload)
      .op(Op::Ireturn);
  MethodBuilder &Mid = B.method(AccPublic | AccStatic, "mid", "()I");
  Mid.invokestatic("Main", "deep", "()I").op(Op::Ireturn);
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start)
      .invokestatic("Main", "mid", "()I")
      .op(Op::Pop)
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(-7);
  printlnInt(M);
  M.bind(After).op(Op::Return).handler(
      Start, End, Handler, "java/lang/ArrayIndexOutOfBoundsException");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "-7\n");
}

TEST_P(BothModes, UserThrownExceptionsWithAthrow) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start)
      .anew("java/lang/IllegalStateException")
      .op(Op::Dup)
      .ldcString("custom failure")
      .invokespecial("java/lang/IllegalStateException", "<init>",
                     "(Ljava/lang/String;)V")
      .op(Op::Athrow)
      .bind(End)
      .bind(Handler)
      .invokevirtual("java/lang/Throwable", "getMessage",
                     "()Ljava/lang/String;")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .bind(After)
      .op(Op::Return)
      .handler(Start, End, Handler, "java/lang/IllegalStateException");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "custom failure\n");
}

TEST_P(BothModes, UncaughtExceptionExitsWithError) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.aconstNull()
      .invokevirtual("java/lang/Object", "hashCode", "()I")
      .op(Op::Pop)
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 1);
  EXPECT_NE(Rig.err().find("java/lang/NullPointerException"),
            std::string::npos);
  EXPECT_NE(Rig.err().find("Main.main"), std::string::npos)
      << "stack trace should name the frame (§6.1)";
}

TEST_P(BothModes, UncaughtTraceListsEveryFrameItUnwound) {
  // static void c() { throw new IllegalStateException("deep"); }
  // static void b() { c(); }  static void a() { b(); }
  // main: try { a(); } catch (IllegalStateException e) {}  a();
  // The first throw is caught in main after unwinding three frames; the
  // second is uncaught, and its trace lists its own four frames, top
  // first, each at the pc it stopped at.
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder B("Main");
    B.method(AccPublic | AccStatic, "c", "()V")
        .anew("java/lang/IllegalStateException")
        .op(Op::Dup)
        .ldcString("deep")
        .invokespecial("java/lang/IllegalStateException", "<init>",
                       "(Ljava/lang/String;)V")
        .op(Op::Athrow);
    B.method(AccPublic | AccStatic, "b", "()V")
        .invokestatic("Main", "c", "()V")
        .op(Op::Return);
    B.method(AccPublic | AccStatic, "a", "()V")
        .invokestatic("Main", "b", "()V")
        .op(Op::Return);
    MethodBuilder &M = mainOf(B);
    MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                         Handler = M.newLabel(), After = M.newLabel();
    M.bind(Start)
        .invokestatic("Main", "a", "()V")
        .branch(Op::Goto, After)
        .bind(End);
    M.bind(Handler).op(Op::Pop);
    M.bind(After).invokestatic("Main", "a", "()V").op(Op::Return);
    M.handler(Start, End, Handler, "java/lang/IllegalStateException");
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 1);
    EXPECT_EQ(Rig.out(), "");
    EXPECT_EQ(Rig.err(),
              "Exception in thread \"jvm-thread-0\" "
              "java/lang/IllegalStateException: deep\n"
              "\tat Main.c()V (pc=9)\n"
              "\tat Main.b()V (pc=3)\n"
              "\tat Main.a()V (pc=3)\n"
              "\tat Main.main([Ljava/lang/String;)V (pc=10)\n");
  }
}

/// Emits: System.out.println(\p Text), with the stack left as it was.
void printlnText(MethodBuilder &M, const char *Text) {
  M.getstatic("java/lang/System", "out", Out)
      .ldcString(Text)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V");
}

/// Emits: throw new IllegalStateException(\p Text).
void throwIllegalState(MethodBuilder &M, const char *Text) {
  M.anew("java/lang/IllegalStateException")
      .op(Op::Dup)
      .ldcString(Text)
      .invokespecial("java/lang/IllegalStateException", "<init>",
                     "(Ljava/lang/String;)V")
      .op(Op::Athrow);
}

/// Runs a program whose exception handlers sit next to a call that throws
/// IllegalStateException, once per invoke kind (invokestatic,
/// invokevirtual, invokeinterface), and returns what it printed. A
/// caller's pc during a call is the return address, so the handler search
/// must test a caller frame one byte back, inside its invoke. javac's
/// try { f(); } covers exactly [invoke, invoke + length).
///  - \p Cover: a range over only the invoke, whose handler prints
///    "caught";
///  - otherwise: a range starting right after the invoke, whose handler
///    prints "wrong", inside a range over the whole method, whose handler
///    prints "escaped".
std::string runHandlerNextToAThrowingCall(ExecutionMode Mode,
                                          const char *Profile, bool Cover) {
  JvmRig Rig(Mode);
  useProfile(Rig, Profile);
  ClassBuilder Boom("Boom");
  Boom.setAccess(AccPublic | AccInterface | AccAbstract);
  Boom.abstractMethod(AccPublic, "i", "()V");
  ClassBuilder Thrower("Thrower");
  Thrower.addInterface("Boom");
  Thrower.addDefaultConstructor();
  throwIllegalState(Thrower.method(AccPublic | AccStatic, "s", "()V"), "s");
  throwIllegalState(Thrower.method(AccPublic, "v", "()V"), "v");
  throwIllegalState(Thrower.method(AccPublic, "i", "()V"), "i");

  const char *Ise = "java/lang/IllegalStateException";
  ClassBuilder B("Main");
  MethodBuilder &Main = mainOf(B);
  for (char Kind : {'s', 'v', 'i'}) {
    std::string Name = std::string("call") + Kind;
    MethodBuilder &M = B.method(AccPublic | AccStatic, Name, "()V");
    MethodBuilder::Label All = M.newLabel(), Start = M.newLabel(),
                         End = M.newLabel(), Next = M.newLabel(),
                         NextEnd = M.newLabel(), Caught = M.newLabel(),
                         Wrong = M.newLabel(), Escaped = M.newLabel();
    M.bind(All);
    if (Kind != 's')
      M.anew("Thrower").op(Op::Dup).invokespecial("Thrower", "<init>",
                                                  "()V");
    M.bind(Start);
    if (Kind == 's')
      M.invokestatic("Thrower", "s", "()V");
    else if (Kind == 'v')
      M.invokevirtual("Thrower", "v", "()V");
    else
      M.invokeinterface("Boom", "i", "()V");
    M.bind(End).bind(Next).op(Op::Nop).bind(NextEnd).op(Op::Return);
    for (auto [Handler, Text] : {std::pair{Caught, "caught"},
                                 std::pair{Wrong, "wrong"},
                                 std::pair{Escaped, "escaped"}}) {
      M.bind(Handler).op(Op::Pop);
      printlnText(M, Text);
      M.op(Op::Return);
    }
    if (Cover)
      M.handler(Start, End, Caught, Ise);
    else
      M.handler(Next, NextEnd, Wrong, Ise).handler(All, NextEnd, Escaped, Ise);
    Main.invokestatic("Main", Name, "()V");
  }
  Main.op(Op::Return);
  Rig.addClass(Boom);
  Rig.addClass(Thrower);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
  return Rig.out();
}

TEST_P(BothModes, HandlerRangeOverTheInvokeCatchesTheCallee) {
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    EXPECT_EQ(runHandlerNextToAThrowingCall(GetParam(), Profile, true),
              "caught\ncaught\ncaught\n");
  }
}

TEST_P(BothModes, HandlerRangeAfterTheInvokeMissesTheCallee) {
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    EXPECT_EQ(runHandlerNextToAThrowingCall(GetParam(), Profile, false),
              "escaped\nescaped\nescaped\n");
  }
}

TEST_P(BothModes, ClinitExceptionMatchesItsTriggeringInstruction) {
  // A frame below a popped <clinit> is still at the getstatic that
  // triggered it, so a range covering only that getstatic catches what
  // <clinit> throws, wrapped in ExceptionInInitializerError (JVMS §5.5).
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder Bad("Bad");
    Bad.addField(AccPublic | AccStatic, "x", "I");
    throwIllegalState(Bad.method(AccStatic, "<clinit>", "()V"), "clinit");
    ClassBuilder B("Main");
    MethodBuilder &M = mainOf(B);
    MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                         Handler = M.newLabel();
    M.bind(Start).getstatic("Bad", "x", "I").bind(End).op(Op::Pop).op(
        Op::Return);
    M.bind(Handler).invokevirtual("java/lang/Throwable", "getMessage",
                                  "()Ljava/lang/String;");
    M.getstatic("java/lang/System", "out", Out)
        .op(Op::Swap)
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V")
        .op(Op::Return)
        .handler(Start, End, Handler,
                 "java/lang/ExceptionInInitializerError");
    Rig.addClass(Bad);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
    EXPECT_EQ(Rig.out(), "java/lang/IllegalStateException: clinit\n");
  }
}

TEST_P(BothModes, FieldsResolveByNameThroughTheReceiversClass) {
  // class Base { int shadowed; }  class Derived extends Base { int shadowed; }
  // A Derived object has one field of that name, whichever class a
  // reference names; a field no class in the chain declares is a
  // NoSuchFieldError for getfield and putfield alike.
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder Base("Base");
    Base.addField(AccPublic, "shadowed", "I");
    Base.addDefaultConstructor();
    ClassBuilder Derived("Derived", "Base");
    Derived.addField(AccPublic, "shadowed", "I");
    Derived.addDefaultConstructor();
    ClassBuilder B("Main");
    MethodBuilder &M = mainOf(B);
    M.anew("Derived")
        .op(Op::Dup)
        .invokespecial("Derived", "<init>", "()V")
        .astore(1);
    // An unwritten field reads as its default.
    M.aload(1).getfield("Base", "shadowed", "I");
    printlnInt(M);
    M.aload(1).iconst(5).putfield("Base", "shadowed", "I");
    M.aload(1).getfield("Derived", "shadowed", "I");
    printlnInt(M);
    M.aload(1).iconst(7).putfield("Derived", "shadowed", "I");
    M.aload(1).getfield("Base", "shadowed", "I");
    printlnInt(M);
    const char *Nsfe = "java/lang/NoSuchFieldError";
    MethodBuilder::Label GetStart = M.newLabel(), GetEnd = M.newLabel(),
                         GetCaught = M.newLabel(), PutStart = M.newLabel(),
                         PutEnd = M.newLabel(), PutCaught = M.newLabel(),
                         Put = M.newLabel(), Done = M.newLabel();
    M.aload(1)
        .bind(GetStart)
        .getfield("Base", "missing", "I")
        .bind(GetEnd)
        .op(Op::Pop)
        .branch(Op::Goto, Put)
        .bind(GetCaught)
        .invokevirtual("java/lang/Throwable", "getMessage",
                       "()Ljava/lang/String;")
        .getstatic("java/lang/System", "out", Out)
        .op(Op::Swap)
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V");
    M.bind(Put)
        .aload(1)
        .iconst(1)
        .bind(PutStart)
        .putfield("Base", "missing", "I")
        .bind(PutEnd)
        .branch(Op::Goto, Done)
        .bind(PutCaught)
        .invokevirtual("java/lang/Throwable", "getMessage",
                       "()Ljava/lang/String;")
        .getstatic("java/lang/System", "out", Out)
        .op(Op::Swap)
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V");
    M.bind(Done).op(Op::Return);
    M.handler(GetStart, GetEnd, GetCaught, Nsfe)
        .handler(PutStart, PutEnd, PutCaught, Nsfe);
    Rig.addClass(Base);
    Rig.addClass(Derived);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
    EXPECT_EQ(Rig.out(), "0\n5\n7\nmissing\nmissing\n");

    // DoppioJS images list an object's written fields by name: the
    // redeclared name once.
    if (GetParam() != ExecutionMode::DoppioJS)
      continue;
    rt::ErrorOr<std::vector<uint8_t>> Image = serializeJvm(Rig.vm());
    ASSERT_TRUE(Image.ok()) << Image.error().message();
    const std::string Record = std::string("\0\0\0\x08shadowed", 12);
    std::string Bytes(Image->begin(), Image->end());
    size_t First = Bytes.find(Record);
    ASSERT_NE(First, std::string::npos);
    EXPECT_EQ(Bytes.find(Record, First + 1), std::string::npos);
  }
}

TEST_P(BothModes, CheckcastAndClassCastException) {
  JvmRig Rig(GetParam());
  ClassBuilder A("A");
  A.addDefaultConstructor();
  ClassBuilder C("C");
  C.addDefaultConstructor();
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start)
      .anew("A")
      .op(Op::Dup)
      .invokespecial("A", "<init>", "()V")
      .checkcast("C") // Throws: A is not a C.
      .op(Op::Pop)
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(99);
  printlnInt(M);
  M.bind(After).op(Op::Return).handler(Start, End, Handler,
                                       "java/lang/ClassCastException");
  Rig.addClass(A);
  Rig.addClass(C);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "99\n");
}

TEST_P(BothModes, SwitchStatements) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &Pick = B.method(AccPublic | AccStatic, "pick", "(I)I");
  MethodBuilder::Label C0 = Pick.newLabel(), C1 = Pick.newLabel(),
                       C2 = Pick.newLabel(), Def = Pick.newLabel();
  Pick.iload(0).tableswitch(Def, 0, {C0, C1, C2});
  Pick.bind(C0).iconst(100).op(Op::Ireturn);
  Pick.bind(C1).iconst(200).op(Op::Ireturn);
  Pick.bind(C2).iconst(300).op(Op::Ireturn);
  Pick.bind(Def).iconst(-1).op(Op::Ireturn);
  MethodBuilder &Look =
      B.method(AccPublic | AccStatic, "look", "(I)I");
  MethodBuilder::Label L1 = Look.newLabel(), L2 = Look.newLabel(),
                       LD = Look.newLabel();
  Look.iload(0).lookupswitch(LD, {{-5, L1}, {1000, L2}});
  Look.bind(L1).iconst(11).op(Op::Ireturn);
  Look.bind(L2).iconst(22).op(Op::Ireturn);
  Look.bind(LD).iconst(0).op(Op::Ireturn);
  MethodBuilder &M = mainOf(B);
  for (int I = -1; I <= 3; ++I) {
    M.iconst(I).invokestatic("Main", "pick", "(I)I");
    printlnInt(M);
  }
  for (int V : {-5, 1000, 7}) {
    M.iconst(V).invokestatic("Main", "look", "(I)I");
    printlnInt(M);
  }
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "-1\n100\n200\n300\n-1\n11\n22\n0\n");
}

TEST_P(BothModes, LazyClassLoadingThroughXhrFs) {
  // §6.4: classes download on first reference, not eagerly.
  JvmRig Rig(GetParam());
  ClassBuilder Helper("util/Helper");
  Helper.addDefaultConstructor();
  Helper.method(AccPublic | AccStatic, "seven", "()I")
      .iconst(7)
      .op(Op::Ireturn);
  ClassBuilder Unused("util/Unused");
  Unused.addDefaultConstructor();
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.invokestatic("util/Helper", "seven", "()I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(Helper);
  Rig.addClass(Unused);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "7\n");
  // Main + Helper were fetched; Unused was not.
  EXPECT_EQ(Rig.vm().loader().fileLoads(), 2u);
  EXPECT_EQ(Rig.vm().loader().lookup("util/Unused"), nullptr);
}

TEST_P(BothModes, MissingClassIsNoClassDefFoundError) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.invokestatic("does/not/Exist", "f", "()I").op(Op::Pop).op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 1);
  EXPECT_NE(Rig.err().find("NoClassDefFoundError"), std::string::npos);
}

TEST_P(BothModes, SystemExitStopsProgram) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.iconst(1);
  printlnInt(M);
  M.iconst(42).invokestatic("java/lang/System", "exit", "(I)V");
  M.iconst(2); // Never reached.
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 42);
  EXPECT_EQ(Rig.out(), "1\n");
}

TEST_P(BothModes, CommandLineArguments) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // print args.length, then args[1].
  M.aload(0).op(Op::Arraylength);
  printlnInt(M);
  M.aload(0)
      .iconst(1)
      .op(Op::Aaload)
      .checkcast("java/lang/String")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main", {"alpha", "beta"}), 0);
  EXPECT_EQ(Rig.out(), "2\nbeta\n");
}

TEST_P(BothModes, FileIoThroughBlockingBridge) {
  // §6.3: file natives retain synchronous JVM semantics over the
  // asynchronous Doppio fs.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.ldcString("/data/input.txt")
      .invokestatic("doppio/io/Files", "readString",
                    "(Ljava/lang/String;)Ljava/lang/String;")
      .astore(1)
      .getstatic("java/lang/System", "out", Out)
      .aload(1)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V");
  M.ldcString("/data/output.txt")
      .aload(1)
      .ldcString(" (copied)")
      .invokevirtual("java/lang/String", "concat",
                     "(Ljava/lang/String;)Ljava/lang/String;")
      .invokestatic("doppio/io/Files", "writeString",
                    "(Ljava/lang/String;Ljava/lang/String;)V");
  M.ldcString("/data/input.txt")
      .invokestatic("doppio/io/Files", "size", "(Ljava/lang/String;)I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  Rig.seedFile("/data/input.txt", "hello from the fs");
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "hello from the fs\n17\n");
  EXPECT_EQ(Rig.fileText("/data/output.txt"),
            "hello from the fs (copied)");
}

TEST_P(BothModes, MissingFileThrowsIoException) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.bind(Start)
      .ldcString("/missing")
      .invokestatic("doppio/io/Files", "readAllBytes",
                    "(Ljava/lang/String;)[B")
      .op(Op::Pop)
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(404);
  printlnInt(M);
  M.bind(After).op(Op::Return).handler(Start, End, Handler,
                                       "java/io/IOException");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "404\n");
}

TEST_P(BothModes, StdinReadLineOverAsyncKeyboard) {
  // The paper's §3.2 motivating example: synchronous console input.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.getstatic("java/lang/System", "out", Out)
      .ldcString("Please enter your name: ")
      .invokevirtual("java/io/PrintStream", "print",
                     "(Ljava/lang/String;)V");
  M.invokestatic("doppio/Stdin", "readLine", "()Ljava/lang/String;")
      .astore(1)
      .getstatic("java/lang/System", "out", Out)
      .ldcString("Your name is ")
      .aload(1)
      .invokevirtual("java/lang/String", "concat",
                     "(Ljava/lang/String;)Ljava/lang/String;")
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
  Rig.addClass(B);
  Rig.vm(); // Materialize the process before pushing input.
  Rig.Proc.pushStdin("Ada Lovelace");
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "Please enter your name: Your name is Ada Lovelace\n");
}

TEST_P(BothModes, UnsafeUsesTheUnmanagedHeap) {
  // §6.5: sun.misc.Unsafe over the Doppio heap.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.getstatic("sun/misc/Unsafe", "theUnsafe", "Lsun/misc/Unsafe;")
      .astore(1);
  // long addr = unsafe.allocateMemory(16);
  M.aload(1)
      .lconst(16)
      .invokevirtual("sun/misc/Unsafe", "allocateMemory", "(J)J")
      .lstore(2);
  // unsafe.putInt(addr, 0x01020304); endianness probe: getByte(addr).
  M.aload(1)
      .lload(2)
      .iconst(0x01020304)
      .invokevirtual("sun/misc/Unsafe", "putInt", "(JI)V");
  M.aload(1)
      .lload(2)
      .invokevirtual("sun/misc/Unsafe", "getByte", "(J)B");
  printlnInt(M); // 4: the heap is little endian (§5.2).
  M.aload(1)
      .lload(2)
      .invokevirtual("sun/misc/Unsafe", "getInt", "(J)I");
  printlnInt(M);
  M.aload(1)
      .lload(2)
      .invokevirtual("sun/misc/Unsafe", "freeMemory", "(J)V")
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "4\n16909060\n");
  EXPECT_EQ(Rig.vm().heap().allocationCount(), 0u);
}

TEST_P(BothModes, JsEvalInterop) {
  // §6.8: eval returns the result coerced to a JVM String.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.ldcString("1+2")
      .invokestatic("doppio/JS", "eval",
                    "(Ljava/lang/String;)Ljava/lang/String;")
      .getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
  Rig.addClass(B);
  Rig.vm().setJsEval([](const std::string &Src) {
    return Src == "1+2" ? "3" : "undefined";
  });
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "3\n");
}

//===----------------------------------------------------------------------===//
// Frames as windows over one value array per thread (DESIGN.md §9)
//===----------------------------------------------------------------------===//

/// static long down(int n, long acc) {
///   return n == 0 ? acc : (long)n + down(n - 1, acc + n); }
/// The caller's (long)n stays live on its operand stack below the
/// arguments, so every level leaves five slots in the array: three locals
/// and the live long. down(n, 0) == n * (n + 1). With \p Bottom, the
/// deepest level returns Bottom(acc) instead of acc.
void addDown(ClassBuilder &B, const char *Bottom = nullptr) {
  MethodBuilder &D = B.method(AccPublic | AccStatic, "down", "(IJ)J");
  MethodBuilder::Label Recurse = D.newLabel();
  D.iload(0).branch(Op::Ifne, Recurse).lload(1);
  if (Bottom)
    D.invokestatic("Main", Bottom, "(J)J");
  D.op(Op::Lreturn);
  D.bind(Recurse)
      .iload(0)
      .op(Op::I2l)
      .iload(0)
      .iconst(1)
      .op(Op::Isub)
      .lload(1)
      .iload(0)
      .op(Op::I2l)
      .op(Op::Ladd)
      .invokestatic("Main", "down", "(IJ)J")
      .op(Op::Ladd)
      .op(Op::Lreturn);
}

TEST_P(BothModes, DeepRecursionGrowsTheValueArray) {
  // 2000 levels of five slots each pass 4x the initial array, so the
  // array grows (and every frame is rebased) at least three times while
  // the live operands and category-2 arguments below the top must
  // survive each move.
  constexpr int Depth = 2000;
  static_assert(Depth * 5 > 4 * JvmThread::InitialStackSlots);
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder B("Main");
    addDown(B);
    MethodBuilder &M = mainOf(B);
    M.iconst(Depth).lconst(0).invokestatic("Main", "down", "(IJ)J");
    printlnLong(M);
    M.op(Op::Return);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0);
    EXPECT_EQ(Rig.out(), std::to_string(int64_t{Depth} * (Depth + 1)) + "\n");
  }
}

TEST_P(BothModes, CategoryTwoArgumentsAndParameterStores) {
  // static double g(long a, int b, double c) {
  //   a *= 3; b += 5; c *= 2; return a + b + c; }
  // The callee's stores land in slots that were the caller's argument
  // slots; the caller's live operands below them must not change.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &G = B.method(AccPublic | AccStatic, "g", "(JID)D");
  G.lload(0).lconst(3).op(Op::Lmul).lstore(0);
  G.iinc(2, 5);
  G.dload(3).dconst(2.0).op(Op::Dmul).dstore(3);
  G.lload(0)
      .op(Op::L2d)
      .iload(2)
      .op(Op::I2d)
      .op(Op::Dadd)
      .dload(3)
      .op(Op::Dadd)
      .op(Op::Dreturn);
  MethodBuilder &M = mainOf(B);
  // 1000 + (int)g(7, 2, 1.25) = 1000 + (21 + 7 + 2.5) -> 1030; then a
  // long and a double below a second call's arguments.
  M.iconst(1000)
      .lconst(7)
      .iconst(2)
      .dconst(1.25)
      .invokestatic("Main", "g", "(JID)D")
      .op(Op::D2i)
      .op(Op::Iadd);
  printlnInt(M);
  M.lconst(-5)
      .dconst(0.5)
      .lconst(1)
      .iconst(-5)
      .dconst(-0.25)
      .invokestatic("Main", "g", "(JID)D") // 3 + 0 - 0.5 = 2.5
      .op(Op::Dadd)                        // 0.5 + 2.5 = 3
      .op(Op::D2l)
      .op(Op::Lmul); // -5 * 3
  printlnLong(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "1030\n-15\n");
}

TEST_P(BothModes, SynchronizedCalleeAndNativeCallAtDepth) {
  // static synchronized int s(int n) {
  //   if (n == 0) { System.out.println(n); return (int)Math.sqrt(144.0); }
  //   return s(n - 1) + 1; }
  // Each level re-enters the class monitor; the natives run with 64
  // frames below them and return into the deepest window.
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder B("Main");
    MethodBuilder &S =
        B.method(AccPublic | AccStatic | AccSynchronized, "s", "(I)I");
    MethodBuilder::Label Recurse = S.newLabel();
    S.iload(0).branch(Op::Ifne, Recurse).iload(0);
    printlnInt(S);
    S.dconst(144.0)
        .invokestatic("java/lang/Math", "sqrt", "(D)D")
        .op(Op::D2i)
        .op(Op::Ireturn);
    S.bind(Recurse)
        .iload(0)
        .iconst(1)
        .op(Op::Isub)
        .invokestatic("Main", "s", "(I)I")
        .iconst(1)
        .op(Op::Iadd)
        .op(Op::Ireturn);
    MethodBuilder &M = mainOf(B);
    M.iconst(64).invokestatic("Main", "s", "(I)I");
    printlnInt(M);
    M.op(Op::Return);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0);
    EXPECT_EQ(Rig.out(), "0\n76\n");
    Object *Mirror = Rig.vm().mirrorOf(Rig.vm().loader().lookup("Main"));
    EXPECT_EQ(Mirror->monitor().OwnerTid, -1) << "every level released it";
    EXPECT_EQ(Mirror->monitor().EntryCount, 0);
  }
}

TEST_P(BothModes, ExceptionAtDepthResetsTheCatchingFrame) {
  // static int t(int n) {
  //   if (n == 0) throw new IllegalStateException("deep"); return t(n-1); }
  // static int c() { try { return 5 + 9L + t(40); }  // Live operands.
  //                  catch (IllegalStateException e) { ... } }
  // The handler starts with the exception alone on c's stack and then
  // fills the stack to exactly max_stack. Run guarded, a stale slot left
  // below the exception would be a VerifyError, not a wrong answer.
  for (const char *Profile : CallPathProfiles) {
    for (bool Trusted : {true, false}) {
      SCOPED_TRACE(std::string(Profile) + (Trusted ? "/trusted" : "/guarded"));
      JvmRig Rig(GetParam());
      useProfile(Rig, Profile);
      Rig.Options.Exec.TrustVerifier = Trusted;
      ClassBuilder B("Main");
      MethodBuilder &T = B.method(AccPublic | AccStatic, "t", "(I)I");
      MethodBuilder::Label Recurse = T.newLabel();
      T.iload(0).branch(Op::Ifne, Recurse);
      T.anew("java/lang/IllegalStateException")
          .op(Op::Dup)
          .ldcString("deep")
          .invokespecial("java/lang/IllegalStateException", "<init>",
                         "(Ljava/lang/String;)V")
          .op(Op::Athrow);
      T.bind(Recurse)
          .iload(0)
          .iconst(1)
          .op(Op::Isub)
          .invokestatic("Main", "t", "(I)I")
          .op(Op::Ireturn);
      MethodBuilder &C = B.method(AccPublic | AccStatic, "c", "()I");
      MethodBuilder::Label Start = C.newLabel(), End = C.newLabel(),
                           Handler = C.newLabel();
      C.bind(Start)
          .iconst(5)
          .lconst(9)
          .iconst(40)
          .invokestatic("Main", "t", "(I)I")
          .op(Op::I2l)
          .op(Op::Ladd)
          .op(Op::L2i)
          .op(Op::Iadd)
          .op(Op::Ireturn)
          .bind(End);
      C.bind(Handler)
          .invokevirtual("java/lang/Throwable", "getMessage",
                         "()Ljava/lang/String;")
          .invokevirtual("java/lang/String", "length", "()I") // 4
          .iconst(10)
          .iconst(20)
          .iconst(30)
          .iconst(40)
          .op(Op::Iadd)
          .op(Op::Iadd)
          .op(Op::Iadd)
          .op(Op::Iadd) // 104
          .op(Op::Ireturn)
          .handler(Start, End, Handler, "java/lang/IllegalStateException");
      MethodBuilder &M = mainOf(B);
      M.invokestatic("Main", "c", "()I");
      printlnInt(M);
      M.op(Op::Return);
      Rig.addClass(B);
      EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
      EXPECT_EQ(Rig.out(), "104\n");
    }
  }
}

TEST_P(BothModes, StackOverflowErrorIsCatchable) {
  // static void rec() { depth++; try { rec(); }
  //                     catch (StackOverflowError e) { caught = 1; } }
  // The handler covers the invoke alone, so it matches only while the
  // overflowing frame's pc still points at that invoke.
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder B("Main");
    B.addField(AccPublic | AccStatic, "depth", "I");
    B.addField(AccPublic | AccStatic, "caught", "I");
    MethodBuilder &R = B.method(AccPublic | AccStatic, "rec", "()V");
    MethodBuilder::Label Start = R.newLabel(), End = R.newLabel(),
                         Handler = R.newLabel();
    R.getstatic("Main", "depth", "I")
        .iconst(1)
        .op(Op::Iadd)
        .putstatic("Main", "depth", "I");
    R.bind(Start).invokestatic("Main", "rec", "()V").bind(End).op(Op::Return);
    R.bind(Handler)
        .op(Op::Pop)
        .iconst(1)
        .putstatic("Main", "caught", "I")
        .op(Op::Return)
        .handler(Start, End, Handler, "java/lang/StackOverflowError");
    MethodBuilder &M = mainOf(B);
    M.invokestatic("Main", "rec", "()V");
    M.getstatic("Main", "caught", "I");
    printlnInt(M);
    M.getstatic("Main", "depth", "I");
    printlnInt(M);
    M.op(Op::Return);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
    // main is the first frame; rec fills the rest.
    EXPECT_EQ(Rig.out(),
              "1\n" + std::to_string(JvmThread::MaxCallDepth - 1) + "\n");
  }
}

TEST_P(BothModes, QuickenedInvokevirtualReachesAnAbstractMethod) {
  // abstract class Base { abstract int f(); }
  // class Impl extends Base { int f() { return 7; } }
  // class Hollow extends Base {}  // Never implements f.
  // static int call(Base b) { return b.f(); }
  // main: println(call(new Impl()));
  //       try { println(call(new Hollow())); }
  //       catch (AbstractMethodError e) { println(e.getMessage()); }
  // The first call quickens call's one invokevirtual site; the second
  // misses its inline cache and dispatches to Base.f, which has no body.
  for (const char *Profile : CallPathProfiles) {
    SCOPED_TRACE(Profile);
    JvmRig Rig(GetParam());
    useProfile(Rig, Profile);
    ClassBuilder Base("Base");
    Base.setAccess(AccPublic | AccAbstract);
    Base.addDefaultConstructor();
    Base.abstractMethod(AccPublic | AccAbstract, "f", "()I");
    ClassBuilder Impl("Impl", "Base");
    Impl.addDefaultConstructor();
    Impl.method(AccPublic, "f", "()I").iconst(7).op(Op::Ireturn);
    ClassBuilder Hollow("Hollow", "Base");
    Hollow.addDefaultConstructor();
    ClassBuilder B("Main");
    B.method(AccPublic | AccStatic, "call", "(LBase;)I")
        .aload(0)
        .invokevirtual("Base", "f", "()I")
        .op(Op::Ireturn);
    MethodBuilder &M = mainOf(B);
    MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                         Handler = M.newLabel(), After = M.newLabel();
    M.anew("Impl")
        .op(Op::Dup)
        .invokespecial("Impl", "<init>", "()V")
        .invokestatic("Main", "call", "(LBase;)I");
    printlnInt(M);
    M.bind(Start)
        .anew("Hollow")
        .op(Op::Dup)
        .invokespecial("Hollow", "<init>", "()V")
        .invokestatic("Main", "call", "(LBase;)I");
    printlnInt(M);
    M.bind(End).branch(Op::Goto, After);
    M.bind(Handler)
        .invokevirtual("java/lang/Throwable", "getMessage",
                       "()Ljava/lang/String;")
        .getstatic("java/lang/System", "out", Out)
        .op(Op::Swap)
        .invokevirtual("java/io/PrintStream", "println",
                       "(Ljava/lang/String;)V");
    M.bind(After).op(Op::Return).handler(Start, End, Handler,
                                         "java/lang/AbstractMethodError");
    Rig.addClass(Base);
    Rig.addClass(Impl);
    Rig.addClass(Hollow);
    Rig.addClass(B);
    EXPECT_EQ(Rig.run("Main"), 0) << Rig.err();
    EXPECT_EQ(Rig.out(), "7\nBase.f()I\n");
  }
}

/// Main: println(down(200, 0)), where the deepest level runs
/// static long work(long seed) { for (int i = 0; i < 300; i++) {
///   seed = seed * 31 + i; System.out.println((int)(seed % 1000));
///   Thread.yield(); } return seed; }
/// Every yield is a quiescent point with 200 frames on the stack.
ClassBuilder deepWorkerClass() {
  ClassBuilder B("Main");
  addDown(B, "work");
  MethodBuilder &W = B.method(AccPublic | AccStatic, "work", "(J)J");
  MethodBuilder::Label Loop = W.newLabel(), Done = W.newLabel();
  W.iconst(0).istore(2);
  W.bind(Loop).iload(2).iconst(300).branch(Op::IfIcmpge, Done);
  W.lload(0)
      .lconst(31)
      .op(Op::Lmul)
      .iload(2)
      .op(Op::I2l)
      .op(Op::Ladd)
      .lstore(0);
  W.lload(0).lconst(1000).op(Op::Lrem).op(Op::L2i);
  printlnInt(W);
  W.invokestatic("java/lang/Thread", "yield", "()V");
  W.iinc(2, 1).branch(Op::Goto, Loop);
  W.bind(Done).lload(0).op(Op::Lreturn);
  MethodBuilder &M = mainOf(B);
  // Drop the args array: no frame then holds an object reference.
  M.aconstNull().astore(0);
  M.iconst(200).lconst(0).invokestatic("Main", "down", "(IJ)J");
  printlnLong(M);
  M.op(Op::Return);
  return B;
}

/// The frame records of a JVM image: its tail from the main thread's
/// frame count on. No frame holds a reference, so these bytes carry no
/// object ids.
std::vector<uint8_t> frameRecords(const std::vector<uint8_t> &Image) {
  std::string Bytes(Image.begin(), Image.end());
  const std::string Desc = "([Ljava/lang/String;)V";
  std::string Head = std::string("\0\0\0\4Main\0\0\0\4main\0\0\0", 19) +
                     static_cast<char>(Desc.size()) + Desc;
  size_t At = Bytes.rfind(Head);
  if (At == std::string::npos || At < 4)
    return {};
  return {Image.begin() + static_cast<ptrdiff_t>(At - 4), Image.end()};
}

TEST_P(BothModes, CheckpointAtDepthRoundTripsItsFrameRecords) {
  // Source: capture mid-run while the main thread is 200 frames deep,
  // then let it finish; its whole output is the baseline. Each println
  // queues a probe behind the running slice. The probe finds the thread
  // parked in Thread.yield, so it queues once more, behind the yield's
  // completion, and then finds the thread Ready.
  ClassBuilder Src = deepWorkerClass();
  JvmRig A(GetParam());
  A.addClass(Src);
  std::string OutA, Prefix;
  std::vector<uint8_t> Image;
  std::function<void(bool)> Probe = [&](bool Again) {
    JvmThread *Main = A.vm().threadForTid(0);
    if (!Image.empty() || !Main || Main->callStack().size() <= 200)
      return;
    if (!checkpointReady(A.vm())) {
      if (Again)
        A.Env.loop().post(kernel::Lane::Resume, [&] { Probe(false); });
      return;
    }
    rt::ErrorOr<std::vector<uint8_t>> S = serializeJvm(A.vm());
    ASSERT_TRUE(S.ok()) << S.error().message();
    Image = std::move(*S);
    Prefix = OutA;
  };
  A.Proc.setStdout([&](const std::string &Text) {
    OutA += Text;
    A.Env.loop().post(kernel::Lane::Resume, [&] { Probe(true); });
  });
  int ExitA = -1;
  A.vm().runMain("Main", {}, [&](int C) { ExitA = C; });
  A.Env.loop().run();
  ASSERT_EQ(ExitA, 0);
  ASSERT_FALSE(Image.empty()) << "never found a quiescent point at depth";
  ASSERT_FALSE(Prefix.empty());
  ASSERT_LT(Prefix.size(), OutA.size());

  // Destination: the restored frames are placed on a fresh thread's
  // array; serializing them again gives the same frame records, and the
  // revived run finishes the same output. The rest of the image is not
  // compared: the destination's own bootstrap objects (System.out and
  // err, Unsafe) stay in its arena beside the image's, shifting every
  // object id.
  ClassBuilder Dst = deepWorkerClass();
  JvmRig B(GetParam());
  B.addClass(Dst);
  int ExitB = -1;
  bool RestoreOk = false;
  std::vector<uint8_t> Again;
  restoreJvm(B.vm(), Image, [&](int C) { ExitB = C; },
             [&](rt::ErrorOr<bool> R) {
               RestoreOk = R.ok();
               if (rt::ErrorOr<std::vector<uint8_t>> S = serializeJvm(B.vm());
                   S.ok())
                 Again = std::move(*S);
             });
  B.Env.loop().run();
  EXPECT_TRUE(RestoreOk);
  std::vector<uint8_t> Frames = frameRecords(Image);
  EXPECT_GT(Frames.size(), 200u * 30) << "200 frames of down(IJ)J and more";
  EXPECT_EQ(frameRecords(Again), Frames);

  EXPECT_EQ(ExitB, 0);
  EXPECT_EQ(Prefix + B.out(), OutA);
}

INSTANTIATE_TEST_SUITE_P(Modes, BothModes,
                         ::testing::Values(ExecutionMode::DoppioJS,
                                           ExecutionMode::NativeHotspot),
                         [](const auto &Info) {
                           return std::string(
                               executionModeName(Info.param));
                         });

} // namespace
