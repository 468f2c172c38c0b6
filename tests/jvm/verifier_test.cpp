//===- tests/jvm/verifier_test.cpp ----------------------------------------==//
//
// Structural verifier and disassembler tests: every class this repository
// synthesizes verifies cleanly; targeted corruptions are caught with
// specific diagnostics; malformed classes are rejected by the loader.
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/disasm.h"
#include "jvm/classfile/verifier.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

/// A healthy class with branches, a switch, and a handler.
ClassFile healthyClass() {
  ClassBuilder B("v/Healthy");
  B.addDefaultConstructor();
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  MethodBuilder::Label L0 = M.newLabel(), L1 = M.newLabel(),
                       Def = M.newLabel(), Start = M.newLabel(),
                       End = M.newLabel(), H = M.newLabel();
  M.bind(Start)
      .iload(0)
      .tableswitch(Def, 0, {L0, L1})
      .bind(L0)
      .iconst(10)
      .op(Op::Ireturn)
      .bind(L1)
      .iconst(1)
      .iconst(0)
      .op(Op::Idiv)
      .op(Op::Ireturn)
      .bind(End)
      .bind(Def)
      .iconst(-1)
      .op(Op::Ireturn)
      .bind(H)
      .op(Op::Pop)
      .iconst(-2)
      .op(Op::Ireturn)
      .handler(Start, End, H, "java/lang/ArithmeticException");
  return B.build();
}

TEST(Verifier, AcceptsHealthyClasses) {
  std::vector<VerifyError> Errors = verifyClass(healthyClass());
  EXPECT_TRUE(Errors.empty()) << Errors.front().str();
}

TEST(Verifier, AcceptsEveryWorkloadClass) {
  using namespace doppio::workloads;
  for (Workload (*Make)() :
       {+[] { return makeRecursive(10, 4); },
        +[] { return makeBinaryTrees(4); }, +[] { return makeNQueens(5); },
        +[] { return makeDeltaBlue(8, 4); },
        +[] { return makePiDigits(10); },
        +[] { return makeClassDump(2); },
        +[] { return makeMiniCompile(2); }}) {
    Workload W = Make();
    for (const auto &[Name, Bytes] : W.Classes) {
      auto Cf = readClassFile(Bytes);
      ASSERT_TRUE(Cf.ok()) << Name;
      std::vector<VerifyError> Errors = verifyClass(*Cf);
      EXPECT_TRUE(Errors.empty())
          << Name << ": " << Errors.front().str();
    }
  }
}

/// Finds the first error message containing \p Needle.
bool hasError(const std::vector<VerifyError> &Errors,
              const std::string &Needle) {
  for (const VerifyError &E : Errors)
    if (E.str().find(Needle) != std::string::npos)
      return true;
  return false;
}

/// Builds f(I)I = { iload_0; ireturn } and applies \p Corrupt to its code.
ClassFile corrupted(const std::function<void(std::vector<uint8_t> &)>
                        &Corrupt) {
  ClassBuilder B("v/Bad");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  M.iload(0).iconst(1).op(Op::Iadd).op(Op::Ireturn);
  ClassFile Cf = B.build();
  for (MemberInfo &Member : Cf.Methods)
    if (Member.Name == "f")
      Corrupt(Member.Code->Bytecode);
  return Cf;
}

TEST(Verifier, RejectsIllegalOpcode) {
  ClassFile Cf = corrupted([](std::vector<uint8_t> &Code) {
    Code[0] = 0xBA; // invokedynamic: not in spec 2.
  });
  EXPECT_TRUE(hasError(verifyClass(Cf), "illegal opcode"));
}

TEST(Verifier, RejectsTruncatedInstruction) {
  ClassFile Cf = corrupted([](std::vector<uint8_t> &Code) {
    Code.back() = 0x12; // ldc with its operand byte missing.
  });
  EXPECT_FALSE(verifyClass(Cf).empty());
}

TEST(Verifier, RejectsFallOffEnd) {
  ClassFile Cf = corrupted([](std::vector<uint8_t> &Code) {
    Code.back() = 0x00; // Replace ireturn with nop.
  });
  EXPECT_TRUE(hasError(verifyClass(Cf), "fall off the end"));
}

TEST(Verifier, RejectsBranchIntoOperands) {
  ClassBuilder B("v/BadBranch");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()I");
  MethodBuilder::Label L = M.newLabel();
  M.iconst(0).branch(Op::Ifeq, L).iconst(200).op(Op::Ireturn).bind(L)
      .iconst(1).op(Op::Ireturn);
  ClassFile Cf = B.build();
  for (MemberInfo &Member : Cf.Methods) {
    if (Member.Name != "f")
      continue;
    // Redirect the branch into the middle of the sipush operand.
    Member.Code->Bytecode[2] = 0;
    Member.Code->Bytecode[3] = 5;
  }
  EXPECT_TRUE(hasError(verifyClass(Cf), "instruction boundary"));
}

TEST(Verifier, RejectsOutOfRangeLocals) {
  ClassFile Cf = corrupted([](std::vector<uint8_t> &Code) {
    Code[0] = 0x15; // iload ...
    Code[1] = 200;  // ... of a slot far beyond max_locals (1).
  });
  EXPECT_TRUE(hasError(verifyClass(Cf), "max_locals"));
}

TEST(Verifier, ChecksEveryFixedSlotLocalInUnreachableCode) {
  // JVMS §4.8.1 bounds every local index statically, reachable or not:
  // `return; <op>_<n>; return` with max_locals 1 for all 32 fixed-slot
  // loads and stores. A one-slot value fits only slot 0; a long or
  // double fits no slot.
  struct Family {
    Op First;
    int Width;
  };
  for (Family F : {Family{Op::Iload0, 1}, Family{Op::Lload0, 2},
                   Family{Op::Fload0, 1}, Family{Op::Dload0, 2},
                   Family{Op::Aload0, 1}, Family{Op::Istore0, 1},
                   Family{Op::Lstore0, 2}, Family{Op::Fstore0, 1},
                   Family{Op::Dstore0, 2}, Family{Op::Astore0, 1}}) {
    for (int Slot = 0; Slot != 4; ++Slot) {
      Op O = static_cast<Op>(static_cast<int>(F.First) + Slot);
      SCOPED_TRACE(opcodeName(static_cast<uint8_t>(O)));
      ClassBuilder B("v/DeadLocal");
      B.method(AccPublic | AccStatic, "f", "()V")
          .rawOp(Op::Return)
          .rawOp(O)
          .rawOp(Op::Return)
          .overrideMaxLocals(1);
      std::vector<std::string> Got, Want;
      for (const VerifyError &E : verifyClass(B.build()))
        Got.push_back(E.str());
      if (Slot + F.Width > 1)
        Want.push_back("f()V @1: local " + std::to_string(Slot) +
                       " exceeds max_locals 1");
      EXPECT_EQ(Got, Want);
    }
  }
}

TEST(Verifier, RejectsWrongConstantTag) {
  ClassBuilder B("v/BadLdc");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()I");
  M.ldcString("text").op(Op::Pop).iconst(0).op(Op::Ireturn);
  ClassFile Cf = B.build();
  for (MemberInfo &Member : Cf.Methods)
    if (Member.Name == "f")
      Member.Code->Bytecode[0] = 0x14; // ldc2_w wants Long/Double.
  // The ldc index byte now reads as half of ldc2_w's u2 — either a bad
  // index or a wrong tag; both must be caught.
  EXPECT_FALSE(verifyClass(Cf).empty());
}

TEST(Verifier, RejectsBodylessMethod) {
  ClassFile Cf;
  Cf.ThisClass = "v/NoBody";
  Cf.SuperClass = "java/lang/Object";
  MemberInfo M;
  M.AccessFlags = AccPublic;
  M.Name = "f";
  M.Descriptor = "()V";
  Cf.Methods.push_back(M);
  EXPECT_TRUE(hasError(verifyClass(Cf), "without code"));
}

TEST(Verifier, LoaderRejectsCorruptClassFiles) {
  // End to end: a corrupt class served over the web must be refused at
  // load time and surface as NoClassDefFoundError (§6.4 + verifier).
  JvmRig Rig(ExecutionMode::DoppioJS);
  ClassFile Bad = corrupted(
      [](std::vector<uint8_t> &Code) { Code.back() = 0x00; });
  Rig.addClassBytes("v/Bad", writeClassFile(Bad));
  ClassBuilder Main("Main");
  MethodBuilder &M =
      Main.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  M.iconst(1)
      .invokestatic("v/Bad", "f", "(I)I")
      .op(Op::Pop)
      .op(Op::Return);
  Rig.addClass(Main);
  EXPECT_EQ(Rig.run("Main"), 1);
  EXPECT_NE(Rig.err().find("NoClassDefFoundError"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Disassembler
//===--------------------------------------------------------------------===//

TEST(Disassembler, ListsInstructionsWithResolvedConstants) {
  ClassFile Cf = healthyClass();
  std::string Text = disassembleClass(Cf);
  EXPECT_NE(Text.find("class v/Healthy extends java/lang/Object"),
            std::string::npos);
  EXPECT_NE(Text.find("Tableswitch"), std::string::npos);
  EXPECT_NE(Text.find("Idiv"), std::string::npos);
  EXPECT_NE(Text.find("catch ["), std::string::npos);
  EXPECT_NE(Text.find("java/lang/ArithmeticException"), std::string::npos);
}

TEST(Disassembler, ResolvesMemberAndStringConstants) {
  ClassBuilder B("v/Show");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "go", "()V");
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
      .ldcString("hi there")
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
  std::string Text = disassembleClass(B.build());
  EXPECT_NE(Text.find("java/lang/System.out:Ljava/io/PrintStream;"),
            std::string::npos);
  EXPECT_NE(Text.find("String \"hi there\""), std::string::npos);
  EXPECT_NE(Text.find("java/io/PrintStream.println"), std::string::npos);
}

TEST(Disassembler, InstructionLengthHandlesVariableForms) {
  ClassFile Cf = healthyClass();
  const MemberInfo *F = Cf.findMethod("f", "(I)I");
  ASSERT_NE(F, nullptr);
  const std::vector<uint8_t> &Code = F->Code->Bytecode;
  // Walking by instructionLength must exactly cover the code array.
  uint32_t Pc = 0;
  int Count = 0;
  while (Pc < Code.size()) {
    uint32_t Len = instructionLength(Code, Pc);
    ASSERT_GT(Len, 0u) << "at pc " << Pc;
    Pc += Len;
    ++Count;
  }
  EXPECT_EQ(Pc, Code.size());
  EXPECT_GT(Count, 8);
}

TEST(Disassembler, RoundTripThroughWriterStaysReadable) {
  using namespace doppio::workloads;
  Workload W = makeRecursive(5, 3);
  auto Parsed = readClassFile(W.Classes[0].second);
  ASSERT_TRUE(Parsed.ok());
  std::string Text = disassembleClass(*Parsed);
  EXPECT_NE(Text.find("fib(I)I"), std::string::npos);
  EXPECT_NE(Text.find("tak(III)I"), std::string::npos);
  EXPECT_NE(Text.find("Invokestatic"), std::string::npos);
}

} // namespace
