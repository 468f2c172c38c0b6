//===- tests/jvm/dataflow_test.cpp ----------------------------------------==//
//
// Dataflow verifier tests (dataflow.h): forged methods are rejected with
// exact pc + diagnostic; every workload method analyzes clean; the
// opcodes.def stack-effect table agrees with the analysis; the loader
// threads the per-method Verified bit through; guarded execution throws
// VerifyError at the exact pc; and check-elided execution is observably
// identical to guarded execution.
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/dataflow.h"
#include "jvm/classfile/disasm.h"
#include "jvm/classfile/verifier.h"
#include "jvm/classloader.h"
#include "jvm/klass.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

#include <functional>
#include <set>

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

/// Builds a one-method class and analyzes that method.
MethodDataflow analyzeForged(
    const std::string &Desc,
    const std::function<void(MethodBuilder &)> &Forge) {
  ClassBuilder B("t/Forged");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", Desc);
  Forge(M);
  ClassFile Cf = B.build();
  const MemberInfo *Target = Cf.findMethod("f", Desc);
  EXPECT_NE(Target, nullptr);
  return analyzeMethodDataflow(Cf, *Target);
}

//===--------------------------------------------------------------------===//
// Negative cases: each forged body must produce exactly the documented
// diagnostic, at the exact pc, with the right severity class.
//===--------------------------------------------------------------------===//

struct NegativeCase {
  const char *Name;
  const char *Desc;
  /// Emits the body; returns the pc the diagnostic must point at.
  std::function<uint32_t(MethodBuilder &)> Forge;
  const char *Message;
  bool MonitorOnly;
};

std::vector<NegativeCase> negativeCases() {
  return {
      {"stack-underflow", "()V",
       [](MethodBuilder &M) {
         M.rawOp(Op::Pop).rawOp(Op::Return);
         return 0u;
       },
       "stack underflow", false},

      {"stack-overflow", "()V",
       [](MethodBuilder &M) {
         // Two pushes against a forged max_stack of 1.
         M.iconst(0).iconst(0).rawOp(Op::Pop).rawOp(Op::Pop)
             .rawOp(Op::Return)
             .overrideMaxStack(1);
         return 1u; // The second iconst_0.
       },
       "stack overflow beyond max_stack 1", false},

      {"stack-type-confusion", "()I",
       [](MethodBuilder &M) {
         M.iconst(0).rawOp(Op::Arraylength).rawOp(Op::Ireturn);
         return 1u;
       },
       "expected reference on stack, found int", false},

      {"two-slot-split", "()V",
       [](MethodBuilder &M) {
         M.lconst(0).rawOp(Op::Pop).rawOp(Op::Return);
         return 1u; // pop on the long's trailing slot.
       },
       "pop splits a two-slot value on the stack", false},

      {"local-type-confusion", "(F)V",
       [](MethodBuilder &M) {
         // iload of the float parameter in slot 0.
         M.rawOp(Op::Iload0).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1)
             .overrideMaxLocals(1);
         return 0u;
       },
       "local 0 holds float but iload needs int", false},

      {"local-out-of-range", "()V",
       [](MethodBuilder &M) {
         M.rawOp(Op::Iload).rawU1(7).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1)
             .overrideMaxLocals(1);
         return 0u;
       },
       "local 7 exceeds max_locals 1", false},

      {"return-type-mismatch", "()I",
       [](MethodBuilder &M) {
         M.rawOp(Op::Return);
         return 0u;
       },
       "return in a method returning I", false},

      {"monitorexit-unheld", "(Ljava/lang/Object;)V",
       [](MethodBuilder &M) {
         M.aload(0).rawOp(Op::Monitorexit).rawOp(Op::Return);
         return 1u;
       },
       "monitorexit with no monitor held", true},

      {"return-holding-monitor", "(Ljava/lang/Object;)V",
       [](MethodBuilder &M) {
         M.aload(0).rawOp(Op::Monitorenter).rawOp(Op::Return);
         return 2u;
       },
       "returns while 1 monitor(s) still held", true},
  };
}

TEST(Dataflow, RejectsForgedBodiesWithExactDiagnostics) {
  for (const NegativeCase &C : negativeCases()) {
    uint32_t ExpectedPc = 0;
    MethodDataflow Flow = analyzeForged(
        C.Desc, [&](MethodBuilder &M) { ExpectedPc = C.Forge(M); });
    SCOPED_TRACE(C.Name);
    EXPECT_FALSE(Flow.Ok);
    ASSERT_FALSE(Flow.Errors.empty());
    const VerifyError &E = Flow.Errors.front();
    EXPECT_EQ(E.Pc, ExpectedPc);
    EXPECT_EQ(E.Message, C.Message);
    EXPECT_EQ(E.MonitorOnly, C.MonitorOnly);
    EXPECT_EQ(E.Method, std::string("f") + C.Desc);
  }
}

TEST(Dataflow, RejectsInconsistentMergeAtExactPc) {
  // One branch leaves an int on the stack, the other a float; the merge
  // point is diagnosed at the join pc with both types named.
  ClassBuilder B("t/BadMerge");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)F");
  MethodBuilder::Label L1 = M.newLabel(), L2 = M.newLabel();
  M.iload(0).branch(Op::Ifeq, L1).iconst(3).branch(Op::Goto, L2).bind(L1)
      .fconst(1.0f);
  uint32_t MergePc = static_cast<uint32_t>(M.codeSize());
  M.bind(L2).rawOp(Op::Freturn);
  ClassFile Cf = B.build();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Cf.Methods.front());
  EXPECT_FALSE(Flow.Ok);
  ASSERT_FALSE(Flow.Errors.empty());
  // The lower-pc path (goto, carrying the int) reaches the join first in
  // the deterministic worklist, so the diagnostic reads "(int vs float)".
  EXPECT_EQ(Flow.Errors.front().Pc, MergePc);
  EXPECT_EQ(Flow.Errors.front().Message,
            "stack type mismatch at merge slot 0 (int vs float)");
}

TEST(Dataflow, MonitorDiagnosticsDoNotRejectTheClass) {
  ClassBuilder B("t/Mon");
  B.addDefaultConstructor();
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "hold", "(Ljava/lang/Object;)V");
  M.aload(0).rawOp(Op::Monitorenter).rawOp(Op::Return);
  ClassFile Cf = B.build();
  std::vector<VerifyError> Errors = verifyClass(Cf);
  ASSERT_FALSE(Errors.empty());
  for (const VerifyError &E : Errors)
    EXPECT_TRUE(E.MonitorOnly) << E.str();
  EXPECT_FALSE(rejectsClass(Errors));
}

TEST(Dataflow, HardErrorsRejectTheClass) {
  ClassBuilder B("t/Under");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()V");
  M.rawOp(Op::Pop).rawOp(Op::Return);
  std::vector<VerifyError> Errors = verifyClass(B.build());
  ASSERT_FALSE(Errors.empty());
  EXPECT_TRUE(rejectsClass(Errors));
  EXPECT_EQ(Errors.front().str(), "f()V @0: stack underflow");
}

TEST(Dataflow, MalformedFieldDescriptorsAreRejected) {
  // Each descriptor opens like a valid one: an array of no element type,
  // a class name running past its ';', an empty class name.
  for (const char *Desc : {"[X", "La;b;", "L;", "[", "LFoo"}) {
    SCOPED_TRACE(Desc);
    ClassBuilder B("t/BadField");
    MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()V");
    M.rawOp(Op::Getstatic)
        .rawU2(B.pool().addFieldref("t/BadField", "x", Desc))
        .rawOp(Op::Pop)
        .rawOp(Op::Return)
        .overrideMaxStack(1);
    ClassFile Cf = B.build();
    MethodDataflow Flow = analyzeMethodDataflow(Cf, Cf.Methods.front());
    EXPECT_FALSE(Flow.Ok);
    ASSERT_FALSE(Flow.Errors.empty());
    EXPECT_EQ(Flow.Errors.front().Pc, 0u);
    EXPECT_EQ(Flow.Errors.front().Message,
              std::string("malformed field descriptor ") + Desc);
  }
}

//===--------------------------------------------------------------------===//
// Positive cases
//===--------------------------------------------------------------------===//

/// Every workloads:: program, at test sizes.
std::vector<workloads::Workload> smallWorkloads() {
  using namespace doppio::workloads;
  return {makeRecursive(10, 4), makeBinaryTrees(4), makeNQueens(5),
          makeDeltaBlue(8, 4),  makePiDigits(10),   makeClassDump(2),
          makeMiniCompile(2)};
}

TEST(Dataflow, EveryWorkloadMethodAnalyzesClean) {
  for (const workloads::Workload &W : smallWorkloads()) {
    for (const auto &[Name, Bytes] : W.Classes) {
      auto Cf = readClassFile(Bytes);
      ASSERT_TRUE(Cf.ok()) << Name;
      for (const MemberInfo &M : Cf->Methods) {
        if (!M.Code)
          continue;
        MethodDataflow Flow = analyzeMethodDataflow(*Cf, M);
        EXPECT_TRUE(Flow.Ok)
            << Name << " " << M.Name << M.Descriptor << ": "
            << (Flow.Errors.empty() ? std::string("<no diagnostic>")
                                    : Flow.Errors.front().str());
        // The fixpoint reached the entry point at minimum.
        EXPECT_FALSE(Flow.In.empty()) << Name << " " << M.Name;
        EXPECT_EQ(Flow.In.begin()->first, 0u);
      }
    }
  }
}

/// The builtin classes use under half of the 201 opcodes. This class
/// runs the rest that fall through to a next instruction (ldc_w, the
/// typed returns, athrow and jsr/ret aside) on correctly typed values.
ClassFile everyOpcodeClass() {
  ClassBuilder B("t/EveryOpcode");
  // Locals: 0 I, 1 J, 3 F, 4 D, 6 [F, 7 [D, 8 [B, 9 [C, 10 [S, 11 Object.
  MethodBuilder &M = B.method(AccPublic | AccStatic, "values",
                              "(IJFD[F[D[B[C[SLjava/lang/Object;)V");
  M.op(Op::Nop).aconstNull().op(Op::Pop).lconst(1).op(Op::Pop2);
  M.fconst(0).fconst(1).op(Op::Fadd).fconst(2).op(Op::Fsub).fconst(1)
      .op(Op::Fmul).fconst(2).op(Op::Fdiv).fconst(1).op(Op::Frem)
      .op(Op::Fneg).fstore(12);
  M.fload(12).fload(3).op(Op::Fcmpl).fload(3).fload(12).op(Op::Fcmpg)
      .op(Op::Iadd).op(Op::Pop);
  M.dconst(0).dconst(1).op(Op::Dadd).dconst(1).op(Op::Dsub).dconst(1)
      .op(Op::Dmul).dconst(1).op(Op::Ddiv).dconst(1).op(Op::Drem)
      .op(Op::Dneg).dstore(13);
  M.dload(13).dload(4).op(Op::Dcmpl).dload(4).dload(13).op(Op::Dcmpg)
      .op(Op::Iadd).op(Op::Pop);
  M.lload(1).lload(1).op(Op::Lsub).op(Op::Lneg).iload(0).op(Op::Lshl)
      .iload(0).op(Op::Lshr).iload(0).op(Op::Lushr).lload(1).op(Op::Land)
      .lload(1).op(Op::Lor).lload(1).op(Op::Lxor).lload(1).op(Op::Lcmp)
      .op(Op::Pop);
  M.iload(0).iload(0).op(Op::Idiv).iload(0).op(Op::Irem).op(Op::Ineg)
      .iload(0).op(Op::Ishr).iload(0).op(Op::Iushr).op(Op::I2b)
      .op(Op::I2c).op(Op::I2s).istore(0);
  M.iload(0).op(Op::I2f).op(Op::F2d).op(Op::D2i).op(Op::I2d).op(Op::D2l)
      .op(Op::L2d).op(Op::D2f).op(Op::F2l).op(Op::L2f).op(Op::F2i)
      .op(Op::Pop);
  M.aload(6).iconst(0).aload(6).iconst(0).op(Op::Faload).op(Op::Fastore);
  M.aload(7).iconst(0).aload(7).iconst(0).op(Op::Daload).op(Op::Dastore);
  M.aload(8).iconst(0).iconst(1).op(Op::Bastore);
  M.aload(9).iconst(0).aload(9).iconst(0).op(Op::Caload).op(Op::Castore);
  M.aload(10).iconst(0).aload(10).iconst(0).op(Op::Saload)
      .op(Op::Sastore);
  M.iconst(1).iconst(2).op(Op::DupX1).op(Op::Pop2).op(Op::Pop);
  M.iconst(1).iconst(2).iconst(3).op(Op::DupX2).op(Op::Pop2)
      .op(Op::Pop2);
  M.lconst(1).op(Op::Dup2).op(Op::Pop2).op(Op::Pop2);
  M.iconst(1).lconst(1).op(Op::Dup2X1).op(Op::Pop2).op(Op::Pop)
      .op(Op::Pop2);
  M.lconst(1).lconst(1).op(Op::Dup2X2).op(Op::Pop2).op(Op::Pop2)
      .op(Op::Pop2);
  MethodBuilder::Label Branches = M.newLabel(), Switched = M.newLabel();
  M.iload(0).branch(Op::Iflt, Branches).iload(0).branch(Op::Ifge, Branches)
      .iload(0).branch(Op::Ifgt, Branches).iload(0).iload(0)
      .branch(Op::IfIcmple, Branches).aload(11).aload(11)
      .branch(Op::IfAcmpeq, Branches).aload(11).aload(11)
      .branch(Op::IfAcmpne, Branches).branch(Op::GotoW, Branches)
      .bind(Branches);
  M.iload(0).tableswitch(Switched, 0, {Switched, Switched}).bind(Switched);
  M.aload(11).instanceOf("java/lang/String").op(Op::Pop);
  M.aload(11).op(Op::Monitorenter).aload(11).op(Op::Monitorexit);
  M.iconst(1).iconst(1).multianewarray("[[I", 2).op(Op::Pop);
  M.iconst(0).istore(300).iload(300).op(Op::Pop).iinc(300, 1000);
  M.lconst(0).lstore(302).lload(302).op(Op::Pop2);
  M.op(Op::Return);

  // The fixed-slot long, double, float and reference forms.
  MethodBuilder &S = B.method(AccPublic | AccStatic, "slots", "()V");
  S.lconst(0).lstore(0).lload(0).lstore(2).lload(2).op(Op::Pop2);
  S.lconst(0).lstore(1).lload(1).lstore(3).lload(3).op(Op::Pop2);
  S.dconst(0).dstore(0).dload(0).dstore(2).dload(2).op(Op::Pop2);
  S.dconst(0).dstore(1).dload(1).dstore(3).dload(3).op(Op::Pop2);
  S.fconst(0).fstore(0).fload(0).fstore(1).fload(1).fstore(2).fload(2)
      .fstore(3).fload(3).op(Op::Pop);
  S.aconstNull().astore(0).iconst(0).istore(0).op(Op::Return);
  return B.build();
}

TEST(Dataflow, StackEffectTableAgreesWithTheVerifier) {
  // Every builtin class: the class library as a fresh VM links it, and
  // every workload's classes (classdump's input class files included).
  std::vector<ClassFile> Classes = {everyOpcodeClass()};
  JvmRig Rig(ExecutionMode::DoppioJS);
  for (Klass *K : Rig.vm().loader().loadedClasses())
    if (!K->IsArrayClass)
      Classes.push_back(K->Cf);
  for (const workloads::Workload &W : smallWorkloads()) {
    std::vector<std::vector<uint8_t>> Files;
    for (const auto &[Name, Bytes] : W.Classes)
      Files.push_back(Bytes);
    for (const auto &[Path, Bytes] : W.DataFiles)
      if (Path.ends_with(".class"))
        Files.push_back(Bytes);
    for (const std::vector<uint8_t> &Bytes : Files) {
      auto Cf = readClassFile(Bytes);
      ASSERT_TRUE(Cf.ok());
      Classes.push_back(std::move(*Cf));
    }
  }

  // The dataflow pass simulates each instruction on its own; compare its
  // stack depth across every normal edge with the table's pops/pushes.
  size_t Checked = 0;
  for (const ClassFile &Cf : Classes) {
    for (const MemberInfo &M : Cf.Methods) {
      if (!M.Code)
        continue;
      SCOPED_TRACE(Cf.ThisClass + "." + M.Name + M.Descriptor);
      MethodDataflow Flow = analyzeMethodDataflow(Cf, M);
      ASSERT_TRUE(Flow.Ok);
      const std::vector<uint8_t> &Code = M.Code->Bytecode;
      std::set<uint32_t> HandlerPcs;
      for (const ExceptionHandler &H : M.Code->Handlers)
        HandlerPcs.insert(H.HandlerPc);
      for (const auto &[Pc, In] : Flow.In) {
        StackEffect E = decodeStackEffect(Code, Pc, Cf.Pool);
        ASSERT_EQ(E.Error, nullptr) << "pc " << Pc;
        EXPECT_LT(E.LocalTop, M.Code->MaxLocals) << "pc " << Pc;
        BranchDecode B = decodeBranch(Code, Pc);
        if (B.UsesJsrRet)
          continue;
        std::vector<uint32_t> Successors = B.Targets;
        if (B.FallsThrough)
          Successors.push_back(Pc + instructionLength(Code, Pc));
        for (uint32_t Next : Successors) {
          if (HandlerPcs.count(Next) || !Flow.In.count(Next))
            continue;
          EXPECT_EQ(Flow.In.at(Next).Stack.size(),
                    In.Stack.size() - E.Pops + E.Pushes)
              << opcodeName(Code[Pc]) << " at pc " << Pc;
          ++Checked;
        }
      }
    }
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(Dataflow, EntryStateTypesParametersSlotExactly) {
  ClassBuilder B("t/Entry");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(IJF)V");
  M.op(Op::Return);
  ClassFile Cf = B.build();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Cf.Methods.front());
  ASSERT_TRUE(Flow.Ok);
  ASSERT_TRUE(Flow.In.count(0));
  const FrameState &Entry = Flow.In.at(0);
  ASSERT_GE(Entry.Locals.size(), 4u); // int + long (2 slots) + float.
  EXPECT_EQ(Entry.Locals[0], VType::Int);
  EXPECT_EQ(Entry.Locals[1], VType::Long);
  EXPECT_EQ(Entry.Locals[2], VType::LongHi);
  EXPECT_EQ(Entry.Locals[3], VType::Float);
  EXPECT_TRUE(Entry.Stack.empty());
  EXPECT_EQ(Entry.MonitorDepth, 0);
}

TEST(Dataflow, DisassemblerAnnotatesInferredStates) {
  ClassBuilder B("t/Annot");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  M.iload(0).lconst(7).op(Op::Pop2).op(Op::Ireturn)
      .rawOp(Op::Return); // Dead code past the return.
  ClassFile Cf = B.build();
  const MemberInfo &Target = Cf.Methods.front();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Target);
  ASSERT_TRUE(Flow.Ok);
  std::string Text = disassembleMethod(Cf, Target, &Flow);
  // Entry state: empty stack; after lconst the stack holds the int plus
  // the two-slot long ("I J=").
  EXPECT_NE(Text.find("; []"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[I J=]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("<unreachable>"), std::string::npos) << Text;
}

//===--------------------------------------------------------------------===//
// Loader integration: Verified bit, rejection, and MonitorOnly demotion.
//===--------------------------------------------------------------------===//

TEST(Dataflow, LoaderRejectsDataflowInvalidClass) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  ClassBuilder Bad("t/Under");
  Bad.method(AccPublic | AccStatic, "f", "()V")
      .rawOp(Op::Pop)
      .rawOp(Op::Return);
  Rig.addClassBytes("t/Under", Bad.bytes());
  ClassBuilder Main("Main");
  Main.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V")
      .invokestatic("t/Under", "f", "()V")
      .op(Op::Return);
  Rig.addClass(Main);
  EXPECT_EQ(Rig.run("Main"), 1);
  EXPECT_NE(Rig.err().find("NoClassDefFoundError"), std::string::npos)
      << Rig.err();
  EXPECT_NE(Rig.err().find("t/Under"), std::string::npos) << Rig.err();
}

TEST(Dataflow, LoaderMarksVerifiedAndDemotesMonitorOnly) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  // t/Mon.hold leaks a monitor (MonitorOnly diagnostic): the class still
  // loads, but that one method runs guarded.
  ClassBuilder Mon("t/Mon");
  Mon.method(AccPublic | AccStatic, "hold", "(Ljava/lang/Object;)V")
      .aload(0)
      .rawOp(Op::Monitorenter)
      .rawOp(Op::Return);
  Mon.method(AccPublic | AccStatic, "clean", "(I)I")
      .iload(0)
      .op(Op::Ireturn);
  Rig.addClassBytes("t/Mon", Mon.bytes());
  ClassBuilder Main("Main");
  Main.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V")
      .anew("java/lang/Object")
      .op(Op::Dup)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .invokestatic("t/Mon", "hold", "(Ljava/lang/Object;)V")
      .iconst(5)
      .invokestatic("t/Mon", "clean", "(I)I")
      .op(Op::Pop)
      .op(Op::Return);
  Rig.addClass(Main);
  ASSERT_EQ(Rig.run("Main"), 0) << Rig.err();

  Klass *MonK = Rig.vm().loader().lookup("t/Mon");
  ASSERT_NE(MonK, nullptr);
  for (const auto &M : MonK->Methods) {
    if (M->key() == "hold(Ljava/lang/Object;)V")
      EXPECT_FALSE(M->Verified);
    if (M->key() == "clean(I)I")
      EXPECT_TRUE(M->Verified);
  }
  Klass *MainK = Rig.vm().loader().lookup("Main");
  ASSERT_NE(MainK, nullptr);
  for (const auto &M : MainK->Methods)
    if (M->key() == "main([Ljava/lang/String;)V")
      EXPECT_TRUE(M->Verified);
}

//===--------------------------------------------------------------------===//
// Check-elision differential: trusted and guarded execution must be
// observably identical on real programs.
//===--------------------------------------------------------------------===//

TEST(Dataflow, ElisionOnAndOffProduceIdenticalRuns) {
  using namespace doppio::workloads;
  for (Workload (*Make)() : {+[] { return makeRecursive(8, 4); },
                             +[] { return makePiDigits(12); }}) {
    Workload W = Make();
    std::string Outs[2];
    int Exits[2];
    for (int Trust = 0; Trust != 2; ++Trust) {
      JvmRig Rig(ExecutionMode::DoppioJS);
      workloads::publish(W, Rig.Env.server());
      Rig.Options.Exec.TrustVerifier = Trust == 1;
      Exits[Trust] = Rig.run(W.MainClass, W.Args);
      Outs[Trust] = Rig.out();
    }
    EXPECT_EQ(Exits[0], Exits[1]) << W.Name;
    EXPECT_EQ(Outs[0], Outs[1]) << W.Name;
    EXPECT_FALSE(Outs[1].empty()) << W.Name;
  }
}

//===--------------------------------------------------------------------===//
// Guarded execution: unverified frames run the interpreter's
// per-instruction precheck, which throws VerifyError before a forged
// instruction can touch the operand stack or locals out of bounds.
//===--------------------------------------------------------------------===//

struct GuardedCase {
  const char *Name;
  /// Emits the body of t/Guarded.main into a class the verifier rejects.
  std::function<void(ClassBuilder &, MethodBuilder &)> Forge;
  const char *Message;
  uint32_t Pc;
};

std::vector<GuardedCase> guardedCases() {
  return {
      {"stack-underflow",
       [](ClassBuilder &, MethodBuilder &M) {
         M.rawOp(Op::Pop).rawOp(Op::Return);
       },
       "stack underflow at Pop (pc 0)", 0},

      {"stack-overflow",
       [](ClassBuilder &, MethodBuilder &M) {
         M.iconst(0).iconst(0).rawOp(Op::Pop).rawOp(Op::Pop)
             .rawOp(Op::Return)
             .overrideMaxStack(1);
       },
       "stack overflow at Iconst0 (pc 1)", 1},

      {"local-out-of-bounds",
       [](ClassBuilder &, MethodBuilder &M) {
         M.rawOp(Op::Iload).rawU1(7).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1)
             .overrideMaxLocals(1);
       },
       "local out of bounds at Iload (pc 0)", 0},

      {"local-pair-out-of-bounds",
       [](ClassBuilder &, MethodBuilder &M) {
         // lload_0 reads slots 0 and 1; only slot 0 exists.
         M.rawOp(Op::Lload0).rawOp(Op::Pop2).rawOp(Op::Return)
             .overrideMaxStack(2)
             .overrideMaxLocals(1);
       },
       "local out of bounds at Lload0 (pc 0)", 0},

      {"wide-local-out-of-bounds",
       [](ClassBuilder &, MethodBuilder &M) {
         // wide lstore 300 writes slots 300 and 301.
         M.lconst(0).rawOp(Op::Wide).rawOp(Op::Lstore).rawU2(300)
             .rawOp(Op::Return)
             .overrideMaxStack(2)
             .overrideMaxLocals(301);
       },
       "local out of bounds at Wide (pc 1)", 1},

      {"bad-field-reference",
       [](ClassBuilder &, MethodBuilder &M) {
         M.rawOp(Op::Getstatic).rawU2(0).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1);
       },
       "bad field reference", 0},

      {"bad-method-reference",
       [](ClassBuilder &, MethodBuilder &M) {
         M.rawOp(Op::Invokestatic).rawU2(0).rawOp(Op::Return);
       },
       "bad method reference", 0},

      {"invoke-underflow",
       [](ClassBuilder &B, MethodBuilder &M) {
         // The descriptor asks for two longs; one is on the stack.
         M.lconst(0)
             .rawOp(Op::Invokestatic)
             .rawU2(B.pool().addMethodref("t/Guarded", "g", "(JJ)V"))
             .rawOp(Op::Return);
       },
       "stack underflow at Invokestatic (pc 1)", 1},

      {"multianewarray-underflow",
       [](ClassBuilder &B, MethodBuilder &M) {
         M.iconst(2)
             .rawOp(Op::Multianewarray)
             .rawU2(B.pool().addClass("[[[I"))
             .rawU1(3)
             .rawOp(Op::Pop)
             .rawOp(Op::Return);
       },
       "stack underflow at Multianewarray (pc 1)", 1},

      {"wide-non-widenable",
       [](ClassBuilder &, MethodBuilder &M) {
         M.rawOp(Op::Wide).rawOp(Op::Iadd).rawU2(0).rawOp(Op::Return);
       },
       "wide prefix on a non-widenable instruction", 0},

      {"quick-form-reports-its-base",
       [](ClassBuilder &B, MethodBuilder &M) {
         M.rawOp(Op::PutfieldQuick)
             .rawU2(B.pool().addFieldref("t/Guarded", "x", "I"))
             .rawOp(Op::Return);
       },
       "stack underflow at Putfield (pc 0)", 0},
  };
}

TEST(Dataflow, GuardedExecutionThrowsVerifyErrorAtExactPc) {
  for (const GuardedCase &C : guardedCases()) {
    SCOPED_TRACE(C.Name);
    JvmRig Rig(ExecutionMode::DoppioJS);
    ClassBuilder B("t/Guarded");
    MethodBuilder &M =
        B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
    C.Forge(B, M);
    // defineBuiltin links without rejecting, so the forged main stays
    // unverified and runs guarded.
    Klass *K = Rig.vm().loader().defineBuiltin(B.build());
    ASSERT_FALSE(K->Methods.front()->Verified);
    EXPECT_EQ(Rig.run("t/Guarded"), 1);
    EXPECT_EQ(Rig.err(),
              std::string("Exception in thread \"jvm-thread-0\" "
                          "java/lang/VerifyError: ") +
                  C.Message +
                  "\n\tat t/Guarded.main([Ljava/lang/String;)V (pc=" +
                  std::to_string(C.Pc) + ")\n");
  }
}

TEST(Dataflow, TrustVerifierEnvOverrideIsHonored) {
  // DOPPIO_JVM_PROFILE=trust=0 forces guarded execution even with the
  // default options.
  setenv("DOPPIO_JVM_PROFILE", "trust=0", 1);
  {
    JvmRig Rig(ExecutionMode::DoppioJS);
    EXPECT_FALSE(Rig.vm().profile().TrustVerifier);
  }
  unsetenv("DOPPIO_JVM_PROFILE");
  {
    JvmRig Rig(ExecutionMode::DoppioJS);
    EXPECT_TRUE(Rig.vm().profile().TrustVerifier);
  }
}

} // namespace
