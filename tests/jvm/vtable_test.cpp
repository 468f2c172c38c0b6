//===- tests/jvm/vtable_test.cpp ------------------------------------------==//
//
// Per-class virtual tables behind the invokevirtual inline cache
// (DESIGN.md §18):
//
//  - For every class the builtin workloads and the class library load,
//    and every name and descriptor declared along its superclass chain,
//    the vtable slot holds exactly what findMethod resolves.
//  - A call site alternating among an overriding class, a subclass that
//    inherits without overriding, and a grandchild keeps its output and
//    its inline-cache hits and misses (the cache stays in front).
//  - Interface call sites and array receivers fall back to resolution by
//    name.
//
// Registered under `ctest -L quick`.
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/builder.h"
#include "jvm/classloader.h"
#include "jvm/exec_profile.h"
#include "jvm/jvm.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using doppio::testutil::JvmRig;

namespace {

/// Checks the vtable invariant on every class \p Vm has loaded; returns
/// how many (class, declaration) pairs it checked.
size_t checkVTables(Jvm &Vm) {
  size_t Checked = 0;
  for (Klass *K : Vm.loader().loadedClasses()) {
    SCOPED_TRACE(K->Name);
    if (K->IsArrayClass) {
      EXPECT_TRUE(K->VTable.empty());
      continue;
    }
    for (Klass *A = K; A; A = A->Super)
      for (const auto &M : A->Methods) {
        Method *Want = K->findMethod(M->Name, M->Descriptor);
        if (M->VSlot >= K->VTable.size()) {
          ADD_FAILURE() << "no slot for " << M->qualifiedName();
          continue;
        }
        EXPECT_EQ(K->VTable[M->VSlot], Want) << M->qualifiedName();
        EXPECT_EQ(K->vtableTarget(M->VSlot, M->VRoot), Want)
            << M->qualifiedName();
        ++Checked;
      }
  }
  return Checked;
}

TEST(VTable, SlotsMatchFindMethodOnEveryLoadedClass) {
  using namespace doppio::workloads;
  std::vector<Workload> Ws;
  Ws.push_back(makeRecursive(12, 5));
  Ws.push_back(makeBinaryTrees(6));
  Ws.push_back(makeNQueens(6));
  Ws.push_back(makeDeltaBlue(20, 40));
  Ws.push_back(makePiDigits(40));
  Ws.push_back(makeClassDump(6));
  Ws.push_back(makeMiniCompile(4));
  for (const Workload &W : Ws) {
    SCOPED_TRACE(W.Name);
    JvmRig Rig(ExecutionMode::DoppioJS);
    workloads::publish(W, Rig.Env.server());
    Rig.Options.Exec = ExecProfile::quick();
    // The class library alone, then with the workload's classes loaded.
    EXPECT_GT(checkVTables(Rig.vm()), 0u);
    ASSERT_EQ(Rig.run(W.MainClass, W.Args), 0);
    EXPECT_GT(checkVTables(Rig.vm()), 0u);
  }
}

/// Base.f() returns 1; Over overrides it (2); Inherit extends Over and
/// does not; Grand extends Inherit and overrides again (4). Poly.main
/// calls Base.f() from one site on the three receivers in turn and
/// prints a running hash of the results.
void publishPoly(JvmRig &Rig, int Iterations) {
  auto Leaf = [&](const std::string &Name, const std::string &Super,
                  int Result) {
    ClassBuilder B(Name, Super);
    B.addDefaultConstructor();
    if (Result)
      B.method(AccPublic, "f", "()I").iconst(Result).op(Op::Ireturn);
    Rig.addClass(B);
  };
  Leaf("Base", "java/lang/Object", 1);
  Leaf("Over", "Base", 2);
  Leaf("Inherit", "Over", 0);
  Leaf("Grand", "Inherit", 4);

  ClassBuilder P("Poly");
  MethodBuilder &M =
      P.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  M.iconst(3).anewarray("Base").astore(1);
  int I = 0;
  for (const char *Name : {"Over", "Inherit", "Grand"}) {
    M.aload(1).iconst(I++).anew(Name).op(Op::Dup);
    M.invokespecial(Name, "<init>", "()V").op(Op::Aastore);
  }
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(2).iconst(0).istore(3);
  M.bind(Loop).iload(3).iconst(Iterations).branch(Op::IfIcmpge, Done);
  M.iload(2).iconst(31).op(Op::Imul);
  M.aload(1).iload(3).iconst(3).op(Op::Irem).op(Op::Aaload);
  M.invokevirtual("Base", "f", "()I").op(Op::Iadd).istore(2);
  M.iinc(3, 1).branch(Op::Goto, Loop);
  M.bind(Done);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iload(2).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.op(Op::Return);
  Rig.addClass(P);
}

TEST(VTable, ThreeReceiversKeepOutputAndCacheCounts) {
  for (ExecutionMode Mode :
       {ExecutionMode::DoppioJS, ExecutionMode::NativeHotspot}) {
    SCOPED_TRACE(Mode == ExecutionMode::DoppioJS ? "DoppioJS"
                                                 : "NativeHotspot");
    JvmRig Base(Mode);
    publishPoly(Base, 3000);
    Base.Options.Exec = ExecProfile::baseline();
    ASSERT_EQ(Base.run("Poly"), 0);

    JvmRig Quick(Mode);
    publishPoly(Quick, 3000);
    Quick.Options.Exec = ExecProfile::quick();
    ASSERT_EQ(Quick.run("Poly"), 0);
    EXPECT_EQ(Quick.out(), Base.out());
    EXPECT_EQ(Quick.out(), "-10580480\n");
    // Pinned at the inline cache without vtables behind it: the site
    // runs unquickened once, then misses on every call (three receiver
    // classes in turn); the vtable only changes how a miss resolves.
    EXPECT_EQ(Quick.vm().icHits(), 0u);
    EXPECT_EQ(Quick.vm().icMisses(), 2999u);

    // Every receiver descends from Base.f's declaring class, so each
    // resolves through the slot: Inherit to Over's override.
    ClassLoader &L = Quick.vm().loader();
    Method *Root = L.lookup("Base")->findDeclaredMethod("f", "()I");
    ASSERT_TRUE(Root);
    EXPECT_EQ(Root->VRoot, Root);
    Method *OverF = L.lookup("Over")->findDeclaredMethod("f", "()I");
    Method *GrandF = L.lookup("Grand")->findDeclaredMethod("f", "()I");
    EXPECT_EQ(OverF->VRoot, Root);
    EXPECT_EQ(GrandF->VSlot, Root->VSlot);
    EXPECT_EQ(L.lookup("Over")->vtableTarget(Root->VSlot, Root), OverF);
    EXPECT_EQ(L.lookup("Inherit")->vtableTarget(Root->VSlot, Root), OverF);
    EXPECT_EQ(L.lookup("Grand")->vtableTarget(Root->VSlot, Root), GrandF);
  }
}

/// Shape.area() is an interface method that Sq (4) and Tri (3)
/// implement. Iface.main calls it through invokeinterface on the two in
/// turn, and calls Object.equals through invokevirtual on an int[] and a
/// Sq in turn, printing both running sums.
void publishIface(JvmRig &Rig, int Iterations) {
  ClassBuilder Shape("Shape");
  Shape.setAccess(AccPublic | AccInterface | AccAbstract);
  Shape.abstractMethod(AccPublic | AccAbstract, "area", "()I");
  Rig.addClass(Shape);
  for (auto [Name, Area] : {std::pair<const char *, int>{"Sq", 4},
                            std::pair<const char *, int>{"Tri", 3}}) {
    ClassBuilder B(Name);
    B.addInterface("Shape");
    B.addDefaultConstructor();
    B.method(AccPublic, "area", "()I").iconst(Area).op(Op::Ireturn);
    Rig.addClass(B);
  }

  ClassBuilder P("Iface");
  MethodBuilder &M =
      P.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  // Slot 1: Shape[] {Sq, Tri}; slot 2: Object[] {int[4], Sq}.
  M.iconst(2).anewarray("Shape").astore(1);
  M.aload(1).iconst(0).anew("Sq").op(Op::Dup);
  M.invokespecial("Sq", "<init>", "()V").op(Op::Aastore);
  M.aload(1).iconst(1).anew("Tri").op(Op::Dup);
  M.invokespecial("Tri", "<init>", "()V").op(Op::Aastore);
  M.iconst(2).anewarray("java/lang/Object").astore(2);
  M.aload(2).iconst(0).iconst(4).newarray(ArrayType::Int).op(Op::Aastore);
  M.aload(2).iconst(1).anew("Sq").op(Op::Dup);
  M.invokespecial("Sq", "<init>", "()V").op(Op::Aastore);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(3).iconst(0).istore(4).iconst(0).istore(5);
  M.bind(Loop).iload(5).iconst(Iterations).branch(Op::IfIcmpge, Done);
  M.iload(3).aload(1).iload(5).iconst(2).op(Op::Irem).op(Op::Aaload);
  M.invokeinterface("Shape", "area", "()I").op(Op::Iadd).istore(3);
  M.aload(2).iload(5).iconst(2).op(Op::Irem).op(Op::Aaload).op(Op::Dup);
  M.invokevirtual("java/lang/Object", "equals", "(Ljava/lang/Object;)Z");
  M.iload(4).op(Op::Iadd).istore(4);
  M.iinc(5, 1).branch(Op::Goto, Loop);
  M.bind(Done);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iload(3).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iload(4).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.op(Op::Return);
  Rig.addClass(P);
}

TEST(VTable, InterfaceSitesAndArrayReceiversFallBack) {
  JvmRig Base(ExecutionMode::DoppioJS);
  publishIface(Base, 1000);
  Base.Options.Exec = ExecProfile::baseline();
  ASSERT_EQ(Base.run("Iface"), 0);

  JvmRig Quick(ExecutionMode::DoppioJS);
  publishIface(Quick, 1000);
  Quick.Options.Exec = ExecProfile::quick();
  ASSERT_EQ(Quick.run("Iface"), 0);
  EXPECT_EQ(Quick.out(), Base.out());
  EXPECT_EQ(Quick.out(), "3500\n1000\n");

  ClassLoader &L = Quick.vm().loader();
  // An interface method roots a slot in the interface's own table, which
  // no implementing class copies.
  Method *Area = L.lookup("Shape")->findDeclaredMethod("area", "()I");
  ASSERT_TRUE(Area);
  EXPECT_EQ(L.lookup("Sq")->vtableTarget(Area->VSlot, Area->VRoot), nullptr);
  EXPECT_EQ(L.lookup("Tri")->vtableTarget(Area->VSlot, Area->VRoot),
            nullptr);
  // Array classes carry no vtable, so Object's methods resolve by name;
  // an ordinary class reaches the same method through the slot.
  Method *Equals = L.lookup("java/lang/Object")
                       ->findDeclaredMethod("equals", "(Ljava/lang/Object;)Z");
  ASSERT_TRUE(Equals);
  EXPECT_EQ(L.lookup("[I")->vtableTarget(Equals->VSlot, Equals->VRoot),
            nullptr);
  EXPECT_EQ(L.lookup("Sq")->vtableTarget(Equals->VSlot, Equals->VRoot),
            Equals);
}

} // namespace
