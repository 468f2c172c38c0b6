//===- tests/jvm/classfile_test.cpp ---------------------------------------==//
//
// Tests for the class-file toolchain: opcode metadata (all 201
// instructions, §6), descriptor parsing, constant-pool interning, and the
// assembler -> writer -> reader round trip that the class loader path
// depends on (§6.4).
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/builder.h"
#include "jvm/classfile/classfile.h"
#include "jvm/classfile/descriptor.h"
#include "jvm/classfile/opcodes.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;

namespace {

TEST(Opcodes, ExactlyTwoHundredOne) {
  // "DoppioJVM implements all 201 bytecode instructions specified in the
  // second edition of the Java Virtual Machine Specification" (§6).
  EXPECT_EQ(opcodeCount(), 201);
}

TEST(Opcodes, MetadataSpotChecks) {
  EXPECT_STREQ(opcodeName(0x00), "Nop");
  EXPECT_STREQ(opcodeName(0xb6), "Invokevirtual");
  EXPECT_STREQ(opcodeName(0xc9), "JsrW");
  EXPECT_STREQ(opcodeName(0xba), "<illegal>"); // invokedynamic is post-spec-2.
  EXPECT_STREQ(opcodeName(0xff), "<illegal>");
  EXPECT_EQ(opcodeOperandBytes(0x10), 1);  // bipush
  EXPECT_EQ(opcodeOperandBytes(0x11), 2);  // sipush
  EXPECT_EQ(opcodeOperandBytes(0xaa), -1); // tableswitch
  EXPECT_EQ(opcodeOperandBytes(0xc4), -1); // wide
  EXPECT_EQ(opcodeOperandBytes(0xb9), 4);  // invokeinterface
  EXPECT_EQ(opcodeOperandBytes(0xba), -2); // illegal
  EXPECT_TRUE(isLegalOpcode(0xc9));
  EXPECT_FALSE(isLegalOpcode(0xca));
}

TEST(Descriptor, ParseMethodDescriptors) {
  auto D = desc::parseMethod("(I[JLjava/lang/String;)V");
  ASSERT_TRUE(D.has_value());
  ASSERT_EQ(D->Params.size(), 3u);
  EXPECT_EQ(D->Params[0], "I");
  EXPECT_EQ(D->Params[1], "[J");
  EXPECT_EQ(D->Params[2], "Ljava/lang/String;");
  EXPECT_EQ(D->Ret, "V");
  EXPECT_EQ(desc::paramSlots(*D), 1 + 1 + 1) << "[J is a reference";

  auto E = desc::parseMethod("()D");
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->Params.empty());
  EXPECT_EQ(desc::slotSize(E->Ret), 2);

  EXPECT_FALSE(desc::parseMethod("I)V").has_value());
  EXPECT_FALSE(desc::parseMethod("(Q)V").has_value());
  EXPECT_FALSE(desc::parseMethod("(I)").has_value());
  EXPECT_FALSE(desc::parseMethod("(I)VV").has_value());
  EXPECT_FALSE(desc::parseMethod("(Ljava/lang/String)V").has_value());
}

TEST(Descriptor, SlotSizesAndNames) {
  EXPECT_EQ(desc::slotSize("J"), 2);
  EXPECT_EQ(desc::slotSize("D"), 2);
  EXPECT_EQ(desc::slotSize("I"), 1);
  EXPECT_EQ(desc::slotSize("Lx/Y;"), 1);
  EXPECT_EQ(desc::slotSize("V"), 0);
  EXPECT_EQ(desc::toClassName("Ljava/lang/String;"), "java/lang/String");
  EXPECT_EQ(desc::toClassName("[I"), "[I");
  EXPECT_EQ(desc::toFieldDesc("java/lang/String"), "Ljava/lang/String;");
  EXPECT_EQ(desc::toFieldDesc("[I"), "[I");
  EXPECT_TRUE(desc::isArray("[I"));
  EXPECT_TRUE(desc::isReference("[I"));
  EXPECT_TRUE(desc::isReference("Lx;"));
  EXPECT_FALSE(desc::isReference("I"));
}

TEST(ConstantPool, InterningDeduplicates) {
  ConstantPool Pool;
  uint16_t A = Pool.addUtf8("hello");
  uint16_t B = Pool.addUtf8("hello");
  EXPECT_EQ(A, B);
  uint16_t C1 = Pool.addClass("java/lang/Object");
  uint16_t C2 = Pool.addClass("java/lang/Object");
  EXPECT_EQ(C1, C2);
  uint16_t M = Pool.addMethodref("A", "m", "()V");
  EXPECT_EQ(M, Pool.addMethodref("A", "m", "()V"));
  auto Ref = Pool.memberRef(M);
  EXPECT_EQ(Ref.ClassName, "A");
  EXPECT_EQ(Ref.Name, "m");
  EXPECT_EQ(Ref.Descriptor, "()V");
}

TEST(ConstantPool, LongsOccupyTwoSlots) {
  ConstantPool Pool;
  uint16_t L = Pool.addLong(42);
  uint16_t Next = Pool.addUtf8("after");
  EXPECT_EQ(Next, L + 2) << "long must take two constant pool slots";
}

TEST(Builder, RoundTripSimpleClass) {
  ClassBuilder B("demo/Adder");
  B.addField(AccPrivate, "total", "I");
  B.addDefaultConstructor();
  MethodBuilder &Add = B.method(AccPublic | AccStatic, "add", "(II)I");
  Add.iload(0).iload(1).op(Op::Iadd).op(Op::Ireturn);
  std::vector<uint8_t> Bytes = B.bytes();
  // Magic number.
  ASSERT_GE(Bytes.size(), 4u);
  EXPECT_EQ(Bytes[0], 0xCA);
  EXPECT_EQ(Bytes[1], 0xFE);
  EXPECT_EQ(Bytes[2], 0xBA);
  EXPECT_EQ(Bytes[3], 0xBE);

  auto Parsed = readClassFile(Bytes);
  ASSERT_TRUE(Parsed.ok()) << Parsed.error().message();
  EXPECT_EQ(Parsed->ThisClass, "demo/Adder");
  EXPECT_EQ(Parsed->SuperClass, "java/lang/Object");
  ASSERT_EQ(Parsed->Fields.size(), 1u);
  EXPECT_EQ(Parsed->Fields[0].Name, "total");
  ASSERT_EQ(Parsed->Methods.size(), 2u);
  const MemberInfo *Add2 = Parsed->findMethod("add", "(II)I");
  ASSERT_NE(Add2, nullptr);
  ASSERT_TRUE(Add2->Code.has_value());
  EXPECT_EQ(Add2->Code->MaxLocals, 2);
  EXPECT_EQ(Add2->Code->MaxStack, 2);
  // iload_0 iload_1 iadd ireturn
  EXPECT_EQ(Add2->Code->Bytecode,
            (std::vector<uint8_t>{0x1a, 0x1b, 0x60, 0xac}));
}

TEST(Builder, ComputesMaxStackAcrossBranches) {
  ClassBuilder B("demo/Branchy");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  MethodBuilder::Label Else = M.newLabel(), End = M.newLabel();
  M.iload(0)
      .branch(Op::Ifeq, Else)
      .iconst(1)
      .iconst(2)
      .iconst(3)
      .op(Op::Iadd)
      .op(Op::Iadd)
      .branch(Op::Goto, End)
      .bind(Else)
      .iconst(0)
      .iconst(0)
      .op(Op::Iadd)
      .bind(End)
      .op(Op::Ireturn);
  ClassFile Cf = B.build();
  const MemberInfo *F = Cf.findMethod("f", "(I)I");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Code->MaxStack, 3);
}

TEST(Builder, LongsAndDoublesUseTwoSlots) {
  ClassBuilder B("demo/Wide");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(JD)J");
  M.lload(0).dload(2).op(Op::D2l).op(Op::Ladd).op(Op::Lreturn);
  ClassFile Cf = B.build();
  const MemberInfo *F = Cf.findMethod("f", "(JD)J");
  EXPECT_EQ(F->Code->MaxLocals, 4);
  EXPECT_EQ(F->Code->MaxStack, 4);
}

TEST(Builder, WideLocalIndexesUseWidePrefix) {
  ClassBuilder B("demo/ManyLocals");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()I");
  M.iconst(7).istore(300).iload(300).op(Op::Ireturn);
  ClassFile Cf = B.build();
  const MemberInfo *F = Cf.findMethod("f", "()I");
  EXPECT_EQ(F->Code->MaxLocals, 301);
  // bipush 7 (2 bytes), wide istore, wide iload, ireturn.
  const std::vector<uint8_t> &Code = F->Code->Bytecode;
  EXPECT_EQ(Code[0], 0x10); // bipush
  EXPECT_EQ(Code[2], 0xc4); // wide
  EXPECT_EQ(Code[3], 0x36); // istore
}

TEST(Builder, ExceptionHandlersRoundTrip) {
  ClassBuilder B("demo/Catchy");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()I");
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel();
  M.bind(Start)
      .iconst(1)
      .iconst(0)
      .op(Op::Idiv)
      .op(Op::Ireturn)
      .bind(End)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(-1)
      .op(Op::Ireturn)
      .handler(Start, End, Handler, "java/lang/ArithmeticException");
  std::vector<uint8_t> Bytes = B.bytes();
  auto Parsed = readClassFile(Bytes);
  ASSERT_TRUE(Parsed.ok());
  const MemberInfo *F = Parsed->findMethod("f", "()I");
  ASSERT_EQ(F->Code->Handlers.size(), 1u);
  const ExceptionHandler &H = F->Code->Handlers[0];
  EXPECT_EQ(H.StartPc, 0);
  EXPECT_GT(H.HandlerPc, H.StartPc);
  EXPECT_EQ(Parsed->Pool.className(H.CatchType),
            "java/lang/ArithmeticException");
}

TEST(Builder, ConstantsChooseCompactEncodings) {
  ClassBuilder B("demo/Consts");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()V");
  M.iconst(3)      // iconst_3 (1 byte)
      .op(Op::Pop)
      .iconst(100) // bipush (2 bytes)
      .op(Op::Pop)
      .iconst(30000) // sipush (3 bytes)
      .op(Op::Pop)
      .iconst(100000) // ldc (2 bytes)
      .op(Op::Pop)
      .op(Op::Return);
  ClassFile Cf = B.build();
  const std::vector<uint8_t> &Code =
      Cf.findMethod("f", "()V")->Code->Bytecode;
  EXPECT_EQ(Code[0], 0x06); // iconst_3
  EXPECT_EQ(Code[2], 0x10); // bipush
  EXPECT_EQ(Code[5], 0x11); // sipush
  EXPECT_EQ(Code[9], 0x12); // ldc
}

TEST(Reader, RejectsGarbage) {
  EXPECT_FALSE(readClassFile({1, 2, 3, 4}).ok());
  EXPECT_FALSE(readClassFile({0xCA, 0xFE, 0xBA, 0xBE}).ok());
  std::vector<uint8_t> Truncated = ClassBuilder("demo/T").bytes();
  Truncated.resize(Truncated.size() / 2);
  EXPECT_FALSE(readClassFile(Truncated).ok());
}

/// Offset of each constant pool entry's tag byte in a class file (index 0
/// and the second slot of an 8-byte constant stay 0), plus the offset just
/// past the pool.
struct PoolLayout {
  std::vector<size_t> EntryAt;
  size_t End = 0;
};

PoolLayout layoutPool(const std::vector<uint8_t> &Bytes) {
  auto U2 = [&](size_t At) { return size_t(Bytes[At]) << 8 | Bytes[At + 1]; };
  size_t Count = U2(8);
  PoolLayout L;
  L.EntryAt.assign(Count, 0);
  size_t At = 10;
  for (size_t I = 1; I < Count; ++I) {
    L.EntryAt[I] = At;
    switch (static_cast<CpTag>(Bytes[At])) {
    case CpTag::Utf8:
      At += 3 + U2(At + 1);
      break;
    case CpTag::Class:
    case CpTag::String:
      At += 3;
      break;
    case CpTag::Long:
    case CpTag::Double:
      At += 9;
      ++I;
      break;
    default: // Integer, Float, member refs, NameAndType.
      At += 5;
      break;
    }
  }
  L.End = At;
  return L;
}

void putU2(std::vector<uint8_t> &Bytes, size_t At, uint16_t V) {
  Bytes[At] = static_cast<uint8_t>(V >> 8);
  Bytes[At + 1] = static_cast<uint8_t>(V);
}

TEST(Reader, MistaggedIndexesAreErrorsNotAsserts) {
  // One static method, no fields or interfaces, so the header and the
  // first method's name index sit at fixed offsets past the pool.
  ClassBuilder B("demo/Patched");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()I");
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel();
  M.bind(Start)
      .iconst(100000) // ldc: an Integer constant.
      .op(Op::Ireturn)
      .bind(End)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(-1)
      .op(Op::Ireturn)
      .handler(Start, End, Handler, "java/lang/Exception");
  std::vector<uint8_t> Good = B.bytes();
  auto Parsed = readClassFile(Good);
  ASSERT_TRUE(Parsed.ok()) << Parsed.error().message();
  ASSERT_EQ(Parsed->Interfaces.size(), 0u);
  ASSERT_EQ(Parsed->Fields.size(), 0u);
  ASSERT_EQ(Parsed->Methods[0].Name, "f");
  ASSERT_EQ(Parsed->Methods[0].Code->Handlers.size(), 1u);
  const ConstantPool &Pool = Parsed->Pool;
  uint16_t ClassIdx = 0, Utf8Idx = 0, IntIdx = 0;
  for (uint16_t I = 1; I < Pool.size(); ++I) {
    CpTag T = Pool.at(I).Tag;
    if (T == CpTag::Class && !ClassIdx)
      ClassIdx = I;
    else if (T == CpTag::Utf8 && !Utf8Idx)
      Utf8Idx = I;
    else if (T == CpTag::Integer && !IntIdx)
      IntIdx = I;
  }
  ASSERT_TRUE(ClassIdx && Utf8Idx && IntIdx);
  PoolLayout L = layoutPool(Good);
  // Header past the pool: access, this_class, super_class, interface
  // count, field count, method count; then method 0's access and name.
  size_t ThisAt = L.End + 2;
  size_t MethodNameAt = L.End + 14;

  std::vector<uint8_t> ThisIsUtf8 = Good;
  putU2(ThisIsUtf8, ThisAt, Utf8Idx);
  std::vector<uint8_t> NameIsClass = Good;
  putU2(NameIsClass, MethodNameAt, ClassIdx);
  std::vector<uint8_t> ClassNamesInteger = Good;
  putU2(ClassNamesInteger, L.EntryAt[ClassIdx] + 1, IntIdx);
  // The disassembler resolves a handler's catch type without verifying.
  ClassFile Model = *Parsed;
  Model.Methods[0].Code->Handlers[0].CatchType = Utf8Idx;
  std::vector<uint8_t> CatchTypeIsUtf8 = writeClassFile(Model);

  for (const std::vector<uint8_t> *Bad :
       {&ThisIsUtf8, &NameIsClass, &ClassNamesInteger, &CatchTypeIsUtf8}) {
    auto R = readClassFile(*Bad);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.error().Code, rt::Errno::Invalid) << R.error().message();
  }
}

TEST(Reader, InterfaceFlagsSurvive) {
  ClassBuilder B("demo/Iface");
  B.setAccess(AccPublic | AccInterface | AccAbstract);
  B.abstractMethod(AccPublic, "poke", "()V");
  auto Parsed = readClassFile(B.bytes());
  ASSERT_TRUE(Parsed.ok());
  EXPECT_TRUE(Parsed->AccessFlags & AccInterface);
  EXPECT_TRUE(Parsed->Methods[0].AccessFlags & AccAbstract);
  EXPECT_FALSE(Parsed->Methods[0].Code.has_value());
}

TEST(Reader, TableswitchSurvivesRoundTrip) {
  ClassBuilder B("demo/Sw");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  MethodBuilder::Label C0 = M.newLabel(), C1 = M.newLabel(),
                       Def = M.newLabel();
  M.iload(0)
      .tableswitch(Def, 0, {C0, C1})
      .bind(C0)
      .iconst(100)
      .op(Op::Ireturn)
      .bind(C1)
      .iconst(200)
      .op(Op::Ireturn)
      .bind(Def)
      .iconst(-1)
      .op(Op::Ireturn);
  auto Parsed = readClassFile(B.bytes());
  ASSERT_TRUE(Parsed.ok());
  EXPECT_NE(Parsed->findMethod("f", "(I)I"), nullptr);
}

} // namespace
