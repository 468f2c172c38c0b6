//===- jvm/classfile/builder.cpp ------------------------------------------==//

#include "jvm/classfile/builder.h"

#include "jvm/classfile/dataflow.h"

#include "browser/wire.h"
#include "doppio/path.h"

#include <bit>
#include <cassert>
#include <cmath>

using namespace doppio;
using namespace doppio::jvm;

//===----------------------------------------------------------------------===//
// MethodBuilder
//===----------------------------------------------------------------------===//

MethodBuilder::MethodBuilder(ClassBuilder &Cb, uint16_t Flags,
                             std::string Name, std::string Desc)
    : Cb(Cb), Flags(Flags), Name(std::move(Name)),
      Descriptor(std::move(Desc)) {
  std::optional<desc::MethodDesc> D = desc::parseMethod(Descriptor);
  assert(D && "malformed method descriptor");
  MaxLocals = desc::paramSlots(*D) + ((Flags & AccStatic) ? 0 : 1);
}

MethodBuilder::Label MethodBuilder::newLabel() {
  LabelPos.push_back(-1);
  LabelDepth.push_back(-1);
  return static_cast<Label>(LabelPos.size() - 1);
}

MethodBuilder &MethodBuilder::bind(Label L) {
  assert(LabelPos[L] == -1 && "label bound twice");
  LabelPos[L] = static_cast<int32_t>(Code.size());
  if (LabelDepth[L] != -1) {
    // A branch already recorded the depth here.
    StackDepth = LabelDepth[L];
    Reachable = true;
  } else if (Reachable) {
    LabelDepth[L] = StackDepth;
  }
  return *this;
}

void MethodBuilder::adjustStack(int Delta) {
  if (!Reachable)
    return;
  StackDepth += Delta;
  assert(StackDepth >= 0 && "operand stack underflow in assembler");
  MaxStack = std::max(MaxStack, StackDepth);
}

void MethodBuilder::flowTo(Label L) {
  if (!Reachable)
    return;
  if (LabelDepth[L] == -1)
    LabelDepth[L] = StackDepth;
  else
    assert(LabelDepth[L] == StackDepth &&
           "inconsistent stack depth at branch target");
}

void MethodBuilder::endFlow() { Reachable = false; }

void MethodBuilder::emit(Op Opcode) {
  if (std::optional<int> Delta = fixedStackDelta(Opcode))
    adjustStack(*Delta);
  Code.push_back(static_cast<uint8_t>(Opcode));
}

void MethodBuilder::emitU2(uint16_t V) { browser::wire::putU16(Code, V); }

void MethodBuilder::emitU4(uint32_t V) { browser::wire::putU32(Code, V); }

MethodBuilder &MethodBuilder::iconst(int32_t V) {
  if (V >= -1 && V <= 5) {
    emit(static_cast<Op>(static_cast<int>(Op::Iconst0) + V));
    return *this;
  }
  if (V >= -128 && V <= 127) {
    emit(Op::Bipush);
    emitU1(static_cast<uint8_t>(V));
    return *this;
  }
  if (V >= -32768 && V <= 32767) {
    emit(Op::Sipush);
    emitU2(static_cast<uint16_t>(V));
    return *this;
  }
  uint16_t Idx = Cb.pool().addInteger(V);
  if (Idx <= 255) {
    emit(Op::Ldc);
    emitU1(static_cast<uint8_t>(Idx));
  } else {
    emit(Op::LdcW);
    emitU2(Idx);
  }
  return *this;
}

MethodBuilder &MethodBuilder::lconst(int64_t V) {
  if (V == 0 || V == 1) {
    emit(V == 0 ? Op::Lconst0 : Op::Lconst1);
    return *this;
  }
  emit(Op::Ldc2W);
  emitU2(Cb.pool().addLong(V));
  return *this;
}

MethodBuilder &MethodBuilder::fconst(float V) {
  if (V == 0.0f && !std::signbit(V)) {
    emit(Op::Fconst0);
    return *this;
  }
  if (V == 1.0f) {
    emit(Op::Fconst1);
    return *this;
  }
  if (V == 2.0f) {
    emit(Op::Fconst2);
    return *this;
  }
  uint16_t Idx = Cb.pool().addFloat(V);
  if (Idx <= 255) {
    emit(Op::Ldc);
    emitU1(static_cast<uint8_t>(Idx));
  } else {
    emit(Op::LdcW);
    emitU2(Idx);
  }
  return *this;
}

MethodBuilder &MethodBuilder::dconst(double V) {
  if (V == 0.0 && !std::signbit(V)) {
    emit(Op::Dconst0);
    return *this;
  }
  if (V == 1.0) {
    emit(Op::Dconst1);
    return *this;
  }
  emit(Op::Ldc2W);
  emitU2(Cb.pool().addDouble(V));
  return *this;
}

MethodBuilder &MethodBuilder::ldcString(const std::string &Text) {
  uint16_t Idx = Cb.pool().addString(Text);
  if (Idx <= 255) {
    emit(Op::Ldc);
    emitU1(static_cast<uint8_t>(Idx));
  } else {
    emit(Op::LdcW);
    emitU2(Idx);
  }
  return *this;
}

MethodBuilder &MethodBuilder::aconstNull() {
  emit(Op::AconstNull);
  return *this;
}

void MethodBuilder::noteLocal(int Slot, int Slots) {
  MaxLocals = std::max(MaxLocals, Slot + Slots);
}

void MethodBuilder::load(Op Base1, Op BaseN, int Slot, int Slots) {
  noteLocal(Slot, Slots);
  if (Slot <= 3) {
    emit(static_cast<Op>(static_cast<int>(Base1) + Slot));
    return;
  }
  if (Slot <= 255) {
    emit(BaseN);
    emitU1(static_cast<uint8_t>(Slot));
    return;
  }
  emit(Op::Wide);
  emit(BaseN);
  emitU2(static_cast<uint16_t>(Slot));
}

void MethodBuilder::store(Op Base1, Op BaseN, int Slot, int Slots) {
  noteLocal(Slot, Slots);
  if (Slot <= 3) {
    emit(static_cast<Op>(static_cast<int>(Base1) + Slot));
    return;
  }
  if (Slot <= 255) {
    emit(BaseN);
    emitU1(static_cast<uint8_t>(Slot));
    return;
  }
  emit(Op::Wide);
  emit(BaseN);
  emitU2(static_cast<uint16_t>(Slot));
}

MethodBuilder &MethodBuilder::iload(int S) {
  load(Op::Iload0, Op::Iload, S, 1);
  return *this;
}
MethodBuilder &MethodBuilder::lload(int S) {
  load(Op::Lload0, Op::Lload, S, 2);
  return *this;
}
MethodBuilder &MethodBuilder::fload(int S) {
  load(Op::Fload0, Op::Fload, S, 1);
  return *this;
}
MethodBuilder &MethodBuilder::dload(int S) {
  load(Op::Dload0, Op::Dload, S, 2);
  return *this;
}
MethodBuilder &MethodBuilder::aload(int S) {
  load(Op::Aload0, Op::Aload, S, 1);
  return *this;
}
MethodBuilder &MethodBuilder::istore(int S) {
  store(Op::Istore0, Op::Istore, S, 1);
  return *this;
}
MethodBuilder &MethodBuilder::lstore(int S) {
  store(Op::Lstore0, Op::Lstore, S, 2);
  return *this;
}
MethodBuilder &MethodBuilder::fstore(int S) {
  store(Op::Fstore0, Op::Fstore, S, 1);
  return *this;
}
MethodBuilder &MethodBuilder::dstore(int S) {
  store(Op::Dstore0, Op::Dstore, S, 2);
  return *this;
}
MethodBuilder &MethodBuilder::astore(int S) {
  store(Op::Astore0, Op::Astore, S, 1);
  return *this;
}

MethodBuilder &MethodBuilder::iinc(int Slot, int32_t Delta) {
  noteLocal(Slot, 1);
  if (Slot <= 255 && Delta >= -128 && Delta <= 127) {
    emit(Op::Iinc);
    emitU1(static_cast<uint8_t>(Slot));
    emitU1(static_cast<uint8_t>(static_cast<int8_t>(Delta)));
    return *this;
  }
  emit(Op::Wide);
  emit(Op::Iinc);
  emitU2(static_cast<uint16_t>(Slot));
  emitU2(static_cast<uint16_t>(static_cast<int16_t>(Delta)));
  return *this;
}

MethodBuilder &MethodBuilder::op(Op Opcode) {
  assert(opcodeOperandBytes(static_cast<uint8_t>(Opcode)) == 0 &&
         "not a zero-operand instruction");
  emit(Opcode);
  OpKind Kind = opcodeKind(static_cast<uint8_t>(Opcode));
  if (Kind == OpKind::ReturnOp || Kind == OpKind::ThrowOp)
    endFlow();
  return *this;
}

MethodBuilder &MethodBuilder::branch(Op Opcode, Label Target) {
  OpKind Kind = opcodeKind(static_cast<uint8_t>(Opcode));
  bool Jsr = Kind == OpKind::JsrOp || Kind == OpKind::JsrWOp;
  bool Unconditional = Kind == OpKind::GotoOp || Kind == OpKind::GotoWOp;
  bool Wide = Kind == OpKind::GotoWOp || Kind == OpKind::JsrWOp;
  assert((Kind == OpKind::If || Unconditional || Jsr) &&
         "not a branch instruction");
  size_t InsnPos = Code.size();
  emit(Opcode); // jsr pushes the return address the subroutine sees.
  flowTo(Target);
  if (Jsr)
    adjustStack(-1); // Fall-through depth is unchanged.
  Fixups.push_back({Code.size(), InsnPos, Target, Wide});
  if (Wide)
    emitU4(0);
  else
    emitU2(0);
  if (Unconditional)
    endFlow();
  return *this;
}

MethodBuilder &MethodBuilder::tableswitch(Label Default, int32_t Low,
                                          const std::vector<Label> &Targets) {
  size_t InsnPos = Code.size();
  emit(Op::Tableswitch);
  while (Code.size() % 4 != 0)
    emitU1(0);
  flowTo(Default);
  Fixups.push_back({Code.size(), InsnPos, Default, /*Wide=*/true});
  emitU4(0);
  emitU4(static_cast<uint32_t>(Low));
  emitU4(static_cast<uint32_t>(Low + static_cast<int32_t>(Targets.size()) -
                               1));
  for (Label T : Targets) {
    flowTo(T);
    Fixups.push_back({Code.size(), InsnPos, T, /*Wide=*/true});
    emitU4(0);
  }
  endFlow();
  return *this;
}

MethodBuilder &MethodBuilder::lookupswitch(
    Label Default, const std::vector<std::pair<int32_t, Label>> &Cases) {
  size_t InsnPos = Code.size();
  emit(Op::Lookupswitch);
  while (Code.size() % 4 != 0)
    emitU1(0);
  flowTo(Default);
  Fixups.push_back({Code.size(), InsnPos, Default, /*Wide=*/true});
  emitU4(0);
  emitU4(static_cast<uint32_t>(Cases.size()));
  for (const auto &[Match, T] : Cases) {
    emitU4(static_cast<uint32_t>(Match));
    flowTo(T);
    Fixups.push_back({Code.size(), InsnPos, T, /*Wide=*/true});
    emitU4(0);
  }
  endFlow();
  return *this;
}

MethodBuilder &MethodBuilder::retLocal(int Slot) {
  noteLocal(Slot, 1);
  if (Slot <= 255) {
    emit(Op::Ret);
    emitU1(static_cast<uint8_t>(Slot));
  } else {
    emit(Op::Wide);
    emit(Op::Ret);
    emitU2(static_cast<uint16_t>(Slot));
  }
  endFlow();
  return *this;
}

MethodBuilder &MethodBuilder::member(Op Opcode, CpTag Tag,
                                     const std::string &Cls,
                                     const std::string &Name,
                                     const std::string &Desc) {
  uint16_t Idx = 0;
  switch (Tag) {
  case CpTag::Fieldref:
    Idx = Cb.pool().addFieldref(Cls, Name, Desc);
    break;
  case CpTag::Methodref:
    Idx = Cb.pool().addMethodref(Cls, Name, Desc);
    break;
  case CpTag::InterfaceMethodref:
    Idx = Cb.pool().addInterfaceMethodref(Cls, Name, Desc);
    break;
  default:
    assert(false && "bad member tag");
  }
  emit(Opcode);
  emitU2(Idx);
  return *this;
}

MethodBuilder &MethodBuilder::getstatic(const std::string &Cls,
                                        const std::string &Name,
                                        const std::string &Desc) {
  adjustStack(desc::slotSize(Desc));
  return member(Op::Getstatic, CpTag::Fieldref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::putstatic(const std::string &Cls,
                                        const std::string &Name,
                                        const std::string &Desc) {
  adjustStack(-desc::slotSize(Desc));
  return member(Op::Putstatic, CpTag::Fieldref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::getfield(const std::string &Cls,
                                       const std::string &Name,
                                       const std::string &Desc) {
  adjustStack(desc::slotSize(Desc) - 1);
  return member(Op::Getfield, CpTag::Fieldref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::putfield(const std::string &Cls,
                                       const std::string &Name,
                                       const std::string &Desc) {
  adjustStack(-desc::slotSize(Desc) - 1);
  return member(Op::Putfield, CpTag::Fieldref, Cls, Name, Desc);
}

/// Stack delta of an invocation.
static int invokeDelta(const std::string &Desc, bool HasReceiver) {
  std::optional<desc::MethodDesc> D = desc::parseMethod(Desc);
  assert(D && "malformed descriptor at invoke");
  return desc::slotSize(D->Ret) - desc::paramSlots(*D) -
         (HasReceiver ? 1 : 0);
}

MethodBuilder &MethodBuilder::invokevirtual(const std::string &Cls,
                                            const std::string &Name,
                                            const std::string &Desc) {
  adjustStack(invokeDelta(Desc, /*HasReceiver=*/true));
  return member(Op::Invokevirtual, CpTag::Methodref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::invokespecial(const std::string &Cls,
                                            const std::string &Name,
                                            const std::string &Desc) {
  adjustStack(invokeDelta(Desc, /*HasReceiver=*/true));
  return member(Op::Invokespecial, CpTag::Methodref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::invokestatic(const std::string &Cls,
                                           const std::string &Name,
                                           const std::string &Desc) {
  adjustStack(invokeDelta(Desc, /*HasReceiver=*/false));
  return member(Op::Invokestatic, CpTag::Methodref, Cls, Name, Desc);
}

MethodBuilder &MethodBuilder::invokeinterface(const std::string &Cls,
                                              const std::string &Name,
                                              const std::string &Desc) {
  adjustStack(invokeDelta(Desc, /*HasReceiver=*/true));
  uint16_t Idx = Cb.pool().addInterfaceMethodref(Cls, Name, Desc);
  std::optional<desc::MethodDesc> D = desc::parseMethod(Desc);
  emit(Op::Invokeinterface);
  emitU2(Idx);
  emitU1(static_cast<uint8_t>(desc::paramSlots(*D) + 1)); // Count slot.
  emitU1(0);                                              // Reserved zero.
  return *this;
}

MethodBuilder &MethodBuilder::anew(const std::string &Cls) {
  emit(Op::New);
  emitU2(Cb.pool().addClass(Cls));
  return *this;
}

MethodBuilder &MethodBuilder::newarray(ArrayType T) {
  emit(Op::Newarray);
  emitU1(static_cast<uint8_t>(T));
  return *this;
}

MethodBuilder &MethodBuilder::anewarray(const std::string &Cls) {
  emit(Op::Anewarray);
  emitU2(Cb.pool().addClass(Cls));
  return *this;
}

MethodBuilder &MethodBuilder::multianewarray(const std::string &ArrayDesc,
                                             int Dims) {
  adjustStack(-Dims + 1);
  emit(Op::Multianewarray);
  emitU2(Cb.pool().addClass(ArrayDesc));
  emitU1(static_cast<uint8_t>(Dims));
  return *this;
}

MethodBuilder &MethodBuilder::checkcast(const std::string &Cls) {
  emit(Op::Checkcast);
  emitU2(Cb.pool().addClass(Cls));
  return *this;
}

MethodBuilder &MethodBuilder::instanceOf(const std::string &Cls) {
  emit(Op::Instanceof);
  emitU2(Cb.pool().addClass(Cls));
  return *this;
}

MethodBuilder &MethodBuilder::handler(Label Start, Label End, Label Handler,
                                      const std::string &CatchClass) {
  Handlers.push_back({Start, End, Handler, CatchClass});
  // Handler entry sees exactly the thrown exception on the stack.
  if (LabelDepth[Handler] == -1)
    LabelDepth[Handler] = 1;
  MaxStack = std::max(MaxStack, 1);
  return *this;
}

MethodBuilder &MethodBuilder::rawOp(Op Opcode) {
  Code.push_back(static_cast<uint8_t>(Opcode));
  return *this;
}

MethodBuilder &MethodBuilder::rawU1(uint8_t V) {
  Code.push_back(V);
  return *this;
}

MethodBuilder &MethodBuilder::rawU2(uint16_t V) {
  emitU2(V);
  return *this;
}

MethodBuilder &MethodBuilder::overrideMaxStack(int V) {
  MaxStackOverride = V;
  return *this;
}

MethodBuilder &MethodBuilder::overrideMaxLocals(int V) {
  MaxLocalsOverride = V;
  return *this;
}

MemberInfo MethodBuilder::finish() {
  for (const Fixup &F : Fixups) {
    assert(LabelPos[F.Target] != -1 && "branch to unbound label");
    int32_t Offset = LabelPos[F.Target] - static_cast<int32_t>(F.InsnPos);
    if (F.Wide) {
      browser::wire::setU32(&Code[F.OperandPos],
                            static_cast<uint32_t>(Offset));
    } else {
      assert(Offset >= -32768 && Offset <= 32767 &&
             "branch offset exceeds 16 bits; use goto_w");
      browser::wire::setU16(&Code[F.OperandPos],
                            static_cast<uint16_t>(Offset));
    }
  }
  MemberInfo M;
  M.AccessFlags = Flags;
  M.Name = Name;
  M.Descriptor = Descriptor;
  CodeAttr Attr;
  Attr.MaxStack = static_cast<uint16_t>(MaxStack);
  Attr.MaxLocals = static_cast<uint16_t>(MaxLocals);
  Attr.Bytecode = Code;
  for (const PendingHandler &H : Handlers) {
    assert(LabelPos[H.Start] != -1 && LabelPos[H.End] != -1 &&
           LabelPos[H.Handler] != -1 && "handler labels must be bound");
    ExceptionHandler E;
    E.StartPc = static_cast<uint16_t>(LabelPos[H.Start]);
    E.EndPc = static_cast<uint16_t>(LabelPos[H.End]);
    E.HandlerPc = static_cast<uint16_t>(LabelPos[H.Handler]);
    E.CatchType =
        H.CatchClass.empty() ? 0 : Cb.pool().addClass(H.CatchClass);
    Attr.Handlers.push_back(E);
  }
  M.Code = std::move(Attr);
  if (!Handlers.empty())
    refineMaxStack(M);
  if (MaxStackOverride >= 0)
    M.Code->MaxStack = static_cast<uint16_t>(MaxStackOverride);
  if (MaxLocalsOverride >= 0)
    M.Code->MaxLocals = static_cast<uint16_t>(MaxLocalsOverride);
  return M;
}

/// The linear depth simulation cannot see a handler body that is bound
/// while the assembler is in dead code: the usual try/catch idiom emits
/// the body after an unconditional branch and only registers it with
/// handler() afterwards, so none of its pushes reach MaxStack. Re-derive
/// max_stack from the dataflow analysis, which seeds every handler entry
/// at depth 1, keeping the simulated value as a floor (the analysis may
/// stop early on a method that is being built broken on purpose).
void MethodBuilder::refineMaxStack(MemberInfo &M) {
  MemberInfo Probe;
  Probe.AccessFlags = Flags;
  Probe.Name = Name;
  Probe.Descriptor = Descriptor;
  Probe.Code = *M.Code;
  Probe.Code->MaxStack = 0xFFFF; // Depth discovery must not clip.
  MethodDataflow Flow = analyzeMethodDataflow(Cb.Cf, Probe);
  size_t Deep = M.Code->MaxStack;
  for (const auto &Entry : Flow.In)
    Deep = std::max(Deep, Entry.second.Stack.size());
  M.Code->MaxStack = static_cast<uint16_t>(Deep);
}

//===----------------------------------------------------------------------===//
// ClassBuilder
//===----------------------------------------------------------------------===//

ClassBuilder::ClassBuilder(std::string Name, std::string Super) {
  Cf.ThisClass = std::move(Name);
  Cf.SuperClass = std::move(Super);
  Cf.SourceFile = rt::path::basename(Cf.ThisClass) + ".java";
}

ClassBuilder &ClassBuilder::setAccess(uint16_t Flags) {
  Cf.AccessFlags = Flags;
  return *this;
}

ClassBuilder &ClassBuilder::addInterface(const std::string &Name) {
  Cf.Interfaces.push_back(Name);
  return *this;
}

ClassBuilder &ClassBuilder::addField(uint16_t Flags, const std::string &Name,
                                     const std::string &Desc) {
  MemberInfo F;
  F.AccessFlags = Flags;
  F.Name = Name;
  F.Descriptor = Desc;
  Cf.Fields.push_back(std::move(F));
  return *this;
}

MethodBuilder &ClassBuilder::method(uint16_t Flags, const std::string &Name,
                                    const std::string &Desc) {
  Methods.push_back(std::unique_ptr<MethodBuilder>(
      new MethodBuilder(*this, Flags, Name, Desc)));
  return *Methods.back();
}

ClassBuilder &ClassBuilder::nativeMethod(uint16_t Flags,
                                         const std::string &Name,
                                         const std::string &Desc) {
  MemberInfo M;
  M.AccessFlags = static_cast<uint16_t>(Flags | AccNative);
  M.Name = Name;
  M.Descriptor = Desc;
  Cf.Methods.push_back(std::move(M));
  return *this;
}

ClassBuilder &ClassBuilder::abstractMethod(uint16_t Flags,
                                           const std::string &Name,
                                           const std::string &Desc) {
  MemberInfo M;
  M.AccessFlags = static_cast<uint16_t>(Flags | AccAbstract);
  M.Name = Name;
  M.Descriptor = Desc;
  Cf.Methods.push_back(std::move(M));
  return *this;
}

ClassBuilder &ClassBuilder::addDefaultConstructor() {
  MethodBuilder &M = method(AccPublic, "<init>", "()V");
  M.aload(0)
      .invokespecial(Cf.SuperClass.empty() ? "java/lang/Object"
                                           : Cf.SuperClass,
                     "<init>", "()V")
      .op(Op::Return);
  return *this;
}

ClassFile ClassBuilder::build() {
  for (auto &M : Methods)
    Cf.Methods.push_back(M->finish());
  Methods.clear();
  return Cf;
}

std::vector<uint8_t> ClassBuilder::bytes() {
  return writeClassFile(build());
}
