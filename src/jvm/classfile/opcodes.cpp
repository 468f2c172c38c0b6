//===- jvm/classfile/opcodes.cpp ------------------------------------------==//

#include "jvm/classfile/opcodes.h"

#include "jvm/classfile/constant_pool.h"
#include "jvm/classfile/descriptor.h"

#include <algorithm>
#include <string_view>

using namespace doppio;
using namespace doppio::jvm;

namespace {

struct OpInfo {
  const char *Name;
  int OperandBytes;
  OpKind Kind;
  uint8_t Quick; ///< quickened form, == opcode value when none
  uint8_t Base;  ///< base form for _quick opcodes, == opcode value else
  bool IsQuick;
  OpSignature Sig;
  int8_t Local; ///< NoLocal, LocalIdx, or a fixed slot
};

// The LOCAL tokens of opcodes.def that are not numbers.
constexpr int8_t NoLocal = -1;
constexpr int8_t LocalIdx = -2;

/// Parses one SIG cell (see opcodes.def). Evaluated only at compile
/// time: a malformed cell fails the build.
constexpr OpSignature parseSignature(std::string_view Cell) {
  OpSignature Sig;
  if (Cell == "Var")
    return Sig;
  Sig.Fixed = true;
  bool Pushing = false;
  for (char C : Cell) {
    int8_t &Slots = Pushing ? Sig.PushSlots : Sig.PopSlots;
    if (C == '>') {
      if (Pushing)
        throw "a signature has one '>'";
      Pushing = true;
      continue;
    }
    if (C == '1' || C == '2') {
      Slots += C - '0';
      continue;
    }
    VType T = C == 'I'   ? VType::Int
              : C == 'F' ? VType::Float
              : C == 'A' ? VType::Ref
              : C == 'J' ? VType::Long
              : C == 'D' ? VType::Double
                         : throw "unknown signature letter";
    Slots += T == VType::Long || T == VType::Double ? 2 : 1;
    if (Pushing)
      Sig.Pushes[Sig.NumPushes++] = T;
    else
      Sig.Pops[Sig.NumPops++] = T;
  }
  if (!Pushing)
    throw "a signature has one '>'";
  return Sig;
}

/// Indexed by opcode value; gaps are null/-2.
struct OpTable {
  OpInfo Info[256];

  constexpr OpTable() : Info() {
    for (int I = 0; I != 256; ++I)
      Info[I] = {nullptr, -2, OpKind::Plain, static_cast<uint8_t>(I),
                 static_cast<uint8_t>(I), false, {}, NoLocal};
#define JVM_OPCODE(NAME, VALUE, OPERANDS, KIND, QUICK, SIG, LOCAL)             \
  Info[VALUE] = {#NAME,          OPERANDS,                                     \
                 OpKind::KIND,   static_cast<uint8_t>(Op::QUICK),              \
                 VALUE,          false,                                        \
                 parseSignature(#SIG), LOCAL};
#define JVM_QUICK_OPCODE(NAME, VALUE, OPERANDS, KIND, BASE)                    \
  Info[VALUE] = {#NAME,          OPERANDS,                                     \
                 OpKind::KIND,   VALUE,                                        \
                 static_cast<uint8_t>(Op::BASE),                               \
                 true,           {},                                           \
                 NoLocal};
#include "jvm/classfile/opcodes.def"
#undef JVM_QUICK_OPCODE
#undef JVM_OPCODE
  }
};

constexpr OpTable Table;

} // namespace

const char *jvm::opcodeName(uint8_t Opcode) {
  const char *Name = Table.Info[Opcode].Name;
  return Name ? Name : "<illegal>";
}

int jvm::opcodeOperandBytes(uint8_t Opcode) {
  return Table.Info[Opcode].OperandBytes;
}

bool jvm::isLegalOpcode(uint8_t Opcode) {
  return Table.Info[Opcode].Name != nullptr && !Table.Info[Opcode].IsQuick;
}

bool jvm::isQuickOpcode(uint8_t Opcode) { return Table.Info[Opcode].IsQuick; }

uint8_t jvm::quickenedForm(uint8_t Opcode) { return Table.Info[Opcode].Quick; }

uint8_t jvm::baseOpcode(uint8_t Opcode) { return Table.Info[Opcode].Base; }

OpKind jvm::opcodeKind(uint8_t Opcode) { return Table.Info[Opcode].Kind; }

bool jvm::isPlacedBranchOp(Op O) {
  switch (opcodeKind(static_cast<uint8_t>(O))) {
  case OpKind::If:
  case OpKind::GotoOp:
  case OpKind::GotoWOp:
  case OpKind::TableSw:
  case OpKind::LookupSw:
    return true;
  default:
    return false;
  }
}

bool jvm::isCallBoundaryOp(Op O) {
  switch (opcodeKind(static_cast<uint8_t>(O))) {
  case OpKind::Invoke:
  case OpKind::Monitor:
  case OpKind::ReturnOp:
  case OpKind::ThrowOp:
    return true;
  default:
    return false;
  }
}

int jvm::opcodeCount() {
  int N = 0;
  for (int I = 0; I != 256; ++I)
    if (Table.Info[I].Name && !Table.Info[I].IsQuick)
      ++N;
  return N;
}

BranchDecode jvm::decodeBranch(const std::vector<uint8_t> &Code, uint32_t Pc) {
  BranchDecode D;
  switch (opcodeKind(Code[Pc])) {
  case OpKind::If:
    D.Targets.push_back(Pc + rdS2(Code, Pc + 1));
    D.IsBranch = true;
    break;
  case OpKind::GotoOp:
    D.Targets.push_back(Pc + rdS2(Code, Pc + 1));
    D.FallsThrough = false;
    D.IsBranch = true;
    break;
  case OpKind::GotoWOp:
    D.Targets.push_back(Pc + rdS4(Code, Pc + 1));
    D.FallsThrough = false;
    D.IsBranch = true;
    break;
  case OpKind::TableSw: {
    uint32_t Operand = (Pc + 4) & ~3u;
    int32_t Low = rdS4(Code, Operand + 4);
    int32_t High = rdS4(Code, Operand + 8);
    D.Targets.push_back(Pc + rdS4(Code, Operand));
    for (int32_t J = 0; J <= High - Low; ++J)
      D.Targets.push_back(
          Pc + rdS4(Code, Operand + 12 + 4 * static_cast<uint32_t>(J)));
    D.FallsThrough = false;
    D.IsBranch = true;
    break;
  }
  case OpKind::LookupSw: {
    uint32_t Operand = (Pc + 4) & ~3u;
    int32_t NPairs = rdS4(Code, Operand + 4);
    D.Targets.push_back(Pc + rdS4(Code, Operand));
    for (int32_t J = 0; J != NPairs; ++J)
      D.Targets.push_back(
          Pc + rdS4(Code, Operand + 12 + 8 * static_cast<uint32_t>(J)));
    D.FallsThrough = false;
    D.IsBranch = true;
    break;
  }
  // jsr flows to the subroutine; the matching ret comes back to the
  // next instruction. The target edge only — callers model the return
  // edge (or reject the method) themselves.
  case OpKind::JsrOp:
    D.Targets.push_back(Pc + rdS2(Code, Pc + 1));
    D.UsesJsrRet = true;
    break;
  case OpKind::JsrWOp:
    D.Targets.push_back(Pc + rdS4(Code, Pc + 1));
    D.UsesJsrRet = true;
    break;
  case OpKind::RetOp:
    D.FallsThrough = false;
    D.UsesJsrRet = true;
    break;
  case OpKind::WideOp:
    if (Pc + 1 < Code.size() && static_cast<Op>(Code[Pc + 1]) == Op::Ret) {
      D.FallsThrough = false;
      D.UsesJsrRet = true;
    }
    break;
  case OpKind::ReturnOp:
  case OpKind::ThrowOp:
    D.FallsThrough = false;
    break;
  default:
    break;
  }
  return D;
}

const OpSignature &jvm::opcodeSignature(Op O) {
  return Table.Info[baseOpcode(static_cast<uint8_t>(O))].Sig;
}

LocalAccess jvm::decodeLocal(const std::vector<uint8_t> &Code, uint32_t Pc) {
  bool Wide = static_cast<Op>(Code[Pc]) == Op::Wide;
  const OpInfo &I = Table.Info[Wide ? Code[Pc + 1] : Code[Pc]];
  LocalAccess L;
  if (Wide && I.Local != LocalIdx) {
    L.Error = "wide prefix on a non-widenable instruction";
    return L;
  }
  if (I.Local == NoLocal)
    return L;
  L.Slot = I.Local != LocalIdx ? I.Local
           : Wide              ? rdU2(Code, Pc + 2)
                               : Code[Pc + 1];
  L.Width = std::max(1, I.Sig.PopSlots + I.Sig.PushSlots);
  return L;
}

StackEffect jvm::decodeStackEffect(const std::vector<uint8_t> &Code,
                                   uint32_t Pc, const ConstantPool &Pool) {
  Op O = static_cast<Op>(baseOpcode(Code[Pc]));
  StackEffect E;
  auto Failed = [&E](const char *Why) {
    E.Error = Why;
    return E;
  };
  switch (O) {
  case Op::Getstatic:
  case Op::Putstatic:
  case Op::Getfield:
  case Op::Putfield: {
    uint16_t Idx = rdU2(Code, Pc + 1);
    if (!Pool.valid(Idx))
      return Failed("bad field reference");
    int Value = desc::slotSize(Pool.memberRef(Idx).Descriptor);
    int Receiver = O == Op::Getfield || O == Op::Putfield ? 1 : 0;
    bool Get = O == Op::Getstatic || O == Op::Getfield;
    E.Pops = Receiver + (Get ? 0 : Value);
    E.Pushes = Get ? Value : 0;
    return E;
  }
  case Op::Invokevirtual:
  case Op::Invokespecial:
  case Op::Invokestatic:
  case Op::Invokeinterface: {
    uint16_t Idx = rdU2(Code, Pc + 1);
    std::optional<desc::MethodDesc> D;
    if (Pool.valid(Idx))
      D = desc::parseMethod(Pool.memberRef(Idx).Descriptor);
    if (!D)
      return Failed("bad method reference");
    E.Pops = desc::paramSlots(*D) + (O == Op::Invokestatic ? 0 : 1);
    E.Pushes = desc::slotSize(D->Ret);
    return E;
  }
  case Op::Multianewarray:
    E.Pops = Code[Pc + 3];
    E.Pushes = 1;
    return E;
  default:
    break;
  }
  // Every other opcode reads its row; wide reads its inner instruction's
  // row with a u2 local index.
  LocalAccess L = decodeLocal(Code, Pc);
  if (L.Error)
    return Failed(L.Error);
  const OpSignature &Sig =
      opcodeSignature(O == Op::Wide ? static_cast<Op>(Code[Pc + 1]) : O);
  E.Pops = Sig.PopSlots;
  E.Pushes = Sig.PushSlots;
  if (L.Slot >= 0)
    E.LocalTop = L.Slot + L.Width - 1;
  return E;
}

std::optional<int> jvm::fixedStackDelta(Op O) {
  const OpSignature &Sig = opcodeSignature(O);
  if (!Sig.Fixed)
    return std::nullopt;
  return Sig.PushSlots - Sig.PopSlots;
}
