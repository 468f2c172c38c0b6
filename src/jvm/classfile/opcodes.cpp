//===- jvm/classfile/opcodes.cpp ------------------------------------------==//

#include "jvm/classfile/opcodes.h"

#include "jvm/classfile/constant_pool.h"
#include "jvm/classfile/descriptor.h"

#include <algorithm>

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
  int8_t Pops;   ///< Var when operand-dependent
  int8_t Pushes; ///< Var when operand-dependent
  int8_t Local;  ///< NoLocal, LocalIdx, or a fixed slot
};

// The POPS, PUSHES and LOCAL tokens of opcodes.def that are not numbers.
constexpr int8_t Var = -1;
constexpr int8_t NoLocal = -1;
constexpr int8_t LocalIdx = -2;

/// Indexed by opcode value; gaps are null/-2.
struct OpTable {
  OpInfo Info[256];

  constexpr OpTable() : Info() {
    for (int I = 0; I != 256; ++I)
      Info[I] = {nullptr, -2, OpKind::Plain, static_cast<uint8_t>(I),
                 static_cast<uint8_t>(I), false, 0, 0, NoLocal};
#define JVM_OPCODE(NAME, VALUE, OPERANDS, KIND, QUICK, POPS, PUSHES, LOCAL)    \
  Info[VALUE] = {#NAME,          OPERANDS,                                     \
                 OpKind::KIND,   static_cast<uint8_t>(Op::QUICK),              \
                 VALUE,          false,                                        \
                 POPS,           PUSHES,                                       \
                 LOCAL};
#define JVM_QUICK_OPCODE(NAME, VALUE, OPERANDS, KIND, BASE)                    \
  Info[VALUE] = {#NAME,          OPERANDS,                                     \
                 OpKind::KIND,   VALUE,                                        \
                 static_cast<uint8_t>(Op::BASE),                               \
                 true,           0,                                            \
                 0,              NoLocal};
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
  bool Wide = O == Op::Wide;
  const OpInfo &I = Table.Info[Wide ? Code[Pc + 1] : static_cast<uint8_t>(O)];
  if (Wide && I.Local != LocalIdx)
    return Failed("wide prefix on a non-widenable instruction");
  E.Pops = I.Pops;
  E.Pushes = I.Pushes;
  if (I.Local != NoLocal) {
    int Slot = I.Local != LocalIdx ? I.Local
               : Wide              ? rdU2(Code, Pc + 2)
                                   : Code[Pc + 1];
    E.LocalTop = Slot + std::max(1, E.Pops + E.Pushes) - 1;
  }
  return E;
}

std::optional<int> jvm::fixedStackDelta(Op O) {
  const OpInfo &I = Table.Info[baseOpcode(static_cast<uint8_t>(O))];
  if (I.Pops == Var)
    return std::nullopt;
  return I.Pushes - I.Pops;
}
