//===- jvm/classfile/opcodes.h - Opcode enum & metadata -----------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete JVM-spec-2 instruction set (201 opcodes) that DoppioJVM
/// implements (§6), plus the interpreter-private _quick forms, with the
/// metadata used by the assembler, disassembler, verifier, placement
/// analysis, and interpreter: names, operand widths, control flow
/// (decodeBranch), typed signatures (opcodeSignature), local accesses
/// (decodeLocal) and stack effects (decodeStackEffect). All of it is
/// generated from opcodes.def — the single opcode-metadata surface.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSFILE_OPCODES_H
#define DOPPIO_JVM_CLASSFILE_OPCODES_H

#include <cstdint>
#include <optional>
#include <vector>

namespace doppio {
namespace jvm {

class ConstantPool;

enum class Op : uint8_t {
#define JVM_OPCODE(NAME, VALUE, ...) NAME = VALUE,
#define JVM_QUICK_OPCODE(NAME, VALUE, ...) NAME = VALUE,
#include "jvm/classfile/opcodes.def"
#undef JVM_QUICK_OPCODE
#undef JVM_OPCODE
};

/// Classifies each opcode for operand formatting (disasm) and
/// control-flow decoding (dataflow verifier, placement analysis). One
/// column in opcodes.def replaces the per-file switches those passes used
/// to hand-maintain.
enum class OpKind : uint8_t {
  Plain,    ///< No operands, or operands with no special rendering.
  Imm8,     ///< Signed 8-bit immediate (bipush).
  Imm16,    ///< Signed 16-bit immediate (sipush).
  LocalU1,  ///< Unsigned byte operand printed raw (loads/stores, newarray).
  IincOp,   ///< iinc: local index + signed increment.
  LdcU1,    ///< 1-byte constant-pool index (ldc).
  CpU2,     ///< 2-byte constant-pool index (fields, new, casts, ldc_w...).
  If,       ///< Conditional 2-byte branch (both arms are successors).
  GotoOp,   ///< Unconditional 2-byte branch.
  GotoWOp,  ///< Unconditional 4-byte branch.
  JsrOp,    ///< Subroutine call, 2-byte target.
  JsrWOp,   ///< Subroutine call, 4-byte target.
  RetOp,    ///< Subroutine return via local variable.
  TableSw,  ///< tableswitch.
  LookupSw, ///< lookupswitch.
  ReturnOp, ///< Method returns (no successors).
  ThrowOp,  ///< athrow (no successors).
  Invoke,   ///< Method invocation (call boundary; prints a CP ref).
  Monitor,  ///< monitorenter/monitorexit (call boundary).
  WideOp,   ///< wide prefix.
};

/// The enum name of \p Opcode ("Iload0" for iload_0), which is what the
/// disassembler prints; "<illegal>" for gaps.
const char *opcodeName(uint8_t Opcode);

/// Fixed operand byte count, -1 for variable-length instructions
/// (tableswitch, lookupswitch, wide), -2 for illegal opcodes. Defined for
/// _quick forms too (each matches its base form's width).
int opcodeOperandBytes(uint8_t Opcode);

/// True if \p Opcode is one of the 201 instructions a classfile may
/// contain. The _quick forms are NOT legal classfile opcodes: the loader,
/// verifier, and disassembler reject them; only the interpreter installs
/// and executes them.
bool isLegalOpcode(uint8_t Opcode);

/// True if \p Opcode is an interpreter-private _quick form.
bool isQuickOpcode(uint8_t Opcode);

/// The _quick form \p Opcode rewrites to on first execution, or \p Opcode
/// itself when it has none.
uint8_t quickenedForm(uint8_t Opcode);

/// The classfile opcode a _quick form was rewritten from; identity for
/// non-quick opcodes.
uint8_t baseOpcode(uint8_t Opcode);

/// The OpKind classification; OpKind::Plain for illegal opcodes.
OpKind opcodeKind(uint8_t Opcode);

/// True for every opcode whose suspend check the placement pass may keep
/// or elide (conditional branches, gotos, switches — not jsr).
bool isPlacedBranchOp(Op O);

/// True for the call-boundary opcodes that always execute a suspend
/// check (§6.1): invokes, monitors, returns, athrow.
bool isCallBoundaryOp(Op O);

/// Number of defined classfile opcodes (201 in the 2nd-edition
/// specification); excludes the _quick forms.
int opcodeCount();

/// Big-endian operand reads at \p At in a code array, for the passes that
/// decode bytecode after instructionLength has bounds-checked it (the
/// verifier, dataflow, disassembler and decodeBranch). The interpreter
/// keeps its own inline readers on its hot path.
inline uint16_t rdU2(const std::vector<uint8_t> &Code, uint32_t At) {
  return static_cast<uint16_t>((Code[At] << 8) | Code[At + 1]);
}

inline int32_t rdS2(const std::vector<uint8_t> &Code, uint32_t At) {
  return static_cast<int16_t>(rdU2(Code, At));
}

inline int32_t rdS4(const std::vector<uint8_t> &Code, uint32_t At) {
  return static_cast<int32_t>((static_cast<uint32_t>(Code[At]) << 24) |
                              (static_cast<uint32_t>(Code[At + 1]) << 16) |
                              (static_cast<uint32_t>(Code[At + 2]) << 8) |
                              static_cast<uint32_t>(Code[At + 3]));
}

/// Verification types, the element type of opcode signatures and of the
/// dataflow verifier's frame states (dataflow.h). Category-2 values
/// (long/double) occupy two slots: the base type plus a trailing Hi
/// marker, mirroring the interpreter's two-slot convention, so that
/// instructions that would split a pair are detected slot-exactly.
enum class VType : uint8_t {
  Top,      ///< Unusable (uninitialized local, or conflicting merge).
  Int,      ///< int and its subword kin (boolean/byte/char/short).
  Float,
  Ref,      ///< All reference types, including null.
  RetAddr,  ///< jsr return address.
  Long,     ///< First slot of a long.
  LongHi,   ///< Second slot of a long.
  Double,   ///< First slot of a double.
  DoubleHi, ///< Second slot of a double.
};

/// The SIG column of one opcodes.def row.
struct OpSignature {
  /// False in the Var rows, whose effect depends on the operands.
  bool Fixed = false;
  /// Operand-stack slots popped and pushed; a long or double counts two.
  int8_t PopSlots = 0;
  int8_t PushSlots = 0;
  /// The typed values popped and pushed, bottom of the stack first (Int,
  /// Float, Ref, Long or Double). Empty in the rows written in untyped
  /// slot runs (the pop/dup/swap family, ldc*, jsr).
  uint8_t NumPops = 0;
  uint8_t NumPushes = 0;
  VType Pops[3] = {};
  VType Pushes[1] = {};
};

/// The signature of \p O; a _quick form has its base form's.
const OpSignature &opcodeSignature(Op O);

/// Control-flow decode of one instruction, driven by its OpKind — the
/// shared successor decoding used by the dataflow verifier and the
/// placement analysis.
struct BranchDecode {
  /// Explicit branch-target pcs. Fall-through is separate.
  std::vector<uint32_t> Targets;
  bool FallsThrough = true;
  bool IsBranch = false;
  /// jsr/jsr_w/ret (including wide ret) participate in subroutine flow.
  bool UsesJsrRet = false;
};

/// Decodes the explicit control flow of the instruction at \p Pc. The
/// instruction must have been length-checked first (instructionLength).
BranchDecode decodeBranch(const std::vector<uint8_t> &Code, uint32_t Pc);

/// The local variable one instruction names, from the LOCAL column of
/// opcodes.def.
struct LocalAccess {
  /// The slot: fixed by the row, or read from the operand (u1, or u2
  /// after wide); -1 when the instruction names none.
  int Slot = -1;
  /// Slots touched from Slot up: two for a long or double load or
  /// store, one for every other load, store, iinc and ret.
  int Width = 0;
  /// "wide prefix on a non-widenable instruction"; null otherwise.
  const char *Error = nullptr;
};

/// Decodes the local access of the instruction at \p Pc; for wide, that
/// of the instruction it widens. Reads no constant pool.
LocalAccess decodeLocal(const std::vector<uint8_t> &Code, uint32_t Pc);

/// Operand-stack and local-variable effect of one instruction, from the
/// SIG and LOCAL columns of opcodes.def.
struct StackEffect {
  int Pops = 0;
  int Pushes = 0;
  /// Highest local slot the instruction touches; -1 when it touches none.
  int LocalTop = -1;
  /// Why the operands do not decode ("bad field reference", "bad method
  /// reference", "wide prefix on a non-widenable instruction"); null when
  /// they do.
  const char *Error = nullptr;
};

/// Decodes the effect of the instruction at \p Pc. Only the
/// operand-dependent opcodes (field access, invokes, multianewarray,
/// wide) read their operands, and only field access and invokes read
/// \p Pool. A _quick form decodes as its base form.
StackEffect decodeStackEffect(const std::vector<uint8_t> &Code, uint32_t Pc,
                              const ConstantPool &Pool);

/// Pushes minus pops of \p O; nullopt when the effect depends on the
/// operands (decodeStackEffect reads those).
std::optional<int> fixedStackDelta(Op O);

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSFILE_OPCODES_H
