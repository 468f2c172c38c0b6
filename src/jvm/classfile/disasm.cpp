//===- jvm/classfile/disasm.cpp -------------------------------------------==//

#include "jvm/classfile/disasm.h"

#include "jvm/classfile/analysis.h"
#include "jvm/classfile/dataflow.h"
#include "jvm/classfile/opcodes.h"

#include <bit>
#include <sstream>

using namespace doppio;
using namespace doppio::jvm;

uint32_t jvm::instructionLength(const std::vector<uint8_t> &Code,
                                uint32_t Pc) {
  if (Pc >= Code.size())
    return 0;
  uint8_t OpByte = Code[Pc];
  if (!isLegalOpcode(OpByte))
    return 0;
  int Operands = opcodeOperandBytes(OpByte);
  if (Operands >= 0) {
    uint32_t Len = 1 + static_cast<uint32_t>(Operands);
    return Pc + Len <= Code.size() ? Len : 0;
  }
  Op O = static_cast<Op>(OpByte);
  if (O == Op::Wide) {
    if (Pc + 1 >= Code.size())
      return 0;
    Op Inner = static_cast<Op>(Code[Pc + 1]);
    uint32_t Len = Inner == Op::Iinc ? 6 : 4;
    return Pc + Len <= Code.size() ? Len : 0;
  }
  uint32_t Operand = (Pc + 4) & ~3u; // Padding to 4-byte alignment.
  if (O == Op::Tableswitch) {
    if (Operand + 12 > Code.size())
      return 0;
    int32_t Low = rdS4(Code, Operand + 4);
    int32_t High = rdS4(Code, Operand + 8);
    if (High < Low)
      return 0;
    uint32_t Len = Operand + 12 +
                   4 * static_cast<uint32_t>(High - Low + 1) - Pc;
    return Pc + Len <= Code.size() ? Len : 0;
  }
  if (O == Op::Lookupswitch) {
    if (Operand + 8 > Code.size())
      return 0;
    int32_t NPairs = rdS4(Code, Operand + 4);
    if (NPairs < 0)
      return 0;
    uint32_t Len = Operand + 8 + 8 * static_cast<uint32_t>(NPairs) - Pc;
    return Pc + Len <= Code.size() ? Len : 0;
  }
  return 0;
}

/// Formats the constant-pool operand of an instruction, javap-style.
static std::string describeConstant(const ClassFile &Cf, uint16_t Idx) {
  if (!Cf.Pool.valid(Idx))
    return "#" + std::to_string(Idx) + " <invalid>";
  const CpEntry &E = Cf.Pool.at(Idx);
  std::string Out = "#" + std::to_string(Idx) + " ";
  switch (E.Tag) {
  case CpTag::Integer:
    return Out + "int " + std::to_string(E.Int);
  case CpTag::Float:
    return Out + "float " + std::to_string(E.F);
  case CpTag::Long:
    return Out + "long " + std::to_string(E.LongBits);
  case CpTag::Double:
    return Out + "double " +
           std::to_string(std::bit_cast<double>(E.LongBits));
  case CpTag::Class:
    return Out + "class " + Cf.Pool.className(Idx);
  case CpTag::String:
    return Out + "String \"" + Cf.Pool.stringValue(Idx) + "\"";
  case CpTag::Fieldref:
  case CpTag::Methodref:
  case CpTag::InterfaceMethodref: {
    ConstantPool::MemberRef Ref = Cf.Pool.memberRef(Idx);
    return Out + Ref.ClassName + "." + Ref.Name + ":" + Ref.Descriptor;
  }
  default:
    return Out;
  }
}

std::string jvm::disassembleMethod(const ClassFile &Cf,
                                   const MemberInfo &M,
                                   const MethodDataflow *Flow,
                                   const MethodAnalysis *Placement) {
  if (!M.Code)
    return "";
  std::ostringstream Out;
  const std::vector<uint8_t> &Code = M.Code->Bytecode;
  Out << "  " << M.Name << M.Descriptor << "  (stack=" << M.Code->MaxStack
      << ", locals=" << M.Code->MaxLocals << ")\n";
  uint32_t Pc = 0;
  while (Pc < Code.size()) {
    uint32_t Len = instructionLength(Code, Pc);
    std::ostringstream Line;
    Line << "    " << Pc << ": " << opcodeName(Code[Pc]);
    if (Len == 0) {
      Out << Line.str() << " <malformed>\n";
      break;
    }
    Op O = static_cast<Op>(Code[Pc]);
    // Operand rendering is driven by the OpKind column of opcodes.def.
    switch (opcodeKind(Code[Pc])) {
    case OpKind::Imm8:
      Line << " " << static_cast<int>(static_cast<int8_t>(Code[Pc + 1]));
      break;
    case OpKind::Imm16:
      Line << " " << rdS2(Code, Pc + 1);
      break;
    case OpKind::LdcU1:
      Line << " " << describeConstant(Cf, Code[Pc + 1]);
      break;
    case OpKind::CpU2:
    case OpKind::Invoke:
      Line << " " << describeConstant(Cf, rdU2(Code, Pc + 1));
      break;
    case OpKind::LocalU1:
    case OpKind::RetOp:
      Line << " " << static_cast<int>(Code[Pc + 1]);
      break;
    case OpKind::IincOp:
      Line << " " << static_cast<int>(Code[Pc + 1]) << " by "
          << static_cast<int>(static_cast<int8_t>(Code[Pc + 2]));
      break;
    case OpKind::If:
    case OpKind::GotoOp:
    case OpKind::JsrOp:
      Line << " -> "
          << (Pc + rdS2(Code, Pc + 1));
      break;
    default:
      break;
    }
    Out << Line.str();
    if (Flow) {
      auto It = Flow->In.find(Pc);
      // Pad so the annotations column-align within one method.
      for (size_t N = Line.str().size(); N < 36; ++N)
        Out << ' ';
      Out << "  ; "
          << (It != Flow->In.end() ? renderFrameState(It->second)
                                   : std::string("<unreachable>"));
    }
    if (Placement && Placement->ok()) {
      const char *Note = nullptr;
      if (Pc < Placement->KeepCheck.size() && Placement->KeepCheck[Pc])
        Note = "check kept (back edge)";
      else if (isPlacedBranchOp(O))
        Note = "check elided";
      else if (isCallBoundaryOp(O))
        Note = "check (call boundary)";
      if (Note) {
        for (size_t N = Line.str().size(); N < 36; ++N)
          Out << ' ';
        Out << "  ; " << Note;
      }
    }
    Out << "\n";
    Pc += Len;
  }
  for (const ExceptionHandler &H : M.Code->Handlers) {
    Out << "    catch [" << H.StartPc << ", " << H.EndPc << ") -> "
        << H.HandlerPc << " : "
        << (H.CatchType ? Cf.Pool.className(H.CatchType) : "<any>")
        << "\n";
  }
  return Out.str();
}

std::string jvm::disassembleClass(const ClassFile &Cf) {
  std::ostringstream Out;
  Out << ((Cf.AccessFlags & AccInterface) ? "interface " : "class ")
      << Cf.ThisClass;
  if (!Cf.SuperClass.empty())
    Out << " extends " << Cf.SuperClass;
  for (size_t I = 0; I != Cf.Interfaces.size(); ++I)
    Out << (I == 0 ? " implements " : ", ") << Cf.Interfaces[I];
  Out << "\n";
  Out << "  version " << Cf.MajorVersion << "." << Cf.MinorVersion
      << ", constant pool: " << Cf.Pool.size() << " entries\n";
  for (const MemberInfo &F : Cf.Fields)
    Out << "  field " << F.Name << " : " << F.Descriptor
        << (F.isStatic() ? " (static)" : "") << "\n";
  for (const MemberInfo &M : Cf.Methods) {
    if (M.isNative()) {
      Out << "  " << M.Name << M.Descriptor << "  (native)\n";
      continue;
    }
    if (M.AccessFlags & AccAbstract) {
      Out << "  " << M.Name << M.Descriptor << "  (abstract)\n";
      continue;
    }
    Out << disassembleMethod(Cf, M);
  }
  return Out.str();
}
