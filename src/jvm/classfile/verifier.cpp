//===- jvm/classfile/verifier.cpp -----------------------------------------==//

#include "jvm/classfile/verifier.h"

#include "jvm/classfile/dataflow.h"
#include "jvm/classfile/descriptor.h"
#include "jvm/classfile/disasm.h"
#include "jvm/classfile/opcodes.h"

#include <set>

using namespace doppio;
using namespace doppio::jvm;

namespace {

class MethodVerifier {
public:
  MethodVerifier(const ClassFile &Cf, const MemberInfo &M,
                 std::vector<VerifyError> &Errors)
      : Cf(Cf), M(M), Code(M.Code->Bytecode), Errors(Errors) {}

  void run() {
    if (Code.empty()) {
      error(0, "empty code array");
      return;
    }
    if (!decodeBoundaries())
      return;
    for (uint32_t Pc : Starts)
      checkInstruction(Pc);
    checkHandlers();
    checkFallOff();
  }

private:
  void error(uint32_t Pc, const std::string &Message) {
    Errors.push_back({M.Name + M.Descriptor, Pc, Message});
  }

  /// Walks the code array once, recording instruction start offsets.
  /// Collects every boundary error rather than bailing at the first:
  /// illegal opcodes resynchronize one byte ahead so later defects still
  /// surface; a truncated instruction ends the scan (its length — and so
  /// every later boundary — is unknowable).
  bool decodeBoundaries() {
    uint32_t Pc = 0;
    bool Clean = true;
    while (Pc < Code.size()) {
      if (!isLegalOpcode(Code[Pc])) {
        error(Pc, "illegal opcode " + std::to_string(Code[Pc]));
        Clean = false;
        ++Pc;
        continue;
      }
      uint32_t Len = instructionLength(Code, Pc);
      if (Len == 0) {
        error(Pc, std::string("truncated ") + opcodeName(Code[Pc]));
        return false;
      }
      if (Clean)
        Starts.insert(Pc);
      Pc += Len;
    }
    return Clean;
  }

  bool isStart(uint32_t Pc) const { return Starts.count(Pc) != 0; }

  /// decodeBranch's target as the signed sum pc + offset: a branch before
  /// pc 0 reads as negative, not as a wrapped u32.
  static int64_t signedTarget(uint32_t Pc, uint32_t Target) {
    return static_cast<int64_t>(Pc) + static_cast<int32_t>(Target - Pc);
  }

  void checkBranch(uint32_t Pc, int64_t Target) {
    if (Target < 0 || Target >= static_cast<int64_t>(Code.size()) ||
        !isStart(static_cast<uint32_t>(Target)))
      error(Pc, "branch target " + std::to_string(Target) +
                    " is not an instruction boundary");
  }

  void checkPool(uint32_t Pc, uint16_t Idx,
                 std::initializer_list<CpTag> Allowed) {
    if (!Cf.Pool.valid(Idx)) {
      error(Pc, "constant pool index " + std::to_string(Idx) +
                    " out of range");
      return;
    }
    CpTag Tag = Cf.Pool.at(Idx).Tag;
    for (CpTag A : Allowed)
      if (Tag == A)
        return;
    error(Pc, "constant pool entry " + std::to_string(Idx) +
                  " has the wrong tag for this instruction");
  }

  void checkInstruction(uint32_t Pc) {
    // Every local index is bounded statically, reachable or not
    // (JVMS §4.8.1): one check over the LOCAL column of opcodes.def.
    LocalAccess L = decodeLocal(Code, Pc);
    if (L.Error)
      error(Pc, L.Error);
    else if (L.Slot + L.Width > M.Code->MaxLocals)
      error(Pc, "local " + std::to_string(L.Slot) + " exceeds max_locals " +
                    std::to_string(M.Code->MaxLocals));
    Op O = static_cast<Op>(Code[Pc]);
    switch (O) {
    case Op::Ldc:
      checkPool(Pc, Code[Pc + 1],
                {CpTag::Integer, CpTag::Float, CpTag::String,
                 CpTag::Class});
      return;
    case Op::LdcW:
      checkPool(Pc, rdU2(Code, Pc + 1),
                {CpTag::Integer, CpTag::Float, CpTag::String,
                 CpTag::Class});
      return;
    case Op::Ldc2W:
      checkPool(Pc, rdU2(Code, Pc + 1), {CpTag::Long, CpTag::Double});
      return;
    case Op::Getstatic:
    case Op::Putstatic:
    case Op::Getfield:
    case Op::Putfield:
      checkPool(Pc, rdU2(Code, Pc + 1), {CpTag::Fieldref});
      return;
    case Op::Invokevirtual:
    case Op::Invokespecial:
    case Op::Invokestatic:
      checkPool(Pc, rdU2(Code, Pc + 1), {CpTag::Methodref});
      return;
    case Op::Invokeinterface:
      checkPool(Pc, rdU2(Code, Pc + 1), {CpTag::InterfaceMethodref});
      if (Code[Pc + 4] != 0)
        error(Pc, "invokeinterface fourth operand byte must be zero");
      return;
    case Op::New:
    case Op::Anewarray:
    case Op::Checkcast:
    case Op::Instanceof:
    case Op::Multianewarray:
      checkPool(Pc, rdU2(Code, Pc + 1), {CpTag::Class});
      if (O == Op::Multianewarray && Code[Pc + 3] == 0)
        error(Pc, "multianewarray needs at least one dimension");
      return;
    case Op::Newarray: {
      uint8_t T = Code[Pc + 1];
      if (T < 4 || T > 11)
        error(Pc, "newarray type code " + std::to_string(T) +
                      " out of range");
      return;
    }
    case Op::Lookupswitch: {
      // decodeBranch lists the default, then one target per (match,
      // offset) pair; match J sits at Operand + 8 + 8 * J.
      std::vector<uint32_t> Targets = decodeBranch(Code, Pc).Targets;
      uint32_t Operand = (Pc + 4) & ~3u;
      checkBranch(Pc, signedTarget(Pc, Targets[0]));
      int32_t Prev = 0;
      for (uint32_t J = 0; J + 1 != Targets.size(); ++J) {
        int32_t Match = rdS4(Code, Operand + 8 + 8 * J);
        if (J > 0 && Match <= Prev)
          error(Pc, "lookupswitch keys must be sorted and distinct");
        Prev = Match;
        checkBranch(Pc, signedTarget(Pc, Targets[J + 1]));
      }
      return;
    }
    default:
      // Every branch (if*, goto, jsr, tableswitch and the _w forms) lists
      // its targets; any other instruction lists none.
      for (uint32_t Target : decodeBranch(Code, Pc).Targets)
        checkBranch(Pc, signedTarget(Pc, Target));
      return;
    }
  }

  void checkHandlers() {
    for (const ExceptionHandler &H : M.Code->Handlers) {
      if (H.StartPc >= H.EndPc)
        error(H.StartPc, "exception handler range is empty or inverted");
      if (!isStart(H.StartPc) || H.EndPc > Code.size())
        error(H.StartPc, "exception handler range is misaligned");
      if (!isStart(H.HandlerPc))
        error(H.HandlerPc,
              "exception handler target is not an instruction boundary");
      if (H.CatchType != 0) {
        if (!Cf.Pool.valid(H.CatchType) ||
            Cf.Pool.at(H.CatchType).Tag != CpTag::Class)
          error(H.HandlerPc, "catch type is not a class constant");
      }
    }
  }

  /// Execution must not run off the end: the final instruction has to be
  /// a return, throw, or unconditional transfer.
  void checkFallOff() {
    uint32_t Last = *Starts.rbegin();
    if (decodeBranch(Code, Last).FallsThrough)
      error(Last, "execution can fall off the end of the code array");
  }

  const ClassFile &Cf;
  const MemberInfo &M;
  const std::vector<uint8_t> &Code;
  std::vector<VerifyError> &Errors;
  std::set<uint32_t> Starts;
};

} // namespace

std::vector<VerifyError> jvm::verifyClass(const ClassFile &Cf) {
  std::vector<VerifyError> Errors;
  if (Cf.ThisClass.empty())
    Errors.push_back({"", 0, "class has no name"});
  if (Cf.SuperClass.empty() && Cf.ThisClass != "java/lang/Object")
    Errors.push_back({"", 0, "only java/lang/Object may lack a super"});
  for (const MemberInfo &M : Cf.Methods) {
    bool BodyRequired = !M.isNative() && !(M.AccessFlags & AccAbstract);
    if (BodyRequired && !M.Code) {
      Errors.push_back(
          {M.Name + M.Descriptor, 0, "non-abstract method without code"});
      continue;
    }
    if (!BodyRequired && M.Code) {
      Errors.push_back({M.Name + M.Descriptor, 0,
                        "native/abstract method must not carry code"});
      continue;
    }
    if (!desc::parseMethod(M.Descriptor)) {
      Errors.push_back(
          {M.Name + M.Descriptor, 0, "malformed method descriptor"});
      continue;
    }
    if (M.Code) {
      size_t Before = Errors.size();
      MethodVerifier(Cf, M, Errors).run();
      // The dataflow pass assumes structural validity; run it only for
      // methods the structural checks accepted.
      if (Errors.size() == Before) {
        MethodDataflow Flow = analyzeMethodDataflow(Cf, M);
        Errors.insert(Errors.end(), Flow.Errors.begin(), Flow.Errors.end());
      }
    }
  }
  return Errors;
}

bool jvm::rejectsClass(const std::vector<VerifyError> &Errors) {
  for (const VerifyError &E : Errors)
    if (!E.MonitorOnly)
      return true;
  return false;
}
