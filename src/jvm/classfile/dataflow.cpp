//===- jvm/classfile/dataflow.cpp -----------------------------------------==//
//
// Worklist dataflow verification over the verification type lattice. The
// analysis is deterministic: the worklist is an ordered set and always
// processes the lowest pending pc, so the first error reported for a given
// method is stable across runs (the negative tests assert exact pc and
// message).
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/dataflow.h"

#include "jvm/classfile/descriptor.h"
#include "jvm/classfile/disasm.h"
#include "jvm/classfile/opcodes.h"

#include <cctype>
#include <set>
#include <sstream>

using namespace doppio;
using namespace doppio::jvm;

const char *jvm::vtypeName(VType T) {
  switch (T) {
  case VType::Top:
    return "top";
  case VType::Int:
    return "int";
  case VType::Float:
    return "float";
  case VType::Ref:
    return "reference";
  case VType::RetAddr:
    return "returnAddress";
  case VType::Long:
    return "long";
  case VType::LongHi:
    return "long-hi";
  case VType::Double:
    return "double";
  case VType::DoubleHi:
    return "double-hi";
  }
  return "?";
}

namespace {

bool isHi(VType T) { return T == VType::LongHi || T == VType::DoubleHi; }
bool isBase2(VType T) { return T == VType::Long || T == VType::Double; }
VType hiOf(VType Base) {
  return Base == VType::Long ? VType::LongHi : VType::DoubleHi;
}

char vtypeChar(VType T) {
  switch (T) {
  case VType::Top:
    return '?';
  case VType::Int:
    return 'I';
  case VType::Float:
    return 'F';
  case VType::Ref:
    return 'R';
  case VType::RetAddr:
    return 'A';
  case VType::Long:
    return 'J';
  case VType::Double:
    return 'D';
  case VType::LongHi:
  case VType::DoubleHi:
    return '=';
  }
  return '?';
}

/// The verification type of a field descriptor, or of a method's
/// non-void return descriptor.
VType descType(const std::string &D) {
  switch (D[0]) {
  case 'J':
    return VType::Long;
  case 'D':
    return VType::Double;
  case 'F':
    return VType::Float;
  case 'L':
  case '[':
    return VType::Ref;
  default:
    return VType::Int;
  }
}

/// The mnemonic a diagnostic names for a load or a return: the row's enum
/// name in lower case, less the slot digit of a fixed-slot form ("iload"
/// for iload_2, "ireturn").
std::string familyName(Op O) {
  std::string Name = opcodeName(static_cast<uint8_t>(O));
  if (std::isdigit(static_cast<unsigned char>(Name.back())))
    Name.pop_back();
  for (char &C : Name)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Name;
}

class DataflowAnalyzer {
public:
  DataflowAnalyzer(const ClassFile &Cf, const MemberInfo &M,
                   MethodDataflow &Out)
      : Cf(Cf), M(M), Code(M.Code->Bytecode), MaxStack(M.Code->MaxStack),
        MaxLocals(M.Code->MaxLocals), Out(Out) {}

  void run() {
    if (!decode())
      return;
    if (!seedEntryState())
      return;
    while (!Worklist.empty() && !Failed) {
      CurPc = *Worklist.begin();
      Worklist.erase(Worklist.begin());
      Cur = Out.In.at(CurPc);
      InLocals = Cur.Locals;
      InDepth = Cur.MonitorDepth;
      transfer();
      if (!Failed)
        flowToHandlers();
    }
    Out.Ok = Out.Errors.empty();
  }

private:
  //===------------------------------------------------------------------===//
  // Diagnostics
  //===------------------------------------------------------------------===//

  void addError(uint32_t Pc, const std::string &Message, bool MonitorOnly) {
    for (const VerifyError &E : Out.Errors)
      if (E.Pc == Pc && E.Message == Message)
        return; // Fixpoint revisits must not duplicate diagnostics.
    Out.Errors.push_back({M.Name + M.Descriptor, Pc, Message, MonitorOnly});
  }

  /// Hard typeflow error: recorded once, analysis stops (the frame state
  /// past this point is meaningless).
  void fail(const std::string &Message) { failAt(CurPc, Message); }
  void failAt(uint32_t Pc, const std::string &Message) {
    if (Failed)
      return;
    addError(Pc, Message, false);
    Failed = true;
  }

  /// Monitor-balance diagnostic: recorded, analysis continues (the loader
  /// demotes the method to guarded execution instead of rejecting).
  void monitorError(uint32_t Pc, const std::string &Message) {
    addError(Pc, Message, true);
  }

  //===------------------------------------------------------------------===//
  // Code decoding
  //===------------------------------------------------------------------===//

  bool decode() {
    uint32_t Pc = 0;
    while (Pc < Code.size()) {
      uint32_t Len = instructionLength(Code, Pc);
      if (Len == 0) {
        // The structural verifier accepted this method; a zero length here
        // means it was not run first. Refuse rather than misanalyze.
        failAt(Pc, "dataflow requires a structurally valid method");
        return false;
      }
      Op O = static_cast<Op>(Code[Pc]);
      if (O == Op::Jsr || O == Op::JsrW)
        JsrFollowers.push_back(Pc + Len);
      Pc += Len;
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Entry state
  //===------------------------------------------------------------------===//

  bool seedEntryState() {
    auto Parsed = desc::parseMethod(M.Descriptor);
    if (!Parsed) {
      failAt(0, "malformed method descriptor");
      return false;
    }
    RetDesc = Parsed->Ret;
    FrameState Entry;
    Entry.Locals.assign(MaxLocals, VType::Top);
    uint32_t Slot = 0;
    auto place = [&](VType T, uint32_t Width) {
      if (Slot + Width > MaxLocals)
        return false;
      Entry.Locals[Slot] = T;
      if (Width == 2)
        Entry.Locals[Slot + 1] = hiOf(T);
      Slot += Width;
      return true;
    };
    bool Fits = true;
    if (!M.isStatic())
      Fits = place(VType::Ref, 1); // The receiver.
    for (const std::string &P : Parsed->Params) {
      if (!Fits)
        break;
      VType T = descType(P);
      Fits = place(T, isBase2(T) ? 2 : 1);
    }
    if (!Fits) {
      failAt(0, "parameters exceed max_locals " + std::to_string(MaxLocals));
      return false;
    }
    Out.In[0] = std::move(Entry);
    Worklist.insert(0);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Stack and locals primitives
  //===------------------------------------------------------------------===//

  VType popSlot() {
    if (Failed)
      return VType::Top;
    if (Cur.Stack.empty()) {
      fail("stack underflow");
      return VType::Top;
    }
    VType T = Cur.Stack.back();
    Cur.Stack.pop_back();
    return T;
  }

  void popExpect(VType E) {
    VType T = popSlot();
    if (Failed)
      return;
    if (T == E)
      return;
    if (isHi(T)) {
      fail("splits a two-slot value on the stack");
      return;
    }
    fail(std::string("expected ") + vtypeName(E) + " on stack, found " +
         vtypeName(T));
  }

  /// Pops a two-slot value: the Hi marker then its base.
  void popCat2(VType Base) {
    VType T = popSlot();
    if (Failed)
      return;
    if (T != hiOf(Base)) {
      fail(std::string("expected ") + vtypeName(Base) +
           " on stack, found " + vtypeName(isHi(T) ? baseOf(T) : T));
      return;
    }
    Cur.Stack.pop_back(); // The base slot, paired by construction.
  }

  static VType baseOf(VType Hi) {
    return Hi == VType::LongHi ? VType::Long : VType::Double;
  }

  void pushSlot(VType T) {
    if (Failed)
      return;
    if (Cur.Stack.size() >= MaxStack) {
      fail("stack overflow beyond max_stack " + std::to_string(MaxStack));
      return;
    }
    Cur.Stack.push_back(T);
  }

  /// Pushes or pops one value of type \p T: a long or double as two
  /// slots, anything else as one.
  void pushType(VType T) {
    pushSlot(T);
    if (isBase2(T))
      pushSlot(hiOf(T));
  }

  void popType(VType T) {
    if (isBase2(T))
      popCat2(T);
    else
      popExpect(T);
  }

  bool requireLocal(uint32_t Slot, uint32_t Width) {
    if (Slot + Width <= MaxLocals)
      return true;
    fail("local " + std::to_string(Slot) + " exceeds max_locals " +
         std::to_string(MaxLocals));
    return false;
  }

  /// A load of type \p T by \p O (any form of one load family).
  void loadLocal(uint32_t Slot, VType T, Op O) {
    bool Pair = isBase2(T);
    if (!requireLocal(Slot, Pair ? 2 : 1))
      return;
    if (Cur.Locals[Slot] != T || (Pair && Cur.Locals[Slot + 1] != hiOf(T))) {
      fail("local " + std::to_string(Slot) + " holds " +
           vtypeName(Cur.Locals[Slot]) + " but " + familyName(O) +
           " needs " + vtypeName(T));
      return;
    }
    pushType(T);
  }

  /// Invalidates whichever two-slot pair \p Slot participates in before it
  /// is overwritten.
  void clobberLocal(uint32_t Slot) {
    if (isHi(Cur.Locals[Slot]) && Slot > 0)
      Cur.Locals[Slot - 1] = VType::Top;
    if (isBase2(Cur.Locals[Slot]) && Slot + 1 < MaxLocals)
      Cur.Locals[Slot + 1] = VType::Top;
  }

  void storeLocal(uint32_t Slot, VType T) {
    bool Pair = isBase2(T);
    if (Failed || !requireLocal(Slot, Pair ? 2 : 1))
      return;
    clobberLocal(Slot);
    if (Pair)
      clobberLocal(Slot + 1);
    Cur.Locals[Slot] = T;
    if (Pair)
      Cur.Locals[Slot + 1] = hiOf(T);
  }

  //===------------------------------------------------------------------===//
  // Generic stack shuffles (dup family, pop family, swap)
  //===------------------------------------------------------------------===//

  /// dup / dup_x1 / dup_x2 / dup2 / dup2_x1 / dup2_x2: copies the top
  /// \p N slots beneath the \p Skip slots below them. Both group
  /// boundaries must not cut a two-slot value.
  void dupOp(uint32_t N, uint32_t Skip, const char *Mnemonic) {
    size_t S = Cur.Stack.size();
    if (S < N + Skip) {
      fail("stack underflow");
      return;
    }
    if (isHi(Cur.Stack[S - N]) ||
        (Skip > 0 && isHi(Cur.Stack[S - N - Skip]))) {
      fail(std::string(Mnemonic) + " splits a two-slot value on the stack");
      return;
    }
    if (S + N > MaxStack) {
      fail("stack overflow beyond max_stack " + std::to_string(MaxStack));
      return;
    }
    std::vector<VType> Group(Cur.Stack.end() - N, Cur.Stack.end());
    Cur.Stack.insert(Cur.Stack.end() - N - Skip, Group.begin(), Group.end());
  }

  void popOp(uint32_t N, const char *Mnemonic) {
    if (Cur.Stack.size() < N) {
      fail("stack underflow");
      return;
    }
    if (isHi(Cur.Stack[Cur.Stack.size() - N])) {
      fail(std::string(Mnemonic) + " splits a two-slot value on the stack");
      return;
    }
    Cur.Stack.resize(Cur.Stack.size() - N);
  }

  //===------------------------------------------------------------------===//
  // Merging
  //===------------------------------------------------------------------===//

  void mergeInto(uint32_t Target, const FrameState &S) {
    if (Failed)
      return;
    auto It = Out.In.find(Target);
    if (It == Out.In.end()) {
      Out.In[Target] = S;
      Worklist.insert(Target);
      return;
    }
    FrameState &E = It->second;
    bool Changed = false;
    if (E.Stack.size() != S.Stack.size()) {
      failAt(Target, "inconsistent stack depth at merge (" +
                         std::to_string(E.Stack.size()) + " vs " +
                         std::to_string(S.Stack.size()) + ")");
      return;
    }
    for (size_t I = 0; I != E.Stack.size(); ++I) {
      if (E.Stack[I] == S.Stack[I])
        continue;
      failAt(Target, "stack type mismatch at merge slot " +
                         std::to_string(I) + " (" + vtypeName(E.Stack[I]) +
                         " vs " + vtypeName(S.Stack[I]) + ")");
      return;
    }
    for (size_t I = 0; I != E.Locals.size(); ++I) {
      if (E.Locals[I] == S.Locals[I] || E.Locals[I] == VType::Top)
        continue;
      E.Locals[I] = VType::Top; // Locals merge to unusable, not to error.
      Changed = true;
    }
    if (E.MonitorDepth != S.MonitorDepth) {
      monitorError(Target, "monitor depth mismatch at merge (" +
                               std::to_string(E.MonitorDepth) + " vs " +
                               std::to_string(S.MonitorDepth) + ")");
      if (S.MonitorDepth > E.MonitorDepth) {
        E.MonitorDepth = S.MonitorDepth; // Max keeps the fixpoint monotone.
        Changed = true;
      }
    }
    if (Changed)
      Worklist.insert(Target);
  }

  void flowTo(uint32_t Target) { mergeInto(Target, Cur); }

  /// Exception edges: every handler covering this pc can be entered with
  /// the locals as they were before or after the instruction (stores and
  /// iinc mutate them mid-protection), a stack holding just the thrown
  /// reference, and the monitor depth on entry.
  void flowToHandlers() {
    for (const ExceptionHandler &H : M.Code->Handlers) {
      if (CurPc < H.StartPc || CurPc >= H.EndPc)
        continue;
      if (MaxStack < 1) {
        failAt(H.HandlerPc, "stack overflow beyond max_stack 0");
        return;
      }
      FrameState At;
      At.Stack = {VType::Ref};
      At.MonitorDepth = InDepth;
      At.Locals = InLocals;
      mergeInto(H.HandlerPc, At);
      if (Failed)
        return;
      At.Locals = Cur.Locals;
      mergeInto(H.HandlerPc, At);
      if (Failed)
        return;
    }
  }

  //===------------------------------------------------------------------===//
  // The transfer function
  //===------------------------------------------------------------------===//

  /// One instruction: its effect on Cur, then its successors from
  /// decodeBranch. Every opcode with a typed signature takes the generic
  /// path (transferFixed); the cases are the instructions whose effect
  /// depends on the constant pool or the operands, the untyped shuffles,
  /// and the ones with a side condition.
  void transfer() {
    Op O = static_cast<Op>(Code[CurPc]);
    LocalAccess L = decodeLocal(Code, CurPc);
    if (L.Error) {
      fail(L.Error);
      return;
    }
    if (O == Op::Wide)
      O = static_cast<Op>(Code[CurPc + 1]);
    switch (O) {
    case Op::Ldc:
    case Op::LdcW: {
      uint16_t Idx =
          O == Op::Ldc ? Code[CurPc + 1] : rdU2(Code, CurPc + 1);
      switch (Cf.Pool.at(Idx).Tag) {
      case CpTag::Integer:
        pushSlot(VType::Int);
        break;
      case CpTag::Float:
        pushSlot(VType::Float);
        break;
      default: // String or Class, per the structural tag check.
        pushSlot(VType::Ref);
        break;
      }
      break;
    }
    case Op::Ldc2W:
      pushType(Cf.Pool.at(rdU2(Code, CurPc + 1)).Tag == CpTag::Long
                   ? VType::Long
                   : VType::Double);
      break;

    // astore is the one store that accepts a returnAddress (the jsr idiom
    // stores the address for ret).
    case Op::Astore:
    case Op::Astore0:
    case Op::Astore1:
    case Op::Astore2:
    case Op::Astore3: {
      VType T = popSlot();
      if (Failed)
        return;
      if (T != VType::Ref && T != VType::RetAddr) {
        fail(std::string("expected reference on stack, found ") +
             (isHi(T) ? vtypeName(baseOf(T)) : vtypeName(T)));
        return;
      }
      storeLocal(L.Slot, T);
      break;
    }

    // Stack shuffles.
    case Op::Pop:
      popOp(1, "pop");
      break;
    case Op::Pop2:
      popOp(2, "pop2");
      break;
    case Op::Dup:
      dupOp(1, 0, "dup");
      break;
    case Op::DupX1:
      dupOp(1, 1, "dup_x1");
      break;
    case Op::DupX2:
      dupOp(1, 2, "dup_x2");
      break;
    case Op::Dup2:
      dupOp(2, 0, "dup2");
      break;
    case Op::Dup2X1:
      dupOp(2, 1, "dup2_x1");
      break;
    case Op::Dup2X2:
      dupOp(2, 2, "dup2_x2");
      break;
    case Op::Swap: {
      size_t S = Cur.Stack.size();
      if (S < 2) {
        fail("stack underflow");
        break;
      }
      if (isHi(Cur.Stack[S - 1]) || isHi(Cur.Stack[S - 2])) {
        fail("swap splits a two-slot value on the stack");
        break;
      }
      std::swap(Cur.Stack[S - 1], Cur.Stack[S - 2]);
      break;
    }

    // iinc on an untouched slot is accepted and types it int: the
    // interpreter zero-fills locals, so the increment is well-defined even
    // though javac never emits it (DESIGN.md §12 lists the divergence).
    case Op::Iinc:
      if (!requireLocal(L.Slot, 1))
        return;
      if (Cur.Locals[L.Slot] == VType::Top)
        Cur.Locals[L.Slot] = VType::Int;
      else if (Cur.Locals[L.Slot] != VType::Int)
        fail("local " + std::to_string(L.Slot) + " holds " +
             vtypeName(Cur.Locals[L.Slot]) + " but iinc needs int");
      break;

    // jsr pushes the return address for the subroutine to astore; the
    // instruction after the jsr is reached via ret, not by fall-through.
    case Op::Jsr:
    case Op::JsrW:
      pushSlot(VType::RetAddr);
      flowTo(decodeBranch(Code, CurPc).Targets[0]);
      return;

    // Conservative subroutine return: ret may resume after any jsr in the
    // method, so the current state merges into every jsr successor.
    case Op::Ret:
      if (!requireLocal(L.Slot, 1))
        return;
      if (Cur.Locals[L.Slot] != VType::RetAddr) {
        fail("local " + std::to_string(L.Slot) + " holds " +
             vtypeName(Cur.Locals[L.Slot]) +
             " but ret needs returnAddress");
        return;
      }
      for (uint32_t Follower : JsrFollowers)
        if (Follower < Code.size())
          flowTo(Follower);
      return;

    case Op::Ireturn:
    case Op::Lreturn:
    case Op::Freturn:
    case Op::Dreturn:
    case Op::Areturn:
    case Op::Return:
      transferFixed(O, L.Slot);
      checkReturn(O);
      return;

    // Fields.
    case Op::Getstatic:
    case Op::Putstatic:
    case Op::Getfield:
    case Op::Putfield: {
      ConstantPool::MemberRef Ref =
          Cf.Pool.memberRef(rdU2(Code, CurPc + 1));
      if (!desc::isField(Ref.Descriptor)) {
        fail("malformed field descriptor " + Ref.Descriptor);
        break;
      }
      VType T = descType(Ref.Descriptor);
      if (O == Op::Getstatic) {
        pushType(T);
      } else if (O == Op::Putstatic) {
        popType(T);
      } else if (O == Op::Getfield) {
        popExpect(VType::Ref);
        pushType(T);
      } else {
        popType(T);
        popExpect(VType::Ref);
      }
      break;
    }

    // Invokes.
    case Op::Invokevirtual:
    case Op::Invokespecial:
    case Op::Invokestatic:
    case Op::Invokeinterface: {
      ConstantPool::MemberRef Ref =
          Cf.Pool.memberRef(rdU2(Code, CurPc + 1));
      auto Callee = desc::parseMethod(Ref.Descriptor);
      if (!Callee) {
        fail("malformed method descriptor " + Ref.Descriptor);
        break;
      }
      for (size_t I = Callee->Params.size(); I-- > 0 && !Failed;)
        popType(descType(Callee->Params[I]));
      if (O != Op::Invokestatic)
        popExpect(VType::Ref); // The receiver.
      if (Callee->Ret != "V")
        pushType(descType(Callee->Ret));
      break;
    }

    case Op::Multianewarray: {
      uint8_t Dims = Code[CurPc + 3];
      for (uint8_t I = 0; I != Dims && !Failed; ++I)
        popExpect(VType::Int);
      pushSlot(VType::Ref);
      break;
    }

    // Monitors.
    case Op::Monitorenter:
      popExpect(VType::Ref);
      ++Cur.MonitorDepth;
      break;
    case Op::Monitorexit:
      popExpect(VType::Ref);
      if (Cur.MonitorDepth == 0)
        monitorError(CurPc, "monitorexit with no monitor held");
      else
        --Cur.MonitorDepth;
      break;

    default:
      transferFixed(O, L.Slot);
      break;
    }
    if (Failed)
      return;
    BranchDecode B = decodeBranch(Code, CurPc);
    for (uint32_t Target : B.Targets)
      flowTo(Target);
    if (B.FallsThrough) // The structural fall-off check ensures a successor.
      flowTo(CurPc + instructionLength(Code, CurPc));
  }

  /// The generic transfer of a typed signature: pop its operands right to
  /// left, move the value between the stack and local \p Slot when the
  /// LOCAL column names one, and push its results.
  void transferFixed(Op O, int Slot) {
    const OpSignature &Sig = opcodeSignature(O);
    for (int I = Sig.NumPops; I-- > 0;)
      popType(Sig.Pops[I]);
    if (Slot >= 0 && Sig.NumPushes) {
      loadLocal(Slot, Sig.Pushes[0], O);
      return;
    }
    if (Slot >= 0)
      storeLocal(Slot, Sig.Pops[0]);
    for (int I = 0; I != Sig.NumPushes; ++I)
      pushType(Sig.Pushes[I]);
  }

  /// A typed return: its value (already popped) must match the method's
  /// return descriptor, and no monitor may still be held.
  void checkReturn(Op O) {
    const OpSignature &Sig = opcodeSignature(O);
    bool Matches = Sig.NumPops ? RetDesc != "V" &&
                                     descType(RetDesc) == Sig.Pops[0]
                               : RetDesc == "V";
    if (!Matches) {
      fail(familyName(O) + " in a method returning " + RetDesc);
      return;
    }
    if (Cur.MonitorDepth != 0)
      monitorError(CurPc, "returns while " +
                              std::to_string(Cur.MonitorDepth) +
                              " monitor(s) still held");
  }

  const ClassFile &Cf;
  const MemberInfo &M;
  const std::vector<uint8_t> &Code;
  const uint16_t MaxStack;
  const uint16_t MaxLocals;
  MethodDataflow &Out;

  std::vector<uint32_t> JsrFollowers;
  std::set<uint32_t> Worklist;
  std::string RetDesc;

  FrameState Cur;
  uint32_t CurPc = 0;
  std::vector<VType> InLocals;
  int32_t InDepth = 0;
  bool Failed = false;
};

} // namespace

std::string jvm::renderFrameState(const FrameState &S) {
  std::ostringstream Out;
  Out << "[";
  for (size_t I = 0; I != S.Stack.size(); ++I) {
    // The '=' trailing slot of a two-slot value binds to its base: "J=".
    if (I && !isHi(S.Stack[I]))
      Out << " ";
    Out << vtypeChar(S.Stack[I]);
  }
  Out << "]";
  if (S.MonitorDepth != 0)
    Out << " m=" << S.MonitorDepth;
  return Out.str();
}

MethodDataflow jvm::analyzeMethodDataflow(const ClassFile &Cf,
                                          const MemberInfo &M) {
  MethodDataflow Out;
  if (!M.Code) {
    Out.Ok = false;
    Out.Errors.push_back(
        {M.Name + M.Descriptor, 0, "method has no code to analyze", false});
    return Out;
  }
  if (M.Code->Bytecode.empty()) {
    Out.Errors.push_back({M.Name + M.Descriptor, 0, "empty code array",
                          false});
    return Out;
  }
  DataflowAnalyzer(Cf, M, Out).run();
  return Out;
}
