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

/// True for the field descriptors the lattice can type.
bool isValidFieldDesc(const std::string &D) {
  if (D.empty())
    return false;
  switch (D[0]) {
  case 'B':
  case 'C':
  case 'D':
  case 'F':
  case 'I':
  case 'J':
  case 'S':
  case 'Z':
    return D.size() == 1;
  case 'L':
    return D.back() == ';' && D.size() > 2;
  case '[':
    return D.size() > 1;
  default:
    return false;
  }
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
      Lengths[Pc] = Len;
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
      switch (P[0]) {
      case 'J':
        Fits = place(VType::Long, 2);
        break;
      case 'D':
        Fits = place(VType::Double, 2);
        break;
      case 'F':
        Fits = place(VType::Float, 1);
        break;
      case 'L':
      case '[':
        Fits = place(VType::Ref, 1);
        break;
      default:
        Fits = place(VType::Int, 1);
        break;
      }
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

  void popInt() { popExpect(VType::Int); }
  void popFloat() { popExpect(VType::Float); }
  void popRef() { popExpect(VType::Ref); }

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

  void pushCat2(VType Base) {
    pushSlot(Base);
    pushSlot(hiOf(Base));
  }

  /// Push/pop by field descriptor (fields, invoke args and returns).
  void pushDesc(const std::string &D) {
    switch (D[0]) {
    case 'V':
      return;
    case 'J':
      pushCat2(VType::Long);
      return;
    case 'D':
      pushCat2(VType::Double);
      return;
    case 'F':
      pushSlot(VType::Float);
      return;
    case 'L':
    case '[':
      pushSlot(VType::Ref);
      return;
    default:
      pushSlot(VType::Int);
      return;
    }
  }

  void popDesc(const std::string &D) {
    switch (D[0]) {
    case 'J':
      popCat2(VType::Long);
      return;
    case 'D':
      popCat2(VType::Double);
      return;
    case 'F':
      popFloat();
      return;
    case 'L':
    case '[':
      popRef();
      return;
    default:
      popInt();
      return;
    }
  }

  bool requireLocal(uint32_t Slot, uint32_t Width) {
    if (Slot + Width <= MaxLocals)
      return true;
    fail("local " + std::to_string(Slot) + " exceeds max_locals " +
         std::to_string(MaxLocals));
    return false;
  }

  void loadLocal(uint32_t Slot, VType E, const char *Mnemonic) {
    if (!requireLocal(Slot, 1))
      return;
    if (Cur.Locals[Slot] != E) {
      fail("local " + std::to_string(Slot) + " holds " +
           vtypeName(Cur.Locals[Slot]) + " but " + Mnemonic + " needs " +
           vtypeName(E));
      return;
    }
    pushSlot(E);
  }

  void loadLocal2(uint32_t Slot, VType Base, const char *Mnemonic) {
    if (!requireLocal(Slot, 2))
      return;
    if (Cur.Locals[Slot] != Base || Cur.Locals[Slot + 1] != hiOf(Base)) {
      fail("local " + std::to_string(Slot) + " holds " +
           vtypeName(Cur.Locals[Slot]) + " but " + Mnemonic + " needs " +
           vtypeName(Base));
      return;
    }
    pushCat2(Base);
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
    if (Failed || !requireLocal(Slot, 1))
      return;
    clobberLocal(Slot);
    Cur.Locals[Slot] = T;
  }

  void storeLocal2(uint32_t Slot, VType Base) {
    if (Failed || !requireLocal(Slot, 2))
      return;
    clobberLocal(Slot);
    clobberLocal(Slot + 1);
    Cur.Locals[Slot] = Base;
    Cur.Locals[Slot + 1] = hiOf(Base);
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

  void fallThrough() {
    // The structural fall-off check guarantees a successor exists.
    flowTo(CurPc + Lengths.at(CurPc));
  }

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
  // Returns and monitors
  //===------------------------------------------------------------------===//

  void checkReturn(const char *Mnemonic, bool Matches) {
    if (!Matches) {
      fail(std::string(Mnemonic) + " in a method returning " + RetDesc);
      return;
    }
    if (Cur.MonitorDepth != 0)
      monitorError(CurPc, "returns while " +
                              std::to_string(Cur.MonitorDepth) +
                              " monitor(s) still held");
  }

  //===------------------------------------------------------------------===//
  // The transfer function
  //===------------------------------------------------------------------===//

  void transfer() {
    Op O = static_cast<Op>(Code[CurPc]);
    switch (O) {
    case Op::Nop:
      break;

    // Constants.
    case Op::AconstNull:
      pushSlot(VType::Ref);
      break;
    case Op::IconstM1:
    case Op::Iconst0:
    case Op::Iconst1:
    case Op::Iconst2:
    case Op::Iconst3:
    case Op::Iconst4:
    case Op::Iconst5:
    case Op::Bipush:
    case Op::Sipush:
      pushSlot(VType::Int);
      break;
    case Op::Lconst0:
    case Op::Lconst1:
      pushCat2(VType::Long);
      break;
    case Op::Fconst0:
    case Op::Fconst1:
    case Op::Fconst2:
      pushSlot(VType::Float);
      break;
    case Op::Dconst0:
    case Op::Dconst1:
      pushCat2(VType::Double);
      break;
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
      pushCat2(Cf.Pool.at(rdU2(Code, CurPc + 1)).Tag == CpTag::Long
                   ? VType::Long
                   : VType::Double);
      break;

    // Loads.
    case Op::Iload:
      loadLocal(Code[CurPc + 1], VType::Int, "iload");
      break;
    case Op::Fload:
      loadLocal(Code[CurPc + 1], VType::Float, "fload");
      break;
    case Op::Aload:
      loadLocal(Code[CurPc + 1], VType::Ref, "aload");
      break;
    case Op::Lload:
      loadLocal2(Code[CurPc + 1], VType::Long, "lload");
      break;
    case Op::Dload:
      loadLocal2(Code[CurPc + 1], VType::Double, "dload");
      break;
    case Op::Iload0:
    case Op::Iload1:
    case Op::Iload2:
    case Op::Iload3:
      loadLocal(static_cast<uint32_t>(O) - static_cast<uint32_t>(Op::Iload0),
                VType::Int, "iload");
      break;
    case Op::Lload0:
    case Op::Lload1:
    case Op::Lload2:
    case Op::Lload3:
      loadLocal2(static_cast<uint32_t>(O) -
                     static_cast<uint32_t>(Op::Lload0),
                 VType::Long, "lload");
      break;
    case Op::Fload0:
    case Op::Fload1:
    case Op::Fload2:
    case Op::Fload3:
      loadLocal(static_cast<uint32_t>(O) - static_cast<uint32_t>(Op::Fload0),
                VType::Float, "fload");
      break;
    case Op::Dload0:
    case Op::Dload1:
    case Op::Dload2:
    case Op::Dload3:
      loadLocal2(static_cast<uint32_t>(O) -
                     static_cast<uint32_t>(Op::Dload0),
                 VType::Double, "dload");
      break;
    case Op::Aload0:
    case Op::Aload1:
    case Op::Aload2:
    case Op::Aload3:
      loadLocal(static_cast<uint32_t>(O) - static_cast<uint32_t>(Op::Aload0),
                VType::Ref, "aload");
      break;

    // Array loads.
    case Op::Iaload:
    case Op::Baload:
    case Op::Caload:
    case Op::Saload:
      popInt();
      popRef();
      pushSlot(VType::Int);
      break;
    case Op::Faload:
      popInt();
      popRef();
      pushSlot(VType::Float);
      break;
    case Op::Aaload:
      popInt();
      popRef();
      pushSlot(VType::Ref);
      break;
    case Op::Laload:
      popInt();
      popRef();
      pushCat2(VType::Long);
      break;
    case Op::Daload:
      popInt();
      popRef();
      pushCat2(VType::Double);
      break;

    // Stores.
    case Op::Istore:
      popInt();
      storeLocal(Code[CurPc + 1], VType::Int);
      break;
    case Op::Fstore:
      popFloat();
      storeLocal(Code[CurPc + 1], VType::Float);
      break;
    case Op::Astore:
      transferAstore(Code[CurPc + 1]);
      break;
    case Op::Lstore:
      popCat2(VType::Long);
      storeLocal2(Code[CurPc + 1], VType::Long);
      break;
    case Op::Dstore:
      popCat2(VType::Double);
      storeLocal2(Code[CurPc + 1], VType::Double);
      break;
    case Op::Istore0:
    case Op::Istore1:
    case Op::Istore2:
    case Op::Istore3:
      popInt();
      storeLocal(static_cast<uint32_t>(O) -
                     static_cast<uint32_t>(Op::Istore0),
                 VType::Int);
      break;
    case Op::Lstore0:
    case Op::Lstore1:
    case Op::Lstore2:
    case Op::Lstore3:
      popCat2(VType::Long);
      storeLocal2(static_cast<uint32_t>(O) -
                      static_cast<uint32_t>(Op::Lstore0),
                  VType::Long);
      break;
    case Op::Fstore0:
    case Op::Fstore1:
    case Op::Fstore2:
    case Op::Fstore3:
      popFloat();
      storeLocal(static_cast<uint32_t>(O) -
                     static_cast<uint32_t>(Op::Fstore0),
                 VType::Float);
      break;
    case Op::Dstore0:
    case Op::Dstore1:
    case Op::Dstore2:
    case Op::Dstore3:
      popCat2(VType::Double);
      storeLocal2(static_cast<uint32_t>(O) -
                      static_cast<uint32_t>(Op::Dstore0),
                  VType::Double);
      break;
    case Op::Astore0:
    case Op::Astore1:
    case Op::Astore2:
    case Op::Astore3:
      transferAstore(static_cast<uint32_t>(O) -
                     static_cast<uint32_t>(Op::Astore0));
      break;

    // Array stores.
    case Op::Iastore:
    case Op::Bastore:
    case Op::Castore:
    case Op::Sastore:
      popInt();
      popInt();
      popRef();
      break;
    case Op::Fastore:
      popFloat();
      popInt();
      popRef();
      break;
    case Op::Aastore:
      popRef();
      popInt();
      popRef();
      break;
    case Op::Lastore:
      popCat2(VType::Long);
      popInt();
      popRef();
      break;
    case Op::Dastore:
      popCat2(VType::Double);
      popInt();
      popRef();
      break;

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

    // Int arithmetic.
    case Op::Iadd:
    case Op::Isub:
    case Op::Imul:
    case Op::Idiv:
    case Op::Irem:
    case Op::Ishl:
    case Op::Ishr:
    case Op::Iushr:
    case Op::Iand:
    case Op::Ior:
    case Op::Ixor:
      popInt();
      popInt();
      pushSlot(VType::Int);
      break;
    case Op::Ineg:
    case Op::I2b:
    case Op::I2c:
    case Op::I2s:
      popInt();
      pushSlot(VType::Int);
      break;

    // Long arithmetic.
    case Op::Ladd:
    case Op::Lsub:
    case Op::Lmul:
    case Op::Ldiv:
    case Op::Lrem:
    case Op::Land:
    case Op::Lor:
    case Op::Lxor:
      popCat2(VType::Long);
      popCat2(VType::Long);
      pushCat2(VType::Long);
      break;
    case Op::Lshl:
    case Op::Lshr:
    case Op::Lushr:
      popInt();
      popCat2(VType::Long);
      pushCat2(VType::Long);
      break;
    case Op::Lneg:
      popCat2(VType::Long);
      pushCat2(VType::Long);
      break;

    // Float arithmetic.
    case Op::Fadd:
    case Op::Fsub:
    case Op::Fmul:
    case Op::Fdiv:
    case Op::Frem:
      popFloat();
      popFloat();
      pushSlot(VType::Float);
      break;
    case Op::Fneg:
      popFloat();
      pushSlot(VType::Float);
      break;

    // Double arithmetic.
    case Op::Dadd:
    case Op::Dsub:
    case Op::Dmul:
    case Op::Ddiv:
    case Op::Drem:
      popCat2(VType::Double);
      popCat2(VType::Double);
      pushCat2(VType::Double);
      break;
    case Op::Dneg:
      popCat2(VType::Double);
      pushCat2(VType::Double);
      break;

    case Op::Iinc:
      transferIinc(Code[CurPc + 1]);
      break;

    // Conversions.
    case Op::I2l:
      popInt();
      pushCat2(VType::Long);
      break;
    case Op::I2f:
      popInt();
      pushSlot(VType::Float);
      break;
    case Op::I2d:
      popInt();
      pushCat2(VType::Double);
      break;
    case Op::L2i:
      popCat2(VType::Long);
      pushSlot(VType::Int);
      break;
    case Op::L2f:
      popCat2(VType::Long);
      pushSlot(VType::Float);
      break;
    case Op::L2d:
      popCat2(VType::Long);
      pushCat2(VType::Double);
      break;
    case Op::F2i:
      popFloat();
      pushSlot(VType::Int);
      break;
    case Op::F2l:
      popFloat();
      pushCat2(VType::Long);
      break;
    case Op::F2d:
      popFloat();
      pushCat2(VType::Double);
      break;
    case Op::D2i:
      popCat2(VType::Double);
      pushSlot(VType::Int);
      break;
    case Op::D2l:
      popCat2(VType::Double);
      pushCat2(VType::Long);
      break;
    case Op::D2f:
      popCat2(VType::Double);
      pushSlot(VType::Float);
      break;

    // Comparisons.
    case Op::Lcmp:
      popCat2(VType::Long);
      popCat2(VType::Long);
      pushSlot(VType::Int);
      break;
    case Op::Fcmpl:
    case Op::Fcmpg:
      popFloat();
      popFloat();
      pushSlot(VType::Int);
      break;
    case Op::Dcmpl:
    case Op::Dcmpg:
      popCat2(VType::Double);
      popCat2(VType::Double);
      pushSlot(VType::Int);
      break;

    // Conditional branches: both arms are successors.
    case Op::Ifeq:
    case Op::Ifne:
    case Op::Iflt:
    case Op::Ifge:
    case Op::Ifgt:
    case Op::Ifle:
      popInt();
      branchAndFallThrough(target16());
      return;
    case Op::IfIcmpeq:
    case Op::IfIcmpne:
    case Op::IfIcmplt:
    case Op::IfIcmpge:
    case Op::IfIcmpgt:
    case Op::IfIcmple:
      popInt();
      popInt();
      branchAndFallThrough(target16());
      return;
    case Op::IfAcmpeq:
    case Op::IfAcmpne:
      popRef();
      popRef();
      branchAndFallThrough(target16());
      return;
    case Op::Ifnull:
    case Op::Ifnonnull:
      popRef();
      branchAndFallThrough(target16());
      return;

    case Op::Goto:
      flowTo(target16());
      return;
    case Op::GotoW:
      flowTo(target32());
      return;

    // jsr pushes the return address for the subroutine to astore; the
    // instruction after the jsr is reached via ret, not by fall-through.
    case Op::Jsr:
      pushSlot(VType::RetAddr);
      flowTo(target16());
      return;
    case Op::JsrW:
      pushSlot(VType::RetAddr);
      flowTo(target32());
      return;
    case Op::Ret:
      transferRet(Code[CurPc + 1]);
      return;

    case Op::Tableswitch:
    case Op::Lookupswitch: {
      popInt();
      // Target arithmetic shared with analysis/disasm via opcodes.def.
      for (uint32_t T : decodeBranch(Code, CurPc).Targets) {
        if (Failed)
          return;
        flowTo(T);
      }
      return;
    }

    // Returns: no successors.
    case Op::Ireturn:
      popInt();
      checkReturn("ireturn", RetDesc.size() == 1 &&
                                 std::string("IZBCS").find(RetDesc[0]) !=
                                     std::string::npos);
      return;
    case Op::Lreturn:
      popCat2(VType::Long);
      checkReturn("lreturn", RetDesc == "J");
      return;
    case Op::Freturn:
      popFloat();
      checkReturn("freturn", RetDesc == "F");
      return;
    case Op::Dreturn:
      popCat2(VType::Double);
      checkReturn("dreturn", RetDesc == "D");
      return;
    case Op::Areturn:
      popRef();
      checkReturn("areturn", desc::isReference(RetDesc));
      return;
    case Op::Return:
      checkReturn("return", RetDesc == "V");
      return;

    // Fields.
    case Op::Getstatic:
    case Op::Putstatic:
    case Op::Getfield:
    case Op::Putfield: {
      ConstantPool::MemberRef Ref =
          Cf.Pool.memberRef(rdU2(Code, CurPc + 1));
      if (!isValidFieldDesc(Ref.Descriptor)) {
        fail("malformed field descriptor " + Ref.Descriptor);
        break;
      }
      if (O == Op::Getstatic) {
        pushDesc(Ref.Descriptor);
      } else if (O == Op::Putstatic) {
        popDesc(Ref.Descriptor);
      } else if (O == Op::Getfield) {
        popRef();
        pushDesc(Ref.Descriptor);
      } else {
        popDesc(Ref.Descriptor);
        popRef();
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
        popDesc(Callee->Params[I]);
      if (O != Op::Invokestatic)
        popRef(); // The receiver.
      if (Callee->Ret != "V")
        pushDesc(Callee->Ret);
      break;
    }

    // Objects and arrays.
    case Op::New:
      pushSlot(VType::Ref);
      break;
    case Op::Newarray:
    case Op::Anewarray:
      popInt();
      pushSlot(VType::Ref);
      break;
    case Op::Multianewarray: {
      uint8_t Dims = Code[CurPc + 3];
      for (uint8_t I = 0; I != Dims && !Failed; ++I)
        popInt();
      pushSlot(VType::Ref);
      break;
    }
    case Op::Arraylength:
      popRef();
      pushSlot(VType::Int);
      break;
    case Op::Athrow:
      popRef();
      return; // Only the exception edges continue.
    case Op::Checkcast:
      popRef();
      pushSlot(VType::Ref);
      break;
    case Op::Instanceof:
      popRef();
      pushSlot(VType::Int);
      break;

    // Monitors.
    case Op::Monitorenter:
      popRef();
      ++Cur.MonitorDepth;
      break;
    case Op::Monitorexit:
      popRef();
      if (Cur.MonitorDepth == 0)
        monitorError(CurPc, "monitorexit with no monitor held");
      else
        --Cur.MonitorDepth;
      break;

    case Op::Wide:
      if (!transferWide())
        return; // wide ret: successors already merged.
      break;
    }
    if (!Failed)
      fallThrough();
  }

  /// iinc on an untouched slot is accepted and types it int: the
  /// interpreter zero-fills locals, so the increment is well-defined even
  /// though javac never emits it (DESIGN.md §12 lists the divergence).
  void transferIinc(uint32_t Slot) {
    if (!requireLocal(Slot, 1))
      return;
    if (Cur.Locals[Slot] == VType::Top) {
      Cur.Locals[Slot] = VType::Int;
      return;
    }
    if (Cur.Locals[Slot] != VType::Int)
      fail("local " + std::to_string(Slot) + " holds " +
           vtypeName(Cur.Locals[Slot]) + " but iinc needs int");
  }

  /// astore is the one store that accepts a returnAddress (the jsr idiom
  /// stores the address for ret).
  void transferAstore(uint32_t Slot) {
    VType T = popSlot();
    if (Failed)
      return;
    if (T != VType::Ref && T != VType::RetAddr) {
      fail(std::string("expected reference on stack, found ") +
           (isHi(T) ? vtypeName(baseOf(T)) : vtypeName(T)));
      return;
    }
    storeLocal(Slot, T);
  }

  /// Conservative subroutine return: ret may resume after any jsr in the
  /// method, so the current state merges into every jsr successor.
  void transferRet(uint32_t Slot) {
    if (!requireLocal(Slot, 1))
      return;
    if (Cur.Locals[Slot] != VType::RetAddr) {
      fail("local " + std::to_string(Slot) + " holds " +
           vtypeName(Cur.Locals[Slot]) + " but ret needs returnAddress");
      return;
    }
    for (uint32_t Follower : JsrFollowers) {
      if (Failed)
        return;
      if (Follower < Code.size())
        flowTo(Follower);
    }
  }

  /// Returns false when the wide instruction has no fall-through (ret).
  bool transferWide() {
    Op Inner = static_cast<Op>(Code[CurPc + 1]);
    uint32_t Slot = rdU2(Code, CurPc + 2);
    switch (Inner) {
    case Op::Iload:
      loadLocal(Slot, VType::Int, "iload");
      return true;
    case Op::Fload:
      loadLocal(Slot, VType::Float, "fload");
      return true;
    case Op::Aload:
      loadLocal(Slot, VType::Ref, "aload");
      return true;
    case Op::Lload:
      loadLocal2(Slot, VType::Long, "lload");
      return true;
    case Op::Dload:
      loadLocal2(Slot, VType::Double, "dload");
      return true;
    case Op::Istore:
      popInt();
      storeLocal(Slot, VType::Int);
      return true;
    case Op::Fstore:
      popFloat();
      storeLocal(Slot, VType::Float);
      return true;
    case Op::Astore:
      transferAstore(Slot);
      return true;
    case Op::Lstore:
      popCat2(VType::Long);
      storeLocal2(Slot, VType::Long);
      return true;
    case Op::Dstore:
      popCat2(VType::Double);
      storeLocal2(Slot, VType::Double);
      return true;
    case Op::Iinc:
      transferIinc(Slot);
      return true;
    case Op::Ret:
      transferRet(Slot);
      return false;
    default:
      fail("wide prefix on a non-widenable instruction");
      return true;
    }
  }

  uint32_t target16() const { return CurPc + rdS2(Code, CurPc + 1); }
  uint32_t target32() const { return CurPc + rdS4(Code, CurPc + 1); }

  void branchAndFallThrough(uint32_t Target) {
    flowTo(Target);
    if (!Failed)
      fallThrough();
  }

  const ClassFile &Cf;
  const MemberInfo &M;
  const std::vector<uint8_t> &Code;
  const uint16_t MaxStack;
  const uint16_t MaxLocals;
  MethodDataflow &Out;

  std::map<uint32_t, uint32_t> Lengths;
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
