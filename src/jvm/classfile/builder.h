//===- jvm/classfile/builder.h - Bytecode assembler ---------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent assembler for synthesizing class files. The paper evaluates
/// DoppioJVM on OpenJDK programs (javap, javac, Rhino, Kawa) that cannot be
/// redistributed here, so the workload programs and the built-in class
/// library are assembled with this builder, serialized with the writer,
/// and fed through the same class loader path as any external class file
/// (DESIGN.md documents this substitution).
///
/// Labels resolve forward and backward branches; max_stack is computed by
/// simulating stack depth at assembly time from the opcodes.def stack
/// effects, and max_locals is inferred from local-variable usage.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSFILE_BUILDER_H
#define DOPPIO_JVM_CLASSFILE_BUILDER_H

#include "jvm/classfile/classfile.h"
#include "jvm/classfile/descriptor.h"
#include "jvm/classfile/opcodes.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

class ClassBuilder;

/// Array type codes for the newarray instruction.
enum class ArrayType : uint8_t {
  Boolean = 4,
  Char = 5,
  Float = 6,
  Double = 7,
  Byte = 8,
  Short = 9,
  Int = 10,
  Long = 11,
};

/// Assembles one method body.
class MethodBuilder {
public:
  using Label = int;

  /// Allocates an unbound label.
  Label newLabel();
  /// Binds \p L to the current bytecode position.
  MethodBuilder &bind(Label L);

  // Constants.
  MethodBuilder &iconst(int32_t V);
  MethodBuilder &lconst(int64_t V);
  MethodBuilder &fconst(float V);
  MethodBuilder &dconst(double V);
  MethodBuilder &ldcString(const std::string &Text);
  MethodBuilder &aconstNull();

  // Locals.
  MethodBuilder &iload(int Slot);
  MethodBuilder &lload(int Slot);
  MethodBuilder &fload(int Slot);
  MethodBuilder &dload(int Slot);
  MethodBuilder &aload(int Slot);
  MethodBuilder &istore(int Slot);
  MethodBuilder &lstore(int Slot);
  MethodBuilder &fstore(int Slot);
  MethodBuilder &dstore(int Slot);
  MethodBuilder &astore(int Slot);
  MethodBuilder &iinc(int Slot, int32_t Delta);

  /// Any zero-operand instruction (arithmetic, stack ops, array loads and
  /// stores, conversions, comparisons, returns, athrow, monitors...).
  /// Local loads and stores go through iload() and friends, which also
  /// track max_locals.
  MethodBuilder &op(Op Opcode);

  // Control flow.
  MethodBuilder &branch(Op Opcode, Label Target); // if*, goto, jsr.
  MethodBuilder &tableswitch(Label Default, int32_t Low,
                             const std::vector<Label> &Targets);
  MethodBuilder &lookupswitch(Label Default,
                              const std::vector<std::pair<int32_t, Label>>
                                  &Cases);
  MethodBuilder &retLocal(int Slot); // The ret instruction (jsr/ret pair).

  // Members.
  MethodBuilder &getstatic(const std::string &Cls, const std::string &Name,
                           const std::string &Desc);
  MethodBuilder &putstatic(const std::string &Cls, const std::string &Name,
                           const std::string &Desc);
  MethodBuilder &getfield(const std::string &Cls, const std::string &Name,
                          const std::string &Desc);
  MethodBuilder &putfield(const std::string &Cls, const std::string &Name,
                          const std::string &Desc);
  MethodBuilder &invokevirtual(const std::string &Cls,
                               const std::string &Name,
                               const std::string &Desc);
  MethodBuilder &invokespecial(const std::string &Cls,
                               const std::string &Name,
                               const std::string &Desc);
  MethodBuilder &invokestatic(const std::string &Cls,
                              const std::string &Name,
                              const std::string &Desc);
  MethodBuilder &invokeinterface(const std::string &Cls,
                                 const std::string &Name,
                                 const std::string &Desc);

  // Objects and arrays.
  MethodBuilder &anew(const std::string &Cls); // The new instruction.
  MethodBuilder &newarray(ArrayType T);
  MethodBuilder &anewarray(const std::string &Cls);
  MethodBuilder &multianewarray(const std::string &ArrayDesc, int Dims);
  MethodBuilder &checkcast(const std::string &Cls);
  MethodBuilder &instanceOf(const std::string &Cls);

  /// Registers an exception handler over [Start, End) landing at
  /// \p Handler; \p CatchClass empty catches everything.
  MethodBuilder &handler(Label Start, Label End, Label Handler,
                         const std::string &CatchClass = "");

  // Raw emission, for forging deliberately invalid methods in verifier
  // tests: bytes are appended with no stack simulation, reachability
  // tracking, or locals inference. Combine with the overrides below to
  // pin the exact max_stack / max_locals the forged method declares.
  MethodBuilder &rawOp(Op Opcode);
  MethodBuilder &rawU1(uint8_t V);
  MethodBuilder &rawU2(uint16_t V);
  /// Forces the emitted max_stack, bypassing the computed value.
  MethodBuilder &overrideMaxStack(int V);
  /// Forces the emitted max_locals, bypassing the inferred value.
  MethodBuilder &overrideMaxLocals(int V);

  /// Current bytecode size (for tests).
  size_t codeSize() const { return Code.size(); }

private:
  friend class ClassBuilder;
  MethodBuilder(ClassBuilder &Cb, uint16_t Flags, std::string Name,
                std::string Desc);

  /// Appends \p Opcode and moves the simulated stack depth by its fixed
  /// opcodes.def effect; operand-dependent opcodes (field access,
  /// invokes, multianewarray, wide) leave the depth to their emitter.
  void emit(Op Opcode);
  void emitU1(uint8_t V) { Code.push_back(V); }
  void emitU2(uint16_t V);
  void emitU4(uint32_t V);
  void load(Op Base1, Op BaseN, int Slot, int Slots);
  void store(Op Base1, Op BaseN, int Slot, int Slots);
  void noteLocal(int Slot, int Slots);
  void adjustStack(int Delta);
  void flowTo(Label L);
  void endFlow();
  MethodBuilder &member(Op Opcode, CpTag Tag, const std::string &Cls,
                        const std::string &Name, const std::string &Desc);
  /// Finalizes: patches branches, fills the Code attribute.
  MemberInfo finish();
  void refineMaxStack(MemberInfo &M);

  ClassBuilder &Cb;
  uint16_t Flags;
  std::string Name;
  std::string Descriptor;
  std::vector<uint8_t> Code;

  struct Fixup {
    size_t OperandPos; // Where the 16/32-bit offset goes.
    size_t InsnPos;    // Branch instruction start (offset base).
    Label Target;
    bool Wide;         // 32-bit offset (goto_w, switch entries).
  };
  std::vector<Fixup> Fixups;
  std::vector<int32_t> LabelPos;    // -1 while unbound.
  std::vector<int32_t> LabelDepth;  // -1 while unknown.

  struct PendingHandler {
    Label Start, End, Handler;
    std::string CatchClass;
  };
  std::vector<PendingHandler> Handlers;

  int StackDepth = 0;
  bool Reachable = true;
  int MaxStack = 0;
  int MaxLocals = 0;
  int MaxStackOverride = -1;  // -1: use the computed value.
  int MaxLocalsOverride = -1; // -1: use the inferred value.
};

/// Builds one class.
class ClassBuilder {
public:
  explicit ClassBuilder(std::string Name,
                        std::string Super = "java/lang/Object");

  ClassBuilder &setAccess(uint16_t Flags);
  ClassBuilder &addInterface(const std::string &Name);
  ClassBuilder &addField(uint16_t Flags, const std::string &Name,
                         const std::string &Desc);

  /// Starts a method; finished bodies are collected by build(). The
  /// returned reference stays valid until build().
  MethodBuilder &method(uint16_t Flags, const std::string &Name,
                        const std::string &Desc);

  /// Declares a native method (no Code attribute).
  ClassBuilder &nativeMethod(uint16_t Flags, const std::string &Name,
                             const std::string &Desc);

  /// Declares an abstract method (interfaces, abstract classes).
  ClassBuilder &abstractMethod(uint16_t Flags, const std::string &Name,
                               const std::string &Desc);

  /// Adds the canonical `<init>()V` that just calls the superclass
  /// constructor.
  ClassBuilder &addDefaultConstructor();

  /// Finalizes every method and produces the class file model.
  ClassFile build();

  /// build() + writeClassFile().
  std::vector<uint8_t> bytes();

  ConstantPool &pool() { return Cf.Pool; }
  const std::string &name() const { return Cf.ThisClass; }

private:
  friend class MethodBuilder;
  ClassFile Cf;
  std::vector<std::unique_ptr<MethodBuilder>> Methods;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSFILE_BUILDER_H
