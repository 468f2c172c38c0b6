//===- jvm/klass.h - Linked runtime classes -----------------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linked, runtime form of a loaded class: resolved superclass and
/// interface pointers, the instance-field layout (one slot per declared
/// instance field, in both execution modes), method tables, static
/// storage, and the initialization state machine driven by the
/// interpreter's <clinit> handling (§6.4).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_KLASS_H
#define DOPPIO_JVM_KLASS_H

#include "jvm/classfile/analysis.h"
#include "jvm/classfile/classfile.h"
#include "jvm/classfile/descriptor.h"
#include "jvm/object.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

class Klass;
struct FieldInfo;
struct Method;
struct NativeContext;

/// Resolution results for one quickened constant-pool site (DESIGN.md
/// §18). When the interpreter rewrites an instruction to its _quick form,
/// the data the slow path resolved lands here, keyed by the instruction's
/// constant-pool index in the owning class's QuickPool. Entries are only
/// ever written on a successful slow-path execution, so a quick handler
/// can rely on every field its opcode needs being populated.
struct QuickEntry {
  /// Resolved class: field holder, invoked class, instantiated class, or
  /// checkcast/instanceof target.
  Klass *Holder = nullptr;
  /// Statically resolved callee (invokestatic/invokespecial).
  Method *Callee = nullptr;
  /// Address of the static field's value node (&Holder->Statics[Name];
  /// std::map nodes are stable, so the pointer stays valid).
  Value *StaticCell = nullptr;
  /// Member name and descriptor, copied out of the constant pool once so
  /// the quick path never re-parses a MemberRef.
  std::string Name;
  std::string Descriptor;
  /// Argument slots for invokes (excluding the receiver).
  int ArgSlots = 0;
  /// True for category-2 (J/D) field values: push2/pop2.
  bool Wide = false;
  /// Materialized ldc constant (interned strings and class mirrors are
  /// cached by the VM, so replaying the value preserves identity).
  Value Constant;
  /// Monomorphic inline cache: the receiver class this site last saw,
  /// with the field slot (getfield/putfield) or devirtualized callee
  /// (invokevirtual/invokeinterface) that class resolved to.
  Klass *IcKlass = nullptr;
  uint32_t IcSlot = 0;
  Method *IcCallee = nullptr;
  /// invokevirtual: the resolved callee's vtable slot and root
  /// (Method::VSlot/VRoot), so an inline-cache miss on a receiver that
  /// descends from the root is an index load (Klass::vtableTarget).
  uint32_t VSlot = 0;
  Method *VRoot = nullptr;
};

/// A native method body, implemented in the host (paper: in JavaScript,
/// §6.3).
using NativeFn = std::function<void(NativeContext &)>;

/// One resolved method.
struct Method {
  Klass *Owner = nullptr;
  uint16_t AccessFlags = 0;
  std::string Name;
  std::string Descriptor;
  desc::MethodDesc Parsed;
  int ParamSlots = 0; // Excluding the receiver.
  int RetSlots = 0;
  CodeAttr Code; // Empty for native/abstract methods.
  bool HasCode = false;
  /// True when the dataflow verifier proved this body safe: the
  /// interpreter may elide its per-instruction stack and locals guards
  /// (DESIGN.md §12). Set by the class loader; methods with any verify
  /// diagnostic run guarded instead.
  bool Verified = false;
  /// Placement-analysis verdict (DESIGN.md §17), set by the class loader
  /// next to Verified. When the CFG/loop pass proved bounded suspend
  /// placement, SuspendKeep holds one byte per code pc — 1 at branch
  /// instructions that carry a loop back edge and must keep their check —
  /// and SuspendBoundK is the proven maximum number of bytecodes
  /// executable between checks. Methods without a proof run with a check
  /// at every instruction in Placed mode (never incorrect, just slower).
  AnalysisStatus Placement = AnalysisStatus::NoCode;
  uint32_t SuspendBoundK = 0;
  std::vector<uint8_t> SuspendKeep;
  bool placementProved() const {
    return Placement == AnalysisStatus::Proved;
  }
  /// This method's index in its owner's Klass::VTable, and the
  /// declaration that first claimed the slot: the method itself unless
  /// it overrides one of the same name and descriptor higher up the
  /// superclass chain, whose root it then shares.
  uint32_t VSlot = 0;
  Method *VRoot = nullptr;
  /// The host body of a native method (§6.3), bound when its built-in
  /// class is defined (ClassLoader::defineBuiltin). Empty for every other
  /// class's natives: calling one throws UnsatisfiedLinkError.
  NativeFn Native;

  bool isStatic() const { return AccessFlags & AccStatic; }
  bool isNative() const { return AccessFlags & AccNative; }
  bool isSynchronized() const { return AccessFlags & AccSynchronized; }
  bool isAbstract() const { return AccessFlags & AccAbstract; }
  std::string key() const { return Name + Descriptor; }
  std::string qualifiedName() const;
};

/// One declared field.
struct FieldInfo {
  Klass *Owner = nullptr;
  uint16_t AccessFlags = 0;
  std::string Name;
  std::string Descriptor;
  /// Instance slot index, -1 for statics.
  int32_t SlotIndex = -1;
  uint16_t ConstantValueIndex = 0;

  bool isStatic() const { return AccessFlags & AccStatic; }
};

/// A loaded, linked class.
class Klass {
public:
  /// JVMS §5.5. A class whose <clinit> completed abruptly is Erroneous
  /// and never initializes. Checkpoint images store the state as its
  /// value, so the order is part of the image format.
  enum class InitState { Uninitialized, Initializing, Initialized, Erroneous };

  std::string Name;
  Klass *Super = nullptr;
  std::vector<Klass *> Interfaces;
  uint16_t AccessFlags = 0;
  ClassFile Cf; // Retains the constant pool for ldc/invoke/field insns.

  /// All declared fields (instance and static).
  std::vector<FieldInfo> Fields;
  /// Instance slots including superclasses: every object's slot count.
  uint32_t InstanceSlotCount = 0;
  /// Static values keyed by field name.
  std::map<std::string, Value> Statics;

  std::vector<std::unique_ptr<Method>> Methods;
  InitState Init = InitState::Uninitialized;

  // Array classes (§6.7: "the special array class that the JVM constructs
  // according to the array's component type").
  bool IsArrayClass = false;
  std::string ElemDesc;

  /// Declared method lookup (this class only).
  Method *findDeclaredMethod(const std::string &Name,
                             const std::string &Desc);
  /// Resolution along the superclass chain (and interfaces); also
  /// virtual dispatch from this (receiver) class.
  Method *findMethod(const std::string &Name, const std::string &Desc);

  /// The virtual table, built at link time (DESIGN.md §18): a copy of
  /// the superclass's table, in which each declared method takes over
  /// the slot of the same name and descriptor or appends a new one. So
  /// for every name and descriptor declared along the superclass chain,
  /// VTable[slot] is what findMethod returns. Array classes leave it
  /// empty.
  std::vector<Method *> VTable;
  /// The method slot \p Slot dispatches to for a receiver of this class,
  /// when the slot belongs to \p Root (Method::VRoot), that is when this
  /// class descends from the class that declared Root. Null otherwise
  /// (interface methods, arrays, unrelated receivers): resolve by name.
  Method *vtableTarget(uint32_t Slot, const Method *Root) const {
    if (Slot < VTable.size() && VTable[Slot]->VRoot == Root)
      return VTable[Slot];
    return nullptr;
  }

  /// The instance field \p Name names on an object of this class: the
  /// nearest declaration along the superclass chain, so a subclass that
  /// redeclares a name owns it for every reference to the object, as one
  /// dictionary key would (§6.7). Null for no declaration or a static
  /// one.
  FieldInfo *findField(const std::string &Name);

  bool isSubclassOf(const Klass *Other) const;
  bool implementsInterface(const Klass *Iface) const;
  /// instanceof / checkcast relation (subclass or interface; array
  /// covariance is handled by the interpreter).
  bool isAssignableTo(const Klass *Target) const;

  bool isInterface() const { return AccessFlags & AccInterface; }

  Method *clinit() { return findDeclaredMethod("<clinit>", "()V"); }

  /// The quickening side table for \p CpIndex, created on first use
  /// (DESIGN.md §18). Indexed by constant-pool index of the rewritten
  /// instruction's operand; lazily sized to the pool on first quickening
  /// so classes that never quicken pay nothing. The hit path every quick
  /// handler takes is inline; creation is out of line.
  QuickEntry &quickEntry(uint16_t CpIndex) {
    if (CpIndex < QuickPool.size())
      if (QuickEntry *Q = QuickPool[CpIndex].get())
        return *Q;
    return newQuickEntry(CpIndex);
  }
private:
  QuickEntry &newQuickEntry(uint16_t CpIndex);

  std::vector<std::unique_ptr<QuickEntry>> QuickPool;
};

const std::string &ArrayObject::elemDesc() const { return klass()->ElemDesc; }

/// Links a parsed class file into a Klass. \p Super and \p Interfaces must
/// already be linked. Native methods come out unbound; the class loader
/// binds a built-in class's natives as it defines the class.
std::unique_ptr<Klass> linkClass(ClassFile Cf, Klass *Super,
                                 std::vector<Klass *> Interfaces);

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_KLASS_H
