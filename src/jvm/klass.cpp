//===- jvm/klass.cpp ------------------------------------------------------==//

#include "jvm/klass.h"

#include <bit>
#include <cassert>

using namespace doppio;
using namespace doppio::jvm;

std::string Method::qualifiedName() const {
  return (Owner ? Owner->Name : "?") + "." + Name + Descriptor;
}

Method *Klass::findDeclaredMethod(const std::string &MName,
                                  const std::string &Desc) {
  for (auto &M : Methods)
    if (M->Name == MName && M->Descriptor == Desc)
      return M.get();
  return nullptr;
}

Method *Klass::findMethod(const std::string &MName,
                          const std::string &Desc) {
  for (Klass *K = this; K; K = K->Super)
    if (Method *M = K->findDeclaredMethod(MName, Desc))
      return M;
  // Interface default-free lookup: abstract declarations only; still walk
  // them so invokeinterface resolution succeeds.
  for (Klass *I : Interfaces)
    if (Method *M = I->findMethod(MName, Desc))
      return M;
  if (Super)
    for (Klass *I : Super->Interfaces)
      if (Method *M = I->findMethod(MName, Desc))
        return M;
  return nullptr;
}

FieldInfo *Klass::findField(const std::string &FName) {
  for (Klass *K = this; K; K = K->Super)
    for (FieldInfo &F : K->Fields)
      if (F.Name == FName)
        return F.isStatic() ? nullptr : &F;
  return nullptr;
}

QuickEntry &Klass::newQuickEntry(uint16_t CpIndex) {
  if (QuickPool.empty())
    QuickPool.resize(Cf.Pool.size());
  assert(CpIndex < QuickPool.size() && "quickening an out-of-pool index");
  assert(!QuickPool[CpIndex] && "quick entry already exists");
  QuickPool[CpIndex] = std::make_unique<QuickEntry>();
  return *QuickPool[CpIndex];
}

bool Klass::isSubclassOf(const Klass *Other) const {
  for (const Klass *K = this; K; K = K->Super)
    if (K == Other)
      return true;
  return false;
}

bool Klass::implementsInterface(const Klass *Iface) const {
  for (const Klass *K = this; K; K = K->Super)
    for (const Klass *I : K->Interfaces) {
      if (I == Iface || I->implementsInterface(Iface))
        return true;
    }
  return false;
}

bool Klass::isAssignableTo(const Klass *Target) const {
  if (Target->isInterface())
    return implementsInterface(Target) || Target == this;
  return isSubclassOf(Target);
}

Value ArrayObject::defaultElement(const std::string &Desc) {
  switch (Desc.empty() ? 'L' : Desc[0]) {
  case 'B':
  case 'C':
  case 'I':
  case 'S':
  case 'Z':
    return Value::intVal(0);
  case 'J':
    return Value::longVal(static_cast<int64_t>(0));
  case 'F':
    return Value::floatVal(0.0f);
  case 'D':
    return Value::doubleVal(0.0);
  default:
    return Value::null();
  }
}

Object::~Object() = default;

Value Object::field(const std::string &Name) const {
  FieldInfo *F = K->findField(Name);
  return F ? Slots[F->SlotIndex] : Value();
}

bool Object::setField(const std::string &Name, Value V) {
  FieldInfo *F = K->findField(Name);
  if (F)
    Slots[F->SlotIndex] = V;
  return F;
}

ArrayObject::ArrayObject(Klass *ArrayKlass, int32_t Length)
    : Object(ArrayKlass, 0),
      Elems(Length, defaultElement(ArrayKlass->ElemDesc)) {}

/// Zero/null of a field descriptor, for static and instance defaults.
static Value defaultForDesc(const std::string &Desc) {
  return ArrayObject::defaultElement(Desc);
}

/// Gives \p M its vtable slot in \p K: the slot of an inherited method
/// with the same name and descriptor, which M overrides, or a new one.
/// A duplicate declaration in K itself shares the first one's slot
/// without displacing it, as findMethod finds the first.
static void addToVTable(Klass &K, Method &M) {
  for (size_t Slot = 0; Slot != K.VTable.size(); ++Slot) {
    Method *Old = K.VTable[Slot];
    if (Old->Name != M.Name || Old->Descriptor != M.Descriptor)
      continue;
    M.VSlot = static_cast<uint32_t>(Slot);
    M.VRoot = Old->VRoot;
    if (Old->Owner != &K)
      K.VTable[Slot] = &M;
    return;
  }
  M.VSlot = static_cast<uint32_t>(K.VTable.size());
  M.VRoot = &M;
  K.VTable.push_back(&M);
}

std::unique_ptr<Klass> jvm::linkClass(ClassFile Cf, Klass *Super,
                                      std::vector<Klass *> Interfaces) {
  auto K = std::make_unique<Klass>();
  K->Name = Cf.ThisClass;
  K->Super = Super;
  K->Interfaces = std::move(Interfaces);
  K->AccessFlags = Cf.AccessFlags;

  // Instance field layout: superclass slots first, then ours.
  uint32_t NextSlot = Super ? Super->InstanceSlotCount : 0;
  for (const MemberInfo &F : Cf.Fields) {
    FieldInfo Info;
    Info.Owner = K.get();
    Info.AccessFlags = F.AccessFlags;
    Info.Name = F.Name;
    Info.Descriptor = F.Descriptor;
    Info.ConstantValueIndex = F.ConstantValueIndex;
    if (F.isStatic()) {
      Value Init = defaultForDesc(F.Descriptor);
      // ConstantValue attributes seed static finals before <clinit>.
      if (F.ConstantValueIndex && Cf.Pool.valid(F.ConstantValueIndex)) {
        const CpEntry &E = Cf.Pool.at(F.ConstantValueIndex);
        switch (E.Tag) {
        case CpTag::Integer:
          Init = Value::intVal(E.Int);
          break;
        case CpTag::Float:
          Init = Value::floatVal(E.F);
          break;
        case CpTag::Long:
          Init = Value::longVal(E.LongBits);
          break;
        case CpTag::Double:
          Init = Value::doubleVal(std::bit_cast<double>(E.LongBits));
          break;
        default:
          break; // String constants are materialized by the interpreter.
        }
      }
      K->Statics[F.Name] = Init;
    } else {
      Info.SlotIndex = static_cast<int32_t>(NextSlot);
      NextSlot += 1; // One Value per field (category 2 fits in a Value).
    }
    K->Fields.push_back(std::move(Info));
  }
  K->InstanceSlotCount = NextSlot;

  if (Super)
    K->VTable = Super->VTable;
  for (const MemberInfo &M : Cf.Methods) {
    auto Method_ = std::make_unique<Method>();
    Method_->Owner = K.get();
    Method_->AccessFlags = M.AccessFlags;
    Method_->Name = M.Name;
    Method_->Descriptor = M.Descriptor;
    std::optional<desc::MethodDesc> D = desc::parseMethod(M.Descriptor);
    assert(D && "malformed method descriptor survived parsing");
    Method_->Parsed = std::move(*D);
    Method_->ParamSlots = desc::paramSlots(Method_->Parsed);
    Method_->RetSlots = desc::slotSize(Method_->Parsed.Ret);
    if (M.Code) {
      Method_->Code = *M.Code;
      Method_->HasCode = true;
    }
    addToVTable(*K, *Method_);
    K->Methods.push_back(std::move(Method_));
  }

  K->Cf = std::move(Cf);
  return K;
}
