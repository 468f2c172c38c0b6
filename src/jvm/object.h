//===- jvm/object.h - JVM objects and arrays (§6.7) ---------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "DoppioJVM maps JVM objects to JavaScript objects, where each object
/// contains a reference to its class and a dictionary that contains all of
/// its fields keyed on their names. JVM arrays ... are mapped to a
/// JavaScript object that contains an array of values and a reference to
/// the special array class" (§6.7). Here both execution modes keep an
/// object's fields in slots laid out by its class, as V8's hidden classes
/// did for DoppioJVM's objects: a name resolves to its slot through the
/// object's class, so the dictionary's semantics hold (a redeclared name
/// is one field, an unwritten field reads as its default and stays
/// unwritten), and the virtual cost model still charges DoppioJS field
/// access at the dictionary's price (DESIGN.md §2).
///
/// Every object can lazily grow a monitor (owner, entry count, entry set,
/// wait set) for synchronized blocks and Object.wait/notify (§6.2).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_OBJECT_H
#define DOPPIO_JVM_OBJECT_H

#include "jvm/value.h"

#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

class Klass;

/// Monitor state attached lazily to objects used for locking.
struct Monitor {
  /// Owning thread id, -1 when free.
  int32_t OwnerTid = -1;
  int32_t EntryCount = 0;
  /// Threads blocked trying to enter.
  std::vector<int32_t> EntrySet;
  /// Threads parked in Object.wait.
  std::vector<int32_t> WaitSet;
};

/// A JVM object instance: its class and one Value slot per instance field
/// along the class chain, laid out by FieldInfo::SlotIndex.
class Object {
public:
  Object(Klass *K, uint32_t SlotCount) : K(K), Slots(SlotCount) {}
  virtual ~Object();

  Klass *klass() const { return K; }

  /// Slot access. A slot whose Kind is Empty was never written; readers
  /// substitute the field descriptor's default without writing it.
  Value getSlot(uint32_t Index) const { return Slots[Index]; }
  void setSlot(uint32_t Index, Value V) { Slots[Index] = V; }

  /// Name-based access for natives, the VM and checkpoint restore: the
  /// slot the object's class resolves \p Name to (Klass::findField).
  /// field() reads an unwritten or undeclared field as Empty, whose
  /// payload is zero and null; setField() writes nothing, and returns
  /// false, when the class declares no instance field \p Name.
  Value field(const std::string &Name) const;
  bool setField(const std::string &Name, Value V);

  /// The object's monitor, created on first use.
  Monitor &monitor() {
    if (!Mon)
      Mon = std::make_unique<Monitor>();
    return *Mon;
  }
  bool hasMonitor() const { return Mon != nullptr; }
  const Monitor *monitorIfAny() const { return Mon.get(); }

  /// The whole slot vector, for the checkpoint serializer (DESIGN.md §16).
  const std::vector<Value> &slotStorage() const { return Slots; }
  std::vector<Value> &slotStorage() { return Slots; }

  virtual bool isArray() const { return false; }

private:
  Klass *K;
  std::vector<Value> Slots;
  std::unique_ptr<Monitor> Mon;
};

/// A JVM array: element storage plus the array class reference (§6.7).
/// The element descriptor is the array class's (Klass::ElemDesc).
class ArrayObject : public Object {
public:
  ArrayObject(Klass *ArrayKlass, int32_t Length);

  bool isArray() const override { return true; }

  int32_t length() const { return static_cast<int32_t>(Elems.size()); }
  Value get(int32_t Index) const { return Elems[Index]; }
  void set(int32_t Index, Value V) { Elems[Index] = V; }
  /// Defined in klass.h, which completes Klass.
  inline const std::string &elemDesc() const;
  std::vector<Value> &elems() { return Elems; }

  /// Zero/null of the element type.
  static Value defaultElement(const std::string &Desc);

private:
  std::vector<Value> Elems;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_OBJECT_H
