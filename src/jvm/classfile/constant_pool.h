//===- jvm/classfile/constant_pool.h - Class-file constant pool --*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The class-file constant pool (JVM spec 2nd ed., §4.4), shared between
/// the reader (parsing class files downloaded through the Doppio file
/// system, paper §6.4) and the assembler that synthesizes the workload and
/// class-library classes.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSFILE_CONSTANT_POOL_H
#define DOPPIO_JVM_CLASSFILE_CONSTANT_POOL_H

#include "jvm/long64.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

enum class CpTag : uint8_t {
  Invalid = 0,
  Utf8 = 1,
  Integer = 3,
  Float = 4,
  Long = 5,
  Double = 6,
  Class = 7,
  String = 8,
  Fieldref = 9,
  Methodref = 10,
  InterfaceMethodref = 11,
  NameAndType = 12,
};

/// One constant pool slot. Long/Double entries occupy two slots (the
/// second is a placeholder with tag Invalid), per the specification's
/// famous design wart.
struct CpEntry {
  CpTag Tag = CpTag::Invalid;
  std::string Utf8;    // Utf8.
  int32_t Int = 0;     // Integer.
  float F = 0;         // Float.
  int64_t LongBits = 0; // Long (bit pattern) or Double (IEEE bits).
  uint16_t Ref1 = 0;   // Class.name / String.utf8 / ref.class / NT.name.
  uint16_t Ref2 = 0;   // ref.name_and_type / NT.descriptor.
};

/// The pool: 1-based indexing, with interning helpers for the assembler.
class ConstantPool {
public:
  ConstantPool() : Entries(1) {} // Slot 0 is unusable by design.

  uint16_t size() const { return static_cast<uint16_t>(Entries.size()); }
  const CpEntry &at(uint16_t Index) const { return Entries.at(Index); }
  bool valid(uint16_t Index) const {
    return Index > 0 && Index < Entries.size();
  }

  // Resolution helpers used by the linker and disassembler.
  const std::string &utf8(uint16_t Index) const;
  /// Class entry -> its internal name ("java/lang/Object").
  const std::string &className(uint16_t Index) const;
  /// String entry -> its character data.
  const std::string &stringValue(uint16_t Index) const;
  /// Field/Method/InterfaceMethod ref -> (class, name, descriptor).
  struct MemberRef {
    std::string ClassName;
    std::string Name;
    std::string Descriptor;
  };
  MemberRef memberRef(uint16_t Index) const;

  // Interning (assembler side). All return the entry index.
  uint16_t addUtf8(const std::string &Text);
  uint16_t addInteger(int32_t V);
  uint16_t addFloat(float V);
  uint16_t addLong(int64_t Bits);
  uint16_t addDouble(double V);
  uint16_t addClass(const std::string &Name);
  uint16_t addString(const std::string &Text);
  uint16_t addNameAndType(const std::string &Name,
                          const std::string &Descriptor);
  uint16_t addFieldref(const std::string &ClassName, const std::string &Name,
                       const std::string &Descriptor);
  uint16_t addMethodref(const std::string &ClassName,
                        const std::string &Name,
                        const std::string &Descriptor);
  uint16_t addInterfaceMethodref(const std::string &ClassName,
                                 const std::string &Name,
                                 const std::string &Descriptor);

  /// Raw append used by the reader: no interning, and no index cost at
  /// load. The next add* indexes the raw entries first (the first of
  /// duplicate keys winning), so re-writing a parsed pool reuses its
  /// entries; by then every reference must point at an entry of the
  /// right kind, as the reader checks.
  uint16_t appendRaw(CpEntry Entry);

private:
  uint16_t addRef(CpTag Tag, const std::string &ClassName,
                  const std::string &Name, const std::string &Descriptor);
  /// The interning key of \p E; its references must be well-typed.
  std::string keyOf(const CpEntry &E) const;
  uint16_t intern(CpEntry Entry);

  std::vector<CpEntry> Entries;
  std::map<std::string, uint16_t> InternTable;
  /// Entries below this index are in InternTable (slot 0 never is).
  uint16_t Indexed = 1;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSFILE_CONSTANT_POOL_H
