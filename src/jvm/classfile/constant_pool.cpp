//===- jvm/classfile/constant_pool.cpp ------------------------------------==//

#include "jvm/classfile/constant_pool.h"

#include <bit>
#include <cassert>

using namespace doppio;
using namespace doppio::jvm;

const std::string &ConstantPool::utf8(uint16_t Index) const {
  const CpEntry &E = at(Index);
  assert(E.Tag == CpTag::Utf8 && "expected Utf8 constant");
  return E.Utf8;
}

const std::string &ConstantPool::className(uint16_t Index) const {
  const CpEntry &E = at(Index);
  assert(E.Tag == CpTag::Class && "expected Class constant");
  return utf8(E.Ref1);
}

const std::string &ConstantPool::stringValue(uint16_t Index) const {
  const CpEntry &E = at(Index);
  assert(E.Tag == CpTag::String && "expected String constant");
  return utf8(E.Ref1);
}

ConstantPool::MemberRef ConstantPool::memberRef(uint16_t Index) const {
  const CpEntry &E = at(Index);
  assert((E.Tag == CpTag::Fieldref || E.Tag == CpTag::Methodref ||
          E.Tag == CpTag::InterfaceMethodref) &&
         "expected a member reference constant");
  const CpEntry &NT = at(E.Ref2);
  assert(NT.Tag == CpTag::NameAndType && "bad member reference");
  return {className(E.Ref1), utf8(NT.Ref1), utf8(NT.Ref2)};
}

uint16_t ConstantPool::appendRaw(CpEntry Entry) {
  assert(Entries.size() < 0xFFFF && "constant pool overflow");
  Entries.push_back(std::move(Entry));
  return static_cast<uint16_t>(Entries.size() - 1);
}

std::string ConstantPool::keyOf(const CpEntry &E) const {
  switch (E.Tag) {
  case CpTag::Utf8:
    return "u:" + E.Utf8;
  case CpTag::Integer:
    return "i:" + std::to_string(E.Int);
  case CpTag::Float:
    return "f:" + std::to_string(std::bit_cast<uint32_t>(E.F));
  case CpTag::Long:
    return "j:" + std::to_string(E.LongBits);
  case CpTag::Double:
    return "d:" + std::to_string(E.LongBits);
  case CpTag::Class:
    return "c:" + utf8(E.Ref1);
  case CpTag::String:
    return "s:" + utf8(E.Ref1);
  case CpTag::NameAndType:
    return "nt:" + utf8(E.Ref1) + ":" + utf8(E.Ref2);
  case CpTag::Fieldref:
  case CpTag::Methodref:
  case CpTag::InterfaceMethodref: {
    const CpEntry &NT = at(E.Ref2);
    std::string Prefix = E.Tag == CpTag::Fieldref    ? "fr:"
                         : E.Tag == CpTag::Methodref ? "mr:"
                                                     : "ir:";
    return Prefix + className(E.Ref1) + "." + utf8(NT.Ref1) + ":" +
           utf8(NT.Ref2);
  }
  default:
    assert(false && "no interning key for this tag");
    return std::string();
  }
}

uint16_t ConstantPool::intern(CpEntry Entry) {
  // Entries appended raw (a parsed pool) join the index first, so an
  // existing entry wins over a new copy, the first of duplicates winning.
  for (; Indexed < size(); ++Indexed)
    if (Entries[Indexed].Tag != CpTag::Invalid)
      InternTable.emplace(keyOf(Entries[Indexed]), Indexed);
  std::string Key = keyOf(Entry);
  auto It = InternTable.find(Key);
  if (It != InternTable.end())
    return It->second;
  bool TwoSlots = Entry.Tag == CpTag::Long || Entry.Tag == CpTag::Double;
  uint16_t Index = appendRaw(std::move(Entry));
  if (TwoSlots)
    appendRaw(CpEntry()); // Longs and doubles take two slots.
  InternTable.emplace(std::move(Key), Index);
  Indexed = size();
  return Index;
}

uint16_t ConstantPool::addUtf8(const std::string &Text) {
  CpEntry E;
  E.Tag = CpTag::Utf8;
  E.Utf8 = Text;
  return intern(std::move(E));
}

uint16_t ConstantPool::addInteger(int32_t V) {
  CpEntry E;
  E.Tag = CpTag::Integer;
  E.Int = V;
  return intern(std::move(E));
}

uint16_t ConstantPool::addFloat(float V) {
  CpEntry E;
  E.Tag = CpTag::Float;
  E.F = V;
  return intern(std::move(E));
}

uint16_t ConstantPool::addLong(int64_t Bits) {
  CpEntry E;
  E.Tag = CpTag::Long;
  E.LongBits = Bits;
  return intern(std::move(E));
}

uint16_t ConstantPool::addDouble(double V) {
  CpEntry E;
  E.Tag = CpTag::Double;
  E.LongBits = std::bit_cast<int64_t>(V);
  return intern(std::move(E));
}

uint16_t ConstantPool::addClass(const std::string &Name) {
  CpEntry E;
  E.Tag = CpTag::Class;
  E.Ref1 = addUtf8(Name);
  return intern(std::move(E));
}

uint16_t ConstantPool::addString(const std::string &Text) {
  CpEntry E;
  E.Tag = CpTag::String;
  E.Ref1 = addUtf8(Text);
  return intern(std::move(E));
}

uint16_t ConstantPool::addNameAndType(const std::string &Name,
                                      const std::string &Descriptor) {
  CpEntry E;
  E.Tag = CpTag::NameAndType;
  E.Ref1 = addUtf8(Name);
  E.Ref2 = addUtf8(Descriptor);
  return intern(std::move(E));
}

uint16_t ConstantPool::addRef(CpTag Tag, const std::string &ClassName,
                              const std::string &Name,
                              const std::string &Descriptor) {
  CpEntry E;
  E.Tag = Tag;
  E.Ref1 = addClass(ClassName);
  E.Ref2 = addNameAndType(Name, Descriptor);
  return intern(std::move(E));
}

uint16_t ConstantPool::addFieldref(const std::string &ClassName,
                                   const std::string &Name,
                                   const std::string &Descriptor) {
  return addRef(CpTag::Fieldref, ClassName, Name, Descriptor);
}

uint16_t ConstantPool::addMethodref(const std::string &ClassName,
                                    const std::string &Name,
                                    const std::string &Descriptor) {
  return addRef(CpTag::Methodref, ClassName, Name, Descriptor);
}

uint16_t ConstantPool::addInterfaceMethodref(const std::string &ClassName,
                                             const std::string &Name,
                                             const std::string &Descriptor) {
  return addRef(CpTag::InterfaceMethodref, ClassName, Name, Descriptor);
}
