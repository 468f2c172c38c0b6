//===- jvm/classfile/descriptor.h - Type descriptors --------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field and method descriptor parsing (JVM spec 2nd ed., §4.3): "(I[JLjava/
/// lang/String;)V" and friends, used by the linker, the interpreter's
/// invoke sequence, and the assembler's max-stack computation.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSFILE_DESCRIPTOR_H
#define DOPPIO_JVM_CLASSFILE_DESCRIPTOR_H

#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {
namespace desc {

/// A parsed method descriptor.
struct MethodDesc {
  std::vector<std::string> Params; // Each a field descriptor.
  std::string Ret;                 // Field descriptor or "V".
};

/// Parses "(<params>)<ret>"; nullopt on malformed input.
std::optional<MethodDesc> parseMethod(const std::string &Descriptor);

/// Stack/local slots one value of \p FieldDesc occupies: 2 for J and D,
/// 0 for V, 1 otherwise.
int slotSize(const std::string &FieldDesc);

/// Total argument slots of \p D (not counting the receiver).
int paramSlots(const MethodDesc &D);

/// True if \p S is exactly one well-formed field descriptor ("I",
/// "Ljava/lang/String;", "[[J"); false for "", "XYZ", "LFoo" and "V".
bool isField(const std::string &S);

/// True for "[..." descriptors.
inline bool isArray(const std::string &FieldDesc) {
  return !FieldDesc.empty() && FieldDesc[0] == '[';
}

/// True for "L...;" and "[..." descriptors.
inline bool isReference(const std::string &FieldDesc) {
  return !FieldDesc.empty() &&
         (FieldDesc[0] == 'L' || FieldDesc[0] == '[');
}

/// "Ljava/lang/String;" -> "java/lang/String"; arrays return themselves
/// (array "class names" are descriptors, per the spec).
std::string toClassName(const std::string &FieldDesc);

/// Inverse of toClassName for non-array classes.
inline std::string toFieldDesc(const std::string &ClassName) {
  if (!ClassName.empty() && ClassName[0] == '[')
    return ClassName;
  return "L" + ClassName + ";";
}

} // namespace desc
} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSFILE_DESCRIPTOR_H
