//===- jvm/classfile/reader.cpp - .class file parser ----------------------==//
//
// Parses the binary class-file format (JVM spec 2nd ed., chapter 4). In
// the paper this work happens in JavaScript over Buffer (§6.4): "decoding
// these class file definitions requires functionality that can convert the
// binary representations of various numeric formats and a standard string
// format" — functionality browsers lack and Doppio supplies. Here that is
// browser/wire.h's bounds-checked Reader (DESIGN.md §20): a truncated file
// fails it, and the parser turns that into an EINVAL naming the structure
// it was reading.
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/classfile.h"

#include "browser/wire.h"

#include <bit>

using namespace doppio;
using namespace doppio::jvm;
using rt::ApiError;
using rt::Errno;
using rt::ErrorOr;
namespace wire = browser::wire;

namespace {

/// True if \p Idx names a pool entry tagged \p Tag. Every index the
/// reader resolves goes through this first: the pool accessors assert the
/// tag, so a mistagged index must become an error here.
bool hasTag(const ConstantPool &Pool, uint16_t Idx, CpTag Tag) {
  return Pool.valid(Idx) && Pool.at(Idx).Tag == Tag;
}

/// True if every reference held inside the pool points at an entry of the
/// kind the specification requires (§4.4).
bool poolRefsWellTyped(const ConstantPool &Pool) {
  for (uint16_t I = 1; I < Pool.size(); ++I) {
    const CpEntry &E = Pool.at(I);
    switch (E.Tag) {
    case CpTag::Class:
    case CpTag::String:
      if (!hasTag(Pool, E.Ref1, CpTag::Utf8))
        return false;
      break;
    case CpTag::Fieldref:
    case CpTag::Methodref:
    case CpTag::InterfaceMethodref:
      if (!hasTag(Pool, E.Ref1, CpTag::Class) ||
          !hasTag(Pool, E.Ref2, CpTag::NameAndType))
        return false;
      break;
    case CpTag::NameAndType:
      if (!hasTag(Pool, E.Ref1, CpTag::Utf8) ||
          !hasTag(Pool, E.Ref2, CpTag::Utf8))
        return false;
      break;
    default:
      break;
    }
  }
  return true;
}

ErrorOr<ConstantPool> readPool(wire::Reader &In) {
  ConstantPool Pool;
  uint16_t Count = In.u16();
  for (uint16_t I = 1; I < Count && In.ok(); ++I) {
    CpEntry E;
    E.Tag = static_cast<CpTag>(In.u8());
    switch (E.Tag) {
    case CpTag::Utf8: {
      uint16_t Len = In.u16();
      E.Utf8 = In.str(Len);
      break;
    }
    case CpTag::Integer:
      E.Int = static_cast<int32_t>(In.u32());
      break;
    case CpTag::Float:
      E.F = std::bit_cast<float>(In.u32());
      break;
    case CpTag::Long:
    case CpTag::Double:
      E.LongBits = In.i64();
      break;
    case CpTag::Class:
    case CpTag::String:
      E.Ref1 = In.u16();
      break;
    case CpTag::Fieldref:
    case CpTag::Methodref:
    case CpTag::InterfaceMethodref:
    case CpTag::NameAndType:
      E.Ref1 = In.u16();
      E.Ref2 = In.u16();
      break;
    default:
      return ApiError(Errno::Invalid,
                      "unknown constant pool tag " +
                          std::to_string(static_cast<int>(E.Tag)));
    }
    bool TwoSlots = E.Tag == CpTag::Long || E.Tag == CpTag::Double;
    if (TwoSlots && I + 1 >= Count)
      return ApiError(Errno::Invalid, "8-byte constant in the last pool slot");
    Pool.appendRaw(std::move(E));
    if (TwoSlots) {
      Pool.appendRaw(CpEntry());
      ++I;
    }
  }
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated constant pool");
  if (!poolRefsWellTyped(Pool))
    return ApiError(Errno::Invalid, "constant pool reference to a wrong kind");
  return Pool;
}

ErrorOr<CodeAttr> readCode(wire::Reader &In, const ConstantPool &Pool) {
  CodeAttr Code;
  Code.MaxStack = In.u16();
  Code.MaxLocals = In.u16();
  uint32_t CodeLen = In.u32();
  Code.Bytecode = In.bytes(CodeLen);
  uint16_t HandlerCount = In.u16();
  for (uint16_t I = 0; I != HandlerCount && In.ok(); ++I) {
    ExceptionHandler H;
    H.StartPc = In.u16();
    H.EndPc = In.u16();
    H.HandlerPc = In.u16();
    H.CatchType = In.u16();
    if (In.ok() && H.CatchType != 0 &&
        !hasTag(Pool, H.CatchType, CpTag::Class))
      return ApiError(Errno::Invalid, "bad catch type index");
    Code.Handlers.push_back(H);
  }
  // Sub-attributes (LineNumberTable, ...) are ignored.
  uint16_t AttrCount = In.u16();
  for (uint16_t I = 0; I != AttrCount && In.ok(); ++I) {
    uint16_t AttrName = In.u16();
    uint32_t Len = In.u32();
    if (In.ok() && !hasTag(Pool, AttrName, CpTag::Utf8))
      return ApiError(Errno::Invalid, "bad attribute name index");
    In.skip(Len);
  }
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated Code attribute");
  return Code;
}

ErrorOr<MemberInfo> readMember(wire::Reader &In, const ConstantPool &Pool,
                               bool IsMethod) {
  MemberInfo M;
  M.AccessFlags = In.u16();
  uint16_t NameIdx = In.u16();
  uint16_t DescIdx = In.u16();
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated member info");
  if (!hasTag(Pool, NameIdx, CpTag::Utf8) ||
      !hasTag(Pool, DescIdx, CpTag::Utf8))
    return ApiError(Errno::Invalid, "bad member name or descriptor index");
  M.Name = Pool.utf8(NameIdx);
  M.Descriptor = Pool.utf8(DescIdx);
  uint16_t AttrCount = In.u16();
  for (uint16_t I = 0; I != AttrCount && In.ok(); ++I) {
    uint16_t AttrName = In.u16();
    uint32_t Len = In.u32();
    if (!In.ok())
      break;
    if (!hasTag(Pool, AttrName, CpTag::Utf8))
      return ApiError(Errno::Invalid, "bad attribute name index");
    const std::string &Name = Pool.utf8(AttrName);
    if (IsMethod && Name == "Code") {
      ErrorOr<CodeAttr> Code = readCode(In, Pool);
      if (!Code)
        return Code.error();
      M.Code = std::move(*Code);
      continue;
    }
    if (!IsMethod && Name == "ConstantValue" && Len == 2) {
      M.ConstantValueIndex = In.u16();
      continue;
    }
    In.skip(Len);
  }
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated member attributes");
  return M;
}

} // namespace

ErrorOr<ClassFile> jvm::readClassFile(const std::vector<uint8_t> &Bytes) {
  wire::Reader In(Bytes);
  if (In.u32() != 0xCAFEBABE)
    return ApiError(Errno::Invalid, "bad magic (not a class file)");
  ClassFile Cf;
  Cf.MinorVersion = In.u16();
  Cf.MajorVersion = In.u16();
  ErrorOr<ConstantPool> Pool = readPool(In);
  if (!Pool)
    return Pool.error();
  Cf.Pool = std::move(*Pool);
  Cf.AccessFlags = In.u16();
  uint16_t ThisIdx = In.u16();
  uint16_t SuperIdx = In.u16();
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated class header");
  if (!hasTag(Cf.Pool, ThisIdx, CpTag::Class))
    return ApiError(Errno::Invalid, "bad this_class index");
  Cf.ThisClass = Cf.Pool.className(ThisIdx);
  if (SuperIdx != 0) {
    if (!hasTag(Cf.Pool, SuperIdx, CpTag::Class))
      return ApiError(Errno::Invalid, "bad superclass index");
    Cf.SuperClass = Cf.Pool.className(SuperIdx);
  }
  uint16_t IfaceCount = In.u16();
  for (uint16_t I = 0; I != IfaceCount && In.ok(); ++I) {
    uint16_t Idx = In.u16();
    if (!In.ok())
      break;
    if (!hasTag(Cf.Pool, Idx, CpTag::Class))
      return ApiError(Errno::Invalid, "bad interface index");
    Cf.Interfaces.push_back(Cf.Pool.className(Idx));
  }
  uint16_t FieldCount = In.u16();
  for (uint16_t I = 0; I != FieldCount && In.ok(); ++I) {
    ErrorOr<MemberInfo> M = readMember(In, Cf.Pool, /*IsMethod=*/false);
    if (!M)
      return M.error();
    Cf.Fields.push_back(std::move(*M));
  }
  uint16_t MethodCount = In.u16();
  for (uint16_t I = 0; I != MethodCount && In.ok(); ++I) {
    ErrorOr<MemberInfo> M = readMember(In, Cf.Pool, /*IsMethod=*/true);
    if (!M)
      return M.error();
    Cf.Methods.push_back(std::move(*M));
  }
  uint16_t AttrCount = In.u16();
  for (uint16_t I = 0; I != AttrCount && In.ok(); ++I) {
    uint16_t AttrName = In.u16();
    uint32_t Len = In.u32();
    if (!In.ok())
      break;
    if (!hasTag(Cf.Pool, AttrName, CpTag::Utf8))
      return ApiError(Errno::Invalid, "bad attribute name index");
    if (Cf.Pool.utf8(AttrName) == "SourceFile" && Len == 2) {
      uint16_t SrcIdx = In.u16();
      if (!In.ok())
        break;
      if (!hasTag(Cf.Pool, SrcIdx, CpTag::Utf8))
        return ApiError(Errno::Invalid, "bad SourceFile index");
      Cf.SourceFile = Cf.Pool.utf8(SrcIdx);
      continue;
    }
    In.skip(Len);
  }
  if (!In.ok())
    return ApiError(Errno::Invalid, "truncated class file");
  return Cf;
}
