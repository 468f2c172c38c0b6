//===- jvm/classfile/writer.cpp - .class file serializer ------------------==//
//
// Serializes the in-memory ClassFile model back into the binary format.
// Together with the reader this gives a full round trip, which the
// assembler uses: synthesized workload classes are written to bytes,
// published on the simulated web server, and downloaded and re-parsed by
// the class loader exactly like real class files (§6.4).
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/classfile.h"

#include "browser/wire.h"

#include <bit>
#include <cassert>

using namespace doppio;
using namespace doppio::jvm;
namespace wire = doppio::browser::wire;

namespace {

void emitPool(wire::Writer &E, const ConstantPool &Pool) {
  E.u16(Pool.size());
  for (uint16_t I = 1; I < Pool.size(); ++I) {
    const CpEntry &Entry = Pool.at(I);
    if (Entry.Tag == CpTag::Invalid)
      continue; // Second slot of a long/double.
    E.u8(static_cast<uint8_t>(Entry.Tag));
    switch (Entry.Tag) {
    case CpTag::Utf8:
      E.u16(static_cast<uint16_t>(Entry.Utf8.size()));
      E.raw(Entry.Utf8);
      break;
    case CpTag::Integer:
      E.u32(static_cast<uint32_t>(Entry.Int));
      break;
    case CpTag::Float:
      E.u32(std::bit_cast<uint32_t>(Entry.F));
      break;
    case CpTag::Long:
    case CpTag::Double:
      E.i64(Entry.LongBits);
      break;
    case CpTag::Class:
    case CpTag::String:
      E.u16(Entry.Ref1);
      break;
    case CpTag::Fieldref:
    case CpTag::Methodref:
    case CpTag::InterfaceMethodref:
    case CpTag::NameAndType:
      E.u16(Entry.Ref1);
      E.u16(Entry.Ref2);
      break;
    case CpTag::Invalid:
      break;
    }
  }
}

void emitMember(wire::Writer &E, ConstantPool &Pool, const MemberInfo &M) {
  E.u16(M.AccessFlags);
  E.u16(Pool.addUtf8(M.Name));
  E.u16(Pool.addUtf8(M.Descriptor));
  uint16_t AttrCount = 0;
  if (M.Code)
    ++AttrCount;
  if (M.ConstantValueIndex)
    ++AttrCount;
  E.u16(AttrCount);
  if (M.Code) {
    E.u16(Pool.addUtf8("Code"));
    uint32_t Len = 2 + 2 + 4 + static_cast<uint32_t>(M.Code->Bytecode.size()) +
                   2 + 8 * static_cast<uint32_t>(M.Code->Handlers.size()) + 2;
    E.u32(Len);
    E.u16(M.Code->MaxStack);
    E.u16(M.Code->MaxLocals);
    E.u32(static_cast<uint32_t>(M.Code->Bytecode.size()));
    E.raw(M.Code->Bytecode);
    E.u16(static_cast<uint16_t>(M.Code->Handlers.size()));
    for (const ExceptionHandler &H : M.Code->Handlers) {
      E.u16(H.StartPc);
      E.u16(H.EndPc);
      E.u16(H.HandlerPc);
      E.u16(H.CatchType);
    }
    E.u16(0); // No sub-attributes.
  }
  if (M.ConstantValueIndex) {
    E.u16(Pool.addUtf8("ConstantValue"));
    E.u32(2);
    E.u16(M.ConstantValueIndex);
  }
}

} // namespace

std::vector<uint8_t> jvm::writeClassFile(const ClassFile &Cf) {
  // The pool may grow while emitting members (attribute name strings), so
  // work on a copy and emit the pool last, into a separate buffer.
  ClassFile Copy = Cf;
  ConstantPool &Pool = Copy.Pool;

  // Pre-intern everything the header needs.
  uint16_t ThisIdx = Pool.addClass(Copy.ThisClass);
  uint16_t SuperIdx =
      Copy.SuperClass.empty() ? 0 : Pool.addClass(Copy.SuperClass);
  std::vector<uint16_t> IfaceIdx;
  for (const std::string &Iface : Copy.Interfaces)
    IfaceIdx.push_back(Pool.addClass(Iface));

  wire::Writer Body;
  Body.u16(Copy.AccessFlags);
  Body.u16(ThisIdx);
  Body.u16(SuperIdx);
  Body.u16(static_cast<uint16_t>(IfaceIdx.size()));
  for (uint16_t Idx : IfaceIdx)
    Body.u16(Idx);
  Body.u16(static_cast<uint16_t>(Copy.Fields.size()));
  for (const MemberInfo &F : Copy.Fields)
    emitMember(Body, Pool, F);
  Body.u16(static_cast<uint16_t>(Copy.Methods.size()));
  for (const MemberInfo &M : Copy.Methods)
    emitMember(Body, Pool, M);
  if (!Copy.SourceFile.empty()) {
    Body.u16(1);
    Body.u16(Pool.addUtf8("SourceFile"));
    Body.u32(2);
    Body.u16(Pool.addUtf8(Copy.SourceFile));
  } else {
    Body.u16(0);
  }

  wire::Writer Out;
  Out.u32(0xCAFEBABE);
  Out.u16(Copy.MinorVersion);
  Out.u16(Copy.MajorVersion);
  emitPool(Out, Pool);
  Out.raw(Body.take());
  return Out.take();
}
