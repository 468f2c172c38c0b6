//===- jvm/classfile/descriptor.cpp ---------------------------------------==//

#include "jvm/classfile/descriptor.h"

using namespace doppio;
using namespace doppio::jvm;

/// Consumes one field descriptor starting at \p Pos; empty on error.
static std::string consumeField(const std::string &S, size_t &Pos) {
  size_t Start = Pos;
  while (Pos < S.size() && S[Pos] == '[')
    ++Pos;
  if (Pos >= S.size())
    return "";
  char C = S[Pos];
  switch (C) {
  case 'B':
  case 'C':
  case 'D':
  case 'F':
  case 'I':
  case 'J':
  case 'S':
  case 'Z':
    ++Pos;
    return S.substr(Start, Pos - Start);
  case 'L': {
    size_t Semi = S.find(';', Pos);
    if (Semi == std::string::npos || Semi == Pos + 1)
      return ""; // No ';', or an empty class name.
    Pos = Semi + 1;
    return S.substr(Start, Pos - Start);
  }
  default:
    return "";
  }
}

std::optional<desc::MethodDesc>
desc::parseMethod(const std::string &Descriptor) {
  if (Descriptor.empty() || Descriptor[0] != '(')
    return std::nullopt;
  MethodDesc D;
  size_t Pos = 1;
  while (Pos < Descriptor.size() && Descriptor[Pos] != ')') {
    std::string Param = consumeField(Descriptor, Pos);
    if (Param.empty())
      return std::nullopt;
    D.Params.push_back(std::move(Param));
  }
  if (Pos >= Descriptor.size() || Descriptor[Pos] != ')')
    return std::nullopt;
  ++Pos;
  if (Pos < Descriptor.size() && Descriptor[Pos] == 'V' &&
      Pos + 1 == Descriptor.size()) {
    D.Ret = "V";
    return D;
  }
  std::string Ret = consumeField(Descriptor, Pos);
  if (Ret.empty() || Pos != Descriptor.size())
    return std::nullopt;
  D.Ret = std::move(Ret);
  return D;
}

bool desc::isField(const std::string &S) {
  size_t Pos = 0;
  return !consumeField(S, Pos).empty() && Pos == S.size();
}

int desc::slotSize(const std::string &FieldDesc) {
  if (FieldDesc == "V")
    return 0;
  if (FieldDesc == "J" || FieldDesc == "D")
    return 2;
  return 1;
}

int desc::paramSlots(const MethodDesc &D) {
  int Slots = 0;
  for (const std::string &P : D.Params)
    Slots += slotSize(P);
  return Slots;
}

std::string desc::toClassName(const std::string &FieldDesc) {
  if (FieldDesc.size() >= 2 && FieldDesc.front() == 'L' &&
      FieldDesc.back() == ';')
    return FieldDesc.substr(1, FieldDesc.size() - 2);
  return FieldDesc;
}
