//===- jvm/value.h - JVM runtime values & execution modes --------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values for the interpreter, plus the execution-mode switch that
/// distinguishes the two systems the paper compares:
///
///  - DoppioJS: the paper's system. Values behave as they must on a
///    JavaScript engine — ints are doubles wrapped with ToInt32, longs go
///    through the software Long64 implementation, field access is priced
///    as a name-keyed dictionary lookup (§6.7), and execution is segmented
///    with suspend checks at call boundaries (§6.1).
///
///  - NativeHotspot: the baseline stand-in for "Oracle's HotSpot JVM
///    interpreter" (§7.1) — the same interpreter core with hardware int32/
///    int64 arithmetic, native-speed costs, and no browser.
///
/// Both modes keep an object's fields in the same class-laid-out slots
/// (object.h).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_VALUE_H
#define DOPPIO_JVM_VALUE_H

#include "jvm/long64.h"

#include <cstdint>

namespace doppio {
namespace jvm {

enum class ExecutionMode {
  DoppioJS,
  NativeHotspot,
};

inline const char *executionModeName(ExecutionMode M) {
  return M == ExecutionMode::DoppioJS ? "doppiojs" : "nativehotspot";
}

class Object;

/// One operand-stack or local-variable slot. Category-2 values (long,
/// double) occupy a single Value here plus a padding slot where the spec
/// requires two slots.
struct Value {
  enum class Kind : uint8_t {
    Empty, // Unset local / category-2 padding.
    Int,
    Long,
    Float,
    Double,
    Ref,
    RetAddr, // jsr return address.
  };

  Kind K = Kind::Empty;
  union {
    int32_t I;
    int64_t J; // Long bit pattern; DoppioJS mode views it as Long64 halves.
    float F;
    double D;
    Object *R;
    uint32_t Ret;
  };

  Value() : J(0) {}

  static Value intVal(int32_t V) {
    Value X;
    X.K = Kind::Int;
    X.I = V;
    return X;
  }
  static Value longVal(int64_t Bits) {
    Value X;
    X.K = Kind::Long;
    X.J = Bits;
    return X;
  }
  static Value longVal(Long64 L) { return longVal(L.bits()); }
  static Value floatVal(float V) {
    Value X;
    X.K = Kind::Float;
    X.F = V;
    return X;
  }
  static Value doubleVal(double V) {
    Value X;
    X.K = Kind::Double;
    X.D = V;
    return X;
  }
  static Value ref(Object *O) {
    Value X;
    X.K = Kind::Ref;
    X.R = O;
    return X;
  }
  static Value null() { return ref(nullptr); }
  static Value retAddr(uint32_t Pc) {
    Value X;
    X.K = Kind::RetAddr;
    X.Ret = Pc;
    return X;
  }

  bool isCategory2() const { return K == Kind::Long || K == Kind::Double; }
  Long64 asLong64() const { return Long64::fromBits(J); }
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_VALUE_H
