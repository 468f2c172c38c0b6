//===- jvm/jsnumber.h - JS double-based int32 semantics -----------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In JavaScript every number is an IEEE double; JVM int arithmetic must be
/// emulated with double arithmetic plus the ToInt32 wrap (the `|0` idiom).
/// The DoppioJS execution mode routes all int bytecodes through these
/// helpers, mirroring what the JavaScript interpreter performs; the
/// NativeHotspot mode uses hardware int32 directly. ToInt32 takes the
/// integer fast path a JS engine takes for in-range values (see toInt32),
/// and mulInt32 reduces its cross term with a mask, so no int add,
/// subtract or multiply reaches libm.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_JSNUMBER_H
#define DOPPIO_JVM_JSNUMBER_H

#include <cmath>
#include <cstdint>

namespace doppio {
namespace jvm {
namespace jsnum {

/// ECMAScript ToInt32 of a double. Below 2^63 in magnitude the int64
/// conversion truncates exactly and the uint32 narrowing is the modulo
/// 2^32, so that is the whole computation (V8's DoubleToInt32 fast path)
/// and the int arithmetic never reaches libm. Larger magnitudes, NaN and
/// the infinities take the specification's trunc-then-modulo steps. Both
/// give the same result for every double.
inline int32_t toInt32(double V) {
  if (std::fabs(V) < 9223372036854775808.0)
    return static_cast<int32_t>(
        static_cast<uint32_t>(static_cast<int64_t>(V)));
  if (std::isnan(V) || std::isinf(V))
    return 0;
  double Truncated = std::trunc(V);
  // Modulo 2^32 into the signed range.
  double Wrapped = std::fmod(Truncated, 4294967296.0);
  if (Wrapped < 0)
    Wrapped += 4294967296.0;
  uint32_t U = static_cast<uint32_t>(Wrapped);
  return static_cast<int32_t>(U);
}

/// i + j, as `(i + j) | 0`.
inline int32_t addInt32(int32_t A, int32_t B) {
  return toInt32(static_cast<double>(A) + static_cast<double>(B));
}

inline int32_t subInt32(int32_t A, int32_t B) {
  return toInt32(static_cast<double>(A) - static_cast<double>(B));
}

/// i * j. A plain double product loses low bits beyond 2^53, so JS code
/// multiplies 16-bit halves separately (the Math.imul polyfill).
inline int32_t mulInt32(int32_t A, int32_t B) {
  uint32_t UA = static_cast<uint32_t>(A), UB = static_cast<uint32_t>(B);
  double AHi = static_cast<double>(UA >> 16);
  double ALo = static_cast<double>(UA & 0xFFFF);
  double BHi = static_cast<double>(UB >> 16);
  double BLo = static_cast<double>(UB & 0xFFFF);
  // (AHi*BLo + ALo*BHi) << 16 + ALo*BLo, all mod 2^32. Cross is an exact
  // non-negative integer below 2^33, so its low 16 bits are its value
  // mod 2^16: the polyfill's `<< 16` drops the rest, and so does the mask.
  double Cross = AHi * BLo + ALo * BHi;
  double CrossShifted =
      static_cast<double>(static_cast<uint64_t>(Cross) & 0xFFFF) * 65536.0;
  return toInt32(CrossShifted + ALo * BLo);
}

/// i / j with JVM truncation. The caller guards against division by zero.
inline int32_t divInt32(int32_t A, int32_t B) {
  return toInt32(std::trunc(static_cast<double>(A) /
                            static_cast<double>(B)));
}

/// i % j with JVM (truncated) semantics, matching JS's % operator.
inline int32_t remInt32(int32_t A, int32_t B) {
  return toInt32(std::fmod(static_cast<double>(A),
                           static_cast<double>(B)));
}

inline int32_t negInt32(int32_t A) {
  return toInt32(-static_cast<double>(A));
}

// Bit operations exist natively in JS (they implicitly ToInt32).
inline int32_t shlInt32(int32_t A, int32_t Count) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) << (Count & 31));
}
inline int32_t shrInt32(int32_t A, int32_t Count) { return A >> (Count & 31); }
inline int32_t ushrInt32(int32_t A, int32_t Count) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) >> (Count & 31));
}

/// (int) of a double/float, with the JVM's NaN->0 and clamping rules —
/// which JS must implement explicitly since ToInt32 wraps instead.
inline int32_t doubleToInt(double V) {
  if (std::isnan(V))
    return 0;
  if (V >= 2147483647.0)
    return 2147483647;
  if (V <= -2147483648.0)
    return -2147483648;
  return static_cast<int32_t>(std::trunc(V));
}

} // namespace jsnum
} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_JSNUMBER_H
