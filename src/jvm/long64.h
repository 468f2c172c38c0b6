//===- jvm/long64.h - Software 64-bit integers (§8) ---------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JavaScript numbers are IEEE doubles: there is no 64-bit integer type, so
/// "DoppioJVM uses a comprehensive software implementation of 64-bit
/// integers to bring the long data type into the browser, but it is
/// extremely slow when compared to normal numeric operations" (§8). This is
/// that implementation: a long is a pair of 32-bit halves, and every
/// arithmetic operation is built from operations a JS engine could perform
/// (16-bit chunks with manual carries, and division as schoolbook long
/// division over 16-bit digits whose every intermediate stays below 2^32).
/// The DoppioJS execution mode routes all JVM `long` bytecodes through
/// these functions; the NativeHotspot baseline uses hardware int64
/// instead. The virtual clock charges the paper's gLong costs for them
/// (DESIGN.md §8), not the host cost of this code.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_LONG64_H
#define DOPPIO_JVM_LONG64_H

#include <cstdint>

namespace doppio {
namespace jvm {

/// A JVM long as two 32-bit halves, as a JS runtime must represent it.
struct Long64 {
  uint32_t Lo = 0;
  uint32_t Hi = 0;

  static Long64 make(uint32_t Lo, uint32_t Hi) { return {Lo, Hi}; }
  static Long64 fromInt32(int32_t V) {
    return {static_cast<uint32_t>(V), V < 0 ? 0xFFFFFFFFu : 0u};
  }
  static Long64 fromDouble(double V);

  /// Bit-identical bridge to hardware int64 (simulation glue; not part of
  /// the "JS-visible" API).
  static Long64 fromBits(int64_t Bits) {
    return {static_cast<uint32_t>(Bits),
            static_cast<uint32_t>(static_cast<uint64_t>(Bits) >> 32)};
  }
  int64_t bits() const {
    return static_cast<int64_t>(
        (static_cast<uint64_t>(Hi) << 32) | Lo);
  }

  bool isNegative() const { return (Hi & 0x80000000u) != 0; }
  bool isZero() const { return Lo == 0 && Hi == 0; }

  int32_t toInt32() const { return static_cast<int32_t>(Lo); }
  double toDouble() const;
  float toFloat() const { return static_cast<float>(toDouble()); }
};

// Arithmetic, built from 32-bit pieces as the JS implementation must be.
Long64 addLong(Long64 A, Long64 B);
Long64 subLong(Long64 A, Long64 B);
Long64 negLong(Long64 A);
Long64 mulLong(Long64 A, Long64 B);
/// Signed division with JVM semantics (MIN/-1 wraps). \p B must be nonzero
/// — the interpreter throws ArithmeticException before calling.
Long64 divLong(Long64 A, Long64 B);
Long64 remLong(Long64 A, Long64 B);

Long64 andLong(Long64 A, Long64 B);
Long64 orLong(Long64 A, Long64 B);
Long64 xorLong(Long64 A, Long64 B);
/// Shifts mask the count to 6 bits, per the JVM specification.
Long64 shlLong(Long64 A, int32_t Count);
Long64 shrLong(Long64 A, int32_t Count);  // Arithmetic.
Long64 ushrLong(Long64 A, int32_t Count); // Logical.

/// Three-way signed comparison: -1, 0, or 1 (the lcmp bytecode).
int32_t cmpLong(Long64 A, Long64 B);
inline bool eqLong(Long64 A, Long64 B) {
  return A.Lo == B.Lo && A.Hi == B.Hi;
}

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_LONG64_H
