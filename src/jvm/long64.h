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
/// Word fast paths keep small operands cheap and stay JS-expressible,
/// because every intermediate they form is an integer below 2^53, which a
/// double holds exactly:
/// - division, when both operands are non-negative and below 2^32, is one
///   word division. For n, d < 2^32, floor(n / d) computed in doubles is
///   exact: the rounding error of n / d is below n / d * 2^-53 < 1 / d,
///   the least distance from a non-integral n / d to the next integer.
/// - multiplication, when both operands are non-negative single words and
///   one is below 2^21, is one word product, below 2^32 * 2^21 = 2^53.
/// Every other case takes the digit-wise path.
///
/// Layout: add, sub, neg, the bitwise ops, shifts, compare and the word
/// paths for non-negative operands are inline, so the interpreter's long
/// handlers compile them in place. The digit-wise product, signed division
/// (negative operands and every multi-digit case) and the double
/// conversions stay out of line in long64.cpp, which keeps the handlers
/// small for the rest of the dispatch loop.
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

inline Long64 addLong(Long64 A, Long64 B) {
  // 16-bit chunk addition with explicit carries (all values stay far below
  // 2^53, so a JS double computes each chunk exactly).
  uint32_t A0 = A.Lo & 0xFFFF, A1 = A.Lo >> 16;
  uint32_t A2 = A.Hi & 0xFFFF, A3 = A.Hi >> 16;
  uint32_t B0 = B.Lo & 0xFFFF, B1 = B.Lo >> 16;
  uint32_t B2 = B.Hi & 0xFFFF, B3 = B.Hi >> 16;
  uint32_t C0 = A0 + B0;
  uint32_t C1 = A1 + B1 + (C0 >> 16);
  uint32_t C2 = A2 + B2 + (C1 >> 16);
  uint32_t C3 = A3 + B3 + (C2 >> 16);
  return {(C0 & 0xFFFF) | ((C1 & 0xFFFF) << 16),
          (C2 & 0xFFFF) | ((C3 & 0xFFFF) << 16)};
}

/// Two's complement: ~A + 1.
inline Long64 negLong(Long64 A) { return addLong({~A.Lo, ~A.Hi}, {1, 0}); }

inline Long64 subLong(Long64 A, Long64 B) { return addLong(A, negLong(B)); }

/// Quotient and remainder of one division.
struct DivRem {
  Long64 Q;
  Long64 R;
};

// The general cases behind the inline word paths below (long64.cpp): the
// schoolbook product of 16-bit digits, and signed division by magnitudes.
Long64 mulLongDigits(Long64 A, Long64 B);
DivRem divRemSigned(Long64 A, Long64 B);

inline Long64 mulLong(Long64 A, Long64 B) {
  // Word path: non-negative single words, one below 2^21, so the product
  // is below 2^53 and splits exactly into halves.
  if ((A.Hi | B.Hi) == 0 && (A.Lo < (1u << 21) || B.Lo < (1u << 21))) {
    uint64_t P = static_cast<uint64_t>(A.Lo) * B.Lo;
    return {static_cast<uint32_t>(P), static_cast<uint32_t>(P >> 32)};
  }
  return mulLongDigits(A, B);
}

/// Signed division with JVM semantics (MIN/-1 wraps), both results of one
/// long division. \p B must be nonzero — the interpreter throws
/// ArithmeticException before calling.
inline DivRem divRemLong(Long64 A, Long64 B) {
  // Word path: non-negative single words divide in one exact step.
  if ((A.Hi | B.Hi) == 0)
    return {{A.Lo / B.Lo, 0}, {A.Lo % B.Lo, 0}};
  return divRemSigned(A, B);
}
inline Long64 divLong(Long64 A, Long64 B) { return divRemLong(A, B).Q; }
inline Long64 remLong(Long64 A, Long64 B) { return divRemLong(A, B).R; }

inline Long64 andLong(Long64 A, Long64 B) { return {A.Lo & B.Lo, A.Hi & B.Hi}; }
inline Long64 orLong(Long64 A, Long64 B) { return {A.Lo | B.Lo, A.Hi | B.Hi}; }
inline Long64 xorLong(Long64 A, Long64 B) { return {A.Lo ^ B.Lo, A.Hi ^ B.Hi}; }

// Shifts mask the count to 6 bits, per the JVM specification.
inline Long64 shlLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  if (Count >= 32)
    return {0, A.Lo << (Count - 32)};
  return {A.Lo << Count, (A.Hi << Count) | (A.Lo >> (32 - Count))};
}

/// Arithmetic right shift.
inline Long64 shrLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  uint32_t SignFill = A.isNegative() ? 0xFFFFFFFFu : 0u;
  if (Count >= 32) {
    uint32_t Lo = Count == 32 ? A.Hi
                              : (A.Hi >> (Count - 32)) |
                                    (SignFill << (64 - Count));
    return {Lo, SignFill};
  }
  return {(A.Lo >> Count) | (A.Hi << (32 - Count)),
          (A.Hi >> Count) | (SignFill << (32 - Count))};
}

/// Logical right shift.
inline Long64 ushrLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  if (Count >= 32)
    return {A.Hi >> (Count - 32), 0};
  return {(A.Lo >> Count) | (A.Hi << (32 - Count)), A.Hi >> Count};
}

/// Three-way signed comparison: -1, 0, or 1 (the lcmp bytecode).
inline int32_t cmpLong(Long64 A, Long64 B) {
  bool NegA = A.isNegative(), NegB = B.isNegative();
  if (NegA != NegB)
    return NegA ? -1 : 1;
  if (A.Hi != B.Hi)
    return A.Hi < B.Hi ? -1 : 1;
  if (A.Lo != B.Lo)
    return A.Lo < B.Lo ? -1 : 1;
  return 0;
}
inline bool eqLong(Long64 A, Long64 B) {
  return A.Lo == B.Lo && A.Hi == B.Hi;
}

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_LONG64_H
