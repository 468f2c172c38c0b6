//===- jvm/long64.cpp -----------------------------------------------------==//
//
// The out-of-line part of the software longs (see long64.h for what is
// inline): the double conversions, the schoolbook product of 16-bit digits,
// and signed division. Division works on magnitudes by schoolbook long
// division over 16-bit digits (Knuth's Algorithm D), as DoppioJVM's gLong
// performs it — every intermediate stays below 2^32, so a JS double computes
// each one exactly. The one word path, for non-negative operands below
// 2^32, is inline in long64.h's divRemLong.
//
//===----------------------------------------------------------------------===//

#include "jvm/long64.h"

#include <cmath>

using namespace doppio;
using namespace doppio::jvm;

Long64 Long64::fromDouble(double V) {
  if (std::isnan(V))
    return {0, 0};
  // Clamp to the long range, as (long) double conversion requires.
  if (V >= 9223372036854775807.0)
    return {0xFFFFFFFFu, 0x7FFFFFFFu};
  if (V <= -9223372036854775808.0)
    return {0u, 0x80000000u};
  bool Negative = V < 0;
  double Abs = std::floor(std::abs(V));
  uint32_t Hi = static_cast<uint32_t>(std::floor(Abs / 4294967296.0));
  uint32_t Lo = static_cast<uint32_t>(Abs - Hi * 4294967296.0);
  Long64 R = {Lo, Hi};
  return Negative ? negLong(R) : R;
}

double Long64::toDouble() const {
  if (isNegative()) {
    Long64 Neg = negLong(*this);
    // MIN_VALUE negates to itself; handle via unsigned interpretation.
    if (Neg.isNegative())
      return -9223372036854775808.0;
    return -Neg.toDouble();
  }
  return static_cast<double>(Hi) * 4294967296.0 + static_cast<double>(Lo);
}

Long64 jvm::mulLongDigits(Long64 A, Long64 B) {
  // Schoolbook product of 16-bit digits, keeping the low 64 bits.
  uint32_t AD[4] = {A.Lo & 0xFFFF, A.Lo >> 16, A.Hi & 0xFFFF, A.Hi >> 16};
  uint32_t BD[4] = {B.Lo & 0xFFFF, B.Lo >> 16, B.Hi & 0xFFFF, B.Hi >> 16};
  uint32_t Out[4] = {0, 0, 0, 0};
  for (int I = 0; I != 4; ++I) {
    uint32_t Carry = 0;
    for (int J = 0; I + J < 4; ++J) {
      // Max value: 0xFFFF*0xFFFF + 0xFFFF + carry < 2^32 (and < 2^53 as a
      // JS double).
      uint32_t Prod = AD[I] * BD[J] + (Out[I + J] & 0xFFFF) + Carry;
      Out[I + J] = Prod & 0xFFFF;
      Carry = Prod >> 16;
    }
  }
  return {Out[0] | (Out[1] << 16), Out[2] | (Out[3] << 16)};
}

/// Unsigned division of magnitudes: schoolbook long division over four
/// base-2^16 digits (Knuth, TAOCP vol. 2, 4.3.1, Algorithm D). A one-digit
/// divisor takes short division. Every intermediate — a two-digit numerator, q̂ times a digit,
/// one step of the multiply-subtract — stays below 2^32, so a JS double
/// computes each one exactly, as gLong's division must.
static DivRem udivmod(Long64 N, Long64 D) {
  uint32_t U[5] = {N.Lo & 0xFFFF, N.Lo >> 16, N.Hi & 0xFFFF, N.Hi >> 16, 0};
  uint32_t V[4] = {D.Lo & 0xFFFF, D.Lo >> 16, D.Hi & 0xFFFF, D.Hi >> 16};
  int M = 4, Nd = 4; // Significant digits of the dividend and divisor.
  while (M > 0 && U[M - 1] == 0)
    --M;
  while (Nd > 1 && V[Nd - 1] == 0)
    --Nd;
  uint32_t QD[4] = {0, 0, 0, 0};
  if (M < Nd) // Dividend below the divisor.
    return {{0, 0}, N};
  if (Nd == 1) {
    uint32_t Rem = 0;
    for (int I = M - 1; I >= 0; --I) {
      uint32_t Cur = Rem * 0x10000 + U[I];
      QD[I] = Cur / V[0];
      Rem = Cur % V[0];
    }
    return {{QD[0] | (QD[1] << 16), QD[2] | (QD[3] << 16)}, {Rem, 0}};
  }
  // D1: normalize so the divisor's top digit has its high bit set; the
  // dividend gains a digit U[M].
  int S = 0;
  while (!((V[Nd - 1] << S) & 0x8000))
    ++S;
  for (int I = Nd - 1; I > 0; --I)
    V[I] = ((V[I] << S) | (V[I - 1] >> (16 - S))) & 0xFFFF;
  V[0] = (V[0] << S) & 0xFFFF;
  U[M] = U[M - 1] >> (16 - S);
  for (int I = M - 1; I > 0; --I)
    U[I] = ((U[I] << S) | (U[I - 1] >> (16 - S))) & 0xFFFF;
  U[0] = (U[0] << S) & 0xFFFF;
  for (int J = M - Nd; J >= 0; --J) {
    // D3: estimate q̂ from the top two digits, then correct it at most
    // twice against the next divisor digit.
    uint32_t Num = U[J + Nd] * 0x10000 + U[J + Nd - 1];
    uint32_t QHat = Num / V[Nd - 1];
    uint32_t RHat = Num % V[Nd - 1];
    while (QHat >= 0x10000 ||
           QHat * V[Nd - 2] > RHat * 0x10000 + U[J + Nd - 2]) {
      --QHat;
      RHat += V[Nd - 1];
      if (RHat >= 0x10000)
        break;
    }
    // D4: subtract q̂ times the divisor from the current window.
    int32_t Borrow = 0;
    for (int I = 0; I != Nd; ++I) {
      uint32_t P = QHat * V[I];
      int32_t T = static_cast<int32_t>(U[I + J]) - Borrow -
                  static_cast<int32_t>(P & 0xFFFF);
      U[I + J] = static_cast<uint32_t>(T) & 0xFFFF;
      Borrow = static_cast<int32_t>(P >> 16) - (T >> 16);
    }
    int32_t T = static_cast<int32_t>(U[J + Nd]) - Borrow;
    U[J + Nd] = static_cast<uint32_t>(T) & 0xFFFF;
    QD[J] = QHat;
    if (T < 0) {
      // D6: q̂ was one too large (rare); add the divisor back.
      --QD[J];
      uint32_t Carry = 0;
      for (int I = 0; I != Nd; ++I) {
        uint32_t Sum = U[I + J] + V[I] + Carry;
        U[I + J] = Sum & 0xFFFF;
        Carry = Sum >> 16;
      }
      U[J + Nd] = (U[J + Nd] + Carry) & 0xFFFF;
    }
  }
  // D8: the remainder is the low Nd digits, shifted back.
  uint32_t RD[4] = {0, 0, 0, 0};
  for (int I = 0; I != Nd; ++I)
    RD[I] = ((U[I] >> S) | (U[I + 1] << (16 - S))) & 0xFFFF;
  return {{QD[0] | (QD[1] << 16), QD[2] | (QD[3] << 16)},
          {RD[0] | (RD[1] << 16), RD[2] | (RD[3] << 16)}};
}

DivRem jvm::divRemSigned(Long64 A, Long64 B) {
  bool NegA = A.isNegative(), NegB = B.isNegative();
  DivRem M = udivmod(NegA ? negLong(A) : A, NegB ? negLong(B) : B);
  // MIN_VALUE / -1: the magnitude of MIN_VALUE is itself (2^63 unsigned),
  // and the sign fix-up wraps the quotient back to MIN_VALUE, matching
  // JVM semantics. The remainder takes the dividend's sign.
  return {NegA != NegB ? negLong(M.Q) : M.Q, NegA ? negLong(M.R) : M.R};
}
