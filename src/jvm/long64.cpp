//===- jvm/long64.cpp -----------------------------------------------------==//
//
// Software 64-bit arithmetic from 32-bit pieces. The structure mirrors what
// a JavaScript implementation (like DoppioJVM's gLong) performs: additions
// carry through 16-bit chunks, multiplication is the schoolbook product of
// 16-bit digits, and division is schoolbook long division over 16-bit
// digits (Knuth's Algorithm D) — all expressible with JS doubles, since no
// intermediate reaches 2^32.
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

Long64 jvm::addLong(Long64 A, Long64 B) {
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

Long64 jvm::negLong(Long64 A) {
  // Two's complement: ~A + 1.
  return addLong({~A.Lo, ~A.Hi}, {1, 0});
}

Long64 jvm::subLong(Long64 A, Long64 B) { return addLong(A, negLong(B)); }

Long64 jvm::mulLong(Long64 A, Long64 B) {
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
/// divisor takes short division. Every intermediate — a two-digit
/// numerator, q̂ times a digit, one step of the multiply-subtract — stays
/// below 2^32, so a JS double computes each one exactly, as gLong's
/// division must.
static void udivmod(Long64 N, Long64 D, Long64 &Q, Long64 &R) {
  uint32_t U[5] = {N.Lo & 0xFFFF, N.Lo >> 16, N.Hi & 0xFFFF, N.Hi >> 16, 0};
  uint32_t V[4] = {D.Lo & 0xFFFF, D.Lo >> 16, D.Hi & 0xFFFF, D.Hi >> 16};
  int M = 4, Nd = 4; // Significant digits of the dividend and divisor.
  while (M > 0 && U[M - 1] == 0)
    --M;
  while (Nd > 1 && V[Nd - 1] == 0)
    --Nd;
  uint32_t QD[4] = {0, 0, 0, 0};
  if (M < Nd) { // Dividend below the divisor.
    Q = {0, 0};
    R = N;
    return;
  }
  if (Nd == 1) {
    uint32_t Rem = 0;
    for (int I = M - 1; I >= 0; --I) {
      uint32_t Cur = Rem * 0x10000 + U[I];
      QD[I] = Cur / V[0];
      Rem = Cur % V[0];
    }
    Q = {QD[0] | (QD[1] << 16), QD[2] | (QD[3] << 16)};
    R = {Rem, 0};
    return;
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
  Q = {QD[0] | (QD[1] << 16), QD[2] | (QD[3] << 16)};
  R = {RD[0] | (RD[1] << 16), RD[2] | (RD[3] << 16)};
}

Long64 jvm::divLong(Long64 A, Long64 B) {
  bool NegA = A.isNegative(), NegB = B.isNegative();
  Long64 MagA = NegA ? negLong(A) : A;
  Long64 MagB = NegB ? negLong(B) : B;
  Long64 Q, R;
  udivmod(MagA, MagB, Q, R);
  // Note MIN_VALUE / -1: magnitudes overflow back to MIN_VALUE, and the
  // sign fix-up below wraps correctly, matching JVM semantics.
  return NegA != NegB ? negLong(Q) : Q;
}

Long64 jvm::remLong(Long64 A, Long64 B) {
  bool NegA = A.isNegative(), NegB = B.isNegative();
  Long64 MagA = NegA ? negLong(A) : A;
  Long64 MagB = NegB ? negLong(B) : B;
  Long64 Q, R;
  udivmod(MagA, MagB, Q, R);
  return NegA ? negLong(R) : R;
}

Long64 jvm::andLong(Long64 A, Long64 B) {
  return {A.Lo & B.Lo, A.Hi & B.Hi};
}

Long64 jvm::orLong(Long64 A, Long64 B) {
  return {A.Lo | B.Lo, A.Hi | B.Hi};
}

Long64 jvm::xorLong(Long64 A, Long64 B) {
  return {A.Lo ^ B.Lo, A.Hi ^ B.Hi};
}

Long64 jvm::shlLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  if (Count >= 32)
    return {0, A.Lo << (Count - 32)};
  return {A.Lo << Count, (A.Hi << Count) | (A.Lo >> (32 - Count))};
}

Long64 jvm::shrLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  uint32_t SignFill = A.isNegative() ? 0xFFFFFFFFu : 0u;
  if (Count >= 32) {
    uint32_t Lo = Count == 32
                      ? A.Hi
                      : (A.Hi >> (Count - 32)) |
                            (SignFill << (64 - Count));
    return {Lo, SignFill};
  }
  return {(A.Lo >> Count) | (A.Hi << (32 - Count)),
          (A.Hi >> Count) | (SignFill << (32 - Count))};
}

Long64 jvm::ushrLong(Long64 A, int32_t Count) {
  Count &= 63;
  if (Count == 0)
    return A;
  if (Count >= 32)
    return {A.Hi >> (Count - 32), 0};
  return {(A.Lo >> Count) | (A.Hi << (32 - Count)), A.Hi >> Count};
}

int32_t jvm::cmpLong(Long64 A, Long64 B) {
  bool NegA = A.isNegative(), NegB = B.isNegative();
  if (NegA != NegB)
    return NegA ? -1 : 1;
  if (A.Hi != B.Hi)
    return A.Hi < B.Hi ? -1 : 1;
  if (A.Lo != B.Lo)
    return A.Lo < B.Lo ? -1 : 1;
  return 0;
}
