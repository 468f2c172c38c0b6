//===- tests/jvm/long64_test.cpp ------------------------------------------==//
//
// Differential tests of the software 64-bit integers (§8) against the
// hardware int64 the NativeHotspot baseline uses: on every operation and a
// seeded sweep of operands, both must agree bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "jvm/long64.h"

#include "gtest/gtest.h"

#include <limits>
#include <random>
#include <string>

using namespace doppio;
using namespace doppio::jvm;

namespace {

const int64_t Interesting[] = {
    0,
    1,
    -1,
    2,
    -2,
    42,
    -1000000,
    0x7FFFFFFF,
    -0x80000000ll,
    0x100000000ll,
    -0x100000000ll,
    0x123456789ABCDEFll,
    -0x123456789ABCDEFll,
    std::numeric_limits<int64_t>::max(),
    std::numeric_limits<int64_t>::min(),
    std::numeric_limits<int64_t>::min() + 1,
};

TEST(Long64, BitsRoundTrip) {
  for (int64_t V : Interesting)
    EXPECT_EQ(Long64::fromBits(V).bits(), V);
}

TEST(Long64, FromInt32SignExtends) {
  EXPECT_EQ(Long64::fromInt32(-1).bits(), -1);
  EXPECT_EQ(Long64::fromInt32(INT32_MIN).bits(),
            static_cast<int64_t>(INT32_MIN));
  EXPECT_EQ(Long64::fromInt32(12345).bits(), 12345);
}

TEST(Long64, ToInt32Truncates) {
  EXPECT_EQ(Long64::fromBits(0x1FFFFFFFFll).toInt32(), -1);
  EXPECT_EQ(Long64::fromBits(0x100000000ll).toInt32(), 0);
}

TEST(Long64, DoubleConversions) {
  EXPECT_DOUBLE_EQ(Long64::fromBits(1000000).toDouble(), 1e6);
  EXPECT_DOUBLE_EQ(Long64::fromBits(-1000000).toDouble(), -1e6);
  EXPECT_EQ(Long64::fromDouble(1e6).bits(), 1000000);
  EXPECT_EQ(Long64::fromDouble(-1.5).bits(), -1);
  EXPECT_EQ(Long64::fromDouble(std::nan("")).bits(), 0);
  EXPECT_EQ(Long64::fromDouble(1e300).bits(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Long64::fromDouble(-1e300).bits(),
            std::numeric_limits<int64_t>::min());
  EXPECT_DOUBLE_EQ(Long64::fromBits(INT64_MIN).toDouble(),
                   -9223372036854775808.0);
}

TEST(Long64, ExhaustiveOnInterestingPairs) {
  for (int64_t A : Interesting) {
    Long64 LA = Long64::fromBits(A);
    uint64_t UA = static_cast<uint64_t>(A);
    EXPECT_EQ(negLong(LA).bits(), static_cast<int64_t>(0 - UA)) << A;
    for (int64_t B : Interesting) {
      Long64 LB = Long64::fromBits(B);
      uint64_t UB = static_cast<uint64_t>(B);
      EXPECT_EQ(addLong(LA, LB).bits(), static_cast<int64_t>(UA + UB))
          << A << "+" << B;
      EXPECT_EQ(subLong(LA, LB).bits(), static_cast<int64_t>(UA - UB))
          << A << "-" << B;
      EXPECT_EQ(mulLong(LA, LB).bits(), static_cast<int64_t>(UA * UB))
          << A << "*" << B;
      EXPECT_EQ(andLong(LA, LB).bits(), A & B);
      EXPECT_EQ(orLong(LA, LB).bits(), A | B);
      EXPECT_EQ(xorLong(LA, LB).bits(), A ^ B);
      EXPECT_EQ(cmpLong(LA, LB), A < B ? -1 : (A > B ? 1 : 0))
          << A << "<=>" << B;
      EXPECT_EQ(eqLong(LA, LB), A == B);
      if (B != 0) {
        // JVM semantics: MIN / -1 wraps to MIN.
        int64_t Q = (A == INT64_MIN && B == -1) ? A : A / B;
        int64_t R = (A == INT64_MIN && B == -1) ? 0 : A % B;
        EXPECT_EQ(divLong(LA, LB).bits(), Q) << A << "/" << B;
        EXPECT_EQ(remLong(LA, LB).bits(), R) << A << "%" << B;
      }
    }
  }
}

TEST(Long64, ShiftsMatchHardware) {
  for (int64_t A : Interesting) {
    Long64 LA = Long64::fromBits(A);
    for (int32_t S : {0, 1, 5, 31, 32, 33, 63, 64, 65, -1}) {
      int32_t Masked = S & 63;
      EXPECT_EQ(shlLong(LA, S).bits(),
                static_cast<int64_t>(static_cast<uint64_t>(A) << Masked))
          << A << "<<" << S;
      EXPECT_EQ(shrLong(LA, S).bits(), A >> Masked) << A << ">>" << S;
      EXPECT_EQ(ushrLong(LA, S).bits(),
                static_cast<int64_t>(static_cast<uint64_t>(A) >> Masked))
          << A << ">>>" << S;
    }
  }
}

/// Checks divLong and remLong on \p A / \p B in all four sign
/// combinations against hardware int64.
void expectDivisionMatchesHardware(int64_t A, int64_t B) {
  for (int64_t SA : {A, -A})
    for (int64_t SB : {B, -B}) {
      Long64 LA = Long64::fromBits(SA), LB = Long64::fromBits(SB);
      EXPECT_EQ(divLong(LA, LB).bits(), SA / SB) << SA << "/" << SB;
      EXPECT_EQ(remLong(LA, LB).bits(), SA % SB) << SA << "%" << SB;
      DivRem QR = divRemLong(LA, LB);
      EXPECT_EQ(QR.Q.bits(), SA / SB) << SA << "/" << SB;
      EXPECT_EQ(QR.R.bits(), SA % SB) << SA << "%" << SB;
    }
}

/// Checks mulLong on \p A * \p B in all four sign combinations against
/// hardware int64 (wrapping, as the JVM's lmul does).
void expectProductMatchesHardware(int64_t A, int64_t B) {
  for (int64_t SA : {A, -A})
    for (int64_t SB : {B, -B}) {
      uint64_t Want = static_cast<uint64_t>(SA) * static_cast<uint64_t>(SB);
      EXPECT_EQ(mulLong(Long64::fromBits(SA), Long64::fromBits(SB)).bits(),
                static_cast<int64_t>(Want))
          << SA << "*" << SB;
    }
}

// Directed tests of udivmod's base-2^16 long division (Knuth's Algorithm
// D). Random operands reach its rare branches too seldom to rely on.

TEST(Long64Division, DivisorsOfOneToFourDigits) {
  // The divisor's significant 16-bit digits pick the path: one digit is
  // short division, two to four run Algorithm D over 3, 2 and 1 quotient
  // digits.
  const int64_t Dividend = 0x7123456789ABCDEFll;
  for (int64_t Divisor : {0x1ll, 0x7ll, 0xFFFFll, 0x10000ll, 0x12345ll,
                          0xFFFFFFFFll, 0x100000000ll, 0x123456789ll,
                          0xFFFFFFFFFFFFll, 0x1000000000000ll,
                          0x123456789ABCDll, 0x7123456789ABCDEEll,
                          0x7123456789ABCDEFll})
    expectDivisionMatchesHardware(Dividend, Divisor);
  // A dividend with fewer digits than the divisor is all remainder.
  expectDivisionMatchesHardware(0xFFFF, 0x10000);
  expectDivisionMatchesHardware(0x12345678, 0x123456789ABCll);
}

TEST(Long64Division, EveryNormalizationShift) {
  // The divisor's top digit has its high bit at 15 - S, so D1 shifts
  // divisor and dividend left by exactly S bits.
  for (int S = 0; S != 16; ++S) {
    int64_t Top = (0x8000 >> S) | (0x5A5A >> S);
    for (int Digits = 2; Digits != 5; ++Digits) {
      if (Digits == 4 && S == 0)
        continue; // Top digit 0x8000... is not a positive int64.
      int64_t Divisor = Top << (16 * (Digits - 1)) | 0x1357;
      SCOPED_TRACE("shift " + std::to_string(S) + ", digits " +
                   std::to_string(Digits));
      const int64_t Dividends[] = {0x7FEDCBA987654321ll, Divisor - 1,
                                   Divisor + 1, Divisor / 3};
      for (int64_t Dividend : Dividends)
        expectDivisionMatchesHardware(Dividend, Divisor);
    }
  }
}

TEST(Long64Division, QuotientDigitCorrection) {
  // Operands found with an instrumented copy of udivmod. D3's estimate
  // q̂ from the top two digits is too large and the loop lowers it before
  // the multiply-subtract.
  struct Case {
    int64_t A, B;
  };
  const Case Cases[] = {
      // One correction.
      {0x6f7ce81100027fffll, 0x8000fffe1309ll},
      {0x7ffe00029cff0002ll, 0x2f8118000ll},
      // Two corrections.
      {0x7ffe7356e053fffell, 0x8001fffe0002ll},
      {0x7fff0bda80010001ll, 0x8001dcf6b36ell},
      // q̂ starts at 2^16 or above (equal top digits), then corrects.
      {0x80001b076cf5ll, 0x8000ffffll},
      {0x7fff6d66863da70bll, 0x7fff7a80ll},
  };
  for (const Case &C : Cases)
    expectDivisionMatchesHardware(C.A, C.B);
}

TEST(Long64Division, AddBackStep) {
  // D6: q̂ survives the correction loop one too large, the subtraction
  // goes negative, and the divisor is added back. Random operands take
  // this branch about once per 2^15 quotient digits; these were found
  // with an instrumented copy of udivmod. A two-digit divisor never
  // needs it: there the correction test already compares every digit.
  struct Case {
    int64_t A, B, Q, R;
  };
  const Case Cases[] = {
      // Three-digit divisors, normalization shifts 0, 3 and 13.
      {0x471a8000ffff8000ll, 0x80000001ffffll, 36404, 140737011781172ll},
      {0x64280001cff9fffell, 0x800000026611ll, 51279, 140737211480255ll},
      {0x1538826eab3fdc7bll, 0x18c258cb57bbll, 56169, 27222774376392ll},
      {0xda73c673885fe5ll, 0x6707ff147ll, 2223245, 27656980426ll},
      // Four-digit divisors just above the dividend: q̂ = 1 is one too
      // large (shifts 1 and 15).
      {0x7fff000180010002ll, 0x7fff0001a9e6c2f6ll, 0, 0x7fff000180010002ll},
      {0x18001fffefffell, 0x18001fffffffell, 0, 0x18001fffefffell},
  };
  for (const Case &C : Cases) {
    Long64 LA = Long64::fromBits(C.A), LB = Long64::fromBits(C.B);
    EXPECT_EQ(divLong(LA, LB).bits(), C.Q) << C.A << "/" << C.B;
    EXPECT_EQ(remLong(LA, LB).bits(), C.R) << C.A << "%" << C.B;
    expectDivisionMatchesHardware(C.A, C.B);
  }
}

TEST(Long64Division, MinValueOperands) {
  // |MIN| does not fit a positive int64; its magnitude is 2^63 unsigned.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  Long64 LMin = Long64::fromBits(Min);
  const int64_t Divisors[] = {2, 3, -7, 0x10000, 0x123456789,
                              std::numeric_limits<int64_t>::max(), Min};
  for (int64_t B : Divisors) {
    EXPECT_EQ(divLong(LMin, Long64::fromBits(B)).bits(), Min / B) << B;
    EXPECT_EQ(remLong(LMin, Long64::fromBits(B)).bits(), Min % B) << B;
  }
  EXPECT_EQ(divLong(LMin, Long64::fromBits(-1)).bits(), Min); // Wraps.
  EXPECT_EQ(remLong(LMin, Long64::fromBits(-1)).bits(), 0);
  EXPECT_EQ(divLong(Long64::fromBits(5), LMin).bits(), 0);
  EXPECT_EQ(remLong(Long64::fromBits(-5), LMin).bits(), -5);
}

// Directed tests of the word fast paths (long64.h): division when both
// magnitudes fit in 32 bits, multiplication when both operands are
// non-negative single words and one is below 2^21. Each boundary is
// checked from both sides, in all four sign combinations.

TEST(Long64FastPath, DivisionAtTheWordBoundary) {
  const int64_t Word = 0xFFFFFFFFll, Over = 0x100000000ll;
  const int64_t Dividends[] = {Word, Over, Word - 1, Over + 1, Over * 3 + 7};
  const int64_t Divisors[] = {1,        3,    0xFFFF, 0x10000,
                              Word - 1, Word, Over,   Over + 1};
  for (int64_t A : Dividends)
    for (int64_t B : Divisors)
      expectDivisionMatchesHardware(A, B);
  // The dividend below the divisor on either side of the boundary.
  expectDivisionMatchesHardware(5, Word);
  expectDivisionMatchesHardware(5, Over);
  expectDivisionMatchesHardware(Word, Over);
}

TEST(Long64FastPath, DivisionByMinAndOfMin) {
  const int64_t Min = std::numeric_limits<int64_t>::min();
  Long64 LMin = Long64::fromBits(Min);
  // MIN's magnitude is 2^63, far past the word path; MIN / -1 wraps.
  DivRem QR = divRemLong(LMin, Long64::fromBits(-1));
  EXPECT_EQ(QR.Q.bits(), Min);
  EXPECT_EQ(QR.R.bits(), 0);
  QR = divRemLong(LMin, Long64::fromBits(1));
  EXPECT_EQ(QR.Q.bits(), Min);
  EXPECT_EQ(QR.R.bits(), 0);
  const int64_t Divisors[] = {2, 7, 0xFFFFFFFFll, 0x100000000ll};
  for (int64_t B : Divisors) {
    for (int64_t SB : {B, -B}) {
      QR = divRemLong(LMin, Long64::fromBits(SB));
      EXPECT_EQ(QR.Q.bits(), Min / SB) << SB;
      EXPECT_EQ(QR.R.bits(), Min % SB) << SB;
      QR = divRemLong(Long64::fromBits(SB), LMin);
      EXPECT_EQ(QR.Q.bits(), SB / Min) << SB;
      EXPECT_EQ(QR.R.bits(), SB % Min) << SB;
    }
  }
}

TEST(Long64FastPath, MultiplyAtTheMultiplierBoundary) {
  const int64_t Small = (1ll << 21) - 1, Big = 1ll << 21;
  const int64_t Word = 0xFFFFFFFFll, Over = 0x100000000ll;
  // Products either side of 2^53: (2^21 - 1)(2^32 - 1) and 2^21 (2^32 -
  // 1) take the word path and stay below it; 2^21 (2^32) and (2^21 + 1)
  // (2^32 - 1) pass it and take the digit path.
  const int64_t Multipliers[] = {Small, Big, Big + 1};
  const int64_t Multiplicands[] = {1, Small, Big, Word, Over, Over + 1};
  for (int64_t A : Multipliers)
    for (int64_t B : Multiplicands)
      expectProductMatchesHardware(A, B);
  // Products either side of 2^64, and one that wraps past it.
  expectProductMatchesHardware(Word, Word);
  expectProductMatchesHardware(Over, Over);
  expectProductMatchesHardware(Word, Over + 1);
  expectProductMatchesHardware(0x7FFFFFFFFFFFFFFFll, 2);
  // MIN: its negation is itself, and MIN * -1 wraps to MIN.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Factors[] = {0, 1, -1, 2, Small, Big};
  for (int64_t B : Factors)
    EXPECT_EQ(mulLong(Long64::fromBits(Min), Long64::fromBits(B)).bits(),
              static_cast<int64_t>(static_cast<uint64_t>(Min) *
                                   static_cast<uint64_t>(B)))
        << B;
}

// Property sweep: random 64-bit operands.
class Long64Property : public ::testing::TestWithParam<uint32_t> {};

TEST_P(Long64Property, RandomDifferentialSweep) {
  std::mt19937_64 Rng(GetParam());
  for (int I = 0; I != 2000; ++I) {
    int64_t A = static_cast<int64_t>(Rng());
    int64_t B = static_cast<int64_t>(Rng());
    // Mix in small operands, where carries matter most.
    if (I % 3 == 0)
      B = static_cast<int32_t>(B);
    if (I % 5 == 0)
      A = static_cast<int16_t>(A);
    Long64 LA = Long64::fromBits(A), LB = Long64::fromBits(B);
    uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
    ASSERT_EQ(addLong(LA, LB).bits(), static_cast<int64_t>(UA + UB));
    ASSERT_EQ(subLong(LA, LB).bits(), static_cast<int64_t>(UA - UB));
    ASSERT_EQ(mulLong(LA, LB).bits(), static_cast<int64_t>(UA * UB));
    if (B != 0 && !(A == INT64_MIN && B == -1)) {
      ASSERT_EQ(divLong(LA, LB).bits(), A / B);
      ASSERT_EQ(remLong(LA, LB).bits(), A % B);
    }
    ASSERT_EQ(cmpLong(LA, LB), A < B ? -1 : (A > B ? 1 : 0));
  }
}

// Full-range pairs almost never reach the word paths, so this sweep
// draws magnitudes below 2^33, half of them below 2^21, with random signs:
// both sides of each fast-path guard come up often.
TEST_P(Long64Property, SmallOperandSweep) {
  std::mt19937_64 Rng(GetParam());
  auto Draw = [&Rng]() {
    uint64_t R = Rng();
    int Bits = (R & 1) ? 21 : 33;
    int64_t Mag = static_cast<int64_t>((R >> 8) & ((1ull << Bits) - 1));
    return (R & 2) ? -Mag : Mag;
  };
  for (int I = 0; I != 4000; ++I) {
    int64_t A = Draw(), B = Draw();
    Long64 LA = Long64::fromBits(A), LB = Long64::fromBits(B);
    uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
    ASSERT_EQ(mulLong(LA, LB).bits(), static_cast<int64_t>(UA * UB))
        << A << "*" << B;
    if (B != 0) {
      DivRem QR = divRemLong(LA, LB);
      ASSERT_EQ(QR.Q.bits(), A / B) << A << "/" << B;
      ASSERT_EQ(QR.R.bits(), A % B) << A << "%" << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Long64Property,
                         ::testing::Values(11u, 22u, 33u, 44u));

} // namespace
