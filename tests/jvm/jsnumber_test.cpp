//===- tests/jvm/jsnumber_test.cpp ----------------------------------------==//
//
// ECMAScript ToInt32 (the `|0` wrap behind every DoppioJS int bytecode):
// a boundary table, then a seeded sweep against the specification's
// definition written out below.
//
//===----------------------------------------------------------------------===//

#include "jvm/jsnumber.h"

#include "gtest/gtest.h"

#include <bit>
#include <cmath>
#include <limits>
#include <random>

using namespace doppio::jvm;

namespace {

/// ECMA-262 ToInt32, step by step: NaN and the infinities give 0;
/// otherwise truncate toward zero, reduce modulo 2^32 into [0, 2^32), and
/// map [2^31, 2^32) down by 2^32. fmod of a double by 2^32 is exact.
int32_t specToInt32(double V) {
  if (std::isnan(V) || std::isinf(V))
    return 0;
  double Int = std::trunc(V);
  double Int32Bit = std::fmod(Int, 4294967296.0);
  if (Int32Bit < 0)
    Int32Bit += 4294967296.0;
  if (Int32Bit >= 2147483648.0)
    Int32Bit -= 4294967296.0;
  return static_cast<int32_t>(Int32Bit);
}

TEST(JsNumber, ToInt32Boundaries) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double P31 = 2147483648.0, P32 = 4294967296.0;
  const double P53 = 9007199254740992.0, P63 = 9223372036854775808.0;
  struct Case {
    double V;
    int32_t Expected;
  };
  const Case Cases[] = {
      {0.0, 0},
      {-0.0, 0},
      {0.5, 0},
      {-0.5, 0},
      {P31 - 1, 2147483647},
      {-P31, -2147483647 - 1},
      {P31, -2147483647 - 1},
      {-P31 - 1, 2147483647},
      {P32 - 0.5, -1},
      {P32, 0},
      {-P32, 0},
      {P32 + 7, 7},
      {P53 - 1, -1},
      {P53, 0},
      // 2^53 + 1 is not a double; 2^53 + 2 is the next one up.
      {P53 + 2, 2},
      {-(P53 - 1), 1},
      // The doubles on either side of 2^63, where the int64 fast path
      // hands over to trunc and fmod.
      {std::nextafter(P63, 0.0), -1024},
      {P63, 0},
      {std::nextafter(P63, Inf), 2048},
      {-std::nextafter(P63, 0.0), 1024},
      {-P63, 0},
      {-std::nextafter(P63, Inf), -2048},
      {19342813113834066795298816.0 /* 2^84 */, 0},
      {1e300, 0},
      {-1e300, 0},
      {std::nan(""), 0},
      {Inf, 0},
      {-Inf, 0},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(jsnum::toInt32(C.V), C.Expected) << C.V;
    EXPECT_EQ(specToInt32(C.V), C.Expected) << C.V;
  }
}

TEST(JsNumber, ToInt32MatchesTheSpecificationOnASeededSweep) {
  std::mt19937_64 Rng(20140609);
  for (int I = 0; I != 1000000; ++I) {
    double V;
    switch (I % 4) {
    case 0: // Any bit pattern: every exponent, NaNs and infinities.
      V = std::bit_cast<double>(Rng());
      break;
    case 1: // Integers around the int32 range.
      V = static_cast<double>(static_cast<int64_t>(Rng()) >> 28);
      break;
    case 2: // Fractions up to 2^70 in magnitude.
      V = std::ldexp(std::bit_cast<double>((Rng() >> 12) |
                                           0x3FF0000000000000ull),
                     static_cast<int>(Rng() % 71)) *
          ((Rng() & 1) ? -1.0 : 1.0);
      break;
    default: // Sums and products as the int helpers form them.
      V = static_cast<double>(static_cast<int32_t>(Rng())) *
          static_cast<double>(static_cast<int32_t>(Rng() >> 32));
      break;
    }
    ASSERT_EQ(jsnum::toInt32(V), specToInt32(V))
        << V << " bits " << std::bit_cast<uint64_t>(V);
  }
}

TEST(JsNumber, IntHelpersWrapLikeJavaInts) {
  const int32_t Max = std::numeric_limits<int32_t>::max();
  const int32_t Min = std::numeric_limits<int32_t>::min();
  EXPECT_EQ(jsnum::addInt32(Max, 1), Min);
  EXPECT_EQ(jsnum::subInt32(Min, 1), Max);
  EXPECT_EQ(jsnum::mulInt32(Max, Max), 1);
  EXPECT_EQ(jsnum::mulInt32(Min, -1), Min);
  EXPECT_EQ(jsnum::negInt32(Min), Min);
  EXPECT_EQ(jsnum::divInt32(Min, -1), Min);
  EXPECT_EQ(jsnum::remInt32(-7, 2), -1);
}

TEST(JsNumber, MulInt32IsTheWrappedProduct) {
  // The 16-bit-halves multiply must equal the two's-complement product
  // mod 2^32 for every pair: edge values crossed with each other, then a
  // seeded sweep of 2^20 pairs.
  auto Wrapped = [](int32_t A, int32_t B) {
    return static_cast<int32_t>(static_cast<uint32_t>(A) *
                                static_cast<uint32_t>(B));
  };
  const int32_t Max = std::numeric_limits<int32_t>::max();
  const int32_t Min = std::numeric_limits<int32_t>::min();
  const int32_t Edges[] = {0,       1,       -1,      2,       -2,
                           0xFFFF,  0x10000, -0xFFFF, -0x10000, 0x7FFF,
                           -0x8000, 46341,   -46341,  Max,     Min,
                           Max - 1, Min + 1};
  for (int32_t A : Edges)
    for (int32_t B : Edges)
      ASSERT_EQ(jsnum::mulInt32(A, B), Wrapped(A, B)) << A << " * " << B;
  std::mt19937_64 Rng(0x1D0C0FFEE);
  for (int I = 0; I != 1 << 20; ++I) {
    uint64_t R = Rng();
    int32_t A = static_cast<int32_t>(R), B = static_cast<int32_t>(R >> 32);
    ASSERT_EQ(jsnum::mulInt32(A, B), Wrapped(A, B)) << A << " * " << B;
  }
}

} // namespace
