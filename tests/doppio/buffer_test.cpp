//===- tests/doppio/buffer_test.cpp ---------------------------------------==//
//
// Tests for the Node Buffer emulation (§5.1): numeric accessors in both
// endiannesses, all string codecs with round-trip properties, the packed
// binary-string format and its per-browser fallback, and the typed-array
// memory accounting feeding the Safari-leak model.
//
//===----------------------------------------------------------------------===//

#include "doppio/buffer.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::browser;

namespace {

TEST(Buffer, ZeroFilledOnAllocation) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, 16);
  for (size_t I = 0; I != 16; ++I)
    EXPECT_EQ(B.readUInt8(I), 0);
}

TEST(Buffer, Int8RoundTrip) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, 4);
  B.writeInt8(-100, 0);
  EXPECT_EQ(B.readInt8(0), -100);
  EXPECT_EQ(B.readUInt8(0), 156);
}

TEST(Buffer, Int16BothEndiannesses) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, 8);
  B.writeUInt16LE(0x1234, 0);
  EXPECT_EQ(B.readUInt8(0), 0x34);
  EXPECT_EQ(B.readUInt8(1), 0x12);
  EXPECT_EQ(B.readUInt16LE(0), 0x1234);
  EXPECT_EQ(B.readUInt16BE(0), 0x3412);
  B.writeUInt16BE(0xBEEF, 2);
  EXPECT_EQ(B.readUInt8(2), 0xBE);
  EXPECT_EQ(B.readUInt16BE(2), 0xBEEF);
  EXPECT_EQ(B.readInt16BE(2), static_cast<int16_t>(0xBEEF));
}

TEST(Buffer, Int32BothEndiannesses) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, 8);
  B.writeUInt32LE(0xDEADBEEF, 0);
  EXPECT_EQ(B.readUInt32LE(0), 0xDEADBEEFu);
  EXPECT_EQ(B.readUInt32BE(0), 0xEFBEADDEu);
  EXPECT_EQ(B.readInt32LE(0), static_cast<int32_t>(0xDEADBEEF));
  B.writeUInt32BE(1, 4);
  EXPECT_EQ(B.readUInt8(7), 1);
}

TEST(Buffer, FloatAndDoubleRoundTrip) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, 24);
  B.writeFloatLE(3.5f, 0);
  EXPECT_EQ(B.readFloatLE(0), 3.5f);
  B.writeFloatBE(-0.125f, 4);
  EXPECT_EQ(B.readFloatBE(4), -0.125f);
  B.writeDoubleLE(6.02214076e23, 8);
  EXPECT_EQ(B.readDoubleLE(8), 6.02214076e23);
  B.writeDoubleBE(-1.0 / 3.0, 16);
  EXPECT_EQ(B.readDoubleBE(16), -1.0 / 3.0);
}

TEST(Buffer, CopyToAndFill) {
  BrowserEnv Env(chromeProfile());
  Buffer A(Env, 8), B(Env, 8);
  A.fill(0xAB, 0, 8);
  EXPECT_EQ(A.copyTo(B, 4, 0, 8), 4u) << "clamped to destination space";
  EXPECT_EQ(B.readUInt8(3), 0);
  EXPECT_EQ(B.readUInt8(4), 0xAB);
  EXPECT_EQ(B.readUInt8(7), 0xAB);
}

TEST(Buffer, BackingFollowsProfile) {
  BrowserEnv Chrome(chromeProfile());
  EXPECT_EQ(Buffer(Chrome, 4).backing(), Buffer::Backing::TypedArray);
  BrowserEnv Ie8(ie8Profile());
  EXPECT_EQ(Buffer(Ie8, 4).backing(), Buffer::Backing::NumberArray);
}

TEST(Buffer, TypedArrayAllocationIsAccounted) {
  BrowserEnv Env(chromeProfile());
  {
    Buffer B(Env, 1000);
    EXPECT_EQ(Env.liveTypedArrayBytes(), 1000u);
  }
  EXPECT_EQ(Env.liveTypedArrayBytes(), 0u);
  // Number arrays are not typed arrays: nothing to account.
  BrowserEnv Ie8(ie8Profile());
  Buffer N(Ie8, 1000);
  EXPECT_EQ(Ie8.liveTypedArrayBytes(), 0u);
}

TEST(Buffer, ReleaseMovesBytesButFreesTheNotedSizeOnce) {
  // Safari leaks every freed typed array, so Leaked counts frees exactly.
  BrowserEnv Env(safariProfile());
  std::vector<uint8_t> Out;
  {
    Buffer A(Env, 1000);
    A.writeUInt8(42, 999);
    Out = A.release();
    EXPECT_EQ(A.size(), 0u);
    EXPECT_EQ(Env.liveTypedArrayBytes(), 1000u); // Still allocated.
    EXPECT_EQ(Env.leakedTypedArrayBytes(), 0u);
  }
  ASSERT_EQ(Out.size(), 1000u);
  EXPECT_EQ(Out[999], 42);
  EXPECT_EQ(Env.liveTypedArrayBytes(), 0u);
  EXPECT_EQ(Env.leakedTypedArrayBytes(), 1000u);

  {
    Buffer A(Env, 300);
    Out = A.release();
    Buffer B(std::move(A)); // Carries the noted size; A frees nothing.
    Buffer C(Env, 20);
    C = std::move(B); // Frees C's 20; C now owns A's 300.
    EXPECT_EQ(Env.liveTypedArrayBytes(), 300u);
    EXPECT_EQ(Env.leakedTypedArrayBytes(), 1020u);
    Buffer D(Env, 5);
    D = std::move(C);
    EXPECT_EQ(Env.liveTypedArrayBytes(), 300u);
    EXPECT_EQ(Env.leakedTypedArrayBytes(), 1025u);
  }
  EXPECT_EQ(Env.liveTypedArrayBytes(), 0u);
  EXPECT_EQ(Env.leakedTypedArrayBytes(), 1325u);
  EXPECT_EQ(Env.cumulativeTypedArrayBytes(), 1325u);
}

TEST(Buffer, NumberArrayAccessChargesMore) {
  BrowserEnv Chrome(chromeProfile());
  BrowserEnv Ie8(ie8Profile());
  Buffer Fast(Chrome, 4096), Slow(Ie8, 4096);
  uint64_t T0 = Chrome.clock().nowNs();
  Fast.fill(1, 0, 4096);
  uint64_t FastCost = Chrome.clock().nowNs() - T0;
  uint64_t T1 = Ie8.clock().nowNs();
  Slow.fill(1, 0, 4096);
  uint64_t SlowCost = Ie8.clock().nowNs() - T1;
  EXPECT_GT(SlowCost, FastCost);
}

//===--------------------------------------------------------------------===//
// String codecs
//===--------------------------------------------------------------------===//

std::vector<uint8_t> patternBytes(size_t N, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<uint8_t> Out(N);
  for (auto &B : Out)
    B = static_cast<uint8_t>(Rng());
  return Out;
}

TEST(BufferCodec, AsciiToString) {
  BrowserEnv Env(chromeProfile());
  Buffer B = Buffer::fromString(Env, js::fromAscii("Hello"),
                                Encoding::Ascii);
  EXPECT_EQ(B.size(), 5u);
  EXPECT_EQ(js::toAscii(B.toString(Encoding::Ascii)), "Hello");
}

TEST(BufferCodec, AsciiStripsHighBitOnDecode) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, std::vector<uint8_t>{0xC8, 0x41});
  js::String S = B.toString(Encoding::Ascii);
  EXPECT_EQ(S[0], 0x48); // High bit cleared, Node-style.
  EXPECT_EQ(S[1], u'A');
}

TEST(BufferCodec, Utf8RoundTripAsciiAndMultibyte) {
  BrowserEnv Env(chromeProfile());
  // "héllo€" + astral plane U+1F600 (surrogate pair).
  js::String Text = {u'h', 0x00E9, u'l', u'l', u'o', 0x20AC, 0xD83D,
                     0xDE00};
  Buffer B = Buffer::fromString(Env, Text, Encoding::Utf8);
  EXPECT_EQ(B.size(), 1u + 2 + 1 + 1 + 1 + 3 + 4);
  EXPECT_EQ(B.toString(Encoding::Utf8), Text);
}

TEST(BufferCodec, Utf8MalformedDecodesToReplacement) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, std::vector<uint8_t>{0xFF, 'a', 0xC3});
  js::String S = B.toString(Encoding::Utf8);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], 0xFFFD);
  EXPECT_EQ(S[1], u'a');
  EXPECT_EQ(S[2], 0xFFFD);
}

TEST(BufferCodec, Ucs2RoundTrip) {
  BrowserEnv Env(chromeProfile());
  js::String Text = {0x0041, 0x1234, 0xFFFF, 0x0000};
  Buffer B = Buffer::fromString(Env, Text, Encoding::Ucs2);
  EXPECT_EQ(B.size(), 8u);
  EXPECT_EQ(B.readUInt8(0), 0x41); // Little endian.
  EXPECT_EQ(B.toString(Encoding::Ucs2), Text);
}

TEST(BufferCodec, Base64KnownVectors) {
  BrowserEnv Env(chromeProfile());
  struct {
    const char *Plain;
    const char *Encoded;
  } Cases[] = {{"", ""},         {"f", "Zg=="},     {"fo", "Zm8="},
               {"foo", "Zm9v"},  {"foob", "Zm9vYg=="},
               {"fooba", "Zm9vYmE="}, {"foobar", "Zm9vYmFy"}};
  for (const auto &C : Cases) {
    Buffer B = Buffer::fromString(Env, js::fromAscii(C.Plain),
                                  Encoding::Ascii);
    EXPECT_EQ(js::toAscii(B.toString(Encoding::Base64)), C.Encoded)
        << C.Plain;
    Buffer D = Buffer::fromString(Env, js::fromAscii(C.Encoded),
                                  Encoding::Base64);
    EXPECT_EQ(js::toAscii(D.toString(Encoding::Ascii)), C.Plain)
        << C.Encoded;
  }
}

TEST(BufferCodec, HexRoundTrip) {
  BrowserEnv Env(chromeProfile());
  Buffer B(Env, std::vector<uint8_t>{0x00, 0xFF, 0x1A, 0x2B});
  EXPECT_EQ(js::toAscii(B.toString(Encoding::Hex)), "00ff1a2b");
  Buffer D = Buffer::fromString(Env, js::fromAscii("00FF1a2b"),
                                Encoding::Hex);
  EXPECT_EQ(D.bytes(), B.bytes());
}

TEST(BufferCodec, ParseEncodingNames) {
  EXPECT_EQ(parseEncoding("utf8"), Encoding::Utf8);
  EXPECT_EQ(parseEncoding("utf-8"), Encoding::Utf8);
  EXPECT_EQ(parseEncoding("ucs2"), Encoding::Ucs2);
  EXPECT_EQ(parseEncoding("base64"), Encoding::Base64);
  EXPECT_EQ(parseEncoding("hex"), Encoding::Hex);
  EXPECT_EQ(parseEncoding("binary"), Encoding::BinaryString);
  EXPECT_EQ(parseEncoding("klingon"), std::nullopt);
}

TEST(BufferCodec, BinaryStringPacksTwoBytesOnChrome) {
  // §5.1: 2 bytes per UTF-16 code unit on non-validating browsers.
  BrowserEnv Env(chromeProfile());
  ASSERT_TRUE(Buffer::packsTwoBytesPerChar(Env.profile()));
  std::vector<uint8_t> Data = patternBytes(1000, 42);
  Buffer B(Env, Data);
  js::String Packed = B.toString(Encoding::BinaryString);
  EXPECT_LE(Packed.size(), Data.size() / 2 + 2);
  Buffer D = Buffer::fromString(Env, Packed, Encoding::BinaryString);
  EXPECT_EQ(D.bytes(), Data);
}

TEST(BufferCodec, BinaryStringOddLengthRoundTrip) {
  BrowserEnv Env(chromeProfile());
  for (size_t Len : {0u, 1u, 2u, 3u, 7u, 255u}) {
    std::vector<uint8_t> Data = patternBytes(Len, Len + 1);
    Buffer B(Env, Data);
    Buffer D = Buffer::fromString(Env, B.toString(Encoding::BinaryString),
                                  Encoding::BinaryString);
    EXPECT_EQ(D.bytes(), Data) << "len " << Len;
  }
}

TEST(BufferCodec, BinaryStringFallsBackOnValidatingBrowsers) {
  // Opera validates UTF-16, so the packed form (which can contain lone
  // surrogates) is unusable; one byte per character instead (§5.1).
  BrowserEnv Env(operaProfile());
  ASSERT_FALSE(Buffer::packsTwoBytesPerChar(Env.profile()));
  std::vector<uint8_t> Data = patternBytes(100, 7);
  Buffer B(Env, Data);
  js::String S = B.toString(Encoding::BinaryString);
  EXPECT_EQ(S.size(), Data.size()); // 1 byte per code unit.
  EXPECT_TRUE(js::isValidUtf16(S));
  Buffer D = Buffer::fromString(Env, S, Encoding::BinaryString);
  EXPECT_EQ(D.bytes(), Data);
}

TEST(BufferCodec, PackedBinaryStringSurvivesLocalStorage) {
  // End-to-end §5.1 story: packed strings store into localStorage on
  // Chrome, and the fallback form stores on validating Opera.
  for (const Profile *P : {&chromeProfile(), &operaProfile()}) {
    BrowserEnv Env(*P);
    std::vector<uint8_t> Data = patternBytes(512, 99);
    Buffer B(Env, Data);
    js::String S = B.toString(Encoding::BinaryString);
    ASSERT_EQ(Env.localStorage().setItem("blob", S), StoreResult::Ok)
        << P->Name;
    Buffer D = Buffer::fromString(Env, *Env.localStorage().getItem("blob"),
                                  Encoding::BinaryString);
    EXPECT_EQ(D.bytes(), Data) << P->Name;
  }
}

// Property test: every codec round-trips random payloads on every profile.
class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, Encoding>> {};

TEST_P(CodecRoundTrip, RandomPayloads) {
  const auto &[ProfileName, Codec] = GetParam();
  BrowserEnv Env(*findProfile(ProfileName));
  for (uint32_t Seed = 0; Seed != 8; ++Seed) {
    std::vector<uint8_t> Data = patternBytes(1 + Seed * 37, Seed);
    if (Codec == Encoding::Ucs2 && Data.size() % 2)
      Data.push_back(0); // UCS-2 is only defined for even byte counts.
    Buffer B(Env, Data);
    js::String S = B.toString(Codec);
    Buffer D = Buffer::fromString(Env, S, Codec);
    if (Codec == Encoding::Ascii) {
      // ASCII is lossy above 0x7F; compare the low 7 bits.
      ASSERT_EQ(D.bytes().size(), Data.size());
      for (size_t I = 0; I != Data.size(); ++I)
        EXPECT_EQ(D.bytes()[I], Data[I] & 0x7F);
      continue;
    }
    EXPECT_EQ(D.bytes(), Data) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, CodecRoundTrip,
    ::testing::Combine(::testing::Values("chrome", "firefox", "safari",
                                         "opera", "ie10", "ie8"),
                       ::testing::Values(Encoding::Ascii, Encoding::Ucs2,
                                         Encoding::Base64, Encoding::Hex,
                                         Encoding::BinaryString)));

} // namespace
