//===- doppio/buffer.cpp --------------------------------------------------==//

#include "doppio/buffer.h"

#include <bit>
#include <cassert>

using namespace doppio;
using namespace doppio::rt;

std::optional<Encoding> rt::parseEncoding(const std::string &Name) {
  if (Name == "ascii")
    return Encoding::Ascii;
  if (Name == "utf8" || Name == "utf-8")
    return Encoding::Utf8;
  if (Name == "ucs2" || Name == "ucs-2" || Name == "utf16le" ||
      Name == "utf-16le")
    return Encoding::Ucs2;
  if (Name == "base64")
    return Encoding::Base64;
  if (Name == "hex")
    return Encoding::Hex;
  if (Name == "binary_string" || Name == "binary")
    return Encoding::BinaryString;
  return std::nullopt;
}

const char *rt::encodingName(Encoding E) {
  switch (E) {
  case Encoding::Ascii:
    return "ascii";
  case Encoding::Utf8:
    return "utf8";
  case Encoding::Ucs2:
    return "ucs2";
  case Encoding::Base64:
    return "base64";
  case Encoding::Hex:
    return "hex";
  case Encoding::BinaryString:
    return "binary_string";
  }
  return "?";
}

Buffer::Buffer(browser::BrowserEnv &Env, size_t Size)
    : Env(&Env), Bytes(Size, 0),
      Store(Env.profile().HasTypedArrays ? Backing::TypedArray
                                         : Backing::NumberArray) {
  if (Store == Backing::TypedArray) {
    NotedBytes = Size;
    Env.noteTypedArrayAlloc(NotedBytes);
  }
}

Buffer::Buffer(browser::BrowserEnv &Env, std::vector<uint8_t> InitBytes)
    : Env(&Env), Bytes(std::move(InitBytes)),
      Store(Env.profile().HasTypedArrays ? Backing::TypedArray
                                         : Backing::NumberArray) {
  if (Store == Backing::TypedArray) {
    NotedBytes = Bytes.size();
    Env.noteTypedArrayAlloc(NotedBytes);
  }
}

Buffer::Buffer(Buffer &&Other) noexcept
    : Env(Other.Env), Bytes(std::move(Other.Bytes)),
      NotedBytes(Other.NotedBytes), Store(Other.Store) {
  Other.Env = nullptr;
  Other.Bytes.clear();
  Other.NotedBytes = 0;
}

Buffer &Buffer::operator=(Buffer &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Env && NotedBytes)
    Env->noteTypedArrayFree(NotedBytes);
  Env = Other.Env;
  Bytes = std::move(Other.Bytes);
  NotedBytes = Other.NotedBytes;
  Store = Other.Store;
  Other.Env = nullptr;
  Other.Bytes.clear();
  Other.NotedBytes = 0;
  return *this;
}

Buffer::~Buffer() {
  if (Env && NotedBytes)
    Env->noteTypedArrayFree(NotedBytes);
}

void Buffer::chargeAccess(size_t NumBytes) const {
  // Typed arrays read/write binary data directly; number arrays box every
  // element as a JS double, which is markedly slower (§5.1, §5.2).
  uint64_t PerByte = Store == Backing::TypedArray ? 1 : 6;
  Env->chargeCompute(PerByte * NumBytes + 2);
}

uint8_t Buffer::readUInt8(size_t Off) const {
  assert(Off < Bytes.size() && "buffer read out of range");
  chargeAccess(1);
  return Bytes[Off];
}

int8_t Buffer::readInt8(size_t Off) const {
  return static_cast<int8_t>(readUInt8(Off));
}

void Buffer::writeUInt8(uint8_t V, size_t Off) {
  assert(Off < Bytes.size() && "buffer write out of range");
  chargeAccess(1);
  Bytes[Off] = V;
}

void Buffer::writeInt8(int8_t V, size_t Off) {
  writeUInt8(static_cast<uint8_t>(V), Off);
}

uint16_t Buffer::readUInt16LE(size_t Off) const {
  assert(Off + 2 <= Bytes.size() && "buffer read out of range");
  chargeAccess(2);
  return static_cast<uint16_t>(Bytes[Off] | (Bytes[Off + 1] << 8));
}

uint16_t Buffer::readUInt16BE(size_t Off) const {
  assert(Off + 2 <= Bytes.size() && "buffer read out of range");
  chargeAccess(2);
  return static_cast<uint16_t>((Bytes[Off] << 8) | Bytes[Off + 1]);
}

int16_t Buffer::readInt16LE(size_t Off) const {
  return static_cast<int16_t>(readUInt16LE(Off));
}

int16_t Buffer::readInt16BE(size_t Off) const {
  return static_cast<int16_t>(readUInt16BE(Off));
}

void Buffer::writeUInt16LE(uint16_t V, size_t Off) {
  assert(Off + 2 <= Bytes.size() && "buffer write out of range");
  chargeAccess(2);
  Bytes[Off] = static_cast<uint8_t>(V);
  Bytes[Off + 1] = static_cast<uint8_t>(V >> 8);
}

void Buffer::writeUInt16BE(uint16_t V, size_t Off) {
  assert(Off + 2 <= Bytes.size() && "buffer write out of range");
  chargeAccess(2);
  Bytes[Off] = static_cast<uint8_t>(V >> 8);
  Bytes[Off + 1] = static_cast<uint8_t>(V);
}

uint32_t Buffer::readUInt32LE(size_t Off) const {
  assert(Off + 4 <= Bytes.size() && "buffer read out of range");
  chargeAccess(4);
  return static_cast<uint32_t>(Bytes[Off]) |
         (static_cast<uint32_t>(Bytes[Off + 1]) << 8) |
         (static_cast<uint32_t>(Bytes[Off + 2]) << 16) |
         (static_cast<uint32_t>(Bytes[Off + 3]) << 24);
}

uint32_t Buffer::readUInt32BE(size_t Off) const {
  assert(Off + 4 <= Bytes.size() && "buffer read out of range");
  chargeAccess(4);
  return (static_cast<uint32_t>(Bytes[Off]) << 24) |
         (static_cast<uint32_t>(Bytes[Off + 1]) << 16) |
         (static_cast<uint32_t>(Bytes[Off + 2]) << 8) |
         static_cast<uint32_t>(Bytes[Off + 3]);
}

int32_t Buffer::readInt32LE(size_t Off) const {
  return static_cast<int32_t>(readUInt32LE(Off));
}

int32_t Buffer::readInt32BE(size_t Off) const {
  return static_cast<int32_t>(readUInt32BE(Off));
}

void Buffer::writeUInt32LE(uint32_t V, size_t Off) {
  assert(Off + 4 <= Bytes.size() && "buffer write out of range");
  chargeAccess(4);
  Bytes[Off] = static_cast<uint8_t>(V);
  Bytes[Off + 1] = static_cast<uint8_t>(V >> 8);
  Bytes[Off + 2] = static_cast<uint8_t>(V >> 16);
  Bytes[Off + 3] = static_cast<uint8_t>(V >> 24);
}

void Buffer::writeUInt32BE(uint32_t V, size_t Off) {
  assert(Off + 4 <= Bytes.size() && "buffer write out of range");
  chargeAccess(4);
  Bytes[Off] = static_cast<uint8_t>(V >> 24);
  Bytes[Off + 1] = static_cast<uint8_t>(V >> 16);
  Bytes[Off + 2] = static_cast<uint8_t>(V >> 8);
  Bytes[Off + 3] = static_cast<uint8_t>(V);
}

float Buffer::readFloatLE(size_t Off) const {
  return std::bit_cast<float>(readUInt32LE(Off));
}

float Buffer::readFloatBE(size_t Off) const {
  return std::bit_cast<float>(readUInt32BE(Off));
}

void Buffer::writeFloatLE(float V, size_t Off) {
  writeUInt32LE(std::bit_cast<uint32_t>(V), Off);
}

void Buffer::writeFloatBE(float V, size_t Off) {
  writeUInt32BE(std::bit_cast<uint32_t>(V), Off);
}

double Buffer::readDoubleLE(size_t Off) const {
  uint64_t Lo = readUInt32LE(Off);
  uint64_t Hi = readUInt32LE(Off + 4);
  return std::bit_cast<double>(Lo | (Hi << 32));
}

double Buffer::readDoubleBE(size_t Off) const {
  uint64_t Hi = readUInt32BE(Off);
  uint64_t Lo = readUInt32BE(Off + 4);
  return std::bit_cast<double>(Lo | (Hi << 32));
}

void Buffer::writeDoubleLE(double V, size_t Off) {
  uint64_t Raw = std::bit_cast<uint64_t>(V);
  writeUInt32LE(static_cast<uint32_t>(Raw), Off);
  writeUInt32LE(static_cast<uint32_t>(Raw >> 32), Off + 4);
}

void Buffer::writeDoubleBE(double V, size_t Off) {
  uint64_t Raw = std::bit_cast<uint64_t>(V);
  writeUInt32BE(static_cast<uint32_t>(Raw >> 32), Off);
  writeUInt32BE(static_cast<uint32_t>(Raw), Off + 4);
}

size_t Buffer::copyTo(Buffer &Dest, size_t DestOff, size_t SrcStart,
                      size_t SrcEnd) const {
  assert(SrcStart <= SrcEnd && SrcEnd <= Bytes.size() && "bad copy range");
  size_t Len = SrcEnd - SrcStart;
  if (DestOff >= Dest.Bytes.size())
    return 0;
  Len = std::min(Len, Dest.Bytes.size() - DestOff);
  chargeAccess(Len);
  std::copy(Bytes.begin() + SrcStart, Bytes.begin() + SrcStart + Len,
            Dest.Bytes.begin() + DestOff);
  return Len;
}

void Buffer::fill(uint8_t Value, size_t Start, size_t End) {
  assert(Start <= End && End <= Bytes.size() && "bad fill range");
  chargeAccess(End - Start);
  std::fill(Bytes.begin() + Start, Bytes.begin() + End, Value);
}

//===----------------------------------------------------------------------===//
// String codecs
//===----------------------------------------------------------------------===//

static const char Base64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

static int base64Value(char16_t C) {
  if (C >= u'A' && C <= u'Z')
    return C - u'A';
  if (C >= u'a' && C <= u'z')
    return C - u'a' + 26;
  if (C >= u'0' && C <= u'9')
    return C - u'0' + 52;
  if (C == u'+')
    return 62;
  if (C == u'/')
    return 63;
  return -1;
}

static int hexValue(char16_t C) {
  if (C >= u'0' && C <= u'9')
    return C - u'0';
  if (C >= u'a' && C <= u'f')
    return C - u'a' + 10;
  if (C >= u'A' && C <= u'F')
    return C - u'A' + 10;
  return -1;
}

/// Encodes a UTF-16 string as UTF-8 bytes. Lone surrogates become U+FFFD,
/// matching JS TextEncoder behaviour.
static std::vector<uint8_t> utf16ToUtf8(const js::String &Text) {
  std::vector<uint8_t> Out;
  Out.reserve(Text.size());
  for (size_t I = 0, E = Text.size(); I != E; ++I) {
    uint32_t Cp = Text[I];
    if (js::isHighSurrogate(Text[I]) && I + 1 != E &&
        js::isLowSurrogate(Text[I + 1])) {
      Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Text[I + 1] - 0xDC00);
      ++I;
    } else if (js::isHighSurrogate(Text[I]) ||
               js::isLowSurrogate(Text[I])) {
      Cp = 0xFFFD;
    }
    if (Cp < 0x80) {
      Out.push_back(static_cast<uint8_t>(Cp));
    } else if (Cp < 0x800) {
      Out.push_back(static_cast<uint8_t>(0xC0 | (Cp >> 6)));
      Out.push_back(static_cast<uint8_t>(0x80 | (Cp & 0x3F)));
    } else if (Cp < 0x10000) {
      Out.push_back(static_cast<uint8_t>(0xE0 | (Cp >> 12)));
      Out.push_back(static_cast<uint8_t>(0x80 | ((Cp >> 6) & 0x3F)));
      Out.push_back(static_cast<uint8_t>(0x80 | (Cp & 0x3F)));
    } else {
      Out.push_back(static_cast<uint8_t>(0xF0 | (Cp >> 18)));
      Out.push_back(static_cast<uint8_t>(0x80 | ((Cp >> 12) & 0x3F)));
      Out.push_back(static_cast<uint8_t>(0x80 | ((Cp >> 6) & 0x3F)));
      Out.push_back(static_cast<uint8_t>(0x80 | (Cp & 0x3F)));
    }
  }
  return Out;
}

/// Decodes UTF-8 bytes to UTF-16. Malformed sequences decode to U+FFFD.
static js::String utf8ToUtf16(const uint8_t *Data, size_t Len) {
  js::String Out;
  Out.reserve(Len);
  size_t I = 0;
  auto cont = [&](size_t Off) {
    return I + Off < Len && (Data[I + Off] & 0xC0) == 0x80;
  };
  while (I < Len) {
    uint8_t B = Data[I];
    uint32_t Cp = 0xFFFD;
    size_t Consumed = 1;
    if (B < 0x80) {
      Cp = B;
    } else if ((B & 0xE0) == 0xC0 && cont(1)) {
      Cp = ((B & 0x1F) << 6) | (Data[I + 1] & 0x3F);
      Consumed = 2;
    } else if ((B & 0xF0) == 0xE0 && cont(1) && cont(2)) {
      Cp = ((B & 0x0F) << 12) | ((Data[I + 1] & 0x3F) << 6) |
           (Data[I + 2] & 0x3F);
      Consumed = 3;
    } else if ((B & 0xF8) == 0xF0 && cont(1) && cont(2) && cont(3)) {
      Cp = ((B & 0x07) << 18) | ((Data[I + 1] & 0x3F) << 12) |
           ((Data[I + 2] & 0x3F) << 6) | (Data[I + 3] & 0x3F);
      Consumed = 4;
    }
    I += Consumed;
    if (Cp < 0x10000) {
      Out.push_back(static_cast<char16_t>(Cp));
    } else {
      Cp -= 0x10000;
      Out.push_back(static_cast<char16_t>(0xD800 + (Cp >> 10)));
      Out.push_back(static_cast<char16_t>(0xDC00 + (Cp & 0x3FF)));
    }
  }
  return Out;
}

js::String Buffer::toString(Encoding E, size_t Start, size_t End) const {
  assert(Start <= End && End <= Bytes.size() && "bad toString range");
  const uint8_t *Data = Bytes.data() + Start;
  size_t Len = End - Start;
  chargeAccess(Len);
  js::String Out;
  switch (E) {
  case Encoding::Ascii:
    Out.reserve(Len);
    for (size_t I = 0; I != Len; ++I)
      Out.push_back(Data[I] & 0x7F);
    return Out;
  case Encoding::Utf8:
    return utf8ToUtf16(Data, Len);
  case Encoding::Ucs2:
    for (size_t I = 0; I + 1 < Len; I += 2)
      Out.push_back(static_cast<char16_t>(Data[I] | (Data[I + 1] << 8)));
    return Out;
  case Encoding::Base64: {
    for (size_t I = 0; I < Len; I += 3) {
      uint32_t Group = Data[I] << 16;
      if (I + 1 < Len)
        Group |= Data[I + 1] << 8;
      if (I + 2 < Len)
        Group |= Data[I + 2];
      Out.push_back(Base64Alphabet[(Group >> 18) & 0x3F]);
      Out.push_back(Base64Alphabet[(Group >> 12) & 0x3F]);
      Out.push_back(I + 1 < Len ? Base64Alphabet[(Group >> 6) & 0x3F]
                                : u'=');
      Out.push_back(I + 2 < Len ? Base64Alphabet[Group & 0x3F] : u'=');
    }
    return Out;
  }
  case Encoding::Hex: {
    const char *Digits = "0123456789abcdef";
    Out.reserve(Len * 2);
    for (size_t I = 0; I != Len; ++I) {
      Out.push_back(Digits[Data[I] >> 4]);
      Out.push_back(Digits[Data[I] & 0xF]);
    }
    return Out;
  }
  case Encoding::BinaryString: {
    if (!packsTwoBytesPerChar(Env->profile())) {
      // Fallback: one byte per code unit (always valid UTF-16).
      Out.reserve(Len);
      for (size_t I = 0; I != Len; ++I)
        Out.push_back(Data[I]);
      return Out;
    }
    // Packed format: header unit carries the odd-length flag, then each
    // unit packs two bytes little-endian. Some of these units are lone
    // surrogates — exactly the sequences validating browsers refuse.
    Out.reserve(1 + (Len + 1) / 2);
    Out.push_back(static_cast<char16_t>(Len & 1));
    size_t I = 0;
    for (; I + 1 < Len; I += 2)
      Out.push_back(static_cast<char16_t>(Data[I] | (Data[I + 1] << 8)));
    if (I < Len)
      Out.push_back(static_cast<char16_t>(Data[I]));
    return Out;
  }
  }
  return Out;
}

/// Decodes \p Text under codec \p E into raw bytes.
static std::vector<uint8_t> decodeString(const browser::Profile &Prof,
                                         const js::String &Text,
                                         Encoding E) {
  std::vector<uint8_t> Out;
  switch (E) {
  case Encoding::Ascii:
    Out.reserve(Text.size());
    for (char16_t C : Text)
      Out.push_back(static_cast<uint8_t>(C & 0xFF));
    return Out;
  case Encoding::Utf8:
    return utf16ToUtf8(Text);
  case Encoding::Ucs2:
    Out.reserve(Text.size() * 2);
    for (char16_t C : Text) {
      Out.push_back(static_cast<uint8_t>(C & 0xFF));
      Out.push_back(static_cast<uint8_t>(C >> 8));
    }
    return Out;
  case Encoding::Base64: {
    int Bits = 0, Acc = 0;
    for (char16_t C : Text) {
      if (C == u'=')
        break;
      int V = base64Value(C);
      if (V < 0)
        continue; // Skip whitespace/invalid, like Node.
      Acc = (Acc << 6) | V;
      Bits += 6;
      if (Bits >= 8) {
        Bits -= 8;
        Out.push_back(static_cast<uint8_t>((Acc >> Bits) & 0xFF));
      }
    }
    return Out;
  }
  case Encoding::Hex: {
    for (size_t I = 0; I + 1 < Text.size(); I += 2) {
      int Hi = hexValue(Text[I]), Lo = hexValue(Text[I + 1]);
      if (Hi < 0 || Lo < 0)
        break;
      Out.push_back(static_cast<uint8_t>((Hi << 4) | Lo));
    }
    return Out;
  }
  case Encoding::BinaryString: {
    if (!Buffer::packsTwoBytesPerChar(Prof)) {
      Out.reserve(Text.size());
      for (char16_t C : Text)
        Out.push_back(static_cast<uint8_t>(C & 0xFF));
      return Out;
    }
    if (Text.empty())
      return Out;
    bool Odd = (Text[0] & 1) != 0;
    size_t Units = Text.size() - 1;
    Out.reserve(Units * 2);
    for (size_t I = 1; I <= Units; ++I) {
      char16_t C = Text[I];
      Out.push_back(static_cast<uint8_t>(C & 0xFF));
      bool IsLast = I == Units;
      if (!(IsLast && Odd))
        Out.push_back(static_cast<uint8_t>(C >> 8));
    }
    return Out;
  }
  }
  return Out;
}

size_t Buffer::write(const js::String &Text, Encoding E, size_t Off) {
  std::vector<uint8_t> Decoded = decodeString(Env->profile(), Text, E);
  if (Off >= Bytes.size())
    return 0;
  size_t Len = std::min(Decoded.size(), Bytes.size() - Off);
  chargeAccess(Len);
  std::copy(Decoded.begin(), Decoded.begin() + Len, Bytes.begin() + Off);
  return Len;
}

size_t Buffer::byteLength(browser::BrowserEnv &Env, const js::String &Text,
                          Encoding E) {
  return decodeString(Env.profile(), Text, E).size();
}

Buffer Buffer::fromString(browser::BrowserEnv &Env, const js::String &Text,
                          Encoding E) {
  return Buffer(Env, decodeString(Env.profile(), Text, E));
}
