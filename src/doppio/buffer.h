//===- doppio/buffer.h - Node Buffer emulation --------------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Doppio's implementation of the Node JS Buffer module (§5.1 "Binary Data
/// in the Browser"): reads and writes of signed/unsigned integers and
/// floating-point values of various sizes in either endianness, plus string
/// codecs (ascii, utf8, ucs2, base64, hex) and the packed "binary string"
/// format that stores 2 bytes per UTF-16 code unit on browsers that do not
/// validate strings, falling back to 1 byte per character elsewhere.
///
/// The backing store is a typed array when the browser supports them
/// (registering with the environment's memory accounting — this is what
/// makes the Safari leak visible) or a plain JS number array otherwise,
/// which the cost model charges more heavily per access.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_BUFFER_H
#define DOPPIO_DOPPIO_BUFFER_H

#include "browser/env.h"
#include "browser/js_string.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace rt {

/// String codecs supported by Buffer (§5.1 lists ASCII, UTF-8, UTF-16/UCS-2,
/// BASE64, HEX, plus the packed binary string).
enum class Encoding { Ascii, Utf8, Ucs2, Base64, Hex, BinaryString };

/// Parses a Node-style encoding name ("utf8", "ucs2", ...).
std::optional<Encoding> parseEncoding(const std::string &Name);
const char *encodingName(Encoding E);

/// A fixed-size binary buffer, the unit of all binary data in Doppio.
class Buffer {
public:
  enum class Backing { TypedArray, NumberArray };

  /// Allocates a zero-filled buffer of \p Size bytes, choosing the backing
  /// store from the environment's profile.
  Buffer(browser::BrowserEnv &Env, size_t Size);

  /// Wraps existing bytes.
  Buffer(browser::BrowserEnv &Env, std::vector<uint8_t> Bytes);

  Buffer(Buffer &&Other) noexcept;
  Buffer &operator=(Buffer &&Other) noexcept;
  Buffer(const Buffer &) = delete;
  Buffer &operator=(const Buffer &) = delete;
  ~Buffer();

  size_t size() const { return Bytes.size(); }
  Backing backing() const { return Store; }

  // Scalar accessors. Offsets are asserted in range.
  uint8_t readUInt8(size_t Off) const;
  int8_t readInt8(size_t Off) const;
  void writeUInt8(uint8_t V, size_t Off);
  void writeInt8(int8_t V, size_t Off);

  uint16_t readUInt16LE(size_t Off) const;
  uint16_t readUInt16BE(size_t Off) const;
  int16_t readInt16LE(size_t Off) const;
  int16_t readInt16BE(size_t Off) const;
  void writeUInt16LE(uint16_t V, size_t Off);
  void writeUInt16BE(uint16_t V, size_t Off);

  uint32_t readUInt32LE(size_t Off) const;
  uint32_t readUInt32BE(size_t Off) const;
  int32_t readInt32LE(size_t Off) const;
  int32_t readInt32BE(size_t Off) const;
  void writeUInt32LE(uint32_t V, size_t Off);
  void writeUInt32BE(uint32_t V, size_t Off);

  float readFloatLE(size_t Off) const;
  float readFloatBE(size_t Off) const;
  void writeFloatLE(float V, size_t Off);
  void writeFloatBE(float V, size_t Off);

  double readDoubleLE(size_t Off) const;
  double readDoubleBE(size_t Off) const;
  void writeDoubleLE(double V, size_t Off);
  void writeDoubleBE(double V, size_t Off);

  /// Copies [SrcStart, SrcEnd) into \p Dest at \p DestOff. Returns bytes
  /// copied (clamped to what fits).
  size_t copyTo(Buffer &Dest, size_t DestOff, size_t SrcStart,
                size_t SrcEnd) const;

  /// Fills [Start, End) with \p Value.
  void fill(uint8_t Value, size_t Start, size_t End);

  /// Decodes [Start, End) to a JS string with codec \p E. For BinaryString
  /// the result packs 2 bytes per code unit on non-validating browsers and
  /// 1 byte per code unit otherwise (§5.1).
  js::String toString(Encoding E, size_t Start, size_t End) const;
  js::String toString(Encoding E) const { return toString(E, 0, size()); }

  /// Encodes \p Text with codec \p E into the buffer at \p Off. Returns
  /// the number of bytes written (stops when full).
  size_t write(const js::String &Text, Encoding E, size_t Off = 0);

  /// Number of bytes \p Text decodes to under codec \p E.
  static size_t byteLength(browser::BrowserEnv &Env, const js::String &Text,
                           Encoding E);

  /// Builds a buffer holding the decoded bytes of \p Text.
  static Buffer fromString(browser::BrowserEnv &Env, const js::String &Text,
                           Encoding E);

  /// True if this browser's binary-string codec packs two bytes per code
  /// unit (non-validating engines only, §5.1).
  static bool packsTwoBytesPerChar(const browser::Profile &P) {
    return !P.ValidatesStrings;
  }

  /// Direct byte view, used by simulation glue (not part of the Node API).
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> &bytes() { return Bytes; }

  /// Moves the bytes out, leaving the buffer empty (simulation glue, like
  /// bytes()). The typed array stays allocated in the memory model: the
  /// destructor still frees the size noted at allocation, so live, leaked
  /// and paging accounting are the same as if the bytes had been copied.
  std::vector<uint8_t> release() { return std::move(Bytes); }

  /// Charges an access to \p NumBytes of this buffer at its backing
  /// store's per-byte cost, as a read, write or copyTo of them does
  /// (simulation glue: lets a caller that moves the bytes out instead of
  /// copying them still pay the copy).
  void chargeAccess(size_t NumBytes) const;

private:
  browser::BrowserEnv *Env;
  std::vector<uint8_t> Bytes;
  /// Bytes passed to noteTypedArrayAlloc (0 for a number array).
  size_t NotedBytes = 0;
  Backing Store;
};

} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_BUFFER_H
