//===- browser/wire.h - The one big-endian byte codec ------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §20.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree's one binary codec (DESIGN.md §20): Writer appends big-endian
/// integers and byte runs to a vector, and Reader is the matching
/// bounds-checked cursor. Every in-tree format decodes through Reader:
/// class files, the snapshot images (doppio/cont/snapshot.h adds their
/// [magic][version] header), the storage journal and directory, and the
/// cluster control payloads.
///
/// Reader's contract is sticky failure: a read that would run past the
/// end reads nothing, returns a zero value, and clears ok() for good, so
/// every later read is a zero value too. A decoder reads its fields
/// unconditionally and checks ok() (or atEnd()) once, at the end or at a
/// structural boundary, never an offset.
///
/// The free putU*/getU* helpers serve the stream framers that peek at a
/// length prefix in a growing buffer before a whole frame has arrived
/// (the doppiod frame codec and the RFC6455 WebSocket codec); setU*
/// overwrite bytes in place.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BROWSER_WIRE_H
#define DOPPIO_BROWSER_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace doppio {
namespace browser {
namespace wire {

inline void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V));
}

/// Appends \p V big-endian in one insert: one capacity check per field,
/// not one per byte. The buffer grows to the capacities byte-wise
/// push_backs reach: a range insert sizes its growth by the insert, and
/// with that growth alone perfbench serve_files' peak_rss_mb read 3%
/// higher.
template <typename T> void putBigEndian(std::vector<uint8_t> &Out, T V) {
  size_t Cap = Out.capacity();
  if (Cap - Out.size() < sizeof(T)) {
    while (Cap < Out.size() + sizeof(T))
      Cap = Cap ? 2 * Cap : 1;
    Out.reserve(Cap);
  }
  uint8_t B[sizeof(T)];
  for (size_t I = 0; I != sizeof(T); ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * (sizeof(T) - 1 - I)));
  Out.insert(Out.end(), B, B + sizeof(T));
}

inline void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  putBigEndian(Out, V);
}

inline void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  putBigEndian(Out, V);
}

inline uint16_t getU16(const uint8_t *P) {
  return static_cast<uint16_t>((static_cast<uint16_t>(P[0]) << 8) | P[1]);
}

inline uint32_t getU32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V = (V << 8) | P[I];
  return V;
}

inline uint64_t getU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V = (V << 8) | P[I];
  return V;
}

/// In-place stores over bytes already written, for back-patching a field
/// whose value is known only later (the assembler's branch offsets).
inline void setU16(uint8_t *P, uint16_t V) {
  P[0] = static_cast<uint8_t>(V >> 8);
  P[1] = static_cast<uint8_t>(V);
}

inline void setU32(uint8_t *P, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    P[I] = static_cast<uint8_t>(V >> (24 - 8 * I));
}

/// Appends big-endian fields to a byte vector.
class Writer {
public:
  /// Starts empty, or appends to \p Out (take() hands it back).
  explicit Writer(std::vector<uint8_t> Out = {}) : Out(std::move(Out)) {}

  void u8(uint8_t V) { Out.push_back(V); }
  void u16(uint16_t V) { putU16(Out, V); }
  void u32(uint32_t V) { putU32(Out, V); }
  void u64(uint64_t V) { putU64(Out, V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// u32 length, then the bytes.
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    raw(S);
  }
  void bytes(const std::vector<uint8_t> &B) {
    u32(static_cast<uint32_t>(B.size()));
    raw(B);
  }
  /// The bytes alone, with no length prefix.
  template <typename Range> void raw(const Range &B) {
    Out.insert(Out.end(), B.begin(), B.end());
  }

  const uint8_t *data() const { return Out.data(); }
  size_t size() const { return Out.size(); }
  std::vector<uint8_t> take() { return std::move(Out); }

private:
  std::vector<uint8_t> Out;
};

/// Bounds-checked, sticky-fail cursor over a byte vector (see the file
/// comment). The vector must outlive the Reader.
class Reader {
public:
  explicit Reader(const std::vector<uint8_t> &B) : B(B) {}

  bool ok() const { return Ok; }
  /// True when every byte was read and no read failed: the check that a
  /// fixed-size format carries nothing after its last field.
  bool atEnd() const { return Ok && Pos == B.size(); }
  size_t position() const { return Pos; }
  /// Unread bytes (0 once a read failed): the bound for a count taken
  /// from the input before anything is sized by it.
  size_t remaining() const { return Ok ? B.size() - Pos : 0; }
  /// Marks the input malformed, as a short read does. For decoders that
  /// find a well-read value they refuse.
  void fail() { Ok = false; }

  uint8_t u8() { return need(1) ? B[Pos++] : 0; }
  uint16_t u16() { return bigEndian<uint16_t>(); }
  uint32_t u32() { return bigEndian<uint32_t>(); }
  uint64_t u64() { return bigEndian<uint64_t>(); }
  int64_t i64() { return static_cast<int64_t>(u64()); }

  /// A u32 length, then that many bytes.
  std::string str() { return str(u32()); }
  std::vector<uint8_t> bytes() { return bytes(u32()); }
  /// Exactly \p N bytes, with no length prefix.
  std::string str(size_t N) { return take<std::string>(N); }
  std::vector<uint8_t> bytes(size_t N) {
    return take<std::vector<uint8_t>>(N);
  }
  void skip(size_t N) {
    if (need(N))
      Pos += N;
  }
  /// Every unread byte (none once a read failed); the cursor ends at the
  /// end. For formats whose last field runs to the end of the input.
  std::vector<uint8_t> rest() { return bytes(remaining()); }

private:
  bool need(size_t N) {
    if (!Ok || B.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }
  template <typename T> T bigEndian() {
    if (!need(sizeof(T)))
      return 0;
    T V = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      V = static_cast<T>((V << 8) | B[Pos + I]);
    Pos += sizeof(T);
    return V;
  }
  template <typename Out> Out take(size_t N) {
    if (!need(N))
      return Out();
    auto First = B.begin() + static_cast<std::ptrdiff_t>(Pos);
    Pos += N;
    return Out(First, First + static_cast<std::ptrdiff_t>(N));
  }

  const std::vector<uint8_t> &B;
  size_t Pos = 0;
  bool Ok = true;
};

} // namespace wire
} // namespace browser
} // namespace doppio

#endif // DOPPIO_BROWSER_WIRE_H
