//===- doppio/cont/snapshot.h - Versioned snapshot wire form -----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §16.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writer/Reader helpers for the continuation-substrate wire forms: the
/// Continuation descriptor, proc checkpoint blobs, and the JVM image all
/// share one framing discipline — a magic + u32 version header, big-endian
/// integers (browser/wire.h), and length-prefixed strings/byte blocks.
/// Readers are bounds-checked cursors: any truncated or oversized field
/// flips a sticky failure bit instead of reading past the end, so a
/// corrupted migration blob is rejected, never interpreted.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CONT_SNAPSHOT_H
#define DOPPIO_DOPPIO_CONT_SNAPSHOT_H

#include "browser/wire.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace doppio {
namespace rt {
namespace snap {

/// Appends framed fields to a byte vector.
class Writer {
public:
  /// Starts a snapshot: [magic u32][version u32].
  Writer(uint32_t Magic, uint32_t Version) {
    browser::wire::putU32(Out, Magic);
    browser::wire::putU32(Out, Version);
  }

  void u8(uint8_t V) { Out.push_back(V); }
  void u32(uint32_t V) { browser::wire::putU32(Out, V); }
  void u64(uint64_t V) { browser::wire::putU64(Out, V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.insert(Out.end(), S.begin(), S.end());
  }
  void bytes(const std::vector<uint8_t> &B) {
    u32(static_cast<uint32_t>(B.size()));
    Out.insert(Out.end(), B.begin(), B.end());
  }

  std::vector<uint8_t> take() { return std::move(Out); }
  size_t size() const { return Out.size(); }

private:
  std::vector<uint8_t> Out;
};

/// Bounds-checked cursor over a snapshot. After any failed read, ok() is
/// false and every further read returns a zero value — callers check ok()
/// once at the end (or at structural boundaries), not per field.
class Reader {
public:
  /// Opens a snapshot, checking [magic][version == Version].
  Reader(const std::vector<uint8_t> &B, uint32_t Magic, uint32_t Version)
      : B(B) {
    if (u32() != Magic || u32() != Version)
      Ok = false;
  }

  bool ok() const { return Ok; }
  bool atEnd() const { return Ok && Pos == B.size(); }
  /// Unread bytes (0 once a read failed): the bound for a count taken
  /// from the image before anything is sized by it.
  size_t remaining() const { return Ok ? B.size() - Pos : 0; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return B[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = browser::wire::getU32(B.data() + Pos);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = browser::wire::getU64(B.data() + Pos);
    Pos += 8;
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return std::string();
    std::string S(B.begin() + static_cast<ptrdiff_t>(Pos),
                  B.begin() + static_cast<ptrdiff_t>(Pos + N));
    Pos += N;
    return S;
  }
  std::vector<uint8_t> bytes() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::vector<uint8_t> V(B.begin() + static_cast<ptrdiff_t>(Pos),
                           B.begin() + static_cast<ptrdiff_t>(Pos + N));
    Pos += N;
    return V;
  }

private:
  bool need(size_t N) {
    if (!Ok || B.size() - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  const std::vector<uint8_t> &B;
  size_t Pos = 0;
  bool Ok = true;
};

} // namespace snap
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_CONT_SNAPSHOT_H
