//===- doppio/cont/snapshot.h - Versioned snapshot wire form -----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §16.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The [magic u32][version u32] header every snapshot image starts with:
/// the Continuation descriptor, proc checkpoint blobs, the JVM image and
/// the storage directory. The fields after it go through the one byte
/// codec, browser/wire.h (DESIGN.md §20), whose sticky failure turns any
/// truncated or oversized field into a rejected image, never an
/// out-of-bounds read.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CONT_SNAPSHOT_H
#define DOPPIO_DOPPIO_CONT_SNAPSHOT_H

#include "browser/wire.h"

#include <cstdint>
#include <vector>

namespace doppio {
namespace rt {
namespace snap {

/// A wire::Writer that starts with the header.
class Writer : public browser::wire::Writer {
public:
  Writer(uint32_t Magic, uint32_t Version) {
    u32(Magic);
    u32(Version);
  }
};

/// A wire::Reader past the header; not ok() unless the header carries
/// \p Magic and exactly \p Version.
class Reader : public browser::wire::Reader {
public:
  Reader(const std::vector<uint8_t> &B, uint32_t Magic, uint32_t Version)
      : browser::wire::Reader(B) {
    if (u32() != Magic || u32() != Version)
      fail();
  }
};

} // namespace snap
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_CONT_SNAPSHOT_H
