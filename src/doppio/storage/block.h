//===- doppio/storage/block.h - Content-addressed blocks ---------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §19.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The block vocabulary of the storage hierarchy: values handed to the
/// cached key/value store are split into fixed-size blocks addressed by
/// the hash of their contents. Content addressing buys two things over
/// slow browser persistence:
///
///  - deduplication: identical blocks (zero-filled file tails, repeated
///    class-file preambles) occupy one cache slot and one slow-store
///    object no matter how many logical keys reference them, and
///  - immutability: a block's key never changes meaning, so blocks can be
///    written to the slow backend *before* the journal commit that
///    references them without any torn-write hazard — a half-flushed
///    block set is garbage, never corruption (DESIGN.md §19).
///
/// A Manifest is the ordered block list for one logical value; the
/// Directory maps logical keys to manifests and serializes to the
/// snapshot wire form (a snap:: header, then writeManifestEntry per key)
/// persisted by checkpoints.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_STORAGE_BLOCK_H
#define DOPPIO_DOPPIO_STORAGE_BLOCK_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace doppio {
namespace browser::wire {
class Reader;
class Writer;
} // namespace browser::wire

namespace rt {
namespace storage {

/// Content address of one block: the 64-bit content hash plus the block
/// size. The size rides in the id (and in the slow-store key) so a
/// truncated slow-store object can never silently satisfy a fetch.
struct BlockId {
  uint64_t Hash = 0;
  uint32_t Size = 0;

  bool operator==(const BlockId &O) const {
    return Hash == O.Hash && Size == O.Size;
  }
  bool operator!=(const BlockId &O) const { return !(*this == O); }
  bool operator<(const BlockId &O) const {
    return Hash != O.Hash ? Hash < O.Hash : Size < O.Size;
  }
};

/// Hash-table functor for BlockId. The content hash is already uniform
/// (XXH64, or FNV-1a through fmix64 for older ids), so it serves as is.
struct BlockIdHash {
  size_t operator()(const BlockId &B) const {
    return static_cast<size_t>(B.Hash);
  }
};

/// Hashes \p Size bytes at \p Data with XXH64 (seed 0): four independent
/// 64-bit lanes over 32-byte stripes, then 8-, 4- and 1-byte tails, then
/// XXH64's avalanche. Words load as little-endian, so an id is the same
/// on every host. A stored id is an opaque name: reads fetch by the id in
/// the manifest and never re-hash, so blocks written under an earlier hash
/// (FNV-1a) still load, and GC drops them once nothing references them.
uint64_t hashBlock(const uint8_t *Data, size_t Size);

/// The slow-store key of a block: "b:<hash hex>.<size>".
std::string blockKey(const BlockId &Id);

/// Ordered block list of one logical value.
struct Manifest {
  std::vector<BlockId> Blocks;
  uint64_t SizeBytes = 0;

  bool operator==(const Manifest &O) const {
    return SizeBytes == O.SizeBytes && Blocks == O.Blocks;
  }

  /// True when SizeBytes is the sum of the block sizes. Decoders of
  /// persisted manifests (the `dir` snapshot, journal Put records) refuse
  /// any other: assembling a value reserves SizeBytes up front.
  bool sizeMatchesBlocks() const;
};

/// One keyed manifest in the layout the journal's Put record and the
/// `dir` snapshot entry share: [u32 key length][key][u64 size][u32 n]
/// [n x (u64 hash, u32 size)].
void writeManifestEntry(browser::wire::Writer &W, const std::string &Key,
                        const Manifest &M);
/// Reads one entry written by writeManifestEntry. Fails \p R, and returns
/// false, on short input, on a block count the unread bytes cannot hold,
/// and on a manifest that is not sizeMatchesBlocks().
bool readManifestEntry(browser::wire::Reader &R, std::string &Key,
                       Manifest &M);

/// Splits \p Value into BlockBytes-sized chunks and returns the manifest
/// (the caller pairs it with the chunk payloads via splitChunks).
Manifest makeManifest(const std::vector<uint8_t> &Value, size_t BlockBytes);

/// The payload of block \p I of \p Value under \p BlockBytes splitting.
std::vector<uint8_t> blockPayload(const std::vector<uint8_t> &Value,
                                  size_t BlockBytes, size_t I);

/// Logical key -> manifest table. In-memory authoritative state of a
/// cached store; persisted wholesale under the "dir" slow-store key at
/// checkpoint time (the journal replays the delta on recovery).
class Directory {
public:
  /// Returns the manifest for \p Key, or null.
  const Manifest *lookup(const std::string &Key) const;
  void put(const std::string &Key, Manifest M);
  /// Removes \p Key; returns false if absent.
  bool remove(const std::string &Key);

  size_t size() const { return Entries.size(); }
  const std::map<std::string, Manifest> &entries() const { return Entries; }

  /// Sorted-order neighbour queries for the sequential prefetcher: the
  /// first key strictly after \p Key, or empty when none.
  std::string nextKey(const std::string &Key) const;
  /// True if \p A is the immediate sorted predecessor of \p B.
  bool adjacent(const std::string &A, const std::string &B) const;

  /// Wire form: magic+version header, length-prefixed entries.
  std::vector<uint8_t> serialize() const;
  /// Rejects malformed input, including a manifest whose SizeBytes is
  /// not the sum of its block sizes, by returning an empty directory with
  /// \p Ok = false.
  static Directory deserialize(const std::vector<uint8_t> &Bytes, bool &Ok);

private:
  std::map<std::string, Manifest> Entries;
};

} // namespace storage
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_STORAGE_BLOCK_H
