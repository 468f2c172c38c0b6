//===- doppio/storage/block.cpp -------------------------------------------==//

#include "doppio/storage/block.h"

#include "doppio/cont/snapshot.h"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;

namespace {

// XXH64 (seed 0), from the xxHash specification.
constexpr uint64_t P1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t P3 = 0x165667B19E3779F9ull;
constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t P5 = 0x27D4EB2F165667C5ull;

/// Little-endian loads on every host, so block ids are platform-stable.
template <typename T> T loadLE(const uint8_t *P) {
  T V;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8)
      V = __builtin_bswap64(V);
    else
      V = __builtin_bswap32(V);
  }
  return V;
}

uint64_t round64(uint64_t Acc, uint64_t Lane) {
  return std::rotl(Acc + Lane * P2, 31) * P1;
}

uint64_t mergeRound(uint64_t H, uint64_t Acc) {
  return (H ^ round64(0, Acc)) * P1 + P4;
}

} // namespace

uint64_t storage::hashBlock(const uint8_t *Data, size_t Size) {
  const uint8_t *P = Data;
  const uint8_t *End = Data + Size;
  uint64_t H;
  if (Size >= 32) {
    // Four independent lanes over 32-byte stripes: the multiplies of one
    // stripe do not wait on each other.
    uint64_t V1 = P1 + P2, V2 = P2, V3 = 0, V4 = 0 - P1;
    for (; End - P >= 32; P += 32) {
      V1 = round64(V1, loadLE<uint64_t>(P));
      V2 = round64(V2, loadLE<uint64_t>(P + 8));
      V3 = round64(V3, loadLE<uint64_t>(P + 16));
      V4 = round64(V4, loadLE<uint64_t>(P + 24));
    }
    H = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
        std::rotl(V4, 18);
    H = mergeRound(mergeRound(mergeRound(mergeRound(H, V1), V2), V3), V4);
  } else {
    H = P5;
  }
  H += Size;
  for (; End - P >= 8; P += 8)
    H = std::rotl(H ^ round64(0, loadLE<uint64_t>(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    H = std::rotl(H ^ (loadLE<uint32_t>(P) * P1), 23) * P2 + P3;
    P += 4;
  }
  for (; P != End; ++P)
    H = std::rotl(H ^ (*P * P5), 11) * P1;
  H ^= H >> 33;
  H *= P2;
  H ^= H >> 29;
  H *= P3;
  H ^= H >> 32;
  return H;
}

std::string storage::blockKey(const BlockId &Id) {
  char Buf[48];
  snprintf(Buf, sizeof(Buf), "b:%016llx.%u",
           static_cast<unsigned long long>(Id.Hash), Id.Size);
  return Buf;
}

bool Manifest::sizeMatchesBlocks() const {
  uint64_t Sum = 0;
  for (const BlockId &Id : Blocks)
    Sum += Id.Size;
  return Sum == SizeBytes;
}

Manifest storage::makeManifest(const std::vector<uint8_t> &Value,
                               size_t BlockBytes) {
  Manifest M;
  M.SizeBytes = Value.size();
  for (size_t Off = 0; Off < Value.size(); Off += BlockBytes) {
    size_t N = std::min(BlockBytes, Value.size() - Off);
    M.Blocks.push_back(
        {hashBlock(Value.data() + Off, N), static_cast<uint32_t>(N)});
  }
  return M;
}

std::vector<uint8_t> storage::blockPayload(const std::vector<uint8_t> &Value,
                                           size_t BlockBytes, size_t I) {
  size_t Off = I * BlockBytes;
  size_t N = std::min(BlockBytes, Value.size() - Off);
  return std::vector<uint8_t>(Value.begin() + static_cast<ptrdiff_t>(Off),
                              Value.begin() + static_cast<ptrdiff_t>(Off + N));
}

//===----------------------------------------------------------------------===//
// Directory
//===----------------------------------------------------------------------===//

namespace {
constexpr uint32_t DirMagic = 0x44444952; // 'DDIR'
constexpr uint32_t DirVersion = 1;
} // namespace

const Manifest *Directory::lookup(const std::string &Key) const {
  auto It = Entries.find(Key);
  return It == Entries.end() ? nullptr : &It->second;
}

void Directory::put(const std::string &Key, Manifest M) {
  Entries[Key] = std::move(M);
}

bool Directory::remove(const std::string &Key) {
  return Entries.erase(Key) != 0;
}

std::string Directory::nextKey(const std::string &Key) const {
  auto It = Entries.upper_bound(Key);
  return It == Entries.end() ? std::string() : It->first;
}

bool Directory::adjacent(const std::string &A, const std::string &B) const {
  if (A.empty() || !(A < B))
    return false;
  auto It = Entries.upper_bound(A);
  return It != Entries.end() && It->first == B;
}

void storage::writeManifestEntry(browser::wire::Writer &W,
                                 const std::string &Key, const Manifest &M) {
  W.str(Key);
  W.u64(M.SizeBytes);
  W.u32(static_cast<uint32_t>(M.Blocks.size()));
  for (const BlockId &Id : M.Blocks) {
    W.u64(Id.Hash);
    W.u32(Id.Size);
  }
}

bool storage::readManifestEntry(browser::wire::Reader &R, std::string &Key,
                                Manifest &M) {
  constexpr size_t BlockIdBytes = 8 + 4;
  Key = R.str();
  M.SizeBytes = R.u64();
  uint32_t N = R.u32();
  if (N > R.remaining() / BlockIdBytes)
    R.fail();
  if (!R.ok())
    return false;
  M.Blocks.resize(N);
  for (BlockId &Id : M.Blocks) {
    Id.Hash = R.u64();
    Id.Size = R.u32();
  }
  if (!M.sizeMatchesBlocks())
    R.fail();
  return R.ok();
}

std::vector<uint8_t> Directory::serialize() const {
  snap::Writer W(DirMagic, DirVersion);
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const auto &[Key, M] : Entries)
    writeManifestEntry(W, Key, M);
  return W.take();
}

Directory Directory::deserialize(const std::vector<uint8_t> &Bytes,
                                 bool &Ok) {
  Directory D;
  snap::Reader R(Bytes, DirMagic, DirVersion);
  uint32_t N = R.u32();
  for (uint32_t I = 0; I != N && R.ok(); ++I) {
    std::string Key;
    Manifest M;
    if (readManifestEntry(R, Key, M))
      D.Entries[Key] = std::move(M);
  }
  Ok = R.atEnd();
  if (!Ok)
    D.Entries.clear();
  return D;
}
