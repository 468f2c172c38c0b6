//===- tests/doppio/storage_test.cpp --------------------------------------==//
//
// Storage hierarchy tests (DESIGN.md §19): the content-addressed block
// vocabulary and its pinned XXH64 block hash, the log-structured
// journal's codec and recovery, the write-back cached store's semantics
// (write-back acks, group commit, LRU + quota-pressure eviction,
// sequential prefetch, dedup, value lifetime on the write path, stores
// written under the earlier FNV-1a block ids), uniform
// ENOSPC surfacing at the fs layer, and the deterministic power-cut fuzz
// sweep: the journal is cut at *every* byte offset and the recovered tree
// must equal the state after some prefix of the committed groups.
//
//===----------------------------------------------------------------------===//

#include "doppio/storage/cached_store.h"

#include "browser/wire.h"
#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/fs.h"
#include "doppio/process.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;
using namespace doppio::browser;

namespace {

using Bytes = fs::AsyncKvStore::Bytes;

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

std::string textOf(const Bytes &B) { return std::string(B.begin(), B.end()); }

/// A value of \p N bytes whose content is derived from \p Seed. The
/// (I >> 8) term breaks the byte pattern's 256-periodicity so distinct
/// 16 KB blocks of one value never dedup against each other.
Bytes blob(size_t N, uint8_t Seed) {
  Bytes B(N);
  for (size_t I = 0; I != N; ++I)
    B[I] = static_cast<uint8_t>(Seed + I * 131 + (I >> 8) * 7);
  return B;
}

/// Drains every event reachable within a one-second horizon: enough for
/// the slow stores' (chained) round trips, but never far enough to fire
/// quiescentConfig()'s 60 s background flush timer — tests control group
/// boundaries explicitly via sync(). Env.loop().run() would run the timer
/// heap dry, flushing after every drain.
void drain(BrowserEnv &Env) {
  Env.loop().runReadyUntil(Env.clock().nowNs() + browser::msToNs(1000));
}

/// Issues a put and drains the loop; returns the completion error.
std::optional<ApiError> putKv(BrowserEnv &Env, fs::AsyncKvStore &S,
                              const std::string &K, const Bytes &V) {
  std::optional<ApiError> Out;
  bool Called = false;
  S.put(K, V, [&](std::optional<ApiError> E) {
    Out = E;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

/// Issues a get and drains the loop; FAILs on an error result.
std::optional<Bytes> getKv(BrowserEnv &Env, fs::AsyncKvStore &S,
                           const std::string &K) {
  std::optional<Bytes> Out;
  bool Called = false;
  S.get(K, [&](ErrorOr<std::optional<Bytes>> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Out = *R;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

std::optional<ApiError> syncKv(BrowserEnv &Env, fs::AsyncKvStore &S) {
  std::optional<ApiError> Out;
  bool Called = false;
  S.sync([&](std::optional<ApiError> E) {
    Out = E;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

/// Cache config with the background machinery effectively disabled, so
/// tests control group boundaries via sync().
CacheConfig quiescentConfig() {
  CacheConfig C;
  C.BlockBytes = 16 * 1024;
  C.CapacityBytes = 64ull << 20;
  C.DirtyHighWaterBytes = 32ull << 20;
  C.FlushIntervalNs = browser::msToNs(60000);
  C.CheckpointJournalBytes = 64 << 20;
  C.PrefetchDepth = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Block / Directory unit tests
//===----------------------------------------------------------------------===//

TEST(StorageBlock, ManifestSplitsAndAddresses) {
  Bytes V = blob(40 * 1024, 7);
  Manifest M = makeManifest(V, 16 * 1024);
  ASSERT_EQ(M.Blocks.size(), 3u);
  EXPECT_EQ(M.SizeBytes, V.size());
  EXPECT_EQ(M.Blocks[0].Size, 16u * 1024);
  EXPECT_EQ(M.Blocks[2].Size, 8u * 1024);
  // Content addressing: identical payloads hash identically, and the
  // reassembled payloads equal the original.
  Manifest M2 = makeManifest(V, 16 * 1024);
  EXPECT_TRUE(M == M2);
  Bytes Joined;
  for (size_t I = 0; I != M.Blocks.size(); ++I) {
    Bytes P = blockPayload(V, 16 * 1024, I);
    EXPECT_EQ(hashBlock(P.data(), P.size()), M.Blocks[I].Hash);
    Joined.insert(Joined.end(), P.begin(), P.end());
  }
  EXPECT_EQ(Joined, V);
}

TEST(StorageBlock, BlockKeyEncodesHashAndSize) {
  BlockId Id{0xdeadbeefcafef00dull, 4096};
  EXPECT_EQ(blockKey(Id), "b:deadbeefcafef00d.4096");
}

TEST(StorageBlock, DirectoryRoundTripAndCorruptReject) {
  Directory D;
  D.put("alpha", makeManifest(blob(100, 1), 64));
  D.put("beta", makeManifest(blob(5000, 2), 64));
  D.remove("missing");
  Bytes Wire = D.serialize();

  bool Ok = false;
  Directory R = Directory::deserialize(Wire, Ok);
  ASSERT_TRUE(Ok);
  ASSERT_EQ(R.size(), 2u);
  ASSERT_NE(R.lookup("alpha"), nullptr);
  EXPECT_TRUE(*R.lookup("alpha") == *D.lookup("alpha"));

  Wire.pop_back(); // Truncated snapshots must be rejected, not half-read.
  Directory Bad = Directory::deserialize(Wire, Ok);
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Bad.size(), 0u);

  // A manifest whose SizeBytes disagrees with its blocks is rejected
  // too: assembling the value would reserve the forged size.
  for (uint64_t Forged : {uint64_t{1} << 40, uint64_t{5001}, uint64_t{0}}) {
    SCOPED_TRACE(Forged);
    Directory F = D;
    Manifest M = *D.lookup("beta");
    M.SizeBytes = Forged;
    F.put("beta", M);
    Directory Got = Directory::deserialize(F.serialize(), Ok);
    EXPECT_FALSE(Ok);
    EXPECT_EQ(Got.size(), 0u);
  }
}

TEST(StorageBlock, DirectoryNeighbourQueries) {
  Directory D;
  for (const char *K : {"a", "b", "d"})
    D.put(K, Manifest());
  EXPECT_EQ(D.nextKey("a"), "b");
  EXPECT_EQ(D.nextKey("b"), "d");
  EXPECT_EQ(D.nextKey("d"), "");
  EXPECT_TRUE(D.adjacent("a", "b"));
  EXPECT_FALSE(D.adjacent("b", "a"));
  EXPECT_FALSE(D.adjacent("b", "c"));
  EXPECT_TRUE(D.adjacent("b", "d"));
}

uint64_t hashOf(const Bytes &B) { return hashBlock(B.data(), B.size()); }

TEST(StorageBlockHash, PublishedXxh64Vectors) {
  const uint8_t Empty[1] = {0};
  EXPECT_EQ(hashBlock(Empty, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(hashOf(bytesOf("a")), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(hashOf(bytesOf("abc")), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(hashOf(bytesOf("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ull);
}

/// Block ids name slow-store objects, so they must never drift: pinned
/// XXH64 values of every prefix of blob(16384, 1) up to 65 bytes (each
/// stripe, 8-, 4- and 1-byte tail combination), plus the full block.
TEST(StorageBlockHash, GoldenValuesAcrossEveryTailBoundary) {
  static const uint64_t Want[66] = {
      0xef46db3751d8e999ull, 0x8a4127811b21e730ull, // 0-1
      0x3476fd2d74fa08c0ull, 0x31487142ceee192aull, // 2-3
      0xe974238725d583a0ull, 0x7dc13e6e7a316943ull, // 4-5
      0x856367215b46ea85ull, 0x5e6c4f5ee907205aull, // 6-7
      0x5651c7bfe44e95d4ull, 0x3cd26264fbf2e51dull, // 8-9
      0x9fcbc530f503cb57ull, 0xf3fb3d9e87a4ff30ull, // 10-11
      0x9e2efa279d314048ull, 0x2efcc4b8af1496a5ull, // 12-13
      0xd4c38083c4d59262ull, 0xd3545cc54b205de6ull, // 14-15
      0xecfcfd4c38eaa895ull, 0xd5eed321652bbb06ull, // 16-17
      0xbf8e01a9eee0d59dull, 0x3965c30bbaa8fb79ull, // 18-19
      0x8ba7a97d101884c5ull, 0xece6189cf7c504a8ull, // 20-21
      0xb2e7fda0a7cae4c9ull, 0xf135592e2a632449ull, // 22-23
      0x5a8f17da26e40d96ull, 0xd0953f175fb58782ull, // 24-25
      0x1f35a883ebcf79f2ull, 0x6b909e26b9db379eull, // 26-27
      0x8ad6fdb1bb9b886cull, 0x604b2fc7eab9137eull, // 28-29
      0x2a5831905ebbbf39ull, 0xf2e176a3af059d3bull, // 30-31
      0xfe1388a454390dcfull, 0xe21f50b5506f39b3ull, // 32-33
      0x666c84c11365f671ull, 0x936ba77f305da975ull, // 34-35
      0xf0ba24af8acf8ea2ull, 0x1ce86be731d5eb0aull, // 36-37
      0xde4f4f94d512bf4full, 0xf8f06461330d1b4eull, // 38-39
      0xf46198aa7b847084ull, 0x4cf900a9f08c1828ull, // 40-41
      0x751f25a978231934ull, 0x2c72c9a48c6cc6bcull, // 42-43
      0x50d966798912f839ull, 0x8d7be3683ee4c78eull, // 44-45
      0x6738de78385f34bdull, 0xe7c55058756d1c47ull, // 46-47
      0x788a056a43f57742ull, 0x7cd9d967dd726a01ull, // 48-49
      0x89aafe1150c3476dull, 0xcf23219c3eb9e372ull, // 50-51
      0x19e07954abea8a5full, 0xe9ee845b14e86520ull, // 52-53
      0x4b3b206f5400de9bull, 0xa2eaee6798c98f72ull, // 54-55
      0x210c9905a9918ec1ull, 0x8008e65e879fc336ull, // 56-57
      0xa19e6e245a5deb7dull, 0x0e1245d516b6f79eull, // 58-59
      0xa0043e889e71369full, 0x538c25562eb022bbull, // 60-61
      0xda7f3775bf799905ull, 0xfe21a6cb773bafc7ull, // 62-63
      0x002ab26e2253326dull, 0xf296f63a43a996a2ull, // 64-65
  };
  Bytes B = blob(16 * 1024, 1);
  for (size_t N = 0; N != 66; ++N)
    EXPECT_EQ(hashBlock(B.data(), N), Want[N]) << "length " << N;
  EXPECT_EQ(hashOf(B), 0x47e687d85855bf17ull);
}

TEST(StorageBlockHash, OneBitFlipAtEveryOffsetChangesTheHash) {
  Bytes B = blob(16 * 1024, 5);
  const uint64_t Base = hashOf(B);
  std::set<uint64_t> Seen = {Base};
  for (size_t Off = 0; Off != B.size(); ++Off) {
    uint8_t Mask = static_cast<uint8_t>(1u << (Off % 8));
    B[Off] ^= Mask;
    uint64_t H = hashOf(B);
    B[Off] ^= Mask;
    ASSERT_NE(H, Base) << "offset " << Off;
    Seen.insert(H);
  }
  EXPECT_EQ(Seen.size(), B.size() + 1); // No two flips collide either.
}

TEST(StorageBlockHash, UnalignedInputHashesLikeAnAlignedCopy) {
  Bytes B = blob(16 * 1024 + 8, 3);
  for (size_t Off = 1; Off != 8; ++Off)
    for (size_t N : {0, 1, 3, 4, 7, 8, 12, 31, 32, 33, 63, 64, 65, 16384}) {
      Bytes Copy(B.begin() + static_cast<ptrdiff_t>(Off),
                 B.begin() + static_cast<ptrdiff_t>(Off + N));
      EXPECT_EQ(hashBlock(B.data() + Off, N), hashOf(Copy))
          << "offset " << Off << " length " << N;
    }
}

//===----------------------------------------------------------------------===//
// Journal unit tests
//===----------------------------------------------------------------------===//

TEST(StorageJournal, SealRecoverRoundTrip) {
  Journal J;
  J.stagePut("k1", makeManifest(blob(100, 1), 64));
  J.stageDel("k2");
  Bytes Image = J.sealGroup();
  J.stagePut("k3", makeManifest(blob(10, 3), 64));
  Image = J.sealGroup();

  Journal R;
  Directory D;
  D.put("k2", Manifest());
  Journal::Recovery Rec = R.recover(Image, D);
  EXPECT_TRUE(Rec.HeaderOk);
  EXPECT_EQ(Rec.Commits, 2u);
  EXPECT_EQ(Rec.RecordsApplied, 3u);
  EXPECT_EQ(Rec.TornTailBytes, 0u);
  EXPECT_NE(D.lookup("k1"), nullptr);
  EXPECT_EQ(D.lookup("k2"), nullptr);
  EXPECT_NE(D.lookup("k3"), nullptr);
}

TEST(StorageJournal, EmptyAndCorruptImages) {
  Journal J;
  Directory D;
  Journal::Recovery Rec = J.recover(Bytes(), D);
  EXPECT_TRUE(Rec.HeaderOk); // Never journaled: a valid empty log.
  EXPECT_EQ(Rec.Commits, 0u);

  Bytes Garbage = bytesOf("not a journal at all");
  Rec = J.recover(Garbage, D);
  EXPECT_FALSE(Rec.HeaderOk);
  EXPECT_EQ(Rec.TornTailBytes, Garbage.size());
  EXPECT_EQ(D.size(), 0u);

  // A checksummed Put whose manifest size disagrees with its blocks ends
  // the valid prefix like a torn record: its group is never applied.
  for (uint64_t Forged : {uint64_t{1} << 40, uint64_t{101}}) {
    SCOPED_TRACE(Forged);
    Journal W;
    W.stagePut("kept", makeManifest(blob(100, 1), 64));
    size_t GoodEnd = W.sealGroup().size();
    Manifest M = makeManifest(blob(100, 2), 64);
    M.SizeBytes = Forged;
    W.stagePut("forged", M);
    Bytes Image = W.sealGroup();
    Directory Got;
    Rec = J.recover(Image, Got);
    EXPECT_TRUE(Rec.HeaderOk);
    EXPECT_EQ(Rec.Commits, 1u);
    EXPECT_NE(Got.lookup("kept"), nullptr);
    EXPECT_EQ(Got.lookup("forged"), nullptr);
    EXPECT_EQ(Rec.TornTailBytes, Image.size() - GoodEnd);
  }
}

TEST(StorageJournal, BitFlipInvalidatesOnlyTheTail) {
  Journal J;
  J.stagePut("stable", makeManifest(blob(50, 1), 64));
  J.sealGroup();
  size_t GoodEnd = J.bytes().size();
  J.stagePut("flipped", makeManifest(blob(50, 2), 64));
  Bytes Image = J.sealGroup();

  Image[GoodEnd + 3] ^= 0x40; // Corrupt the second group's first record.
  Journal R;
  Directory D;
  Journal::Recovery Rec = R.recover(Image, D);
  EXPECT_TRUE(Rec.HeaderOk);
  EXPECT_EQ(Rec.Commits, 1u);
  EXPECT_NE(D.lookup("stable"), nullptr);
  EXPECT_EQ(D.lookup("flipped"), nullptr);
  EXPECT_EQ(Rec.TornTailBytes, Image.size() - GoodEnd);
}

TEST(StorageManifestEntry, ForgedBlockCountIsRefusedBeforeSizing) {
  // One 12-byte block follows, but the entry claims 2^32 - 1 of them.
  browser::wire::Writer W;
  W.str("k");
  W.u64(12);
  W.u32(0xffffffffu);
  W.u64(1);
  W.u32(12);
  Bytes Forged = W.take();
  browser::wire::Reader R(Forged);
  std::string Key;
  Manifest M;
  EXPECT_FALSE(readManifestEntry(R, Key, M));
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(M.Blocks.empty());

  // The same bytes with the true count decode.
  constexpr size_t CountAt = 4 + 1 + 8; // After the key and the size.
  Forged[CountAt] = Forged[CountAt + 1] = Forged[CountAt + 2] = 0;
  Forged[CountAt + 3] = 1;
  browser::wire::Reader Good(Forged);
  EXPECT_TRUE(readManifestEntry(Good, Key, M));
  EXPECT_TRUE(Good.atEnd());
  EXPECT_EQ(Key, "k");
  EXPECT_EQ(M, (Manifest{{{1, 12}}, 12}));
}

//===----------------------------------------------------------------------===//
// Cached store semantics
//===----------------------------------------------------------------------===//

TEST(CachedStore, WriteBackAcksBeforeSlowStore) {
  BrowserEnv Env(chromeProfile());
  auto Slow = std::make_unique<fs::CloudKv>(Env);
  fs::CloudKv *Cloud = Slow.get();
  CachedKvStore Store(Env, std::move(Slow), quiescentConfig());
  drain(Env); // Recovery.
  ASSERT_TRUE(Store.ready());

  bool Acked = false;
  Store.put("k", bytesOf("payload"),
            [&](std::optional<ApiError> E) {
              EXPECT_FALSE(E.has_value());
              Acked = true;
            });
  // Write-back: the ack does not wait for the WAN round trip.
  EXPECT_TRUE(Acked);
  EXPECT_EQ(Cloud->objectCount(), 0u);
  EXPECT_EQ(Store.stats().Flushes, 0u);

  auto V = getKv(Env, Store, "k"); // Served from cache, still unflushed.
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(textOf(*V), "payload");
  EXPECT_GE(Store.stats().Hits, 1u);

  EXPECT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_GE(Store.stats().Flushes, 1u);
  EXPECT_GE(Cloud->objectCount(), 2u); // Block + journal.
}

TEST(CachedStore, BackgroundFlushTimerSealsOneGroup) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.FlushIntervalNs = browser::msToNs(8);
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env), C);
  drain(Env);

  for (int I = 0; I != 10; ++I)
    Store.put("k" + std::to_string(I), blob(100, static_cast<uint8_t>(I)),
              [](std::optional<ApiError>) {});
  EXPECT_EQ(Store.stats().Flushes, 0u);
  drain(Env); // The kernel Background-lane timer fires the flush.
  CacheStats S = Store.stats();
  EXPECT_GE(S.Flushes, 1u);
  // Group commit: ten acked puts rode one sealed group.
  EXPECT_EQ(S.JournalCommits, 1u);
}

TEST(CachedStore, DeleteTombstonesAndPersists) {
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env),
                      quiescentConfig());
  drain(Env);
  ASSERT_FALSE(putKv(Env, Store, "gone", bytesOf("x")).has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());

  bool Acked = false;
  Store.del("gone", [&](std::optional<ApiError> E) {
    EXPECT_FALSE(E.has_value());
    Acked = true;
  });
  EXPECT_TRUE(Acked);
  EXPECT_FALSE(getKv(Env, Store, "gone").has_value()); // Tombstone hit.
  EXPECT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_FALSE(getKv(Env, Store, "gone").has_value());
}

TEST(CachedStore, DedupSharesIdenticalBlocks) {
  for (size_t N : {100, 16 * 1024}) { // A short value, then a full block.
    BrowserEnv Env(chromeProfile());
    CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env),
                        quiescentConfig());
    drain(Env);
    Bytes Same = blob(N, 9);
    ASSERT_FALSE(putKv(Env, Store, "first", Same).has_value());
    ASSERT_FALSE(putKv(Env, Store, "second", Same).has_value());
    CacheStats S = Store.stats();
    EXPECT_EQ(S.DedupHits, 1u);
    EXPECT_EQ(S.CachedBytes, Same.size()); // One pooled block, two refs.
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    // One block payload reached the slow store.
    EXPECT_EQ(Store.stats().FlushedBlocks, 1u);
    // Rewriting one sharer leaves the other's bytes in the shared slot.
    ASSERT_FALSE(putKv(Env, Store, "first", blob(N, 10)).has_value());
    auto Got = getKv(Env, Store, "second");
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, Same);
  }
}

TEST(CachedStore, LruEvictsCleanEntriesOnly) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.CapacityBytes = 64 * 1024; // Four 16 KB blocks.
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env), C);
  drain(Env);

  for (int I = 0; I != 8; ++I)
    ASSERT_FALSE(putKv(Env, Store, "k" + std::to_string(I),
                       blob(16 * 1024, static_cast<uint8_t>(I)))
                     .has_value());
  // All dirty: pinned, nothing evictable yet (a backpressure flush was
  // kicked instead).
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  CacheStats S = Store.stats();
  EXPECT_GE(S.Evictions, 4u);
  EXPECT_LE(S.CachedBytes, C.CapacityBytes);

  // Evicted entries refill from the slow store with correct contents.
  auto V = getKv(Env, Store, "k0");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(16 * 1024, 0));
  EXPECT_GE(Store.stats().Fills, 1u);
}

TEST(CachedStore, SequentialMissRunsTriggerPrefetch) {
  BrowserEnv Env(chromeProfile());
  ASSERT_NE(Env.indexedDB(), nullptr);
  {
    CachedKvStore Writer(Env, std::make_unique<fs::IndexedDbKv>(Env),
                         quiescentConfig());
    drain(Env);
    for (int I = 0; I != 16; ++I) {
      char Key[8];
      snprintf(Key, sizeof(Key), "k%02d", I);
      ASSERT_FALSE(
          putKv(Env, Writer, Key, blob(2048, static_cast<uint8_t>(I)))
              .has_value());
    }
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
  }

  CacheConfig C = quiescentConfig();
  C.PrefetchDepth = 8;
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  ASSERT_TRUE(Reader.ready());

  ASSERT_TRUE(getKv(Env, Reader, "k00").has_value()); // Cold miss.
  ASSERT_TRUE(getKv(Env, Reader, "k01").has_value()); // Sequential miss.
  CacheStats S = Reader.stats();
  EXPECT_GE(S.PrefetchIssued, 1u);

  auto V = getKv(Env, Reader, "k02"); // Served by the prefetcher.
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(2048, 2));
  S = Reader.stats();
  EXPECT_GE(S.PrefetchHits, 1u);
  EXPECT_EQ(S.Misses, 2u);
}

TEST(CachedStore, ReloadRecoversFromJournalReplay) {
  BrowserEnv Env(chromeProfile());
  {
    CachedKvStore Writer(Env, std::make_unique<fs::IndexedDbKv>(Env),
                         quiescentConfig());
    drain(Env);
    ASSERT_FALSE(putKv(Env, Writer, "a", bytesOf("alpha")).has_value());
    ASSERT_FALSE(putKv(Env, Writer, "b", bytesOf("beta")).has_value());
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
    ASSERT_FALSE(putKv(Env, Writer, "b", bytesOf("beta2")).has_value());
    Writer.del("a", [](std::optional<ApiError>) {});
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
  }
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env),
                       quiescentConfig());
  drain(Env);
  ASSERT_TRUE(Reader.ready());
  CacheStats S = Reader.stats();
  EXPECT_EQ(S.ReplayedCommits, 2u);
  EXPECT_GE(S.ReplayedRecords, 4u);
  EXPECT_FALSE(getKv(Env, Reader, "a").has_value());
  auto V = getKv(Env, Reader, "b");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(textOf(*V), "beta2");
}

TEST(CachedStore, CheckpointTruncatesJournalAndCollectsGarbage) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.CheckpointJournalBytes = 64; // Checkpoint after nearly every flush.
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);

  for (int Round = 0; Round != 4; ++Round) {
    // Same key, fresh content: the previous round's blocks become dead.
    ASSERT_FALSE(
        putKv(Env, Store, "hot", blob(32 * 1024, static_cast<uint8_t>(Round)))
            .has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
  }
  CacheStats S = Store.stats();
  EXPECT_GE(S.Checkpoints, 3u);
  EXPECT_GE(S.GcBlocks, 4u);
  EXPECT_LE(S.JournalDepthBytes, 256u);

  // Reload sees the checkpointed directory, not a journal replay.
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  auto V = getKv(Env, Reader, "hot");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(32 * 1024, 3));
}

//===----------------------------------------------------------------------===//
// Quota: uniform ENOSPC and quota-pressure eviction
//===----------------------------------------------------------------------===//

/// Writes files through the fs frontend until the backend reports an
/// error; returns it.
std::optional<ApiError> fillUntilError(BrowserEnv &Env, fs::FileSystem &Fs,
                                       size_t FileBytes, int MaxFiles) {
  for (int I = 0; I != MaxFiles; ++I) {
    std::optional<ApiError> Err;
    bool Called = false;
    Fs.writeFile("/fill" + std::to_string(I),
                 blob(FileBytes, static_cast<uint8_t>(I)),
                 [&](std::optional<ApiError> E) {
                   Err = E;
                   Called = true;
                 });
    drain(Env);
    EXPECT_TRUE(Called);
    if (Err)
      return Err;
  }
  return std::nullopt;
}

std::unique_ptr<fs::AsyncKvStore> makeQuotaStore(BrowserEnv &Env,
                                                 const std::string &Name,
                                                 uint64_t QuotaBytes) {
  if (Name == "localstorage")
    return std::make_unique<fs::LocalStorageKv>(Env); // Profile 5 MB quota.
  if (Name == "indexeddb") {
    Env.indexedDB()->setQuotaBytes(QuotaBytes);
    return std::make_unique<fs::IndexedDbKv>(Env);
  }
  auto Cloud = std::make_unique<fs::CloudKv>(Env);
  Cloud->setQuotaBytes(QuotaBytes);
  return Cloud;
}

class QuotaEnospc : public ::testing::TestWithParam<std::string> {};

TEST_P(QuotaEnospc, SurfacesUniformlyAtFsLayer) {
  BrowserEnv Env(chromeProfile());
  auto Backend = std::make_unique<fs::KeyValueBackend>(
      Env, makeQuotaStore(Env, GetParam(), 256 * 1024));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));

  // localStorage's profile quota is 5 MB; the others are capped at 256 KB.
  size_t FileBytes = GetParam() == "localstorage" ? 512 * 1024 : 48 * 1024;
  std::optional<ApiError> Err = fillUntilError(Env, Fs, FileBytes, 32);
  ASSERT_TRUE(Err.has_value()) << "quota never hit for " << GetParam();
  EXPECT_EQ(Err->Code, Errno::NoSpace) << Err->message();
}

TEST_P(QuotaEnospc, SurfacesThroughTheCacheToo) {
  BrowserEnv Env(chromeProfile());
  auto Cached = std::make_unique<CachedKvStore>(
      Env, makeQuotaStore(Env, GetParam(), 256 * 1024), quiescentConfig());
  CachedKvStore *Cache = Cached.get();
  auto Backend =
      std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));

  size_t FileBytes = GetParam() == "localstorage" ? 512 * 1024 : 48 * 1024;
  std::optional<ApiError> Err = fillUntilError(Env, Fs, FileBytes, 32);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(Err->Code, Errno::NoSpace) << Err->message();
  EXPECT_GE(Cache->stats().QuotaRejects, 1u);
}

INSTANTIATE_TEST_SUITE_P(Adapters, QuotaEnospc,
                         ::testing::Values("localstorage", "indexeddb",
                                           "cloud"));

TEST(CachedStore, QuotaPressureEvictionPerProfile) {
  for (const Profile &P : allProfiles()) {
    SCOPED_TRACE(P.Name);
    BrowserEnv Env(P);
    auto Slow = std::make_unique<fs::CloudKv>(Env);
    Slow->setQuotaBytes(220 * 1024);
    CacheConfig C = quiescentConfig();
    C.CheckpointJournalBytes = 1; // Checkpoint + GC after every flush.
    CachedKvStore Store(Env, std::move(Slow), C);
    drain(Env);
    ASSERT_TRUE(Store.ready());

    ASSERT_FALSE(putKv(Env, Store, "a", blob(64 * 1024, 1)).has_value());
    ASSERT_FALSE(putKv(Env, Store, "b", blob(64 * 1024, 2)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    // Overwrite: the old "a" blocks are dead after the next checkpoint.
    ASSERT_FALSE(putKv(Env, Store, "a", blob(64 * 1024, 3)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    ASSERT_FALSE(putKv(Env, Store, "c", blob(64 * 1024, 4)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());

    // ~192 KB live of 220 KB quota: the next 64 KB put cannot fit.
    std::optional<ApiError> Err = putKv(Env, Store, "d", blob(64 * 1024, 5));
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(Err->Code, Errno::NoSpace);
    EXPECT_GE(Store.stats().QuotaRejects, 1u);
    EXPECT_GE(Store.stats().GcBlocks, 4u); // Old "a" reclaimed earlier.

    // Deleting a key and letting checkpoint + GC run frees real quota.
    Store.del("b", [](std::optional<ApiError>) {});
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    ASSERT_FALSE(putKv(Env, Store, "d", blob(64 * 1024, 5)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    auto V = getKv(Env, Store, "d");
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, blob(64 * 1024, 5));
  }
}

//===----------------------------------------------------------------------===//
// FS semantics over the cached store
//===----------------------------------------------------------------------===//

TEST(CachedStore, FileSystemSemanticsAndReload) {
  BrowserEnv Env(chromeProfile());
  {
    auto Cached = std::make_unique<CachedKvStore>(
        Env, std::make_unique<fs::IndexedDbKv>(Env), quiescentConfig());
    auto Backend =
        std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
    fs::KeyValueBackend *KvB = Backend.get();
    bool Ready = false;
    Backend->initialize([&](std::optional<ApiError> E) {
      ASSERT_FALSE(E.has_value());
      Ready = true;
    });
    drain(Env);
    ASSERT_TRUE(Ready);
    Process Proc;
    fs::FileSystem Fs(Env, Proc, std::move(Backend));

    bool Done = false;
    Fs.mkdir("/app", [&](std::optional<ApiError> E) {
      ASSERT_FALSE(E.has_value());
      Done = true;
    });
    drain(Env);
    ASSERT_TRUE(Done);
    Fs.writeFile("/app/data", bytesOf("cached bits"),
                 [](std::optional<ApiError> E) {
                   ASSERT_FALSE(E.has_value());
                 });
    drain(Env);
    std::vector<std::string> Listing;
    Fs.readdir("/app", [&](ErrorOr<std::vector<std::string>> R) {
      ASSERT_TRUE(R.ok());
      Listing = *R;
    });
    drain(Env);
    EXPECT_EQ(Listing, std::vector<std::string>{"data"});

    // The backend's durability barrier drains the cache.
    bool Synced = false;
    KvB->sync([&](std::optional<ApiError> E) {
      EXPECT_FALSE(E.has_value());
      Synced = true;
    });
    drain(Env);
    ASSERT_TRUE(Synced);
  }

  // A reload (fresh backend + fresh cache over the same IndexedDB) sees
  // the synced tree.
  auto Cached = std::make_unique<CachedKvStore>(
      Env, std::make_unique<fs::IndexedDbKv>(Env), quiescentConfig());
  auto Backend =
      std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));
  std::optional<Bytes> Data;
  Fs.readFile("/app/data", [&](ErrorOr<Bytes> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Data = *R;
  });
  drain(Env);
  ASSERT_TRUE(Data.has_value());
  EXPECT_EQ(textOf(*Data), "cached bits");
}

//===----------------------------------------------------------------------===//
// Key/value backend directory records
//===----------------------------------------------------------------------===//

/// Forwards to an owned store, counting the metadata it is asked to put:
/// every put that is not a file payload ("f:" key).
class CountingKv : public fs::AsyncKvStore {
public:
  explicit CountingKv(std::unique_ptr<fs::AsyncKvStore> Inner)
      : Inner(std::move(Inner)) {}

  std::string storeName() const override { return Inner->storeName(); }
  void get(const std::string &Key, GetCb Done) override {
    Inner->get(Key, std::move(Done));
  }
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override {
    if (Key.compare(0, 2, "f:") != 0)
      MetaPutBytes += Value.size();
    Inner->put(Key, Value, std::move(Done));
  }
  void del(const std::string &Key, DoneCb Done) override {
    Inner->del(Key, std::move(Done));
  }

  uint64_t MetaPutBytes = 0;

private:
  std::unique_ptr<fs::AsyncKvStore> Inner;
};

/// A KeyValueBackend over the tab's IndexedDB, initialized (as a page load
/// or reload would) and mounted in a FileSystem.
struct KvFs {
  explicit KvFs(BrowserEnv &Env) : Env(Env) {
    auto Counting =
        std::make_unique<CountingKv>(std::make_unique<fs::IndexedDbKv>(Env));
    Counter = Counting.get();
    auto B = std::make_unique<fs::KeyValueBackend>(Env, std::move(Counting));
    Backend = B.get();
    InitError = ApiError(Errno::Io, "initialize never completed");
    B->initialize([this](std::optional<ApiError> E) { InitError = E; });
    drain(Env);
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(B));
  }

  /// Runs one file system call to completion; returns its error.
  std::optional<ApiError> run(const std::function<void(fs::CompletionCb)> &Op) {
    std::optional<ApiError> Out = ApiError(Errno::Io, "never completed");
    Op([&Out](std::optional<ApiError> E) { Out = E; });
    drain(Env);
    return Out;
  }
  std::optional<ApiError> mkdir(const std::string &P) {
    return run([&](fs::CompletionCb Cb) { Fs->mkdir(P, Cb); });
  }
  std::optional<ApiError> write(const std::string &P, const std::string &S) {
    return run([&](fs::CompletionCb Cb) { Fs->writeFile(P, bytesOf(S), Cb); });
  }
  std::optional<ApiError> sync() {
    return run([&](fs::CompletionCb Cb) { Backend->sync(Cb); });
  }

  BrowserEnv &Env;
  Process Proc;
  CountingKv *Counter = nullptr;
  fs::KeyValueBackend *Backend = nullptr;
  std::optional<ApiError> InitError;
  std::unique_ptr<fs::FileSystem> Fs;
};

/// Every path of an index with its type, size and mtime.
std::map<std::string, std::vector<uint64_t>> treeOf(const fs::FileIndex &I) {
  std::map<std::string, std::vector<uint64_t>> Out;
  for (const std::string &D : I.allDirs())
    Out[D] = {1};
  for (const std::string &F : I.allFiles())
    Out[F] = {0, I.lookup(F)->SizeBytes, I.lookup(F)->MtimeNs};
  return Out;
}

/// The keys of the tab's IndexedDB.
std::vector<std::string> idbKeys(BrowserEnv &Env) {
  std::vector<std::string> Keys;
  Env.indexedDB()->listKeys(
      [&Keys](std::vector<std::string> K) { Keys = std::move(K); });
  drain(Env);
  return Keys;
}

/// A reload sees exactly \p Live's tree, and the store holds a "d:" record
/// only for a live directory and an "f:" payload only for a live file.
void expectStoreExact(BrowserEnv &Env, const KvFs &Live) {
  KvFs Reload(Env);
  ASSERT_FALSE(Reload.InitError.has_value())
      << Reload.InitError->message();
  EXPECT_EQ(treeOf(Reload.Backend->index()), treeOf(Live.Backend->index()));
  const fs::FileIndex &Index = Live.Backend->index();
  for (const std::string &Key : idbKeys(Env)) {
    std::string Path = Key.substr(2);
    const fs::FileIndex::Meta *M = Index.lookup(Path);
    if (Key.compare(0, 2, "d:") == 0)
      EXPECT_TRUE(M && M->Type == fs::FileType::Directory)
          << "orphaned record " << Key;
    else
      EXPECT_TRUE(M && M->Type == fs::FileType::File)
          << "orphaned payload " << Key;
  }
}

TEST(KvDirRecords, OddNamesRoundTrip) {
  BrowserEnv Env(chromeProfile());
  KvFs Live(Env);
  ASSERT_FALSE(Live.InitError.has_value());
  // Under a line-based format the first name forges an extra entry.
  const std::string Odd = "/tmp/a\nF 999 0 ";
  ASSERT_FALSE(Live.mkdir("/tmp"));
  ASSERT_FALSE(Live.mkdir(Odd));
  ASSERT_FALSE(Live.mkdir(Odd + "/etc"));
  ASSERT_FALSE(Live.write(Odd + "/etc/injected", "payload"));
  ASSERT_FALSE(Live.write("/tmp/ name  with spaces ", "spaces"));
  ASSERT_FALSE(Live.sync());

  KvFs Reload(Env);
  ASSERT_FALSE(Reload.InitError.has_value())
      << Reload.InitError->message();
  const fs::FileIndex &Got = Reload.Backend->index();
  EXPECT_EQ(treeOf(Got), treeOf(Live.Backend->index()));
  EXPECT_EQ(Got.allFiles(),
            (std::vector<std::string>{"/tmp/ name  with spaces ",
                                      Odd + "/etc/injected"}));
  EXPECT_EQ(Got.lookup("/etc/injected"), nullptr);
  std::optional<Bytes> Data;
  Reload.Fs->readFile(Odd + "/etc/injected", [&](ErrorOr<Bytes> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Data = *R;
  });
  drain(Env);
  ASSERT_TRUE(Data.has_value());
  EXPECT_EQ(textOf(*Data), "payload");
}

/// Metadata bytes put to write one file next to one other file, after
/// \p Others files went into a sibling directory.
uint64_t metadataBytesForOneWrite(size_t Others) {
  BrowserEnv Env(chromeProfile());
  KvFs Live(Env);
  EXPECT_FALSE(Live.mkdir("/big"));
  EXPECT_FALSE(Live.mkdir("/small"));
  for (size_t I = 0; I != Others; ++I)
    EXPECT_FALSE(Live.write("/big/file" + std::to_string(100000 + I), "x"));
  EXPECT_FALSE(Live.write("/small/a", "one"));
  uint64_t Before = Live.Counter->MetaPutBytes;
  EXPECT_FALSE(Live.write("/small/b", "two"));
  return Live.Counter->MetaPutBytes - Before;
}

TEST(KvDirRecords, PersistCostIsPerDirectory) {
  uint64_t Small = metadataBytesForOneWrite(10);
  uint64_t Large = metadataBytesForOneWrite(2000);
  EXPECT_GT(Small, 0u);
  EXPECT_EQ(Small, Large);
}

TEST(KvDirRecords, RenameAndRmdirKeepTheStoreExact) {
  BrowserEnv Env(chromeProfile());
  KvFs Live(Env);
  ASSERT_FALSE(Live.InitError.has_value());
  for (const char *D : {"/src", "/src/a", "/src/a/b", "/src/a/b/c",
                        "/src/a/empty", "/dst"})
    ASSERT_FALSE(Live.mkdir(D));
  ASSERT_FALSE(Live.write("/src/f1", "1"));
  ASSERT_FALSE(Live.write("/src/a/f2", "22"));
  ASSERT_FALSE(Live.write("/src/a/b/f3", "333"));
  ASSERT_FALSE(Live.write("/src/a/b/c/f4", "4444"));
  ASSERT_FALSE(Live.sync());
  expectStoreExact(Env, Live);

  // Move the subtree with its nested directories to another parent.
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rename("/src/a", "/dst/a2", Cb); }));
  ASSERT_FALSE(Live.sync());
  EXPECT_EQ(Live.Backend->index().lookup("/src/a"), nullptr);
  ASSERT_NE(Live.Backend->index().lookup("/dst/a2/b/c/f4"), nullptr);
  expectStoreExact(Env, Live);

  // Empty a nested directory, then remove it and the one that was empty.
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->unlink("/dst/a2/b/c/f4", Cb); }));
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rmdir("/dst/a2/b/c", Cb); }));
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rmdir("/dst/a2/empty", Cb); }));
  ASSERT_FALSE(Live.sync());
  EXPECT_EQ(Live.Backend->index().lookup("/dst/a2/b/c"), nullptr);
  expectStoreExact(Env, Live);

  // A plain file rename across directories.
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rename("/src/f1", "/dst/f1", Cb); }));
  ASSERT_FALSE(Live.sync());
  expectStoreExact(Env, Live);

  // A file renamed onto itself stays; a directory cannot replace a file.
  ASSERT_FALSE(Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rename("/dst/f1", "/dst/f1", Cb); }));
  std::optional<ApiError> E = Live.run(
      [&](fs::CompletionCb Cb) { Live.Fs->rename("/dst/a2", "/dst/f1", Cb); });
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::NotDir);
  ASSERT_FALSE(Live.sync());
  ASSERT_NE(Live.Backend->index().lookup("/dst/f1"), nullptr);
  ASSERT_NE(Live.Backend->index().lookup("/dst/a2/f2"), nullptr);
  expectStoreExact(Env, Live);
}

TEST(KvDirRecords, LoadingAnEmptyStoreKeepsEarlierMutations) {
  // Over a store with no records the walk finds no tree, so mutations
  // issued before it completes survive it.
  BrowserEnv Env(chromeProfile());
  fs::KeyValueBackend Backend(Env, std::make_unique<fs::CloudKv>(Env));
  std::optional<ApiError> InitError = ApiError(Errno::Io, "pending");
  Backend.initialize([&](std::optional<ApiError> E) { InitError = E; });
  Backend.mkdir("/early", [](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
  });
  drain(Env);
  ASSERT_FALSE(InitError.has_value());
  EXPECT_EQ(Backend.index().allDirs(), std::vector<std::string>{"/early"});
}

/// Replaces the first occurrence of \p From in \p B with \p To.
Bytes patched(Bytes B, const Bytes &From, const Bytes &To) {
  auto It = std::search(B.begin(), B.end(), From.begin(), From.end());
  EXPECT_NE(It, B.end());
  if (It == B.end())
    return B;
  It = B.erase(It, It + static_cast<ptrdiff_t>(From.size()));
  B.insert(It, To.begin(), To.end());
  return B;
}

/// A length-prefixed name, as records frame them.
Bytes framed(const std::string &Name) {
  Bytes B(4 + Name.size());
  B[3] = static_cast<uint8_t>(Name.size());
  std::copy(Name.begin(), Name.end(), B.begin() + 4);
  return B;
}

/// The outcome of reloading the tab's IndexedDB with \p Record stored
/// under \p Key: a failure must be EIO and leave the index empty.
bool reloadWith(BrowserEnv &Env, const std::string &Key, const Bytes &Record) {
  Env.indexedDB()->put(Key, Record, [](bool Ok) { ASSERT_TRUE(Ok); });
  drain(Env);
  KvFs Reload(Env);
  if (!Reload.InitError)
    return true;
  EXPECT_EQ(Reload.InitError->Code, Errno::Io)
      << Reload.InitError->message();
  EXPECT_TRUE(Reload.Backend->index().allFiles().empty());
  EXPECT_TRUE(Reload.Backend->index().allDirs().empty());
  return false;
}

TEST(KvDirRecords, CorruptRecordsFailWithEio) {
  BrowserEnv Env(chromeProfile());
  std::map<std::string, std::vector<uint64_t>> Want;
  {
    KvFs Live(Env);
    ASSERT_FALSE(Live.mkdir("/d"));
    ASSERT_FALSE(Live.mkdir("/d/sub"));
    for (const char *F : {"/d/ab", "/d/ac", "/d/q", "/d/xx", "/d/abc",
                          "/d/sub/leaf"})
      ASSERT_FALSE(Live.write(F, F));
    ASSERT_FALSE(Live.sync());
    Want = treeOf(Live.Backend->index());
  }
  std::map<std::string, Bytes> Records;
  for (const char *Key : {"d:/", "d:/d"})
    Env.indexedDB()->get(Key, [&Records, Key](std::optional<Bytes> V) {
      ASSERT_TRUE(V.has_value());
      Records[Key] = *V;
    });
  drain(Env);
  ASSERT_EQ(Records.size(), 2u);

  // Every truncation of either record fails the reload.
  for (const auto &[Key, Record] : Records) {
    for (size_t Cut = 0; Cut != Record.size(); ++Cut)
      EXPECT_FALSE(reloadWith(
          Env, Key,
          Bytes(Record.begin(), Record.begin() + static_cast<ptrdiff_t>(Cut))))
          << Key << " cut=" << Cut;
    ASSERT_TRUE(reloadWith(Env, Key, Record)) << Key;
  }

  // Structurally bad records: bad names, a duplicate, trailing bytes.
  const Bytes &Dir = Records["d:/d"];
  Bytes Trailing = Dir;
  Trailing.push_back(0);
  for (const Bytes &Bad :
       {patched(Dir, framed("q"), framed("")),
        patched(Dir, framed("q"), framed(".")),
        patched(Dir, framed("xx"), framed("..")),
        patched(Dir, framed("abc"), framed("a/c")),
        patched(Dir, framed("ac"), framed("ab")), Trailing})
    EXPECT_FALSE(reloadWith(Env, "d:/d", Bad));

  // Seeded bit flips: the reload either fails cleanly or loads some tree.
  std::mt19937 Rng(20140609);
  for (int Trial = 0; Trial != 400; ++Trial) {
    Bytes Flipped = Dir;
    for (int Flips = 1 + Trial % 3; Flips != 0; --Flips) {
      size_t Bit = Rng() % (Flipped.size() * 8);
      Flipped[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    }
    reloadWith(Env, "d:/d", Flipped);
  }

  ASSERT_TRUE(reloadWith(Env, "d:/d", Dir));
  KvFs Reload(Env);
  EXPECT_EQ(treeOf(Reload.Backend->index()), Want);
}

//===----------------------------------------------------------------------===//
// Write path: value lifetime and stores written under the FNV-era hash
//===----------------------------------------------------------------------===//

/// Writes \p Value under \p Key straight into the tab's IndexedDB, below
/// any cache.
void idbPut(BrowserEnv &Env, const std::string &Key, const Bytes &Value) {
  bool Wrote = false;
  Env.indexedDB()->put(Key, Value, [&](bool Ok) { Wrote = Ok; });
  drain(Env);
  ASSERT_TRUE(Wrote) << Key;
}

TEST(CachedStoreWritePath, EverySizeRoundTripsThroughEvictAndFill) {
  const size_t Sizes[] = {0,  1,     7,     8,     31,   32,
                          33, 16383, 16384, 16385, 40000};
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.CapacityBytes = 0; // Every clean byte is evicted, so reads must fill.
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  for (size_t N : Sizes)
    ASSERT_FALSE(putKv(Env, Store, "v" + std::to_string(N),
                       blob(N, static_cast<uint8_t>(N)))
                     .has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  ASSERT_EQ(Store.stats().CachedBytes, 0u);

  for (size_t N : Sizes) {
    auto Got = getKv(Env, Store, "v" + std::to_string(N));
    ASSERT_TRUE(Got.has_value()) << N;
    EXPECT_EQ(*Got, blob(N, static_cast<uint8_t>(N))) << N;
  }
  EXPECT_GE(Store.stats().Fills, std::size(Sizes) - 1); // All but size 0.
}

TEST(CachedStoreWritePath, CallerBufferIsNotAliasedAfterPut) {
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                      quiescentConfig());
  drain(Env);
  for (size_t N : {100, 40000}) { // One block, then several.
    std::string Key = "k" + std::to_string(N);
    Bytes V = blob(N, 4);
    bool Acked = false;
    Store.put(Key, V, [&](std::optional<ApiError> E) {
      EXPECT_FALSE(E.has_value());
      Acked = true;
    });
    ASSERT_TRUE(Acked);
    std::fill(V.begin(), V.end(), 0xAA);
    V.clear();
    auto Got = getKv(Env, Store, Key);
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, blob(N, 4));
  }
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env),
                       quiescentConfig());
  drain(Env);
  for (size_t N : {100, 40000}) {
    auto Got = getKv(Env, Reader, "k" + std::to_string(N));
    ASSERT_TRUE(Got.has_value());
    EXPECT_EQ(*Got, blob(N, 4));
  }
}

TEST(CachedStoreWritePath, PutQueuedBeforeReadyLands) {
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                      quiescentConfig());
  ASSERT_FALSE(Store.ready()); // Recovery is still reading the slow store.
  Bytes V = blob(300, 6);
  std::optional<ApiError> Err = ApiError(Errno::Io, "never completed");
  Store.put("early", V, [&](std::optional<ApiError> E) { Err = E; });
  std::fill(V.begin(), V.end(), 0);
  drain(Env);
  ASSERT_TRUE(Store.ready());
  EXPECT_FALSE(Err.has_value());
  auto Got = getKv(Env, Store, "early");
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, blob(300, 6));
  // It also reached the journal that recovery had not yet loaded.
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env),
                       quiescentConfig());
  drain(Env);
  Got = getKv(Env, Reader, "early");
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, blob(300, 6));
}

/// The block id a store wrote before ids were XXH64: byte-wise FNV-1a
/// through the murmur3 fmix64 finalizer.
uint64_t fnvEraHash(const Bytes &B) {
  uint64_t H = 1469598103934665603ull;
  for (uint8_t C : B) {
    H ^= C;
    H *= 1099511628211ull;
  }
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

/// Block ids are opaque names once written, so the hash change needs no
/// format bump: an image whose ids are not hashBlock of their contents
/// still recovers, and GC reclaims its blocks once they are rewritten.
TEST(CachedStoreWritePath, FnvEraImageReadsBackAndIsCollected) {
  BrowserEnv Env(chromeProfile());
  const std::map<std::string, Bytes> Values = {
      {"empty", Bytes()}, {"small", blob(100, 1)}, {"big", blob(40000, 2)}};
  const size_t BlockBytes = 16 * 1024;
  Directory Old;
  std::vector<BlockId> OldIds;
  for (const auto &[Key, V] : Values) {
    Manifest M;
    M.SizeBytes = V.size();
    for (size_t I = 0; I * BlockBytes < V.size(); ++I) {
      Bytes P = blockPayload(V, BlockBytes, I);
      BlockId Id{fnvEraHash(P), static_cast<uint32_t>(P.size())};
      ASSERT_NE(Id.Hash, hashOf(P));
      idbPut(Env, blockKey(Id), P);
      M.Blocks.push_back(Id);
      OldIds.push_back(Id);
    }
    Old.put(Key, M);
  }
  ASSERT_EQ(OldIds.size(), 4u);
  idbPut(Env, "dir", Old.serialize());

  CacheConfig C = quiescentConfig();
  C.CheckpointJournalBytes = 64; // Checkpoint (and GC) after the flush.
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  ASSERT_TRUE(Store.ready());
  for (const auto &[Key, V] : Values) {
    auto Got = getKv(Env, Store, Key);
    ASSERT_TRUE(Got.has_value()) << Key;
    EXPECT_EQ(*Got, V) << Key;
  }

  for (const auto &[Key, V] : Values)
    ASSERT_FALSE(putKv(Env, Store, Key, V).has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  CacheStats S = Store.stats();
  EXPECT_GE(S.Checkpoints, 1u);
  EXPECT_EQ(S.GcBlocks, OldIds.size());
  std::vector<std::string> Keys = idbKeys(Env);
  for (const BlockId &Id : OldIds)
    EXPECT_EQ(std::count(Keys.begin(), Keys.end(), blockKey(Id)), 0)
        << blockKey(Id);

  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  for (const auto &[Key, V] : Values) {
    auto Got = getKv(Env, Reader, Key);
    ASSERT_TRUE(Got.has_value()) << Key;
    EXPECT_EQ(*Got, V) << Key;
  }
}

//===----------------------------------------------------------------------===//
// Seeded model differential and the slow-store call order
//===----------------------------------------------------------------------===//

/// Issues a del and drains the loop; returns the completion error.
std::optional<ApiError> delKv(BrowserEnv &Env, fs::AsyncKvStore &S,
                              const std::string &K) {
  std::optional<ApiError> Out = ApiError(Errno::Io, "never completed");
  S.del(K, [&](std::optional<ApiError> E) { Out = E; });
  drain(Env);
  return Out;
}

/// Random put/get/del/sync/reload sequences against a std::map model.
/// Values are cut from a handful of 1 KB block payloads, so different
/// keys (and blocks of one value) share blocks; sizes run from 0 bytes
/// through one partial block to several blocks; the capacity holds a few
/// blocks, so entries are evicted and refilled; and a small checkpoint
/// threshold makes checkpoints and GC run between the ops. A reload is a
/// sync, then a fresh cache over the same IndexedDB.
TEST(CachedStoreModel, SeededOpsMatchAMapModel) {
  constexpr size_t BlockBytes = 1024;
  std::vector<Bytes> Pieces;
  for (uint8_t I = 0; I != 5; ++I)
    Pieces.push_back(blob(BlockBytes, static_cast<uint8_t>(40 * I + 1)));
  CacheConfig C = quiescentConfig();
  C.BlockBytes = BlockBytes;
  C.CapacityBytes = 6 * BlockBytes;
  C.DirtyHighWaterBytes = 4 * BlockBytes;
  C.CheckpointJournalBytes = 2048;
  // Totals over every store instance of every seed: each mechanism the
  // sequences are meant to reach must have run.
  CacheStats Total;
  auto Tally = [&Total](const CacheStats &S) {
    Total.Evictions += S.Evictions;
    Total.DedupHits += S.DedupHits;
    Total.Fills += S.Fills;
    Total.Checkpoints += S.Checkpoints;
    Total.GcBlocks += S.GcBlocks;
  };

  for (uint32_t Seed = 1; Seed != 9; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    auto Pick = [&Rng](uint32_t N) { return static_cast<uint32_t>(Rng() % N); };
    auto Value = [&]() {
      Bytes V;
      uint32_t Whole = Pick(4); // 0-3 whole blocks ...
      for (uint32_t I = 0; I != Whole; ++I) {
        const Bytes &P = Pieces[Pick(Pieces.size())];
        V.insert(V.end(), P.begin(), P.end());
      }
      if (Pick(2)) { // ... then maybe a partial tail.
        const Bytes &P = Pieces[Pick(Pieces.size())];
        V.insert(V.end(), P.begin(), P.begin() + 1 + Pick(BlockBytes - 1));
      }
      return V;
    };

    BrowserEnv Env(chromeProfile());
    auto Store = std::make_unique<CachedKvStore>(
        Env, std::make_unique<fs::IndexedDbKv>(Env), C);
    drain(Env);
    std::map<std::string, Bytes> Model;
    auto Check = [&](const std::string &K) {
      std::optional<Bytes> Got = getKv(Env, *Store, K);
      auto It = Model.find(K);
      ASSERT_EQ(Got.has_value(), It != Model.end()) << K;
      if (Got) {
        ASSERT_EQ(*Got, It->second) << K;
      }
    };

    for (int Op = 0; Op != 250; ++Op) {
      SCOPED_TRACE("op=" + std::to_string(Op));
      std::string K = "k" + std::to_string(Pick(10));
      uint32_t Kind = Pick(20);
      if (Kind < 8) {
        Bytes V = Value();
        ASSERT_FALSE(putKv(Env, *Store, K, V).has_value());
        Model[K] = std::move(V);
      } else if (Kind < 15) {
        Check(K);
      } else if (Kind < 18) {
        ASSERT_FALSE(delKv(Env, *Store, K).has_value());
        Model.erase(K);
      } else if (Kind < 19) {
        ASSERT_FALSE(syncKv(Env, *Store).has_value());
      } else {
        ASSERT_FALSE(syncKv(Env, *Store).has_value());
        Tally(Store->stats());
        Store.reset();
        Store = std::make_unique<CachedKvStore>(
            Env, std::make_unique<fs::IndexedDbKv>(Env), C);
        drain(Env);
        ASSERT_TRUE(Store->ready());
      }
    }
    ASSERT_FALSE(syncKv(Env, *Store).has_value());
    Tally(Store->stats());
    Store.reset();
    Store = std::make_unique<CachedKvStore>(
        Env, std::make_unique<fs::IndexedDbKv>(Env), C);
    drain(Env);
    ASSERT_TRUE(Store->ready());
    EXPECT_EQ(Store->directory().size(), Model.size());
    for (int I = 0; I != 10; ++I)
      Check("k" + std::to_string(I));
  }
  EXPECT_GE(Total.Evictions, 1u);
  EXPECT_GE(Total.DedupHits, 1u);
  EXPECT_GE(Total.Fills, 1u);
  EXPECT_GE(Total.Checkpoints, 1u);
  EXPECT_GE(Total.GcBlocks, 1u);
}

/// Forwards to an owned slow store and logs every call as
/// "<op> <key> <value bytes>" (the bytes only for a put).
class RecordingKv : public fs::AsyncKvStore {
public:
  RecordingKv(std::unique_ptr<fs::AsyncKvStore> Inner,
              std::vector<std::string> &Log)
      : Inner(std::move(Inner)), Log(Log) {}

  std::string storeName() const override { return Inner->storeName(); }
  void get(const std::string &Key, GetCb Done) override {
    Log.push_back("get " + Key);
    Inner->get(Key, std::move(Done));
  }
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override {
    Log.push_back("put " + Key + " " + std::to_string(Value.size()));
    Inner->put(Key, Value, std::move(Done));
  }
  void del(const std::string &Key, DoneCb Done) override {
    Log.push_back("del " + Key);
    Inner->del(Key, std::move(Done));
  }

private:
  std::unique_ptr<fs::AsyncKvStore> Inner;
  std::vector<std::string> &Log;
};

/// The order in which the cache hands blocks to the slow store is part of
/// what every slow-store trace (and every virtual-time series built on
/// one) observes: a flush writes its dirty blocks, and GC deletes its
/// dead ones, in BlockId order. This pins the whole call sequence of a
/// put burst (with a dedup hit, an empty value and multi-block values),
/// a sync, a rewrite with a delete, and the sync whose flush crosses the
/// checkpoint threshold and collects the rewritten blocks.
TEST(CachedStore, SlowStoreCallSequenceIsPinned) {
  BrowserEnv Env(chromeProfile());
  std::vector<std::string> Log;
  CacheConfig C = quiescentConfig();
  C.CheckpointJournalBytes = 300;
  CachedKvStore Store(
      Env,
      std::make_unique<RecordingKv>(std::make_unique<fs::IndexedDbKv>(Env),
                                    Log),
      C);
  drain(Env);

  ASSERT_FALSE(putKv(Env, Store, "a", blob(100, 1)).has_value());
  ASSERT_FALSE(putKv(Env, Store, "b", blob(40000, 2)).has_value());
  ASSERT_FALSE(putKv(Env, Store, "c", blob(100, 1)).has_value());
  ASSERT_FALSE(putKv(Env, Store, "d", Bytes()).has_value());
  ASSERT_FALSE(putKv(Env, Store, "e", blob(20000, 3)).has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_EQ(Store.stats().Checkpoints, 0u);
  ASSERT_FALSE(putKv(Env, Store, "b", blob(40000, 4)).has_value());
  ASSERT_FALSE(putKv(Env, Store, "e", blob(17000, 5)).has_value());
  ASSERT_FALSE(delKv(Env, Store, "c").has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_EQ(Store.stats().Checkpoints, 1u);

  // Recovery reads; group 1's six distinct blocks ("c" dedups against
  // "a", "d" has none) in BlockId order, then its journal image; group
  // 2's blocks, its image, the checkpoint's directory snapshot, GC of the
  // five blocks only the old "b" and "e" held, in BlockId order, and the
  // truncated journal.
  const std::vector<std::string> Want = {
      "get dir",
      "get journal",
      "put b:5172d8a1d8a44efb.16384 16384",
      "put b:6f9f25633e0b46e9.100 100",
      "put b:c06a604433bf6443.3616 3616",
      "put b:e804def72b4a602c.16384 16384",
      "put b:fbd58e61e2f418a8.7232 7232",
      "put b:fc21d63edb50936c.16384 16384",
      "put journal 215",
      "put b:1a3c9936ffe017bc.616 616",
      "put b:3ef25c6e160e5713.16384 16384",
      "put b:765d2340e0dde8f1.7232 7232",
      "put b:814719e0b08dcd82.16384 16384",
      "put b:9313798fc8c94140.16384 16384",
      "put journal 342",
      "put dir 152",
      "del b:5172d8a1d8a44efb.16384",
      "del b:c06a604433bf6443.3616",
      "del b:e804def72b4a602c.16384",
      "del b:fbd58e61e2f418a8.7232",
      "del b:fc21d63edb50936c.16384",
      "put journal 8",
  };
  EXPECT_EQ(Log, Want);
}

//===----------------------------------------------------------------------===//
// Power-cut fuzz sweep
//===----------------------------------------------------------------------===//

/// The crash-consistency acceptance test: a scripted run over IndexedDB
/// builds N committed groups; the journal image is then cut at EVERY byte
/// offset (record boundaries and mid-record alike) and recovery must
/// yield exactly the tree after the longest fully-committed prefix of
/// groups — never a blend, never a torn value.
TEST(StorageCrashSweep, EveryByteOffsetRecoversAPrefix) {
  BrowserEnv Env(chromeProfile());
  ASSERT_NE(Env.indexedDB(), nullptr);

  using Model = std::map<std::string, Bytes>;
  std::vector<Model> States;   // States[k]: tree after k committed groups.
  std::vector<size_t> Offsets; // Offsets[k]: journal size after group k+1.
  States.push_back({});        // Zero groups: the empty tree.

  Bytes FullJournal;
  {
    CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                        quiescentConfig());
    drain(Env);
    ASSERT_TRUE(Store.ready());

    Model M;
    auto Group = [&](std::vector<std::pair<std::string, std::string>> Puts,
                     std::vector<std::string> Dels) {
      for (auto &[K, V] : Puts) {
        ASSERT_FALSE(putKv(Env, Store, K, bytesOf(V)).has_value());
        M[K] = bytesOf(V);
      }
      for (auto &K : Dels) {
        Store.del(K, [](std::optional<ApiError>) {});
        M.erase(K);
      }
      ASSERT_FALSE(syncKv(Env, Store).has_value());
      States.push_back(M);
      Offsets.push_back(Store.journal().bytes().size());
    };

    Group({{"a", "one"}, {"b", "two"}}, {});
    Group({{"c", std::string(600, 'c')}}, {});
    Group({{"a", "one-rewritten"}, {"d", "four"}}, {"b"});
    Group({{"e", std::string(100, 'e')}, {"f", "six"}}, {"c"});
    Group({}, {"d", "f"});
    Group({{"g", "last"}}, {});
    FullJournal = Store.journal().bytes();
  }
  ASSERT_EQ(Offsets.back(), FullJournal.size());
  ASSERT_GE(FullJournal.size(), 100u);

  for (size_t Cut = 0; Cut <= FullJournal.size(); ++Cut) {
    // Power cut: only a prefix of the journal image reached storage.
    Bytes Torn(FullJournal.begin(),
               FullJournal.begin() + static_cast<ptrdiff_t>(Cut));
    bool Wrote = false;
    Env.indexedDB()->put("journal", Torn, [&](bool Ok) {
      ASSERT_TRUE(Ok);
      Wrote = true;
    });
    drain(Env);
    ASSERT_TRUE(Wrote);

    CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                        quiescentConfig());
    drain(Env);
    ASSERT_TRUE(Store.ready());

    // The recovered tree must be the state after exactly the groups whose
    // commit record fits inside the cut.
    size_t K = 0;
    while (K < Offsets.size() && Offsets[K] <= Cut)
      ++K;
    ASSERT_EQ(Store.stats().ReplayedCommits, K) << "cut=" << Cut;
    const Model &Want = States[K];

    ASSERT_EQ(Store.directory().size(), Want.size()) << "cut=" << Cut;
    for (const auto &[Key, Val] : Want) {
      auto Got = getKv(Env, Store, Key);
      ASSERT_TRUE(Got.has_value()) << "cut=" << Cut << " key=" << Key;
      ASSERT_EQ(*Got, Val) << "cut=" << Cut << " key=" << Key;
    }
  }
}

} // namespace
