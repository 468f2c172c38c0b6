//===- tests/doppio/storage_test.cpp --------------------------------------==//
//
// Storage hierarchy tests (DESIGN.md §19): the content-addressed block
// vocabulary, the log-structured journal's codec and recovery, the
// write-back cached store's semantics (write-back acks, group commit,
// LRU + quota-pressure eviction, sequential prefetch, dedup), uniform
// ENOSPC surfacing at the fs layer, and the deterministic power-cut fuzz
// sweep: the journal is cut at *every* byte offset and the recovered tree
// must equal the state after some prefix of the committed groups.
//
//===----------------------------------------------------------------------===//

#include "doppio/storage/cached_store.h"

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
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env),
                      quiescentConfig());
  drain(Env);
  Bytes Same = blob(16 * 1024, 9);
  ASSERT_FALSE(putKv(Env, Store, "first", Same).has_value());
  ASSERT_FALSE(putKv(Env, Store, "second", Same).has_value());
  CacheStats S = Store.stats();
  EXPECT_GE(S.DedupHits, 1u);
  EXPECT_EQ(S.CachedBytes, Same.size()); // One pooled block, two refs.
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  // One block payload reached the slow store.
  EXPECT_EQ(Store.stats().FlushedBlocks, 1u);
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

TEST(CachedStore, UnjournaledModePersistsViaDirectorySnapshots) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.Journaled = false;
  {
    CachedKvStore Writer(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
    drain(Env);
    ASSERT_FALSE(putKv(Env, Writer, "x", bytesOf("snapshotted")).has_value());
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
  }
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  auto V = getKv(Env, Reader, "x");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(textOf(*V), "snapshotted");
  EXPECT_EQ(Reader.stats().ReplayedCommits, 0u); // No journal to replay.
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
