//===- doppio/storage/cached_store.h - Write-back block cache ----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §19.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage hierarchy's front: a write-back, content-addressed block
/// cache implementing AsyncKvStore, layered between the generic
/// KeyValueBackend and a slow adapter (localstorage / indexeddb / cloud).
/// The fig6 cliff this exists to fix: the cloud backend replays the javac
/// trace at ~870x virtual slowdown because every logical operation pays a
/// WAN round trip; warm, the cache serves hits synchronously and lands
/// within ~2x of the inmemory backend.
///
///  - Reads: a hit is served from memory in the same event (plus a small
///    copy charge). A miss consults the Directory (authoritative, in
///    memory — a negative lookup is free), fetches the manifest's blocks
///    from the slow store *in parallel* on the virtual clock, and — when
///    the miss extends a sequential run — prefetches the next
///    PrefetchDepth directory neighbours.
///  - Writes: acknowledged after the value is split into content-addressed
///    blocks, cached dirty, and its intent record staged in the journal.
///    A kernel Background-lane timer flushes dirty state (group commit);
///    crossing the dirty high-water mark flushes immediately
///    (backpressure). Flush order is the crash-consistency contract:
///    blocks first (content-addressed, so a torn flush is garbage, never
///    corruption), then the sealed journal image in one put — the
///    durability point (journal.h).
///  - Eviction: LRU over clean entries when the per-profile capacity
///    (derived from MemoryPressureBytes) is exceeded; dirty entries are
///    pinned until flushed. Quota pressure on the slow store fast-fails
///    puts with ENOSPC and kicks checkpoint + garbage collection to
///    reclaim dead blocks and journal bytes.
///
/// The cached store owns its slow-store namespace ("b:<hash>.<size>"
/// blocks, "dir" checkpoint, "journal" log); mixing direct writes to the
/// same slow store with cached access is unsupported.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_STORAGE_CACHED_STORE_H
#define DOPPIO_DOPPIO_STORAGE_CACHED_STORE_H

#include "browser/env.h"
#include "doppio/backends/kv_store.h"
#include "doppio/obs/registry.h"
#include "doppio/storage/block.h"
#include "doppio/storage/journal.h"

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace doppio {
namespace rt {
namespace storage {

/// Cache tuning, derived per browser profile (forProfile). All sizes are
/// bytes, all durations virtual nanoseconds.
struct CacheConfig {
  /// Content-addressed block granularity.
  size_t BlockBytes = 16 * 1024;
  /// Cached-bytes ceiling; LRU eviction of clean entries beyond it.
  uint64_t CapacityBytes = 8ull << 20;
  /// Dirty bytes that force an immediate (backpressure) flush.
  uint64_t DirtyHighWaterBytes = 2ull << 20;
  /// Background flush timer period (group-commit cadence).
  uint64_t FlushIntervalNs = browser::msToNs(8);
  /// Journal size that triggers a checkpoint (directory snapshot +
  /// truncation + block GC) after the next flush.
  size_t CheckpointJournalBytes = 256 * 1024;
  /// Directory neighbours fetched ahead on a sequential miss run.
  unsigned PrefetchDepth = 8;

  static CacheConfig forProfile(const browser::Profile &P);
};

/// Registry-backed counter snapshot (see the storage.* cells).
struct CacheStats {
  uint64_t Hits = 0, Misses = 0, Fills = 0, Evictions = 0, DedupHits = 0;
  uint64_t PrefetchIssued = 0, PrefetchHits = 0, QuotaRejects = 0;
  uint64_t Flushes = 0, FlushedBlocks = 0, FlushErrors = 0;
  uint64_t BackpressureFlushes = 0;
  uint64_t JournalCommits = 0, Checkpoints = 0, GcBlocks = 0;
  uint64_t ReplayedRecords = 0, ReplayedCommits = 0, TornTailBytes = 0;
  uint64_t CachedBytes = 0, DirtyBytes = 0, EntryCount = 0;
  uint64_t JournalDepthBytes = 0;

  double hitRatio() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Write-back block cache over a slow AsyncKvStore. Single-threaded like
/// everything on the event loop; the store must outlive any in-flight
/// slow-store completions (drain the loop before destroying it).
class CachedKvStore : public fs::AsyncKvStore {
public:
  CachedKvStore(browser::BrowserEnv &Env,
                std::unique_ptr<fs::AsyncKvStore> SlowStore,
                CacheConfig Config);
  CachedKvStore(browser::BrowserEnv &Env,
                std::unique_ptr<fs::AsyncKvStore> SlowStore);
  ~CachedKvStore() override;

  std::string storeName() const override {
    return "cached:" + Slow->storeName();
  }
  void get(const std::string &Key, GetCb Done) override;
  void put(const std::string &Key, const Bytes &Value, DoneCb Done) override;
  void del(const std::string &Key, DoneCb Done) override;

  uint64_t usedBytes() const override { return Slow->usedBytes(); }
  uint64_t quotaBytes() const override { return Slow->quotaBytes(); }
  uint64_t putCostBytes(const std::string &Key,
                        size_t ValueBytes) const override {
    return Slow->putCostBytes(Key, ValueBytes);
  }

  /// Flushes dirty entries and seals the journal group; \p Done fires once
  /// every previously acknowledged mutation is durable (or with the flush
  /// error).
  void sync(DoneCb Done) override;

  /// True once recovery (checkpoint load + journal replay) has finished;
  /// operations issued earlier are queued and drained in order.
  bool ready() const { return Ready; }

  /// Error from the most recent failed flush, if the failure persists
  /// (cleared by the next successful flush).
  std::optional<ApiError> lastFlushError() const { return Sticky; }

  CacheStats stats() const;
  fs::AsyncKvStore &slow() { return *Slow; }
  const Directory &directory() const { return Dir; }
  const Journal &journal() const { return J; }
  const CacheConfig &config() const { return Cfg; }

private:
  struct Block {
    std::vector<uint8_t> Data;
    uint32_t Refs = 0;
  };

  /// Keys of Entries, front = most recently used. Each points at its
  /// entry's key in the table, which stays put until the entry is erased.
  using LruOrder = std::list<const std::string *>;
  using BlockSet = std::unordered_set<BlockId, BlockIdHash>;
  template <typename V>
  using BlockMap = std::unordered_map<BlockId, V, BlockIdHash>;

  struct Entry {
    Manifest M;
    bool Dirty = false;
    bool Tombstone = false;
    bool Prefetched = false;
    uint64_t DirtyEpoch = 0;
    LruOrder::iterator LruPos;
  };

  /// One queued pre-ready operation. (Wrapped in a struct: the cont
  /// invariant forbids raw containers of void() closures outside cont/.)
  struct PendingOp {
    std::function<void()> Run;
  };

  /// One in-flight miss fill; later gets for the same key join Waiters.
  struct Fill {
    std::vector<GetCb> Waiters;
    Manifest M;
    BlockMap<std::vector<uint8_t>> Blocks;
    size_t Outstanding = 0;
    bool Prefetch = false;
    bool Failed = false;
  };

  void startRecovery();
  void finishRecovery(const std::optional<Bytes> &JournalImage);
  void enqueueOrRun(std::function<void()> Fn);

  void doGet(const std::string &Key, GetCb Done);
  void doPut(const std::string &Key, Bytes Value, DoneCb Done);
  void doDel(const std::string &Key, DoneCb Done);

  void serveFromEntry(Entry &E, GetCb &Done);
  void startFill(const std::string &Key, const Manifest &M, bool Prefetch,
                 GetCb Done);
  void finishFill(const std::string &Key);
  void maybePrefetch(const std::string &MissKey);

  Bytes assemble(const Manifest &M) const;
  void touchLru(Entry &E);
  /// Takes one reference on block \p B. Returns the new, empty pool slot
  /// for the caller to fill when the pool did not hold \p B yet, else null
  /// (a dedup hit).
  Bytes *refBlock(const BlockId &B);
  void dropEntryBlocks(const Entry &E);
  void evictIfNeeded();

  void armFlushTimer();
  void kickFlush(bool Backpressure);
  void runFlush();
  void flushBlocksDone(std::vector<BlockId> Written,
                       std::optional<ApiError> Err);
  void persistCommit(std::vector<BlockId> Written);
  void commitDurable(std::vector<BlockId> Written);
  void flushFailed(ApiError Err);
  void finishFlush(std::optional<ApiError> Err);
  void startCheckpoint(bool Rescue);
  void collectGarbage();
  bool anythingToFlush() const {
    return J.stagedRecords() != 0 || !SealedUnapplied.empty();
  }
  uint64_t projectedPutCost(const Manifest &M, const std::string &Key) const;

  browser::BrowserEnv &Env;
  std::unique_ptr<fs::AsyncKvStore> Slow;
  CacheConfig Cfg;

  /// Live logical view (reads and writes go through this).
  Directory Dir;
  /// State covered by durable commits (journal-persisted groups); what a
  /// checkpoint snapshots. Trails Dir by the staged/unflushed delta.
  Directory Committed;
  Journal J;
  /// Sealed-into-the-log but not yet durably persisted records; applied
  /// to Committed when the log image reaches the slow store.
  std::vector<Journal::Record> SealedUnapplied;

  // Hash tables throughout: nothing reaches the slow store in their
  // iteration order. runFlush and collectGarbage sort the blocks they
  // hand it by BlockId (DESIGN.md §19).
  std::unordered_map<std::string, Entry> Entries;
  BlockMap<Block> Pool;
  LruOrder LruList;
  /// Blocks known durable in the slow store.
  BlockSet Persisted;
  /// Blocks referenced by dirty entries, awaiting flush.
  BlockSet DirtyBlocks;
  uint64_t CachedBytes = 0;
  uint64_t DirtyBytes = 0;
  /// Projected slow-store quota consumption of everything dirty.
  uint64_t DirtyProjected = 0;
  uint64_t Epoch = 0;
  /// Epoch at the moment the in-flight group was sealed: entries dirtied
  /// at or before it become clean when that group commits.
  uint64_t SealEpoch = 0;

  bool Ready = false;
  std::vector<PendingOp> PendingOps;
  std::unordered_map<std::string, Fill> Fills;
  std::string LastMissKey;

  browser::TimerHandle FlushTimer;
  bool FlushInFlight = false;
  bool FlushAgain = false;
  bool RescueTried = false;
  std::optional<ApiError> Sticky;
  std::vector<DoneCb> SyncWaiters;

  obs::Counter *HitsC, *MissesC, *FillsC, *EvictionsC, *DedupHitsC;
  obs::Counter *PrefetchIssuedC, *PrefetchHitsC, *QuotaRejectsC;
  obs::Counter *FlushesC, *FlushedBlocksC, *FlushErrorsC, *BackpressureC;
  obs::Counter *CommitsC, *CheckpointsC, *GcBlocksC;
  obs::Counter *ReplayedRecordsC, *ReplayedCommitsC, *TornBytesC;
  obs::Gauge *BytesG, *DirtyBytesG, *EntriesG, *JournalDepthG;
};

} // namespace storage
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_STORAGE_CACHED_STORE_H
