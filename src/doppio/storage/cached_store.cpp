//===- doppio/storage/cached_store.cpp ------------------------------------==//

#include "doppio/storage/cached_store.h"

#include "doppio/obs/span.h"

#include <algorithm>
#include <cassert>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;

namespace {

/// Slow-store keys owned by the cache layer itself.
const char *DirKey = "dir";
const char *JournalKey = "journal";

/// Journal record overhead estimate for quota projection: kind + lengths +
/// checksum + commit amortization.
uint64_t recordOverhead(const std::string &Key, const Manifest &M) {
  return 32 + Key.size() + 12 * M.Blocks.size();
}

} // namespace

CacheConfig CacheConfig::forProfile(const browser::Profile &P) {
  CacheConfig C;
  C.BlockBytes = 16 * 1024;
  // An eighth of the tab's memory-pressure budget, never less than 1 MB:
  // the cache competes with the emulated heap for the same tab.
  C.CapacityBytes = std::max<uint64_t>(P.MemoryPressureBytes / 8, 1ull << 20);
  C.DirtyHighWaterBytes = std::max<uint64_t>(C.CapacityBytes / 4, 256 * 1024);
  // Slow engines dispatch fewer events per virtual second; stretching the
  // group-commit window keeps flush overhead proportional.
  C.FlushIntervalNs = browser::msToNs(8) * (P.Costs.EngineFactor >= 10 ? 4 : 1);
  C.CheckpointJournalBytes = 256 * 1024;
  C.PrefetchDepth = 8;
  return C;
}

CachedKvStore::CachedKvStore(browser::BrowserEnv &Env,
                             std::unique_ptr<fs::AsyncKvStore> SlowStore,
                             CacheConfig Config)
    : Env(Env), Slow(std::move(SlowStore)), Cfg(Config) {
  obs::Registry &Reg = Env.metrics();
  std::string P = Reg.claimPrefix("storage");
  HitsC = &Reg.counter(P + ".cache.hits");
  MissesC = &Reg.counter(P + ".cache.misses");
  FillsC = &Reg.counter(P + ".cache.fills");
  EvictionsC = &Reg.counter(P + ".cache.evictions");
  DedupHitsC = &Reg.counter(P + ".cache.dedup_hits");
  PrefetchIssuedC = &Reg.counter(P + ".cache.prefetch_issued");
  PrefetchHitsC = &Reg.counter(P + ".cache.prefetch_hits");
  QuotaRejectsC = &Reg.counter(P + ".cache.quota_rejects");
  FlushesC = &Reg.counter(P + ".flush.flushes");
  FlushedBlocksC = &Reg.counter(P + ".flush.blocks");
  FlushErrorsC = &Reg.counter(P + ".flush.errors");
  BackpressureC = &Reg.counter(P + ".flush.backpressure");
  CommitsC = &Reg.counter(P + ".journal.commits");
  CheckpointsC = &Reg.counter(P + ".journal.checkpoints");
  GcBlocksC = &Reg.counter(P + ".journal.gc_blocks");
  ReplayedRecordsC = &Reg.counter(P + ".journal.replayed_records");
  ReplayedCommitsC = &Reg.counter(P + ".journal.replayed_commits");
  TornBytesC = &Reg.counter(P + ".journal.torn_bytes");
  BytesG = &Reg.gauge(P + ".cache.bytes");
  DirtyBytesG = &Reg.gauge(P + ".cache.dirty_bytes");
  EntriesG = &Reg.gauge(P + ".cache.entries");
  JournalDepthG = &Reg.gauge(P + ".journal.depth_bytes");
  startRecovery();
}

CachedKvStore::CachedKvStore(browser::BrowserEnv &Env,
                             std::unique_ptr<fs::AsyncKvStore> SlowStore)
    : CachedKvStore(Env, std::move(SlowStore),
                    CacheConfig::forProfile(Env.profile())) {}

CachedKvStore::~CachedKvStore() { FlushTimer.cancel(); }

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

void CachedKvStore::startRecovery() {
  // Checkpoint first, then the journal delta on top of it. A corrupt or
  // absent checkpoint degrades to an empty tree (the journal then carries
  // everything written since).
  Slow->get(DirKey, [this](ErrorOr<std::optional<Bytes>> V) {
    if (V.ok() && *V) {
      bool Ok = false;
      Committed = Directory::deserialize(**V, Ok);
      if (!Ok)
        Committed = Directory();
    }
    Slow->get(JournalKey, [this](ErrorOr<std::optional<Bytes>> JV) {
      finishRecovery(JV.ok() ? *JV : std::optional<Bytes>());
    });
  });
}

void CachedKvStore::finishRecovery(const std::optional<Bytes> &JournalImage) {
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Id = Spans.begin("storage.journal.replay");
  {
    obs::SpanStore::Scope Sc(Spans, Id);
    Journal::Recovery R =
        J.recover(JournalImage ? *JournalImage : Bytes(), Committed);
    ReplayedRecordsC->inc(R.RecordsApplied);
    ReplayedCommitsC->inc(R.Commits);
    TornBytesC->inc(R.TornTailBytes);
  }
  Spans.end(Id);

  Dir = Committed;
  // Invariant: every block a durable commit references was persisted
  // before that commit was sealed.
  for (const auto &[Key, M] : Committed.entries()) {
    (void)Key;
    for (const BlockId &B : M.Blocks)
      Persisted.insert(B);
  }
  JournalDepthG->set(static_cast<int64_t>(J.depthBytes()));

  Ready = true;
  std::vector<PendingOp> Ops;
  Ops.swap(PendingOps);
  for (PendingOp &Op : Ops)
    Op.Run();
}

void CachedKvStore::enqueueOrRun(std::function<void()> Fn) {
  if (Ready) {
    Fn();
    return;
  }
  PendingOps.push_back(PendingOp{std::move(Fn)});
}

//===----------------------------------------------------------------------===//
// Reads
//===----------------------------------------------------------------------===//

void CachedKvStore::get(const std::string &Key, GetCb Done) {
  if (!Ready) {
    enqueueOrRun([this, Key, Done = std::move(Done)]() mutable {
      doGet(Key, std::move(Done));
    });
    return;
  }
  doGet(Key, std::move(Done));
}

void CachedKvStore::serveFromEntry(Entry &E, GetCb &Done) {
  if (E.Tombstone) {
    Done(std::optional<Bytes>());
    return;
  }
  if (E.Prefetched) {
    E.Prefetched = false;
    PrefetchHitsC->inc();
  }
  Env.chargeIo(100 + E.M.SizeBytes / 8);
  Done(std::optional<Bytes>(assemble(E.M)));
}

void CachedKvStore::doGet(const std::string &Key, GetCb Done) {
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    HitsC->inc();
    touchLru(It->second);
    serveFromEntry(It->second, Done);
    return;
  }
  MissesC->inc();
  const Manifest *M = Dir.lookup(Key);
  if (!M) {
    // The directory is authoritative: a negative lookup never touches the
    // slow store.
    Env.chargeIo(100);
    Done(std::optional<Bytes>());
    return;
  }
  Manifest Copy = *M;
  maybePrefetch(Key);
  startFill(Key, Copy, /*Prefetch=*/false, std::move(Done));
}

void CachedKvStore::startFill(const std::string &Key, const Manifest &M,
                              bool Prefetch, GetCb Done) {
  auto It = Fills.find(Key);
  if (It != Fills.end()) {
    if (Done)
      It->second.Waiters.push_back(std::move(Done));
    return;
  }
  Fill &F = Fills[Key];
  F.M = M;
  F.Prefetch = Prefetch;
  if (Done)
    F.Waiters.push_back(std::move(Done));

  // Blocks already cached (shared with another entry) are copied up front:
  // their pool slots may be evicted while the rest are in flight.
  std::vector<BlockId> Missing;
  for (const BlockId &B : M.Blocks) {
    if (F.Blocks.count(B))
      continue; // Value-internal duplicate.
    auto PIt = Pool.find(B);
    if (PIt != Pool.end())
      F.Blocks[B] = PIt->second.Data;
    else
      Missing.push_back(B);
  }
  if (Missing.empty()) {
    finishFill(Key);
    return;
  }
  // Parallel fetches: on the virtual clock, N gets issued from the same
  // event overlap, so a multi-block miss costs one round trip, not N.
  F.Outstanding = Missing.size();
  for (const BlockId &B : Missing) {
    Slow->get(blockKey(B),
              [this, Key, B](ErrorOr<std::optional<Bytes>> V) {
                auto FIt = Fills.find(Key);
                if (FIt == Fills.end())
                  return;
                Fill &F = FIt->second;
                if (!V.ok() || !*V || (*V)->size() != B.Size)
                  F.Failed = true;
                else
                  F.Blocks[B] = std::move(**V);
                if (--F.Outstanding == 0)
                  finishFill(Key);
              });
  }
}

void CachedKvStore::finishFill(const std::string &Key) {
  auto It = Fills.find(Key);
  assert(It != Fills.end());
  Fill F = std::move(It->second);
  Fills.erase(It);

  // A put or del raced the fill: the entry is fresher than anything we
  // fetched — serve from it.
  auto EIt = Entries.find(Key);
  if (EIt != Entries.end()) {
    for (GetCb &W : F.Waiters)
      serveFromEntry(EIt->second, W);
    return;
  }
  if (F.Failed) {
    for (GetCb &W : F.Waiters)
      W(ApiError(Errno::Io, "storage: missing block for " + Key));
    return;
  }
  const Manifest *Cur = Dir.lookup(Key);
  if (!Cur) { // Deleted mid-fill.
    for (GetCb &W : F.Waiters)
      W(std::optional<Bytes>());
    return;
  }
  if (!(*Cur == F.M)) { // Rewritten mid-fill and already flushed+evicted.
    for (GetCb &W : F.Waiters)
      doGet(Key, std::move(W));
    return;
  }

  // The fetched payloads move into the pool; waiters get one assembled
  // copy, taken before eviction can drop the new entry again.
  for (const BlockId &B : F.M.Blocks)
    if (Bytes *Slot = refBlock(B))
      *Slot = std::move(F.Blocks[B]);
  Bytes Value = F.Waiters.empty() ? Bytes() : assemble(F.M);
  EIt = Entries.try_emplace(Key).first;
  Entry &E = EIt->second;
  E.M = F.M;
  E.Dirty = false;
  E.Tombstone = false;
  E.Prefetched = F.Prefetch;
  LruList.push_front(&EIt->first);
  E.LruPos = LruList.begin();
  FillsC->inc();
  EntriesG->set(static_cast<int64_t>(Entries.size()));
  BytesG->set(static_cast<int64_t>(CachedBytes));
  evictIfNeeded();

  Env.chargeIo(100 + F.M.SizeBytes / 8);
  for (GetCb &W : F.Waiters)
    W(std::optional<Bytes>(Value));
}

void CachedKvStore::maybePrefetch(const std::string &MissKey) {
  bool Sequential = Dir.adjacent(LastMissKey, MissKey);
  LastMissKey = MissKey;
  if (!Sequential || Cfg.PrefetchDepth == 0)
    return;
  std::string Next = MissKey;
  for (unsigned I = 0; I != Cfg.PrefetchDepth; ++I) {
    Next = Dir.nextKey(Next);
    if (Next.empty())
      break;
    if (Entries.count(Next) || Fills.count(Next))
      continue;
    const Manifest *M = Dir.lookup(Next);
    if (!M)
      continue;
    PrefetchIssuedC->inc();
    startFill(Next, *M, /*Prefetch=*/true, GetCb());
  }
}

//===----------------------------------------------------------------------===//
// Writes
//===----------------------------------------------------------------------===//

void CachedKvStore::put(const std::string &Key, const Bytes &Value,
                        DoneCb Done) {
  // Once ready, doPut takes the only copy of Value, and a value that fits
  // one block moves on into its pool slot.
  if (!Ready) {
    enqueueOrRun([this, Key, Value, Done = std::move(Done)]() mutable {
      doPut(Key, std::move(Value), std::move(Done));
    });
    return;
  }
  doPut(Key, Value, std::move(Done));
}

uint64_t CachedKvStore::projectedPutCost(const Manifest &M,
                                         const std::string &Key) const {
  uint64_t Cost = recordOverhead(Key, M);
  for (const BlockId &B : M.Blocks) {
    if (Persisted.count(B) || DirtyBlocks.count(B))
      continue; // Already durable or already billed.
    Cost += Slow->putCostBytes(blockKey(B), B.Size);
  }
  return Cost;
}

void CachedKvStore::doPut(const std::string &Key, Bytes Value, DoneCb Done) {
  Manifest M = makeManifest(Value, Cfg.BlockBytes);

  uint64_t Quota = Slow->quotaBytes();
  if (Quota) {
    uint64_t Need = projectedPutCost(M, Key);
    if (Slow->usedBytes() + DirtyProjected + Need > Quota) {
      // Fast-fail with ENOSPC instead of acking a write that can never be
      // flushed, then reclaim in the background (checkpoint truncates the
      // journal; GC deletes dead blocks) so later puts may fit.
      QuotaRejectsC->inc();
      if (!FlushInFlight && anythingToFlush())
        runFlush();
      else if (!FlushInFlight)
        startCheckpoint(/*Rescue=*/true);
      Done(ApiError(Errno::NoSpace, Key));
      return;
    }
    DirtyProjected += Need;
  }

  Env.chargeIo(100 + Value.size() / 8);

  auto [It, New] = Entries.try_emplace(Key);
  if (New) {
    LruList.push_front(&It->first);
    It->second.LruPos = LruList.begin();
  } else {
    dropEntryBlocks(It->second);
  }
  Entry &E = It->second;
  // A single-block value becomes its pool slot as is; only a value that
  // spans blocks is cut into per-block copies.
  for (size_t I = 0; I != M.Blocks.size(); ++I)
    if (Bytes *Slot = refBlock(M.Blocks[I]))
      *Slot = M.Blocks.size() == 1 ? std::move(Value)
                                   : blockPayload(Value, Cfg.BlockBytes, I);
  E.M = M;
  E.Dirty = true;
  E.Tombstone = false;
  E.Prefetched = false;
  E.DirtyEpoch = ++Epoch;
  touchLru(E);

  Dir.put(Key, M);
  J.stagePut(Key, std::move(M));

  EntriesG->set(static_cast<int64_t>(Entries.size()));
  BytesG->set(static_cast<int64_t>(CachedBytes));
  DirtyBytesG->set(static_cast<int64_t>(DirtyBytes));

  if (DirtyBytes > Cfg.DirtyHighWaterBytes)
    kickFlush(/*Backpressure=*/true);
  else
    armFlushTimer();
  evictIfNeeded();
  Done(std::nullopt);
}

void CachedKvStore::del(const std::string &Key, DoneCb Done) {
  enqueueOrRun([this, Key, Done = std::move(Done)]() mutable {
    doDel(Key, std::move(Done));
  });
}

void CachedKvStore::doDel(const std::string &Key, DoneCb Done) {
  bool Existed = Dir.lookup(Key) != nullptr;
  auto It = Entries.find(Key);
  if (!Existed && It == Entries.end()) {
    Done(std::nullopt); // Deleting the absent is a no-op, like the adapters.
    return;
  }
  Dir.remove(Key);
  if (It == Entries.end()) {
    It = Entries.try_emplace(Key).first;
    LruList.push_front(&It->first);
    It->second.LruPos = LruList.begin();
    EntriesG->set(static_cast<int64_t>(Entries.size()));
  } else {
    dropEntryBlocks(It->second);
  }
  Entry &E = It->second;
  E.M = Manifest();
  E.Dirty = true;
  E.Tombstone = true;
  E.DirtyEpoch = ++Epoch;
  touchLru(E);
  if (Existed)
    J.stageDel(Key);
  BytesG->set(static_cast<int64_t>(CachedBytes));
  armFlushTimer();
  Done(std::nullopt);
}

//===----------------------------------------------------------------------===//
// Cache bookkeeping
//===----------------------------------------------------------------------===//

CachedKvStore::Bytes CachedKvStore::assemble(const Manifest &M) const {
  Bytes Out;
  Out.reserve(M.SizeBytes);
  for (const BlockId &B : M.Blocks) {
    auto It = Pool.find(B);
    assert(It != Pool.end() && "cached entry references an evicted block");
    Out.insert(Out.end(), It->second.Data.begin(), It->second.Data.end());
  }
  return Out;
}

void CachedKvStore::touchLru(Entry &E) {
  if (E.LruPos != LruList.begin())
    LruList.splice(LruList.begin(), LruList, E.LruPos);
  E.LruPos = LruList.begin();
}

CachedKvStore::Bytes *CachedKvStore::refBlock(const BlockId &B) {
  auto [It, New] = Pool.try_emplace(B);
  ++It->second.Refs;
  if (New)
    CachedBytes += B.Size;
  else
    DedupHitsC->inc();
  if (!Persisted.count(B) && DirtyBlocks.insert(B).second)
    DirtyBytes += B.Size;
  return New ? &It->second.Data : nullptr;
}

void CachedKvStore::dropEntryBlocks(const Entry &E) {
  for (const BlockId &B : E.M.Blocks) {
    auto It = Pool.find(B);
    if (It == Pool.end())
      continue;
    if (--It->second.Refs != 0)
      continue;
    CachedBytes -= B.Size;
    // An unreferenced dirty block will never be read back: within a commit
    // group the last record for a key wins, so its payload need not reach
    // the slow store at all.
    if (DirtyBlocks.erase(B))
      DirtyBytes -= B.Size;
    Pool.erase(It);
  }
}

void CachedKvStore::evictIfNeeded() {
  if (CachedBytes <= Cfg.CapacityBytes)
    return;
  auto It = LruList.end();
  while (CachedBytes > Cfg.CapacityBytes && It != LruList.begin()) {
    --It;
    auto EIt = Entries.find(**It);
    assert(EIt != Entries.end());
    if (EIt->second.Dirty)
      continue; // Pinned until flushed.
    dropEntryBlocks(EIt->second);
    It = LruList.erase(It);
    Entries.erase(EIt);
    EvictionsC->inc();
  }
  EntriesG->set(static_cast<int64_t>(Entries.size()));
  BytesG->set(static_cast<int64_t>(CachedBytes));
  // Everything left is dirty: only a flush can unpin it.
  if (CachedBytes > Cfg.CapacityBytes)
    kickFlush(/*Backpressure=*/true);
}

//===----------------------------------------------------------------------===//
// Flush pipeline
//===----------------------------------------------------------------------===//

void CachedKvStore::armFlushTimer() {
  if (FlushInFlight || FlushTimer.armed())
    return;
  FlushTimer = Env.loop().postAfter(
      kernel::Lane::Background, [this] { kickFlush(false); },
      Cfg.FlushIntervalNs);
}

void CachedKvStore::kickFlush(bool Backpressure) {
  if (Backpressure)
    BackpressureC->inc();
  if (FlushInFlight) {
    FlushAgain = true;
    return;
  }
  if (!anythingToFlush()) {
    finishFlush(std::nullopt);
    return;
  }
  runFlush();
}

void CachedKvStore::runFlush() {
  FlushInFlight = true;
  FlushTimer.cancel();

  // Seal the open group: the staged records join the log image, and are
  // remembered so Committed can absorb them once the image is durable.
  if (J.stagedRecords()) {
    J.sealGroup(&SealedUnapplied);
    SealEpoch = Epoch;
  }

  // Phase 1: persist dirty blocks, in parallel. Content-addressed keys
  // make this safe before the commit: a crash here leaves unreferenced
  // garbage blocks, never a torn value. They go out in BlockId order, so
  // the slow store sees the same sequence whatever the table's order.
  std::vector<BlockId> ToWrite(DirtyBlocks.begin(), DirtyBlocks.end());
  std::sort(ToWrite.begin(), ToWrite.end());
  if (ToWrite.empty()) {
    persistCommit(std::move(ToWrite));
    return;
  }
  struct BatchState {
    std::vector<BlockId> Written;
    size_t Outstanding;
    std::optional<ApiError> Err;
  };
  auto State = std::make_shared<BatchState>();
  State->Written = std::move(ToWrite);
  State->Outstanding = State->Written.size();
  for (const BlockId &B : State->Written) {
    auto PIt = Pool.find(B);
    assert(PIt != Pool.end() && "dirty block evicted before flush");
    Slow->put(blockKey(B), PIt->second.Data,
              [this, State](std::optional<ApiError> E) {
                if (E && !State->Err)
                  State->Err = E;
                if (--State->Outstanding != 0)
                  return;
                flushBlocksDone(std::move(State->Written), State->Err);
              });
  }
}

void CachedKvStore::flushBlocksDone(std::vector<BlockId> Written,
                                    std::optional<ApiError> Err) {
  if (Err) {
    flushFailed(*Err);
    return;
  }
  FlushedBlocksC->inc(Written.size());
  persistCommit(std::move(Written));
}

void CachedKvStore::persistCommit(std::vector<BlockId> Written) {
  // Phase 2: the durability point — one atomic slow-store put of the log
  // image.
  Slow->put(JournalKey, J.bytes(),
            [this, Written = std::move(Written)](
                std::optional<ApiError> E) mutable {
              if (E) {
                flushFailed(*E);
                return;
              }
              // commitDurable clears the records: their manifests move.
              for (Journal::Record &R : SealedUnapplied) {
                if (R.K == Journal::Record::Kind::Put)
                  Committed.put(R.Key, std::move(R.M));
                else if (R.K == Journal::Record::Kind::Del)
                  Committed.remove(R.Key);
              }
              commitDurable(std::move(Written));
            });
}

void CachedKvStore::commitDurable(std::vector<BlockId> Written) {
  for (const BlockId &B : Written) {
    Persisted.insert(B);
    if (DirtyBlocks.erase(B))
      DirtyBytes -= B.Size;
  }
  uint64_t Groups = SealedUnapplied.empty() ? 0 : 1;
  SealedUnapplied.clear();
  CommitsC->inc(Groups);
  FlushesC->inc();
  Sticky.reset();
  RescueTried = false;
  DirtyProjected = 0;
  for (const BlockId &B : DirtyBlocks)
    DirtyProjected += Slow->putCostBytes(blockKey(B), B.Size);

  // Entries dirtied before the group was sealed are clean now; later
  // writers (higher epoch) stay pinned for the next group.
  for (auto It = Entries.begin(); It != Entries.end();) {
    Entry &E = It->second;
    bool Sealed = E.Dirty && E.DirtyEpoch <= SealEpoch;
    if (Sealed)
      E.Dirty = false;
    if (Sealed && E.Tombstone) {
      LruList.erase(E.LruPos);
      It = Entries.erase(It);
    } else {
      ++It;
    }
  }
  DirtyBytesG->set(static_cast<int64_t>(DirtyBytes));
  EntriesG->set(static_cast<int64_t>(Entries.size()));
  JournalDepthG->set(static_cast<int64_t>(J.depthBytes()));
  // Entries unpinned by this commit may now be evictable.
  if (CachedBytes > Cfg.CapacityBytes)
    evictIfNeeded();

  if (J.depthBytes() > Cfg.CheckpointJournalBytes) {
    startCheckpoint(/*Rescue=*/false);
    return;
  }
  finishFlush(std::nullopt);
}

void CachedKvStore::flushFailed(ApiError Err) {
  FlushErrorsC->inc();
  if (Err.Code == Errno::NoSpace && !RescueTried) {
    // Reclaim and retry once: a checkpoint truncates the journal and GC
    // deletes dead blocks, which is often enough to fit the group.
    RescueTried = true;
    startCheckpoint(/*Rescue=*/true);
    return;
  }
  finishFlush(Err);
}

void CachedKvStore::startCheckpoint(bool Rescue) {
  FlushInFlight = true;
  FlushTimer.cancel();
  assert(Rescue || SealedUnapplied.empty());
  // Committed is exactly the durable state (the snapshot never runs ahead
  // of what journal replay yields), so a crash between the two puts below
  // recovers consistently: new dir + old journal replays idempotently
  // back to Committed.
  Slow->put(DirKey, Committed.serialize(), [this, Rescue](
                                               std::optional<ApiError> E) {
    if (E) {
      // A failed checkpoint loses nothing: the journal still covers the
      // delta. Surface as a flush error only when we were rescuing.
      FlushErrorsC->inc();
      finishFlush(Rescue ? std::optional<ApiError>(*E) : std::nullopt);
      return;
    }
    // Shrink the in-memory log to the still-pending delta: any group
    // sealed but not yet durable must survive the truncation (a rescue
    // checkpoint runs exactly because persisting it failed).
    J.truncate();
    J.appendGroup(SealedUnapplied);
    CheckpointsC->inc();
    JournalDepthG->set(static_cast<int64_t>(J.depthBytes()));
    collectGarbage();
    if (Rescue && anythingToFlush()) {
      // Retry the failed group with the reclaimed space; the retried
      // flush persists the shrunk journal image after its blocks land.
      FlushInFlight = false;
      runFlush();
      return;
    }
    // Nothing pending: persist the shrunk image so recovery stops
    // replaying the checkpointed prefix.
    Slow->put(JournalKey, J.bytes(), [this, Rescue](
                                         std::optional<ApiError> E2) {
      if (E2) {
        FlushErrorsC->inc();
        finishFlush(Rescue ? std::optional<ApiError>(*E2) : std::nullopt);
        return;
      }
      finishFlush(std::nullopt);
    });
  });
}

void CachedKvStore::collectGarbage() {
  // Blocks referenced by no durable state and no pending group are dead.
  BlockSet Referenced;
  for (const auto &[Key, M] : Committed.entries()) {
    (void)Key;
    for (const BlockId &B : M.Blocks)
      Referenced.insert(B);
  }
  for (const Journal::Record &R : SealedUnapplied)
    for (const BlockId &B : R.M.Blocks)
      Referenced.insert(B);
  for (const Journal::Record &R : J.staged())
    for (const BlockId &B : R.M.Blocks)
      Referenced.insert(B);
  for (const BlockId &B : DirtyBlocks)
    Referenced.insert(B);

  // Deleted in BlockId order, like the blocks runFlush writes.
  std::vector<BlockId> Dead;
  for (const BlockId &B : Persisted)
    if (!Referenced.count(B))
      Dead.push_back(B);
  std::sort(Dead.begin(), Dead.end());
  for (const BlockId &B : Dead) {
    Persisted.erase(B);
    GcBlocksC->inc();
    Slow->del(blockKey(B), [](std::optional<ApiError>) {});
  }
}

void CachedKvStore::finishFlush(std::optional<ApiError> Err) {
  FlushInFlight = false;
  if (Err) {
    Sticky = Err;
    std::vector<DoneCb> Waiters;
    Waiters.swap(SyncWaiters);
    for (DoneCb &W : Waiters)
      W(Err);
    return;
  }
  bool More = anythingToFlush();
  if (More && (FlushAgain || !SyncWaiters.empty())) {
    FlushAgain = false;
    runFlush();
    return;
  }
  FlushAgain = false;
  if (More) {
    armFlushTimer();
    return;
  }
  std::vector<DoneCb> Waiters;
  Waiters.swap(SyncWaiters);
  for (DoneCb &W : Waiters)
    W(std::nullopt);
}

void CachedKvStore::sync(DoneCb Done) {
  enqueueOrRun([this, Done = std::move(Done)]() mutable {
    if (!anythingToFlush() && !FlushInFlight) {
      Done(std::nullopt);
      return;
    }
    SyncWaiters.push_back(std::move(Done));
    if (!FlushInFlight)
      runFlush();
  });
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

CacheStats CachedKvStore::stats() const {
  CacheStats S;
  S.Hits = HitsC->value();
  S.Misses = MissesC->value();
  S.Fills = FillsC->value();
  S.Evictions = EvictionsC->value();
  S.DedupHits = DedupHitsC->value();
  S.PrefetchIssued = PrefetchIssuedC->value();
  S.PrefetchHits = PrefetchHitsC->value();
  S.QuotaRejects = QuotaRejectsC->value();
  S.Flushes = FlushesC->value();
  S.FlushedBlocks = FlushedBlocksC->value();
  S.FlushErrors = FlushErrorsC->value();
  S.BackpressureFlushes = BackpressureC->value();
  S.JournalCommits = CommitsC->value();
  S.Checkpoints = CheckpointsC->value();
  S.GcBlocks = GcBlocksC->value();
  S.ReplayedRecords = ReplayedRecordsC->value();
  S.ReplayedCommits = ReplayedCommitsC->value();
  S.TornTailBytes = TornBytesC->value();
  S.CachedBytes = CachedBytes;
  S.DirtyBytes = DirtyBytes;
  S.EntryCount = Entries.size();
  S.JournalDepthBytes = J.depthBytes();
  return S;
}
