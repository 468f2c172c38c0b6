//===- perfbench/stack.cpp ------------------------------------------------===//

#include "stack.h"

#include <algorithm>
#include <cstring>

using namespace doppio;
using namespace perfbench;
namespace fs = doppio::rt::fs;
namespace storage = doppio::rt::storage;

CachedCloudStack::CachedCloudStack(browser::BrowserEnv &Env, Tracer *T)
    : Env(Env) {
  auto CloudOwned = std::make_unique<fs::CloudKv>(Env);
  Cloud = CloudOwned.get();
  std::unique_ptr<fs::AsyncKvStore> Slow = std::move(CloudOwned);
  if (T) {
    auto Tap = std::make_unique<KvTap>(std::move(Slow), T, Layer::Slow);
    SlowTap = Tap.get();
    Slow = std::move(Tap);
  }
  auto CacheOwned =
      std::make_unique<storage::CachedKvStore>(Env, std::move(Slow));
  Cache = CacheOwned.get();
  std::unique_ptr<fs::AsyncKvStore> Store = std::move(CacheOwned);
  if (T) {
    auto Tap = std::make_unique<KvTap>(std::move(Store), T, Layer::Store);
    StoreTap = Tap.get();
    Store = std::move(Tap);
  }
  Owned = std::make_unique<fs::KeyValueBackend>(Env, std::move(Store));
  Kv = Owned.get();
}

bool CachedCloudStack::initialize() {
  bool Ok = false;
  Kv->initialize([&Ok](std::optional<rt::ApiError> E) { Ok = !E; });
  Env.loop().run();
  return Ok;
}

std::unique_ptr<fs::KeyValueBackend> CachedCloudStack::reopen() {
  auto Borrowed = std::make_unique<KvTap>(*Cloud, nullptr, Layer::Slow);
  auto Fresh = std::make_unique<fs::KeyValueBackend>(
      Env,
      std::make_unique<storage::CachedKvStore>(Env, std::move(Borrowed)));
  bool Ok = false;
  Fresh->initialize([&Ok](std::optional<rt::ApiError> E) { Ok = !E; });
  Env.loop().run();
  return Ok ? std::move(Fresh) : nullptr;
}

CachedCloudStack::Counts CachedCloudStack::counts() const {
  Counts C;
  C.Cache = Cache->stats();
  if (StoreTap) {
    C.Gets = StoreTap->Gets;
    C.Puts = StoreTap->Puts;
    C.PutBytes = StoreTap->PutBytes;
    C.IndexPuts = StoreTap->IndexPuts;
    C.IndexPutBytes = StoreTap->IndexPutBytes;
  }
  if (SlowTap) {
    C.SlowGets = SlowTap->Gets;
    C.SlowPuts = SlowTap->Puts;
    C.SlowPutBytes = SlowTap->PutBytes;
  }
  return C;
}

void CachedCloudStack::mark() { AtMark = counts(); }

void CachedCloudStack::addLayers(Tracer &T, Iteration &It) const {
  Counts Now = counts();
  const Counts &M = AtMark;
  auto D = [](uint64_t A, uint64_t B) { return static_cast<double>(A - B); };
  It.Layers["backends.index_puts"] = D(Now.IndexPuts, M.IndexPuts);
  It.Layers["backends.index_put_bytes"] =
      D(Now.IndexPutBytes, M.IndexPutBytes);
  It.Layers["backends.kv_gets"] = D(Now.Gets, M.Gets);
  It.Layers["backends.kv_puts"] = D(Now.Puts, M.Puts);
  It.Layers["backends.kv_put_bytes"] = D(Now.PutBytes, M.PutBytes);

  const storage::CacheStats &A = Now.Cache, &B = M.Cache;
  uint64_t Hits = A.Hits - B.Hits, Misses = A.Misses - B.Misses;
  It.Layers["storage.hit_ratio"] =
      Hits + Misses ? static_cast<double>(Hits) /
                          static_cast<double>(Hits + Misses)
                    : 0.0;
  It.Layers["storage.flushes"] = D(A.Flushes, B.Flushes);
  It.Layers["storage.flushed_blocks"] = D(A.FlushedBlocks, B.FlushedBlocks);
  It.Layers["storage.journal_commits"] = D(A.JournalCommits, B.JournalCommits);
  It.Layers["storage.checkpoints"] = D(A.Checkpoints, B.Checkpoints);
  It.Layers["storage.gc_blocks"] = D(A.GcBlocks, B.GcBlocks);
  It.Layers["storage.dedup_hits"] = D(A.DedupHits, B.DedupHits);
  It.Layers["storage.evictions"] = D(A.Evictions, B.Evictions);

  It.Layers["slowstore.gets"] = D(Now.SlowGets, M.SlowGets);
  It.Layers["slowstore.puts"] = D(Now.SlowPuts, M.SlowPuts);
  It.Layers["slowstore.put_bytes"] = D(Now.SlowPutBytes, M.SlowPutBytes);
  It.Layers["slowstore.host_ns"] =
      static_cast<double>(T.exclusiveNs(Layer::Slow));
  It.Layers["storage.self_ns"] =
      static_cast<double>(layerSelfNs(T, Layer::Store));
}

void perfbench::addLoopLayers(browser::BrowserEnv &Env, const Tracer &T,
                              Iteration &It) {
  kernel::Counters K = Env.loop().kernel().counters();
  uint64_t QueueMax = 0;
  for (const kernel::LaneCounters &L : K.Lanes)
    QueueMax = std::max(QueueMax, L.MaxQueueDelayNs);
  It.Layers["kernel.dispatched"] = static_cast<double>(K.totalDispatched());
  It.Layers["kernel.timers_scheduled"] =
      static_cast<double>(K.TimersScheduled);
  It.Layers["kernel.queue_delay_max_us"] = static_cast<double>(QueueMax) / 1e3;
  It.Layers["loop.residual_ns"] =
      static_cast<double>(T.exclusiveNs(Layer::Loop));

  const obs::Registry &Reg = Env.metrics();
  uint64_t Samples = 0;
  Reg.forEachHistogram(
      [&Samples](const std::string &, const obs::Histogram &H) {
        Samples += H.samples().size();
      });
  It.Layers["obs.instruments"] = static_cast<double>(Reg.instrumentCount());
  It.Layers["obs.histogram_samples"] = static_cast<double>(Samples);
  It.Layers["obs.spans_finished"] =
      static_cast<double>(Reg.spans().finished());
}

uint64_t perfbench::layerSelfNs(const Tracer &T, Layer L) {
  std::vector<uint64_t> Self = T.selfNs();
  uint64_t Sum = 0;
  const std::vector<Span> &S = T.spans();
  for (size_t I = 0; I != S.size(); ++I)
    if (S[I].L == L)
      Sum += Self[I];
  return Sum;
}

double perfbench::meanDurationNs(const Tracer &T, Layer L, const char *Name) {
  uint64_t Sum = 0, N = 0;
  for (const Span &S : T.spans())
    if (S.L == L && (!Name || std::strcmp(S.Name, Name) == 0) && S.EndNs) {
      Sum += S.durationNs();
      ++N;
    }
  return N ? static_cast<double>(Sum) / static_cast<double>(N) : 0.0;
}
