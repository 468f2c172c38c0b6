//===- perfbench/stack.h - The cached-cloud storage stack -------*- C++ -*-===//
//
// KeyValueBackend -> CachedKvStore -> CloudKv, the persistent stack both
// storage workloads run on. When traced, a KvTap sits between the backend
// and the cache (the store layer) and another between the cache and the
// cloud (the slow-store layer). The cloud store is reachable after the
// stack is handed to a FileSystem, so a fresh backend can reload from it.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STACK_H
#define PERFBENCH_STACK_H

#include "bench.h"

#include "browser/env.h"
#include "doppio/backends/kv_backend.h"
#include "doppio/storage/cached_store.h"

namespace perfbench {

class CachedCloudStack {
public:
  CachedCloudStack(doppio::browser::BrowserEnv &Env, Tracer *T);

  /// Loads the persisted index; runs the loop. False on error.
  bool initialize();
  /// Hands the backend to a FileSystem (call once).
  std::unique_ptr<doppio::rt::fs::KeyValueBackend> take() {
    return std::move(Owned);
  }

  doppio::rt::fs::KeyValueBackend &backend() { return *Kv; }
  doppio::rt::storage::CachedKvStore &cache() { return *Cache; }

  /// Builds a second cache + backend over the same cloud store and loads
  /// it, as a page reload would. Null when initialization fails.
  std::unique_ptr<doppio::rt::fs::KeyValueBackend> reopen();

  /// Records the traffic counters; layer metrics report deltas from here.
  void mark();
  /// Adds backends.*, storage.* and slowstore.* metrics to \p It.
  void addLayers(Tracer &T, Iteration &It) const;

private:
  struct Counts {
    doppio::rt::storage::CacheStats Cache;
    uint64_t Gets = 0, Puts = 0, PutBytes = 0, IndexPuts = 0,
             IndexPutBytes = 0, SlowGets = 0, SlowPuts = 0, SlowPutBytes = 0;
  };
  Counts counts() const;

  doppio::browser::BrowserEnv &Env;
  doppio::rt::fs::CloudKv *Cloud = nullptr;
  doppio::rt::storage::CachedKvStore *Cache = nullptr;
  KvTap *StoreTap = nullptr;
  KvTap *SlowTap = nullptr;
  doppio::rt::fs::KeyValueBackend *Kv = nullptr;
  std::unique_ptr<doppio::rt::fs::KeyValueBackend> Owned;
  Counts AtMark;
};

/// Adds the kernel.*, obs.* and loop.* metrics every workload reports.
void addLoopLayers(doppio::browser::BrowserEnv &Env, const Tracer &T,
                   Iteration &It);

/// Sum of self time over the spans of layer \p L.
uint64_t layerSelfNs(const Tracer &T, Layer L);

/// Mean duration of spans of layer \p L named \p Name (every name when
/// null); 0 when there are none.
double meanDurationNs(const Tracer &T, Layer L, const char *Name);

} // namespace perfbench

#endif // PERFBENCH_STACK_H
