//===- examples/doppio_top.cpp - top(1) for a simulated tab --------------===//
//
// A tour of the observability subsystem (src/doppio/obs/): stand up a
// doppiod under client load, and render the tab's metrics registry as
// periodic `top`-style snapshots on the virtual clock — kernel lane
// counters, fs and server instruments, latency histogram percentiles, and
// the most recent causal spans showing one request's journey
// client.req -> server.req.file -> fs.readFile with its queue delay.
//
// The served tree lives on the storage hierarchy (DESIGN.md §19): a
// write-back block cache + journal over cloud storage, so each snapshot
// also renders a live cache panel (hit ratio, dirty bytes, evictions,
// journal depth) straight from the storage.* registry cells.
//
// Also demonstrates timer handles: the refresh tick is a
// browser::TimerHandle re-armed from its own callback and cancelled when
// the load completes.
//
// Build and run:  ./build/examples/doppio_top
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/fs.h"
#include "doppio/obs/exposition.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"
#include "doppio/storage/cached_store.h"
#include "workloads/traffic.h"

#include <cstdio>

using namespace doppio;
using namespace doppio::rt;

namespace {

/// The live cache panel, assembled from the storage.* registry cells the
/// CachedKvStore publishes (the same cells a FrameClient scrape sees).
std::string renderCachePanel(obs::Registry &Reg) {
  auto C = [&](const char *Suffix) {
    return (unsigned long long)Reg.counter(std::string("storage.") + Suffix)
        .value();
  };
  auto G = [&](const char *Suffix) {
    return (long long)Reg.gauge(std::string("storage.") + Suffix).value();
  };
  unsigned long long Hits = C("cache.hits"), Misses = C("cache.misses");
  double Ratio = Hits + Misses
                     ? 100.0 * static_cast<double>(Hits) /
                           static_cast<double>(Hits + Misses)
                     : 0.0;
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "storage: hit %5.1f%% (%llu/%llu)  dirty %lld B  cached %lld B "
           "in %lld entries\n"
           "         evict %llu  flush %llu (%llu blocks)  journal %lld B "
           "depth, %llu commits, %llu ckpt\n",
           Ratio, Hits, Hits + Misses, G("cache.dirty_bytes"),
           G("cache.bytes"), G("cache.entries"), C("cache.evictions"),
           C("flush.flushes"), C("flush.blocks"), G("journal.depth_bytes"),
           C("journal.commits"), C("journal.checkpoints"));
  return Buf;
}

} // namespace

int main() {
  browser::BrowserEnv Env(browser::chromeProfile());
  Process Proc;

  // Content to serve, on the cached-cloud storage hierarchy: the first
  // request for a file faults its blocks in over the WAN; repeats hit.
  auto Cached = std::make_unique<storage::CachedKvStore>(
      Env, std::make_unique<fs::CloudKv>(Env));
  auto Kv = std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
  Kv->initialize([](std::optional<ApiError>) {});
  fs::FileSystem Fs(Env, Proc, std::move(Kv));
  Fs.mkdirp("/srv", [](std::optional<ApiError>) {});
  for (int I = 0; I < 8; ++I)
    Fs.writeFile("/srv/f" + std::to_string(I) + ".bin",
                 std::vector<uint8_t>(256 + 128 * I, 0x2a),
                 [](std::optional<ApiError>) {});
  Env.loop().run(); // Seed (and let the write-back cache flush it).

  // The server, with the metrics handler installed so a FrameClient could
  // scrape the same registry this example prints.
  server::Server::Config Cfg;
  Cfg.Port = 9090;
  server::Server Srv(Env, Cfg);
  server::installDefaultHandlers(Srv.router(), Fs, &Env.metrics());
  if (!Srv.start()) {
    printf("could not listen on %u\n", Cfg.Port);
    return 1;
  }

  // Client load: 8 clients x 16 file requests.
  workloads::TrafficConfig TCfg;
  TCfg.Port = Cfg.Port;
  TCfg.Clients = 8;
  TCfg.RequestsPerClient = 16;
  TCfg.Handler = "file";
  for (int I = 0; I < 8; ++I) {
    std::string P = "/srv/f" + std::to_string(I) + ".bin";
    TCfg.Bodies.emplace_back(P.begin(), P.end());
  }
  workloads::TrafficGen Gen(Env, TCfg);

  // The refresh tick: every 2 virtual ms, print a snapshot and re-arm.
  bool LoadDone = false;
  browser::TimerHandle Tick;
  std::function<void()> Refresh = [&] {
    printf("--- doppio_top @ %llu us (virtual) ---\n",
           (unsigned long long)(Env.clock().nowNs() / 1000));
    printf("%s", renderCachePanel(Env.metrics()).c_str());
    printf("%s\n", obs::renderTop(Env.metrics(), /*MaxSpans=*/6).c_str());
    if (!LoadDone)
      Tick = Env.loop().postAfter(kernel::Lane::Timer, Refresh,
                                  browser::msToNs(2));
  };
  Tick = Env.loop().postAfter(kernel::Lane::Timer, Refresh,
                              browser::msToNs(2));

  Gen.start([&] {
    LoadDone = true;
    if (Tick.cancel())
      printf("[refresh tick cancelled via TimerHandle]\n");
    Srv.shutdown([&] {
      printf("=== final snapshot (server drained) ===\n");
      printf("%s", renderCachePanel(Env.metrics()).c_str());
      printf("%s\n", obs::renderTop(Env.metrics()).c_str());
    });
  });

  Env.loop().run();

  const workloads::TrafficReport &R = Gen.report();
  printf("load: %llu ok, %llu errors, p50 %.1f us, p99 %.1f us\n",
         (unsigned long long)R.Completed, (unsigned long long)R.Errors,
         static_cast<double>(R.p50Ns()) / 1e3,
         static_cast<double>(R.p99Ns()) / 1e3);
  return 0;
}
