//===- doppio/cluster/shard.h - One doppiod shard tab ------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One cluster shard (DESIGN.md §15): a complete BrowserEnv tab — its own
/// virtual clock, kernel, SimNet — running the existing doppiod stack
/// (Server + Router + stock handlers), the §5.1 file system seeded with the
/// bench corpus, and the process subsystem (ProcessTable + core programs,
/// so the spawn handler works and worker pipelines run inside the shard).
///
/// On top of the stock handlers the shard registers "work": body
/// "<spin_us> <path>" charges spin_us of JS-engine compute and then reads
/// the file — a CPU-bound request whose service time is serialized by the
/// shard's single virtual thread. That is the load fig7_cluster scales:
/// spreading "work" requests over N shard clocks is what buys the cluster
/// its near-linear throughput, exactly like adding cores to a real fleet.
///
/// The shard also pushes its stats over the fabric control plane (a
/// ShardSnapshot, encoded with the browser/wire.h codec) so the balancer
/// can aggregate per-shard metrics under claimed "shard" prefixes in its
/// own registry.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CLUSTER_SHARD_H
#define DOPPIO_DOPPIO_CLUSTER_SHARD_H

#include "browser/env.h"
#include "doppio/cluster/fabric.h"
#include "doppio/fs.h"
#include "doppio/proc/checkpoint.h"
#include "doppio/proc/proc.h"
#include "doppio/proc/programs.h"
#include "doppio/server/server.h"

#include <array>
#include <memory>
#include <optional>

namespace doppio {
namespace cluster {

/// A shard's stat record as shipped over the control plane. Field-for-
/// field what the balancer re-exposes under `shard<N>.*` gauges.
struct ShardSnapshot {
  uint32_t ShardId = 0;
  uint64_t Accepted = 0;
  uint64_t Refused = 0;
  uint64_t Active = 0;
  uint64_t RequestsServed = 0;
  uint64_t RequestErrors = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t ServiceP50Ns = 0;
  uint64_t ServiceP99Ns = 0;
  uint64_t ProcsSpawned = 0;
  uint64_t Zombies = 0;
  uint64_t VirtualNowNs = 0;

  /// [u32 id][12 x u64 counters], 100 bytes, through the wire.h codec;
  /// decode refuses any other length.
  std::vector<uint8_t> encode() const;
  static std::optional<ShardSnapshot> decode(const std::vector<uint8_t> &B);

private:
  /// The u64 fields in wire order, shared by encode and decode.
  template <typename Self> static auto counters(Self &S) {
    return std::array{&S.Accepted,       &S.Refused,      &S.Active,
                      &S.RequestsServed, &S.RequestErrors, &S.BytesIn,
                      &S.BytesOut,       &S.ServiceP50Ns, &S.ServiceP99Ns,
                      &S.ProcsSpawned,   &S.Zombies,      &S.VirtualNowNs};
  }
};

/// One shard tab: env + fs + procs + doppiod server.
class Shard {
public:
  struct Config {
    uint32_t Id = 0;
    /// doppiod port inside the shard's own SimNet port space.
    uint16_t Port = 7100;
    size_t Backlog = 64;
    size_t MaxConnections = 256;
    uint64_t IdleTimeoutNs = browser::msToNs(2000);
    /// Files seeded under /srv (f0.bin .. f<N-1>.bin, same corpus shape
    /// as fig7_server).
    size_t SeedFiles = 32;
    /// Worker pipelines (echo | wc over the proc subsystem) launched at
    /// startup, exercising pids/pipes inside every shard.
    size_t WorkerPipelines = 2;
    /// Runs on the shard at the end of construction. Benches use it to
    /// seed extra fs content (e.g. /classes) and bind restore factories
    /// in checkpoints() — keeping the cluster library guest-agnostic
    /// while its shards host migratable JVM programs (DESIGN.md §16).
    std::function<void(Shard &)> Setup;
  };

  Shard(const browser::Profile &P, Fabric &Fab, Config Cfg);
  ~Shard();

  Shard(const Shard &) = delete;
  Shard &operator=(const Shard &) = delete;

  uint32_t id() const { return Cfg.Id; }
  TabId tab() const { return Tab; }
  uint16_t port() const { return Cfg.Port; }
  const Config &config() const { return Cfg; }

  browser::BrowserEnv &env() { return Env; }
  rt::server::Server &server() { return *Srv; }
  rt::proc::ProcessTable &procs() { return *Procs; }
  rt::fs::FileSystem &fs() { return *Fs; }

  /// Current stat record (built on the shard's thread).
  ShardSnapshot snapshot();

  /// Ships a snapshot to \p Dst over the control plane.
  void pushStats(TabId Dst);

  /// Worker pipelines that have finished with exit 0 and matching output.
  size_t workersDone() const { return WorkersOk; }

  /// Restore factories for migrated-in checkpoint blobs; bound by the
  /// Config::Setup hook (the cluster library knows no guest languages).
  rt::proc::CheckpointRegistry &checkpoints() { return Checkpoints; }

  /// Freezes live process \p P (EAGAIN while it is not quiescent — the
  /// migration wiring retries on a shard timer). On this shard's thread.
  rt::ErrorOr<std::vector<uint8_t>> checkpointProcess(rt::proc::Pid P) {
    return rt::proc::checkpointProcess(*Procs, P);
  }

  /// Revives a migrated-in blob through checkpoints(). On this shard's
  /// thread.
  rt::ErrorOr<rt::proc::Pid>
  restoreProcess(const std::vector<uint8_t> &Blob) {
    return rt::proc::restoreProcess(*Procs, Blob, Checkpoints);
  }

private:
  void startWorkers();

  Fabric &Fab;
  Config Cfg;
  browser::BrowserEnv Env;
  rt::Process FsProc;
  std::unique_ptr<rt::fs::FileSystem> Fs;
  std::unique_ptr<rt::proc::ProcessTable> Procs;
  rt::proc::ProgramRegistry Progs;
  rt::proc::CheckpointRegistry Checkpoints;
  std::unique_ptr<rt::server::Server> Srv;
  TabId Tab = 0;
  size_t WorkersOk = 0;
};

} // namespace cluster
} // namespace doppio

#endif // DOPPIO_DOPPIO_CLUSTER_SHARD_H
