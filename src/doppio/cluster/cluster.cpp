//===- doppio/cluster/cluster.cpp -----------------------------------------==//

#include "doppio/cluster/cluster.h"

#include "doppio/cluster/control.h"

using namespace doppio;
using namespace doppio::cluster;

Cluster::Cluster(const browser::Profile &P, Config Cfg)
    : Prof(P), Cfg(Cfg), Fab(Cfg.Costs) {
  // Balancer first: tab 0, the front end.
  Bal = std::make_unique<Balancer>(Prof, Fab, Cfg.Bal);
  bool Started = Bal->start();
  (void)Started;
  for (size_t I = 0; I < Cfg.Shards; ++I)
    spawnShard();
}

Cluster::~Cluster() {
  // Stat-push timers capture `this`; kill them before members go.
  for (auto &[Id, R] : ShardsById)
    R.PushTimer.cancel();
}

Shard *Cluster::shard(uint32_t Id) {
  auto It = ShardsById.find(Id);
  return It == ShardsById.end() ? nullptr : It->second.S.get();
}

uint32_t Cluster::spawnShard() {
  uint32_t Id = NextShardId++;
  Shard::Config SCfg = Cfg.ShardTemplate;
  SCfg.Id = Id;
  SCfg.Port = static_cast<uint16_t>(Cfg.ShardBasePort + Id);
  Rec R;
  R.S = std::make_unique<Shard>(Prof, Fab, SCfg);
  ShardsById.emplace(Id, std::move(R));
  wireShard(Id);
  Bal->addShard(Id, ShardsById[Id].S->tab(), SCfg.Port);
  armPush(Id);
  return Id;
}

void Cluster::wireShard(uint32_t Id) {
  Rec &R = ShardsById[Id];
  Shard *S = R.S.get();
  TabId ShardTab = S->tab();
  TabId BalTab = Bal->tab();
  // The shard's side of the control plane (runs on the shard's loop).
  Fab.setControlHandler(
      ShardTab, [this, Id, S, BalTab](TabId, std::vector<uint8_t> B) {
        auto M = control::decode(B);
        if (!M)
          return;
        Rec &R = ShardsById[Id];
        switch (M->K) {
        case control::Kind::Drain:
          // Balancer closed every link before sending this (FIFO), so
          // the server's remaining connections are idle: the drain is
          // immediate, cancels the idle sweep, and leaves zero pending
          // kernel work.
          R.DrainStarted = true;
          R.PushTimer.cancel();
          S->server().shutdown([this, Id, S, BalTab] {
            ShardsById[Id].Drained = true;
            Fab.sendControl(S->tab(), BalTab,
                            control::encode(control::Kind::DrainDone,
                                            S->snapshot().encode()));
          });
          break;
        case control::Kind::Kill:
          // Client-facing cleanup already happened balancer-side; the
          // shard just tears its server down and reports a last
          // snapshot.
          R.Killed = true;
          R.PushTimer.cancel();
          S->server().shutdown([this, S, BalTab] {
            Fab.sendControl(S->tab(), BalTab,
                            control::encode(control::Kind::Snapshot,
                                            S->snapshot().encode()));
          });
          break;
        case control::Kind::Migrate: {
          // Balancer wants a process moved off this shard. The checkpoint
          // may need retries (EAGAIN until the guest reaches a data-borne
          // quiescent point), so the source half runs as its own routine.
          if (auto Cmd = control::MigrateCmd::decode(M->Payload))
            migrateFrom(Id, *Cmd);
          break;
        }
        case control::Kind::MigrateBlob: {
          // A frozen process arriving from a peer shard: revive it through
          // this shard's restore factories and report the outcome.
          auto BM = control::MigrateBlobMsg::decode(M->Payload);
          if (!BM)
            break;
          control::MigrateDoneMsg D;
          D.RequestId = BM->RequestId;
          D.SrcShard = BM->SrcShard;
          D.DstShard = Id;
          D.CaptureUs = BM->CaptureUs;
          D.BlobBytes = BM->Blob.size();
          uint64_t Before = S->env().clock().nowNs();
          rt::ErrorOr<rt::proc::Pid> P = S->restoreProcess(BM->Blob);
          if (P.ok()) {
            // Revive cost on the destination clock: dominated by image
            // deserialization, so it scales with the blob.
            S->env().chargeCompute(
                browser::usToNs(20 + BM->Blob.size() / 1024));
            D.Ok = true;
            D.NewPid = *P;
          } else {
            D.Error = P.error().message();
          }
          D.RestoreUs = (S->env().clock().nowNs() - Before) / 1000;
          Fab.sendControl(S->tab(), BalTab,
                          control::encode(control::Kind::MigrateDone,
                                          D.encode()));
          break;
        }
        case control::Kind::DrainDone:
        case control::Kind::Snapshot:
        case control::Kind::MigrateDone:
          break; // Balancer-bound kinds.
        }
      });
}

void Cluster::migrateFrom(uint32_t Id, control::MigrateCmd Cmd,
                          uint32_t Attempt) {
  auto It = ShardsById.find(Id);
  if (It == ShardsById.end() || It->second.Killed)
    return;
  Shard *S = It->second.S.get();
  TabId BalTab = Bal->tab();
  uint64_t Before = S->env().clock().nowNs();
  rt::ErrorOr<std::vector<uint8_t>> Blob = S->checkpointProcess(Cmd.Pid);
  if (!Blob.ok()) {
    if (Blob.error().Code == rt::Errno::Again &&
        Attempt < Cfg.MigrateRetryCap) {
      // Not quiescent yet (an in-flight native, a class load, a timed
      // wait): let the guest run on and retry shortly. The retry rides
      // the Resume lane — green-thread slices run there and it outranks
      // Timer, so a Timer-lane retry would starve behind a compute-bound
      // guest until it exits. The handle is dropped on purpose —
      // destruction does not cancel (event_loop.h), and the retry must
      // outlive this frame. A guest that never reaches quiescence (say,
      // parked in a long sleep) exhausts MigrateRetryCap and falls
      // through to the error report below; the retry counter makes the
      // spin observable.
      S->env().metrics().counter("cluster.migrate_retries").inc();
      S->env().loop().postAfter(
          kernel::Lane::Resume,
          [this, Id, Cmd, Attempt] { migrateFrom(Id, Cmd, Attempt + 1); },
          browser::usToNs(100));
      return;
    }
    control::MigrateDoneMsg D;
    D.RequestId = Cmd.RequestId;
    D.SrcShard = Id;
    D.DstShard = Cmd.DstShard;
    D.Error = Blob.error().Code == rt::Errno::Again
                  ? "not quiescent after " + std::to_string(Attempt) +
                        " checkpoint retries"
                  : Blob.error().message();
    Fab.sendControl(S->tab(), BalTab,
                    control::encode(control::Kind::MigrateDone, D.encode()));
    return;
  }
  // Freeze cost on the source clock: dominated by image serialization.
  S->env().chargeCompute(browser::usToNs(20 + Blob->size() / 1024));
  uint64_t CaptureUs = (S->env().clock().nowNs() - Before) / 1000;
  // The blob is the process now; the local copy dies before the blob is
  // shipped, so exactly one copy ever runs. killNow, not kill: deferred
  // delivery would let an already-queued guest slice run past the
  // checkpoint, and the destination would replay that overlap.
  S->procs().killNow(Cmd.Pid, rt::proc::Signal::Kill);
  control::MigrateBlobMsg BM;
  BM.RequestId = Cmd.RequestId;
  BM.SrcShard = Id;
  BM.DstShard = Cmd.DstShard;
  BM.CaptureUs = CaptureUs;
  BM.Blob = std::move(*Blob);
  Fab.sendControl(S->tab(), Cmd.DstTab,
                  control::encode(control::Kind::MigrateBlob, BM.encode()));
}

bool Cluster::migrateProcess(
    uint32_t Src, uint32_t Dst, rt::proc::Pid P,
    std::function<void(const Balancer::MigrationResult &)> Done) {
  if (!ShardsById.count(Src) || !ShardsById.count(Dst))
    return false;
  return Bal->migrateProcess(Src, Dst, P, std::move(Done));
}

void Cluster::armPush(uint32_t Id) {
  if (Cfg.StatsPushPeriodNs == 0)
    return;
  Rec &R = ShardsById[Id];
  if (R.DrainStarted || R.Killed)
    return;
  Shard *S = R.S.get();
  R.PushTimer = S->env().loop().postAfter(
      kernel::Lane::Timer,
      [this, Id, S] {
        S->pushStats(Bal->tab());
        armPush(Id);
      },
      Cfg.StatsPushPeriodNs);
}

bool Cluster::drainShard(uint32_t Id,
                         std::function<void(const ShardSnapshot &)> Done) {
  if (!ShardsById.count(Id))
    return false;
  return Bal->drainShard(Id, std::move(Done));
}

bool Cluster::killShard(uint32_t Id) {
  if (!ShardsById.count(Id))
    return false;
  return Bal->killShard(Id);
}

bool Cluster::shardDrained(uint32_t Id) const {
  auto It = ShardsById.find(Id);
  return It != ShardsById.end() && It->second.Drained;
}

std::optional<uint64_t> Cluster::shardPendingWorkNs(uint32_t Id) {
  auto It = ShardsById.find(Id);
  if (It == ShardsById.end())
    return std::nullopt;
  return It->second.S->env().loop().nextEligibleNs();
}
