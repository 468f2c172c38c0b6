//===- bench/fig8_migrate.cpp - Figure 8: live guest migration ------------===//
//
// Extension beyond the paper: the continuation substrate (DESIGN.md §16)
// makes a running JVM guest a value — checkpointProcess freezes it into a
// self-describing blob, restoreProcess revives it — and the cluster's
// control plane ships that value between shard tabs. This harness
// measures what that buys and what it costs, per browser profile:
//
//  - a baseline run: java Ticker executes start-to-finish on shard 0;
//  - a migrated run: the same guest starts on shard 0, and once it has
//    produced some output the balancer live-migrates it to shard 1
//    (checkpoint at the next inter-slice quiescent point, kill the local
//    copy, ship the blob over the fabric, revive on the destination).
//
// Reported per profile: capture cost, blob size, restore cost, and the
// guest-observed downtime (capture + fabric hop + restore, on the two
// tabs' virtual clocks). The headline correctness number is
// output_identical: the source prefix concatenated with the destination
// tail must be bit-identical to the uninterrupted baseline.
//
// Acceptance (exit 1 on failure): every profile migrates exactly once,
// output is identical, and the migrated guest exits 0 on the destination.
//
//===----------------------------------------------------------------------===//

#include "doppio/cluster/cluster.h"

#include "bench_util.h"
#include "browser/profile.h"
#include "jvm/classfile/builder.h"
#include "jvm/proc_program.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::cluster;

namespace {

/// Outer iterations of the Ticker guest. Sized to span many 10 ms
/// scheduler slices: inter-slice boundaries are the only mid-run
/// quiescent points, so a guest that fits in one slice could never be
/// captured mid-stream.
constexpr int TickerN = 3000;

/// Migrate once the source has produced this much stdout (~4% of the
/// run), so the blob carries a genuinely mid-stream guest.
constexpr size_t MigrateAfterBytes = 1000;

/// Iterations between the guest's 2 ms naps. The naps matter for the
/// cluster, not the guest: the LockstepDriver pumps fabric mail between
/// rounds, and a round only ends when a tab needs an idle clock jump — a
/// guest that never sleeps monopolizes its shard's round, so the
/// balancer's Migrate frame could only arrive after it exited. A guest
/// with periodic timed waits (i.e. any service-shaped guest) keeps
/// rounds short and can be reached mid-run.
constexpr int NapEvery = 500;

/// class Ticker — one deterministic println per outer iteration (same
/// shape as tests/doppio/cont_test.cpp) plus a 2 ms nap every NapEvery
/// iterations: a mid-run checkpoint genuinely splits the output stream,
/// and the long arithmetic exercises the software-long Value round trip
/// through the image. Output is time-independent, so the migrated and
/// baseline streams must match bit-for-bit.
std::vector<uint8_t> tickerClassBytes(int N) {
  jvm::ClassBuilder B("Ticker");
  jvm::MethodBuilder &M = B.method(jvm::AccPublic | jvm::AccStatic, "main",
                                   "([Ljava/lang/String;)V");
  jvm::MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  jvm::MethodBuilder::Label KLoop = M.newLabel(), KDone = M.newLabel();
  M.lconst(1).lstore(1);
  M.iconst(0).istore(3);
  M.bind(Loop).iload(3).iconst(N).branch(jvm::Op::IfIcmpge, Done);
  M.lload(1)
      .lconst(1103515245)
      .op(jvm::Op::Lmul)
      .iload(3)
      .op(jvm::Op::I2l)
      .op(jvm::Op::Ladd)
      .lstore(1);
  M.iconst(0).istore(4);
  M.iconst(0).istore(5);
  M.bind(KLoop).iload(5).iconst(200).branch(jvm::Op::IfIcmpge, KDone);
  M.iload(4)
      .iconst(31)
      .op(jvm::Op::Imul)
      .iload(5)
      .op(jvm::Op::Iadd)
      .istore(4);
  M.iinc(5, 1).branch(jvm::Op::Goto, KLoop).bind(KDone);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.lload(1)
      .lconst(1000000)
      .op(jvm::Op::Lrem)
      .op(jvm::Op::L2i)
      .iload(4)
      .op(jvm::Op::Ixor)
      .invokevirtual("java/io/PrintStream", "println", "(I)V");
  jvm::MethodBuilder::Label NoNap = M.newLabel();
  M.iload(3)
      .iconst(NapEvery)
      .op(jvm::Op::Irem)
      .iconst(NapEvery - 1)
      .branch(jvm::Op::IfIcmpne, NoNap);
  M.lconst(2).invokestatic("java/lang/Thread", "sleep", "(J)V");
  M.bind(NoNap);
  M.iinc(3, 1).branch(jvm::Op::Goto, Loop);
  M.bind(Done).op(jvm::Op::Return);
  return B.bytes();
}

struct MigrateRun {
  std::string Output;       ///< Source prefix + destination tail.
  bool Quiesced = false;
  bool MigrationOk = false;
  int DstExit = -1;
  uint64_t CaptureUs = 0, RestoreUs = 0, BlobBytes = 0;
  uint64_t DowntimeUs = 0;  ///< Capture + fabric hop + restore.
  uint64_t Migrations = 0;  ///< balancer.migrations after the run.
};

/// One run: 2 shards, java Ticker on shard 0; when \p DoMigrate, the
/// balancer moves it to shard 1 mid-stream. Deterministic lockstep.
MigrateRun runOnce(const browser::Profile &P,
                   const std::vector<uint8_t> &Klass, bool DoMigrate) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  // Both shards serve the same classpath and can revive "jvm" images: a
  // content-replicated fleet, so any shard is a valid migration target.
  Cfg.ShardTemplate.Setup = [&Klass](Shard &S) {
    S.fs().mkdirp("/classes", [](std::optional<rt::ApiError> E) {
      assert(!E && "mkdirp /classes");
      (void)E;
    });
    S.fs().writeFile("/classes/Ticker.class", Klass,
                     [](std::optional<rt::ApiError> E) {
                       assert(!E && "seed Ticker.class");
                       (void)E;
                     });
    jvm::registerJvmRestore(S.checkpoints());
  };
  Cluster Cl(P, Cfg);
  LockstepDriver Drv(Cl.fabric());
  // Settle startup: worker pipelines, the Setup hook's fs writes.
  Drv.run(10000000);

  Shard *Src = Cl.shard(0);
  rt::proc::ProcessTable::SpawnSpec Spec;
  Spec.Name = "java";
  // The guest runs under the `quick` profile: migration must hold with
  // in-place quickened bytecode and live inline caches (DESIGN.md §18 —
  // the checkpoint reloads classes fresh, so _quick ops never cross).
  jvm::JvmOptions GuestOptions;
  GuestOptions.Exec = jvm::ExecProfile::quick();
  Spec.Prog = jvm::makeJvmProgram({"Ticker", {}, GuestOptions});
  rt::proc::Pid Pid = Src->procs().spawn(std::move(Spec));

  MigrateRun Out;
  bool Requested = false;
  Balancer::MigrationResult MR;
  bool HaveResult = false;
  std::function<void()> Probe = [&] {
    if (Requested)
      return;
    rt::proc::Process *Pr = Src->procs().find(Pid);
    if (!Pr || !Pr->alive())
      return; // Finished before the threshold: the check below fails.
    if (Pr->state().capturedStdout().size() >= MigrateAfterBytes) {
      Requested = true;
      bool Sent = Cl.migrateProcess(0, 1, Pid,
                                    [&](const Balancer::MigrationResult &R) {
                                      MR = R;
                                      HaveResult = true;
                                    });
      assert(Sent && "both shards are live");
      (void)Sent;
      return;
    }
    // Resume lane, same reasoning as the cluster's checkpoint retry: the
    // guest's slices run there, and Resume outranks Timer, so a Timer-
    // lane probe would starve until the guest exits.
    // Dropping the handle does not cancel; the next fire re-arms.
    Src->env().loop().postAfter(
        kernel::Lane::Resume, [&Probe] { Probe(); }, browser::usToNs(50));
  };
  if (DoMigrate)
    Probe();

  auto Rep = Drv.run(10000000);
  Out.Quiesced = Rep.Rounds < 10000000;
  Out.Migrations = Cl.balancer().migrationsDone();

  // Reaped records stay addressable, so the source's captured stdout —
  // frozen at the checkpoint/kill instant — survives the migration.
  rt::proc::Process *SrcPr = Src->procs().find(Pid);
  std::string SrcOut = SrcPr ? SrcPr->state().capturedStdout() : "";
  if (!DoMigrate) {
    Out.Output = std::move(SrcOut);
    return Out;
  }
  if (!HaveResult || !MR.Ok)
    return Out;
  Out.MigrationOk = true;
  Out.CaptureUs = MR.CaptureUs;
  Out.RestoreUs = MR.RestoreUs;
  Out.BlobBytes = MR.BlobBytes;
  Out.DowntimeUs =
      MR.CaptureUs + Cfg.Costs.HopLatencyNs / 1000 + MR.RestoreUs;
  rt::proc::Process *DstPr = Cl.shard(1)->procs().find(MR.NewPid);
  if (DstPr) {
    Out.DstExit = DstPr->exitCode();
    Out.Output = SrcOut + DstPr->state().capturedStdout();
  }
  return Out;
}

void printFigure8() {
  std::vector<uint8_t> Klass = tickerClassBytes(TickerN);
  printf("==========================================================\n");
  printf("Figure 8 (extension): live JVM guest migration across shards\n");
  printf("java Ticker(%d) starts on shard 0; after %zu B of stdout the\n",
         TickerN, MigrateAfterBytes);
  printf("balancer freezes it into a blob and revives it on shard 1.\n");
  printf("identical = source prefix + destination tail == baseline\n");
  printf("==========================================================\n");
  printf("%-10s %10s %10s %10s %12s %9s\n", "browser", "capture-us",
         "blob-B", "restore-us", "downtime-us", "identical");
  bool AllOk = true;
  uint64_t DowntimeUsMax = 0;
  BenchJson Json("fig8_migrate");
  for (const browser::Profile &P : browser::allProfiles()) {
    MigrateRun Base = runOnce(P, Klass, /*DoMigrate=*/false);
    MigrateRun Mig = runOnce(P, Klass, /*DoMigrate=*/true);
    bool Identical = !Base.Output.empty() && Mig.Output == Base.Output;
    bool Ok = Base.Quiesced && Mig.Quiesced && Mig.MigrationOk &&
              Mig.Migrations == 1 && Mig.DstExit == 0 && Identical;
    AllOk = AllOk && Ok;
    DowntimeUsMax = std::max(DowntimeUsMax, Mig.DowntimeUs);
    printf("%-10s %10llu %10llu %10llu %12llu %9s\n", P.Name.c_str(),
           static_cast<unsigned long long>(Mig.CaptureUs),
           static_cast<unsigned long long>(Mig.BlobBytes),
           static_cast<unsigned long long>(Mig.RestoreUs),
           static_cast<unsigned long long>(Mig.DowntimeUs),
           Ok ? "yes" : "FAIL");
    Json.row(P.Name)
        .metric("capture_us", static_cast<double>(Mig.CaptureUs))
        .metric("blob_bytes", static_cast<double>(Mig.BlobBytes))
        .metric("restore_us", static_cast<double>(Mig.RestoreUs))
        .metric("downtime_us", static_cast<double>(Mig.DowntimeUs))
        .metric("migrations", static_cast<double>(Mig.Migrations))
        .metric("baseline_bytes", static_cast<double>(Base.Output.size()))
        .metric("output_identical", Identical ? 1 : 0)
        .metric("dst_exit", static_cast<double>(Mig.DstExit))
        .metric("row_ok", Ok ? 1 : 0);
  }
  Json.hostMetric("downtime_us_max", static_cast<double>(DowntimeUsMax));
  Json.hostMetric("output_identical_all", AllOk ? 1 : 0);
  Json.write();
  printf("(capture/restore on the source/destination virtual clocks;\n"
         " downtime adds the fabric hop. The blob is the whole guest:\n"
         " heap, threads, frames, monitors, strings, class graph.)\n\n");
  if (!AllOk) {
    fprintf(stderr, "fig8_migrate: acceptance check failed\n");
    exit(1);
  }
}

void BM_Migrate_Chrome(benchmark::State &State) {
  std::vector<uint8_t> Klass = tickerClassBytes(TickerN);
  for (auto _ : State) {
    MigrateRun Mig = runOnce(browser::chromeProfile(), Klass, true);
    State.counters["capture_us_virtual"] =
        static_cast<double>(Mig.CaptureUs);
    State.counters["blob_bytes"] = static_cast<double>(Mig.BlobBytes);
    State.counters["downtime_us_virtual"] =
        static_cast<double>(Mig.DowntimeUs);
  }
}

} // namespace

BENCHMARK(BM_Migrate_Chrome)->Unit(benchmark::kMillisecond)->Iterations(2);

int main(int argc, char **argv) {
  printFigure8();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
