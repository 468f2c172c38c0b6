//===- tests/jvm/quick_test.cpp -------------------------------------------==//
//
// Quickening, threaded dispatch, and inline caches (DESIGN.md §18), plus
// the ExecProfile surface that gates them:
//
//  - ExecProfile presets, the shared spec parser, and env overrides.
//  - Differential runs: every builtin workload under the `baseline` and
//    `quick` profiles must produce bit-identical output — the profiles
//    may only trade host speed and virtual cost, never behavior.
//  - Mid-run checkpoint/restore and a live cluster migration of a guest
//    whose bytecode has been rewritten in place to _quick forms: the
//    DPCP/JPRG images must stay valid (pc stability + fresh-class
//    restore make quickening invisible to the serializer).
//
// Registered under `ctest -L quick`.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/cluster/cluster.h"
#include "jvm/checkpoint.h"
#include "jvm/classfile/builder.h"
#include "jvm/exec_profile.h"
#include "jvm/jvm.h"
#include "jvm/proc_program.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using doppio::testutil::JvmRig;

namespace {

//===----------------------------------------------------------------------===//
// ExecProfile: presets, parser, env override
//===----------------------------------------------------------------------===//

TEST(ExecProfileApi, PresetsCarryTheirKnobs) {
  ExecProfile B = ExecProfile::baseline();
  EXPECT_FALSE(B.TrustVerifier);
  EXPECT_EQ(B.SuspendChecks, SuspendCheckMode::CallBoundary);
  EXPECT_FALSE(B.Quicken);
  EXPECT_FALSE(B.InlineCaches);

  ExecProfile V = ExecProfile::verified();
  EXPECT_TRUE(V.TrustVerifier);
  EXPECT_FALSE(V.Quicken);

  ExecProfile P = ExecProfile::placed();
  EXPECT_EQ(P.SuspendChecks, SuspendCheckMode::Placed);

  ExecProfile Q = ExecProfile::quick();
  EXPECT_TRUE(Q.TrustVerifier);
  EXPECT_TRUE(Q.Quicken);
  EXPECT_TRUE(Q.InlineCaches);
}

TEST(ExecProfileApi, ParserAcceptsPresetsAndOverrides) {
  ExecProfile P;
  ASSERT_TRUE(ExecProfile::parse("quick", P));
  EXPECT_TRUE(P.Quicken);
  EXPECT_EQ(P.Name, "quick");

  ASSERT_TRUE(ExecProfile::parse("placed,trust=0", P));
  EXPECT_EQ(P.SuspendChecks, SuspendCheckMode::Placed);
  EXPECT_FALSE(P.TrustVerifier);

  ASSERT_TRUE(
      ExecProfile::parse("trust=1,suspend=everywhere,quicken=1,ic=0", P));
  EXPECT_TRUE(P.TrustVerifier);
  EXPECT_EQ(P.SuspendChecks, SuspendCheckMode::Everywhere);
  EXPECT_TRUE(P.Quicken);
  EXPECT_FALSE(P.InlineCaches);

  std::string Err;
  EXPECT_FALSE(ExecProfile::parse("warp9", P, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(ExecProfile::parse("quick,tempo=3", P, &Err));
}

TEST(ExecProfileApi, EnvOverrideSelectsQuickProfile) {
  ASSERT_EQ(setenv("DOPPIO_JVM_PROFILE", "quick", 1), 0);
  JvmRig Rig(ExecutionMode::DoppioJS);
  EXPECT_TRUE(Rig.vm().profile().Quicken);
  EXPECT_TRUE(Rig.vm().profile().InlineCaches);
  ASSERT_EQ(unsetenv("DOPPIO_JVM_PROFILE"), 0);
}

//===----------------------------------------------------------------------===//
// Differential: builtin workloads, baseline vs quick
//===----------------------------------------------------------------------===//

struct ProfiledRun {
  int Exit;
  std::string Out;
  uint64_t QuickenedSites;
  uint64_t IcHits;
  uint64_t IcMisses;
};

ProfiledRun runUnder(const workloads::Workload &W, const ExecProfile &P) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  workloads::publish(W, Rig.Env.server());
  Rig.Options.Exec = P;
  ProfiledRun R;
  R.Exit = Rig.run(W.MainClass, W.Args);
  R.Out = Rig.out();
  R.QuickenedSites = Rig.vm().stats().QuickenedSites;
  R.IcHits = Rig.vm().icHits();
  R.IcMisses = Rig.vm().icMisses();
  return R;
}

TEST(QuickDifferential, AllBuiltinWorkloadsBitIdentical) {
  using namespace doppio::workloads;
  // Every builtin workload, sized to finish quickly but still cover the
  // opcode surface (field access, invokes, allocation, ldc, casts, long
  // math, string building, fs traffic).
  std::vector<Workload> Ws;
  Ws.push_back(makeRecursive(12, 5));
  Ws.push_back(makeBinaryTrees(6));
  Ws.push_back(makeNQueens(6));
  Ws.push_back(makeDeltaBlue(20, 40));
  Ws.push_back(makePiDigits(40));
  Ws.push_back(makeClassDump(6));
  Ws.push_back(makeMiniCompile(4));
  for (const Workload &W : Ws) {
    SCOPED_TRACE(W.Name);
    ProfiledRun Base = runUnder(W, ExecProfile::baseline());
    ProfiledRun Quick = runUnder(W, ExecProfile::quick());
    EXPECT_EQ(Base.Exit, Quick.Exit);
    EXPECT_EQ(Base.Out, Quick.Out);
    EXPECT_FALSE(Quick.Out.empty());
    // The baseline must not quicken; the quick run must actually have
    // rewritten sites (every workload resolves fields/methods/constants).
    EXPECT_EQ(Base.QuickenedSites, 0u);
    EXPECT_GT(Quick.QuickenedSites, 0u);
  }
}

TEST(QuickDifferential, InlineCachesHitOnFieldHeavyWorkload) {
  using namespace doppio::workloads;
  // DeltaBlue is constraint-graph pointer chasing: the same getfield
  // sites see the same klass over and over, so a monomorphic cache must
  // convert nearly all of the dictionary lookups into cell hits.
  ProfiledRun Quick = runUnder(makeDeltaBlue(20, 40), ExecProfile::quick());
  EXPECT_EQ(Quick.Exit, 0);
  EXPECT_GT(Quick.IcHits, 0u);
  // DeltaBlue has genuinely polymorphic constraint sites that thrash a
  // monomorphic cache, so demand a solid majority of hits, not purity.
  EXPECT_GT(Quick.IcHits, Quick.IcMisses * 3)
      << "the cache should absorb most dictionary lookups";
}

TEST(QuickDifferential, QuickeningCutsTheVirtualCpuBill) {
  using namespace doppio::workloads;
  // Full fig4 size: on a small run the constant costs (class loading
  // over XHR, allocation) swamp the dispatch bill this test measures.
  Workload W = makeDeltaBlue(60, 400);
  uint64_t CpuNs[2];
  int Idx = 0;
  for (const ExecProfile &P :
       {ExecProfile::baseline(), ExecProfile::quick()}) {
    JvmRig Rig(ExecutionMode::DoppioJS);
    workloads::publish(W, Rig.Env.server());
    Rig.Options.Exec = P;
    ASSERT_EQ(Rig.run(W.MainClass, W.Args), 0);
    CpuNs[Idx++] = Rig.Env.clock().nowNs() -
                   Rig.vm().suspender().totalSuspendedNs();
  }
  // QuickOpCostNs (24) vs OpCostNs (64) per dispatched bytecode: the
  // quick bill must land at most 1/2 of baseline on this int/field
  // workload (the gate the fig4 trajectory tracks).
  EXPECT_LT(CpuNs[1] * 2, CpuNs[0]);
}

//===----------------------------------------------------------------------===//
// Checkpoint/restore and migration of a quickened guest
//===----------------------------------------------------------------------===//

/// Same Ticker as cont_test/fig8: one deterministic println per
/// iteration, long arithmetic, an inner int loop — enough reuse that the
/// hot sites quicken and the getstatic/invokevirtual ICs warm up.
std::vector<uint8_t> tickerClassBytes(int N) {
  ClassBuilder B("Ticker");
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  MethodBuilder::Label KLoop = M.newLabel(), KDone = M.newLabel();
  M.lconst(1).lstore(1);
  M.iconst(0).istore(3);
  M.bind(Loop).iload(3).iconst(N).branch(Op::IfIcmpge, Done);
  M.lload(1)
      .lconst(1103515245)
      .op(Op::Lmul)
      .iload(3)
      .op(Op::I2l)
      .op(Op::Ladd)
      .lstore(1);
  M.iconst(0).istore(4);
  M.iconst(0).istore(5);
  M.bind(KLoop).iload(5).iconst(200).branch(Op::IfIcmpge, KDone);
  M.iload(4).iconst(31).op(Op::Imul).iload(5).op(Op::Iadd).istore(4);
  M.iinc(5, 1).branch(Op::Goto, KLoop).bind(KDone);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.lload(1)
      .lconst(1000000)
      .op(Op::Lrem)
      .op(Op::L2i)
      .iload(4)
      .op(Op::Ixor)
      .invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.iinc(3, 1).branch(Op::Goto, Loop);
  M.bind(Done).op(Op::Return);
  return B.bytes();
}

/// One browser tab hosting a JVM over a seeded in-memory /classes.
struct TabRig {
  explicit TabRig(const browser::Profile &P) : Env(P) {
    auto RootB = std::make_unique<rt::fs::InMemoryBackend>(Env);
    Root = RootB.get();
    Fs = std::make_unique<rt::fs::FileSystem>(Env, Proc, std::move(RootB));
  }

  browser::BrowserEnv Env;
  rt::Process Proc;
  rt::fs::InMemoryBackend *Root = nullptr;
  std::unique_ptr<rt::fs::FileSystem> Fs;
};

JvmOptions quickOptions() {
  JvmOptions O;
  O.Exec = ExecProfile::quick();
  return O;
}

TEST(QuickCheckpoint, MidRunRoundTripOfAQuickenedGuest) {
  std::vector<uint8_t> Klass = tickerClassBytes(3000);

  // Source: run under the quick profile, capture mid-stream once the
  // bytecode has demonstrably been rewritten in place, finish normally.
  TabRig Src(browser::chromeProfile());
  ASSERT_TRUE(Src.Root->seedFile("/classes/Ticker.class", Klass));
  Jvm VmA(Src.Env, *Src.Fs, Src.Proc, quickOptions());
  int ExitA = -1;
  VmA.runMain("Ticker", {}, [&](int C) { ExitA = C; });

  std::vector<uint8_t> Image;
  std::string Prefix;
  std::function<void()> Try = [&] {
    if (!Image.empty())
      return;
    if (Src.Proc.capturedStdout().size() >= 8 && checkpointReady(VmA)) {
      rt::ErrorOr<std::vector<uint8_t>> S = serializeJvm(VmA);
      ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().message());
      Image = std::move(*S);
      Prefix = Src.Proc.capturedStdout();
      // The capture happened while quickened code was live.
      EXPECT_GT(VmA.stats().QuickenedSites, 0u);
      return;
    }
    // Resume lane: guest slices run there and it outranks Timer, so a
    // Timer-lane probe would starve until the guest exits.
    Src.Env.loop().postAfter(
        kernel::Lane::Resume, [&Try] { Try(); }, browser::usToNs(50));
  };
  Try();
  Src.Env.loop().run();
  ASSERT_EQ(ExitA, 0);
  std::string Baseline = Src.Proc.capturedStdout();
  ASSERT_FALSE(Image.empty()) << "never found a quiescent point";
  ASSERT_LT(Prefix.size(), Baseline.size());

  // Destination: fresh tab, fresh fs, fresh VM, same quick profile. The
  // restore reloads classes from the classpath (unquickened) and the
  // revived frames re-quicken as they run — pc stability makes the saved
  // frame pcs valid either way.
  TabRig Dst(browser::chromeProfile());
  ASSERT_TRUE(Dst.Root->seedFile("/classes/Ticker.class", Klass));
  Jvm VmB(Dst.Env, *Dst.Fs, Dst.Proc, quickOptions());
  int ExitB = -1;
  bool RestoreOk = false;
  restoreJvm(VmB, Image, [&](int C) { ExitB = C; },
             [&](rt::ErrorOr<bool> R) { RestoreOk = R.ok(); });
  Dst.Env.loop().run();
  EXPECT_TRUE(RestoreOk);
  EXPECT_EQ(ExitB, 0);
  EXPECT_EQ(Prefix + Dst.Proc.capturedStdout(), Baseline);
  EXPECT_GT(VmB.stats().QuickenedSites, 0u)
      << "the revived guest should re-quicken its hot sites";
}

TEST(QuickCluster, LiveMigrationMovesAQuickenedGuest) {
  using namespace doppio::cluster;
  // Ticker variant with naps so lockstep rounds stay short enough for the
  // Migrate frame to land mid-run (same shape as fig8_migrate.cpp).
  std::vector<uint8_t> Klass = [] {
    ClassBuilder B("Ticker");
    MethodBuilder &M =
        B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
    MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
    M.lconst(1).lstore(1);
    M.iconst(0).istore(3);
    M.bind(Loop).iload(3).iconst(1200).branch(Op::IfIcmpge, Done);
    M.lload(1)
        .lconst(1103515245)
        .op(Op::Lmul)
        .iload(3)
        .op(Op::I2l)
        .op(Op::Ladd)
        .lstore(1);
    M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
    M.lload(1)
        .lconst(1000000)
        .op(Op::Lrem)
        .op(Op::L2i)
        .invokevirtual("java/io/PrintStream", "println", "(I)V");
    MethodBuilder::Label NoNap = M.newLabel();
    M.iload(3)
        .iconst(300)
        .op(Op::Irem)
        .iconst(299)
        .branch(Op::IfIcmpne, NoNap);
    M.lconst(2).invokestatic("java/lang/Thread", "sleep", "(J)V");
    M.bind(NoNap);
    M.iinc(3, 1).branch(Op::Goto, Loop);
    M.bind(Done).op(Op::Return);
    return B.bytes();
  }();

  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cfg.ShardTemplate.Setup = [&Klass](Shard &S) {
    S.fs().mkdirp("/classes", [](std::optional<rt::ApiError> E) {
      ASSERT_FALSE(E.has_value());
    });
    S.fs().writeFile("/classes/Ticker.class", Klass,
                     [](std::optional<rt::ApiError> E) {
                       ASSERT_FALSE(E.has_value());
                     });
    registerJvmRestore(S.checkpoints());
  };
  auto SpawnQuickTicker = [](Shard &S) {
    rt::proc::ProcessTable::SpawnSpec Spec;
    Spec.Name = "java";
    Spec.Prog = makeJvmProgram({"Ticker", {}, quickOptions()});
    return S.procs().spawn(std::move(Spec));
  };

  // Baseline: the quickened guest runs start-to-finish on shard 0.
  std::string Baseline;
  {
    Cluster Cl(browser::chromeProfile(), Cfg);
    LockstepDriver Drv(Cl.fabric());
    Drv.run(10000000);
    rt::proc::Pid P = SpawnQuickTicker(*Cl.shard(0));
    Drv.run(10000000);
    rt::proc::Process *Pr = Cl.shard(0)->procs().find(P);
    ASSERT_NE(Pr, nullptr);
    Baseline = Pr->state().capturedStdout();
    ASSERT_FALSE(Baseline.empty());
  }

  // Migrated: same guest starts on shard 0, moves to shard 1 mid-run.
  // The JPRG image carries the quick ExecProfile, so the revived copy
  // resumes under the same profile it checkpointed with.
  Cluster Cl(browser::chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());
  Drv.run(10000000);
  Shard *Src = Cl.shard(0);
  rt::proc::Pid P = SpawnQuickTicker(*Src);

  Balancer::MigrationResult MR;
  bool HaveResult = false;
  bool Requested = false;
  std::function<void()> Probe = [&] {
    if (Requested)
      return;
    rt::proc::Process *Pr = Src->procs().find(P);
    ASSERT_NE(Pr, nullptr);
    if (!Pr->alive())
      return;
    if (Pr->state().capturedStdout().size() >= 500) {
      Requested = true;
      EXPECT_TRUE(
          Cl.migrateProcess(0, 1, P, [&](const Balancer::MigrationResult &R) {
            MR = R;
            HaveResult = true;
          }));
      return;
    }
    Src->env().loop().postAfter(
        kernel::Lane::Resume, [&Probe] { Probe(); }, browser::usToNs(50));
  };
  Probe();
  auto Rep = Drv.run(10000000);
  ASSERT_LT(Rep.Rounds, 10000000u) << "cluster never quiesced";

  ASSERT_TRUE(HaveResult) << "migration result never arrived";
  ASSERT_TRUE(MR.Ok) << MR.Error;
  rt::proc::Process *SrcPr = Src->procs().find(P);
  ASSERT_NE(SrcPr, nullptr);
  EXPECT_FALSE(SrcPr->alive());
  std::string Prefix = SrcPr->state().capturedStdout();
  ASSERT_FALSE(Prefix.empty());
  ASSERT_LT(Prefix.size(), Baseline.size());

  rt::proc::Process *DstPr = Cl.shard(1)->procs().find(MR.NewPid);
  ASSERT_NE(DstPr, nullptr);
  EXPECT_EQ(DstPr->exitCode(), 0);
  EXPECT_EQ(Prefix + DstPr->state().capturedStdout(), Baseline);
}

} // namespace
