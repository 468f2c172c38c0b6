//===- tests/jvm/dispatch_test.cpp ----------------------------------------==//
//
// Register-resident dispatch (DESIGN.md §18): step() keeps pc, the stack
// top and the dispatched-op count in locals and writes them back only at
// its sync points (slow-handler entry, helper calls from fast handlers,
// and every return). These tests pin what those sync points must keep
// exact:
//
//  - Counts: for each of the four profile presets, Everywhere mode (a
//    check before every dispatch) and untrusted Placed mode (guarded
//    frames with keep bits), in both execution modes, on deltablue and
//    pidigits, the dispatched ops, invocations, executed and elided
//    suspend checks, the longest between-checks span, the inline-cache
//    hits and misses, and the virtual clock all equal the values the
//    memory-resident interpreter produced (the table below), and the two
//    execution modes split inline-cache hits and misses alike.
//  - Images: a checkpoint taken at a Placed-mode back-edge yield, and one
//    taken while the top frame runs guarded (trust=0), serialize to the
//    same bytes as before (size and FNV-1a hash pinned), restore, and
//    finish with the uninterrupted run's output.
//
// Registered under `ctest -L quick`.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "jvm/checkpoint.h"
#include "jvm/classfile/builder.h"
#include "jvm/exec_profile.h"
#include "jvm/interpreter.h"
#include "jvm/jvm.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdio>
#include <string_view>

using namespace doppio;
using namespace doppio::jvm;
using doppio::testutil::JvmRig;

namespace {

//===----------------------------------------------------------------------===//
// Counts at the sync points
//===----------------------------------------------------------------------===//

struct DispatchCounts {
  uint64_t Ops;
  uint64_t Invocations;
  uint64_t ChecksExecuted;
  uint64_t ChecksElided;
  uint64_t MaxSpan;
  uint64_t IcHits;
  uint64_t IcMisses;
  uint64_t VirtualNs;

  bool operator==(const DispatchCounts &) const = default;
};

struct PinnedRun {
  const char *Workload;
  const char *Profile;
  ExecutionMode Mode;
  DispatchCounts Want;
};

constexpr ExecutionMode JS = ExecutionMode::DoppioJS;
constexpr ExecutionMode HS = ExecutionMode::NativeHotspot;

/// Generated by the memory-resident interpreter (every counter bumped in
/// memory on every dispatch): the register-resident one must reproduce
/// each figure exactly. The inline-cache columns are the exception: they
/// were measured after field sites, in both modes, came to count a hit on
/// every receiver-class match.
const PinnedRun Pinned[] = {
    {"deltablue", "baseline", JS,
     {468086, 24273, 48545, 0, 51, 0, 0, 32391222}},
    {"deltablue", "baseline", HS,
     {468086, 24273, 0, 0, 0, 0, 0, 2248008}},
    {"deltablue", "verified", JS,
     {468086, 24273, 48545, 0, 51, 0, 0, 32391222}},
    {"deltablue", "verified", HS,
     {468086, 24273, 0, 0, 0, 0, 0, 2248008}},
    {"deltablue", "placed", JS,
     {468086, 24273, 73066, 25014, 27, 0, 0, 32392694}},
    {"deltablue", "placed", HS,
     {468086, 24273, 0, 25014, 0, 0, 0, 2248008}},
    {"deltablue", "quick", JS,
     {468086, 24273, 48545, 0, 51, 120835, 24128, 13609302}},
    {"deltablue", "quick", HS,
     {468086, 24273, 0, 0, 0, 120835, 24128, 2248008}},
    {"deltablue", "verified,suspend=everywhere", JS,
     {468086, 24273, 516633, 0, 1, 0, 0, 32393462}},
    {"deltablue", "verified,suspend=everywhere", HS,
     {468086, 24273, 0, 0, 0, 0, 0, 2248008}},
    {"deltablue", "placed,trust=0", JS,
     {468086, 24273, 73066, 25014, 27, 0, 0, 32392694}},
    {"deltablue", "placed,trust=0", HS,
     {468086, 24273, 0, 25014, 0, 0, 0, 2248008}},
    {"pidigits", "baseline", JS,
     {1277173, 104, 106, 0, 38200, 0, 0, 234476670}},
    {"pidigits", "baseline", HS,
     {1277173, 104, 0, 0, 0, 0, 0, 563657}},
    {"pidigits", "verified", JS,
     {1277173, 104, 106, 0, 38200, 0, 0, 234476670}},
    {"pidigits", "verified", HS,
     {1277173, 104, 0, 0, 0, 0, 0, 563657}},
    {"pidigits", "placed", JS,
     {1277173, 104, 33954, 34409, 54, 0, 0, 235796670}},
    {"pidigits", "placed", HS,
     {1277173, 104, 0, 34409, 0, 0, 0, 563657}},
    {"pidigits", "quick", JS,
     {1277173, 104, 106, 0, 38200, 95, 1, 183389750}},
    {"pidigits", "quick", HS,
     {1277173, 104, 0, 0, 0, 95, 1, 563657}},
    {"pidigits", "verified,suspend=everywhere", JS,
     {1277173, 104, 1277299, 0, 1, 0, 0, 235676670}},
    {"pidigits", "verified,suspend=everywhere", HS,
     {1277173, 104, 0, 0, 0, 0, 0, 563657}},
    {"pidigits", "placed,trust=0", JS,
     {1277173, 104, 33954, 34409, 54, 0, 0, 235796670}},
    {"pidigits", "placed,trust=0", HS,
     {1277173, 104, 0, 34409, 0, 0, 0, 563657}},
};

workloads::Workload workloadNamed(const std::string &Name) {
  return Name == "deltablue" ? workloads::makeDeltaBlue(60, 400)
                             : workloads::makePiDigits(100);
}

DispatchCounts countsOf(const char *Workload, const char *Profile,
                        ExecutionMode Mode) {
  workloads::Workload W = workloadNamed(Workload);
  JvmRig Rig(Mode);
  workloads::publish(W, Rig.Env.server());
  EXPECT_TRUE(ExecProfile::parse(Profile, Rig.Options.Exec));
  EXPECT_EQ(Rig.run(W.MainClass, W.Args), 0);
  EXPECT_FALSE(Rig.out().empty());
  Jvm &Vm = Rig.vm();
  return {Vm.stats().OpsExecuted,       Vm.stats().MethodInvocations,
          Vm.suspendChecksExecuted(),   Vm.suspendChecksElided(),
          Vm.stats().MaxOpsBetweenChecks, Vm.icHits(),
          Vm.icMisses(),                Rig.Env.clock().nowNs()};
}

/// The table row \p C would pin, printed on a mismatch.
std::string rowOf(const char *Workload, const char *Profile,
                  ExecutionMode Mode, const DispatchCounts &C) {
  char Buf[320];
  std::snprintf(Buf, sizeof Buf,
                "    {\"%s\", \"%s\", %s,\n     {%" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "}},",
                Workload, Profile, Mode == JS ? "JS" : "HS", C.Ops,
                C.Invocations, C.ChecksExecuted, C.ChecksElided, C.MaxSpan,
                C.IcHits, C.IcMisses, C.VirtualNs);
  return Buf;
}

TEST(DispatchSyncPoints, CountsMatchTheMemoryResidentInterpreter) {
  size_t Checked = 0;
  for (const char *Workload : {"deltablue", "pidigits"})
    for (const char *Profile :
         {"baseline", "verified", "placed", "quick",
          "verified,suspend=everywhere", "placed,trust=0"})
      for (ExecutionMode Mode : {JS, HS}) {
        SCOPED_TRACE(std::string(Workload) + "/" + Profile + "/" +
                     (Mode == JS ? "DoppioJS" : "NativeHotspot"));
        DispatchCounts Got = countsOf(Workload, Profile, Mode);
        const PinnedRun *Row = nullptr;
        for (const PinnedRun &P : Pinned)
          if (std::string(P.Workload) == Workload &&
              std::string(P.Profile) == Profile && P.Mode == Mode)
            Row = &P;
        if (!Row) {
          ADD_FAILURE() << "no pinned row; measured:\n"
                        << rowOf(Workload, Profile, Mode, Got);
          continue;
        }
        EXPECT_TRUE(Got == Row->Want)
            << "measured:\n" << rowOf(Workload, Profile, Mode, Got)
            << "\npinned:\n" << rowOf(Workload, Profile, Mode, Row->Want);
        ++Checked;
      }
  EXPECT_EQ(Checked, 24u);
}

TEST(DispatchSyncPoints, BothModesSplitInlineCacheHitsAlike) {
  // Both modes keep fields in the same slots and resolve call sites the
  // same way, so every run's inline caches must hit and miss alike.
  for (const char *Workload : {"deltablue", "pidigits"})
    for (const char *Profile :
         {"baseline", "verified", "placed", "quick",
          "verified,suspend=everywhere", "placed,trust=0"}) {
      SCOPED_TRACE(std::string(Workload) + "/" + Profile);
      DispatchCounts Js = countsOf(Workload, Profile, JS);
      DispatchCounts Hs = countsOf(Workload, Profile, HS);
      EXPECT_EQ(Js.IcHits, Hs.IcHits);
      EXPECT_EQ(Js.IcMisses, Hs.IcMisses);
    }
}

/// FNV-1a over \p Bytes: pins a whole output or image in one number.
uint64_t fnv1a(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}

TEST(DispatchSyncPoints, CallBoundaryYieldsUnderAFixedCountdown) {
  // A countdown of 7 makes every seventh executed check a yield, so
  // thousands of yields land on invokes and returns (deltablue checks at
  // nothing else). Each run must reproduce its output, resumptions,
  // executed checks, invocations and final virtual time exactly.
  struct Want {
    const char *Workload;
    size_t OutSize;
    uint64_t OutHash;
    uint64_t Resumptions;
    uint64_t ChecksExecuted;
    uint64_t Invocations;
    uint64_t VirtualNs;
  };
  const Want Pins[] = {
      {"deltablue", 2, 575367870842481759ull, 6937, 48545, 24273, 429469302},
      {"pidigits", 101, 7962751543078417632ull, 16, 106, 104, 184289750},
  };
  for (const Want &P : Pins) {
    SCOPED_TRACE(P.Workload);
    workloads::Workload W = workloadNamed(P.Workload);
    JvmRig Rig(JS);
    workloads::publish(W, Rig.Env.server());
    ASSERT_TRUE(ExecProfile::parse("quick", Rig.Options.Exec));
    Rig.vm().suspender().forceFixedCounter(7);
    ASSERT_EQ(Rig.run(W.MainClass, W.Args), 0);
    Jvm &Vm = Rig.vm();
    EXPECT_EQ(Rig.out().size(), P.OutSize);
    EXPECT_EQ(fnv1a(Rig.out()), P.OutHash);
    EXPECT_EQ(Vm.suspender().resumptionCount(), P.Resumptions);
    EXPECT_EQ(Vm.suspendChecksExecuted(), P.ChecksExecuted);
    EXPECT_EQ(Vm.stats().MethodInvocations, P.Invocations);
    EXPECT_EQ(Rig.Env.clock().nowNs(), P.VirtualNs);
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint images at sync points
//===----------------------------------------------------------------------===//

/// A pure counting loop with no call inside it: under Placed mode its only
/// suspend check is the kept back edge, so every yield inside main is a
/// back-edge yield. The result is printed once, after the loop.
std::vector<uint8_t> spinClassBytes(int N) {
  ClassBuilder B("Spin");
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1);
  M.iconst(0).istore(2);
  M.bind(Loop).iload(2).iconst(N).branch(Op::IfIcmpge, Done);
  M.iload(1).iconst(31).op(Op::Imul).iload(2).op(Op::Ixor).istore(1);
  M.iinc(2, 1).branch(Op::Goto, Loop);
  M.bind(Done);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iload(1).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.op(Op::Return);
  return B.bytes();
}

/// Prints N values from a loop that calls a helper each iteration; the
/// helper runs a short loop of its own, so call-boundary yields land
/// throughout the run.
std::vector<uint8_t> countdownClassBytes(int N) {
  ClassBuilder B("Countdown");
  MethodBuilder &Step = B.method(AccPublic | AccStatic, "step", "(I)I");
  MethodBuilder::Label SLoop = Step.newLabel(), SDone = Step.newLabel();
  Step.iconst(0).istore(1);
  Step.bind(SLoop).iload(1).iconst(100).branch(Op::IfIcmpge, SDone);
  Step.iload(0).iconst(7).op(Op::Imul).iconst(3).op(Op::Iadd).istore(0);
  Step.iinc(1, 1).branch(Op::Goto, SLoop);
  Step.bind(SDone).iload(0).op(Op::Ireturn);
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(1).istore(1);
  M.iconst(0).istore(2);
  M.bind(Loop).iload(2).iconst(N).branch(Op::IfIcmpge, Done);
  M.iload(1).invokestatic("Countdown", "step", "(I)I").istore(1);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iload(1).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.iinc(2, 1).branch(Op::Goto, Loop);
  M.bind(Done).op(Op::Return);
  return B.bytes();
}

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

uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char *>(Bytes.data()),
                                Bytes.size()));
}

/// The top frame of the VM's first live thread, or null.
const Frame *topFrame(Jvm &Vm) {
  for (int32_t Tid = 0; Tid != 8; ++Tid)
    if (JvmThread *T = Vm.threadForTid(Tid))
      if (!T->callStack().empty())
        return &T->callStack().back();
  return nullptr;
}

struct ImageRun {
  std::vector<uint8_t> Image;
  uint32_t TopPc = 0;
  std::string TopMethod;
};

/// Runs \p Main from \p Klass under \p Profile, checkpoints at the first
/// quiescent point where \p Ready holds, finishes the source run, then
/// restores the image on a fresh VM and checks the combined output.
ImageRun checkpointAndRestore(const std::string &Main,
                              const std::vector<uint8_t> &Klass,
                              const char *Profile,
                              const std::function<bool(Jvm &)> &Ready) {
  JvmOptions Opts;
  EXPECT_TRUE(ExecProfile::parse(Profile, Opts.Exec));

  TabRig Src(browser::chromeProfile());
  EXPECT_TRUE(Src.Root->seedFile("/classes/" + Main + ".class", Klass));
  Jvm VmA(Src.Env, *Src.Fs, Src.Proc, Opts);
  int ExitA = -1;
  VmA.runMain(Main, {}, [&](int C) { ExitA = C; });

  ImageRun R;
  std::string Prefix;
  std::function<void()> Try = [&] {
    if (!R.Image.empty() || ExitA != -1)
      return;
    if (checkpointReady(VmA) && Ready(VmA)) {
      rt::ErrorOr<std::vector<uint8_t>> S = serializeJvm(VmA);
      ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().message());
      R.Image = std::move(*S);
      Prefix = Src.Proc.capturedStdout();
      const Frame *Top = topFrame(VmA);
      R.TopPc = Top->Pc;
      R.TopMethod = Top->M->Owner->Name + "." + Top->M->Name;
      return;
    }
    Src.Env.loop().postAfter(
        kernel::Lane::Resume, [&Try] { Try(); }, browser::usToNs(20));
  };
  Try();
  Src.Env.loop().run();
  EXPECT_EQ(ExitA, 0);
  std::string Baseline = Src.Proc.capturedStdout();
  if (R.Image.empty()) {
    ADD_FAILURE() << "never found a quiescent point";
    return R;
  }

  TabRig Dst(browser::chromeProfile());
  EXPECT_TRUE(Dst.Root->seedFile("/classes/" + Main + ".class", Klass));
  Jvm VmB(Dst.Env, *Dst.Fs, Dst.Proc, Opts);
  int ExitB = -1;
  bool RestoreOk = false;
  restoreJvm(VmB, R.Image, [&](int C) { ExitB = C; },
             [&](rt::ErrorOr<bool> Ok) { RestoreOk = Ok.ok(); });
  Dst.Env.loop().run();
  EXPECT_TRUE(RestoreOk);
  EXPECT_EQ(ExitB, 0);
  EXPECT_EQ(Prefix + Dst.Proc.capturedStdout(), Baseline);
  return R;
}

TEST(DispatchSyncPoints, ImageAtAPlacedBackEdgeYield) {
  // Inside Spin.main, past its first instruction and before the println,
  // a Placed-mode thread can only have yielded at the kept back edge.
  ImageRun R = checkpointAndRestore(
      "Spin", spinClassBytes(200000), "placed", [](Jvm &Vm) {
        const Frame *Top = topFrame(Vm);
        return Top && Top->M->Name == "main" &&
               Top->M->Owner->Name == "Spin" && Top->Pc != 0 &&
               Top->SuspendKeep;
      });
  ASSERT_FALSE(R.Image.empty());
  EXPECT_EQ(R.TopMethod, "Spin.main");
  EXPECT_EQ(R.TopPc, 4u) << "a back-edge yield resumes at the loop head";
  EXPECT_EQ(R.Image.size(), 3563u);
  EXPECT_EQ(fnv1a(R.Image), 554258440850062200ull);
}

TEST(DispatchSyncPoints, ImageInAGuardedFrame) {
  // trust=0: every frame runs the guarded general path, memory synced on
  // every dispatch. Checkpoint once a few lines are out.
  ImageRun R = checkpointAndRestore(
      "Countdown", countdownClassBytes(2000), "baseline", [](Jvm &Vm) {
        const Frame *Top = topFrame(Vm);
        return Top && !Top->trusted() &&
               Vm.process().capturedStdout().size() >= 40;
      });
  ASSERT_FALSE(R.Image.empty());
  EXPECT_EQ(R.Image.size(), 3578u);
  EXPECT_EQ(fnv1a(R.Image), 16919559076419314237ull);
}

} // namespace
