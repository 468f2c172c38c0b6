//===- tests/doppio/cont_test.cpp -----------------------------------------==//
//
// The continuation substrate (src/doppio/cont/, DESIGN.md §16): one-shot
// accounting and misuse, the versioned wire form with ResumerRegistry
// rebinding, the snapshot Writer/Reader, and the payoff built on top of
// them — JVM checkpoint/restore round trips, mid-run, on every browser
// profile, at the jvm layer and through the process table.
//
// Registered under `ctest -L cont`.
//
//===----------------------------------------------------------------------===//

#include "browser/wire.h"
#include "doppio/backends/in_memory.h"
#include "doppio/cont/continuation.h"
#include "doppio/cont/snapshot.h"
#include "doppio/fs.h"
#include "doppio/proc/checkpoint.h"
#include "doppio/proc/programs.h"
#include "jvm/checkpoint.h"
#include "jvm/classfile/builder.h"
#include "jvm/jvm.h"
#include "jvm/proc_program.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <optional>

using namespace doppio;
using namespace doppio::rt;
namespace proc = doppio::rt::proc;

namespace {

//===----------------------------------------------------------------------===//
// One-shot accounting
//===----------------------------------------------------------------------===//

struct CellRig {
  browser::VirtualClock Clock;
  obs::Registry Reg{Clock};
  cont::Cells C{cont::Cells::resolve(Reg)};
};

TEST(ContAccounting, CaptureResumeFeedsTheSharedCells) {
  CellRig R;
  int Ran = 0;
  Continuation K = Continuation::capture(R.C, [&] { ++Ran; }, "test", 7);
  EXPECT_TRUE(K.armed());
  EXPECT_STREQ(K.origin(), "test");
  EXPECT_EQ(K.promptId(), 7u);
  EXPECT_EQ(R.C.Captured->value(), 1u);
  EXPECT_EQ(R.C.Live->value(), 1);
  K.resume();
  EXPECT_EQ(Ran, 1);
  EXPECT_FALSE(K.armed());
  EXPECT_EQ(R.C.Resumed->value(), 1u);
  EXPECT_EQ(R.C.Live->value(), 0);
  EXPECT_EQ(R.C.Dropped->value(), 0u);
}

TEST(ContAccounting, DroppingAnArmedContinuationCountsALeak) {
  CellRig R;
  {
    Continuation K = Continuation::capture(R.C, [] {}, "leaky");
    EXPECT_TRUE(K.armed());
  }
  EXPECT_EQ(R.C.Dropped->value(), 1u);
  EXPECT_EQ(R.C.Resumed->value(), 0u);
  EXPECT_EQ(R.C.Live->value(), 0);
}

TEST(ContAccounting, MoveTransfersTheOneShot) {
  CellRig R;
  int Ran = 0;
  Continuation A = Continuation::capture(R.C, [&] { ++Ran; });
  Continuation B = std::move(A);
  EXPECT_FALSE(A.armed()); // NOLINT(bugprone-use-after-move): the contract.
  EXPECT_TRUE(B.armed());
  B.resume();
  EXPECT_EQ(Ran, 1);
  // One capture, one resume, no drop — the move is invisible to the cells.
  EXPECT_EQ(R.C.Captured->value(), 1u);
  EXPECT_EQ(R.C.Resumed->value(), 1u);
  EXPECT_EQ(R.C.Dropped->value(), 0u);
}

TEST(ContAccounting, ValueCarryingResumeDeliversTheValue) {
  CellRig R;
  std::string Got;
  ContinuationOf<std::string> K = ContinuationOf<std::string>::capture(
      R.C, [&](std::string V) { Got = std::move(V); }, "pipe");
  K.resume("forty-two");
  EXPECT_EQ(Got, "forty-two");
  EXPECT_EQ(R.C.Resumed->value(), 1u);
}

using ContOneShotDeathTest = ::testing::Test;

TEST(ContOneShotDeathTest, DoubleResumeAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CellRig R;
        Continuation K = Continuation::capture(R.C, [] {});
        K.resume();
        K.resume();
      },
      "resumed twice");
}

//===----------------------------------------------------------------------===//
// Wire form + ResumerRegistry
//===----------------------------------------------------------------------===//

TEST(ContWire, SerializeRebindResumeRoundTrip) {
  CellRig Src;
  Continuation K = Continuation::capture(Src.C, [] {}, "guest");
  K.setDescriptor("jvm-frames", {1, 2, 3, 4});
  ASSERT_TRUE(K.serializable());
  std::vector<uint8_t> Wire = K.serialize();
  ASSERT_FALSE(Wire.empty());
  K.resume(); // The source-side entry still fires normally.

  // Destination tab: rebind the tag to a factory that rebuilds the entry
  // from the shipped state bytes.
  CellRig Dst;
  ResumerRegistry Reg(Dst.Reg);
  std::vector<uint8_t> SeenState;
  int Ran = 0;
  Reg.bind("jvm-frames", [&](const std::vector<uint8_t> &State) {
    SeenState = State;
    return Continuation::capture(Reg.cells(), [&] { ++Ran; }, "restored");
  });
  std::optional<Continuation> R = Continuation::deserialize(Wire, Reg);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(SeenState, (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_TRUE(R->armed());
  R->resume();
  EXPECT_EQ(Ran, 1);
  EXPECT_EQ(Dst.C.Resumed->value(), 1u);
}

TEST(ContWire, UnknownTagAndCorruptWireAreRejected) {
  CellRig Src;
  Continuation K = Continuation::capture(Src.C, [] {}, "guest");
  K.setDescriptor("nobody-binds-this", {9});
  std::vector<uint8_t> Wire = K.serialize();
  K.resume();

  CellRig Dst;
  ResumerRegistry Reg(Dst.Reg);
  EXPECT_FALSE(Continuation::deserialize(Wire, Reg).has_value());

  Reg.bind("nobody-binds-this", [&](const std::vector<uint8_t> &) {
    return Continuation::capture(Reg.cells(), [] {});
  });
  EXPECT_TRUE(Continuation::deserialize(Wire, Reg).has_value());
  // Truncation and corruption fail cleanly, never crash.
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    std::vector<uint8_t> Trunc(Wire.begin(), Wire.begin() + Cut);
    EXPECT_FALSE(Continuation::deserialize(Trunc, Reg).has_value()) << Cut;
  }
  std::vector<uint8_t> BadMagic = Wire;
  BadMagic[0] ^= 0xff;
  EXPECT_FALSE(Continuation::deserialize(BadMagic, Reg).has_value());
}

TEST(ContWire, UnarmedOrDescriptorlessContinuationsDoNotSerialize) {
  CellRig R;
  Continuation Plain = Continuation::capture(R.C, [] {});
  EXPECT_FALSE(Plain.serializable());
  EXPECT_TRUE(Plain.serialize().empty());
  Plain.resume();

  Continuation Tagged = Continuation::capture(R.C, [] {});
  Tagged.setDescriptor("t", {});
  Tagged.resume();
  EXPECT_TRUE(Tagged.serialize().empty()) << "resumed = nothing left to ship";
}

//===----------------------------------------------------------------------===//
// snap::Writer / snap::Reader
//===----------------------------------------------------------------------===//

TEST(Snapshot, WriterReaderRoundTripAndBoundsChecks) {
  snap::Writer W(0x54455354, 3);
  W.u8(7);
  W.u32(0xdeadbeef);
  W.u64(1ull << 40);
  W.i64(-42);
  W.str("hello");
  W.bytes({1, 2, 3});
  std::vector<uint8_t> B = W.take();

  snap::Reader R(B, 0x54455354, 3);
  EXPECT_EQ(R.u8(), 7);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 1ull << 40);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.bytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());

  // Wrong magic / version: sticky failure, zero values ever after.
  snap::Reader Bad(B, 0x55555555, 3);
  EXPECT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.u32(), 0u);
  snap::Reader Ver(B, 0x54455354, 4);
  EXPECT_FALSE(Ver.ok());

  // Truncated at every length: ok() goes false, never out-of-bounds.
  for (size_t Cut = 0; Cut < B.size(); ++Cut) {
    std::vector<uint8_t> T(B.begin(), B.begin() + Cut);
    snap::Reader Rt(T, 0x54455354, 3);
    Rt.u8();
    Rt.u32();
    Rt.u64();
    Rt.i64();
    Rt.str();
    Rt.bytes();
    EXPECT_FALSE(Rt.ok() && Rt.atEnd()) << Cut;
  }
}

TEST(Wire, FixedLengthSkipRestAndStickyFailure) {
  browser::wire::Writer W;
  W.u16(0xbeef);
  W.raw(std::string("abc"));
  W.u8(9);
  W.raw(std::vector<uint8_t>{4, 5, 6, 7});
  std::vector<uint8_t> B = W.take();
  ASSERT_EQ(B.size(), 10u);

  browser::wire::Reader R(B);
  EXPECT_EQ(R.u16(), 0xbeef);
  EXPECT_EQ(R.str(3), "abc");
  R.skip(1);
  EXPECT_EQ(R.position(), 6u);
  EXPECT_EQ(R.remaining(), 4u);
  EXPECT_EQ(R.bytes(2), (std::vector<uint8_t>{4, 5}));
  EXPECT_EQ(R.rest(), (std::vector<uint8_t>{6, 7}));
  EXPECT_TRUE(R.atEnd());
  EXPECT_TRUE(R.rest().empty());
  EXPECT_TRUE(R.atEnd());

  // A short read consumes nothing and fails for good: later reads are
  // zero values even though bytes remain.
  browser::wire::Reader S(B);
  S.skip(8);
  EXPECT_EQ(S.u32(), 0u);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.position(), 8u);
  EXPECT_EQ(S.remaining(), 0u);
  EXPECT_EQ(S.u8(), 0);
  EXPECT_TRUE(S.rest().empty());
  EXPECT_FALSE(S.atEnd());

  // A length prefix past the end is refused before anything is sized.
  browser::wire::Writer L;
  L.u32(0xffffffffu);
  L.u8(1);
  std::vector<uint8_t> Huge = L.take();
  browser::wire::Reader H(Huge);
  EXPECT_TRUE(H.bytes().empty());
  EXPECT_FALSE(H.ok());

  // fail() refuses a value that was read in full.
  browser::wire::Reader F(B);
  EXPECT_EQ(F.u16(), 0xbeef);
  F.fail();
  EXPECT_FALSE(F.ok());
  EXPECT_EQ(F.u8(), 0);
}

//===----------------------------------------------------------------------===//
// JVM checkpoint/restore
//===----------------------------------------------------------------------===//

/// class Ticker { public static void main(String[] a) {
///   long s = 1;
///   for (int i = 0; i < n; i++) {
///     s = s * 1103515245L + i;
///     int t = 0;
///     for (int k = 0; k < 200; k++) t = t * 31 + k;
///     System.out.println((int)(s % 1000000L) ^ t);
///   } } }
///
/// Prints one deterministic line per outer iteration, so a mid-run
/// checkpoint genuinely splits the output stream; the long arithmetic
/// exercises the software-long Value round trip.
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
  M.iinc(3, 1).branch(jvm::Op::Goto, Loop);
  M.bind(Done).op(jvm::Op::Return);
  return B.bytes();
}

/// One browser tab hosting a JVM over a seeded in-memory /classes.
struct JvmRig {
  explicit JvmRig(const browser::Profile &P) : Env(P) {
    auto RootB = std::make_unique<fs::InMemoryBackend>(Env);
    Root = RootB.get();
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(RootB));
  }

  browser::BrowserEnv Env;
  rt::Process Proc;
  fs::InMemoryBackend *Root = nullptr;
  std::unique_ptr<fs::FileSystem> Fs;
};

/// Arms a repeating virtual timer that captures the first checkpoint that
/// succeeds once \p MinOutput bytes of stdout exist; the source then runs
/// on to completion untouched.
struct MidRunCapture {
  std::vector<uint8_t> Image;
  std::string Prefix;
  uint64_t Attempts = 0;

  void arm(JvmRig &R, jvm::Jvm &Vm, size_t MinOutput) {
    Try = [this, &R, &Vm, MinOutput] {
      if (!Image.empty())
        return;
      ++Attempts;
      if (R.Proc.capturedStdout().size() >= MinOutput &&
          jvm::checkpointReady(Vm)) {
        ErrorOr<std::vector<uint8_t>> S = jvm::serializeJvm(Vm);
        ASSERT_TRUE(S.ok()) << (S.ok() ? "" : S.error().message());
        Image = std::move(*S);
        Prefix = R.Proc.capturedStdout();
        return;
      }
      rearm(R);
    };
    rearm(R);
  }

private:
  void rearm(JvmRig &R) {
    // Resume lane, not Timer: green-thread slices run on Resume, which
    // strictly outranks Timer, so a compute-bound guest would starve a
    // Timer-lane probe until it exits. On the same lane, due times
    // interleave the probe between slices.
    // Dropping the handle does not cancel; the next fire re-arms.
    R.Env.loop().postAfter(
        kernel::Lane::Resume, [this] { Try(); }, browser::usToNs(50));
  }
  std::function<void()> Try;
};

TEST(JvmCheckpoint, MidRunRoundTripSplitsOutputOnAllProfiles) {
  for (const browser::Profile &P : browser::allProfiles()) {
    SCOPED_TRACE(P.Name);
    // Sized to span several 10 ms scheduler slices: the only mid-run
    // quiescent points are between slices, so a program that fits in one
    // slice can never be captured mid-stream.
    std::vector<uint8_t> Klass = tickerClassBytes(3000);

    // Source: run Ticker, capture mid-stream, then finish normally. The
    // full source output is the baseline the split must reassemble.
    JvmRig Src(P);
    ASSERT_TRUE(Src.Root->seedFile("/classes/Ticker.class", Klass));
    jvm::Jvm VmA(Src.Env, *Src.Fs, Src.Proc, jvm::JvmOptions());
    int ExitA = -1;
    VmA.runMain("Ticker", {}, [&](int C) { ExitA = C; });
    MidRunCapture Cap;
    Cap.arm(Src, VmA, /*MinOutput=*/8);
    Src.Env.loop().run();
    ASSERT_EQ(ExitA, 0);
    std::string Baseline = Src.Proc.capturedStdout();
    ASSERT_FALSE(Cap.Image.empty()) << "never found a quiescent point";
    ASSERT_FALSE(Cap.Prefix.empty());
    ASSERT_LT(Cap.Prefix.size(), Baseline.size())
        << "capture landed after the run finished";

    // Destination: a fresh tab, fresh fs, fresh VM; revive and finish.
    JvmRig Dst(P);
    ASSERT_TRUE(Dst.Root->seedFile("/classes/Ticker.class", Klass));
    jvm::Jvm VmB(Dst.Env, *Dst.Fs, Dst.Proc, jvm::JvmOptions());
    int ExitB = -1;
    bool RestoreOk = false;
    jvm::restoreJvm(VmB, Cap.Image, [&](int C) { ExitB = C; },
                    [&](ErrorOr<bool> R) { RestoreOk = R.ok(); });
    Dst.Env.loop().run();
    EXPECT_TRUE(RestoreOk);
    EXPECT_EQ(ExitB, 0);
    // The reassembled stream is bit-identical to the uninterrupted run.
    EXPECT_EQ(Cap.Prefix + Dst.Proc.capturedStdout(), Baseline);
  }
}

/// class Naps { public static void main(String[] a) {
///   System.out.println(1); Thread.sleep(5L); System.out.println(2); } }
std::vector<uint8_t> napsClassBytes() {
  jvm::ClassBuilder B("Naps");
  jvm::MethodBuilder &M = B.method(jvm::AccPublic | jvm::AccStatic, "main",
                                   "([Ljava/lang/String;)V");
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
      .iconst(1)
      .invokevirtual("java/io/PrintStream", "println", "(I)V")
      .lconst(5)
      .invokestatic("java/lang/Thread", "sleep", "(J)V")
      .getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
      .iconst(2)
      .invokevirtual("java/io/PrintStream", "println", "(I)V")
      .op(jvm::Op::Return);
  return B.bytes();
}

TEST(JvmCheckpoint, NotQuiescentAndCorruptImagesAreRefusedCleanly) {
  JvmRig Src(browser::chromeProfile());
  ASSERT_TRUE(
      Src.Root->seedFile("/classes/Ticker.class", tickerClassBytes(4)));
  ASSERT_TRUE(Src.Root->seedFile("/classes/Naps.class", napsClassBytes()));
  // A thread blocked in Thread.sleep has its wake-up inside a host timer
  // closure — never a serializable state, so the checkpoint is refused
  // with EAGAIN until the nap ends (a migration caller just retries).
  {
    JvmRig Nap(browser::chromeProfile());
    ASSERT_TRUE(
        Nap.Root->seedFile("/classes/Naps.class", napsClassBytes()));
    jvm::Jvm NapVm(Nap.Env, *Nap.Fs, Nap.Proc, jvm::JvmOptions());
    bool Exited = false;
    NapVm.runMain("Naps", {}, [&](int) { Exited = true; });
    bool SawRefusal = false;
    std::function<void()> Probe = [&] {
      if (SawRefusal || Exited)
        return;
      std::string Why;
      if (!jvm::checkpointReady(NapVm, &Why)) {
        EXPECT_FALSE(Why.empty());
        ErrorOr<std::vector<uint8_t>> R = jvm::serializeJvm(NapVm);
        ASSERT_FALSE(R.ok());
        EXPECT_EQ(R.error().Code, Errno::Again);
        SawRefusal = true;
        return;
      }
      Nap.Env.loop().postAfter(
          kernel::Lane::Timer, [&] { Probe(); }, browser::usToNs(20));
    };
    Probe();
    Nap.Env.loop().run();
    EXPECT_TRUE(SawRefusal) << "sleep never made the VM non-quiescent";
    EXPECT_EQ(Nap.Proc.capturedStdout(), "1\n2\n");
  }

  jvm::Jvm Vm(Src.Env, *Src.Fs, Src.Proc, jvm::JvmOptions());
  Vm.runMain("Ticker", {}, [](int) {});
  Src.Env.loop().run();

  // A finished VM checkpoints fine; a truncated image restores to Io.
  ErrorOr<std::vector<uint8_t>> Done = jvm::serializeJvm(Vm);
  ASSERT_TRUE(Done.ok());
  for (size_t Cut : {size_t{0}, size_t{6}, Done->size() / 2}) {
    JvmRig Dst(browser::chromeProfile());
    ASSERT_TRUE(
        Dst.Root->seedFile("/classes/Ticker.class", tickerClassBytes(4)));
    jvm::Jvm VmB(Dst.Env, *Dst.Fs, Dst.Proc, jvm::JvmOptions());
    std::vector<uint8_t> Trunc(Done->begin(), Done->begin() + Cut);
    bool Failed = false;
    jvm::restoreJvm(VmB, Trunc, [](int) {},
                    [&](ErrorOr<bool> Res) { Failed = !Res.ok(); });
    Dst.Env.loop().run();
    EXPECT_TRUE(Failed) << "cut at " << Cut;
  }

  // A frame that disagrees with its method is refused: pc outside the
  // code, a locals array that is not max_locals long, or an operand stack
  // deeper than max_stack. Each forgery edits the main frame of a
  // well-formed mid-run image, which itself restores cleanly.
  JvmRig Mid(browser::chromeProfile());
  ASSERT_TRUE(
      Mid.Root->seedFile("/classes/Ticker.class", tickerClassBytes(3000)));
  jvm::Jvm MidVm(Mid.Env, *Mid.Fs, Mid.Proc, jvm::JvmOptions());
  MidVm.runMain("Ticker", {}, [](int) {});
  MidRunCapture Cap;
  Cap.arm(Mid, MidVm, /*MinOutput=*/8);
  Mid.Env.loop().run();
  ASSERT_FALSE(Cap.Image.empty()) << "never found a quiescent point";
  const jvm::Method *Main =
      MidVm.loader().lookup("Ticker")->findDeclaredMethod(
          "main", "([Ljava/lang/String;)V");
  ASSERT_NE(Main, nullptr);

  // Frame record: owner, name and descriptor strings, then pc u32,
  // monitor u32, <clinit> owner string, locals count and values, operand
  // count and values.
  browser::wire::Writer Key;
  Key.str("Ticker");
  Key.str("main");
  Key.str("([Ljava/lang/String;)V");
  std::vector<uint8_t> Needle = Key.take();
  const std::vector<uint8_t> &Image = Cap.Image;
  size_t PcAt = static_cast<size_t>(
      std::search(Image.begin(), Image.end(), Needle.begin(), Needle.end()) -
      Image.begin());
  ASSERT_LT(PcAt, Image.size()) << "main frame not found in the image";
  PcAt += Needle.size();
  auto U32At = [&Image](size_t At) {
    return browser::wire::getU32(&Image[At]);
  };
  auto ValueSize = [](uint8_t Kind) -> size_t {
    switch (static_cast<jvm::Value::Kind>(Kind)) {
    case jvm::Value::Kind::Long:
    case jvm::Value::Kind::Double:
      return 1 + 8;
    case jvm::Value::Kind::Empty:
      return 1;
    default:
      return 1 + 4;
    }
  };
  size_t LocalsAt = PcAt + 8 + 4 + U32At(PcAt + 8);
  uint32_t NumLocals = U32At(LocalsAt);
  ASSERT_EQ(NumLocals, Main->Code.MaxLocals);
  ASSERT_GT(NumLocals, 0u);
  size_t LastLocalAt = LocalsAt + 4;
  for (uint32_t L = 1; L < NumLocals; ++L)
    LastLocalAt += ValueSize(Image[LastLocalAt]);
  size_t StackAt = LastLocalAt + ValueSize(Image[LastLocalAt]);
  uint32_t Depth = U32At(StackAt);
  size_t StackEnd = StackAt + 4;
  for (uint32_t S = 0; S != Depth; ++S)
    StackEnd += ValueSize(Image[StackEnd]);
  auto PutU32 = [](std::vector<uint8_t> &B, size_t At, uint32_t V) {
    std::vector<uint8_t> Bytes;
    browser::wire::putU32(Bytes, V);
    std::copy(Bytes.begin(), Bytes.end(), B.begin() + At);
  };

  std::vector<uint8_t> PcOutside = Image;
  PutU32(PcOutside, PcAt,
         static_cast<uint32_t>(Main->Code.Bytecode.size()));
  std::vector<uint8_t> TooFewLocals = Image;
  PutU32(TooFewLocals, LocalsAt, NumLocals - 1);
  TooFewLocals.erase(TooFewLocals.begin() + LastLocalAt,
                     TooFewLocals.begin() + StackAt);
  std::vector<uint8_t> TooDeep = Image;
  uint32_t Extra = Main->Code.MaxStack + 1 - Depth;
  PutU32(TooDeep, StackAt, Depth + Extra);
  TooDeep.insert(TooDeep.begin() + StackEnd, Extra,
                 static_cast<uint8_t>(jvm::Value::Kind::Empty));

  // Image head: magic, version, mode u8, then exit code, main tid and
  // next identity hash (8 bytes each), then the class table (name, init
  // u8), then the object count and each object's shape: tag u8, then the
  // class name, or for an array (tag 1) the element descriptor and length.
  size_t At = 8 + 1 + 3 * 8;
  uint32_t NClasses = U32At(At);
  At += 4;
  for (uint32_t C = 0; C != NClasses; ++C)
    At += 4 + U32At(At) + 1;
  size_t NObjectsAt = At;
  At += 4;
  while (At < Image.size() && Image[At] != 1)
    At += 1 + 4 + U32At(At + 1);
  ASSERT_LT(At, Image.size()) << "no array in the image";
  size_t ElemAt = At + 1;
  size_t LenAt = ElemAt + 4 + U32At(ElemAt);
  std::vector<uint8_t> HugeObjectCount = Image;
  PutU32(HugeObjectCount, NObjectsAt, 0xffffffffu);
  std::vector<uint8_t> HugeArray = Image;
  PutU32(HugeArray, LenAt, 0xffffffffu);
  // The first array's element descriptor swapped for \p Desc.
  auto WithElem = [&](const char *Desc) {
    std::vector<uint8_t> Forged = Image;
    browser::wire::Writer Elem;
    Elem.str(Desc);
    std::vector<uint8_t> ElemBytes = Elem.take();
    Forged.erase(Forged.begin() + ElemAt, Forged.begin() + LenAt);
    Forged.insert(Forged.begin() + ElemAt, ElemBytes.begin(),
                  ElemBytes.end());
    return Forged;
  };
  std::vector<uint8_t> UnknownElem = WithElem("LNoSuchClass;");
  std::vector<uint8_t> BogusElem = WithElem("XYZ");
  std::vector<uint8_t> UnterminatedElem = WithElem("LFoo");
  std::vector<uint8_t> EmptyElem = WithElem("");

  // Object contents (pass two): per object a u32 field-record count, then
  // each record's name string and value, then a monitor flag u8. A
  // DoppioJS record must name an instance field of the object's class
  // chain. The two PrintStreams (System.out, then System.err) each hold an
  // "isErr" record; the next object is the bootstrap Unsafe, with none.
  browser::wire::Writer IsErrKey;
  IsErrKey.str("isErr");
  std::vector<uint8_t> IsErr = IsErrKey.take();
  auto FindIsErr = [&](size_t From) {
    return static_cast<size_t>(
        std::search(Image.begin() + From, Image.end(), IsErr.begin(),
                    IsErr.end()) -
        Image.begin());
  };
  size_t OutRecAt = FindIsErr(0);
  ASSERT_LT(OutRecAt, Image.size()) << "no isErr record in the image";
  size_t ErrRecAt = FindIsErr(OutRecAt + 1);
  ASSERT_LT(ErrRecAt, Image.size()) << "one isErr record in the image";
  std::vector<uint8_t> UndeclaredField = Image;
  {
    browser::wire::Writer Name;
    Name.str("noSuchField");
    std::vector<uint8_t> Bytes = Name.take();
    UndeclaredField.erase(UndeclaredField.begin() + OutRecAt,
                          UndeclaredField.begin() + OutRecAt + IsErr.size());
    UndeclaredField.insert(UndeclaredField.begin() + OutRecAt, Bytes.begin(),
                           Bytes.end());
  }
  // After err's record: its Int value (kind u8, u32) and monitor flag.
  size_t UnsafeAt = ErrRecAt + IsErr.size() + 1 + 4 + 1;
  ASSERT_EQ(U32At(UnsafeAt), 0u) << "Unsafe does not follow System.err";
  std::vector<uint8_t> StaticField = Image;
  {
    PutU32(StaticField, UnsafeAt, 1);
    browser::wire::Writer Rec;
    Rec.str("theUnsafe");
    Rec.u8(static_cast<uint8_t>(jvm::Value::Kind::Empty));
    std::vector<uint8_t> Bytes = Rec.take();
    StaticField.insert(StaticField.begin() + UnsafeAt + 4, Bytes.begin(),
                       Bytes.end());
  }

  // Why: a substring of the refusal's message, or null for an image that
  // must restore.
  struct Forgery {
    const char *Name;
    const std::vector<uint8_t> *Bytes;
    const char *Why;
  };
  const char *DoesNotFit = "does not fit its method";
  for (const Forgery &Fg :
       {Forgery{"well-formed", &Image, nullptr},
        Forgery{"pc outside the code", &PcOutside, DoesNotFit},
        Forgery{"locals below max_locals", &TooFewLocals, DoesNotFit},
        Forgery{"operands over max_stack", &TooDeep, DoesNotFit},
        Forgery{"object count beyond the image", &HugeObjectCount,
                "object count exceeds the image"},
        Forgery{"array length beyond the image", &HugeArray,
                "array length exceeds the image"},
        Forgery{"array of an unloaded class", &UnknownElem,
                "array of unknown class [LNoSuchClass;"},
        Forgery{"array of a non-descriptor", &BogusElem,
                "malformed array element 'XYZ'"},
        Forgery{"array of an unterminated class", &UnterminatedElem,
                "malformed array element 'LFoo'"},
        Forgery{"array of an empty element", &EmptyElem,
                "malformed array element ''"},
        Forgery{"field no class declares", &UndeclaredField,
                "field record noSuchField names no instance field of "
                "java/io/PrintStream"},
        Forgery{"static field", &StaticField,
                "field record theUnsafe names no instance field of "
                "sun/misc/Unsafe"}}) {
    SCOPED_TRACE(Fg.Name);
    JvmRig Dst(browser::chromeProfile());
    ASSERT_TRUE(
        Dst.Root->seedFile("/classes/Ticker.class", tickerClassBytes(3000)));
    jvm::Jvm VmB(Dst.Env, *Dst.Fs, Dst.Proc, jvm::JvmOptions());
    std::optional<ErrorOr<bool>> Result;
    jvm::restoreJvm(VmB, *Fg.Bytes, [](int) {},
                    [&](ErrorOr<bool> Res) { Result = std::move(Res); });
    Dst.Env.loop().run();
    ASSERT_TRUE(Result.has_value());
    if (!Fg.Why) {
      EXPECT_TRUE(Result->ok());
      continue;
    }
    ASSERT_FALSE(Result->ok());
    EXPECT_EQ(Result->error().Code, Errno::Io);
    EXPECT_NE(Result->error().message().find(Fg.Why), std::string::npos)
        << Result->error().message();
  }
}

//===----------------------------------------------------------------------===//
// Process-table checkpoint/restore
//===----------------------------------------------------------------------===//

TEST(ProcCheckpoint, JvmProcessRoundTripsThroughTheProcessTable) {
  const browser::Profile &P = browser::chromeProfile();
  std::vector<uint8_t> Klass = tickerClassBytes(3000);

  // Source table: a java process; capture its blob mid-run via the
  // proc-layer API, then let it finish for the baseline.
  JvmRig Src(P);
  ASSERT_TRUE(Src.Root->seedFile("/classes/Ticker.class", Klass));
  proc::ProcessTable TableA(Src.Env, *Src.Fs);
  proc::ProcessTable::SpawnSpec SA;
  SA.Name = "java";
  SA.Prog = jvm::makeJvmProgram({"Ticker", {}, jvm::JvmOptions()});
  proc::Pid PA = TableA.spawn(std::move(SA));
  ASSERT_GT(PA, 0);

  std::vector<uint8_t> Blob;
  std::string Prefix;
  std::function<void()> Try = [&] {
    if (!Blob.empty())
      return;
    proc::Process *Pr = TableA.find(PA);
    ASSERT_NE(Pr, nullptr);
    if (!Pr->alive())
      return; // Ran to completion before a capture landed: test fails below.
    ErrorOr<std::vector<uint8_t>> R = proc::checkpointProcess(TableA, PA);
    if (R.ok() && Pr->state().capturedStdout().size() >= 8) {
      Blob = std::move(*R);
      Prefix = Pr->state().capturedStdout();
      return;
    }
    if (!R.ok()) {
      EXPECT_EQ(R.error().Code, Errno::Again) << R.error().message();
    }
    Src.Env.loop().postAfter(
        kernel::Lane::Resume, [&] { Try(); }, browser::usToNs(50));
  };
  Try();
  Src.Env.loop().run();
  ASSERT_FALSE(Blob.empty());
  proc::Process *PrA = TableA.find(PA);
  ASSERT_NE(PrA, nullptr);
  std::string Baseline = PrA->state().capturedStdout();
  ASSERT_LT(Prefix.size(), Baseline.size());

  // Destination table: revive through the registry binding for "jvm".
  JvmRig Dst(P);
  ASSERT_TRUE(Dst.Root->seedFile("/classes/Ticker.class", Klass));
  proc::ProcessTable TableB(Dst.Env, *Dst.Fs);
  proc::CheckpointRegistry Reg;
  jvm::registerJvmRestore(Reg);
  ErrorOr<proc::Pid> PB = proc::restoreProcess(TableB, Blob, Reg);
  ASSERT_TRUE(PB.ok()) << (PB.ok() ? "" : PB.error().message());
  Dst.Env.loop().run();
  proc::Process *PrB = TableB.find(*PB);
  ASSERT_NE(PrB, nullptr);
  EXPECT_EQ(Prefix + PrB->state().capturedStdout(), Baseline);

  // An unbound kind is refused, not crashed.
  proc::CheckpointRegistry Empty;
  JvmRig Dst2(P);
  proc::ProcessTable TableC(Dst2.Env, *Dst2.Fs);
  ErrorOr<proc::Pid> Bad = proc::restoreProcess(TableC, Blob, Empty);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error().Code, Errno::NotSup);
}

TEST(ProcCheckpoint, NonCheckpointableProcessesAreRefused) {
  JvmRig R(browser::chromeProfile());
  proc::ProcessTable Table(R.Env, *R.Fs);
  proc::ProgramRegistry Progs;
  proc::installCorePrograms(Progs);

  // Unknown pid.
  ErrorOr<std::vector<uint8_t>> Gone = proc::checkpointProcess(Table, 999);
  ASSERT_FALSE(Gone.ok());
  EXPECT_EQ(Gone.error().Code, Errno::Srch);

  // A bare context (no program) and a native program: ENOTSUP.
  proc::ProcessTable::SpawnSpec Bare;
  Bare.Name = "sh";
  proc::Pid Sh = Table.spawn(std::move(Bare));
  ErrorOr<std::vector<uint8_t>> NoProg = proc::checkpointProcess(Table, Sh);
  ASSERT_FALSE(NoProg.ok());
  EXPECT_EQ(NoProg.error().Code, Errno::NotSup);

  proc::ProcessTable::SpawnSpec Echo;
  Echo.Name = "echo";
  Echo.Parent = Sh;
  Echo.Prog = Progs.create({"echo", "hi"});
  proc::Pid Ep = Table.spawn(std::move(Echo));
  ErrorOr<std::vector<uint8_t>> Native = proc::checkpointProcess(Table, Ep);
  ASSERT_FALSE(Native.ok());
  EXPECT_EQ(Native.error().Code, Errno::NotSup);
  R.Env.loop().run();
}

} // namespace
