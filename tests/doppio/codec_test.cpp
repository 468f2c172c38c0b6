//===- tests/doppio/codec_test.cpp ----------------------------------------==//
//
// Pins the byte layout of every binary format decoded through the
// bounds-checked cursor (DESIGN.md §20): the three cluster migration
// payloads, ShardSnapshot, journal Put/Del/Commit records, the Directory
// snapshot and a builder-made class file. For each format the tests check
//
//  - golden bytes: one representative value encodes to exactly the hex
//    below, so a codec rewrite that moves a single byte fails here;
//  - round trip: the value decodes back equal (re-encoding gives the same
//    bytes, which covers every field);
//  - truncation: every strict prefix decodes to nullopt or an error, with
//    no assert, exception or out-of-bounds read (the ASan+UBSan build
//    runs this file), and the fixed-size formats also refuse one
//    trailing byte.
//
//===----------------------------------------------------------------------===//

#include "browser/websocket.h"
#include "browser/wire.h"
#include "doppio/cluster/control.h"
#include "doppio/cluster/shard.h"
#include "doppio/storage/block.h"
#include "doppio/storage/journal.h"
#include "jvm/classfile/builder.h"
#include "jvm/classfile/classfile.h"
#include "jvm/classfile/disasm.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

using namespace doppio;
using namespace doppio::cluster;
using namespace doppio::rt::storage;
using namespace doppio::jvm;

namespace {

using Bytes = std::vector<uint8_t>;

std::string hex(const Bytes &B) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (uint8_t C : B) {
    Out += Digits[C >> 4];
    Out += Digits[C & 15];
  }
  return Out;
}

Bytes prefix(const Bytes &B, size_t N) {
  return Bytes(B.begin(), B.begin() + static_cast<ptrdiff_t>(N));
}

Bytes withExtraByte(Bytes B) {
  B.push_back(0x5a);
  return B;
}

//===----------------------------------------------------------------------===//
// Representative values
//===----------------------------------------------------------------------===//

control::MigrateCmd sampleMigrateCmd() {
  control::MigrateCmd M;
  M.RequestId = 0x0102030405060708ull;
  M.DstShard = 3;
  M.DstTab = 0x0a0b0c0d;
  M.Pid = -2;
  return M;
}

control::MigrateBlobMsg sampleMigrateBlob() {
  control::MigrateBlobMsg M;
  M.RequestId = 77;
  M.SrcShard = 1;
  M.DstShard = 2;
  M.CaptureUs = 0x00000001fffffffeull;
  M.Blob = {0xde, 0xad, 0xbe, 0xef, 0x00};
  return M;
}

control::MigrateDoneMsg sampleMigrateDone() {
  control::MigrateDoneMsg M;
  M.RequestId = 77;
  M.SrcShard = 1;
  M.DstShard = 2;
  M.Ok = false;
  M.NewPid = 12;
  M.CaptureUs = 250;
  M.RestoreUs = 0x8000000000000001ull;
  M.BlobBytes = 3490;
  M.Error = "EAGAIN: busy";
  return M;
}

ShardSnapshot sampleShardSnapshot() {
  ShardSnapshot S;
  S.ShardId = 7;
  uint64_t *Fields[] = {&S.Accepted,       &S.Refused,      &S.Active,
                        &S.RequestsServed, &S.RequestErrors, &S.BytesIn,
                        &S.BytesOut,       &S.ServiceP50Ns, &S.ServiceP99Ns,
                        &S.ProcsSpawned,   &S.Zombies,      &S.VirtualNowNs};
  uint64_t V = 1;
  for (uint64_t *F : Fields) {
    *F = V;
    V = V * 131 + 0x100;
  }
  return S;
}

Manifest sampleManifest() {
  Manifest M;
  M.Blocks = {{0x1122334455667788ull, 64}, {0x99aabbccddeeff00ull, 36}};
  M.SizeBytes = 100;
  return M;
}

/// One commit group holding a Put and a Del: header, Put, Del, Commit.
Bytes sampleJournal() {
  Journal J;
  J.stagePut("k1", sampleManifest());
  J.stageDel("gone");
  return J.sealGroup();
}

Directory sampleDirectory() {
  Directory D;
  D.put("a", sampleManifest());
  D.put("empty", Manifest());
  return D;
}

/// A class file that reaches every reader path: an interface, a field
/// with a ConstantValue, long/float/string constants, an exception
/// handler, a branch and a SourceFile attribute.
Bytes sampleClassFile() {
  ClassBuilder B("demo/Codec");
  B.addInterface("java/lang/Runnable");
  B.addField(AccPublic | AccStatic | AccFinal, "K", "I");
  B.addDefaultConstructor();
  MethodBuilder &Run = B.method(AccPublic, "run", "()V");
  Run.op(Op::Return);
  MethodBuilder &F = B.method(AccPublic | AccStatic, "f", "(I)J");
  MethodBuilder::Label Start = F.newLabel(), End = F.newLabel(),
                       Handler = F.newLabel(), Else = F.newLabel();
  F.bind(Start);
  F.iload(0).branch(Op::Ifeq, Else);
  F.lconst(0x123456789abcdefll).op(Op::Lreturn);
  F.bind(Else);
  F.fconst(2.5f).op(Op::F2l).op(Op::Lreturn);
  F.bind(End);
  F.bind(Handler);
  F.op(Op::Pop).ldcString("caught").op(Op::Pop).lconst(-1).op(Op::Lreturn);
  F.handler(Start, End, Handler, "java/lang/ArithmeticException");
  ClassFile Cf = B.build();
  Cf.SourceFile = "Codec.java";
  for (MemberInfo &Fld : Cf.Fields)
    Fld.ConstantValueIndex = Cf.Pool.addInteger(99);
  return writeClassFile(Cf);
}

//===----------------------------------------------------------------------===//
// Golden bytes
//===----------------------------------------------------------------------===//

TEST(CodecGolden, MigrateCmd) {
  EXPECT_EQ(hex(sampleMigrateCmd().encode()),
            "0102030405060708000000030a0b0c0dfffffffffffffffe");
}

TEST(CodecGolden, MigrateBlobMsg) {
  EXPECT_EQ(hex(sampleMigrateBlob().encode()),
            "000000000000004d000000010000000200000001fffffffedeadbeef00");
}

TEST(CodecGolden, MigrateDoneMsg) {
  EXPECT_EQ(hex(sampleMigrateDone().encode()),
            "000000000000004d000000010000000200000000000000000c00000000000000"
            "fa80000000000000010000000000000da245414741494e3a2062757379");
}

TEST(CodecGolden, ShardSnapshot) {
  EXPECT_EQ(hex(sampleShardSnapshot().encode()),
            "0000000700000000000000010000000000000183000000000000c70900000000"
            "0065da9b00000000341ede510000001aabcbc47300000da5e94587d90006fbe6"
            "5e94850b0392e6e2660015a1d42c25da320b126392975ea79baa69a903756fc4"
            "a834127b");
}

TEST(CodecGolden, JournalPutDelCommit) {
  EXPECT_EQ(hex(sampleJournal()),
            "444a4e4c0000000101000000026b310000000000000064000000021122334455"
            "6677880000004099aabbccddeeff0000000024ea4ce7180200000004676f6e65"
            "f9b8b9b2030000000000000000ea2e42f2");
}

TEST(CodecGolden, DirectorySnapshot) {
  EXPECT_EQ(hex(sampleDirectory().serialize()),
            "4444495200000001000000020000000161000000000000006400000002112233"
            "44556677880000004099aabbccddeeff000000002400000005656d7074790000"
            "00000000000000000000");
}

TEST(CodecGolden, ClassFile) {
  EXPECT_EQ(hex(sampleClassFile()),
            "cafebabe00000031001e0100106a6176612f6c616e672f4f626a656374070001"
            "0100063c696e69743e0100032829560c000300040a00020005050123456789ab"
            "cdef044020000001000663617567687408000a05ffffffffffffffff01001d6a"
            "6176612f6c616e672f41726974686d65746963457863657074696f6e07000e03"
            "0000006301000a64656d6f2f436f6465630700110100126a6176612f6c616e67"
            "2f52756e6e61626c650700130100014b0100014901000d436f6e7374616e7456"
            "616c7565010004436f646501000372756e010001660100042849294a01000a53"
            "6f7572636546696c6501000a436f6465632e6a61766100210012000200010014"
            "0001001900150016000100170000000200100003000100030004000100180000"
            "001100010001000000052ab70006b10000000000010019000400010018000000"
            "0d0000000100000001b1000000000009001a001b000100180000002800020001"
            "000000141a990007140007ad12098cad57120b5714000cad00010000000c000c"
            "000f00000001001c00000002001d");
}

TEST(CodecGolden, InPlaceStores) {
  // The assembler back-patches branch offsets, negative ones too, with
  // these over bytes it already wrote.
  Bytes B(6, 0);
  browser::wire::setU16(&B[0], static_cast<uint16_t>(-3));
  browser::wire::setU32(&B[2], 0x01234567);
  EXPECT_EQ(hex(B), "fffd01234567");
  EXPECT_EQ(browser::wire::getU16(&B[0]), 0xfffd);
  EXPECT_EQ(browser::wire::getU32(&B[2]), 0x01234567u);
}

//===----------------------------------------------------------------------===//
// Round trip and truncation sweeps
//===----------------------------------------------------------------------===//

/// Checks the round trip, every strict prefix and (for a fixed-size
/// format) one trailing byte of a control-plane payload codec.
template <typename Msg>
void sweepPayload(const Msg &Value, bool FixedSize) {
  Bytes Wire = Value.encode();
  std::optional<Msg> Back = Msg::decode(Wire);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->encode(), Wire);
  // A variable tail (the blob, the error text) may legally be empty, so
  // only prefixes shorter than the fixed header must be refused.
  size_t Header = Wire.size();
  if constexpr (std::is_same_v<Msg, control::MigrateBlobMsg>)
    Header -= Value.Blob.size();
  if constexpr (std::is_same_v<Msg, control::MigrateDoneMsg>)
    Header -= Value.Error.size();
  for (size_t N = 0; N != Wire.size(); ++N) {
    SCOPED_TRACE(N);
    std::optional<Msg> Cut = Msg::decode(prefix(Wire, N));
    if (N < Header) {
      EXPECT_FALSE(Cut.has_value());
      continue;
    }
    ASSERT_TRUE(Cut.has_value());
    EXPECT_EQ(Cut->encode(), prefix(Wire, N));
  }
  if (FixedSize) {
    EXPECT_FALSE(Msg::decode(withExtraByte(Wire)).has_value());
  }
}

TEST(CodecSweep, MigrateCmd) { sweepPayload(sampleMigrateCmd(), true); }

TEST(CodecSweep, MigrateBlobMsg) {
  sweepPayload(sampleMigrateBlob(), false);
}

TEST(CodecSweep, MigrateDoneMsg) {
  sweepPayload(sampleMigrateDone(), false);
  control::MigrateDoneMsg Ok = sampleMigrateDone();
  Ok.Ok = true;
  Ok.Error.clear();
  std::optional<control::MigrateDoneMsg> Back =
      control::MigrateDoneMsg::decode(Ok.encode());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->Ok);
  EXPECT_EQ(Back->RestoreUs, Ok.RestoreUs);
}

TEST(CodecSweep, ShardSnapshot) {
  ShardSnapshot S = sampleShardSnapshot();
  Bytes Wire = S.encode();
  std::optional<ShardSnapshot> Back = ShardSnapshot::decode(Wire);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->ShardId, S.ShardId);
  EXPECT_EQ(Back->VirtualNowNs, S.VirtualNowNs);
  EXPECT_EQ(Back->encode(), Wire);
  for (size_t N = 0; N != Wire.size(); ++N)
    EXPECT_FALSE(ShardSnapshot::decode(prefix(Wire, N)).has_value()) << N;
  EXPECT_FALSE(ShardSnapshot::decode(withExtraByte(Wire)).has_value());
}

TEST(CodecSweep, ControlEnvelope) {
  Bytes Wire = control::encode(control::Kind::Migrate,
                               sampleMigrateCmd().encode());
  std::optional<control::Message> M = control::decode(Wire);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->K, control::Kind::Migrate);
  EXPECT_EQ(M->Payload, sampleMigrateCmd().encode());
  EXPECT_FALSE(control::decode(Bytes()).has_value());
  EXPECT_FALSE(control::decode(Bytes{0}).has_value());
  EXPECT_FALSE(control::decode(Bytes{8}).has_value());
}

TEST(CodecSweep, JournalRecords) {
  Bytes Wire = sampleJournal();
  Journal J;
  Directory D;
  D.put("gone", Manifest());
  Journal::Recovery Rec = J.recover(Wire, D);
  EXPECT_TRUE(Rec.HeaderOk);
  EXPECT_EQ(Rec.Commits, 1u);
  EXPECT_EQ(Rec.RecordsApplied, 2u);
  EXPECT_EQ(Rec.TornTailBytes, 0u);
  ASSERT_NE(D.lookup("k1"), nullptr);
  EXPECT_EQ(*D.lookup("k1"), sampleManifest());
  EXPECT_EQ(D.lookup("gone"), nullptr);
  EXPECT_EQ(J.bytes(), Wire);

  // Every strict prefix tears the only group: nothing is applied, and the
  // whole record area counts as the torn tail.
  for (size_t N = 0; N != Wire.size(); ++N) {
    SCOPED_TRACE(N);
    Journal R;
    Directory Cut;
    Cut.put("gone", Manifest());
    Rec = R.recover(prefix(Wire, N), Cut);
    EXPECT_EQ(Rec.Commits, 0u);
    EXPECT_EQ(Rec.RecordsApplied, 0u);
    EXPECT_EQ(Cut.lookup("k1"), nullptr);
    EXPECT_NE(Cut.lookup("gone"), nullptr);
    if (N == 0 || N >= 8) {
      EXPECT_TRUE(Rec.HeaderOk);
      EXPECT_EQ(Rec.TornTailBytes, N == 0 ? 0u : N - 8);
    } else {
      EXPECT_FALSE(Rec.HeaderOk);
      EXPECT_EQ(Rec.TornTailBytes, N);
    }
  }
}

TEST(CodecSweep, DirectorySnapshot) {
  Bytes Wire = sampleDirectory().serialize();
  bool Ok = false;
  Directory Back = Directory::deserialize(Wire, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Back.entries(), sampleDirectory().entries());
  EXPECT_EQ(Back.serialize(), Wire);
  for (size_t N = 0; N != Wire.size(); ++N) {
    SCOPED_TRACE(N);
    Ok = true;
    Directory Cut = Directory::deserialize(prefix(Wire, N), Ok);
    EXPECT_FALSE(Ok);
    EXPECT_EQ(Cut.size(), 0u);
  }
  Ok = true;
  Directory Extra = Directory::deserialize(withExtraByte(Wire), Ok);
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Extra.size(), 0u);
}

TEST(CodecSweep, ClassFile) {
  Bytes Wire = sampleClassFile();
  rt::ErrorOr<ClassFile> Cf = readClassFile(Wire);
  ASSERT_TRUE(Cf.ok()) << Cf.error().message();
  EXPECT_EQ(Cf->ThisClass, "demo/Codec");
  EXPECT_EQ(Cf->SourceFile, "Codec.java");
  ASSERT_EQ(Cf->Interfaces.size(), 1u);
  ASSERT_EQ(Cf->Fields.size(), 1u);
  EXPECT_NE(Cf->Fields[0].ConstantValueIndex, 0);
  const MemberInfo *F = Cf->findMethod("f", "(I)J");
  ASSERT_NE(F, nullptr);
  ASSERT_TRUE(F->Code.has_value());
  EXPECT_EQ(F->Code->Handlers.size(), 1u);
  // The disassembly resolves every pool index the members use.
  EXPECT_EQ(disassembleClass(*Cf),
            "class demo/Codec extends java/lang/Object implements "
            "java/lang/Runnable\n"
            "  version 49.0, constant pool: 30 entries\n"
            "  field K : I (static)\n"
            "  <init>()V  (stack=1, locals=1)\n"
            "    0: Aload0\n"
            "    1: Invokespecial #6 java/lang/Object.<init>:()V\n"
            "    4: Return\n"
            "  run()V  (stack=0, locals=1)\n"
            "    0: Return\n"
            "  f(I)J  (stack=2, locals=1)\n"
            "    0: Iload0\n"
            "    1: Ifeq -> 8\n"
            "    4: Ldc2W #7 long 81985529216486895\n"
            "    7: Lreturn\n"
            "    8: Ldc #9 float 2.500000\n"
            "    10: F2l\n"
            "    11: Lreturn\n"
            "    12: Pop\n"
            "    13: Ldc #11 String \"caught\"\n"
            "    15: Pop\n"
            "    16: Ldc2W #12 long -1\n"
            "    19: Lreturn\n"
            "    catch [0, 12) -> 12 : java/lang/ArithmeticException\n");
  // Writing the parsed model back reuses its pool entries: the bytes are
  // the builder's, entry for entry.
  EXPECT_EQ(writeClassFile(*Cf), Wire);
  // Every prefix is refused with EINVAL. The tally of messages pins
  // which check refuses each one, so the messages stay as they were.
  std::map<std::string, int> Messages;
  for (size_t N = 0; N != Wire.size(); ++N) {
    rt::ErrorOr<ClassFile> Cut = readClassFile(prefix(Wire, N));
    ASSERT_FALSE(Cut.ok()) << N;
    EXPECT_EQ(Cut.error().Code, rt::Errno::Invalid) << N;
    ++Messages[Cut.error().message()];
  }
  std::string Tally;
  for (const auto &[Message, Count] : Messages)
    Tally += Message + " x" + std::to_string(Count) + "\n";
  EXPECT_EQ(Tally, "EINVAL: bad magic (not a class file) x4\n"
                   "EINVAL: truncated Code attribute x70\n"
                   "EINVAL: truncated class file x18\n"
                   "EINVAL: truncated class header x6\n"
                   "EINVAL: truncated constant pool x215\n"
                   "EINVAL: truncated member attributes x34\n"
                   "EINVAL: truncated member info x24\n"
                   "EINVAL: unknown constant pool tag 0 x27\n");
}

TEST(CodecSweep, WebSocketFrame) {
  // A masked frame with the two-byte extended length: what a browser sends
  // for a 126..65535-byte message.
  browser::wsframe::Frame F;
  F.Op = browser::wsframe::Opcode::Binary;
  for (int I = 0; I != 200; ++I)
    F.Payload.push_back(static_cast<uint8_t>(I * 7));
  Bytes Wire = browser::wsframe::encode(F, 0x01020304u);
  ASSERT_EQ(Wire.size(), 2u + 2 + 4 + 200);
  // Every strict prefix waits for more bytes, and the rest completes it.
  for (size_t N = 0; N != Wire.size(); ++N) {
    SCOPED_TRACE(N);
    browser::wsframe::Decoder D;
    D.feed(prefix(Wire, N));
    EXPECT_FALSE(D.next().has_value());
    EXPECT_FALSE(D.failed());
    D.feed(Bytes(Wire.begin() + static_cast<ptrdiff_t>(N), Wire.end()));
    std::optional<browser::wsframe::Frame> Back = D.next();
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(Back->Op, F.Op);
    EXPECT_EQ(Back->Payload, F.Payload);
    EXPECT_FALSE(D.next().has_value());
  }
}

TEST(CodecSweep, WebSocketFrameMalformedStreamsStayFailed) {
  Bytes Valid = browser::wsframe::encode(
      browser::wsframe::Frame{browser::wsframe::Opcode::Text, {'o', 'k'}},
      std::nullopt);
  struct Case {
    const char *Name;
    Bytes Wire;
  };
  for (const Case &C : {
           // A 64-bit length whose sum with the header wraps around.
           Case{"length that wraps the header sum",
                {0x82, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf7,
                 0xaa, 0xbb}},
           Case{"length one past the cap",
                {0x82, 0x7f, 0, 0, 0, 0, 0x01, 0, 0, 0x01}},
           Case{"reserved opcode 3", {0x83, 0x00}},
           Case{"continuation opcode 0", {0x80, 0x01, 0x00}},
       }) {
    SCOPED_TRACE(C.Name);
    browser::wsframe::Decoder D;
    D.feed(C.Wire);
    EXPECT_FALSE(D.next().has_value());
    EXPECT_TRUE(D.failed());
    // Nothing after a malformed header is trusted, not even a valid frame.
    D.feed(Valid);
    EXPECT_FALSE(D.next().has_value());
  }
  // A frame exactly at the cap is well-formed; it waits for its payload.
  browser::wsframe::Decoder AtCap;
  AtCap.feed({0x82, 0x7f, 0, 0, 0, 0, 0x01, 0, 0, 0x00});
  EXPECT_FALSE(AtCap.next().has_value());
  EXPECT_FALSE(AtCap.failed());
}

} // namespace
