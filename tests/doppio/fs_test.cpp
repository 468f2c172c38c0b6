//===- tests/doppio/fs_test.cpp -------------------------------------------==//
//
// File system tests (§5.1), parameterized across every writable backend:
// the same POSIX-ish semantics must hold over in-memory storage,
// localStorage, IndexedDB, and cloud storage. Separate suites cover the
// read-only XHR backend, the mountable file system, and the fs frontend's
// derived operations.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"
#include "doppio/fs.h"

#include "gtest/gtest.h"

#include <memory>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;
using namespace doppio::browser;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

std::string textOf(const std::vector<uint8_t> &B) {
  return std::string(B.begin(), B.end());
}

/// Creates the backend named by the test parameter.
std::unique_ptr<FileSystemBackend> makeBackend(BrowserEnv &Env,
                                               const std::string &Name) {
  if (Name == "inmemory")
    return std::make_unique<InMemoryBackend>(Env);
  std::unique_ptr<AsyncKvStore> Store;
  if (Name == "localstorage")
    Store = std::make_unique<LocalStorageKv>(Env);
  else if (Name == "indexeddb")
    Store = std::make_unique<IndexedDbKv>(Env);
  else if (Name == "cloud")
    Store = std::make_unique<CloudKv>(Env);
  auto Backend = std::make_unique<KeyValueBackend>(Env, std::move(Store));
  bool Ready = false;
  Backend->initialize([&Ready](std::optional<ApiError> Err) {
    ASSERT_FALSE(Err.has_value()) << Err->message();
    Ready = true;
  });
  Env.loop().run();
  EXPECT_TRUE(Ready);
  return Backend;
}

class BackendSemantics : public ::testing::TestWithParam<std::string> {
protected:
  BackendSemantics()
      : Env(chromeProfile()),
        Fs(Env, Proc, makeBackend(Env, GetParam())) {}

  // Synchronous-looking wrappers: issue the async op, drain the loop,
  // return the result.
  std::optional<ApiError> writeFile(const std::string &P,
                                    const std::string &Text) {
    std::optional<ApiError> Out(ApiError(Errno::Io, "not completed"));
    Fs.writeFile(P, bytesOf(Text),
                 [&](std::optional<ApiError> E) { Out = E; });
    Env.loop().run();
    return Out;
  }

  ErrorOr<std::vector<uint8_t>> readFile(const std::string &P) {
    ErrorOr<std::vector<uint8_t>> Out(ApiError(Errno::Io, "not completed"));
    Fs.readFile(P, [&](ErrorOr<std::vector<uint8_t>> R) { Out = R; });
    Env.loop().run();
    return Out;
  }

  ErrorOr<Stats> stat(const std::string &P) {
    ErrorOr<Stats> Out(ApiError(Errno::Io, "not completed"));
    Fs.stat(P, [&](ErrorOr<Stats> R) { Out = R; });
    Env.loop().run();
    return Out;
  }

  std::optional<ApiError> run(std::function<void(CompletionCb)> Op) {
    std::optional<ApiError> Out(ApiError(Errno::Io, "not completed"));
    Op([&](std::optional<ApiError> E) { Out = E; });
    Env.loop().run();
    return Out;
  }

  ErrorOr<std::vector<std::string>> readdir(const std::string &P) {
    ErrorOr<std::vector<std::string>> Out(
        ApiError(Errno::Io, "not completed"));
    Fs.readdir(P, [&](ErrorOr<std::vector<std::string>> R) { Out = R; });
    Env.loop().run();
    return Out;
  }

  BrowserEnv Env;
  Process Proc;
  FileSystem Fs;
};

TEST_P(BackendSemantics, WriteThenReadRoundTrip) {
  EXPECT_FALSE(writeFile("/hello.txt", "Hello, Doppio!"));
  auto R = readFile("/hello.txt");
  ASSERT_TRUE(R.ok()) << R.error().message();
  EXPECT_EQ(textOf(*R), "Hello, Doppio!");
}

TEST_P(BackendSemantics, ReadMissingFileIsEnoent) {
  auto R = readFile("/missing");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, OverwriteReplacesContents) {
  writeFile("/f", "first version, quite long");
  writeFile("/f", "second");
  auto R = readFile("/f");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(textOf(*R), "second");
}

TEST_P(BackendSemantics, StatReportsTypeAndSize) {
  writeFile("/data.bin", "12345678");
  auto S = stat("/data.bin");
  ASSERT_TRUE(S.ok());
  EXPECT_TRUE(S->isFile());
  EXPECT_EQ(S->SizeBytes, 8u);
  auto Root = stat("/");
  ASSERT_TRUE(Root.ok());
  EXPECT_TRUE(Root->isDirectory());
  auto Missing = stat("/nope");
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.error().Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, MkdirReaddirRmdir) {
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.mkdir("/dir", D); }));
  auto Again = run([&](CompletionCb D) { Fs.mkdir("/dir", D); });
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Code, Errno::Exists);
  writeFile("/dir/a", "a");
  writeFile("/dir/b", "b");
  auto Listing = readdir("/dir");
  ASSERT_TRUE(Listing.ok());
  EXPECT_EQ(*Listing, (std::vector<std::string>{"a", "b"}));
  auto NotEmpty = run([&](CompletionCb D) { Fs.rmdir("/dir", D); });
  ASSERT_TRUE(NotEmpty.has_value());
  EXPECT_EQ(NotEmpty->Code, Errno::NotEmpty);
  run([&](CompletionCb D) { Fs.unlink("/dir/a", D); });
  run([&](CompletionCb D) { Fs.unlink("/dir/b", D); });
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.rmdir("/dir", D); }));
  EXPECT_EQ(stat("/dir").error().Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, MkdirInMissingParentIsEnoent) {
  auto R = run([&](CompletionCb D) { Fs.mkdir("/no/such/parent", D); });
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, ReaddirOnFileIsEnotdir) {
  writeFile("/plain", "x");
  auto R = readdir("/plain");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, Errno::NotDir);
}

TEST_P(BackendSemantics, UnlinkRemovesFile) {
  writeFile("/doomed", "bits");
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.unlink("/doomed", D); }));
  EXPECT_EQ(readFile("/doomed").error().Code, Errno::NoEnt);
  auto Again = run([&](CompletionCb D) { Fs.unlink("/doomed", D); });
  EXPECT_EQ(Again->Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, UnlinkDirectoryIsEisdir) {
  run([&](CompletionCb D) { Fs.mkdir("/d", D); });
  auto R = run([&](CompletionCb D) { Fs.unlink("/d", D); });
  EXPECT_EQ(R->Code, Errno::IsDir);
}

TEST_P(BackendSemantics, RenameFile) {
  writeFile("/old", "payload");
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.rename("/old", "/new", D); }));
  EXPECT_EQ(readFile("/old").error().Code, Errno::NoEnt);
  EXPECT_EQ(textOf(*readFile("/new")), "payload");
}

TEST_P(BackendSemantics, RenameOverwritesExistingFile) {
  writeFile("/src", "fresh");
  writeFile("/dst", "stale");
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.rename("/src", "/dst", D); }));
  EXPECT_EQ(textOf(*readFile("/dst")), "fresh");
}

TEST_P(BackendSemantics, RenameDirectoryMovesSubtree) {
  run([&](CompletionCb D) { Fs.mkdir("/a", D); });
  run([&](CompletionCb D) { Fs.mkdir("/a/sub", D); });
  writeFile("/a/f1", "one");
  writeFile("/a/sub/f2", "two");
  EXPECT_FALSE(run([&](CompletionCb D) { Fs.rename("/a", "/b", D); }));
  EXPECT_EQ(textOf(*readFile("/b/f1")), "one");
  EXPECT_EQ(textOf(*readFile("/b/sub/f2")), "two");
  EXPECT_EQ(stat("/a").error().Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, RenameMissingSourceIsEnoent) {
  auto R = run([&](CompletionCb D) { Fs.rename("/ghost", "/x", D); });
  EXPECT_EQ(R->Code, Errno::NoEnt);
}

TEST_P(BackendSemantics, ExclusiveOpenFailsOnExistingFile) {
  writeFile("/f", "here");
  ErrorOr<FdPtr> Out(ApiError(Errno::Io, "pending"));
  Fs.open("/f", "wx", [&](ErrorOr<FdPtr> R) { Out = R; });
  Env.loop().run();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.error().Code, Errno::Exists);
}

TEST_P(BackendSemantics, OpenDirectoryIsEisdir) {
  run([&](CompletionCb D) { Fs.mkdir("/d", D); });
  ErrorOr<FdPtr> Out(ApiError(Errno::Io, "pending"));
  Fs.open("/d", "r", [&](ErrorOr<FdPtr> R) { Out = R; });
  Env.loop().run();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.error().Code, Errno::IsDir);
}

TEST_P(BackendSemantics, AppendFileExtends) {
  writeFile("/log", "one\n");
  std::optional<ApiError> E(ApiError(Errno::Io, "pending"));
  Fs.appendFile("/log", bytesOf("two\n"),
                [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
  EXPECT_EQ(textOf(*readFile("/log")), "one\ntwo\n");
}

TEST_P(BackendSemantics, SyncOnCloseMakesWritesDurable) {
  // §5.1: NFS-style sync-on-close. Writes through a descriptor become
  // visible to a fresh open only after close.
  ErrorOr<FdPtr> FdR(ApiError(Errno::Io, "pending"));
  Fs.open("/file", "w", [&](ErrorOr<FdPtr> R) { FdR = R; });
  Env.loop().run();
  ASSERT_TRUE(FdR.ok());
  FdPtr Fd = *FdR;
  Buffer Src = Buffer::fromString(Env, js::fromAscii("durable"),
                                  Encoding::Ascii);
  Fd->write(Src, 0, Src.size(), 0, [](ErrorOr<size_t>) {});
  Env.loop().run();
  bool Closed = false;
  Fd->close([&](std::optional<ApiError> E) {
    EXPECT_FALSE(E.has_value());
    Closed = true;
  });
  Env.loop().run();
  EXPECT_TRUE(Closed);
  EXPECT_EQ(textOf(*readFile("/file")), "durable");
  // Using a closed descriptor fails.
  Buffer Dst(Env, 4);
  ErrorOr<size_t> After(ApiError(Errno::Io, "pending"));
  Fd->read(Dst, 0, 4, 0, [&](ErrorOr<size_t> R) { After = R; });
  Env.loop().run();
  ASSERT_FALSE(After.ok());
  EXPECT_EQ(After.error().Code, Errno::BadFd);
}

TEST_P(BackendSemantics, PositionalReads) {
  writeFile("/f", "0123456789");
  ErrorOr<FdPtr> FdR(ApiError(Errno::Io, "pending"));
  Fs.open("/f", "r", [&](ErrorOr<FdPtr> R) { FdR = R; });
  Env.loop().run();
  ASSERT_TRUE(FdR.ok());
  Buffer Dst(Env, 4);
  ErrorOr<size_t> N(ApiError(Errno::Io, "pending"));
  (*FdR)->read(Dst, 0, 4, 3, [&](ErrorOr<size_t> R) { N = R; });
  Env.loop().run();
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(*N, 4u);
  EXPECT_EQ(js::toAscii(Dst.toString(Encoding::Ascii)), "3456");
  // Read at EOF yields 0 bytes.
  (*FdR)->read(Dst, 0, 4, 10, [&](ErrorOr<size_t> R) { N = R; });
  Env.loop().run();
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(*N, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSemantics,
                         ::testing::Values("inmemory", "localstorage",
                                           "indexeddb", "cloud"),
                         [](const auto &Info) { return Info.param; });

TEST(FileIndexTest, ChildrenCarryMetadataAndPathsMustBeAbsolute) {
  FileIndex I;
  ASSERT_TRUE(I.addFile("/a/b/f", 7, 9));
  const FileIndex::ChildMap *Kids = I.children("/a/b");
  ASSERT_NE(Kids, nullptr);
  ASSERT_EQ(Kids->size(), 1u);
  EXPECT_EQ(Kids->at("f").SizeBytes, 7u);
  EXPECT_EQ(I.children("/a")->at("b").Type, FileType::Directory);
  EXPECT_EQ(I.children("/a/b/f"), nullptr);
  // A relative path has no parent to create; it is refused, not recursed.
  EXPECT_FALSE(I.addFile("relative", 1));
  EXPECT_FALSE(I.addDir("a/b"));
  EXPECT_FALSE(I.addFile("/a/b/f/g", 1)); // Parent is a file.
  EXPECT_EQ(I.allFiles(), std::vector<std::string>{"/a/b/f"});
}

//===--------------------------------------------------------------------===//
// Backend-specific behaviour
//===--------------------------------------------------------------------===//

TEST(LocalStorageBackend, PersistsAcrossBackendInstances) {
  // Model a page reload: a new backend over the same localStorage sees the
  // previously written files via the persisted index.
  BrowserEnv Env(chromeProfile());
  Process Proc;
  {
    FileSystem Fs(Env, Proc,
                  [&] {
                    auto B = std::make_unique<KeyValueBackend>(
                        Env, std::make_unique<LocalStorageKv>(Env));
                    B->initialize([](std::optional<ApiError>) {});
                    return B;
                  }());
    Fs.mkdir("/saves", [](std::optional<ApiError>) {});
    Fs.writeFile("/saves/slot1", bytesOf("progress"),
                 [](std::optional<ApiError>) {});
    Env.loop().run();
  }
  auto Reloaded = std::make_unique<KeyValueBackend>(
      Env, std::make_unique<LocalStorageKv>(Env));
  Reloaded->initialize([](std::optional<ApiError>) {});
  Env.loop().run();
  FileSystem Fs2(Env, Proc, std::move(Reloaded));
  ErrorOr<std::vector<uint8_t>> R(ApiError(Errno::Io, "pending"));
  Fs2.readFile("/saves/slot1",
               [&](ErrorOr<std::vector<uint8_t>> X) { R = X; });
  Env.loop().run();
  ASSERT_TRUE(R.ok()) << R.error().message();
  EXPECT_EQ(textOf(*R), "progress");
}

TEST(LocalStorageBackend, QuotaSurfacesAsEnospc) {
  BrowserEnv Env(chromeProfile());
  Process Proc;
  auto B = std::make_unique<KeyValueBackend>(
      Env, std::make_unique<LocalStorageKv>(Env));
  B->initialize([](std::optional<ApiError>) {});
  FileSystem Fs(Env, Proc, std::move(B));
  // localStorage holds 5 MB of UTF-16; a 6 MB file cannot fit.
  std::optional<ApiError> E;
  Fs.writeFile("/big", std::vector<uint8_t>(6u << 20, 1),
               [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::NoSpace);
}

TEST(XhrBackendTest, ListsAndLazilyDownloads) {
  BrowserEnv Env(chromeProfile());
  Env.server().addFile("/cls/java/lang/Object.class", bytesOf("OBJ"));
  Env.server().addFile("/cls/java/lang/String.class", bytesOf("STR"));
  Env.server().addFile("/cls/Main.class", bytesOf("MAIN"));
  XhrBackend Backend(Env, "/cls");
  // The index knows the structure without any downloads (§6.4).
  EXPECT_EQ(Backend.downloadsIssued(), 0u);
  ErrorOr<Stats> S(ApiError(Errno::Io, "pending"));
  Backend.stat("/java/lang/Object.class", [&](ErrorOr<Stats> R) { S = R; });
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S->SizeBytes, 3u);
  EXPECT_EQ(Backend.downloadsIssued(), 0u);
  // Opening downloads the one file, not the whole library.
  ErrorOr<FdPtr> Fd(ApiError(Errno::Io, "pending"));
  Backend.open("/Main.class", OpenFlags::readOnly(),
               [&](ErrorOr<FdPtr> R) { Fd = R; });
  Env.loop().run();
  ASSERT_TRUE(Fd.ok());
  EXPECT_EQ(Backend.downloadsIssued(), 1u);
  Buffer Dst(Env, 4);
  (*Fd)->read(Dst, 0, 4, 0, [](ErrorOr<size_t>) {});
  Env.loop().run();
  EXPECT_EQ(js::toAscii(Dst.toString(Encoding::Ascii)), "MAIN");
  // A second open is served from cache.
  Backend.open("/Main.class", OpenFlags::readOnly(),
               [](ErrorOr<FdPtr>) {});
  Env.loop().run();
  EXPECT_EQ(Backend.downloadsIssued(), 1u);
  EXPECT_EQ(Backend.cacheHits(), 1u);
}

TEST(XhrBackendTest, WritesAreErofs) {
  BrowserEnv Env(chromeProfile());
  Env.server().addFile("/cls/F", bytesOf("F"));
  XhrBackend Backend(Env, "/cls");
  std::optional<ApiError> E;
  Backend.unlink("/F", [&](std::optional<ApiError> R) { E = R; });
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::ReadOnlyFs);
  ErrorOr<FdPtr> Fd(ApiError(Errno::Io, "pending"));
  Backend.open("/F", OpenFlags::writeOnly(),
               [&](ErrorOr<FdPtr> R) { Fd = R; });
  Env.loop().run();
  ASSERT_FALSE(Fd.ok());
  EXPECT_EQ(Fd.error().Code, Errno::ReadOnlyFs);
}

//===--------------------------------------------------------------------===//
// MountableFileSystem (§5.1)
//===--------------------------------------------------------------------===//

class MountableTest : public ::testing::Test {
protected:
  MountableTest() : Env(chromeProfile()) {
    auto Root = std::make_unique<InMemoryBackend>(Env);
    RootRaw = Root.get();
    auto Mounted = std::make_unique<MountableFileSystem>(std::move(Root));
    Mnt = Mounted.get();
    auto Tmp = std::make_unique<InMemoryBackend>(Env);
    TmpRaw = Tmp.get();
    Mnt->mount("/tmp", std::move(Tmp));
    auto Kv = std::make_unique<KeyValueBackend>(
        Env, std::make_unique<LocalStorageKv>(Env));
    Kv->initialize([](std::optional<ApiError>) {});
    Mnt->mount("/home", std::move(Kv));
    Fs = std::make_unique<FileSystem>(Env, Proc, std::move(Mounted));
  }

  std::string readAll(const std::string &P) {
    std::string Out = "<error>";
    Fs->readFile(P, [&](ErrorOr<std::vector<uint8_t>> R) {
      if (R)
        Out = textOf(*R);
    });
    Env.loop().run();
    return Out;
  }

  BrowserEnv Env;
  Process Proc;
  InMemoryBackend *RootRaw = nullptr;
  InMemoryBackend *TmpRaw = nullptr;
  MountableFileSystem *Mnt = nullptr;
  std::unique_ptr<FileSystem> Fs;
};

TEST_F(MountableTest, RoutesByLongestPrefix) {
  Fs->writeFile("/tmp/scratch", bytesOf("T"),
                [](std::optional<ApiError>) {});
  Fs->writeFile("/rootfile", bytesOf("R"), [](std::optional<ApiError>) {});
  Env.loop().run();
  // The /tmp file lives in the tmp backend, not the root backend.
  EXPECT_NE(TmpRaw->contents("/scratch"), nullptr);
  EXPECT_EQ(RootRaw->contents("/tmp/scratch"), nullptr);
  EXPECT_NE(RootRaw->contents("/rootfile"), nullptr);
  EXPECT_EQ(readAll("/tmp/scratch"), "T");
}

TEST_F(MountableTest, MountPointsAppearInListings) {
  Fs->writeFile("/visible", bytesOf("v"), [](std::optional<ApiError>) {});
  Env.loop().run();
  ErrorOr<std::vector<std::string>> L(ApiError(Errno::Io, "pending"));
  Fs->readdir("/", [&](ErrorOr<std::vector<std::string>> R) { L = R; });
  Env.loop().run();
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, (std::vector<std::string>{"home", "tmp", "visible"}));
}

TEST_F(MountableTest, CrossMountRenameIsExdev) {
  Fs->writeFile("/tmp/f", bytesOf("data"), [](std::optional<ApiError>) {});
  Env.loop().run();
  std::optional<ApiError> E;
  Fs->rename("/tmp/f", "/home/f", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::CrossDev);
}

TEST_F(MountableTest, MoveFallsBackToCopyAcrossMounts) {
  // §5.1: mounting provides "a convenient mechanism for transferring files
  // to different backends" — fs.move handles the EXDEV fallback.
  Fs->writeFile("/tmp/f", bytesOf("payload"),
                [](std::optional<ApiError>) {});
  Env.loop().run();
  std::optional<ApiError> E(ApiError(Errno::Io, "pending"));
  Fs->move("/tmp/f", "/home/f", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
  EXPECT_EQ(readAll("/home/f"), "payload");
  ErrorOr<Stats> Gone(ApiError(Errno::Io, "pending"));
  Fs->stat("/tmp/f", [&](ErrorOr<Stats> R) { Gone = R; });
  Env.loop().run();
  EXPECT_FALSE(Gone.ok());
}

TEST_F(MountableTest, CannotRemoveMountPoint) {
  std::optional<ApiError> E;
  Fs->rmdir("/tmp", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::Perm);
}

TEST_F(MountableTest, MountRejectsDuplicatesAndRoot) {
  EXPECT_FALSE(Mnt->mount("/tmp", std::make_unique<InMemoryBackend>(Env)));
  EXPECT_FALSE(Mnt->mount("/", std::make_unique<InMemoryBackend>(Env)));
  EXPECT_TRUE(Mnt->mount("/mnt/usb", std::make_unique<InMemoryBackend>(Env)));
}

//===--------------------------------------------------------------------===//
// Frontend behaviour
//===--------------------------------------------------------------------===//

class FrontendTest : public ::testing::Test {
protected:
  FrontendTest()
      : Env(chromeProfile()),
        Fs(Env, Proc, std::make_unique<InMemoryBackend>(Env)) {}

  BrowserEnv Env;
  Process Proc;
  FileSystem Fs;
};

TEST_F(FrontendTest, RelativePathsResolveAgainstCwd) {
  // §5.1: process.chdir support exists precisely so relative paths work.
  // chdir validates against the fs, so each change needs the loop to run
  // before dependent operations resolve against the new cwd.
  Fs.mkdirp("/work/dir", [](std::optional<ApiError>) {});
  Env.loop().run();
  std::optional<ApiError> CdErr(ApiError(Errno::Io, "pending"));
  Proc.chdir("/work/dir", [&](std::optional<ApiError> E) { CdErr = E; });
  Env.loop().run();
  EXPECT_FALSE(CdErr.has_value());
  Fs.writeFile("notes.txt", bytesOf("hi"), [](std::optional<ApiError>) {});
  Env.loop().run();
  ErrorOr<std::vector<uint8_t>> R(ApiError(Errno::Io, "pending"));
  Fs.readFile("/work/dir/notes.txt",
              [&](ErrorOr<std::vector<uint8_t>> X) { R = X; });
  Env.loop().run();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(textOf(*R), "hi");
  Proc.chdir("..");
  Env.loop().run();
  EXPECT_EQ(Proc.cwd(), "/work");
  bool Exists = false;
  Fs.exists("dir/notes.txt", [&](ErrorOr<bool> B) { Exists = *B; });
  Env.loop().run();
  EXPECT_TRUE(Exists);
}

TEST_F(FrontendTest, ChdirValidatesTargetAgainstFs) {
  // A missing target is ENOENT and the cwd does not move.
  std::optional<ApiError> E;
  Proc.chdir("/nowhere", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::NoEnt);
  EXPECT_EQ(Proc.cwd(), "/");

  // A file target is ENOTDIR and the cwd does not move.
  Fs.writeFile("/plain.txt", bytesOf("x"), [](std::optional<ApiError>) {});
  Env.loop().run();
  Proc.chdir("/plain.txt", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::NotDir);
  EXPECT_EQ(Proc.cwd(), "/");

  // A real directory validates, including via a relative path.
  Fs.mkdirp("/a/b", [](std::optional<ApiError>) {});
  Env.loop().run();
  Proc.chdir("/a", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
  EXPECT_EQ(Proc.cwd(), "/a");
  Proc.chdir("b", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
  EXPECT_EQ(Proc.cwd(), "/a/b");

  // A failed relative chdir leaves the cwd where it was.
  Proc.chdir("missing", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Code, Errno::NoEnt);
  EXPECT_EQ(Proc.cwd(), "/a/b");
}

TEST_F(FrontendTest, ChdirWithoutFsJustNormalizes) {
  // A Process not attached to any FileSystem has nothing to validate
  // against: the legacy normalize-only behavior remains.
  Process Bare;
  std::optional<ApiError> E(ApiError(Errno::Io, "pending"));
  Bare.chdir("/made/up/../dir", [&](std::optional<ApiError> R) { E = R; });
  EXPECT_FALSE(E.has_value()); // Completes synchronously, no loop needed.
  EXPECT_EQ(Bare.cwd(), "/made/dir");
}

TEST_F(FrontendTest, MkdirpCreatesChain) {
  std::optional<ApiError> E(ApiError(Errno::Io, "pending"));
  Fs.mkdirp("/a/b/c/d", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
  ErrorOr<Stats> S(ApiError(Errno::Io, "pending"));
  Fs.stat("/a/b/c/d", [&](ErrorOr<Stats> R) { S = R; });
  Env.loop().run();
  ASSERT_TRUE(S.ok());
  EXPECT_TRUE(S->isDirectory());
  // Idempotent.
  Fs.mkdirp("/a/b/c/d", [&](std::optional<ApiError> R) { E = R; });
  Env.loop().run();
  EXPECT_FALSE(E.has_value());
}

TEST_F(FrontendTest, InvalidOpenModeIsEinval) {
  ErrorOr<FdPtr> R(ApiError(Errno::Io, "pending"));
  Fs.open("/x", "rwx?", [&](ErrorOr<FdPtr> X) { R = X; });
  Env.loop().run();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, Errno::Invalid);
}

TEST_F(FrontendTest, StatsTrackTraffic) {
  Fs.writeFile("/a", bytesOf("12345"), [](std::optional<ApiError>) {});
  Env.loop().run();
  Fs.readFile("/a", [](ErrorOr<std::vector<uint8_t>>) {});
  Env.loop().run();
  EXPECT_EQ(Fs.stats().BytesWritten, 5u);
  EXPECT_EQ(Fs.stats().BytesRead, 5u);
  EXPECT_GE(Fs.stats().Operations, 2u);
  EXPECT_EQ(Fs.stats().UniqueFilesTouched, 1u);
}

} // namespace
