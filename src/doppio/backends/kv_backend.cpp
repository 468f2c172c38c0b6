//===- doppio/backends/kv_backend.cpp -------------------------------------==//

#include "doppio/backends/kv_backend.h"

#include "doppio/cont/snapshot.h"
#include "doppio/path.h"

#include <memory>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

/// Runs \p Step over \p Items sequentially (each step is asynchronous);
/// stops at the first error.
static void forEachAsync(
    std::shared_ptr<std::vector<std::string>> Items, size_t I,
    std::function<void(const std::string &, CompletionCb)> Step,
    CompletionCb Done) {
  if (I == Items->size()) {
    Done(std::nullopt);
    return;
  }
  // Step must be captured by copy: it is about to be invoked below, and a
  // move here would empty the very function object being called.
  auto Continue = [Items, I, Step,
                   Done = std::move(Done)](std::optional<ApiError> Err) {
    if (Err) {
      Done(Err);
      return;
    }
    forEachAsync(Items, I + 1, Step, Done);
  };
  Step((*Items)[I], std::move(Continue));
}

//===----------------------------------------------------------------------===//
// Directory records
//===----------------------------------------------------------------------===//
//
// The record under "d:<dir>": [magic][version][u32 count], then per child
// in name order: [str name][u8 type: 0 file, 1 directory], and for a file
// [u64 size][u64 mtime].

static constexpr uint32_t DirRecordMagic = 0x44495252; // "DIRR"
static constexpr uint32_t DirRecordVersion = 1;

static std::string dirKey(const std::string &Dir) { return "d:" + Dir; }

static AsyncKvStore::Bytes encodeDir(const FileIndex::ChildMap &Kids) {
  snap::Writer W(DirRecordMagic, DirRecordVersion);
  W.u32(static_cast<uint32_t>(Kids.size()));
  for (const auto &[Name, M] : Kids) {
    W.str(Name);
    W.u8(M.Type == FileType::Directory);
    if (M.Type == FileType::File) {
      W.u64(M.SizeBytes);
      W.u64(M.MtimeNs);
    }
  }
  return W.take();
}

static std::string childPath(const std::string &Dir, const std::string &Name) {
  return Dir == "/" ? "/" + Name : Dir + "/" + Name;
}

/// Adds the children recorded in \p Record to \p Out under \p Dir and
/// appends the child directories to \p SubDirs. False on a truncated or
/// malformed record: a bad name, a duplicate, an unknown type, or
/// trailing bytes.
static bool decodeDir(const AsyncKvStore::Bytes &Record, const std::string &Dir,
                      FileIndex &Out, std::vector<std::string> &SubDirs) {
  snap::Reader R(Record, DirRecordMagic, DirRecordVersion);
  uint32_t Count = R.u32();
  for (uint32_t I = 0; I != Count && R.ok(); ++I) {
    std::string Name = R.str();
    uint8_t Type = R.u8();
    if (!R.ok() || Name.empty() || Name == "." || Name == ".." ||
        Name.find('/') != std::string::npos || Type > 1)
      return false;
    std::string Path = childPath(Dir, Name);
    if (Out.exists(Path))
      return false;
    if (Type == 1) {
      Out.addDir(Path);
      SubDirs.push_back(std::move(Path));
      continue;
    }
    uint64_t Size = R.u64();
    uint64_t Mtime = R.u64();
    Out.addFile(Path, Size, Mtime);
  }
  return R.atEnd();
}

namespace {
/// One reload walk: the tree loaded so far and the records in flight.
struct ReloadWalk {
  AsyncKvStore &Store;
  FileIndex &Target;
  CompletionCb Done;
  FileIndex Loaded = {};
  size_t Pending = 0;
  std::optional<ApiError> Err = {};
  /// Whether any record was found (the root's comes first).
  bool Found = false;
};
} // namespace

/// Fetches the record of \p Dir, then those of all its subdirectories at
/// once, so the walk takes one round trip per level of depth. A directory
/// without a record is empty.
static void loadDir(std::shared_ptr<ReloadWalk> W, const std::string &Dir) {
  ++W->Pending;
  W->Store.get(dirKey(Dir), [W, Dir](
                                ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
    std::vector<std::string> SubDirs;
    if (!R) {
      W->Err = R.error();
    } else if (*R && !W->Err) {
      W->Found = true;
      if (!decodeDir(**R, Dir, W->Loaded, SubDirs))
        W->Err = ApiError(Errno::Io, "malformed record " + dirKey(Dir));
    }
    if (!W->Err)
      for (const std::string &Sub : SubDirs)
        loadDir(W, Sub);
    if (--W->Pending != 0)
      return;
    // A store without a root record holds no tree: leave the index as is.
    if (!W->Err && W->Found)
      W->Target = std::move(W->Loaded);
    W->Done(W->Err);
  });
}

void KeyValueBackend::initialize(CompletionCb Done) {
  loadDir(std::make_shared<ReloadWalk>(
              ReloadWalk{*Store, Index, std::move(Done)}),
          "/");
}

void KeyValueBackend::persistDir(const std::string &Dir, CompletionCb Done) {
  if (const FileIndex::ChildMap *Kids = Index.children(Dir))
    Store->put(dirKey(Dir), encodeDir(*Kids), std::move(Done));
  else
    Store->del(dirKey(Dir), std::move(Done));
}

void KeyValueBackend::persistDirs(std::vector<std::string> Dirs,
                                  CompletionCb Done) {
  forEachAsync(
      std::make_shared<std::vector<std::string>>(std::move(Dirs)), 0,
      [this](const std::string &Dir, CompletionCb Next) {
        persistDir(Dir, std::move(Next));
      },
      std::move(Done));
}

void KeyValueBackend::stat(const std::string &Path, ResultCb<Stats> Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  Stats S;
  S.Type = Meta->Type;
  S.SizeBytes = Meta->SizeBytes;
  S.MtimeNs = Meta->MtimeNs;
  Done(S);
}

void KeyValueBackend::open(const std::string &Path, OpenFlags Flags,
                           ResultCb<FdPtr> Done) {
  Env.chargeIo(500);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (Meta && Meta->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, Path));
    return;
  }
  if (Meta && Flags.Exclusive) {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  if (!Meta && !Flags.Create) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  const FileIndex::Meta *Parent = Index.lookup(path::dirname(Path));
  if (!Parent || Parent->Type != FileType::Directory) {
    Done(ApiError(Errno::NoEnt, path::dirname(Path)));
    return;
  }

  // The descriptor writes the whole file back through the store and
  // re-persists its directory's record (sync-on-close lands here).
  PreloadFile::SyncFn Sync = [this](const std::string &P,
                                    const std::vector<uint8_t> &Bytes,
                                    CompletionCb SyncDone) {
    Store->put(fileKey(P), Bytes,
               [this, P, Size = Bytes.size(),
                SyncDone = std::move(SyncDone)](std::optional<ApiError> E) {
                 if (E) {
                   SyncDone(E);
                   return;
                 }
                 Index.addFile(P, Size, Env.clock().nowNs());
                 persistDir(path::dirname(P), std::move(SyncDone));
               });
  };

  auto finish = [this, Path, Flags, Done,
                 Sync](std::vector<uint8_t> Contents) {
    bool IsNew = !Index.exists(Path);
    auto Fd = std::make_shared<PreloadFile>(Env, Path, Flags,
                                            std::move(Contents), Sync);
    if (!IsNew) {
      Done(FdPtr(Fd));
      return;
    }
    // Creating: record the (empty) file immediately so stat sees it.
    Index.addFile(Path, 0, Env.clock().nowNs());
    persistDir(path::dirname(Path), [Fd, Done](std::optional<ApiError> E) {
      if (E)
        Done(*E);
      else
        Done(FdPtr(Fd));
    });
  };

  if (!Meta || Flags.Truncate) {
    finish({});
    return;
  }
  // Preload the existing contents (§5.1: files are completely loaded into
  // memory before they can be operated on).
  Store->get(fileKey(Path),
             [Path, finish, Done](
                 ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
               if (!R) {
                 Done(R.error());
                 return;
               }
               finish(R->has_value() ? std::move(R->value())
                                     : AsyncKvStore::Bytes());
             });
}

void KeyValueBackend::unlink(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, Path));
    return;
  }
  Index.remove(Path);
  Store->del(fileKey(Path), [this, Path, Done = std::move(Done)](
                                std::optional<ApiError> E) {
    if (E) {
      Done(E);
      return;
    }
    persistDir(path::dirname(Path), Done);
  });
}

void KeyValueBackend::rmdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, Path));
    return;
  }
  if (!Index.isEmptyDir(Path)) {
    Done(ApiError(Errno::NotEmpty, Path));
    return;
  }
  Index.remove(Path);
  persistDirs({path::dirname(Path), Path}, std::move(Done));
}

void KeyValueBackend::mkdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(300);
  if (Index.exists(Path)) {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  const FileIndex::Meta *Parent = Index.lookup(path::dirname(Path));
  if (!Parent) {
    Done(ApiError(Errno::NoEnt, path::dirname(Path)));
    return;
  }
  if (Parent->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, path::dirname(Path)));
    return;
  }
  Index.addDir(Path);
  persistDir(path::dirname(Path), std::move(Done));
}

void KeyValueBackend::readdir(const std::string &Path,
                              ResultCb<std::vector<std::string>> Done) {
  Env.chargeIo(300);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, Path));
    return;
  }
  const std::set<std::string> *Kids = Index.list(Path);
  Done(std::vector<std::string>(Kids->begin(), Kids->end()));
}

void KeyValueBackend::rename(const std::string &OldPath,
                             const std::string &NewPath, CompletionCb Done) {
  Env.chargeIo(600);
  const FileIndex::Meta *Meta = Index.lookup(OldPath);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, OldPath));
    return;
  }
  const FileIndex::Meta *DestParent = Index.lookup(path::dirname(NewPath));
  if (!DestParent || DestParent->Type != FileType::Directory) {
    Done(ApiError(Errno::NoEnt, path::dirname(NewPath)));
    return;
  }
  const FileIndex::Meta *Dest = Index.lookup(NewPath);
  if (Dest && Dest->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, NewPath));
    return;
  }
  bool IsDir = Meta->Type == FileType::Directory;
  if (IsDir && Dest) {
    Done(ApiError(Errno::NotDir, NewPath));
    return;
  }
  if (OldPath == NewPath) {
    Done(std::nullopt);
    return;
  }

  auto isUnder = [OldPath](const std::string &P) {
    return P.compare(0, OldPath.size(), OldPath) == 0 &&
           (P.size() == OldPath.size() || P[OldPath.size()] == '/');
  };
  auto moved = [OldPath, NewPath](const std::string &P) {
    return NewPath + P.substr(OldPath.size());
  };

  // Collect the file payloads to move (one for a plain file, the subtree
  // for a directory) and, for a directory, itself and every directory
  // under it, sorted so that parents precede their children.
  auto Files = std::make_shared<std::vector<std::string>>();
  std::vector<std::string> OldDirs;
  if (!IsDir) {
    Files->push_back(OldPath);
  } else {
    if (isUnder(NewPath)) {
      Done(ApiError(Errno::Invalid, "cannot move a directory into itself"));
      return;
    }
    for (const std::string &F : Index.allFiles())
      if (isUnder(F))
        Files->push_back(F);
    for (const std::string &D : Index.allDirs())
      if (isUnder(D))
        OldDirs.push_back(D);
  }

  // Move each payload: get old key -> put new key -> delete old key.
  auto MoveOne = [this, moved](const std::string &F, CompletionCb Next) {
    Store->get(
        fileKey(F),
        [this, F, Moved = moved(F),
         Next = std::move(Next)](ErrorOr<std::optional<AsyncKvStore::Bytes>> R) {
          if (!R) {
            Next(R.error());
            return;
          }
          AsyncKvStore::Bytes Data =
              R->has_value() ? std::move(R->value()) : AsyncKvStore::Bytes();
          Store->put(fileKey(Moved), Data,
                     [this, F, Next](std::optional<ApiError> E) {
                       if (E) {
                         Next(E);
                         return;
                       }
                       Store->del(fileKey(F), Next);
                     });
        });
  };

  forEachAsync(
      Files, 0, MoveOne,
      [this, Files, OldDirs = std::move(OldDirs), OldPath, NewPath, moved,
       Done = std::move(Done)](std::optional<ApiError> Err) {
        if (Err) {
          Done(Err);
          return;
        }
        // Rewrite the index: build the new subtree, then remove the old
        // one bottom-up.
        std::vector<std::string> Changed;
        for (const std::string &D : OldDirs) {
          Changed.push_back(moved(D));
          Index.addDir(Changed.back());
        }
        for (const std::string &F : *Files)
          if (const FileIndex::Meta *M = Index.lookup(F))
            Index.addFile(moved(F), M->SizeBytes, M->MtimeNs);
        for (auto It = Files->rbegin(); It != Files->rend(); ++It)
          Index.remove(*It);
        for (auto It = OldDirs.rbegin(); It != OldDirs.rend(); ++It)
          Index.remove(*It);
        // Every moved directory's record lands under its new path, then
        // both parents' records; the old records are deleted last.
        Changed.push_back(path::dirname(NewPath));
        if (path::dirname(OldPath) != Changed.back())
          Changed.push_back(path::dirname(OldPath));
        Changed.insert(Changed.end(), OldDirs.begin(), OldDirs.end());
        persistDirs(std::move(Changed), Done);
      });
}
