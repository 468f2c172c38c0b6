//===- doppio/backends/in_memory.cpp --------------------------------------==//

#include "doppio/backends/in_memory.h"

#include "doppio/path.h"

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

void InMemoryBackend::stat(const std::string &Path, ResultCb<Stats> Done) {
  Env.chargeIo(200);
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

void InMemoryBackend::open(const std::string &Path, OpenFlags Flags,
                           ResultCb<FdPtr> Done) {
  Env.chargeIo(400);
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
  if (!Meta) {
    std::string_view ParentPath = path::parentOf(Path);
    const FileIndex::Meta *Parent = Index.lookup(ParentPath);
    if (!Parent || Parent->Type != FileType::Directory) {
      Done(ApiError(Errno::NoEnt, std::string(ParentPath)));
      return;
    }
    Index.addFile(Path, 0, Env.clock().nowNs());
    FileData[Path] = {};
  }
  std::vector<uint8_t> Contents = Flags.Truncate
                                      ? std::vector<uint8_t>()
                                      : FileData[Path];
  auto Fd = std::make_shared<PreloadFile>(
      Env, Path, Flags, std::move(Contents),
      [this](const std::string &P, const std::vector<uint8_t> &Bytes,
             CompletionCb SyncDone) {
        Env.chargeIo(100 + Bytes.size() / 8);
        FileData[P] = Bytes;
        Index.setSize(P, Bytes.size(), Env.clock().nowNs());
        SyncDone(std::nullopt);
      });
  Done(FdPtr(Fd));
}

void InMemoryBackend::unlink(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(200);
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
  FileData.erase(Path);
  Done(std::nullopt);
}

void InMemoryBackend::rmdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(200);
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
  Done(std::nullopt);
}

void InMemoryBackend::mkdir(const std::string &Path, CompletionCb Done) {
  Env.chargeIo(200);
  if (Index.exists(Path)) {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  std::string_view ParentPath = path::parentOf(Path);
  const FileIndex::Meta *Parent = Index.lookup(ParentPath);
  if (!Parent) {
    Done(ApiError(Errno::NoEnt, std::string(ParentPath)));
    return;
  }
  if (Parent->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, std::string(ParentPath)));
    return;
  }
  Index.addDir(Path);
  Done(std::nullopt);
}

void InMemoryBackend::readdir(const std::string &Path,
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
  Done(Index.list(Path));
}

void InMemoryBackend::rename(const std::string &OldPath,
                             const std::string &NewPath, CompletionCb Done) {
  Env.chargeIo(400);
  const FileIndex::Meta *Meta = Index.lookup(OldPath);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, OldPath));
    return;
  }
  std::string_view DestParentPath = path::parentOf(NewPath);
  const FileIndex::Meta *DestParent = Index.lookup(DestParentPath);
  if (!DestParent || DestParent->Type != FileType::Directory) {
    Done(ApiError(Errno::NoEnt, std::string(DestParentPath)));
    return;
  }
  const FileIndex::Meta *Dest = Index.lookup(NewPath);
  if (Dest && Dest->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, NewPath));
    return;
  }
  if (Meta->Type == FileType::Directory) {
    // Move the whole subtree.
    if (NewPath.compare(0, OldPath.size(), OldPath) == 0 &&
        (NewPath.size() == OldPath.size() ||
         NewPath[OldPath.size()] == '/')) {
      Done(ApiError(Errno::Invalid, "cannot move a directory into itself"));
      return;
    }
    std::vector<std::string> Files = Index.allFiles();
    std::vector<std::string> Dirs = Index.allDirs();
    auto isUnder = [&](const std::string &P) {
      return P.compare(0, OldPath.size(), OldPath) == 0 &&
             (P.size() == OldPath.size() || P[OldPath.size()] == '/');
    };
    Index.addDir(NewPath);
    for (const std::string &Dir : Dirs)
      if (isUnder(Dir) && Dir != OldPath)
        Index.addDir(NewPath + Dir.substr(OldPath.size()));
    for (const std::string &File : Files) {
      if (!isUnder(File))
        continue;
      const FileIndex::Meta *M = Index.lookup(File);
      std::string Moved = NewPath + File.substr(OldPath.size());
      Index.addFile(Moved, M->SizeBytes, M->MtimeNs);
      FileData[Moved] = std::move(FileData[File]);
      FileData.erase(File);
    }
    // Remove the old subtree bottom-up.
    for (auto It = Files.rbegin(); It != Files.rend(); ++It)
      if (isUnder(*It))
        Index.remove(*It);
    for (auto It = Dirs.rbegin(); It != Dirs.rend(); ++It)
      if (isUnder(*It) && *It != OldPath)
        Index.remove(*It);
    Index.remove(OldPath);
    Done(std::nullopt);
    return;
  }
  // Plain file rename; replaces any existing destination file.
  FileIndex::Meta Saved = *Meta;
  if (Dest) {
    Index.remove(NewPath);
    FileData.erase(NewPath);
  }
  Index.remove(OldPath);
  Index.addFile(NewPath, Saved.SizeBytes, Saved.MtimeNs);
  FileData[NewPath] = std::move(FileData[OldPath]);
  FileData.erase(OldPath);
  Done(std::nullopt);
}

void InMemoryBackend::utimes(const std::string &Path, uint64_t MtimeNs,
                             CompletionCb Done) {
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  Index.setSize(Path, Meta->SizeBytes, MtimeNs);
  Done(std::nullopt);
}

bool InMemoryBackend::seedFile(const std::string &Path,
                               std::vector<uint8_t> Contents) {
  if (!Index.addFile(Path, Contents.size(), Env.clock().nowNs()))
    return false;
  FileData[Path] = std::move(Contents);
  return true;
}

const std::vector<uint8_t> *
InMemoryBackend::contents(const std::string &Path) const {
  auto It = FileData.find(Path);
  return It == FileData.end() ? nullptr : &It->second;
}
