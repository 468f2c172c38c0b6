//===- doppio/fs_backend.cpp ----------------------------------------------==//

#include "doppio/fs_backend.h"

#include <algorithm>
#include <cassert>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

std::optional<OpenFlags> OpenFlags::parse(const std::string &Mode) {
  OpenFlags F;
  if (Mode == "r") {
    F.Read = true;
  } else if (Mode == "r+") {
    F.Read = F.Write = true;
  } else if (Mode == "w") {
    F.Write = F.Create = F.Truncate = true;
  } else if (Mode == "wx") {
    F.Write = F.Create = F.Truncate = F.Exclusive = true;
  } else if (Mode == "w+") {
    F.Read = F.Write = F.Create = F.Truncate = true;
  } else if (Mode == "a") {
    F.Write = F.Create = F.Append = true;
  } else if (Mode == "a+") {
    F.Read = F.Write = F.Create = F.Append = true;
  } else {
    return std::nullopt;
  }
  return F;
}

FileDescriptor::~FileDescriptor() = default;

void FileDescriptor::truncate(uint64_t, CompletionCb Done) {
  Done(ApiError(Errno::NotSup, "truncate"));
}

FileSystemBackend::~FileSystemBackend() = default;

void FileSystemBackend::chmod(const std::string &Path, uint32_t,
                              CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::chown(const std::string &Path, uint32_t, uint32_t,
                              CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::utimes(const std::string &Path, uint64_t,
                               CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Path));
}

void FileSystemBackend::link(const std::string &, const std::string &Created,
                             CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Created));
}

void FileSystemBackend::symlink(const std::string &,
                                const std::string &Created,
                                CompletionCb Done) {
  Done(ApiError(Errno::NotSup, Created));
}

void FileSystemBackend::readlink(const std::string &Path,
                                 ResultCb<std::string> Done) {
  Done(ApiError(Errno::NotSup, Path));
}

//===----------------------------------------------------------------------===//
// FileIndex
//===----------------------------------------------------------------------===//

namespace {
/// Splits a normalized absolute path into its parent and final name; false
/// for "/" and for anything relative or ending in '/'.
bool splitPath(std::string_view Path, std::string_view &Parent,
               std::string_view &Name) {
  size_t Slash = Path.rfind('/');
  if (Path.empty() || Path.front() != '/' || Slash + 1 == Path.size())
    return false;
  Parent = Slash == 0 ? Path.substr(0, 1) : Path.substr(0, Slash);
  Name = Path.substr(Slash + 1);
  return true;
}
} // namespace

FileIndex::FileIndex() : RootMeta{FileType::Directory, 0, 0} {
  Dirs.try_emplace("/");
}

FileIndex::Meta *FileIndex::find(std::string_view Path) {
  if (Path == "/")
    return &RootMeta;
  std::string_view Parent, Name;
  if (!splitPath(Path, Parent, Name))
    return nullptr;
  auto D = Dirs.find(Parent);
  if (D == Dirs.end())
    return nullptr;
  auto K = D->second.find(Name);
  return K == D->second.end() ? nullptr : &K->second;
}

bool FileIndex::add(std::string_view Path, const Meta &M) {
  std::string_view Parent, Name;
  if (!splitPath(Path, Parent, Name) || Name == "." || Name == "..")
    return false;
  auto D = Dirs.find(Parent);
  if (D == Dirs.end()) {
    if (!addDir(Parent))
      return false;
    D = Dirs.find(Parent);
  }
  auto [K, Inserted] = D->second.try_emplace(std::string(Name), M);
  if (!Inserted) {
    if (K->second.Type != M.Type)
      return false;
    K->second = M;
    return true;
  }
  if (M.Type == FileType::Directory)
    Dirs.try_emplace(std::string(Path));
  return true;
}

bool FileIndex::addDir(std::string_view Path) {
  return Path == "/" || add(Path, {FileType::Directory, 0, 0});
}

bool FileIndex::addFile(std::string_view Path, uint64_t SizeBytes,
                        uint64_t MtimeNs) {
  return add(Path, {FileType::File, SizeBytes, MtimeNs});
}

bool FileIndex::remove(std::string_view Path) {
  std::string_view Parent, Name;
  if (!splitPath(Path, Parent, Name))
    return false;
  auto D = Dirs.find(Parent);
  if (D == Dirs.end())
    return false;
  auto K = D->second.find(Name);
  if (K == D->second.end())
    return false;
  if (K->second.Type == FileType::Directory) {
    auto Sub = Dirs.find(Path);
    if (!Sub->second.empty())
      return false;
    Dirs.erase(Sub);
  }
  D->second.erase(K);
  return true;
}

bool FileIndex::exists(std::string_view Path) const {
  return lookup(Path) != nullptr;
}

const FileIndex::Meta *FileIndex::lookup(std::string_view Path) const {
  return const_cast<FileIndex *>(this)->find(Path);
}

void FileIndex::setSize(std::string_view Path, uint64_t SizeBytes,
                        uint64_t MtimeNs) {
  Meta *M = find(Path);
  assert(M && "setSize on unknown path");
  M->SizeBytes = SizeBytes;
  M->MtimeNs = MtimeNs;
}

std::vector<std::string> FileIndex::list(std::string_view Path) const {
  std::vector<std::string> Names;
  if (const ChildMap *Kids = children(Path)) {
    Names.reserve(Kids->size());
    for (const auto &[Name, M] : *Kids)
      Names.push_back(Name);
  }
  return Names;
}

const FileIndex::ChildMap *FileIndex::children(std::string_view Path) const {
  auto It = Dirs.find(Path);
  return It == Dirs.end() ? nullptr : &It->second;
}

bool FileIndex::isEmptyDir(std::string_view Path) const {
  const ChildMap *Kids = children(Path);
  return Kids && Kids->empty();
}

std::vector<std::string> FileIndex::allFiles() const {
  std::vector<std::string> Out;
  for (const auto &[Dir, Kids] : Dirs)
    for (const auto &[Name, M] : Kids)
      if (M.Type == FileType::File)
        Out.push_back(Dir == "/" ? "/" + Name : Dir + "/" + Name);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<std::string> FileIndex::allDirs() const {
  std::vector<std::string> Out;
  Out.reserve(Dirs.size() - 1);
  for (const auto &[Dir, Kids] : Dirs)
    if (Dir != "/")
      Out.push_back(Dir);
  std::sort(Out.begin(), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// PreloadFile
//===----------------------------------------------------------------------===//

PreloadFile::PreloadFile(browser::BrowserEnv &Env, std::string Path,
                         OpenFlags Flags, std::vector<uint8_t> InitContents,
                         SyncFn Sync)
    : Env(Env), FilePath(std::move(Path)), Flags(Flags),
      Contents(Env, std::move(InitContents)), Size(Contents.size()),
      Sync(std::move(Sync)) {
  if (Flags.Truncate)
    Size = 0;
}

void PreloadFile::read(Buffer &Dst, size_t DstOff, size_t Len, uint64_t Pos,
                       ResultCb<size_t> Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Read) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (Pos >= Size) {
    Done(static_cast<size_t>(0)); // EOF.
    return;
  }
  size_t Avail = Size - static_cast<size_t>(Pos);
  size_t N = std::min(Len, Avail);
  N = Contents.copyTo(Dst, DstOff, static_cast<size_t>(Pos),
                      static_cast<size_t>(Pos) + N);
  Done(N);
}

void PreloadFile::write(const Buffer &Src, size_t SrcOff, size_t Len,
                        uint64_t Pos, ResultCb<size_t> Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Write) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (Flags.Append)
    Pos = Size;
  size_t End = static_cast<size_t>(Pos) + Len;
  if (End > Contents.size()) {
    // Grow the backing buffer geometrically.
    size_t NewCap = std::max(End, Contents.size() * 2 + 16);
    Buffer Grown(Env, NewCap);
    Contents.copyTo(Grown, 0, 0, Size);
    Contents = std::move(Grown);
  }
  Src.copyTo(Contents, static_cast<size_t>(Pos), SrcOff, SrcOff + Len);
  Size = std::max(Size, End);
  Dirty = true;
  Done(Len);
}

void PreloadFile::stat(ResultCb<Stats> Done) {
  Stats S;
  S.Type = FileType::File;
  S.SizeBytes = Size;
  S.MtimeNs = Env.clock().nowNs();
  Done(S);
}

void PreloadFile::sync(CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Dirty) {
    Done(std::nullopt);
    return;
  }
  std::vector<uint8_t> Snapshot(Contents.bytes().begin(),
                                Contents.bytes().begin() + Size);
  auto Self = shared_from_this();
  Sync(FilePath, Snapshot,
       [Self, Done = std::move(Done)](std::optional<ApiError> Err) {
         if (!Err)
           Self->Dirty = false;
         Done(Err);
       });
}

void PreloadFile::close(CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  // Sync-on-close (§5.1).
  auto Self = shared_from_this();
  sync([Self, Done = std::move(Done)](std::optional<ApiError> Err) {
    Self->Closed = true;
    Done(Err);
  });
}

void PreloadFile::readAllAndClose(ResultCb<std::vector<uint8_t>> Done) {
  // The contents are already in memory, so they move out instead of being
  // copied into a fresh buffer. The memory model and the clock still see
  // that buffer: noted before the copy is charged, freed once the read's
  // continuation returns (after Done, unless sync-on-close completes
  // later), so Safari's leak and paging fall where they did. Done may
  // drop the last reference to this descriptor, so the free goes through
  // a local reference to the environment.
  browser::BrowserEnv &E = Env;
  size_t Len = Size;
  size_t Noted = E.profile().HasTypedArrays ? Len : 0;
  if (Noted)
    E.noteTypedArrayAlloc(Noted);
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
  } else if (!Flags.Read) {
    Done(ApiError(Errno::Access, FilePath));
  } else {
    if (Len)
      Contents.chargeAccess(Len);
    if (Dirty) {
      // Sync-on-close writes the contents back first; they move out once
      // it has finished with them.
      close([Self = shared_from_this(), Len, Done = std::move(Done)](
                std::optional<ApiError> Err) {
        if (Err) {
          Done(*Err);
          return;
        }
        std::vector<uint8_t> Out = Self->Contents.release();
        Out.resize(Len);
        Done(std::move(Out));
      });
    } else {
      Closed = true;
      std::vector<uint8_t> Out = Contents.release();
      Out.resize(Len);
      Done(std::move(Out));
    }
  }
  if (Noted)
    E.noteTypedArrayFree(Noted);
}

void PreloadFile::truncate(uint64_t NewSize, CompletionCb Done) {
  if (Closed) {
    Done(ApiError(Errno::BadFd, FilePath));
    return;
  }
  if (!Flags.Write) {
    Done(ApiError(Errno::Access, FilePath));
    return;
  }
  if (NewSize > Size) {
    Buffer Grown(Env, static_cast<size_t>(NewSize));
    Contents.copyTo(Grown, 0, 0, Size);
    Contents = std::move(Grown);
  }
  Size = static_cast<size_t>(NewSize);
  Dirty = true;
  Done(std::nullopt);
}
