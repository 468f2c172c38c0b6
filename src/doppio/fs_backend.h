//===- doppio/fs_backend.h - Backend API & utilities (§5.1) ------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The file system backend API: "a backend for the file system API only
/// needs to implement nine methods that correspond to standard Unix file
/// system commands: rename, stat, open, unlink, rmdir, mkdir, readdir,
/// close, sync" (§5.1) — close and sync live on the descriptor object the
/// backend's open returns. Optional methods (chmod, chown, utimes, link,
/// symlink, readlink) default to ENOTSUP.
///
/// Also here are the utility classes the paper says Doppio offers backends:
/// the FileIndex that "any backend can use to cache directory listings and
/// files", and PreloadFile, the "standard file implementation that loads
/// the entire file into memory and implements sync-on-close semantics".
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_FS_BACKEND_H
#define DOPPIO_DOPPIO_FS_BACKEND_H

#include "doppio/fs_types.h"

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace doppio {
namespace rt {
namespace fs {

/// The nine-method backend interface (§5.1). All paths arriving here have
/// been standardized by the frontend: normalized and absolute.
class FileSystemBackend {
public:
  virtual ~FileSystemBackend();

  virtual std::string backendName() const = 0;
  virtual bool isReadOnly() const = 0;

  // The nine core methods (close and sync are on the descriptor).
  virtual void rename(const std::string &OldPath, const std::string &NewPath,
                      CompletionCb Done) = 0;
  virtual void stat(const std::string &Path, ResultCb<Stats> Done) = 0;
  virtual void open(const std::string &Path, OpenFlags Flags,
                    ResultCb<FdPtr> Done) = 0;
  virtual void unlink(const std::string &Path, CompletionCb Done) = 0;
  virtual void rmdir(const std::string &Path, CompletionCb Done) = 0;
  virtual void mkdir(const std::string &Path, CompletionCb Done) = 0;
  virtual void readdir(const std::string &Path,
                       ResultCb<std::vector<std::string>> Done) = 0;

  // Optional methods; the default implementations fail with ENOTSUP.
  virtual void chmod(const std::string &Path, uint32_t Mode,
                     CompletionCb Done);
  virtual void chown(const std::string &Path, uint32_t Uid, uint32_t Gid,
                     CompletionCb Done);
  virtual void utimes(const std::string &Path, uint64_t MtimeNs,
                      CompletionCb Done);
  virtual void link(const std::string &Existing, const std::string &Created,
                    CompletionCb Done);
  virtual void symlink(const std::string &Target,
                       const std::string &Created, CompletionCb Done);
  virtual void readlink(const std::string &Path,
                        ResultCb<std::string> Done);
};

/// An in-memory tree of paths caching directory structure and file
/// metadata — the index utility of §5.1. The root "/" always exists.
/// Paths are normalized and absolute; each directory keeps its direct
/// children, so one directory's listing is read without a lookup per child.
/// Directories are hashed by path, so a lookup is one hash of the parent
/// plus one search of its children, and a caller can pass a view.
class FileIndex {
public:
  struct Meta {
    FileType Type = FileType::File;
    uint64_t SizeBytes = 0;
    uint64_t MtimeNs = 0;
  };
  /// A directory's direct children: name -> metadata, sorted by name.
  using ChildMap = std::map<std::string, Meta, std::less<>>;

  FileIndex();

  /// Records a file, creating missing parent directories. Fails (returns
  /// false) if a parent is a file or the path is an existing directory.
  bool addFile(std::string_view Path, uint64_t SizeBytes,
               uint64_t MtimeNs = 0);

  /// Records a directory; parents are created. Fails if blocked by a file.
  bool addDir(std::string_view Path);

  /// Removes a file or empty directory. Fails otherwise.
  bool remove(std::string_view Path);

  bool exists(std::string_view Path) const;
  const Meta *lookup(std::string_view Path) const;
  void setSize(std::string_view Path, uint64_t SizeBytes, uint64_t MtimeNs);

  /// Child names of a directory, sorted; empty if \p Path is not a dir.
  std::vector<std::string> list(std::string_view Path) const;
  /// Children of a directory with their metadata. Null if not a dir.
  const ChildMap *children(std::string_view Path) const;

  /// True if \p Path is a directory with no entries.
  bool isEmptyDir(std::string_view Path) const;

  /// All file (not directory) paths in the index, sorted.
  std::vector<std::string> allFiles() const;
  /// All directory paths (excluding "/"), sorted, so parents come first.
  std::vector<std::string> allDirs() const;

private:
  /// Hashes std::string keys and std::string_view probes alike.
  struct PathHash {
    using is_transparent = void;
    size_t operator()(std::string_view P) const {
      return std::hash<std::string_view>()(P);
    }
  };

  Meta *find(std::string_view Path);
  bool add(std::string_view Path, const Meta &M);

  Meta RootMeta;
  /// Dir path -> children.
  std::unordered_map<std::string, ChildMap, PathHash, std::equal_to<>> Dirs;
};

/// The standard descriptor: the whole file is loaded into memory before it
/// can be operated on, writes are buffered, and the contents are written
/// back on sync/close (NFS-style sync-on-close, §5.1).
class PreloadFile : public FileDescriptor,
                    public std::enable_shared_from_this<PreloadFile> {
public:
  /// Writes the complete contents back to the backing store.
  using SyncFn =
      std::function<void(const std::string &Path,
                         const std::vector<uint8_t> &Contents,
                         CompletionCb Done)>;

  PreloadFile(browser::BrowserEnv &Env, std::string Path, OpenFlags Flags,
              std::vector<uint8_t> Contents, SyncFn Sync);

  void read(Buffer &Dst, size_t DstOff, size_t Len, uint64_t Pos,
            ResultCb<size_t> Done) override;
  void write(const Buffer &Src, size_t SrcOff, size_t Len, uint64_t Pos,
             ResultCb<size_t> Done) override;
  void stat(ResultCb<Stats> Done) override;
  void sync(CompletionCb Done) override;
  void close(CompletionCb Done) override;
  void readAllAndClose(ResultCb<std::vector<uint8_t>> Done) override;
  void truncate(uint64_t Size, CompletionCb Done) override;
  const std::string &path() const override { return FilePath; }

  bool isClosed() const { return Closed; }
  bool isDirty() const { return Dirty; }

private:
  browser::BrowserEnv &Env;
  std::string FilePath;
  OpenFlags Flags;
  /// In-memory contents; a Buffer so the byte storage participates in the
  /// typed-array memory accounting (the Safari leak of §7.1 comes from
  /// file buffers like this one).
  Buffer Contents;
  size_t Size;
  SyncFn Sync;
  bool Dirty = false;
  bool Closed = false;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_FS_BACKEND_H
