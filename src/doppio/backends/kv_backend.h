//===- doppio/backends/kv_backend.h - FS over a key/value store --*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete file system backend built over any AsyncKvStore, covering the
/// paper's localStorage-, IndexedDB-, and Dropbox-backed file systems with
/// one implementation of the nine backend methods (§5.1). File contents
/// live under "f:<path>" keys. The FileIndex utility caches the directory
/// tree in memory; each directory's direct children (name, type, size,
/// mtime) persist as one record under "d:<dir>", so a mutation re-persists
/// only the records of the directories it changed. An empty directory
/// needs no record. A page reload walks the records from "d:/" one tree
/// level at a time, fetching sibling directories' records concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H
#define DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H

#include "doppio/backends/kv_store.h"
#include "doppio/fs_backend.h"

#include <memory>

namespace doppio {
namespace rt {
namespace fs {

/// File system over an asynchronous key/value store.
class KeyValueBackend : public FileSystemBackend {
public:
  KeyValueBackend(browser::BrowserEnv &Env,
                  std::unique_ptr<AsyncKvStore> Store)
      : Env(Env), Store(std::move(Store)) {}

  /// Loads the persisted directory records. Must complete before use. A
  /// store without records leaves the index as it is; a malformed record
  /// fails with EIO and leaves it empty.
  void initialize(CompletionCb Done);

  std::string backendName() const override {
    return "kv:" + Store->storeName();
  }
  bool isReadOnly() const override { return false; }

  void rename(const std::string &OldPath, const std::string &NewPath,
              CompletionCb Done) override;
  void stat(const std::string &Path, ResultCb<Stats> Done) override;
  void open(const std::string &Path, OpenFlags Flags,
            ResultCb<FdPtr> Done) override;
  void unlink(const std::string &Path, CompletionCb Done) override;
  void rmdir(const std::string &Path, CompletionCb Done) override;
  void mkdir(const std::string &Path, CompletionCb Done) override;
  void readdir(const std::string &Path,
               ResultCb<std::vector<std::string>> Done) override;

  const FileIndex &index() const { return Index; }
  AsyncKvStore &store() { return *Store; }

  /// Durability barrier: completes once every acknowledged mutation has
  /// reached the underlying mechanism. Immediate for the write-through
  /// adapters; flushes the write-back cache when one is layered below.
  void sync(CompletionCb Done) { Store->sync(std::move(Done)); }

private:
  static std::string fileKey(const std::string &Path) { return "f:" + Path; }
  /// Writes the record of directory \p Dir, or deletes it once \p Dir is
  /// gone.
  void persistDir(std::string_view Dir, CompletionCb Done);
  /// persistDir over \p Dirs, one after another.
  void persistDirs(std::vector<std::string> Dirs, CompletionCb Done);

  browser::BrowserEnv &Env;
  std::unique_ptr<AsyncKvStore> Store;
  FileIndex Index;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_BACKENDS_KV_BACKEND_H
