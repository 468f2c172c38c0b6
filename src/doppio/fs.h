//===- doppio/fs.h - The unified fs module (§5.1) ----------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Doppio's emulation of the Node JS `fs` module: the unified asynchronous
/// file system API that programs (and language runtimes like DoppioJVM)
/// interact with. The frontend standardizes arguments (resolving paths
/// against the process working directory), validates flags, and simulates
/// the redundant convenience functions (readFile, writeFile, appendFile,
/// exists) in terms of the nine core backend methods — "this service
/// dramatically reduces the amount of logic that each file system needs to
/// implement" (§5.1).
///
/// Only the asynchronous interface is guaranteed: synchronous JavaScript
/// wrappers are impossible over asynchronous storage (§3.2). Guest
/// languages get their synchronous API via suspend-and-resume (§4.2); see
/// SyncFs in doppio/sync_fs.h.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_FS_H
#define DOPPIO_DOPPIO_FS_H

#include "doppio/fs_backend.h"
#include "doppio/obs/registry.h"
#include "doppio/process.h"

#include <memory>
#include <unordered_set>

namespace doppio {
namespace rt {
namespace fs {

/// The Node-style fs frontend over a single root backend (commonly a
/// MountableFileSystem).
class FileSystem {
public:
  FileSystem(browser::BrowserEnv &Env, Process &Proc,
             std::unique_ptr<FileSystemBackend> Root)
      : Env(Env), Proc(Proc), Root(std::move(Root)) {
    bindCells();
    installChdirValidator(Proc);
  }
  ~FileSystem() { Proc.clearChdirValidator(); }

  FileSystemBackend &root() { return *Root; }
  browser::BrowserEnv &env() { return Env; }

  /// Installs this file system as \p P's chdir validator: the target must
  /// stat (ENOENT otherwise) and be a directory (ENOTDIR otherwise). The
  /// constructor applies it to the owning Process; the process subsystem
  /// applies it to every spawned process's state record. The validator
  /// captures this FileSystem, which must outlive \p P's chdir calls.
  void installChdirValidator(Process &P);

  // Core API (paths may be relative; resolved against the process cwd).
  void open(const std::string &P, const std::string &Mode,
            ResultCb<FdPtr> Done);
  void stat(const std::string &P, ResultCb<Stats> Done);
  void rename(const std::string &From, const std::string &To,
              CompletionCb Done);
  void unlink(const std::string &P, CompletionCb Done);
  void mkdir(const std::string &P, CompletionCb Done);
  void rmdir(const std::string &P, CompletionCb Done);
  void readdir(const std::string &P,
               ResultCb<std::vector<std::string>> Done);

  // Derived convenience API, simulated over the core methods (§5.1).
  void readFile(const std::string &P, ResultCb<std::vector<uint8_t>> Done);
  void writeFile(const std::string &P, std::vector<uint8_t> Data,
                 CompletionCb Done);
  void appendFile(const std::string &P, std::vector<uint8_t> Data,
                  CompletionCb Done);
  /// Existence probe. Uses the standard ResultCb shape like every other
  /// fs completion (it used to be a bare std::function<void(bool)>); the
  /// result is always a success value — Node's fs.exists never errors,
  /// a failed stat just means false.
  void exists(const std::string &P, ResultCb<bool> Done);
  /// Recursive mkdir -p.
  void mkdirp(const std::string &P, CompletionCb Done);
  /// Copy within or across backends (used for EXDEV rename fallback).
  void copyFile(const std::string &From, const std::string &To,
                CompletionCb Done);
  /// rename, falling back to copy+unlink when crossing a mount (EXDEV).
  void move(const std::string &From, const std::string &To,
            CompletionCb Done);

  /// Statistics used by the Figure 6 harness. A registry-backed view
  /// since the obs subsystem landed: stats() assembles it from this
  /// instance's `fs.*` cells, field-for-field what the frontend used to
  /// keep privately.
  struct OpStats {
    uint64_t Operations = 0;
    uint64_t BytesRead = 0;
    uint64_t BytesWritten = 0;
    uint64_t UniqueFilesTouched = 0;
  };
  /// By-value snapshot; `const OpStats &S = Fs.stats();` callers keep
  /// working via temporary lifetime extension.
  OpStats stats() const;

private:
  std::string standardize(const std::string &P) const {
    return Proc.resolve(P);
  }
  void touch(const std::string &P) {
    if (Touched.insert(P).second)
      UniqueFilesC->inc();
  }

  /// Resolves this instance's registry cells under a claimed "fs" prefix.
  void bindCells();
  /// Mints an `fs.<op>` span, parented under whatever operation is
  /// current (a doppiod request, a suspended guest call).
  obs::SpanId beginOp(const char *Name);
  /// Closes an op span and records its latency in the fs.op_ns histogram.
  void endOp(obs::SpanId Op, uint64_t StartNs);

  browser::BrowserEnv &Env;
  Process &Proc;
  std::unique_ptr<FileSystemBackend> Root;
  obs::Counter *OpsC = nullptr;
  obs::Counter *BytesReadC = nullptr;
  obs::Counter *BytesWrittenC = nullptr;
  obs::Counter *UniqueFilesC = nullptr;
  obs::Histogram *OpNsH = nullptr;
  /// Files opened at least once; only their count is read.
  std::unordered_set<std::string> Touched;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_FS_H
