//===- doppio/backends/mountable.h - Unix-style mount tree -------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MountableFileSystem of §5.1: mounts multiple backends into one
/// Unix-style directory tree ("a convenient mechanism for transferring
/// files to different backends, or for implementing an in-memory temporary
/// file system that emulates /tmp"). It speaks only the standard backend
/// API to its children, so any current or future backend can be mounted.
/// Renames that cross a mount boundary fail with EXDEV; the frontend (like
/// Node) falls back to copy-and-delete.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_BACKENDS_MOUNTABLE_H
#define DOPPIO_DOPPIO_BACKENDS_MOUNTABLE_H

#include "doppio/fs_backend.h"

#include <memory>
#include <utility>

namespace doppio {
namespace rt {
namespace fs {

/// Routes operations across mounted backends by path prefix.
class MountableFileSystem : public FileSystemBackend {
public:
  /// \p Root handles every path not covered by a mount.
  explicit MountableFileSystem(std::unique_ptr<FileSystemBackend> Root)
      : Root(std::move(Root)) {}

  /// Mounts \p Backend at \p MountPoint (normalized absolute path, not
  /// "/"). Returns false if something is already mounted there.
  bool mount(const std::string &MountPoint,
             std::unique_ptr<FileSystemBackend> Backend);

  /// The backend that would serve \p Path and the path to hand it.
  std::pair<FileSystemBackend *, std::string>
  route(const std::string &Path) const;

  std::string backendName() const override { return "mountable"; }
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

private:
  /// A backend mounted at Point, e.g. "/tmp" -> InMemoryBackend. Parent
  /// and Name ("/" and "tmp") are split once, for readdir's splicing.
  struct Mount {
    std::string Point;
    std::string Parent;
    std::string Name;
    std::unique_ptr<FileSystemBackend> Backend;
  };

  std::unique_ptr<FileSystemBackend> Root;
  /// Longest mount point first, so nested mounts route correctly.
  std::vector<Mount> Mounts;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_BACKENDS_MOUNTABLE_H
