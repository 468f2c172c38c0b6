//===- doppio/backends/mountable.cpp --------------------------------------==//

#include "doppio/backends/mountable.h"

#include "doppio/path.h"

#include <algorithm>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

bool MountableFileSystem::mount(const std::string &MountPoint,
                                std::unique_ptr<FileSystemBackend> Backend) {
  std::string Normalized = path::normalize(MountPoint);
  if (Normalized == "/" || !path::isAbsolute(Normalized))
    return false;
  for (const Mount &M : Mounts)
    if (M.Point == Normalized)
      return false;
  Mounts.push_back({Normalized, path::dirname(Normalized),
                    path::basename(Normalized), std::move(Backend)});
  std::sort(Mounts.begin(), Mounts.end(), [](const Mount &A, const Mount &B) {
    return A.Point.size() > B.Point.size();
  });
  return true;
}

std::pair<FileSystemBackend *, std::string>
MountableFileSystem::route(const std::string &Path) const {
  for (const Mount &M : Mounts) {
    if (Path.compare(0, M.Point.size(), M.Point) != 0)
      continue;
    if (Path.size() == M.Point.size())
      return {M.Backend.get(), "/"};
    if (Path[M.Point.size()] == '/')
      return {M.Backend.get(), Path.substr(M.Point.size())};
  }
  return {Root.get(), Path};
}

void MountableFileSystem::stat(const std::string &Path,
                               ResultCb<Stats> Done) {
  auto [Backend, Sub] = route(Path);
  Backend->stat(Sub, std::move(Done));
}

void MountableFileSystem::open(const std::string &Path, OpenFlags Flags,
                               ResultCb<FdPtr> Done) {
  auto [Backend, Sub] = route(Path);
  Backend->open(Sub, Flags, std::move(Done));
}

void MountableFileSystem::unlink(const std::string &Path,
                                 CompletionCb Done) {
  auto [Backend, Sub] = route(Path);
  Backend->unlink(Sub, std::move(Done));
}

void MountableFileSystem::rmdir(const std::string &Path, CompletionCb Done) {
  auto [Backend, Sub] = route(Path);
  if (Sub == "/") {
    // The path is a mount point; removing it would orphan the mount.
    Done(ApiError(Errno::Perm, Path));
    return;
  }
  Backend->rmdir(Sub, std::move(Done));
}

void MountableFileSystem::mkdir(const std::string &Path, CompletionCb Done) {
  auto [Backend, Sub] = route(Path);
  if (Sub == "/") {
    Done(ApiError(Errno::Exists, Path));
    return;
  }
  Backend->mkdir(Sub, std::move(Done));
}

void MountableFileSystem::readdir(const std::string &Path,
                                  ResultCb<std::vector<std::string>> Done) {
  auto [Backend, Sub] = route(Path);
  Backend->readdir(
      Sub, [this, Path,
            Done = std::move(Done)](ErrorOr<std::vector<std::string>> R) {
        // Splice in the names of mount points that live directly under the
        // queried directory, so they are visible in listings.
        std::vector<std::string> Names;
        if (R)
          Names = std::move(*R);
        bool AddedMount = false;
        for (const Mount &M : Mounts) {
          if (M.Parent != Path)
            continue;
          if (std::find(Names.begin(), Names.end(), M.Name) == Names.end()) {
            Names.push_back(M.Name);
            AddedMount = true;
          }
        }
        if (!R && !AddedMount) {
          Done(R.error());
          return;
        }
        std::sort(Names.begin(), Names.end());
        Done(std::move(Names));
      });
}

void MountableFileSystem::rename(const std::string &OldPath,
                                 const std::string &NewPath,
                                 CompletionCb Done) {
  auto [OldBackend, OldSub] = route(OldPath);
  auto [NewBackend, NewSub] = route(NewPath);
  if (OldBackend != NewBackend) {
    // Crossing a mount boundary: no backend can move the data itself.
    Done(ApiError(Errno::CrossDev, OldPath + " -> " + NewPath));
    return;
  }
  OldBackend->rename(OldSub, NewSub, std::move(Done));
}
