//===- doppio/fs_types.h - File system core types (§5.1) ---------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of the Doppio file system: stat results, open flags,
/// and the object file descriptor. "Unlike Unix, DOPPIO uses objects to
/// represent file descriptors" (§5.1) — the descriptor object carries the
/// file-manipulation logic (syncing and prefetching strategy) shared by
/// backends.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_FS_TYPES_H
#define DOPPIO_DOPPIO_FS_TYPES_H

#include "doppio/buffer.h"
#include "doppio/errors.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace rt {
namespace fs {

enum class FileType { File, Directory };

/// stat(2) result subset.
struct Stats {
  FileType Type = FileType::File;
  uint64_t SizeBytes = 0;
  uint64_t MtimeNs = 0;

  bool isDirectory() const { return Type == FileType::Directory; }
  bool isFile() const { return Type == FileType::File; }
};

/// Parsed Node-style open flags ("r", "r+", "w", "wx", "w+", "a", "a+").
struct OpenFlags {
  bool Read = false;
  bool Write = false;
  bool Append = false;
  bool Create = false;
  bool Truncate = false;
  bool Exclusive = false;

  /// Parses a flag string; nullopt if the string is invalid.
  static std::optional<OpenFlags> parse(const std::string &Mode);

  static OpenFlags readOnly() { return *parse("r"); }
  static OpenFlags writeOnly() { return *parse("w"); }
  static OpenFlags readWrite() { return *parse("r+"); }
  static OpenFlags appendOnly() { return *parse("a"); }
};

/// Completion of an operation with no payload.
using CompletionCb = std::function<void(std::optional<ApiError>)>;

template <typename T> using ResultCb = std::function<void(ErrorOr<T>)>;

class FileDescriptor;
using FdPtr = std::shared_ptr<FileDescriptor>;

/// The object file descriptor (§5.1).
class FileDescriptor {
public:
  virtual ~FileDescriptor();

  /// Reads up to \p Len bytes at file position \p Pos into \p Dst at
  /// \p DstOff. Yields the number of bytes read (0 at EOF).
  virtual void read(Buffer &Dst, size_t DstOff, size_t Len, uint64_t Pos,
                    ResultCb<size_t> Done) = 0;

  /// Writes \p Len bytes from \p Src at \p SrcOff to file position \p Pos,
  /// growing the file as needed. Yields bytes written.
  virtual void write(const Buffer &Src, size_t SrcOff, size_t Len,
                     uint64_t Pos, ResultCb<size_t> Done) = 0;

  virtual void stat(ResultCb<Stats> Done) = 0;

  /// Pushes buffered contents to the backing store.
  virtual void sync(CompletionCb Done) = 0;

  /// Syncs (NFS-style sync-on-close, §5.1) and invalidates the descriptor.
  virtual void close(CompletionCb Done) = 0;

  /// stat, a read of the whole file into a fresh buffer, then close, as
  /// one call: yields the contents, or the error the first failing step
  /// yields (a failed read leaves the descriptor open, as it does there).
  /// The virtual cost is that of the three steps, the destination buffer
  /// included.
  virtual void readAllAndClose(ResultCb<std::vector<uint8_t>> Done) = 0;

  /// Truncates or extends to \p Size. Default: ENOTSUP.
  virtual void truncate(uint64_t Size, CompletionCb Done);

  virtual const std::string &path() const = 0;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_FS_TYPES_H
