//===- doppio/path.h - Node path module emulation ----------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Doppio emulates the Node JS `path` module (§5.1): POSIX-style path
/// string manipulation used by the file system frontend to standardize
/// arguments before they reach a backend.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_PATH_H
#define DOPPIO_DOPPIO_PATH_H

#include <string>
#include <string_view>
#include <vector>

namespace doppio {
namespace rt {
namespace path {

/// True if \p P starts with '/'.
bool isAbsolute(std::string_view P);

/// True if \p P is absolute and already normal: no empty, "." or ".."
/// segment and no trailing slash ("/" itself is normal). One scan, no
/// allocation; normalize returns such a path unchanged.
bool isNormalAbsolute(std::string_view P);

/// Collapses "//", "." and ".." segments. "" normalizes to ".".
std::string normalize(std::string_view P);

/// Joins segments with '/' and normalizes the result.
std::string join(std::initializer_list<std::string_view> Parts);
std::string join2(std::string_view A, std::string_view B);

/// Resolves \p P against \p Cwd into a normalized absolute path.
std::string resolve(std::string_view Cwd, std::string_view P);

/// Everything before the final segment ("/a/b/c" -> "/a/b"). The dirname
/// of "/" is "/" and of a bare name is ".".
std::string dirname(std::string_view P);

/// dirname of an already normal path, as a view into \p Normal.
std::string_view parentOf(std::string_view Normal);

/// The final segment ("/a/b/c.txt" -> "c.txt").
std::string basename(std::string_view P);

/// The extension including the dot ("c.txt" -> ".txt", "c" -> "").
std::string extname(std::string_view P);

/// Splits a normalized absolute path into segments ("/a/b" -> {"a","b"}).
std::vector<std::string> split(std::string_view P);

} // namespace path
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_PATH_H
