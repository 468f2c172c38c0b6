//===- doppio/storage/journal.h - Log-structured intent journal --*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md and DESIGN.md §19.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-consistency half of the storage hierarchy. Browser key/value
/// mechanisms give per-key atomicity and nothing more; one logical file
/// operation through KeyValueBackend is several puts (data, index), so a
/// tab killed mid-operation leaves the persisted tree torn. The journal
/// closes that hole the way a log-structured file system does:
///
///  - every logical mutation is an appended *intent record* (Put = key +
///    block manifest, Del = key) staged into an open group;
///  - a group is sealed by a Commit record and the whole log image is
///    persisted with a single (atomic) slow-store put — the durability
///    point ("group commit on the virtual clock": the cached store seals
///    on a kernel flush timer, not per operation);
///  - recovery replays complete, checksummed records up to the last
///    intact Commit onto the checkpointed directory and discards the
///    torn tail, so any power-cut byte offset recovers to a
///    *prefix-consistent* tree: exactly the state after some prefix of
///    the committed groups, never a blend.
///
/// Block payloads never ride in the log: blocks are content-addressed and
/// written to the slow store before the commit that references them, so a
/// replayed manifest's blocks are always present (block.h).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_STORAGE_JOURNAL_H
#define DOPPIO_DOPPIO_STORAGE_JOURNAL_H

#include "doppio/storage/block.h"

#include <cstdint>
#include <string>
#include <vector>

namespace doppio {
namespace rt {
namespace storage {

class Journal {
public:
  struct Record {
    enum class Kind : uint8_t { Put = 1, Del = 2, Commit = 3 };
    Kind K = Kind::Put;
    std::string Key;  // Put / Del.
    Manifest M;       // Put.
    uint64_t Seq = 0; // Commit.
  };

  /// Stages an intent record into the open group (in-memory; not yet part
  /// of the persisted image).
  void stagePut(const std::string &Key, Manifest M);
  void stageDel(const std::string &Key);

  size_t stagedRecords() const { return Staged.size(); }
  const std::vector<Record> &staged() const { return Staged; }

  /// Seals the open group: appends the staged records plus a Commit
  /// marker to the log image, then moves the records onto the end of
  /// \p Sealed when one is given. The returned bytes are what must reach
  /// the slow store for the group to become durable.
  const std::vector<uint8_t> &sealGroup(std::vector<Record> *Sealed = nullptr);

  /// Re-seals an already-sealed-elsewhere group into the log image (after
  /// a rescue truncation dropped it); a no-op for an empty \p Rs.
  void appendGroup(const std::vector<Record> &Rs);

  /// The persisted log image (header + committed records).
  const std::vector<uint8_t> &bytes() const { return Log; }
  size_t depthBytes() const { return Log.size(); }
  uint64_t commitsSealed() const { return NextSeq; }

  /// Checkpoint truncation: the directory snapshot now carries every
  /// committed record, so the log restarts empty (staged records, if any,
  /// survive for the next seal).
  void truncate();

  struct Recovery {
    bool HeaderOk = false;
    /// Complete commit groups replayed onto the directory.
    uint64_t Commits = 0;
    /// Put/Del records applied (those inside replayed groups).
    uint64_t RecordsApplied = 0;
    /// Records parsed but discarded because no Commit sealed them.
    uint64_t RecordsDiscarded = 0;
    /// Bytes past the last intact Commit (the torn tail).
    uint64_t TornTailBytes = 0;
  };

  /// Replays \p Bytes onto \p Dir: applies every record of every complete
  /// commit group, stops at the first torn or corrupt record, and reloads
  /// this journal's image to exactly the replayed prefix (future appends
  /// extend the consistent prefix, not the torn tail). An empty \p Bytes
  /// is a valid empty journal.
  Recovery recover(const std::vector<uint8_t> &Bytes, Directory &Dir);

private:
  std::vector<Record> Staged;
  std::vector<uint8_t> Log;
  uint64_t NextSeq = 0;
};

} // namespace storage
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_STORAGE_JOURNAL_H
