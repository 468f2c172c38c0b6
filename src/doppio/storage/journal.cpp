//===- doppio/storage/journal.cpp -----------------------------------------==//

#include "doppio/storage/journal.h"

#include "browser/wire.h"
#include "doppio/cont/snapshot.h"

#include <cstddef>
#include <iterator>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;

namespace {

namespace wire = browser::wire;

constexpr uint32_t JournalMagic = 0x444a4e4c; // 'DJNL'
constexpr uint32_t JournalVersion = 1;

/// FNV-1a 32-bit over a record body — detects a torn or bit-flipped tail.
uint32_t checksum(const uint8_t *Data, size_t Size) {
  uint32_t H = 2166136261u;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 16777619u;
  }
  return H;
}

/// Restarts \p Log as a bare header, keeping its capacity.
void writeHeader(std::vector<uint8_t> &Log) {
  Log.clear();
  wire::Writer W(std::move(Log));
  W.u32(JournalMagic);
  W.u32(JournalVersion);
  Log = W.take();
}

/// [u8 kind][body][u32 checksum of kind and body]. A Put's body is its
/// manifest entry (block.h), a Del's its u32-prefixed key, a Commit's its
/// u64 sequence number.
void encodeRecord(wire::Writer &W, const Journal::Record &R) {
  size_t Start = W.size();
  W.u8(static_cast<uint8_t>(R.K));
  switch (R.K) {
  case Journal::Record::Kind::Put:
    writeManifestEntry(W, R.Key, R.M);
    break;
  case Journal::Record::Kind::Del:
    W.str(R.Key);
    break;
  case Journal::Record::Kind::Commit:
    W.u64(R.Seq);
    break;
  }
  W.u32(checksum(W.data() + Start, W.size() - Start));
}

/// Reads the record at \p R's position out of \p B. True only for a
/// complete record with an intact checksum whose manifest, for a Put, is
/// as long as its blocks; \p R then stands just past the checksum.
bool parseRecord(wire::Reader &R, const std::vector<uint8_t> &B,
                 Journal::Record &Rec) {
  size_t Start = R.position();
  uint8_t Kind = R.u8();
  if (Kind < 1 || Kind > 3)
    return false;
  Rec = Journal::Record();
  Rec.K = static_cast<Journal::Record::Kind>(Kind);
  switch (Rec.K) {
  case Journal::Record::Kind::Put:
    readManifestEntry(R, Rec.Key, Rec.M);
    break;
  case Journal::Record::Kind::Del:
    Rec.Key = R.str();
    break;
  case Journal::Record::Kind::Commit:
    Rec.Seq = R.u64();
    break;
  }
  size_t End = R.position();
  uint32_t Want = R.u32();
  return R.ok() && checksum(B.data() + Start, End - Start) == Want;
}

} // namespace

void Journal::stagePut(const std::string &Key, Manifest M) {
  Record R;
  R.K = Record::Kind::Put;
  R.Key = Key;
  R.M = std::move(M);
  Staged.push_back(std::move(R));
}

void Journal::stageDel(const std::string &Key) {
  Record R;
  R.K = Record::Kind::Del;
  R.Key = Key;
  Staged.push_back(std::move(R));
}

const std::vector<uint8_t> &Journal::sealGroup(std::vector<Record> *Sealed) {
  std::vector<Record> Group;
  Group.swap(Staged);
  appendGroup(Group);
  if (Sealed)
    Sealed->insert(Sealed->end(), std::make_move_iterator(Group.begin()),
                   std::make_move_iterator(Group.end()));
  return Log;
}

void Journal::appendGroup(const std::vector<Record> &Rs) {
  if (Log.empty())
    writeHeader(Log);
  if (Rs.empty())
    return;
  wire::Writer W(std::move(Log));
  for (const Record &R : Rs)
    encodeRecord(W, R);
  Record Commit;
  Commit.K = Record::Kind::Commit;
  Commit.Seq = NextSeq++;
  encodeRecord(W, Commit);
  Log = W.take();
}

void Journal::truncate() { writeHeader(Log); }

Journal::Recovery Journal::recover(const std::vector<uint8_t> &Bytes,
                                   Directory &Dir) {
  Recovery Out;
  Staged.clear();
  writeHeader(Log);
  if (Bytes.empty()) { // Never journaled: a valid empty log.
    Out.HeaderOk = true;
    return Out;
  }
  snap::Reader R(Bytes, JournalMagic, JournalVersion);
  if (!R.ok()) {
    Out.TornTailBytes = Bytes.size();
    return Out;
  }
  Out.HeaderOk = true;

  size_t LastGoodEnd = R.position();
  std::vector<Record> Pending;
  Record Rec;
  while (parseRecord(R, Bytes, Rec)) {
    if (Rec.K != Record::Kind::Commit) {
      Pending.push_back(Rec);
      continue;
    }
    // An intact Commit seals the pending group: apply it.
    for (Record &P : Pending) {
      if (P.K == Record::Kind::Put)
        Dir.put(P.Key, std::move(P.M));
      else
        Dir.remove(P.Key);
      ++Out.RecordsApplied;
    }
    Pending.clear();
    ++Out.Commits;
    NextSeq = Rec.Seq + 1;
    LastGoodEnd = R.position();
  }
  Out.RecordsDiscarded = Pending.size();
  Out.TornTailBytes = Bytes.size() - LastGoodEnd;
  // The journal restarts from the consistent prefix.
  Log.assign(Bytes.begin(), Bytes.begin() + static_cast<ptrdiff_t>(LastGoodEnd));
  return Out;
}
