//===- doppio/cluster/control.h - Cluster control-plane codec ----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The balancer <-> shard control-plane messages that ride
/// Fabric::sendControl: one kind byte, then a kind-specific payload. Every
/// payload is written with wire::Writer and read with the bounds-checked
/// wire::Reader (browser/wire.h, DESIGN.md §20): a fixed-size payload is
/// refused unless the reader ends exactly at its end (atEnd()), and a
/// trailing blob or error text is the reader's rest(). Control mail
/// shares the data plane's FIFO and stamping guarantees, which the drain
/// protocol depends on: a Drain command sent *after* the balancer closed
/// its links to a shard arrives after those closes, so the shard only ever
/// drains idle connections.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CLUSTER_CONTROL_H
#define DOPPIO_DOPPIO_CLUSTER_CONTROL_H

#include "browser/wire.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace cluster {
namespace control {

enum class Kind : uint8_t {
  /// Balancer -> shard: gracefully drain the doppiod server. Sent only
  /// once every balancer link to the shard is closed.
  Drain = 1,
  /// Shard -> balancer: drain finished; payload is the shard's final
  /// ShardSnapshot.
  DrainDone = 2,
  /// Shard -> balancer: periodic stat push; payload is a ShardSnapshot.
  Snapshot = 3,
  /// Balancer -> shard: abrupt removal. The balancer has already
  /// synthesized error responses and re-routed; the shard just tears
  /// down.
  Kill = 4,
  /// Balancer -> source shard: checkpoint process <pid> and ship it to
  /// the destination shard (DESIGN.md §16). Payload: [u64 request id]
  /// [u32 dst shard id][u32 dst tab][u64 pid]. The shard retries on its
  /// own timer until the program is quiescent.
  Migrate = 5,
  /// Source shard -> destination shard: the frozen process. Payload:
  /// [u64 request id][u32 src shard id][u32 dst shard id]
  /// [u64 capture us][checkpoint blob...].
  MigrateBlob = 6,
  /// Either shard -> balancer: migration finished (or failed). Payload:
  /// [u64 request id][u32 src shard id][u32 dst shard id][u8 ok]
  /// [u64 new pid][u64 capture us][u64 restore us][u64 blob bytes]
  /// [error text...].
  MigrateDone = 7,
};

inline std::vector<uint8_t> encode(Kind K,
                                   const std::vector<uint8_t> &Payload) {
  browser::wire::Writer W;
  W.u8(static_cast<uint8_t>(K));
  W.raw(Payload);
  return W.take();
}

struct Message {
  Kind K;
  std::vector<uint8_t> Payload;
};

inline std::optional<Message> decode(const std::vector<uint8_t> &B) {
  browser::wire::Reader R(B);
  uint8_t K = R.u8();
  if (!R.ok() || K < 1 || K > 7)
    return std::nullopt;
  return Message{static_cast<Kind>(K), R.rest()};
}

//===----------------------------------------------------------------------===//
// Migration payloads (DESIGN.md §16)
//===----------------------------------------------------------------------===//

/// Kind::Migrate payload.
struct MigrateCmd {
  uint64_t RequestId = 0;
  uint32_t DstShard = 0;
  uint32_t DstTab = 0;
  int64_t Pid = 0;

  std::vector<uint8_t> encode() const {
    browser::wire::Writer W;
    W.u64(RequestId);
    W.u32(DstShard);
    W.u32(DstTab);
    W.i64(Pid);
    return W.take();
  }
  static std::optional<MigrateCmd> decode(const std::vector<uint8_t> &B) {
    browser::wire::Reader R(B);
    MigrateCmd M;
    M.RequestId = R.u64();
    M.DstShard = R.u32();
    M.DstTab = R.u32();
    M.Pid = R.i64();
    if (!R.atEnd())
      return std::nullopt;
    return M;
  }
};

/// Kind::MigrateBlob payload: header + the opaque checkpoint blob.
struct MigrateBlobMsg {
  uint64_t RequestId = 0;
  uint32_t SrcShard = 0;
  uint32_t DstShard = 0;
  uint64_t CaptureUs = 0;
  std::vector<uint8_t> Blob;

  std::vector<uint8_t> encode() const {
    browser::wire::Writer W;
    W.u64(RequestId);
    W.u32(SrcShard);
    W.u32(DstShard);
    W.u64(CaptureUs);
    W.raw(Blob);
    return W.take();
  }
  static std::optional<MigrateBlobMsg>
  decode(const std::vector<uint8_t> &B) {
    browser::wire::Reader R(B);
    MigrateBlobMsg M;
    M.RequestId = R.u64();
    M.SrcShard = R.u32();
    M.DstShard = R.u32();
    M.CaptureUs = R.u64();
    M.Blob = R.rest();
    if (!R.ok())
      return std::nullopt;
    return M;
  }
};

/// Kind::MigrateDone payload.
struct MigrateDoneMsg {
  uint64_t RequestId = 0;
  uint32_t SrcShard = 0;
  uint32_t DstShard = 0;
  bool Ok = false;
  int64_t NewPid = 0;
  uint64_t CaptureUs = 0;
  uint64_t RestoreUs = 0;
  uint64_t BlobBytes = 0;
  std::string Error;

  std::vector<uint8_t> encode() const {
    browser::wire::Writer W;
    W.u64(RequestId);
    W.u32(SrcShard);
    W.u32(DstShard);
    W.u8(Ok ? 1 : 0);
    W.i64(NewPid);
    W.u64(CaptureUs);
    W.u64(RestoreUs);
    W.u64(BlobBytes);
    W.raw(Error);
    return W.take();
  }
  static std::optional<MigrateDoneMsg>
  decode(const std::vector<uint8_t> &B) {
    browser::wire::Reader R(B);
    MigrateDoneMsg M;
    M.RequestId = R.u64();
    M.SrcShard = R.u32();
    M.DstShard = R.u32();
    M.Ok = R.u8() == 1;
    M.NewPid = R.i64();
    M.CaptureUs = R.u64();
    M.RestoreUs = R.u64();
    M.BlobBytes = R.u64();
    M.Error = R.str(R.remaining());
    if (!R.ok())
      return std::nullopt;
    return M;
  }
};

} // namespace control
} // namespace cluster
} // namespace doppio

#endif // DOPPIO_DOPPIO_CLUSTER_CONTROL_H
