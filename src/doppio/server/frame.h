//===- doppio/server/frame.h - doppiod wire protocol --------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The doppiod wire protocol, shared by the server (doppio/server/server.h)
/// and its clients (doppio/server/client.h). A TCP byte stream carries
/// *frames*: a 4-byte big-endian payload length followed by the payload.
/// Frames in turn carry requests and responses:
///
///   request payload  = [u8 handler-name length][handler name][body]
///   response payload = [u8 status][body]
///
/// The codec is incremental — feed arbitrary byte chunks, pop complete
/// frames — because SimNet delivers whatever chunking the sender used and
/// the websockify bridge may coalesce or split writes. Byte-order packing
/// comes from browser/wire.h, the same helpers the RFC6455 WebSocket codec
/// uses.
///
/// A payload is copied once per hop that has to own it: the sender builds
/// the whole frame in one allocation (encodeResponseFrame), the receiving
/// Decoder adopts the delivered chunk as its buffer when nothing else is
/// buffered (and appends it otherwise), and the request/response decoders
/// parse straight out of a view of that buffer (Decoder::nextView).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SERVER_FRAME_H
#define DOPPIO_DOPPIO_SERVER_FRAME_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace doppio {
namespace rt {
namespace server {
namespace frame {

/// Bytes of the length prefix on every frame.
constexpr size_t HeaderBytes = 4;

/// Frames advertising more than this are treated as stream corruption.
constexpr uint32_t MaxPayloadBytes = 16u << 20;

/// Read-only bytes owned by someone else: a payload inside a Decoder's
/// buffer, or a caller's vector.
using ByteView = std::span<const uint8_t>;

/// Wraps \p Payload in a length-prefixed frame.
std::vector<uint8_t> encode(ByteView Payload);

/// Incremental frame decoder: feed byte chunks, pop complete payloads.
/// Consumed frames advance a read cursor; the buffer is compacted on the
/// next feed(), so popping a frame never shifts the bytes behind it.
class Decoder {
public:
  /// Appends \p Data to the buffered stream.
  void feed(const std::vector<uint8_t> &Data);

  /// Same, but a chunk that arrives while nothing is buffered becomes the
  /// buffer itself instead of being copied into it. Receivers that own
  /// the delivered chunk (SimNet hands it over) feed through this.
  void feed(std::vector<uint8_t> &&Data);

  /// Extracts the next complete frame payload as a view into the
  /// decoder's buffer, valid until the next feed(); nullopt if more bytes
  /// are needed. Returns nullopt forever once the stream is corrupted.
  std::optional<ByteView> nextView();

  /// nextView(), copied out for callers that keep the payload.
  std::optional<std::vector<uint8_t>> next();

  /// True once an oversized length prefix was seen; the connection should
  /// be dropped.
  bool corrupted() const { return Corrupted; }

  /// Bytes fed but not yet handed out.
  size_t bufferedBytes() const { return Buffer.size() - Cursor; }

private:
  std::vector<uint8_t> Buffer;
  size_t Cursor = 0;
  bool Corrupted = false;
};

/// Response status byte.
enum class Status : uint8_t {
  Ok = 0,
  BadRequest = 1, // Malformed request payload.
  NoHandler = 2,  // No handler registered under that name.
  Error = 3,      // Handler failed; body carries the errno-style message.
};

const char *statusName(Status S);

/// A decoded request: which handler, and its argument bytes.
struct Request {
  std::string Handler;
  std::vector<uint8_t> Body;
};

/// A decoded response.
struct Response {
  Status S = Status::Ok;
  std::vector<uint8_t> Body;

  std::string text() const { return std::string(Body.begin(), Body.end()); }
};

/// Handler names are length-prefixed with one byte.
constexpr size_t MaxHandlerNameBytes = 255;

/// The decoders are total: a malformed payload yields nullopt.
std::vector<uint8_t> encodeRequest(const Request &R);
std::optional<Request> decodeRequest(ByteView Payload);

std::vector<uint8_t> encodeResponse(const Response &R);
std::optional<Response> decodeResponse(ByteView Payload);

/// encode(encodeResponse({S, Body})) built in one allocation: the
/// complete `[u32 len][status][body]` frame.
std::vector<uint8_t> encodeResponseFrame(Status S, ByteView Body);

} // namespace frame
} // namespace server
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SERVER_FRAME_H
