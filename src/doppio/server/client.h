//===- doppio/server/client.h - doppiod frame-protocol client -----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A client speaking the doppiod frame protocol over a raw SimNet
/// connection — the "native endpoint" view of the server, used by the
/// traffic generator and tests. Requests pipeline: responses arrive in
/// request order, so completions pair up FIFO. Browser-side guests instead
/// reach doppiod through the §5.3 client stack (DoppioSocket -> WebSocket
/// -> websockify -> TCP), framing their payloads with the same codec; the
/// server cannot tell the difference.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SERVER_CLIENT_H
#define DOPPIO_DOPPIO_SERVER_CLIENT_H

#include "browser/simnet.h"
#include "doppio/server/frame.h"

#include <deque>
#include <functional>

namespace doppio {
namespace rt {
namespace server {

/// A doppiod client over SimNet.
class FrameClient {
public:
  explicit FrameClient(browser::SimNet &Net) : Net(Net) {}

  FrameClient(const FrameClient &) = delete;
  FrameClient &operator=(const FrameClient &) = delete;

  using ResponseCb = std::function<void(frame::Response)>;

  /// Connects to \p Port; \p Done receives false on refusal.
  void connect(uint16_t Port, std::function<void(bool)> Done);

  /// Sends one request; \p Done fires with the response, or with
  /// Status::Error if the connection dies first.
  void request(const std::string &Handler, std::vector<uint8_t> Body,
               ResponseCb Done);

  void close();

  bool isOpen() const { return Conn != nullptr; }

  /// Fires when the server (or the fabric) closes the connection.
  void setOnClose(std::function<void()> H) { OnClose = std::move(H); }

  uint64_t bytesReceived() const { return BytesReceived; }

private:
  void onData(std::vector<uint8_t> &&Data);
  void failPending(const char *Why);

  browser::SimNet &Net;
  browser::TcpConnection *Conn = nullptr;
  frame::Decoder Decode;
  std::deque<ResponseCb> Pending;
  std::function<void()> OnClose;
  uint64_t BytesReceived = 0;
};

} // namespace server
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SERVER_CLIENT_H
