//===- browser/websocket.h - WebSockets & websockify -------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The browser's only socket facility (§5.3): outgoing full-duplex
/// connections that begin with an HTTP upgrade handshake and then exchange
/// framed messages. Incoming connections are impossible for security
/// reasons. Native socket servers expect plain TCP, so the paper relies on
/// Websockify: a server-side wrapper that accepts WebSocket connections and
/// pipes their payloads into an unmodified TCP service — reproduced here as
/// WebsockifyProxy. Browsers without native WebSockets (IE8) go through the
/// Flash-applet shim from Websockify's JS library, modelled as extra
/// connection latency.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BROWSER_WEBSOCKET_H
#define DOPPIO_BROWSER_WEBSOCKET_H

#include "browser/profile.h"
#include "browser/simnet.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace doppio {
namespace browser {

/// Minimal RFC6455-style frame codec (FIN-only frames; no fragmentation).
namespace wsframe {

enum class Opcode : uint8_t { Text = 0x1, Binary = 0x2, Close = 0x8 };

struct Frame {
  Opcode Op = Opcode::Binary;
  std::vector<uint8_t> Payload;
};

/// Serializes one frame. Client-to-server frames are masked with
/// \p MaskKey per the RFC; pass std::nullopt for unmasked (server) frames.
std::vector<uint8_t> encode(const Frame &F,
                            std::optional<uint32_t> MaskKey);

/// Frames advertising a longer payload are treated as stream corruption,
/// as doppiod's frame codec does.
constexpr uint64_t MaxPayloadBytes = 16u << 20;

/// Incremental decoder: feed bytes, pop complete frames. Total over any
/// input: a frame with an opcode outside Opcode or a length past
/// MaxPayloadBytes fails the stream, and a failed stream decodes nothing
/// more.
class Decoder {
public:
  void feed(const std::vector<uint8_t> &Data) {
    if (!Failed)
      Buffer.insert(Buffer.end(), Data.begin(), Data.end());
  }

  /// Extracts the next complete frame, or nullopt if more bytes are needed
  /// or the stream failed.
  std::optional<Frame> next();

  bool failed() const { return Failed; }

private:
  std::vector<uint8_t> Buffer;
  bool Failed = false;
};

} // namespace wsframe

/// Browser-side WebSocket. Performs the HTTP upgrade handshake over a
/// simulated TCP connection, then exchanges masked frames.
class WebSocketClient {
public:
  WebSocketClient(SimNet &Net, const Profile &P) : Net(Net), Prof(P) {}

  /// Opens a connection to \p Port. \p OnOpen fires with true once the
  /// 101 handshake response arrives, or false on refusal/bad handshake.
  void connect(uint16_t Port, std::function<void(bool)> OnOpen);

  void sendBinary(std::vector<uint8_t> Payload);
  void setOnMessage(std::function<void(std::vector<uint8_t>)> H) {
    OnMessage = std::move(H);
  }
  void setOnClose(std::function<void()> H) { OnClose = std::move(H); }
  void close();

  bool isOpen() const { return HandshakeDone && Conn && Conn->isOpen(); }
  /// True if this connection went through the Flash fallback shim.
  bool usedFlashShim() const { return UsedFlashShim; }

private:
  void handleData(const std::vector<uint8_t> &Data);

  SimNet &Net;
  const Profile &Prof;
  TcpConnection *Conn = nullptr;
  bool HandshakeDone = false;
  bool UsedFlashShim = false;
  uint32_t NextMask = 0x9ACF1D2B; // Deterministic mask sequence.
  wsframe::Decoder Decode;
  std::function<void(bool)> PendingOnOpen;
  std::function<void(std::vector<uint8_t>)> OnMessage;
  std::function<void()> OnClose;
};

/// Server-side WebSocket endpoint: accepts the upgrade handshake and
/// exchanges unmasked frames. Used by WebsockifyProxy and by tests.
/// The close handler fires exactly once, whether the connection was closed
/// locally, by a Close frame, or by the peer going away.
class WebSocketServerConn {
public:
  explicit WebSocketServerConn(TcpConnection &Conn);

  void sendBinary(std::vector<uint8_t> Payload);
  void setOnMessage(std::function<void(std::vector<uint8_t>)> H) {
    OnMessage = std::move(H);
  }
  void setOnClose(std::function<void()> H) { OnClose = std::move(H); }
  void close() {
    Conn.close();
    notifyClose();
  }

private:
  void handleData(const std::vector<uint8_t> &Data);
  void notifyClose();

  TcpConnection &Conn;
  bool HandshakeDone = false;
  bool CloseNotified = false;
  std::string HandshakeBuffer;
  wsframe::Decoder Decode;
  std::function<void(std::vector<uint8_t>)> OnMessage;
  std::function<void()> OnClose;
};

/// Websockify (§5.3): listens for WebSocket connections on \p WsPort and
/// pipes their payloads into a plain TCP connection to \p TcpPort, letting
/// unmodified socket servers talk to browsers.
class WebsockifyProxy {
public:
  WebsockifyProxy(SimNet &Net, uint16_t WsPort, uint16_t TcpPort);

  uint64_t bridgedConnections() const { return Bridged; }
  /// Bridges still alive; finished bridges are dropped so a long-running
  /// proxy does not grow without bound.
  size_t activeBridges() const { return Bridges.size(); }

private:
  SimNet &Net;
  uint16_t TcpPort;
  uint64_t Bridged = 0;
  uint64_t NextBridgeId = 0;
  std::map<uint64_t, std::unique_ptr<WebSocketServerConn>> Bridges;
};

} // namespace browser
} // namespace doppio

#endif // DOPPIO_BROWSER_WEBSOCKET_H
