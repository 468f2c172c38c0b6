//===- browser/websocket.cpp ----------------------------------------------==//

#include "browser/websocket.h"

#include "browser/wire.h"

#include <cassert>

using namespace doppio;
using namespace doppio::browser;
using namespace doppio::browser::wsframe;

std::vector<uint8_t> wsframe::encode(const Frame &F,
                                     std::optional<uint32_t> MaskKey) {
  std::vector<uint8_t> Out;
  Out.reserve(F.Payload.size() + 14);
  Out.push_back(0x80 | static_cast<uint8_t>(F.Op)); // FIN + opcode.
  uint8_t MaskBit = MaskKey ? 0x80 : 0x00;
  size_t Len = F.Payload.size();
  if (Len < 126) {
    Out.push_back(MaskBit | static_cast<uint8_t>(Len));
  } else if (Len < 65536) {
    Out.push_back(MaskBit | 126);
    wire::putU16(Out, static_cast<uint16_t>(Len));
  } else {
    Out.push_back(MaskBit | 127);
    wire::putU64(Out, Len);
  }
  uint8_t Key[4] = {0, 0, 0, 0};
  if (MaskKey) {
    uint32_t K = *MaskKey;
    for (int I = 0; I != 4; ++I)
      Key[I] = static_cast<uint8_t>(K >> (24 - 8 * I));
    Out.insert(Out.end(), Key, Key + 4);
  }
  for (size_t I = 0; I != Len; ++I)
    Out.push_back(MaskKey ? (F.Payload[I] ^ Key[I % 4]) : F.Payload[I]);
  return Out;
}

static bool isOpcode(uint8_t Op) {
  return Op == static_cast<uint8_t>(Opcode::Text) ||
         Op == static_cast<uint8_t>(Opcode::Binary) ||
         Op == static_cast<uint8_t>(Opcode::Close);
}

std::optional<Frame> Decoder::next() {
  if (Failed)
    return std::nullopt;
  // A short read leaves R failed: the frame is incomplete, so wait.
  wire::Reader R(Buffer);
  uint8_t Op = R.u8() & 0x0F;
  uint8_t LenByte = R.u8();
  uint64_t Len = LenByte & 0x7F;
  if (Len == 126)
    Len = R.u16();
  else if (Len == 127)
    Len = R.u64();
  if (R.ok() && (!isOpcode(Op) || Len > MaxPayloadBytes)) {
    Failed = true;
    Buffer = {};
    return std::nullopt;
  }
  std::vector<uint8_t> Key = R.bytes((LenByte & 0x80) ? 4 : 0);
  std::vector<uint8_t> Payload = R.bytes(Len); // Allocates once complete.
  if (!R.ok())
    return std::nullopt;
  if (!Key.empty())
    for (size_t I = 0; I != Payload.size(); ++I)
      Payload[I] ^= Key[I % 4];
  Buffer.erase(Buffer.begin(),
               Buffer.begin() + static_cast<std::ptrdiff_t>(R.position()));
  return Frame{static_cast<Opcode>(Op), std::move(Payload)};
}

static std::vector<uint8_t> toBytes(const std::string &Text) {
  return std::vector<uint8_t>(Text.begin(), Text.end());
}

void WebSocketClient::connect(uint16_t Port,
                              std::function<void(bool)> OnOpen) {
  assert(!Conn && "WebSocketClient is single-use");
  PendingOnOpen = std::move(OnOpen);
  uint64_t ShimLatency = 0;
  if (!Prof.HasWebSockets) {
    // Websockify's JS library proxies through a Flash applet (§5.3).
    UsedFlashShim = true;
    ShimLatency = Prof.Costs.FlashShimLatencyNs;
  }
  Net.loop().postAfter(
      kernel::Lane::IoCompletion,
      [this, Port] {
        Net.connect(Port, [this](TcpConnection *C) {
          if (!C) {
            if (PendingOnOpen)
              PendingOnOpen(false);
            return;
          }
          Conn = C;
          Conn->setOnData(
              [this](const std::vector<uint8_t> &Data) { handleData(Data); });
          Conn->setOnClose([this] {
            // Drop the pointer first: the connection may be reaped once
            // both sides are closed.
            Conn = nullptr;
            HandshakeDone = false;
            if (OnClose)
              OnClose();
          });
          Conn->send(toBytes("GET / HTTP/1.1\r\n"
                             "Upgrade: websocket\r\n"
                             "Connection: Upgrade\r\n"
                             "Sec-WebSocket-Key: ZG9wcGlvLXJlcHJv\r\n"
                             "\r\n"));
        });
      },
      ShimLatency);
}

void WebSocketClient::handleData(const std::vector<uint8_t> &Data) {
  if (!HandshakeDone) {
    // Expect the 101 response terminated by a blank line.
    std::string Text(Data.begin(), Data.end());
    bool Ok = Text.find("101") != std::string::npos &&
              Text.find("\r\n\r\n") != std::string::npos;
    HandshakeDone = Ok;
    if (PendingOnOpen) {
      auto CB = std::move(PendingOnOpen);
      PendingOnOpen = nullptr;
      CB(Ok);
    }
    if (!Ok && Conn) {
      Conn->close();
      Conn = nullptr;
    }
    return;
  }
  Decode.feed(Data);
  while (auto F = Decode.next()) {
    if (F->Op == Opcode::Close) {
      close();
      if (OnClose)
        OnClose();
      return;
    }
    if (OnMessage)
      OnMessage(std::move(F->Payload));
  }
  // A malformed stream fails the connection (RFC 6455 §7.1.7).
  if (Decode.failed()) {
    close();
    if (OnClose)
      OnClose();
  }
}

void WebSocketClient::sendBinary(std::vector<uint8_t> Payload) {
  if (!isOpen())
    return;
  Frame F;
  F.Op = Opcode::Binary;
  F.Payload = std::move(Payload);
  NextMask = NextMask * 1664525u + 1013904223u; // Deterministic LCG.
  Conn->send(encode(F, NextMask));
}

void WebSocketClient::close() {
  if (Conn && Conn->isOpen()) {
    Frame F;
    F.Op = Opcode::Close;
    Conn->send(encode(F, NextMask));
    Conn->close();
  }
  Conn = nullptr;
  HandshakeDone = false;
}

WebSocketServerConn::WebSocketServerConn(TcpConnection &Conn) : Conn(Conn) {
  Conn.setOnData(
      [this](const std::vector<uint8_t> &Data) { handleData(Data); });
  Conn.setOnClose([this] { notifyClose(); });
}

void WebSocketServerConn::notifyClose() {
  if (CloseNotified)
    return;
  CloseNotified = true;
  if (OnClose)
    OnClose();
}

void WebSocketServerConn::handleData(const std::vector<uint8_t> &Data) {
  if (!HandshakeDone) {
    HandshakeBuffer.append(Data.begin(), Data.end());
    size_t End = HandshakeBuffer.find("\r\n\r\n");
    if (End == std::string::npos)
      return;
    bool IsUpgrade = HandshakeBuffer.find("Upgrade: websocket") !=
                     std::string::npos;
    if (!IsUpgrade) {
      close();
      return;
    }
    HandshakeDone = true;
    Conn.send(toBytes("HTTP/1.1 101 Switching Protocols\r\n"
                      "Upgrade: websocket\r\n"
                      "Connection: Upgrade\r\n"
                      "\r\n"));
    // Bytes after the handshake (rare in this simulation) would be frames.
    std::string Rest = HandshakeBuffer.substr(End + 4);
    HandshakeBuffer.clear();
    if (!Rest.empty())
      handleData(std::vector<uint8_t>(Rest.begin(), Rest.end()));
    return;
  }
  Decode.feed(Data);
  while (auto F = Decode.next()) {
    if (F->Op == Opcode::Close) {
      close();
      return;
    }
    if (OnMessage)
      OnMessage(std::move(F->Payload));
  }
  if (Decode.failed())
    close();
}

void WebSocketServerConn::sendBinary(std::vector<uint8_t> Payload) {
  Frame F;
  F.Op = Opcode::Binary;
  F.Payload = std::move(Payload);
  Conn.send(encode(F, std::nullopt));
}

WebsockifyProxy::WebsockifyProxy(SimNet &Net, uint16_t WsPort,
                                 uint16_t TcpPort)
    : Net(Net), TcpPort(TcpPort) {
  Net.listen(WsPort, [this](TcpConnection &WsSide) {
    uint64_t Id = NextBridgeId++;
    auto Server = std::make_unique<WebSocketServerConn>(WsSide);
    WebSocketServerConn *Ws = Server.get();
    Bridges.emplace(Id, std::move(Server));
    ++Bridged;
    // Connect the plain-TCP side and pipe payloads in both directions.
    // Messages arriving before the TCP connection completes are buffered.
    auto Pending = std::make_shared<std::vector<std::vector<uint8_t>>>();
    auto TcpSide = std::make_shared<TcpConnection *>(nullptr);
    Ws->setOnMessage([Pending, TcpSide](std::vector<uint8_t> Payload) {
      if (*TcpSide)
        (*TcpSide)->send(std::move(Payload));
      else
        Pending->push_back(std::move(Payload));
    });
    this->Net.connect(
        this->TcpPort, [this, Id, Pending, TcpSide](TcpConnection *C) {
          auto It = Bridges.find(Id);
          if (It == Bridges.end()) {
            // Bridge died before the TCP side came up.
            if (C)
              C->close();
            return;
          }
          WebSocketServerConn *Bridge = It->second.get();
          if (!C) {
            Bridge->close();
            return;
          }
          *TcpSide = C;
          C->setOnData([this, Id](const std::vector<uint8_t> &Data) {
            auto BridgeIt = Bridges.find(Id);
            if (BridgeIt != Bridges.end())
              BridgeIt->second->sendBinary(Data);
          });
          C->setOnClose([this, Id, TcpSide] {
            *TcpSide = nullptr;
            auto BridgeIt = Bridges.find(Id);
            if (BridgeIt != Bridges.end())
              BridgeIt->second->close();
          });
          for (auto &Buffered : *Pending)
            C->send(std::move(Buffered));
          Pending->clear();
        });
    Ws->setOnClose([this, Id, TcpSide] {
      if (*TcpSide) {
        (*TcpSide)->close();
        *TcpSide = nullptr;
      }
      // Deferred: we may be inside one of the bridge's own callbacks.
      // Teardown is cleanup — Background lane.
      this->Net.loop().post(kernel::Lane::Background,
                            [this, Id] { Bridges.erase(Id); });
    });
  });
}
