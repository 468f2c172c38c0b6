//===- tests/browser/websocket_test.cpp -----------------------------------==//
//
// Tests for §5.3: WebSocket framing, the upgrade handshake, outgoing-only
// connections, the websockify TCP bridge, and the Flash fallback shim.
//
//===----------------------------------------------------------------------===//

#include "browser/env.h"
#include "browser/websocket.h"

#include "gtest/gtest.h"

#include <memory>

using namespace doppio;
using namespace doppio::browser;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

TEST(WsFrame, EncodeDecodeRoundTripUnmasked) {
  for (size_t Len : {0ul, 1ul, 125ul, 126ul, 65535ul, 65536ul, 100000ul}) {
    wsframe::Frame F;
    F.Op = wsframe::Opcode::Binary;
    F.Payload.resize(Len);
    for (size_t I = 0; I != Len; ++I)
      F.Payload[I] = static_cast<uint8_t>(I * 7);
    wsframe::Decoder D;
    D.feed(wsframe::encode(F, std::nullopt));
    auto Out = D.next();
    ASSERT_TRUE(Out.has_value()) << "len " << Len;
    EXPECT_EQ(Out->Payload, F.Payload);
    EXPECT_EQ(Out->Op, wsframe::Opcode::Binary);
    EXPECT_FALSE(D.next().has_value());
  }
}

TEST(WsFrame, MaskedFramesDecodeToOriginalPayload) {
  wsframe::Frame F;
  F.Op = wsframe::Opcode::Binary;
  F.Payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  std::vector<uint8_t> Wire = wsframe::encode(F, 0x12345678u);
  // Masked payload must differ on the wire.
  EXPECT_NE(std::vector<uint8_t>(Wire.end() - 6, Wire.end()), F.Payload);
  wsframe::Decoder D;
  D.feed(Wire);
  auto Out = D.next();
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->Payload, F.Payload);
}

TEST(WsFrame, DecoderHandlesPartialAndCoalescedInput) {
  wsframe::Frame A, B;
  A.Op = wsframe::Opcode::Binary;
  A.Payload = bytesOf("first");
  B.Op = wsframe::Opcode::Text;
  B.Payload = bytesOf("second");
  std::vector<uint8_t> Wire = wsframe::encode(A, std::nullopt);
  std::vector<uint8_t> WireB = wsframe::encode(B, std::nullopt);
  Wire.insert(Wire.end(), WireB.begin(), WireB.end());
  wsframe::Decoder D;
  // Feed one byte at a time; frames appear exactly when complete.
  int Seen = 0;
  for (uint8_t Byte : Wire) {
    D.feed({Byte});
    while (auto F = D.next()) {
      if (Seen == 0)
        EXPECT_EQ(F->Payload, A.Payload);
      else
        EXPECT_EQ(F->Payload, B.Payload);
      ++Seen;
    }
  }
  EXPECT_EQ(Seen, 2);
}

TEST(SimNet, ConnectionRefusedWhenNoListener) {
  BrowserEnv Env(chromeProfile());
  bool Called = false;
  Env.net().connect(9999, [&](TcpConnection *C) {
    EXPECT_EQ(C, nullptr);
    Called = true;
  });
  Env.loop().run();
  EXPECT_TRUE(Called);
}

TEST(SimNet, DuplexByteStream) {
  BrowserEnv Env(chromeProfile());
  std::string ServerGot, ClientGot;
  Env.net().listen(7, [&](TcpConnection &C) {
    C.setOnData([&, Conn = &C](const std::vector<uint8_t> &D) {
      ServerGot.append(D.begin(), D.end());
      Conn->send(bytesOf("pong"));
    });
  });
  Env.net().connect(7, [&](TcpConnection *C) {
    ASSERT_NE(C, nullptr);
    C->setOnData([&](const std::vector<uint8_t> &D) {
      ClientGot.append(D.begin(), D.end());
    });
    C->send(bytesOf("ping"));
  });
  Env.loop().run();
  EXPECT_EQ(ServerGot, "ping");
  EXPECT_EQ(ClientGot, "pong");
}

/// Starts a trivial native TCP echo service on \p Port.
static void startEchoServer(SimNet &Net, uint16_t Port) {
  Net.listen(Port, [](TcpConnection &C) {
    C.setOnData([Conn = &C](const std::vector<uint8_t> &D) {
      Conn->send(D); // Echo.
    });
  });
}

TEST(WebSocket, HandshakeAndEchoThroughWebsockify) {
  // The full §5.3 pipeline: browser WebSocket -> websockify -> plain TCP
  // echo server, and back.
  BrowserEnv Env(chromeProfile());
  startEchoServer(Env.net(), 2000);
  WebsockifyProxy Proxy(Env.net(), 1000, 2000);
  WebSocketClient Ws(Env.net(), Env.profile());
  std::vector<uint8_t> Got;
  bool Opened = false;
  Ws.setOnMessage([&](std::vector<uint8_t> M) { Got = std::move(M); });
  Ws.connect(1000, [&](bool Ok) {
    Opened = Ok;
    ASSERT_TRUE(Ok);
    Ws.sendBinary({10, 20, 30});
  });
  Env.loop().run();
  EXPECT_TRUE(Opened);
  EXPECT_EQ(Got, (std::vector<uint8_t>{10, 20, 30}));
  EXPECT_EQ(Proxy.bridgedConnections(), 1u);
  EXPECT_FALSE(Ws.usedFlashShim());
}

TEST(WebSocket, ConnectToDeadPortFails) {
  BrowserEnv Env(chromeProfile());
  WebSocketClient Ws(Env.net(), Env.profile());
  bool Result = true;
  Ws.connect(4242, [&](bool Ok) { Result = Ok; });
  Env.loop().run();
  EXPECT_FALSE(Result);
}

TEST(WebSocket, Ie8UsesFlashShim) {
  // IE8 lacks WebSockets; Websockify's JS library falls back to a Flash
  // applet proxy (§5.3). Functionally identical, slower to connect.
  BrowserEnv Env(ie8Profile());
  startEchoServer(Env.net(), 2000);
  WebsockifyProxy Proxy(Env.net(), 1000, 2000);
  WebSocketClient Ws(Env.net(), Env.profile());
  std::vector<uint8_t> Got;
  Ws.setOnMessage([&](std::vector<uint8_t> M) { Got = std::move(M); });
  Ws.connect(1000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    Ws.sendBinary({1, 2});
  });
  Env.loop().run();
  EXPECT_EQ(Got, (std::vector<uint8_t>{1, 2}));
  EXPECT_TRUE(Ws.usedFlashShim());
}

TEST(WebSocket, MalformedFrameFailsTheServerConnection) {
  // A reserved opcode fails the stream: the server closes the connection
  // and delivers nothing, not even the valid frame behind it.
  BrowserEnv Env(chromeProfile());
  std::unique_ptr<WebSocketServerConn> Server;
  int Messages = 0;
  bool Closed = false;
  Env.net().listen(1000, [&](TcpConnection &C) {
    Server = std::make_unique<WebSocketServerConn>(C);
    Server->setOnMessage([&](std::vector<uint8_t>) { ++Messages; });
    Server->setOnClose([&] { Closed = true; });
  });
  Env.net().connect(1000, [&](TcpConnection *C) {
    ASSERT_NE(C, nullptr);
    std::vector<uint8_t> Wire =
        bytesOf("GET / HTTP/1.1\r\nUpgrade: websocket\r\n\r\n");
    Wire.insert(Wire.end(), {0x83, 0x00});
    std::vector<uint8_t> Valid = wsframe::encode(
        wsframe::Frame{wsframe::Opcode::Binary, {1, 2}}, 0x01020304u);
    Wire.insert(Wire.end(), Valid.begin(), Valid.end());
    C->send(Wire);
  });
  Env.loop().run();
  EXPECT_TRUE(Closed);
  EXPECT_EQ(Messages, 0);
}

TEST(WebSocket, LargeMessageSurvivesBridge) {
  BrowserEnv Env(chromeProfile());
  startEchoServer(Env.net(), 2000);
  WebsockifyProxy Proxy(Env.net(), 1000, 2000);
  WebSocketClient Ws(Env.net(), Env.profile());
  std::vector<uint8_t> Payload(200000);
  for (size_t I = 0; I != Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 31);
  std::vector<uint8_t> Got;
  Ws.setOnMessage([&](std::vector<uint8_t> M) {
    Got.insert(Got.end(), M.begin(), M.end());
  });
  Ws.connect(1000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    Ws.sendBinary(Payload);
  });
  Env.loop().run();
  EXPECT_EQ(Got, Payload);
}

} // namespace
