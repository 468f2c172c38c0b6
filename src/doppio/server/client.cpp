//===- doppio/server/client.cpp -------------------------------------------==//

#include "doppio/server/client.h"

#include <cstring>

using namespace doppio;
using namespace doppio::rt::server;
using browser::TcpConnection;

void FrameClient::connect(uint16_t Port, std::function<void(bool)> Done) {
  Net.connect(Port, [this, Done = std::move(Done)](TcpConnection *C) {
    if (!C) {
      if (Done)
        Done(false);
      return;
    }
    Conn = C;
    Conn->setOnData(
        [this](std::vector<uint8_t> &&D) { onData(std::move(D)); });
    Conn->setOnClose([this] {
      // Drop the pointer first: the pair may be reaped once both sides
      // are closed.
      Conn = nullptr;
      failPending("connection closed");
      if (OnClose)
        OnClose();
    });
    if (Done)
      Done(true);
  });
}

void FrameClient::request(const std::string &Handler,
                          std::vector<uint8_t> Body, ResponseCb Done) {
  if (!Conn) {
    frame::Response R;
    R.S = frame::Status::Error;
    const char *Msg = "not connected";
    R.Body.assign(Msg, Msg + std::strlen(Msg));
    Done(std::move(R));
    return;
  }
  frame::Request Req;
  Req.Handler = Handler;
  Req.Body = std::move(Body);
  Conn->send(frame::encode(frame::encodeRequest(Req)));
  Pending.push_back(std::move(Done));
}

void FrameClient::onData(std::vector<uint8_t> &&Data) {
  BytesReceived += Data.size();
  Decode.feed(std::move(Data));
  while (auto Payload = Decode.nextView()) {
    auto Resp = frame::decodeResponse(*Payload);
    if (!Resp || Pending.empty()) {
      close();
      failPending("protocol error");
      return;
    }
    ResponseCb Done = std::move(Pending.front());
    Pending.pop_front();
    Done(std::move(*Resp));
  }
  if (Decode.corrupted()) {
    close();
    failPending("corrupt stream");
  }
}

void FrameClient::failPending(const char *Why) {
  std::deque<ResponseCb> Failed;
  Failed.swap(Pending);
  for (ResponseCb &Done : Failed) {
    frame::Response R;
    R.S = frame::Status::Error;
    R.Body.assign(Why, Why + std::strlen(Why));
    Done(std::move(R));
  }
}

void FrameClient::close() {
  if (!Conn)
    return;
  Conn->setOnData(nullptr);
  Conn->setOnClose(nullptr);
  Conn->close();
  Conn = nullptr;
}
