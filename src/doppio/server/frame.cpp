//===- doppio/server/frame.cpp --------------------------------------------==//

#include "doppio/server/frame.h"

#include "browser/wire.h"

#include <cassert>

using namespace doppio;
using namespace doppio::rt::server;
using doppio::browser::wire::getU32;
using doppio::browser::wire::putU32;

std::vector<uint8_t> frame::encode(ByteView Payload) {
  assert(Payload.size() <= MaxPayloadBytes && "frame payload too large");
  std::vector<uint8_t> Out;
  Out.reserve(HeaderBytes + Payload.size());
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  return Out;
}

void frame::Decoder::feed(const std::vector<uint8_t> &Data) {
  if (Corrupted)
    return;
  // Drop the consumed prefix: only an unconsumed partial frame moves, and
  // the buffer keeps its capacity.
  Buffer.erase(Buffer.begin(), Buffer.begin() + Cursor);
  Cursor = 0;
  Buffer.insert(Buffer.end(), Data.begin(), Data.end());
}

void frame::Decoder::feed(std::vector<uint8_t> &&Data) {
  if (Corrupted)
    return;
  if (Cursor != Buffer.size()) {
    feed(Data);
    return;
  }
  Buffer = std::move(Data);
  Cursor = 0;
}

std::optional<frame::ByteView> frame::Decoder::nextView() {
  size_t Avail = Buffer.size() - Cursor;
  if (Corrupted || Avail < HeaderBytes)
    return std::nullopt;
  uint32_t Len = getU32(Buffer.data() + Cursor);
  if (Len > MaxPayloadBytes) {
    Corrupted = true;
    Buffer.clear();
    Cursor = 0;
    return std::nullopt;
  }
  if (Avail < HeaderBytes + Len)
    return std::nullopt;
  ByteView Payload(Buffer.data() + Cursor + HeaderBytes, Len);
  Cursor += HeaderBytes + Len;
  return Payload;
}

std::optional<std::vector<uint8_t>> frame::Decoder::next() {
  std::optional<ByteView> Payload = nextView();
  if (!Payload)
    return std::nullopt;
  return std::vector<uint8_t>(Payload->begin(), Payload->end());
}

const char *frame::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "OK";
  case Status::BadRequest:
    return "BAD_REQUEST";
  case Status::NoHandler:
    return "NO_HANDLER";
  case Status::Error:
    return "ERROR";
  }
  return "UNKNOWN";
}

std::vector<uint8_t> frame::encodeRequest(const Request &R) {
  assert(R.Handler.size() <= MaxHandlerNameBytes && "handler name too long");
  std::vector<uint8_t> Out;
  Out.reserve(1 + R.Handler.size() + R.Body.size());
  Out.push_back(static_cast<uint8_t>(R.Handler.size()));
  Out.insert(Out.end(), R.Handler.begin(), R.Handler.end());
  Out.insert(Out.end(), R.Body.begin(), R.Body.end());
  return Out;
}

std::optional<frame::Request> frame::decodeRequest(ByteView Payload) {
  if (Payload.empty())
    return std::nullopt;
  size_t NameLen = Payload[0];
  if (NameLen == 0 || Payload.size() < 1 + NameLen)
    return std::nullopt;
  Request R;
  R.Handler.assign(Payload.begin() + 1, Payload.begin() + 1 + NameLen);
  R.Body.assign(Payload.begin() + 1 + NameLen, Payload.end());
  return R;
}

std::vector<uint8_t> frame::encodeResponse(const Response &R) {
  std::vector<uint8_t> Out;
  Out.reserve(1 + R.Body.size());
  Out.push_back(static_cast<uint8_t>(R.S));
  Out.insert(Out.end(), R.Body.begin(), R.Body.end());
  return Out;
}

std::vector<uint8_t> frame::encodeResponseFrame(Status S, ByteView Body) {
  assert(1 + Body.size() <= MaxPayloadBytes && "frame payload too large");
  std::vector<uint8_t> Out;
  Out.reserve(HeaderBytes + 1 + Body.size());
  putU32(Out, static_cast<uint32_t>(1 + Body.size()));
  Out.push_back(static_cast<uint8_t>(S));
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

std::optional<frame::Response> frame::decodeResponse(ByteView Payload) {
  if (Payload.empty())
    return std::nullopt;
  if (Payload[0] > static_cast<uint8_t>(Status::Error))
    return std::nullopt;
  Response R;
  R.S = static_cast<Status>(Payload[0]);
  R.Body.assign(Payload.begin() + 1, Payload.end());
  return R;
}
