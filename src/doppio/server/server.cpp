//===- doppio/server/server.cpp -------------------------------------------==//

#include "doppio/server/server.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace doppio;
using namespace doppio::rt::server;
using browser::TcpConnection;

static std::vector<uint8_t> bytesOf(const char *S) {
  return std::vector<uint8_t>(S, S + std::strlen(S));
}

Server::Server(browser::BrowserEnv &Env, Config Cfg)
    : Env(Env), Cfg(Cfg), Sock(Env.net()) {
  bindCells();
}

void Server::bindCells() {
  // claimPrefix: sequential or concurrent servers on one tab (the tests
  // build both) get distinct cell sets, so each instance's stats() view
  // stays exact.
  obs::Registry &Reg = Env.metrics();
  std::string P = Reg.claimPrefix("server");
  AcceptedC = &Reg.counter(P + ".accepted");
  RefusedC = &Reg.counter(P + ".refused");
  ActiveG = &Reg.gauge(P + ".active");
  IdleClosedC = &Reg.counter(P + ".idle_closed");
  BytesInC = &Reg.counter(P + ".bytes_in");
  BytesOutC = &Reg.counter(P + ".bytes_out");
  RequestsServedC = &Reg.counter(P + ".requests_served");
  RequestErrorsC = &Reg.counter(P + ".request_errors");
  ServiceNsH = &Reg.histogram(P + ".service_ns");
}

Server::~Server() {
  // A server torn down without a graceful drain (cluster kill-shard, test
  // teardown) must not leave its idle-sweep timer behind: the pending
  // fire captures `this` and would both dangle and count as pending
  // kernel work against the tab's quiescence.
  Sweep.cancel();
  // Detach callbacks so events still in the loop cannot reach a dead
  // server; connections close, the fabric reaps them.
  for (auto &[Id, C] : Conns) {
    C->Tcp->setOnData(nullptr);
    C->Tcp->setOnClose(nullptr);
    C->Tcp->close();
  }
}

uint64_t Server::nowNs() const { return Env.clock().nowNs(); }

bool Server::start() {
  if (Running)
    return false;
  if (!Sock.listen(Cfg.Port, Cfg.Backlog))
    return false;
  Running = true;
  Draining = false;
  acceptNext();
  return true;
}

void Server::acceptNext() {
  if (!Running || AcceptArmed || Conns.size() >= Cfg.MaxConnections)
    return; // At the cap the backlog provides the backpressure.
  AcceptArmed = true;
  Sock.accept([this](TcpConnection *T) {
    AcceptArmed = false;
    if (!T)
      return; // Socket closed.
    onAccepted(*T);
    acceptNext();
  });
}

void Server::onAccepted(TcpConnection &T) {
  uint64_t Id = NextConnId++;
  auto C = std::make_unique<Conn>();
  C->Id = Id;
  C->Tcp = &T;
  C->LastActiveNs = nowNs();
  Conns.emplace(Id, std::move(C));
  AcceptedC->inc();
  ActiveG->add(1);
  T.setOnData(
      [this, Id](std::vector<uint8_t> &&D) { onData(Id, std::move(D)); });
  T.setOnClose([this, Id] { closeConn(Id, CloseReason::PeerClosed); });
  armIdleSweep();
}

void Server::onData(uint64_t Id, std::vector<uint8_t> &&Data) {
  {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
    Conn &C = *It->second;
    BytesInC->inc(Data.size());
    C.LastActiveNs = nowNs();
    C.Decode.feed(std::move(Data));
  }
  // Re-find each round: an inline respond may close and erase the
  // connection mid-drain (e.g. the last response of a draining conn).
  while (true) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
    Conn &C = *It->second;
    auto Payload = C.Decode.nextView();
    if (!Payload) {
      if (C.Decode.corrupted())
        closeConn(Id, CloseReason::ProtocolError);
      return;
    }
    serveRequest(Id, C, *Payload);
  }
}

void Server::serveRequest(uint64_t Id, Conn &C, frame::ByteView Payload) {
  ++C.InFlight;
  uint64_t Seq = C.NextSeq++;
  uint64_t StartNs = nowNs();
  // Decoded before the handler runs: Payload views C's decoder buffer,
  // which an inline response may tear down with the connection.
  auto Req = frame::decodeRequest(Payload);
  // One span per request, named for the handler. The span is current
  // while the handler starts work, so fs ops it issues (and every kernel
  // hop they take) parent under it — end-to-end attribution of queue
  // delay, fs time, and handler time.
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Span = Spans.begin(
      Req ? "server.req." + Req->Handler : std::string("server.req"));
  auto Respond = [this, Id, Seq, StartNs, Span](frame::Status St,
                                                std::vector<uint8_t> Body) {
    finishRequest(Id, Seq, StartNs, Span, St, Body);
  };
  obs::SpanStore::Scope Scope(Spans, Span);
  if (!Req) {
    Respond(frame::Status::BadRequest, bytesOf("malformed request"));
    return;
  }
  Routes.dispatch(*Req, std::move(Respond));
}

void Server::finishRequest(uint64_t Id, uint64_t Seq, uint64_t StartNs,
                           obs::SpanId Span, frame::Status St,
                           frame::ByteView Body) {
  Env.metrics().spans().end(Span);
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return; // Connection died while the handler ran.
  Conn &C = *It->second;
  assert(C.InFlight > 0 && "response without a matching request");
  --C.InFlight;
  uint64_t NowNs = nowNs();
  C.LastActiveNs = NowNs;
  ServiceNsH->record(NowNs - StartNs);
  if (St == frame::Status::Ok)
    RequestsServedC->inc();
  else
    RequestErrorsC->inc();
  // Responses leave in request order. The response due next goes straight
  // out, followed by any parked ones it unblocks; one completing ahead of
  // an earlier in-flight request parks in Ready until its turn.
  std::vector<uint8_t> Frame = frame::encodeResponseFrame(St, Body);
  if (Seq != C.NextToSend) {
    C.Ready.emplace(Seq, std::move(Frame));
  } else {
    while (true) {
      BytesOutC->inc(Frame.size());
      C.Tcp->send(std::move(Frame));
      ++C.NextToSend;
      auto RIt = C.Ready.begin();
      if (RIt == C.Ready.end() || RIt->first != C.NextToSend)
        break;
      Frame = std::move(RIt->second);
      C.Ready.erase(RIt);
    }
  }
  // A draining connection closes once its last response is on the wire;
  // the FIN is ordered after the data, so the client still gets it.
  if (Draining && C.InFlight == 0)
    closeConn(Id, CloseReason::Shutdown);
}

void Server::closeConn(uint64_t Id, CloseReason Why) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  std::unique_ptr<Conn> C = std::move(It->second);
  Conns.erase(It);
  if (Why == CloseReason::Idle)
    IdleClosedC->inc();
  C->Tcp->setOnData(nullptr);
  C->Tcp->setOnClose(nullptr);
  C->Tcp->close(); // No-op if the peer closed first.
  assert(ActiveG->value() > 0);
  ActiveG->sub(1);
  if (Draining)
    maybeFinishShutdown();
  else
    acceptNext(); // A slot freed below the cap: resume accepting.
}

void Server::armIdleSweep() {
  if (Cfg.IdleTimeoutNs == 0 || Sweep.armed() || Draining || Conns.empty())
    return;
  uint64_t Period = std::max<uint64_t>(1, Cfg.IdleTimeoutNs / 2);
  Sweep = Env.loop().postAfter(kernel::Lane::Timer, [this] { idleSweep(); },
                               Period);
}

void Server::idleSweep() {
  if (Draining)
    return; // Shutdown handles the remaining connections itself.
  uint64_t NowNs = nowNs();
  std::vector<uint64_t> Idle;
  for (auto &[Id, C] : Conns)
    if (C->InFlight == 0 && NowNs - C->LastActiveNs >= Cfg.IdleTimeoutNs)
      Idle.push_back(Id);
  for (uint64_t Id : Idle)
    closeConn(Id, CloseReason::Idle);
  armIdleSweep();
}

void Server::shutdown(std::function<void()> Done) {
  if (Draining) {
    // A second shutdown during an in-flight drain joins it rather than
    // firing early: both callbacks run once the drain actually finishes.
    if (Done) {
      if (OnDrained)
        OnDrained = [First = std::move(OnDrained),
                     Second = std::move(Done)] {
          First();
          Second();
        };
      else
        OnDrained = std::move(Done);
    }
    return;
  }
  if (!Running) {
    if (Done)
      Done();
    return;
  }
  Running = false;
  Draining = true;
  OnDrained = std::move(Done);
  // Kill the housekeeping timer, even a sweep already promoted but not
  // yet run.
  Sweep.cancel();
  Sock.close(); // Release the port; queued connects are refused.
  std::vector<uint64_t> IdleIds;
  for (auto &[Id, C] : Conns)
    if (C->InFlight == 0)
      IdleIds.push_back(Id);
  for (uint64_t Id : IdleIds)
    closeConn(Id, CloseReason::Shutdown);
  maybeFinishShutdown();
}

void Server::maybeFinishShutdown() {
  if (!Draining || !Conns.empty())
    return;
  Draining = false;
  if (OnDrained) {
    auto Done = std::move(OnDrained);
    OnDrained = nullptr;
    Done();
  }
}

ServerStats Server::stats() const {
  ServerStats Out;
  Out.Accepted = AcceptedC->value();
  Out.Refused = RefusedC->value() + Sock.refused();
  Out.Active = static_cast<uint64_t>(ActiveG->value());
  Out.IdleClosed = IdleClosedC->value();
  Out.BytesIn = BytesInC->value();
  Out.BytesOut = BytesOutC->value();
  Out.RequestsServed = RequestsServedC->value();
  Out.RequestErrors = RequestErrorsC->value();
  Out.ServiceNs = ServiceNsH->samples();
  return Out;
}
