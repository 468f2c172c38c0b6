//===- doppio/cluster/balancer.cpp ----------------------------------------==//

#include "doppio/cluster/balancer.h"

#include "doppio/cluster/control.h"
#include "doppio/obs/exposition.h"

#include <cassert>

using namespace doppio;
using namespace doppio::cluster;
using browser::TcpConnection;

static std::vector<uint8_t> bytesOf(const char *S) {
  return std::vector<uint8_t>(S, S + std::char_traits<char>::length(S));
}

/// Encoded Status::Error response frame with \p Why as the body.
static std::vector<uint8_t> errorFrame(const char *Why) {
  return frame::encodeResponseFrame(frame::Status::Error, bytesOf(Why));
}

Balancer::Balancer(const browser::Profile &P, Fabric &Fab, Config Cfg)
    : Env(P), Fab(Fab), Cfg(Cfg), Ring(Cfg.VNodesPerShard) {
  Tab = Fab.attach(Env);
  bindCells();
  // Control plane in: shard snapshots and drain completions.
  Fab.setControlHandler(Tab, [this](TabId From, std::vector<uint8_t> B) {
    auto M = control::decode(B);
    if (!M)
      return;
    (void)From;
    switch (M->K) {
    case control::Kind::Snapshot:
      if (auto S = ShardSnapshot::decode(M->Payload))
        noteSnapshot(*S);
      break;
    case control::Kind::DrainDone: {
      auto S = ShardSnapshot::decode(M->Payload);
      if (!S)
        break;
      noteSnapshot(*S);
      auto It = Shards.find(S->ShardId);
      if (It == Shards.end())
        break;
      if (It->second.OnDrained) {
        auto Done = std::move(It->second.OnDrained);
        It->second.OnDrained = nullptr;
        Done(*S);
      }
      break;
    }
    case control::Kind::MigrateDone: {
      auto D = control::MigrateDoneMsg::decode(M->Payload);
      if (!D)
        break;
      auto It = MigrationsInFlight.find(D->RequestId);
      if (It == MigrationsInFlight.end())
        break;
      auto Done = std::move(It->second);
      MigrationsInFlight.erase(It);
      (D->Ok ? MigrationsC : MigrationFailuresC)->inc();
      if (Done) {
        MigrationResult R;
        R.SrcShard = D->SrcShard;
        R.DstShard = D->DstShard;
        R.Ok = D->Ok;
        R.NewPid = D->NewPid;
        R.CaptureUs = D->CaptureUs;
        R.RestoreUs = D->RestoreUs;
        R.BlobBytes = D->BlobBytes;
        R.Error = std::move(D->Error);
        Done(R);
      }
      break;
    }
    case control::Kind::Drain:
    case control::Kind::Kill:
    case control::Kind::Migrate:
    case control::Kind::MigrateBlob:
      break; // Shard-bound kinds; ignore if misdelivered.
    }
  });
}

Balancer::~Balancer() {
  Env.net().unlisten(Cfg.Port);
  for (auto &[Id, C] : Conns) {
    if (C->Client) {
      C->Client->setOnData(nullptr);
      C->Client->setOnClose(nullptr);
      C->Client->close();
    }
    if (C->Upstream) {
      C->Upstream->setOnData(nullptr);
      C->Upstream->setOnClose(nullptr);
      C->Upstream->close();
    }
  }
}

void Balancer::bindCells() {
  obs::Registry &Reg = Env.metrics();
  std::string P = Reg.claimPrefix("balancer");
  ConnsAcceptedC = &Reg.counter(P + ".conns_accepted");
  ConnsRefusedC = &Reg.counter(P + ".conns_refused");
  RefusedSaturatedC = &Reg.counter(P + ".refused_saturated");
  RoutedC = &Reg.counter(P + ".routed");
  ReroutedC = &Reg.counter(P + ".rerouted");
  RequestsForwardedC = &Reg.counter(P + ".requests_forwarded");
  ResponsesReturnedC = &Reg.counter(P + ".responses_returned");
  ErrorsSynthesizedC = &Reg.counter(P + ".errors_synthesized");
  MetricsServedC = &Reg.counter(P + ".metrics_served");
  DrainsC = &Reg.counter(P + ".drains");
  KillsC = &Reg.counter(P + ".kills");
  MigrationsC = &Reg.counter(P + ".migrations");
  MigrationFailuresC = &Reg.counter(P + ".migration_failures");
  LiveShardsG = &Reg.gauge(P + ".live_shards");
  UpstreamRttNsH = &Reg.histogram(P + ".upstream_rtt_ns");
  RouteNsH = &Reg.histogram(P + ".route_ns");
}

uint64_t Balancer::nowNs() const {
  return const_cast<browser::BrowserEnv &>(Env).clock().nowNs();
}

bool Balancer::start() {
  if (Running)
    return false;
  Running = Env.net().listen(
      Cfg.Port, [this](TcpConnection &T) { onAccept(T); });
  return Running;
}

void Balancer::addShard(uint32_t Id, TabId ShardTab, uint16_t ShardPort) {
  assert(!Shards.count(Id) && "duplicate shard id");
  ShardInfo Info;
  Info.Id = Id;
  Info.Tab = ShardTab;
  Info.Port = ShardPort;
  // Claimed in registration order: "shard", "shard2", ... — the per-shard
  // namespace the aggregated metrics view exposes.
  Info.Prefix = Env.metrics().claimPrefix("shard");
  Shards.emplace(Id, std::move(Info));
  Ring.add(Id);
  LiveShardsG->set(static_cast<int64_t>(Ring.size()));
}

//===----------------------------------------------------------------------===//
// Client side
//===----------------------------------------------------------------------===//

void Balancer::onAccept(TcpConnection &T) {
  if (Conns.size() >= Cfg.MaxConnections) {
    // Closing inside the accept path refuses the connect (SimNet's
    // backlog-overflow semantics) — the front-door cap.
    ConnsRefusedC->inc();
    T.close();
    return;
  }
  uint64_t Id = NextConnId++;
  auto C = std::make_unique<Conn>();
  C->Id = Id;
  C->Client = &T;
  C->AcceptedNs = nowNs();
  ConnsAcceptedC->inc();
  T.setOnData([this, Id](std::vector<uint8_t> &&D) {
    onClientData(Id, std::move(D));
  });
  T.setOnClose([this, Id] { onClientClosed(Id); });
  Conn &Ref = *C;
  Conns.emplace(Id, std::move(C));
  beginWalk(Ref);
}

void Balancer::onClientData(uint64_t Id, std::vector<uint8_t> &&Data) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  It->second->FromClient.feed(std::move(Data));
  pumpClient(*It->second);
}

void Balancer::pumpClient(Conn &C) {
  while (true) {
    auto Payload = C.FromClient.nextView();
    if (!Payload) {
      if (C.FromClient.corrupted())
        closeConn(C.Id);
      return;
    }
    Env.chargeCompute(Cfg.RouteComputeNs);
    auto Req = frame::decodeRequest(*Payload);
    if (Req && Req->Handler == "metrics") {
      // Answered here, from the aggregated registry — but slotted into
      // the connection's response order, so pipelined clients still see
      // responses in request order.
      Slot S;
      S.Local = true;
      S.Ready = true;
      S.Frame = localMetricsResponse(*Req);
      C.Slots.push_back(std::move(S));
      MetricsServedC->inc();
      flushSlots(C);
      continue;
    }
    Slot S;
    C.Slots.push_back(std::move(S));
    C.PendingOut.push_back(frame::encode(*Payload));
    forwardPending(C);
  }
}

void Balancer::forwardPending(Conn &C) {
  // Forwarding pauses while the conn has no live upstream (initial
  // candidate walk, or mid-reroute off a draining shard).
  if (!C.Upstream || C.Rerouting)
    return;
  while (!C.PendingOut.empty()) {
    std::vector<uint8_t> F = std::move(C.PendingOut.front());
    C.PendingOut.pop_front();
    // Stamp the first not-yet-forwarded remote slot (they are filled in
    // forward order; forwarded slots always form a prefix).
    for (Slot &S : C.Slots)
      if (!S.Local && !S.Ready && S.ForwardedNs == 0) {
        S.ForwardedNs = nowNs();
        break;
      }
    RequestsForwardedC->inc();
    C.Upstream->send(std::move(F));
  }
}

void Balancer::onClientClosed(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  It->second->ClientClosed = true;
  closeConn(Id);
}

//===----------------------------------------------------------------------===//
// Upstream side
//===----------------------------------------------------------------------===//

void Balancer::beginWalk(Conn &C) {
  // One snapshot of the ring per walk. connectUpstream must never refill
  // the list itself: a refused-connect completion calls back into it, and
  // a refill there would restart the walk and hammer a saturated fleet
  // with connect attempts forever instead of refusing the client.
  C.Candidates = Ring.candidates(hashKey(C.Id), Ring.size());
  C.NextCandidate = 0;
  connectUpstream(C);
}

void Balancer::connectUpstream(Conn &C) {
  while (C.NextCandidate < C.Candidates.size()) {
    uint32_t SId = C.Candidates[C.NextCandidate];
    auto SIt = Shards.find(SId);
    if (SIt == Shards.end() || SIt->second.Draining || SIt->second.Dead) {
      ++C.NextCandidate;
      continue;
    }
    uint64_t Id = C.Id;
    Fab.connect(Tab, SIt->second.Tab, SIt->second.Port,
                [this, Id, SId](Fabric::Endpoint *Ep) {
                  auto It = Conns.find(Id);
                  if (It == Conns.end()) {
                    if (Ep)
                      Ep->close(); // Client left while we connected.
                    return;
                  }
                  Conn &C = *It->second;
                  if (!Ep) {
                    // Backlog overflow (or drain won the race) in that
                    // shard tab: walk to the next ring candidate.
                    ++C.NextCandidate;
                    connectUpstream(C);
                    return;
                  }
                  auto SIt = Shards.find(SId);
                  if (SIt == Shards.end() || SIt->second.Draining ||
                      SIt->second.Dead) {
                    // Shard left the ring mid-handshake; retry the walk.
                    Ep->close();
                    ++C.NextCandidate;
                    connectUpstream(C);
                    return;
                  }
                  C.ShardId = SId;
                  C.HasShard = true;
                  SIt->second.Conns.insert(Id);
                  bindUpstream(C, Ep);
                });
    return; // Continues from the connect completion.
  }
  // Every live candidate refused (or the ring is empty): the fleet is
  // saturated. Refuse at the front door, visibly.
  RefusedSaturatedC->inc();
  synthesizeErrors(C, C.Candidates.empty() ? "cluster: no shards"
                                           : "cluster: all shards saturated");
  closeConn(C.Id, /*RefusedSaturatedPath=*/true);
}

void Balancer::bindUpstream(Conn &C, Fabric::Endpoint *Ep) {
  C.Upstream = Ep;
  C.Rerouting = false;
  C.FromShard = frame::Decoder();
  RoutedC->inc();
  RouteNsH->record(nowNs() - C.AcceptedNs);
  uint64_t Id = C.Id;
  Ep->setOnData([this, Id](std::vector<uint8_t> &&D) {
    onUpstreamData(Id, std::move(D));
  });
  Ep->setOnClose([this, Id] { onUpstreamClosed(Id); });
  forwardPending(C);
}

void Balancer::onUpstreamData(uint64_t Id, std::vector<uint8_t> &&Data) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;
  C.FromShard.feed(std::move(Data));
  while (true) {
    auto Payload = C.FromShard.nextView();
    if (!Payload)
      break;
    Env.chargeCompute(Cfg.RouteComputeNs);
    // Fill the first outstanding remote slot (responses arrive in
    // forward order).
    bool Filled = false;
    for (Slot &S : C.Slots)
      if (!S.Local && !S.Ready) {
        S.Ready = true;
        S.Frame = frame::encode(*Payload);
        if (S.ForwardedNs)
          UpstreamRttNsH->record(nowNs() - S.ForwardedNs);
        Filled = true;
        break;
      }
    if (!Filled)
      break; // Response with no matching request: drop.
  }
  flushSlots(C);
  // Re-find: flushing can tear the conn down (drained shard + closing
  // client).
  auto It2 = Conns.find(Id);
  if (It2 != Conns.end()) {
    Conn &C2 = *It2->second;
    bool Outstanding = false;
    for (const Slot &S : C2.Slots)
      if (!S.Local && !S.Ready && S.ForwardedNs) {
        Outstanding = true;
        break;
      }
    if (C2.Rerouting && !Outstanding)
      rerouteNow(C2);
  }
}

void Balancer::onUpstreamClosed(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;
  // Shard-initiated close (idle timeout, shard-side teardown). Any
  // response the shard sent first has already been delivered
  // (FIN-after-data across the fabric); unanswered requests die with the
  // link.
  C.Upstream = nullptr;
  synthesizeErrors(C, "cluster: upstream closed");
  flushSlots(C);
  closeConn(Id);
}

//===----------------------------------------------------------------------===//
// Response ordering
//===----------------------------------------------------------------------===//

void Balancer::flushSlots(Conn &C) {
  while (!C.Slots.empty() && C.Slots.front().Ready) {
    if (C.Client && !C.ClientClosed) {
      C.Client->send(std::move(C.Slots.front().Frame));
      ResponsesReturnedC->inc();
    }
    C.Slots.pop_front();
  }
}

std::vector<uint8_t>
Balancer::localMetricsResponse(const frame::Request &Req) {
  std::string Format(Req.Body.begin(), Req.Body.end());
  std::string Body;
  if (Format.empty() || Format == "prom")
    Body = obs::renderPrometheus(Env.metrics());
  else if (Format == "json")
    Body = obs::renderJson(Env.metrics());
  else
    return frame::encodeResponseFrame(frame::Status::BadRequest,
                                      bytesOf("metrics: unknown format"));
  return frame::encodeResponseFrame(
      frame::Status::Ok, std::vector<uint8_t>(Body.begin(), Body.end()));
}

void Balancer::synthesizeErrors(Conn &C, const char *Why) {
  // The wire protocol has no request ids and responses are strictly
  // ordered, so a dead upstream's unanswered requests must be answered
  // *in place* with errors — otherwise every later response would pair
  // with the wrong request.
  for (Slot &S : C.Slots)
    if (!S.Local && !S.Ready && S.ForwardedNs) {
      S.Ready = true;
      S.Frame = errorFrame(Why);
      ErrorsSynthesizedC->inc();
    }
}

//===----------------------------------------------------------------------===//
// Shard lifecycle
//===----------------------------------------------------------------------===//

bool Balancer::drainShard(uint32_t Id,
                          std::function<void(const ShardSnapshot &)> Done) {
  auto It = Shards.find(Id);
  if (It == Shards.end() || It->second.Draining || It->second.Dead)
    return false;
  ShardInfo &S = It->second;
  S.Draining = true;
  S.OnDrained = std::move(Done);
  DrainsC->inc();
  Ring.remove(Id);
  LiveShardsG->set(static_cast<int64_t>(Ring.size()));
  // Move every connection off the shard: each stops forwarding, finishes
  // its outstanding responses, then re-routes. Snapshot the id set —
  // reroutes mutate it.
  std::vector<uint64_t> ConnIds(S.Conns.begin(), S.Conns.end());
  for (uint64_t CId : ConnIds) {
    auto CIt = Conns.find(CId);
    if (CIt == Conns.end())
      continue;
    beginReroute(*CIt->second, /*Abrupt=*/false);
  }
  maybeFinishDrain(Id);
  return true;
}

bool Balancer::killShard(uint32_t Id) {
  auto It = Shards.find(Id);
  if (It == Shards.end() || It->second.Dead)
    return false;
  ShardInfo &S = It->second;
  S.Dead = true;
  S.Draining = false;
  KillsC->inc();
  if (Ring.contains(Id)) {
    Ring.remove(Id);
    LiveShardsG->set(static_cast<int64_t>(Ring.size()));
  }
  std::vector<uint64_t> ConnIds(S.Conns.begin(), S.Conns.end());
  for (uint64_t CId : ConnIds) {
    auto CIt = Conns.find(CId);
    if (CIt == Conns.end())
      continue;
    beginReroute(*CIt->second, /*Abrupt=*/true);
  }
  S.Conns.clear();
  Fab.sendControl(Tab, S.Tab, control::encode(control::Kind::Kill, {}));
  if (S.OnDrained)
    S.OnDrained = nullptr;
  return true;
}

bool Balancer::migrateProcess(uint32_t SrcShard, uint32_t DstShard,
                              rt::proc::Pid P,
                              std::function<void(const MigrationResult &)>
                                  Done) {
  auto SrcIt = Shards.find(SrcShard);
  auto DstIt = Shards.find(DstShard);
  if (SrcIt == Shards.end() || SrcIt->second.Dead ||
      DstIt == Shards.end() || DstIt->second.Dead || SrcShard == DstShard)
    return false;
  control::MigrateCmd Cmd;
  Cmd.RequestId = NextMigrationId++;
  Cmd.DstShard = DstShard;
  Cmd.DstTab = DstIt->second.Tab;
  Cmd.Pid = P;
  MigrationsInFlight.emplace(Cmd.RequestId, std::move(Done));
  Fab.sendControl(Tab, SrcIt->second.Tab,
                  control::encode(control::Kind::Migrate, Cmd.encode()));
  return true;
}

uint64_t Balancer::migrationsDone() const { return MigrationsC->value(); }

void Balancer::beginReroute(Conn &C, bool Abrupt) {
  C.Rerouting = true; // Forwarding pauses; new requests queue.
  if (Abrupt) {
    // Outstanding requests died with the shard: fill their slots with
    // errors now, then move immediately.
    synthesizeErrors(C, "cluster: shard killed");
    flushSlots(C);
    rerouteNow(C);
    return;
  }
  bool Outstanding = false;
  for (const Slot &S : C.Slots)
    if (!S.Local && !S.Ready && S.ForwardedNs) {
      Outstanding = true;
      break;
    }
  if (!Outstanding)
    rerouteNow(C); // Already idle: move now.
  // Else onUpstreamData completes the move once the last response lands.
}

void Balancer::rerouteNow(Conn &C) {
  if (C.Upstream) {
    C.Upstream->setOnData(nullptr);
    C.Upstream->setOnClose(nullptr);
    C.Upstream->close(); // FIN ordered after anything already sent.
    C.Upstream = nullptr;
  }
  detachFromShard(C);
  C.Rerouting = false;
  ReroutedC->inc();
  // Fresh candidate walk against the current ring; queued requests in
  // PendingOut flow to the new shard once it binds.
  beginWalk(C);
}

void Balancer::detachFromShard(Conn &C) {
  if (!C.HasShard)
    return;
  uint32_t SId = C.ShardId;
  C.HasShard = false;
  auto It = Shards.find(SId);
  if (It == Shards.end())
    return;
  It->second.Conns.erase(C.Id);
  maybeFinishDrain(SId);
}

void Balancer::maybeFinishDrain(uint32_t ShardId) {
  auto It = Shards.find(ShardId);
  if (It == Shards.end())
    return;
  ShardInfo &S = It->second;
  if (!S.Draining || S.Dead || !S.Conns.empty() || S.DrainSent)
    return;
  // Every link is closed, and those closes were mailed before this
  // command (same sender, FIFO): by the time the shard sees Drain, its
  // connections are idle or already gone.
  S.DrainSent = true;
  Fab.sendControl(Tab, S.Tab, control::encode(control::Kind::Drain, {}));
}

void Balancer::closeConn(uint64_t Id, bool RefusedSaturatedPath) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  std::unique_ptr<Conn> C = std::move(It->second);
  Conns.erase(It);
  (void)RefusedSaturatedPath;
  detachFromShard(*C);
  if (C->Upstream) {
    C->Upstream->setOnData(nullptr);
    C->Upstream->setOnClose(nullptr);
    C->Upstream->close();
    C->Upstream = nullptr;
  }
  if (C->Client) {
    C->Client->setOnData(nullptr);
    C->Client->setOnClose(nullptr);
    if (!C->ClientClosed)
      C->Client->close();
    C->Client = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

void Balancer::noteSnapshot(const ShardSnapshot &S) {
  auto It = Shards.find(S.ShardId);
  if (It == Shards.end())
    return;
  Snapshots[S.ShardId] = S;
  obs::Registry &Reg = Env.metrics();
  const std::string &P = It->second.Prefix;
  Reg.gauge(P + ".accepted").set(static_cast<int64_t>(S.Accepted));
  Reg.gauge(P + ".refused").set(static_cast<int64_t>(S.Refused));
  Reg.gauge(P + ".active").set(static_cast<int64_t>(S.Active));
  Reg.gauge(P + ".requests_served")
      .set(static_cast<int64_t>(S.RequestsServed));
  Reg.gauge(P + ".request_errors")
      .set(static_cast<int64_t>(S.RequestErrors));
  Reg.gauge(P + ".bytes_in").set(static_cast<int64_t>(S.BytesIn));
  Reg.gauge(P + ".bytes_out").set(static_cast<int64_t>(S.BytesOut));
  Reg.gauge(P + ".service_p50_ns")
      .set(static_cast<int64_t>(S.ServiceP50Ns));
  Reg.gauge(P + ".service_p99_ns")
      .set(static_cast<int64_t>(S.ServiceP99Ns));
  Reg.gauge(P + ".procs_spawned")
      .set(static_cast<int64_t>(S.ProcsSpawned));
  Reg.gauge(P + ".zombies").set(static_cast<int64_t>(S.Zombies));
}

Balancer::Stats Balancer::stats() const {
  Stats Out;
  Out.ConnsAccepted = ConnsAcceptedC->value();
  Out.ConnsRefused = ConnsRefusedC->value();
  Out.RefusedSaturated = RefusedSaturatedC->value();
  Out.Routed = RoutedC->value();
  Out.Rerouted = ReroutedC->value();
  Out.RequestsForwarded = RequestsForwardedC->value();
  Out.ResponsesReturned = ResponsesReturnedC->value();
  Out.ErrorsSynthesized = ErrorsSynthesizedC->value();
  Out.MetricsServed = MetricsServedC->value();
  Out.UpstreamRttNs = UpstreamRttNsH->samples();
  Out.RouteNs = RouteNsH->samples();
  return Out;
}
