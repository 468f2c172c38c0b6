//===- tests/doppio/cluster_test.cpp --------------------------------------==//
//
// Tests for the cluster subsystem (doppio/cluster/): the cross-tab fabric
// (frame delivery edges, FIN ordering, cross-tab ECONNREFUSED), lockstep
// determinism, and the balancer's shard lifecycle — routing, metrics
// interception, graceful drain with zero lost requests, kill with
// synthesized errors, and saturation refusal. On real host threads: the
// ThreadedDriver serving a load and draining a shard, and two JVMs
// running the interpreter at once.
//
//===----------------------------------------------------------------------===//

#include "doppio/cluster/cluster.h"

#include "browser/profile.h"
#include "doppio/backends/in_memory.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"
#include "doppio/cluster/control.h"
#include "doppio/server/client.h"
#include "jvm/classfile/builder.h"
#include "jvm/jvm.h"
#include "jvm/proc_program.h"

#include "gtest/gtest.h"

#include <optional>
#include <thread>

using namespace doppio;
using namespace doppio::browser;
using namespace doppio::cluster;
using doppio::rt::server::FrameClient;

namespace {

std::vector<uint8_t> bytesOf(const char *S) {
  return std::vector<uint8_t>(S, S + std::char_traits<char>::length(S));
}

//===----------------------------------------------------------------------===//
// Fabric: cross-tab delivery edges
//===----------------------------------------------------------------------===//

TEST(Fabric, EchoRoundTripAcrossTabs) {
  Fabric Fab;
  BrowserEnv A(chromeProfile()), B(chromeProfile());
  TabId TA = Fab.attach(A), TB = Fab.attach(B);

  bool Listening = B.net().listen(9000, [](TcpConnection &T) {
    TcpConnection *P = &T;
    P->setOnData([P](const std::vector<uint8_t> &D) { P->send(D); });
  });
  ASSERT_TRUE(Listening);

  std::vector<uint8_t> Echoed;
  bool Connected = false;
  Fab.connect(TA, TB, 9000, [&](Fabric::Endpoint *Ep) {
    ASSERT_NE(Ep, nullptr);
    Connected = true;
    Ep->setOnData([&, Ep](const std::vector<uint8_t> &D) {
      Echoed.insert(Echoed.end(), D.begin(), D.end());
      if (Echoed.size() >= 5)
        Ep->close();
    });
    Ep->send(bytesOf("hello"));
  });

  LockstepDriver(Fab).run(100000);
  EXPECT_TRUE(Connected);
  EXPECT_EQ(Echoed, bytesOf("hello"));
  EXPECT_TRUE(Fab.quiescent());
  EXPECT_GT(Fab.crossings(), 0u);
}

TEST(Fabric, SplitFramesReassembleAcrossTabs) {
  // A doppiod frame sent one byte per mail record must reassemble on the
  // far side; a dangling partial header must neither produce a frame nor
  // corrupt the stream.
  namespace frame = rt::server::frame;
  Fabric Fab;
  BrowserEnv A(chromeProfile()), B(chromeProfile());
  TabId TA = Fab.attach(A), TB = Fab.attach(B);

  frame::Decoder Dec;
  size_t Frames = 0;
  std::vector<uint8_t> Got;
  B.net().listen(9100, [&](TcpConnection &T) {
    T.setOnData([&](const std::vector<uint8_t> &D) {
      Dec.feed(D);
      while (auto P = Dec.next()) {
        ++Frames;
        Got = *P;
      }
    });
  });

  std::vector<uint8_t> Payload = bytesOf("cross-tab frame payload");
  std::vector<uint8_t> Encoded = frame::encode(Payload);
  Fab.connect(TA, TB, 9100, [&](Fabric::Endpoint *Ep) {
    ASSERT_NE(Ep, nullptr);
    for (uint8_t Byte : Encoded)
      Ep->send({Byte});
    // Then a partial next frame: two header bytes of four, never
    // completed.
    Ep->send({0, 0});
  });

  LockstepDriver(Fab).run(100000);
  EXPECT_EQ(Frames, 1u);
  EXPECT_EQ(Got, Payload);
  EXPECT_FALSE(Dec.corrupted());
  EXPECT_EQ(Dec.bufferedBytes(), 2u);
}

TEST(Fabric, FinArrivesAfterDataBothDirections) {
  Fabric Fab;
  BrowserEnv A(chromeProfile()), B(chromeProfile());
  TabId TA = Fab.attach(A), TB = Fab.attach(B);

  // Originator -> gateway: 10 chunks then an immediate close. The
  // listener must have every byte by the time its close handler fires.
  size_t SrvBytes = 0, SrvBytesAtClose = 0;
  bool SrvClosed = false;
  B.net().listen(9200, [&](TcpConnection &T) {
    T.setOnData(
        [&](const std::vector<uint8_t> &D) { SrvBytes += D.size(); });
    T.setOnClose([&] {
      SrvClosed = true;
      SrvBytesAtClose = SrvBytes;
    });
  });
  Fab.connect(TA, TB, 9200, [&](Fabric::Endpoint *Ep) {
    ASSERT_NE(Ep, nullptr);
    for (int I = 0; I < 10; ++I)
      Ep->send(std::vector<uint8_t>(100, 'x'));
    Ep->close();
  });
  LockstepDriver(Fab).run(100000);
  EXPECT_TRUE(SrvClosed);
  EXPECT_EQ(SrvBytesAtClose, 1000u);

  // Gateway -> originator: the listener sends then closes; the endpoint
  // must see the bytes before its close handler.
  size_t CliBytes = 0, CliBytesAtClose = 0;
  bool CliClosed = false;
  B.net().listen(9300, [&](TcpConnection &T) {
    T.send(std::vector<uint8_t>(256, 'y'));
    // Close *after* accept returns: closing inside the accept handler is
    // SimNet's refusal signal and would never establish the connection.
    TcpConnection *P = &T;
    B.loop().post(kernel::Lane::Background, [P] { P->close(); });
  });
  Fab.connect(TA, TB, 9300, [&](Fabric::Endpoint *Ep) {
    ASSERT_NE(Ep, nullptr);
    Ep->setOnData(
        [&](const std::vector<uint8_t> &D) { CliBytes += D.size(); });
    Ep->setOnClose([&] {
      CliClosed = true;
      CliBytesAtClose = CliBytes;
    });
  });
  LockstepDriver(Fab).run(100000);
  EXPECT_TRUE(CliClosed);
  EXPECT_EQ(CliBytesAtClose, 256u);
}

TEST(Fabric, CrossTabConnectionRefused) {
  Fabric Fab;
  BrowserEnv A(chromeProfile()), B(chromeProfile());
  TabId TA = Fab.attach(A), TB = Fab.attach(B);

  // Nothing listening on the port.
  bool RefusedNoListener = false;
  Fab.connect(TA, TB, 9400, [&](Fabric::Endpoint *Ep) {
    RefusedNoListener = Ep == nullptr;
  });

  // A listener that closes inside accept — SimNet's backlog-overflow
  // semantics — must also surface as a refused cross-tab connect.
  B.net().listen(9500, [](TcpConnection &T) { T.close(); });
  bool RefusedOverflow = false;
  Fab.connect(TA, TB, 9500, [&](Fabric::Endpoint *Ep) {
    RefusedOverflow = Ep == nullptr;
  });

  LockstepDriver(Fab).run(100000);
  EXPECT_TRUE(RefusedNoListener);
  EXPECT_TRUE(RefusedOverflow);
  EXPECT_TRUE(Fab.quiescent());
}

TEST(Fabric, ControlPlaneDelivery) {
  Fabric Fab;
  BrowserEnv A(chromeProfile()), B(chromeProfile());
  TabId TA = Fab.attach(A), TB = Fab.attach(B);

  std::optional<TabId> GotFrom;
  std::vector<uint8_t> GotPayload;
  Fab.setControlHandler(TB, [&](TabId From, std::vector<uint8_t> P) {
    GotFrom = From;
    GotPayload = std::move(P);
  });
  Fab.sendControl(TA, TB, control::encode(control::Kind::Drain,
                                          bytesOf("payload")));
  LockstepDriver(Fab).run(100000);

  ASSERT_TRUE(GotFrom.has_value());
  EXPECT_EQ(*GotFrom, TA);
  auto M = control::decode(GotPayload);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->K, control::Kind::Drain);
  EXPECT_EQ(M->Payload, bytesOf("payload"));
}

//===----------------------------------------------------------------------===//
// Cluster: routing, interception, lifecycle
//===----------------------------------------------------------------------===//

/// f<I>.bin as seeded by every shard.
size_t seedSize(size_t I) { return 64 + 251 * I; }

TEST(Cluster, EndToEndRequestsAndMetricsInterception) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  FrameClient C(Cl.balancer().env().net());
  std::vector<rt::server::frame::Response> Responses;
  C.connect(Cl.balancer().port(), [&](bool Ok) {
    ASSERT_TRUE(Ok);
    auto Collect = [&](rt::server::frame::Response R) {
      Responses.push_back(std::move(R));
      if (Responses.size() == 3)
        C.close();
    };
    // Pipelined: shard, balancer-local, shard. The metrics response must
    // still land second — the balancer slots it into response order.
    C.request("work", bytesOf("50 /srv/f2.bin"), Collect);
    C.request("metrics", bytesOf("json"), Collect);
    C.request("work", bytesOf("50 /srv/f3.bin"), Collect);
  });

  auto Rep = Drv.run(1000000);
  ASSERT_LT(Rep.Rounds, 1000000u);
  ASSERT_EQ(Responses.size(), 3u);
  EXPECT_EQ(Responses[0].S, rt::server::frame::Status::Ok);
  EXPECT_EQ(Responses[0].Body.size(), seedSize(2));
  EXPECT_EQ(Responses[1].S, rt::server::frame::Status::Ok);
  EXPECT_NE(Responses[1].text().find("balancer"), std::string::npos);
  EXPECT_EQ(Responses[2].S, rt::server::frame::Status::Ok);
  EXPECT_EQ(Responses[2].Body.size(), seedSize(3));

  Balancer::Stats St = Cl.balancer().stats();
  EXPECT_EQ(St.ConnsAccepted, 1u);
  EXPECT_EQ(St.MetricsServed, 1u);
  EXPECT_EQ(St.RequestsForwarded, 2u);
  EXPECT_EQ(St.ResponsesReturned, 3u);
  EXPECT_EQ(St.ErrorsSynthesized, 0u);
  EXPECT_FALSE(St.UpstreamRttNs.empty());
  EXPECT_FALSE(St.RouteNs.empty());

  // The per-shard proc workers (echo | wc pipelines) ran to completion
  // inside each shard tab during the same lockstep run.
  for (uint32_t S = 0; S < 2; ++S)
    EXPECT_EQ(Cl.shard(S)->workersDone(),
              Cl.shard(S)->config().WorkerPipelines)
        << "shard " << S;
}

TEST(Cluster, SnapshotAggregationUnderShardPrefixes) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  // Phase 1: put some load through so shard stats are non-zero.
  FrameClient C(Cl.balancer().env().net());
  size_t Got = 0;
  C.connect(Cl.balancer().port(), [&](bool Ok) {
    ASSERT_TRUE(Ok);
    for (int I = 0; I < 4; ++I)
      C.request("work", bytesOf("20 /srv/f1.bin"),
                [&](rt::server::frame::Response R) {
                  EXPECT_EQ(R.S, rt::server::frame::Status::Ok);
                  if (++Got == 4)
                    C.close();
                });
  });
  Drv.run(1000000);
  ASSERT_EQ(Got, 4u);

  // Phase 2: shards push snapshots over the control plane; the balancer
  // mirrors them under its claimed "shard" prefixes.
  Cl.shard(0)->pushStats(Cl.balancer().tab());
  Cl.shard(1)->pushStats(Cl.balancer().tab());
  Drv.run(1000000);

  ASSERT_EQ(Cl.balancer().snapshots().size(), 2u);
  uint64_t Served = 0;
  for (const auto &[Id, S] : Cl.balancer().snapshots()) {
    EXPECT_EQ(S.ShardId, Id);
    Served += S.RequestsServed;
    EXPECT_GT(S.VirtualNowNs, 0u);
  }
  EXPECT_EQ(Served, 4u);

  // Phase 3: a metrics request through the front door sees the
  // aggregated view.
  FrameClient C2(Cl.balancer().env().net());
  std::string Body;
  C2.connect(Cl.balancer().port(), [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C2.request("metrics", {}, [&](rt::server::frame::Response R) {
      EXPECT_EQ(R.S, rt::server::frame::Status::Ok);
      Body = R.text();
      C2.close();
    });
  });
  Drv.run(1000000);
  EXPECT_NE(Body.find("shard"), std::string::npos);
  EXPECT_NE(Body.find("balancer"), std::string::npos);
}

TEST(Cluster, LockstepRunsAreDeterministic) {
  // Two identical runs must produce identical virtual timelines: same
  // fabric crossings, same per-tab clocks, same round count.
  struct Fingerprint {
    uint64_t Crossings = 0;
    uint64_t Rounds = 0;
    uint64_t Ok = 0;
    std::vector<uint64_t> Clocks;
    bool operator==(const Fingerprint &O) const {
      return Crossings == O.Crossings && Rounds == O.Rounds && Ok == O.Ok &&
             Clocks == O.Clocks;
    }
  };
  auto RunOnce = [] {
    Cluster::Config Cfg;
    Cfg.Shards = 2;
    Cluster Cl(chromeProfile(), Cfg);
    LockstepDriver Drv(Cl.fabric());
    std::vector<std::unique_ptr<FrameClient>> Clients;
    uint64_t Ok = 0;
    for (int I = 0; I < 6; ++I) {
      auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
      FrameClient *P = C.get();
      P->connect(Cl.balancer().port(), [P, &Ok](bool Connected) {
        if (!Connected)
          return;
        for (int R = 0; R < 3; ++R)
          P->request("work", bytesOf("100 /srv/f2.bin"),
                     [P, R, &Ok](rt::server::frame::Response Resp) {
                       if (Resp.S == rt::server::frame::Status::Ok)
                         ++Ok;
                       if (R == 2)
                         P->close();
                     });
      });
      Clients.push_back(std::move(C));
    }
    auto Rep = Drv.run(1000000);
    Fingerprint F;
    F.Crossings = Cl.fabric().crossings();
    F.Rounds = Rep.Rounds;
    F.Ok = Ok;
    F.Clocks.push_back(Cl.balancer().env().clock().nowNs());
    for (uint32_t S = 0; S < 2; ++S)
      F.Clocks.push_back(Cl.shard(S)->env().clock().nowNs());
    return F;
  };
  Fingerprint A = RunOnce();
  Fingerprint B = RunOnce();
  EXPECT_EQ(A.Ok, 18u);
  EXPECT_TRUE(A == B);
}

TEST(Cluster, DrainUnderLoadLosesNothingAndLeavesNoPendingWork) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  constexpr int NumClients = 12, Requests = 5;
  std::vector<std::unique_ptr<FrameClient>> Clients;
  uint64_t Ok = 0, NotOk = 0;
  for (int I = 0; I < NumClients; ++I) {
    auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
    FrameClient *P = C.get();
    P->connect(Cl.balancer().port(), [P, &Ok, &NotOk](bool Connected) {
      ASSERT_TRUE(Connected);
      for (int R = 0; R < Requests; ++R)
        P->request("work", bytesOf("200 /srv/f1.bin"),
                   [P, R, &Ok, &NotOk](rt::server::frame::Response Resp) {
                     Resp.S == rt::server::frame::Status::Ok ? ++Ok
                                                             : ++NotOk;
                     if (R == Requests - 1)
                       P->close();
                   });
    });
    Clients.push_back(std::move(C));
  }

  // At 3ms virtual — connections established (setup alone costs ~1ms of
  // fabric hops and SimNet latency), workload mid-flight — drain
  // whichever shard is busiest.
  uint32_t Victim = 0;
  uint64_t VictimActive = 0;
  bool DrainDone = false;
  std::optional<ShardSnapshot> Final;
  browser::TimerHandle DrainTimer = Cl.balancer().env().loop().postAfter(
      kernel::Lane::Timer,
      [&] {
        uint64_t Best = 0;
        for (uint32_t S = 0; S < 2; ++S) {
          uint64_t A = Cl.shard(S)->server().stats().Active;
          if (A >= Best) {
            Best = A;
            Victim = S;
          }
        }
        VictimActive = Best;
        bool Started = Cl.drainShard(Victim, [&](const ShardSnapshot &S) {
          DrainDone = true;
          Final = S;
        });
        EXPECT_TRUE(Started);
      },
      msToNs(3));

  auto Rep = Drv.run(1000000);
  ASSERT_LT(Rep.Rounds, 1000000u);

  // Zero lost requests: every pipelined request of every client came back
  // Ok — outstanding ones finished on the old shard, queued ones followed
  // the re-route.
  EXPECT_EQ(Ok, static_cast<uint64_t>(NumClients) * Requests);
  EXPECT_EQ(NotOk, 0u);
  EXPECT_GT(VictimActive, 0u) << "drain landed after the load finished";

  // The drain completed: shard off the ring, DrainDone with a final
  // snapshot, doppiod stopped.
  EXPECT_TRUE(DrainDone);
  ASSERT_TRUE(Final.has_value());
  EXPECT_EQ(Final->ShardId, Victim);
  EXPECT_GT(Final->RequestsServed, 0u);
  EXPECT_EQ(Final->Active, 0u);
  EXPECT_TRUE(Cl.shardDrained(Victim));
  EXPECT_FALSE(Cl.shard(Victim)->server().isRunning());
  EXPECT_EQ(Cl.balancer().liveShards(), 1u);

  // The drained shard's tab reached zero pending kernel work: the drain
  // cancelled the idle sweep along with everything else.
  EXPECT_FALSE(Cl.shardPendingWorkNs(Victim).has_value());
  EXPECT_TRUE(Cl.fabric().quiescent());

  Balancer::Stats St = Cl.balancer().stats();
  EXPECT_EQ(St.ErrorsSynthesized, 0u);
  EXPECT_GT(St.Rerouted, 0u);
}

TEST(Cluster, KillSynthesizesErrorsAndReroutes) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  constexpr int NumClients = 6, Requests = 4;
  std::vector<std::unique_ptr<FrameClient>> Clients;
  uint64_t Ok = 0, Errors = 0;
  for (int I = 0; I < NumClients; ++I) {
    auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
    FrameClient *P = C.get();
    P->connect(Cl.balancer().port(), [P, &Ok, &Errors](bool Connected) {
      ASSERT_TRUE(Connected);
      for (int R = 0; R < Requests; ++R)
        P->request("work", bytesOf("300 /srv/f1.bin"),
                   [P, R, &Ok, &Errors](rt::server::frame::Response Resp) {
                     Resp.S == rt::server::frame::Status::Ok ? ++Ok
                                                             : ++Errors;
                     if (R == Requests - 1)
                       P->close();
                   });
    });
    Clients.push_back(std::move(C));
  }

  uint32_t Victim = 0;
  uint64_t VictimActive = 0;
  browser::TimerHandle KillTimer = Cl.balancer().env().loop().postAfter(
      kernel::Lane::Timer,
      [&] {
        uint64_t Best = 0;
        for (uint32_t S = 0; S < 2; ++S) {
          uint64_t A = Cl.shard(S)->server().stats().Active;
          if (A >= Best) {
            Best = A;
            Victim = S;
          }
        }
        VictimActive = Best;
        EXPECT_TRUE(Cl.killShard(Victim));
      },
      msToNs(3));

  auto Rep = Drv.run(1000000);
  ASSERT_LT(Rep.Rounds, 1000000u);

  // Every request got exactly one response; forwarded-but-unanswered ones
  // came back as synthesized errors, in order.
  EXPECT_EQ(Ok + Errors, static_cast<uint64_t>(NumClients) * Requests);
  EXPECT_GT(VictimActive, 0u) << "kill landed after the load finished";
  Balancer::Stats St = Cl.balancer().stats();
  EXPECT_EQ(Errors, St.ErrorsSynthesized);
  EXPECT_GT(St.ErrorsSynthesized, 0u);
  EXPECT_GT(St.Rerouted, 0u);

  // The killed shard tore down cleanly: final snapshot reported, no
  // pending kernel work, ring shrunk.
  EXPECT_TRUE(Cl.balancer().snapshots().count(Victim));
  EXPECT_FALSE(Cl.shard(Victim)->server().isRunning());
  EXPECT_FALSE(Cl.shardPendingWorkNs(Victim).has_value());
  EXPECT_EQ(Cl.balancer().liveShards(), 1u);
  EXPECT_TRUE(Cl.fabric().quiescent());
}

TEST(Cluster, SaturatedFleetRefusesVisibly) {
  // One shard, one-connection capacity, zero backlog: the second client's
  // upstream walk exhausts every candidate and the front door refuses
  // with accounting, never a silent drop.
  Cluster::Config Cfg;
  Cfg.Shards = 1;
  Cfg.ShardTemplate.MaxConnections = 1;
  Cfg.ShardTemplate.Backlog = 0;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  FrameClient C1(Cl.balancer().env().net());
  FrameClient C2(Cl.balancer().env().net());
  std::optional<rt::server::frame::Response> R2;
  C1.connect(Cl.balancer().port(), [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C1.request("work", bytesOf("10 /srv/f0.bin"),
               [&](rt::server::frame::Response R) {
                 EXPECT_EQ(R.S, rt::server::frame::Status::Ok);
                 // Shard slot now provably held by C1; bring in C2.
                 C2.connect(Cl.balancer().port(), [&](bool Ok2) {
                   EXPECT_TRUE(Ok2); // Front door accepts...
                   C2.request("work", bytesOf("10 /srv/f0.bin"),
                              [&](rt::server::frame::Response R) {
                                R2 = std::move(R); // ...routing refuses.
                                C1.close();
                              });
                 });
               });
  });

  Drv.run(1000000);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(R2->S, rt::server::frame::Status::Error);
  EXPECT_EQ(Cl.balancer().stats().RefusedSaturated, 1u);
}

TEST(Cluster, FrontDoorCapRefuses) {
  Cluster::Config Cfg;
  Cfg.Shards = 1;
  Cfg.Bal.MaxConnections = 1;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  FrameClient C1(Cl.balancer().env().net());
  FrameClient C2(Cl.balancer().env().net());
  std::optional<bool> C2Connected;
  C1.connect(Cl.balancer().port(), [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C2.connect(Cl.balancer().port(), [&](bool Ok2) {
      C2Connected = Ok2;
      C1.close();
    });
  });

  Drv.run(1000000);
  ASSERT_TRUE(C2Connected.has_value());
  EXPECT_FALSE(*C2Connected);
  EXPECT_EQ(Cl.balancer().stats().ConnsRefused, 1u);
}

TEST(Cluster, EmptyRingRefusesAsSaturated) {
  Cluster::Config Cfg;
  Cfg.Shards = 1;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  // Drain the only shard (idle, so it completes immediately).
  bool Drained = false;
  Cl.balancer().env().loop().post(kernel::Lane::Background, [&] {
    Cl.drainShard(0, [&](const ShardSnapshot &) { Drained = true; });
  });
  Drv.run(1000000);
  ASSERT_TRUE(Drained);
  EXPECT_EQ(Cl.balancer().liveShards(), 0u);

  // With nothing on the ring the walk exhausts synchronously inside the
  // accept path, so the close surfaces as a refused connect (SimNet's
  // close-inside-accept semantics) — and it is accounted as saturation.
  FrameClient C(Cl.balancer().env().net());
  std::optional<bool> Connected;
  C.connect(Cl.balancer().port(), [&](bool Ok) { Connected = Ok; });
  Drv.run(1000000);
  ASSERT_TRUE(Connected.has_value());
  EXPECT_FALSE(*Connected);
  EXPECT_EQ(Cl.balancer().stats().RefusedSaturated, 1u);
}

TEST(Cluster, LiveSpawnTakesNewConnections) {
  Cluster::Config Cfg;
  Cfg.Shards = 1;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  auto RunClients = [&](int N) {
    std::vector<std::unique_ptr<FrameClient>> Clients;
    uint64_t Ok = 0;
    for (int I = 0; I < N; ++I) {
      auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
      FrameClient *P = C.get();
      P->connect(Cl.balancer().port(), [P, &Ok](bool Connected) {
        ASSERT_TRUE(Connected);
        P->request("work", bytesOf("20 /srv/f0.bin"),
                   [P, &Ok](rt::server::frame::Response R) {
                     if (R.S == rt::server::frame::Status::Ok)
                       ++Ok;
                     P->close();
                   });
      });
      Clients.push_back(std::move(C));
    }
    Drv.run(1000000);
    return Ok;
  };

  EXPECT_EQ(RunClients(4), 4u);

  // Live-add a shard between lockstep rounds; the consistent-hash ring
  // now routes a share of fresh connections to it.
  uint32_t NewId = Cl.spawnShard();
  EXPECT_EQ(Cl.balancer().liveShards(), 2u);
  EXPECT_EQ(RunClients(16), 16u);
  EXPECT_GT(Cl.shard(NewId)->server().stats().Accepted, 0u)
      << "no fresh connection landed on the spawned shard";
  EXPECT_GT(Cl.shard(0)->server().stats().Accepted, 0u);
}

//===----------------------------------------------------------------------===//
// Live migration (DESIGN.md §16)
//===----------------------------------------------------------------------===//

/// class Ticker — one deterministic println per iteration plus a 2 ms
/// nap every 300 (same shape as bench/fig8_migrate.cpp; the naps keep
/// lockstep rounds short enough for the Migrate frame to land mid-run).
std::vector<uint8_t> tickerClassBytes(int N) {
  jvm::ClassBuilder B("Ticker");
  jvm::MethodBuilder &M = B.method(jvm::AccPublic | jvm::AccStatic, "main",
                                   "([Ljava/lang/String;)V");
  jvm::MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.lconst(1).lstore(1);
  M.iconst(0).istore(3);
  M.bind(Loop).iload(3).iconst(N).branch(jvm::Op::IfIcmpge, Done);
  M.lload(1)
      .lconst(1103515245)
      .op(jvm::Op::Lmul)
      .iload(3)
      .op(jvm::Op::I2l)
      .op(jvm::Op::Ladd)
      .lstore(1);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.lload(1)
      .lconst(1000000)
      .op(jvm::Op::Lrem)
      .op(jvm::Op::L2i)
      .invokevirtual("java/io/PrintStream", "println", "(I)V");
  jvm::MethodBuilder::Label NoNap = M.newLabel();
  M.iload(3)
      .iconst(300)
      .op(jvm::Op::Irem)
      .iconst(299)
      .branch(jvm::Op::IfIcmpne, NoNap);
  M.lconst(2).invokestatic("java/lang/Thread", "sleep", "(J)V");
  M.bind(NoNap);
  M.iinc(3, 1).branch(jvm::Op::Goto, Loop);
  M.bind(Done).op(jvm::Op::Return);
  return B.bytes();
}

/// Two shards, both serving the same classpath and bound to revive "jvm"
/// images — any shard is a valid migration target.
Cluster::Config migratableConfig(const std::vector<uint8_t> &Klass) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cfg.ShardTemplate.Setup = [&Klass](Shard &S) {
    S.fs().mkdirp("/classes", [](std::optional<rt::ApiError> E) {
      ASSERT_FALSE(E.has_value());
    });
    S.fs().writeFile("/classes/Ticker.class", Klass,
                     [](std::optional<rt::ApiError> E) {
                       ASSERT_FALSE(E.has_value());
                     });
    jvm::registerJvmRestore(S.checkpoints());
  };
  return Cfg;
}

rt::proc::Pid spawnTicker(Shard &S) {
  rt::proc::ProcessTable::SpawnSpec Spec;
  Spec.Name = "java";
  Spec.Prog = jvm::makeJvmProgram({"Ticker", {}, jvm::JvmOptions()});
  return S.procs().spawn(std::move(Spec));
}

TEST(Cluster, LiveMigrationMovesARunningJvmGuest) {
  std::vector<uint8_t> Klass = tickerClassBytes(1200);

  // Baseline: the guest runs start-to-finish on shard 0, untouched.
  std::string Baseline;
  {
    Cluster Cl(chromeProfile(), migratableConfig(Klass));
    LockstepDriver Drv(Cl.fabric());
    Drv.run(10000000);
    rt::proc::Pid P = spawnTicker(*Cl.shard(0));
    Drv.run(10000000);
    rt::proc::Process *Pr = Cl.shard(0)->procs().find(P);
    ASSERT_NE(Pr, nullptr);
    Baseline = Pr->state().capturedStdout();
    ASSERT_FALSE(Baseline.empty());
  }

  // Migrated: same guest starts on shard 0; once it has produced some
  // output the balancer moves it to shard 1 mid-run.
  Cluster Cl(chromeProfile(), migratableConfig(Klass));
  LockstepDriver Drv(Cl.fabric());
  Drv.run(10000000);
  Shard *Src = Cl.shard(0);
  rt::proc::Pid P = spawnTicker(*Src);

  Balancer::MigrationResult MR;
  bool HaveResult = false;
  bool Requested = false;
  std::function<void()> Probe = [&] {
    if (Requested)
      return;
    rt::proc::Process *Pr = Src->procs().find(P);
    ASSERT_NE(Pr, nullptr);
    if (!Pr->alive())
      return; // Finished before the threshold; asserts below will fail.
    if (Pr->state().capturedStdout().size() >= 500) {
      Requested = true;
      EXPECT_TRUE(Cl.migrateProcess(
          0, 1, P, [&](const Balancer::MigrationResult &R) {
            MR = R;
            HaveResult = true;
          }));
      return;
    }
    // Resume lane: guest slices run there and it outranks Timer, so a
    // Timer-lane probe would starve until the guest exits.
    Src->env().loop().postAfter(
        kernel::Lane::Resume, [&Probe] { Probe(); }, browser::usToNs(50));
  };
  Probe();
  auto Rep = Drv.run(10000000);
  ASSERT_LT(Rep.Rounds, 10000000u) << "cluster never quiesced";

  ASSERT_TRUE(HaveResult) << "migration result never arrived";
  ASSERT_TRUE(MR.Ok) << MR.Error;
  EXPECT_EQ(MR.SrcShard, 0u);
  EXPECT_EQ(MR.DstShard, 1u);
  EXPECT_GT(MR.BlobBytes, 0u);
  EXPECT_GT(MR.CaptureUs, 0u);
  EXPECT_GT(MR.RestoreUs, 0u);
  EXPECT_EQ(Cl.balancer().migrationsDone(), 1u);

  // The local copy died at the checkpoint instant, by signal; its stdout
  // froze there (reaped records stay addressable).
  rt::proc::Process *SrcPr = Src->procs().find(P);
  ASSERT_NE(SrcPr, nullptr);
  EXPECT_FALSE(SrcPr->alive());
  EXPECT_TRUE(SrcPr->signaled());
  std::string Prefix = SrcPr->state().capturedStdout();
  ASSERT_FALSE(Prefix.empty());
  ASSERT_LT(Prefix.size(), Baseline.size());

  // The revived copy finished on shard 1; the reassembled stream is
  // bit-identical to the uninterrupted baseline.
  rt::proc::Process *DstPr = Cl.shard(1)->procs().find(MR.NewPid);
  ASSERT_NE(DstPr, nullptr);
  EXPECT_EQ(DstPr->exitCode(), 0);
  EXPECT_EQ(Prefix + DstPr->state().capturedStdout(), Baseline);
}

/// class Ticker — print 1, park in a 60 s sleep, print 2. While the guest
/// is asleep its wake-up lives in a host closure, so checkpointReady
/// returns EAGAIN on every attempt: the retry-cap path's worst case.
std::vector<uint8_t> sleeperClassBytes() {
  jvm::ClassBuilder B("Ticker");
  jvm::MethodBuilder &M = B.method(jvm::AccPublic | jvm::AccStatic, "main",
                                   "([Ljava/lang/String;)V");
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iconst(1).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.lconst(60000).invokestatic("java/lang/Thread", "sleep", "(J)V");
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.iconst(2).invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.op(jvm::Op::Return);
  return B.bytes();
}

TEST(Cluster, MigrationRetryCapGivesUpOnNonQuiescentGuest) {
  std::vector<uint8_t> Klass = sleeperClassBytes();
  Cluster::Config Cfg = migratableConfig(Klass);
  Cfg.MigrateRetryCap = 5;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());
  Drv.run(10000000);
  Shard *Src = Cl.shard(0);
  rt::proc::Pid P = spawnTicker(*Src);

  // Request the migration only once the guest is provably inside its
  // 60 s sleep: stdout has the first line AND one virtual millisecond has
  // passed since (printing costs far less virtual compute than that, so
  // the only way the clock advanced is the guest blocking on the timer).
  Balancer::MigrationResult MR;
  bool HaveResult = false;
  bool Requested = false;
  std::function<void()> Probe = [&] {
    if (Requested)
      return;
    rt::proc::Process *Pr = Src->procs().find(P);
    ASSERT_NE(Pr, nullptr);
    if (Pr->state().capturedStdout().empty()) {
      Src->env().loop().postAfter(
          kernel::Lane::Resume, [&Probe] { Probe(); }, browser::usToNs(50));
      return;
    }
    Requested = true;
    Src->env().loop().postAfter(
        kernel::Lane::Timer,
        [&] {
          EXPECT_TRUE(Cl.migrateProcess(
              0, 1, P, [&](const Balancer::MigrationResult &R) {
                MR = R;
                HaveResult = true;
              }));
        },
        browser::usToNs(1000));
  };
  Probe();
  auto Rep = Drv.run(10000000);
  ASSERT_LT(Rep.Rounds, 10000000u) << "cluster never quiesced";

  // The source exhausted its cap and reported failure instead of
  // spinning forever; every retry is visible on the shard's registry.
  ASSERT_TRUE(HaveResult) << "migration result never arrived";
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("not quiescent"), std::string::npos) << MR.Error;
  EXPECT_EQ(
      Src->env().metrics().counter("cluster.migrate_retries").value(), 5u);
  EXPECT_EQ(Cl.balancer().migrationsDone(), 0u);

  // The guest was untouched by the failed attempt: it woke on the source
  // shard, printed its second line, and exited normally.
  rt::proc::Process *Pr = Src->procs().find(P);
  ASSERT_NE(Pr, nullptr);
  EXPECT_FALSE(Pr->alive());
  EXPECT_EQ(Pr->exitCode(), 0);
  EXPECT_EQ(Pr->state().capturedStdout(), "1\n2\n");
}

TEST(Cluster, MigrationFailuresReportCleanly) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());
  Drv.run(10000000);

  // Bad endpoints are rejected synchronously.
  auto Nop = [](const Balancer::MigrationResult &) {};
  EXPECT_FALSE(Cl.migrateProcess(0, 0, 2, Nop)) << "same shard";
  EXPECT_FALSE(Cl.migrateProcess(0, 7, 2, Nop)) << "unknown destination";
  EXPECT_FALSE(Cl.migrateProcess(7, 1, 2, Nop)) << "unknown source";

  // A missing pid fails on the source shard and reports back Ok=false.
  Balancer::MigrationResult MR;
  bool HaveResult = false;
  EXPECT_TRUE(Cl.migrateProcess(0, 1, 999,
                                [&](const Balancer::MigrationResult &R) {
                                  MR = R;
                                  HaveResult = true;
                                }));
  Drv.run(10000000);
  ASSERT_TRUE(HaveResult);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("ESRCH"), std::string::npos) << MR.Error;
  EXPECT_EQ(Cl.balancer().migrationsDone(), 0u);
  EXPECT_EQ(
      Cl.balancer().env().metrics().counter("balancer.migration_failures")
          .value(),
      1u);
}

//===----------------------------------------------------------------------===//
// Host threads: the ThreadedDriver, and JVMs on concurrent host threads
//===----------------------------------------------------------------------===//

TEST(ThreadedDriver, ServesEveryRequestAndDrainsClean) {
  Cluster::Config Cfg;
  Cfg.Shards = 2;
  Cluster Cl(chromeProfile(), Cfg);
  ThreadedDriver Drv(Cl.fabric());

  // Clients, counters and the drain all live on the balancer tab's thread;
  // join() orders them before the checks below.
  constexpr uint64_t NumClients = 8, Requests = 4;
  std::vector<std::unique_ptr<FrameClient>> Clients;
  uint64_t Ok = 0, NotOk = 0;
  bool DrainStarted = false, DrainDone = false;
  std::optional<ShardSnapshot> Final;
  auto NoteAnswered = [&](bool Good, uint64_t N) {
    (Good ? Ok : NotOk) += N;
    if (Ok + NotOk != NumClients * Requests)
      return;
    // The whole load is answered: drain shard 0, then stop the threads.
    DrainStarted = Cl.drainShard(0, [&](const ShardSnapshot &S) {
      DrainDone = true;
      Final = S;
      Drv.requestStop();
    });
    if (!DrainStarted)
      Drv.requestStop();
  };
  for (uint64_t I = 0; I < NumClients; ++I) {
    auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
    FrameClient *P = C.get();
    P->connect(Cl.balancer().port(), [P, &NoteAnswered](bool Connected) {
      if (!Connected) {
        NoteAnswered(false, Requests);
        return;
      }
      for (uint64_t R = 0; R < Requests; ++R)
        P->request("work", bytesOf("50 /srv/f1.bin"),
                   [P, R, &NoteAnswered](rt::server::frame::Response Resp) {
                     if (R == Requests - 1)
                       P->close();
                     NoteAnswered(Resp.S == rt::server::frame::Status::Ok,
                                  1);
                   });
    });
    Clients.push_back(std::move(C));
  }

  Drv.start();
  Drv.join();
  // Mail still in flight (closes, control traffic) finishes on a
  // lockstep pass.
  auto Rep = LockstepDriver(Cl.fabric()).run(1000000);
  ASSERT_LT(Rep.Rounds, 1000000u);

  EXPECT_EQ(Ok, NumClients * Requests);
  EXPECT_EQ(NotOk, 0u);
  EXPECT_TRUE(DrainStarted);
  EXPECT_TRUE(DrainDone);
  ASSERT_TRUE(Final.has_value());
  EXPECT_EQ(Final->Active, 0u);
  EXPECT_TRUE(Cl.shardDrained(0));
  EXPECT_FALSE(Cl.shardPendingWorkNs(0).has_value());
  EXPECT_EQ(Cl.balancer().liveShards(), 1u);
  EXPECT_EQ(Cl.balancer().stats().ErrorsSynthesized, 0u);
  EXPECT_TRUE(Cl.fabric().quiescent());
}

/// Boots a JVM in a tab of its own and runs a greet-and-sum program to
/// completion; returns the exit code and what the program printed.
std::string runHelloJvm() {
  BrowserEnv Env(chromeProfile());
  jvm::ClassBuilder Hello("demo/Hello");
  jvm::MethodBuilder &M = Hello.method(jvm::AccPublic | jvm::AccStatic,
                                       "main", "([Ljava/lang/String;)V");
  jvm::MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1).iconst(1).istore(2);
  M.bind(Loop).iload(2).iconst(10).branch(jvm::Op::IfIcmpgt, Done);
  M.iload(1).iload(2).iload(2).op(jvm::Op::Imul).op(jvm::Op::Iadd)
      .istore(1)
      .iinc(2, 1)
      .branch(jvm::Op::Goto, Loop);
  M.bind(Done)
      .getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
      .iload(1)
      .invokevirtual("java/io/PrintStream", "println", "(I)V")
      .op(jvm::Op::Return);
  Env.server().addFile("/classes/demo/Hello.class", Hello.bytes());

  rt::Process Proc;
  auto Mounted = std::make_unique<rt::fs::MountableFileSystem>(
      std::make_unique<rt::fs::InMemoryBackend>(Env));
  Mounted->mount("/classes",
                 std::make_unique<rt::fs::XhrBackend>(Env, "/classes"));
  rt::fs::FileSystem Fs(Env, Proc, std::move(Mounted));
  jvm::Jvm Vm(Env, Fs, Proc);
  int Exit = Vm.runMainToCompletion("demo/Hello", {});
  return std::to_string(Exit) + ":" + Proc.capturedStdout();
}

TEST(ThreadedJvm, TwoHostThreadsRunTheInterpreterAtOnce) {
  // Each thread owns its whole tab; only the interpreter's process-wide
  // state is shared, and both threads enter it for the first time
  // together.
  std::string Out[2];
  std::thread A([&] { Out[0] = runHelloJvm(); });
  std::thread B([&] { Out[1] = runHelloJvm(); });
  A.join();
  B.join();
  EXPECT_EQ(Out[0], "0:385\n");
  EXPECT_EQ(Out[1], Out[0]);
}

} // namespace
