//===- tests/doppio/obs_test.cpp ------------------------------------------==//
//
// Tests for the observability subsystem (src/doppio/obs/): instrument
// determinism on the virtual clock, registry naming and enumeration,
// causal span propagation through kernel hops, the exposition formats,
// and the doppiod `metrics` handler round-trip over the frame codec.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/fs.h"
#include "doppio/obs/exposition.h"
#include "doppio/obs/registry.h"
#include "doppio/server/client.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"

#include "gtest/gtest.h"

#include <deque>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::browser;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

TEST(Instruments, CounterAndGaugeBasics) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  obs::Gauge G;
  G.set(7);
  G.add(5);
  G.sub(2);
  EXPECT_EQ(G.value(), 10);
  G.noteMax(3); // Below: no change.
  EXPECT_EQ(G.value(), 10);
  G.noteMax(25);
  EXPECT_EQ(G.value(), 25);
}

TEST(Instruments, HistogramExactPercentilesMatchLegacyMath) {
  obs::Histogram H;
  std::vector<uint64_t> Values{50000, 10000, 40000, 20000, 30000};
  for (uint64_t V : Values)
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sumNs(), 150000u);
  EXPECT_EQ(H.maxNs(), 50000u);
  // KeepSamples default: percentile() is the exact nearest-rank result,
  // bit-identical to what the fig6/fig7 harnesses always computed.
  EXPECT_EQ(H.percentile(50.0), obs::percentileNs(Values, 50.0));
  EXPECT_EQ(H.percentile(99.0), obs::percentileNs(Values, 99.0));
  EXPECT_EQ(H.samples(), Values);
}

TEST(Instruments, HistogramBucketsAreCumulativeAndCoverEverything) {
  obs::Histogram H(obs::Histogram::Options{/*KeepSamples=*/false});
  H.record(500);            // < 1us: first bucket.
  H.record(3000);           // ~3us.
  H.record(1ull << 40);     // Far beyond the last finite bound: +Inf bucket.
  EXPECT_TRUE(H.samples().empty());
  EXPECT_EQ(H.count(), 3u);
  uint64_t Total = 0;
  for (uint64_t B : H.buckets())
    Total += B;
  EXPECT_EQ(Total, 3u); // Buckets are per-bucket counts; nothing dropped.
  // Bounds are monotonically increasing and end at +Inf.
  for (size_t I = 1; I < obs::Histogram::NumBuckets; ++I)
    EXPECT_GT(obs::Histogram::bucketBoundNs(I),
              obs::Histogram::bucketBoundNs(I - 1));
  EXPECT_EQ(obs::Histogram::bucketBoundNs(obs::Histogram::NumBuckets - 1),
            UINT64_MAX);
  // Without samples, percentile degrades to the bucket upper bound.
  EXPECT_EQ(H.percentile(50.0), obs::Histogram::bucketBoundNs(2));
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Registry, CellsAreCreatedOnFirstUseWithStableReferences) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::Counter &A = Reg.counter("x.count");
  A.inc(3);
  EXPECT_TRUE(Reg.hasCounter("x.count"));
  EXPECT_FALSE(Reg.hasCounter("x.other"));
  // Same name, same cell — and creating more cells must not move it.
  for (int I = 0; I < 100; ++I)
    Reg.counter("x.filler" + std::to_string(I));
  EXPECT_EQ(&Reg.counter("x.count"), &A);
  EXPECT_EQ(A.value(), 3u);
  EXPECT_EQ(Reg.instrumentCount(), 101u);
}

TEST(Registry, ClaimPrefixDisambiguatesInstances) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  EXPECT_EQ(Reg.claimPrefix("server"), "server");
  EXPECT_EQ(Reg.claimPrefix("server"), "server2");
  EXPECT_EQ(Reg.claimPrefix("server"), "server3");
  EXPECT_EQ(Reg.claimPrefix("fs"), "fs");
}

TEST(Registry, EnumerationIsNameSortedAndDeterministic) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  Reg.counter("zeta");
  Reg.counter("alpha");
  Reg.counter("mid");
  std::vector<std::string> Names;
  Reg.forEachCounter(
      [&](const std::string &N, const obs::Counter &) { Names.push_back(N); });
  EXPECT_EQ(Names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(Registry, ResetAllZeroesCellsButKeepsThem) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::Counter &C = Reg.counter("c");
  obs::Gauge &G = Reg.gauge("g");
  obs::Histogram &H = Reg.histogram("h");
  C.inc(5);
  G.set(-3);
  H.record(1000);
  Reg.spans().end(Reg.spans().begin("op"));
  Reg.resetAll();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(Reg.spans().finished(), 0u);
  EXPECT_TRUE(Reg.spans().recent().empty());
  EXPECT_EQ(&Reg.counter("c"), &C); // Same cell after reset.
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST(Spans, DeterministicOnVirtualClock) {
  VirtualClock Clock;
  obs::SpanStore S(Clock);
  Clock.chargeNs(100);
  obs::SpanId Id = S.begin("op");
  Clock.chargeNs(250);
  S.end(Id);
  ASSERT_EQ(S.recent().size(), 1u);
  const obs::Span &Sp = S.recent().back();
  EXPECT_EQ(Sp.Name, "op");
  EXPECT_EQ(Sp.StartNs, 100u);
  EXPECT_EQ(Sp.EndNs, 350u);
  EXPECT_EQ(Sp.durationNs(), 250u);
  EXPECT_EQ(Sp.Parent, 0u);
}

TEST(Spans, ScopeNestsAndRestores) {
  VirtualClock Clock;
  obs::SpanStore S(Clock);
  EXPECT_EQ(S.current(), 0u);
  obs::SpanId Outer = S.begin("outer");
  {
    obs::SpanStore::Scope A(S, Outer);
    EXPECT_EQ(S.current(), Outer);
    obs::SpanId Inner = S.begin("inner"); // Parented under Outer.
    {
      obs::SpanStore::Scope B(S, Inner);
      EXPECT_EQ(S.current(), Inner);
    }
    EXPECT_EQ(S.current(), Outer);
    S.end(Inner);
  }
  EXPECT_EQ(S.current(), 0u);
  S.end(Outer);
  ASSERT_EQ(S.recent().size(), 2u);
  EXPECT_EQ(S.recent()[0].Name, "inner");
  EXPECT_EQ(S.recent()[0].Parent, Outer);
}

TEST(Spans, RetentionIsBounded) {
  VirtualClock Clock;
  obs::SpanStore S(Clock, /*Retain=*/4);
  for (int I = 0; I < 10; ++I)
    S.end(S.begin("op" + std::to_string(I)));
  EXPECT_EQ(S.recent().size(), 4u);
  EXPECT_EQ(S.recent().front().Name, "op6"); // Oldest surviving.
  EXPECT_EQ(S.finished(), 10u);              // Totals keep counting.
}

void expectSameSpan(const obs::Span &A, const obs::Span &B) {
  EXPECT_EQ(A.Id, B.Id);
  EXPECT_EQ(A.Parent, B.Parent);
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.StartNs, B.StartNs);
  EXPECT_EQ(A.EndNs, B.EndNs);
  EXPECT_EQ(A.QueueDelayNs, B.QueueDelayNs);
}

TEST(Spans, SeededOpenTableMatchesAReferenceMap) {
  // More than a thousand spans open at once (the table grows several
  // times), ended in random order (backward-shift deletion), checked op by
  // op against a std::map.
  constexpr size_t Retain = 50;
  VirtualClock Clock;
  obs::SpanStore S(Clock, Retain);
  std::mt19937_64 Rng(7);
  auto pick = [&](uint64_t N) { return Rng() % N; };
  std::map<obs::SpanId, obs::Span> Open;
  std::vector<obs::SpanId> OpenIds;
  std::deque<obs::Span> Finished;
  uint64_t Ended = 0;
  obs::SpanId LastId = 0;

  auto begin = [&] {
    obs::SpanId Parent = OpenIds.empty() ? 0 : OpenIds[pick(OpenIds.size())];
    std::string Name = "op" + std::to_string(pick(1000));
    obs::SpanId Id = S.beginChildOf(Name, Parent);
    ASSERT_EQ(Id, LastId + 1) << "ids are minted sequentially";
    LastId = Id;
    obs::Span Want;
    Want.Id = Id;
    Want.Parent = Parent;
    Want.Name = Name;
    Want.StartNs = Clock.nowNs();
    Open.emplace(Id, Want);
    OpenIds.push_back(Id);
  };
  auto endAt = [&](size_t Index) {
    obs::SpanId Id = OpenIds[Index];
    OpenIds[Index] = OpenIds.back();
    OpenIds.pop_back();
    S.end(Id);
    obs::Span Done = Open.at(Id);
    Open.erase(Id);
    Done.EndNs = Clock.nowNs();
    ++Ended;
    Finished.push_back(Done);
    if (Finished.size() > Retain)
      Finished.pop_front();
  };
  auto step = [&](uint64_t BeginWeight) {
    Clock.chargeNs(pick(100));
    uint64_t Roll = pick(100);
    if (Roll < BeginWeight || OpenIds.empty()) {
      begin();
    } else if (Roll < 70) {
      endAt(pick(OpenIds.size()));
    } else if (Roll < 85) {
      // Queue delay for an open span, an ended one, or one never minted.
      obs::SpanId Id = pick(LastId + 10);
      uint64_t Ns = pick(1000);
      S.addQueueDelay(Id, Ns);
      auto It = Open.find(Id);
      if (It != Open.end())
        It->second.QueueDelayNs += Ns;
    } else {
      // Ending an unknown or already-ended id is a no-op.
      obs::SpanId Id = pick(LastId + 10);
      if (!Open.count(Id))
        S.end(Id);
    }
    ASSERT_EQ(S.openCount(), Open.size());
  };
  auto check = [&] {
    ASSERT_EQ(S.openCount(), Open.size());
    for (const auto &[Id, Want] : Open) {
      const obs::Span *Got = S.findOpen(Id);
      ASSERT_NE(Got, nullptr) << Id;
      expectSameSpan(*Got, Want);
    }
    EXPECT_EQ(S.findOpen(0), nullptr);
    EXPECT_EQ(S.findOpen(LastId + 1), nullptr);
    EXPECT_EQ(S.started(), LastId);
    EXPECT_EQ(S.finished(), Ended);
    ASSERT_EQ(S.recent().size(), Finished.size());
    EXPECT_LE(S.recent().size(), Retain);
    for (size_t I = 0; I < Finished.size(); ++I)
      expectSameSpan(S.recent()[I], Finished[I]);
    for (const obs::Span &Done : Finished)
      EXPECT_EQ(S.findOpen(Done.Id), nullptr);
  };

  // Grow past a thousand open spans, then churn, then drain.
  while (Open.size() < 1200)
    step(/*BeginWeight=*/55);
  check();
  for (int I = 0; I < 20000; ++I) {
    step(/*BeginWeight=*/35);
    if (I % 1000 == 0)
      check();
  }
  check();
  while (!OpenIds.empty())
    endAt(pick(OpenIds.size()));
  check();
  EXPECT_EQ(S.openCount(), 0u);

  S.reset();
  EXPECT_EQ(S.openCount(), 0u);
  EXPECT_TRUE(S.recent().empty());
  obs::SpanId After = S.begin("after-reset");
  EXPECT_GT(After, LastId) << "ids keep increasing across reset";
  EXPECT_NE(S.findOpen(After), nullptr);
}

TEST(Spans, IdPropagatesThroughAKernelHop) {
  BrowserEnv Env(chromeProfile());
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Root = Spans.begin("root");
  obs::SpanId Child = 0;
  {
    // Root is current while the work is *posted*; the kernel stamps it on
    // the work item, and the loop restores it around the dispatch.
    obs::SpanStore::Scope Scope(Spans, Root);
    Env.loop().post(kernel::Lane::Background, [&] {
      EXPECT_EQ(Spans.current(), Root);
      Child = Spans.begin("child");
      Spans.end(Child);
    });
  }
  EXPECT_EQ(Spans.current(), 0u); // Not current outside the scope...
  Env.loop().run();               // ...yet the hop still carries it.
  Spans.end(Root);
  ASSERT_NE(Child, 0u);
  ASSERT_EQ(Spans.recent().size(), 2u);
  EXPECT_EQ(Spans.recent()[0].Name, "child");
  EXPECT_EQ(Spans.recent()[0].Parent, Root);
}

TEST(Spans, KernelQueueDelayIsAttributedToTheOpenSpan) {
  BrowserEnv Env(chromeProfile());
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Root = Spans.begin("root");
  // First event charges 5us of virtual time; the span's event, enqueued
  // at t=0 behind it, therefore waits 5us in the lane.
  Env.loop().post(kernel::Lane::Background,
                  [&] { Env.clock().chargeNs(5000); });
  {
    obs::SpanStore::Scope Scope(Spans, Root);
    Env.loop().post(kernel::Lane::Background, [] {});
  }
  Env.loop().run();
  const obs::Span *Open = Spans.findOpen(Root);
  ASSERT_NE(Open, nullptr);
  EXPECT_EQ(Open->QueueDelayNs, 5000u);
  Spans.end(Root);
  // Once ended, late queue-delay reports are dropped.
  Spans.addQueueDelay(Root, 999);
  EXPECT_EQ(Spans.recent().back().QueueDelayNs, 5000u);
}

//===----------------------------------------------------------------------===//
// Legacy views are registry-backed
//===----------------------------------------------------------------------===//

TEST(Views, LoopStatsAndKernelCountersComeFromTheRegistry) {
  BrowserEnv Env(chromeProfile());
  Env.loop().post(kernel::Lane::Background,
                  [&] { Env.clock().chargeNs(1000); });
  Env.loop().run();
  EventLoop::Stats S = Env.loop().stats();
  EXPECT_EQ(S.EventsRun, 1u);
  EXPECT_EQ(S.TotalEventNs, 1000u);
  EXPECT_EQ(S.EventsRun, Env.metrics().counter("loop.events_run").value());
  kernel::Counters K = Env.loop().kernel().counters();
  EXPECT_EQ(K.Lanes[static_cast<size_t>(kernel::Lane::Background)].Dispatched,
            1u);
}

//===----------------------------------------------------------------------===//
// Exposition
//===----------------------------------------------------------------------===//

TEST(Exposition, PrometheusCarriesEveryInstrumentKind) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  Reg.counter("kernel.lane.input.posted").inc(3);
  Reg.gauge("server.active").set(2);
  Reg.histogram("fs.op_ns").record(2000);
  std::string Text = obs::renderPrometheus(Reg);
  EXPECT_NE(Text.find("doppio_kernel_lane_input_posted 3"), std::string::npos);
  EXPECT_NE(Text.find("doppio_server_active 2"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_op_ns_count 1"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_op_ns_bucket"), std::string::npos);
  EXPECT_NE(Text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(Text.find("doppio_spans_started 0"), std::string::npos);
}

TEST(Exposition, JsonCarriesSpansWithParentLinks) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::SpanId Root = Reg.spans().begin("client.req");
  obs::SpanId Child = Reg.spans().beginChildOf("server.req.echo", Root);
  Reg.spans().end(Child);
  Reg.spans().end(Root);
  std::string Json = obs::renderJson(Reg);
  EXPECT_NE(Json.find("\"spans\""), std::string::npos);
  EXPECT_NE(Json.find("\"client.req\""), std::string::npos);
  EXPECT_NE(Json.find("\"server.req.echo\""), std::string::npos);
  EXPECT_NE(Json.find("\"parent\": " + std::to_string(Root)),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// doppiod metrics handler
//===----------------------------------------------------------------------===//

/// One browser hosting a doppiod with the metrics handler installed.
struct MetricsRig {
  MetricsRig() : Env(chromeProfile()) {
    auto Root = std::make_unique<fs::InMemoryBackend>(Env);
    Root->seedFile("/srv/hello.txt", bytesOf("hello"));
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(Root));
    server::Server::Config Cfg;
    Cfg.Port = 7000;
    Srv = std::make_unique<server::Server>(Env, Cfg);
    server::installDefaultHandlers(Srv->router(), *Fs, &Env.metrics());
    EXPECT_TRUE(Srv->start());
  }

  BrowserEnv Env;
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  std::unique_ptr<server::Server> Srv;
};

TEST(MetricsHandler, ServesPrometheusTextOverTheFrameCodec) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  std::string Text;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    // One real request first (scraping only after its response, so the
    // scrape is guaranteed to cover the completed traffic).
    C.request("file", bytesOf("/srv/hello.txt"),
              [&](server::frame::Response Resp) {
                EXPECT_EQ(Resp.S, server::frame::Status::Ok);
                C.request("metrics", {}, [&](server::frame::Response M) {
                  ASSERT_EQ(M.S, server::frame::Status::Ok);
                  Text = M.text();
                  C.close();
                });
              });
  });
  R.Env.loop().run();
  // The exposition covers kernel lanes, fs ops, and server requests.
  EXPECT_NE(Text.find("doppio_kernel_lane_"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_ops"), std::string::npos);
  EXPECT_NE(Text.find("doppio_server_requests_served"), std::string::npos);
  EXPECT_NE(Text.find("doppio_loop_events_run"), std::string::npos);
}

TEST(MetricsHandler, JsonScrapeShowsEndToEndSpans) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  std::string Json;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("file", bytesOf("/srv/hello.txt"),
              [&](server::frame::Response Resp) {
                EXPECT_EQ(Resp.S, server::frame::Status::Ok);
                C.request("metrics", bytesOf("json"),
                          [&](server::frame::Response M) {
                            ASSERT_EQ(M.S, server::frame::Status::Ok);
                            Json = M.text();
                            C.close();
                          });
              });
  });
  R.Env.loop().run();
  // The file request produced a server span with the fs span beneath it —
  // at least one end-to-end sample in the scrape.
  EXPECT_NE(Json.find("\"server.req.file\""), std::string::npos);
  EXPECT_NE(Json.find("\"fs.readFile\""), std::string::npos);
  EXPECT_NE(Json.find("\"queue_delay_ns\""), std::string::npos);
  // And the fs span is parented under the server request span.
  const obs::SpanStore &Spans = R.Env.metrics().spans();
  obs::SpanId ServerSpan = 0;
  for (const obs::Span &Sp : Spans.recent())
    if (Sp.Name == "server.req.file")
      ServerSpan = Sp.Id;
  ASSERT_NE(ServerSpan, 0u);
  bool FsUnderServer = false;
  for (const obs::Span &Sp : Spans.recent())
    if (Sp.Name == "fs.readFile" && Sp.Parent == ServerSpan)
      FsUnderServer = true;
  EXPECT_TRUE(FsUnderServer);
}

TEST(MetricsHandler, UnknownFormatIsBadRequest) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  server::frame::Status Got = server::frame::Status::Ok;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("metrics", bytesOf("xml"), [&](server::frame::Response Resp) {
      Got = Resp.S;
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(Got, server::frame::Status::BadRequest);
}

} // namespace
