//===- perfbench/serve_files.cpp - doppiod serving a cached-cloud fs ------===//
//
// One repetition: a fresh tab whose cached-cloud fs is seeded and synced,
// with a single doppiod (Server + installDefaultHandlers) listening on it
// (set-up). The timed phase runs closed-loop clients issuing `file`
// requests, PipelineScenario pipelines and one `spawn` round trip side by
// side, and ends with a graceful drain. Clients plus the spawn connection
// never exceed the host's processor count.
//
// Every `file` response body is compared with the seeded file where the
// client decoded it, after the frame codec and SimNet. The handlers are
// reached through a forwarding router that, when traced, makes each
// handler call a span.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "stack.h"

#include "doppio/proc/proc.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"
#include "workloads/traffic.h"

#include <algorithm>
#include <thread>
#include <utility>

using namespace doppio;
using namespace perfbench;
namespace fs = doppio::rt::fs;
namespace server = doppio::rt::server;
namespace frame = doppio::rt::server::frame;

namespace {

constexpr size_t NumFiles = 32;
constexpr size_t RequestsPerClient = 5000;
constexpr uint16_t Port = 7000;
constexpr const char *SpawnCommand = "echo perfbench";
constexpr const char *SpawnOutput = "perfbench\n";

/// Span names must outlive the tracer; map handler names onto literals.
const char *handlerSpanName(const std::string &Name) {
  for (const char *Known : {"file", "stat", "echo", "metrics", "spawn"})
    if (Name == Known)
      return Known;
  return "other";
}

using FileMap = std::map<std::string, std::vector<uint8_t>>;

/// Closed-loop `file` clients, paced and spanned as workloads::TrafficGen
/// paces and spans its own: client I connects I * SpawnSpacingNs after
/// start() and sends its next request once the previous response arrived.
/// TrafficGen reports only byte counts; these also compare every response
/// body with the seeded file it asked for.
class FileClients {
public:
  FileClients(browser::BrowserEnv &Env, const FileMap &Files,
              const std::vector<std::vector<uint8_t>> &Paths, size_t Count)
      : Env(Env), Files(Files), Paths(Paths) {
    for (size_t I = 0; I != Count; ++I)
      Fleet.push_back(std::make_unique<Client>(Env.net()));
  }
  ~FileClients() {
    // Sever the connections before the callbacks' target dies.
    for (auto &C : Fleet)
      C->Net.close();
  }

  void start(std::function<void()> Done) {
    OnDone = std::move(Done);
    Remaining = Fleet.size();
    for (size_t I = 0; I != Fleet.size(); ++I) {
      if (I == 0)
        connect(*Fleet[I]);
      else
        Env.loop().postAfter(kernel::Lane::Timer,
                             [this, I] { connect(*Fleet[I]); },
                             SpawnSpacingNs * I);
    }
  }

  /// Ok responses whose body is the requested file.
  uint64_t Good = 0;
  uint64_t BytesReceived = 0;
  std::vector<uint64_t> LatenciesNs;

private:
  static constexpr uint64_t SpawnSpacingNs = 50'000;

  struct Client {
    explicit Client(browser::SimNet &Net) : Net(Net) {}
    server::FrameClient Net;
    size_t Sent = 0, Received = 0;
    bool Done = false;
  };

  void connect(Client &C) {
    C.Net.setOnClose([this, &C] {
      if (!C.Done && C.Received >= C.Sent)
        finish(C);
    });
    C.Net.connect(Port, [this, &C](bool Ok) {
      if (Ok)
        next(C);
      else
        finish(C);
    });
  }

  void next(Client &C) {
    if (C.Sent >= RequestsPerClient || !C.Net.isOpen()) {
      finish(C);
      return;
    }
    const std::vector<uint8_t> &Path = Paths[C.Sent % Paths.size()];
    ++C.Sent;
    uint64_t SentNs = Env.clock().nowNs();
    obs::SpanStore &Spans = Env.metrics().spans();
    obs::SpanId Span = Spans.begin("client.req");
    obs::SpanStore::Scope Scope(Spans, Span);
    C.Net.request("file", Path,
                  [this, &C, &Path, SentNs, Span](frame::Response R) {
                    Env.metrics().spans().end(Span);
                    ++C.Received;
                    LatenciesNs.push_back(Env.clock().nowNs() - SentNs);
                    auto Want =
                        Files.find(std::string(Path.begin(), Path.end()));
                    Good += R.S == frame::Status::Ok &&
                            Want != Files.end() && R.Body == Want->second;
                    if (!C.Done)
                      next(C);
                  });
  }

  void finish(Client &C) {
    if (C.Done)
      return;
    C.Done = true;
    BytesReceived += C.Net.bytesReceived();
    C.Net.close();
    if (--Remaining == 0 && OnDone)
      std::exchange(OnDone, nullptr)();
  }

  browser::BrowserEnv &Env;
  const FileMap &Files;
  const std::vector<std::vector<uint8_t>> &Paths;
  std::vector<std::unique_ptr<Client>> Fleet;
  size_t Remaining = 0;
  std::function<void()> OnDone;
};

class ServeFiles : public Workload {
public:
  explicit ServeFiles(const Inputs &In) {
    Rng R(In.Seed);
    unsigned Cpus = std::max(2u, std::thread::hardware_concurrency());
    // One connection is the spawn client's.
    Clients = std::min<size_t>(3, Cpus - 1);
    for (size_t I = 0; I != NumFiles; ++I) {
      std::string Path = "/srv/f" + std::to_string(I) + ".bin";
      // 64 B .. ~8 KB as in fig7, jittered by the seed.
      Files[Path] = R.bytes(64 + 251 * I + R.below(32));
      Bodies.emplace_back(Path.begin(), Path.end());
    }
    R.shuffle(Bodies);
    for (size_t K = 0; K != RequestsPerClient; ++K) {
      const std::vector<uint8_t> &P = Bodies[K % Bodies.size()];
      ExpectedBytes += frame::HeaderBytes + 1 +
                       Files.at(std::string(P.begin(), P.end())).size();
    }
    ExpectedBytes *= Clients;
  }

  Iteration iterate(Tracer *T) override {
    Iteration It;
    uint64_t T0 = hostNs();
    browser::BrowserEnv Env(browser::chromeProfile());
    rt::Process Proc;
    CachedCloudStack Stack(Env, T);
    bool SetupOk = Stack.initialize();
    fs::FileSystem Fs(Env, Proc, Stack.take());
    Fs.mkdirp("/srv", [&SetupOk](std::optional<rt::ApiError> E) {
      SetupOk = SetupOk && !E;
    });
    Env.loop().run();
    for (const auto &[Path, Bytes] : Files)
      Fs.writeFile(Path, Bytes, [&SetupOk](std::optional<rt::ApiError> E) {
        SetupOk = SetupOk && !E;
      });
    Env.loop().run();
    Stack.backend().sync([&SetupOk](std::optional<rt::ApiError> E) {
      SetupOk = SetupOk && !E;
    });
    Env.loop().run();

    rt::proc::ProcessTable Procs(Env, Fs);
    rt::proc::ProgramRegistry Progs;
    rt::proc::installCorePrograms(Progs);
    server::Server::Config Cfg;
    Cfg.Port = Port;
    Cfg.Backlog = 64;
    Cfg.MaxConnections = 128;
    Cfg.IdleTimeoutNs = browser::msToNs(2000);
    server::Server Srv(Env, Cfg);
    server::Router Handlers;
    server::installDefaultHandlers(Handlers, Fs, &Env.metrics(), &Procs,
                                   &Progs);
    route(Srv.router(), Handlers, T);
    SetupOk = SetupOk && Srv.start();
    uint64_t T1 = hostNs();
    if (T)
      T->reset();
    Stack.mark();
    uint64_t FsOps0 = Fs.stats().Operations;

    uint64_t V0 = Env.clock().nowNs();
    FileClients Load(Env, Files, Bodies, Clients);
    workloads::PipelineScenario Pipes(Env, Procs);
    server::FrameClient SpawnClient(Env.net());
    bool Drained = false, SpawnOk = false;
    // Drain once the load, the pipelines and the spawn round trip finish.
    int Outstanding = 3;
    auto MaybeDrain = [&] {
      if (--Outstanding == 0)
        Srv.shutdown([&Drained] { Drained = true; });
    };
    Load.start(MaybeDrain);
    Pipes.start(MaybeDrain);
    SpawnClient.connect(Port, [&](bool Ok) {
      if (!Ok) {
        MaybeDrain();
        return;
      }
      std::string Cmd = SpawnCommand;
      SpawnClient.request("spawn", std::vector<uint8_t>(Cmd.begin(), Cmd.end()),
                          [&](frame::Response R) {
                            SpawnOk = R.S == frame::Status::Ok &&
                                      R.text() == SpawnOutput;
                            SpawnClient.close();
                            MaybeDrain();
                          });
    });
    attributed(T, Layer::Loop, [&] { Env.loop().run(); });
    uint64_t T2 = hostNs();

    It.SetupNs = T1 - T0;
    It.RunNs = T2 - T1;
    It.VirtualNs = Env.clock().nowNs() - V0;
    It.OpVirtualNs = Load.LatenciesNs;
    server::ServerStats Stats = Srv.stats();
    const workloads::PipelineReport &P = Pipes.report();

    It.check(SetupOk, "seeding or server start failed");
    // A request fails when it never got an Ok response (non-Ok status,
    // refused connect) or when the body the client decoded differs from
    // the seeded file.
    uint64_t Requests = Clients * RequestsPerClient;
    uint64_t Bad = Requests - std::min(Requests, Load.Good);
    It.Attempted += Requests;
    It.Failed += Bad;
    if (Bad && It.FirstFailure.empty())
      It.FirstFailure = std::to_string(Bad) + " requests failed or returned "
                        "bytes that differ from the seed";
    It.check(Load.BytesReceived == ExpectedBytes,
             "clients received " + std::to_string(Load.BytesReceived) +
                 " bytes, expected " + std::to_string(ExpectedBytes));
    It.check(P.AllExitsZero && P.OutputsMatch, "a pipeline failed");
    It.check(SpawnOk, "spawn round trip failed");
    It.check(Drained && Stats.Active == 0 && Procs.zombies() == 0,
             "drain was not clean");

    if (T) {
      It.Layers["backends.self_ns"] =
          static_cast<double>(layerSelfNs(*T, Layer::Server));
      It.Layers["fs.ops"] =
          static_cast<double>(Fs.stats().Operations - FsOps0);
      It.Layers["fs.read_ns"] = meanDurationNs(*T, Layer::Server, "file");
      It.Layers["server.handler_ns"] =
          meanDurationNs(*T, Layer::Server, nullptr);
      It.Layers["server.requests"] =
          static_cast<double>(Stats.RequestsServed);
      It.Layers["server.refused"] = static_cast<double>(Stats.Refused);
      It.Layers["server.srv_p99_us"] =
          static_cast<double>(Stats.p99Ns()) / 1e3;
      It.Layers["simnet.connections"] =
          static_cast<double>(Env.net().totalConnections());
      It.Layers["proc.spawned"] = static_cast<double>(P.ProcessesSpawned);
      It.Layers["proc.pipe_bytes"] = static_cast<double>(P.PipeBytes);
      It.Layers["proc.writer_suspends"] =
          static_cast<double>(P.PipeWriterSuspends);
      It.Layers["frame.codec_ns"] = timeCodec(It);
      Stack.addLayers(*T, It);
      addLoopLayers(Env, *T, It);
    }
    return It;
  }

private:
  /// Registers every handler of \p Inner on \p Outer behind a forwarder
  /// that, when traced, opens a span per call.
  static void route(server::Router &Outer, const server::Router &Inner,
                    Tracer *T) {
    for (const std::string &Name : Inner.names()) {
      const char *SpanName = handlerSpanName(Name);
      Outer.handle(Name, [&Inner, T, SpanName](
                             const frame::Request &R,
                             server::Router::RespondFn Respond) {
        Call C(T, Layer::Server, SpanName);
        Inner.dispatch(R, C.done(std::move(Respond)));
      });
    }
  }

  /// Mean host ns to encode and decode one `file` request and its
  /// response, framed, over the workload's files.
  double timeCodec(Iteration &It) const {
    bool Ok = true;
    uint64_t Start = hostNs();
    for (const std::vector<uint8_t> &Path : Bodies) {
      frame::Request Req{"file", Path};
      frame::Decoder In;
      In.feed(frame::encode(frame::encodeRequest(Req)));
      std::optional<std::vector<uint8_t>> ReqPayload = In.next();
      std::optional<frame::Request> Got =
          ReqPayload ? frame::decodeRequest(*ReqPayload) : std::nullopt;
      Ok = Ok && Got && Got->Body == Path;
      frame::Response Resp{frame::Status::Ok,
                           Files.at(std::string(Path.begin(), Path.end()))};
      frame::Decoder Out;
      Out.feed(frame::encode(frame::encodeResponse(Resp)));
      std::optional<std::vector<uint8_t>> RespPayload = Out.next();
      std::optional<frame::Response> Back =
          RespPayload ? frame::decodeResponse(*RespPayload) : std::nullopt;
      Ok = Ok && Back && Back->Body == Resp.Body;
    }
    uint64_t Ns = hostNs() - Start;
    It.check(Ok, "frame codec round trip changed a frame");
    return static_cast<double>(Ns) / static_cast<double>(Bodies.size());
  }

  size_t Clients = 1;
  FileMap Files;
  std::vector<std::vector<uint8_t>> Bodies;
  uint64_t ExpectedBytes = 0;
};

} // namespace

std::unique_ptr<Workload> makeServeFiles(const Inputs &In) {
  return std::make_unique<ServeFiles>(In);
}
