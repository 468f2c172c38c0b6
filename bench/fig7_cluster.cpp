//===- bench/fig7_cluster.cpp - Figure 7b: sharded doppiod scaling --------===//
//
// Extension beyond the paper: §5.3 measures one runtime in one tab. The
// cluster subsystem (src/doppio/cluster/) shards doppiod across tabs the
// way a browser fans work out over SharedWorker-connected tabs: a
// consistent-hash balancer tab in front, N full doppiod shard tabs behind
// it, all joined by the cross-tab fabric. This harness measures how
// aggregate throughput scales at 1/2/4/8 shards per browser profile, on
// the deterministic lockstep driver, plus:
//
//  - a drain-under-load scenario at 4 shards per profile (drain_clean=1
//    means zero lost requests, shard off the ring, zero pending kernel
//    work in the drained tab), and
//  - one real-parallelism row (chrome, 4 shards) on the ThreadedDriver,
//    reported as host-time throughput.
//
// Acceptance (exit 1 on failure): chrome aggregate req/s at 4 shards is
// >= 3x the 1-shard figure, and every profile's drain scenario is clean.
//
//===----------------------------------------------------------------------===//

#include "doppio/cluster/cluster.h"

#include "bench_util.h"
#include "browser/profile.h"
#include "doppio/server/client.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::cluster;
using doppio::rt::server::FrameClient;

namespace {

constexpr size_t NumClients = 128;
constexpr size_t RequestsPerClient = 16;
constexpr uint64_t SpinUsPerRequest = 150;

/// A fleet of pipelined front-door clients, all living in the balancer
/// tab. Each connects, issues its requests back-to-back, and closes on
/// the last response.
struct Fleet {
  explicit Fleet(Cluster &Cl) : Cl(Cl) {}

  void start(size_t Clients, size_t Requests,
             std::function<void()> AllDone = nullptr) {
    Expected += Clients * Requests;
    Done = std::move(AllDone);
    for (size_t I = 0; I < Clients; ++I) {
      auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
      FrameClient *P = C.get();
      std::string Body = std::to_string(SpinUsPerRequest) + " /srv/f" +
                         std::to_string(I % 32) + ".bin";
      P->connect(Cl.balancer().port(), [this, P, Requests, Body](bool Up) {
        if (!Up) {
          ++ConnFailures;
          noteDone(Requests);
          return;
        }
        for (size_t R = 0; R < Requests; ++R)
          P->request("work",
                     std::vector<uint8_t>(Body.begin(), Body.end()),
                     [this, P, R, Requests](rt::server::frame::Response Re) {
                       Re.S == rt::server::frame::Status::Ok ? ++Ok : ++Err;
                       LastResponseNs = Cl.balancer().env().clock().nowNs();
                       if (R + 1 == Requests)
                         P->close();
                       noteDone(1);
                     });
      });
      Pool.push_back(std::move(C));
    }
  }

  void noteDone(size_t N) {
    Completed += N;
    if (Completed == Expected && Done)
      Done();
  }

  Cluster &Cl;
  std::vector<std::unique_ptr<FrameClient>> Pool;
  std::function<void()> Done;
  uint64_t Expected = 0, Completed = 0;
  uint64_t Ok = 0, Err = 0, ConnFailures = 0;
  uint64_t LastResponseNs = 0;
};

double percentileUs(std::vector<uint64_t> Xs, double P) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t I = std::min(Xs.size() - 1,
                      static_cast<size_t>(P * static_cast<double>(Xs.size())));
  return static_cast<double>(Xs[I]) / 1e3;
}

struct ScaleResult {
  double ReqPerS = 0;
  double RouteP50Us = 0, RouteP99Us = 0;
  double RttP50Us = 0, RttP99Us = 0;
  uint64_t Ok = 0, Err = 0;
  uint64_t Refused = 0;
  uint64_t ServedMaxShard = 0, ServedTotal = 0;
  uint64_t Snapshots = 0;
  bool WorkersOk = true;
  uint64_t Zombies = 0;
  bool Quiesced = false;
};

/// One scaling row: N shards, full client load, run to quiescence on the
/// lockstep driver, then pull every shard's snapshot over the control
/// plane so the aggregation path is exercised per row.
ScaleResult runScale(const browser::Profile &P, size_t Shards) {
  Cluster::Config Cfg;
  Cfg.Shards = Shards;
  Cluster Cl(P, Cfg);
  LockstepDriver Drv(Cl.fabric());

  Fleet F(Cl);
  F.start(NumClients, RequestsPerClient);
  auto Rep = Drv.run(10000000);

  ScaleResult Out;
  Out.Quiesced = Rep.Rounds < 10000000;
  Out.Ok = F.Ok;
  Out.Err = F.Err;
  uint64_t ElapsedNs = F.LastResponseNs;
  Out.ReqPerS = ElapsedNs
                    ? static_cast<double>(F.Ok) * 1e9 /
                          static_cast<double>(ElapsedNs)
                    : 0;

  Balancer::Stats St = Cl.balancer().stats();
  Out.Refused = St.ConnsRefused + St.RefusedSaturated;
  Out.RouteP50Us = percentileUs(St.RouteNs, 0.50);
  Out.RouteP99Us = percentileUs(St.RouteNs, 0.99);
  Out.RttP50Us = percentileUs(St.UpstreamRttNs, 0.50);
  Out.RttP99Us = percentileUs(St.UpstreamRttNs, 0.99);

  for (uint32_t S = 0; S < Shards; ++S) {
    rt::server::ServerStats SS = Cl.shard(S)->server().stats();
    Out.ServedTotal += SS.RequestsServed;
    Out.ServedMaxShard = std::max(Out.ServedMaxShard, SS.RequestsServed);
    Out.WorkersOk = Out.WorkersOk && Cl.shard(S)->workersDone() ==
                                         Cl.shard(S)->config().WorkerPipelines;
    Out.Zombies += Cl.shard(S)->procs().zombies();
    Cl.shard(S)->pushStats(Cl.balancer().tab());
  }
  Drv.run(10000000);
  Out.Snapshots = Cl.balancer().snapshots().size();
  return Out;
}

struct DrainResult {
  bool Clean = false;
  uint64_t Ok = 0, Err = 0, Rerouted = 0;
  bool PendingWork = true;
};

/// Drain-under-load at 4 shards: at 3ms virtual (mid-workload) the
/// busiest shard drains; clean means every request still came back Ok,
/// the drain finished with a final snapshot, and the drained tab holds
/// zero pending kernel work.
DrainResult runDrain(const browser::Profile &P) {
  Cluster::Config Cfg;
  Cfg.Shards = 4;
  Cluster Cl(P, Cfg);
  LockstepDriver Drv(Cl.fabric());

  Fleet F(Cl);
  F.start(NumClients, RequestsPerClient);

  uint32_t Victim = 0;
  bool DrainDone = false;
  browser::TimerHandle T = Cl.balancer().env().loop().postAfter(
      kernel::Lane::Timer,
      [&] {
        uint64_t Best = 0;
        for (uint32_t S = 0; S < 4; ++S) {
          uint64_t A = Cl.shard(S)->server().stats().Active;
          if (A >= Best) {
            Best = A;
            Victim = S;
          }
        }
        Cl.drainShard(Victim, [&](const ShardSnapshot &) { DrainDone = true; });
      },
      browser::msToNs(3));

  auto Rep = Drv.run(10000000);

  DrainResult Out;
  Out.Ok = F.Ok;
  Out.Err = F.Err;
  Out.Rerouted = Cl.balancer().stats().Rerouted;
  Out.PendingWork = Cl.shardPendingWorkNs(Victim).has_value();
  Out.Clean = Rep.Rounds < 10000000 && DrainDone &&
              F.Ok == NumClients * RequestsPerClient && F.Err == 0 &&
              F.ConnFailures == 0 && Cl.shardDrained(Victim) &&
              !Out.PendingWork && Cl.balancer().liveShards() == 3 &&
              Cl.balancer().stats().ErrorsSynthesized == 0;
  return Out;
}

/// Real-parallelism row: chrome at 4 shards on the ThreadedDriver (one
/// host thread per tab). Virtual timelines are causally consistent but
/// not bit-identical; the interesting number is host throughput.
double runThreaded(double *HostSeconds) {
  Cluster::Config Cfg;
  Cfg.Shards = 4;
  Cluster Cl(browser::chromeProfile(), Cfg);
  ThreadedDriver Drv(Cl.fabric());

  Fleet F(Cl);
  F.start(NumClients, RequestsPerClient, [&] { Drv.requestStop(); });

  auto Start = std::chrono::steady_clock::now();
  Drv.start();
  Drv.join();
  *HostSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  // Undelivered fabric mail (closes, control traffic) finishes on a
  // deterministic lockstep pass.
  LockstepDriver(Cl.fabric()).run(10000000);

  uint64_t ElapsedNs = F.LastResponseNs;
  return ElapsedNs ? static_cast<double>(F.Ok) * 1e9 /
                         static_cast<double>(ElapsedNs)
                   : 0;
}

void printFigure7Cluster() {
  printf("==========================================================\n");
  printf("Figure 7b (extension): sharded doppiod cluster scaling\n");
  printf("%zu clients x %zu pipelined 'work' requests (%llu us spin),\n",
         NumClients, RequestsPerClient,
         static_cast<unsigned long long>(SpinUsPerRequest));
  printf("consistent-hash balancer tab -> N doppiod shard tabs over the\n");
  printf("cross-tab fabric, deterministic lockstep driver\n");
  printf("==========================================================\n");
  printf("%-10s %3s %10s %8s %9s %9s %7s %6s\n", "browser", "sh", "req/s",
         "speedup", "route-p99", "rtt-p99", "refuse", "ok");
  bool AllOk = true;
  double Chrome1 = 0, Chrome4 = 0;
  BenchJson Json("fig7_cluster");
  for (const browser::Profile &P : browser::allProfiles()) {
    double Base = 0;
    for (size_t Shards : {1u, 2u, 4u, 8u}) {
      ScaleResult R = runScale(P, Shards);
      if (Shards == 1)
        Base = R.ReqPerS;
      double Speedup = Base > 0 ? R.ReqPerS / Base : 0;
      if (P.Name == "chrome") {
        if (Shards == 1)
          Chrome1 = R.ReqPerS;
        if (Shards == 4)
          Chrome4 = R.ReqPerS;
      }
      bool Ok = R.Quiesced && R.Ok == NumClients * RequestsPerClient &&
                R.Err == 0 && R.ServedTotal == R.Ok && R.WorkersOk &&
                R.Zombies == 0 && R.Snapshots == Shards;
      AllOk = AllOk && Ok;
      printf("%-10s %3zu %10.0f %7.2fx %9.1f %9.1f %7llu %6s\n",
             P.Name.c_str(), Shards, R.ReqPerS, Speedup, R.RouteP99Us,
             R.RttP99Us, static_cast<unsigned long long>(R.Refused),
             Ok ? "yes" : "FAIL");
      Json.row(P.Name + "/" + std::to_string(Shards) + "sh")
          .metric("shards", static_cast<double>(Shards))
          .metric("req_per_s", R.ReqPerS)
          .metric("speedup_vs_1", Speedup)
          .metric("route_p50_us", R.RouteP50Us)
          .metric("route_p99_us", R.RouteP99Us)
          .metric("rtt_p50_us", R.RttP50Us)
          .metric("rtt_p99_us", R.RttP99Us)
          .metric("refused", static_cast<double>(R.Refused))
          .metric("served_total", static_cast<double>(R.ServedTotal))
          .metric("served_max_shard", static_cast<double>(R.ServedMaxShard))
          .metric("snapshots", static_cast<double>(R.Snapshots))
          .metric("workers_ok", R.WorkersOk ? 1 : 0)
          .metric("zombies", static_cast<double>(R.Zombies))
          .metric("row_ok", Ok ? 1 : 0);
    }
    DrainResult D = runDrain(P);
    AllOk = AllOk && D.Clean;
    printf("%-10s %3s %10s %8s %9s %9s %7llu %6s\n", P.Name.c_str(), "dr4",
           "-", "-", "-", "-", static_cast<unsigned long long>(D.Rerouted),
           D.Clean ? "clean" : "FAIL");
    Json.row(P.Name + "/drain4")
        .metric("drain_clean", D.Clean ? 1 : 0)
        .metric("ok", static_cast<double>(D.Ok))
        .metric("errors", static_cast<double>(D.Err))
        .metric("rerouted", static_cast<double>(D.Rerouted))
        .metric("pending_work_after", D.PendingWork ? 1 : 0);
  }

  double HostSeconds = 0;
  double ThreadedReqPerS = runThreaded(&HostSeconds);
  printf("%-10s %3s %10.0f %8s %9s %9s %7s %6s  (threaded, %.3fs host)\n",
         "chrome", "4t", ThreadedReqPerS, "-", "-", "-", "-", "-",
         HostSeconds);
  Json.hostMetric("threaded_chrome4_req_per_s", ThreadedReqPerS);
  Json.hostMetric("threaded_chrome4_host_seconds", HostSeconds);

  double ChromeSpeedup4 = Chrome1 > 0 ? Chrome4 / Chrome1 : 0;
  Json.hostMetric("chrome_speedup_4sh", ChromeSpeedup4);
  Json.write();
  printf("(req/s on the virtual clock at the balancer front door; speedup\n"
         " is vs the same profile's 1-shard row; route-p99 is accept ->\n"
         " upstream-bound; rtt-p99 is forward -> shard response; dr4 rows\n"
         " drain the busiest of 4 shards mid-load.)\n\n");
  if (ChromeSpeedup4 < 3.0) {
    fprintf(stderr, "fig7_cluster: chrome 4-shard speedup %.2fx < 3x\n",
            ChromeSpeedup4);
    exit(1);
  }
  if (!AllOk) {
    fprintf(stderr, "fig7_cluster: acceptance check failed\n");
    exit(1);
  }
}

void BM_ClusterScale_Chrome4(benchmark::State &State) {
  for (auto _ : State) {
    ScaleResult R = runScale(browser::chromeProfile(), 4);
    State.counters["req_per_s_virtual"] = R.ReqPerS;
    State.counters["served"] = static_cast<double>(R.ServedTotal);
  }
}

} // namespace

BENCHMARK(BM_ClusterScale_Chrome4)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

int main(int argc, char **argv) {
  printFigure7Cluster();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
