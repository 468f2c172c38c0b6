//===- perfbench/main.cpp - The runtime's host-time benchmark -------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected DIR [--spans PATH]
//
// Repeats one workload until S seconds have passed, checking every
// repetition's outputs. The first repetition warms the process and is
// checked but not measured. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced repetitions
// and prints the per-layer metrics (medians over traced repetitions) plus
// trace.overhead, and writes the last traced repetition's spans to PATH.
// The last line of standard output is one JSON object.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "calibrate.h"

#include "doppio/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace perfbench;

std::unique_ptr<Workload> makeJvmWorkload(bool Long, const Inputs &In);
std::unique_ptr<Workload> makeFsJavac(const Inputs &In);
std::unique_ptr<Workload> makeServeFiles(const Inputs &In);

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const Inputs &In) {
  if (Name == "jvm_objects" || Name == "jvm_long")
    return makeJvmWorkload(Name == "jvm_long", In);
  if (Name == "fs_javac")
    return makeFsJavac(In);
  if (Name == "serve_files")
    return makeServeFiles(In);
  return nullptr;
}

namespace {

/// Per-layer metrics and their units, in output order. Every traced run
/// prints all of them; a layer a workload leaves idle reads 0.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"jvm.bytecodes", "count"},
    {"jvm.invocations", "count"},
    {"jvm.quickened_sites", "count"},
    {"jvm.suspend_checks", "count"},
    {"jvm.ns_per_bytecode", "ns"},
    {"jvm.ic_hit_ratio", "ratio"},
    {"jvm.objects_allocated", "count"},
    {"suspend.resumptions", "count"},
    {"suspend.virtual_ns", "ns"},
    {"classfile.load_ns", "ns"},
    {"classloader.file_loads", "count"},
    {"xhr.fetch_ns", "ns"},
    {"long64.divrem_ns", "ns"},
    {"long64.mul_ns", "ns"},
    {"fs.ops", "count"},
    {"fs.stat_ns", "ns"},
    {"fs.read_ns", "ns"},
    {"fs.write_ns", "ns"},
    {"fs.mkdir_ns", "ns"},
    {"fs.readdir_ns", "ns"},
    {"backends.self_ns", "ns"},
    {"backends.index_puts", "count"},
    {"backends.index_put_bytes", "bytes"},
    {"backends.kv_gets", "count"},
    {"backends.kv_puts", "count"},
    {"backends.kv_put_bytes", "bytes"},
    {"storage.self_ns", "ns"},
    {"storage.hit_ratio", "ratio"},
    {"storage.flushes", "count"},
    {"storage.flushed_blocks", "count"},
    {"storage.journal_commits", "count"},
    {"storage.checkpoints", "count"},
    {"storage.gc_blocks", "count"},
    {"storage.dedup_hits", "count"},
    {"storage.evictions", "count"},
    {"slowstore.gets", "count"},
    {"slowstore.puts", "count"},
    {"slowstore.put_bytes", "bytes"},
    {"slowstore.host_ns", "ns"},
    {"kernel.dispatched", "count"},
    {"kernel.timers_scheduled", "count"},
    {"kernel.queue_delay_max_us", "us"},
    {"loop.residual_ns", "ns"},
    {"server.handler_ns", "ns"},
    {"server.requests", "count"},
    {"server.refused", "count"},
    {"server.srv_p99_us", "us"},
    {"frame.codec_ns", "ns"},
    {"simnet.connections", "count"},
    {"proc.spawned", "count"},
    {"proc.pipe_bytes", "bytes"},
    {"proc.writer_suspends", "count"},
    {"obs.instruments", "count"},
    {"obs.histogram_samples", "count"},
    {"obs.spans_finished", "count"},
};

/// Host-time metrics are scaled to the reference speed; virtual-clock
/// ones are not.
bool isHostTime(const char *Name, const char *Unit) {
  return std::strcmp(Unit, "ns") == 0 && !std::strstr(Name, "virtual");
}

/// Repetitions (warm-up included) whose peak memory peak_rss_mb reports;
/// every run makes at least this many.
constexpr size_t RssRepetitions = 3;

/// Environment overrides that would silently run another ExecProfile.
const char *const ProfileOverrides[] = {"DOPPIO_JVM_PROFILE",
                                        "DOPPIO_JVM_TRUST_VERIFIER",
                                        "DOPPIO_JVM_SUSPEND_PLACEMENT"};

/// The \p P quantile of \p V, interpolating between ranks (0 if empty).
double quantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Host times are reported as this quantile over repetitions. Interference
/// from other tenants only ever adds time, and what the calibration does
/// not absorb lands in the upper tail; the lower decile stays put where
/// the median still moves by 10-15% between runs of identical code.
constexpr double HostQuantile = 0.1;

int usage(const char *Why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload NAME --seed N "
          "--seconds S --trace 0|1 --expected DIR [--spans PATH]\n",
          Why);
  return 2;
}

/// The process's resident high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so the launcher's memory never
/// shows through.
double peakRssMb() {
  FILE *F = fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::atof(Line + 6);
  fclose(F);
  return Kb / 1024.0;
}

/// What the determinism check compares of a repetition's latencies.
struct Summary {
  uint64_t P50 = 0, P99 = 0, Hash = 0;
  bool operator==(const Summary &O) const = default;
};

Summary summarize(const std::vector<uint64_t> &Ns) {
  Summary S;
  S.P50 = doppio::obs::percentileNs(Ns, 50.0);
  S.P99 = doppio::obs::percentileNs(Ns, 99.0);
  S.Hash = 0xCBF29CE484222325ull;
  for (uint64_t V : Ns)
    S.Hash = (S.Hash ^ V) * 0x100000001B3ull;
  return S;
}

struct Output {
  std::vector<std::pair<std::string, std::pair<double, const char *>>> M;
  void add(const std::string &Name, double V, const char *Unit) {
    M.push_back({Name, {V, Unit}});
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, SpansPath;
  Inputs In;
  double Seconds = 10;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Val;
    else if (Flag == "--seed")
      In.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      Trace = std::atoi(Val.c_str());
    else if (Flag == "--expected")
      In.ExpectedDir = Val;
    else if (Flag == "--spans")
      SpansPath = Val;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (argc % 2 == 0)
    return usage("flags come in pairs");
  if ((Trace != 0 && Trace != 1) || Seconds <= 0 || In.ExpectedDir.empty())
    return usage("missing or bad --trace, --seconds or --expected");
  for (const char *Var : ProfileOverrides)
    if (std::getenv(Var)) {
      fprintf(stderr,
              "perfbench: %s is set; it would replace the pinned `quick` "
              "ExecProfile. Unset it to measure the shipped profile.\n",
              Var);
      return 2;
    }
  std::unique_ptr<Workload> W = makeWorkload(WorkloadName, In);
  if (!W)
    return usage(("unknown workload " + WorkloadName).c_str());

  Tracer Tr;
  std::vector<Iteration> Plain, Traced;
  // The virtual clock is deterministic and tracing never charges it:
  // every repetition must read the same.
  std::optional<Summary> First;
  uint64_t FirstVirtualNs = 0;
  double PeakRssMb = 0;
  SpeedProbe Probe;
  uint64_t Attempted = 0, Failed = 0;
  std::string FirstFailure;
  uint64_t Start = hostNs();
  uint64_t Window = static_cast<uint64_t>(Seconds * 1e9);
  for (size_t Rep = 0;; ++Rep) {
    bool UseTrace = Trace == 1 && Rep % 2 == 1;
    Probe.maybeRepin();
    uint64_t RefBefore = Probe.referenceNs();
    Iteration It = W->iterate(UseTrace ? &Tr : nullptr);
    uint64_t RefAfter = Probe.referenceNs();
    It.Speed = 2.0 * ReferenceNominalNs /
               static_cast<double>(RefBefore + RefAfter);
    // Keep a fixed-size summary of the latencies, so that memory does not
    // grow with the number of repetitions.
    Summary S = summarize(It.OpVirtualNs);
    std::vector<uint64_t>().swap(It.OpVirtualNs);
    if (!First) {
      First = S;
      FirstVirtualNs = It.VirtualNs;
    }
    It.check(S == *First && It.VirtualNs == FirstVirtualNs,
             "virtual clock differs between repetitions");
    // Peak memory is read after a fixed number of repetitions: the
    // allocator's high-water mark must not depend on how many repetitions
    // a faster or slower host fits into the window.
    if (Rep + 1 == RssRepetitions)
      PeakRssMb = peakRssMb();
    Attempted += It.Attempted;
    Failed += It.Failed;
    if (FirstFailure.empty())
      FirstFailure = It.FirstFailure;
    if (Rep != 0)
      (UseTrace ? Traced : Plain).push_back(std::move(It));
    bool Enough = Plain.size() >= 2 && (Trace == 0 || Traced.size() >= 2);
    if (Enough && hostNs() - Start >= Window)
      break;
  }

  // Host times are reported at the reference speed (calibrate.h).
  auto HostS = [](const std::vector<Iteration> &Its, uint64_t Iteration::*Ns,
                  double P) {
    std::vector<double> V;
    for (const Iteration &It : Its)
      V.push_back(static_cast<double>(It.*Ns) * It.Speed / 1e9);
    return quantile(V, P);
  };
  double RunS = HostS(Plain, &Iteration::RunNs, HostQuantile);
  Output Out;
  if (Trace == 0) {
    // Set-up is tiny on some workloads, and its lower decile jumps between
    // two modes from run to run (fresh or reused allocator pages); the
    // median over a run's set-ups stays put.
    Out.add("setup_s", HostS(Plain, &Iteration::SetupNs, 0.5), "s");
    Out.add("run_s", RunS, "s");
    Out.add("peak_rss_mb", PeakRssMb, "MB");
    Out.add("virtual_s", FirstVirtualNs / 1e9, "s");
    Out.add("virtual_p50_us", First->P50 / 1e3, "us");
    Out.add("virtual_p99_us", First->P99 / 1e3, "us");
  } else {
    for (const auto &[Name, Unit] : LayerMetrics) {
      std::vector<double> V;
      for (const Iteration &It : Traced) {
        auto Found = It.Layers.find(Name);
        double X = Found == It.Layers.end() ? 0.0 : Found->second;
        V.push_back(isHostTime(Name, Unit) ? X * It.Speed : X);
      }
      Out.add(Name, median(V), Unit);
    }
    // Traced repetition I ran right before untraced repetition I, so each
    // pair saw nearly the same host; the median ratio is the overhead.
    std::vector<double> Ratios;
    for (size_t I = 0; I != std::min(Traced.size(), Plain.size()); ++I)
      Ratios.push_back(static_cast<double>(Traced[I].RunNs) * Traced[I].Speed /
                       (static_cast<double>(Plain[I].RunNs) * Plain[I].Speed));
    Out.add("trace.overhead", median(Ratios), "ratio");
    if (!SpansPath.empty() && !Tr.writeSpans(SpansPath))
      fprintf(stderr, "perfbench: cannot write %s\n", SpansPath.c_str());
  }

  std::vector<double> Raw, Speeds;
  for (const Iteration &It : Plain) {
    Raw.push_back(It.RunNs / 1e9);
    Speeds.push_back(It.Speed);
  }
  fprintf(stderr,
          "perfbench: %s seed %llu: %zu untraced + %zu traced repetitions "
          "in %.1f s; untraced run_s %.6f raw, %.6f at reference speed "
          "(lower decile; median speed factor %.3f)\n",
          WorkloadName.c_str(), static_cast<unsigned long long>(In.Seed),
          Plain.size(), Traced.size(), (hostNs() - Start) / 1e9,
          quantile(Raw, HostQuantile), RunS, median(Speeds));
  if (!FirstFailure.empty())
    fprintf(stderr, "perfbench: FAILED: %s\n", FirstFailure.c_str());
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         Failed == 0 ? "true" : "false",
         static_cast<unsigned long long>(Attempted),
         static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Out.M.size(); ++I)
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
           Out.M[I].first.c_str(), Out.M[I].second.first,
           Out.M[I].second.second);
  printf("}}\n");
  return 0;
}
