//===- perfbench/jvm.cpp - jvm_objects and jvm_long -----------------------===//
//
// One repetition = one launch: a fresh browser tab, Doppio fs and
// DoppioJVM under the `quick` execution profile (set-up), then main run to
// completion (timed), so class loading and quickening warm-up are paid as
// on every launch. jvm_objects runs DeltaBlue (virtual dispatch, quickened
// field and invoke sites, inline caches); jvm_long runs pidigits, whose
// long arithmetic goes through the software Long64 routines.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "stack.h"

#include "doppio/backends/in_memory.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"
#include "jvm/classfile/analysis.h"
#include "jvm/classfile/classfile.h"
#include "jvm/classfile/verifier.h"
#include "jvm/jvm.h"
#include "jvm/long64.h"
#include "workloads/workloads.h"

#include <fstream>
#include <sstream>

using namespace doppio;
using namespace perfbench;

namespace {

/// DeltaBlue's constraint-chain length. Every second link computes
/// 2v + 1, so a chain of L links shifts the input left by L/2 bits in
/// int32: at 16 links an error anywhere in the chain still reaches the
/// printed checksum, where at 60 only the input mod 4 would.
constexpr int DeltaBlueLength = 16;
/// The seed picks an odd iteration count from a narrow band above the
/// base. For odd counts the printed XOR encodes the count itself.
constexpr int DeltaBlueBaseIterations = 7201;
constexpr int PiBaseDigits = 200;
/// Operand pairs in the seeded Long64 stream of the traced run.
constexpr size_t LongPairs = 4096;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// The deployment every launch builds: origin server with the workload's
/// classes, an in-memory root with the XHR classpath mounted, and a Jvm.
struct Deployment {
  Deployment(const workloads::Workload &W, Tracer *T)
      : Env(browser::chromeProfile()) {
    workloads::publish(W, Env.server());
    auto Root = std::make_unique<rt::fs::InMemoryBackend>(Env);
    auto Mounted =
        std::make_unique<rt::fs::MountableFileSystem>(std::move(Root));
    std::unique_ptr<rt::fs::FileSystemBackend> Classes =
        std::make_unique<rt::fs::XhrBackend>(Env, "/classes");
    if (T)
      Classes = std::make_unique<BackendTap>(std::move(Classes), T, Layer::Xhr);
    Mounted->mount("/classes", std::move(Classes));
    Fs = std::make_unique<rt::fs::FileSystem>(Env, Proc, std::move(Mounted));
    jvm::JvmOptions Options;
    Options.Mode = jvm::ExecutionMode::DoppioJS;
    Options.Exec = jvm::ExecProfile::quick();
    Vm = std::make_unique<jvm::Jvm>(Env, *Fs, Proc, Options);
  }

  browser::BrowserEnv Env;
  rt::Process Proc;
  std::unique_ptr<rt::fs::FileSystem> Fs;
  std::unique_ptr<jvm::Jvm> Vm;
};

class JvmWorkload : public Workload {
public:
  JvmWorkload(bool Long, const Inputs &In) : IsPiDigits(Long) {
    Rng R(In.Seed);
    if (Long) {
      int Digits = PiBaseDigits + static_cast<int>(In.Seed % 3);
      W = workloads::makePiDigits(Digits);
      std::string Known = readFile(In.ExpectedDir + "/pi.txt");
      if (Known.size() > static_cast<size_t>(Digits))
        Expected = Known.substr(0, Digits);
    } else {
      int Iterations =
          DeltaBlueBaseIterations + 2 * static_cast<int>(In.Seed % 5);
      W = workloads::makeDeltaBlue(DeltaBlueLength, Iterations);
      std::istringstream Table(readFile(In.ExpectedDir + "/deltablue.txt"));
      std::string Line;
      while (std::getline(Table, Line)) {
        std::istringstream Row(Line);
        int L = 0, N = 0;
        std::string Checksum;
        if (Row >> L >> N >> Checksum && L == DeltaBlueLength &&
            N == Iterations)
          Expected = Checksum + "\n";
      }
    }
    for (size_t I = 0; I != LongPairs; ++I) {
      int64_t A = static_cast<int64_t>(R.next());
      int64_t B = static_cast<int64_t>(R.next()) >> R.below(63);
      if (B == 0 || B == -1)
        B = 7;
      Operands.emplace_back(A, B);
    }
  }

  Iteration iterate(Tracer *T) override {
    Iteration It;
    uint64_t T0 = hostNs();
    Deployment D(W, T);
    uint64_t T1 = hostNs();
    if (T)
      T->reset();
    uint64_t V0 = D.Env.clock().nowNs();
    uint32_t Launch = T ? T->open(Layer::Jvm, "runMain") : 0;
    int Exit = 0;
    attributed(T, Layer::Jvm, [&] {
      Exit = D.Vm->runMainToCompletion(W.MainClass, W.Args);
    });
    if (T)
      T->close(Launch);
    uint64_t T2 = hostNs();
    It.SetupNs = T1 - T0;
    It.RunNs = T2 - T1;
    It.VirtualNs = D.Env.clock().nowNs() - V0;
    It.OpVirtualNs.push_back(It.VirtualNs);
    It.check(!Expected.empty(), "expected output missing for " + W.Name);
    It.check(Exit == 0, W.Name + " exited with " + std::to_string(Exit));
    const std::string &Out = D.Proc.capturedStdout();
    It.check(IsPiDigits ? piPrefixOk(Out) : Out == Expected,
             W.Name + " printed '" + Out + "'");
    if (T)
      addLayers(*T, D, Launch, It);
    return It;
  }

private:
  /// The spigot buffers a predigit and the run of nines after it, and
  /// ends without flushing that run. \p Out must be the known expansion
  /// up to such a tail: one digit followed by nines (or by zeros, had a
  /// carry come).
  bool piPrefixOk(const std::string &Out) const {
    if (Out.size() < 2 || Out.back() != '\n' ||
        Out.size() > Expected.size() + 1)
      return false;
    size_t Printed = Out.size() - 1;
    if (Expected.compare(0, Printed, Out, 0, Printed) != 0)
      return false;
    std::string Held = Expected.substr(Printed);
    return Held.size() <= 1 ||
           Held.find_first_not_of('9', 1) == std::string::npos ||
           Held.find_first_not_of('0', 1) == std::string::npos;
  }

  void addLayers(Tracer &T, Deployment &D, uint32_t LaunchSpan,
                 Iteration &It) {
    jvm::Jvm &Vm = *D.Vm;
    const jvm::JvmStats &S = Vm.stats();
    double Ops = static_cast<double>(S.OpsExecuted);
    uint64_t Fetch = unionNs(T, Layer::Xhr);
    uint64_t Launch = T.span(LaunchSpan).durationNs();
    It.Layers["jvm.bytecodes"] = Ops;
    It.Layers["jvm.invocations"] = static_cast<double>(S.MethodInvocations);
    It.Layers["jvm.quickened_sites"] = static_cast<double>(S.QuickenedSites);
    It.Layers["jvm.suspend_checks"] =
        static_cast<double>(Vm.suspendChecksExecuted());
    It.Layers["jvm.ns_per_bytecode"] =
        Ops > 0 ? static_cast<double>(Launch - std::min(Launch, Fetch)) / Ops
                : 0.0;
    uint64_t IcTotal = Vm.icHits() + Vm.icMisses();
    It.Layers["jvm.ic_hit_ratio"] =
        IcTotal ? static_cast<double>(Vm.icHits()) /
                      static_cast<double>(IcTotal)
                : 0.0;
    It.Layers["jvm.objects_allocated"] =
        static_cast<double>(S.ObjectsAllocated);
    It.Layers["suspend.resumptions"] =
        static_cast<double>(Vm.suspender().resumptionCount());
    It.Layers["suspend.virtual_ns"] =
        static_cast<double>(Vm.suspender().totalSuspendedNs());
    It.Layers["classloader.file_loads"] =
        static_cast<double>(Vm.loader().fileLoads());
    It.Layers["xhr.fetch_ns"] = static_cast<double>(Fetch);
    It.Layers["classfile.load_ns"] = static_cast<double>(timeClassfile(It));
    timeLong64(It);
    addLoopLayers(D.Env, T, It);
  }

  /// Host ns to parse, verify and analyze every class of the workload.
  uint64_t timeClassfile(Iteration &It) const {
    uint64_t Start = hostNs();
    bool Ok = true;
    size_t Analyzed = 0;
    for (const auto &[Name, Bytes] : W.Classes) {
      rt::ErrorOr<jvm::ClassFile> Cf = jvm::readClassFile(Bytes);
      if (!Cf.ok()) {
        Ok = false;
        continue;
      }
      Ok = Ok && !jvm::rejectsClass(jvm::verifyClass(*Cf));
      for (const jvm::MemberInfo &M : Cf->Methods) {
        jvm::MethodAnalysis A = jvm::analyzeMethod(*Cf, M);
        (void)A;
        ++Analyzed;
      }
    }
    uint64_t Ns = hostNs() - Start;
    It.check(Ok && Analyzed > 0, "classfile pipeline rejected a class");
    return Ns;
  }

  /// Mean host ns of divLong+remLong and of mulLong over the seeded
  /// operand stream, checked against hardware 64-bit arithmetic.
  void timeLong64(Iteration &It) const {
    uint64_t Mismatches = 0;
    uint64_t Start = hostNs();
    for (const auto &[A, B] : Operands) {
      jvm::Long64 X = jvm::Long64::fromBits(A), Y = jvm::Long64::fromBits(B);
      jvm::Long64 Q = jvm::divLong(X, Y), R = jvm::remLong(X, Y);
      Mismatches += Q.bits() != A / B || R.bits() != A % B;
    }
    uint64_t Mid = hostNs();
    for (const auto &[A, B] : Operands) {
      jvm::Long64 P = jvm::mulLong(jvm::Long64::fromBits(A),
                                   jvm::Long64::fromBits(B));
      uint64_t Wrapped =
          static_cast<uint64_t>(A) * static_cast<uint64_t>(B);
      Mismatches += static_cast<uint64_t>(P.bits()) != Wrapped;
    }
    uint64_t End = hostNs();
    double N = static_cast<double>(Operands.size());
    It.Layers["long64.divrem_ns"] = static_cast<double>(Mid - Start) / N;
    It.Layers["long64.mul_ns"] = static_cast<double>(End - Mid) / N;
    It.check(Mismatches == 0, "Long64 disagrees with hardware arithmetic");
  }

  bool IsPiDigits;
  workloads::Workload W;
  /// DeltaBlue: the exact output. pidigits: the first Digits digits of pi.
  std::string Expected;
  std::vector<std::pair<int64_t, int64_t>> Operands;
};

} // namespace

std::unique_ptr<Workload> makeJvmWorkload(bool Long, const Inputs &In) {
  return std::make_unique<JvmWorkload>(Long, In);
}
