//===- perfbench/fs_javac.cpp - the Figure 6 trace on cached cloud --------===//
//
// One repetition: a fresh tab with the cached-cloud stack (set-up), then
// the timed phase, driven one blocking call at a time through a Suspender
// the way a guest using the synchronous API is (§4.2):
//
//  1. install the trace's 1539-file tree in seeded order, as DoppioJVM
//     unpacks its class library into a persistent store;
//  2. replay the 3185-operation javac trace;
//  3. sync(), so deferred write-back cannot escape the timer.
//
// Untimed afterwards, a fresh backend over the same cloud store must
// reload the same tree, with every file's bytes.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "stack.h"

#include "workloads/fstrace.h"

#include <algorithm>
#include <functional>
#include <set>

using namespace doppio;
using namespace perfbench;
using workloads::FsTraceOp;
namespace fs = doppio::rt::fs;

namespace {

/// One blocking call of the timed phase.
struct Step {
  enum class Kind { Mkdir, Write, Read, Stat, Readdir, Sync } K;
  std::string Path;
  /// Index into Contents: the bytes written, or expected back.
  size_t File = 0;
};

class FsJavac : public Workload {
public:
  explicit FsJavac(const Inputs &In) {
    Rng R(In.Seed);
    workloads::FsTrace Trace = workloads::makeJavacTrace();
    std::set<std::string> Dirs;
    for (const auto &[Path, Size] : Trace.Preexisting) {
      size_t Slash = Path.rfind('/');
      std::string Dir = Path.substr(0, Slash);
      Dirs.insert(Dir);
      Index[Path] = Contents.size();
      Listing[Dir].push_back(Path.substr(Slash + 1));
      Contents.push_back(R.bytes(Size));
    }
    for (auto &[Dir, Names] : Listing)
      std::sort(Names.begin(), Names.end());
    Dirs.insert("/work/out");
    for (const std::string &D : Dirs)
      Steps.push_back({Step::Kind::Mkdir, D});
    std::vector<size_t> Order(Trace.Preexisting.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    for (size_t I : Order)
      Steps.push_back({Step::Kind::Write, Trace.Preexisting[I].first, I});
    for (const FsTraceOp &Op : Trace.Ops) {
      switch (Op.K) {
      case FsTraceOp::Kind::Read:
        Steps.push_back({Step::Kind::Read, Op.Path, Index.at(Op.Path)});
        break;
      case FsTraceOp::Kind::Stat:
        Steps.push_back({Step::Kind::Stat, Op.Path, Index.at(Op.Path)});
        break;
      case FsTraceOp::Kind::Readdir:
        Steps.push_back({Step::Kind::Readdir, Op.Path});
        break;
      case FsTraceOp::Kind::Write:
        Index[Op.Path] = Contents.size();
        Steps.push_back({Step::Kind::Write, Op.Path, Contents.size()});
        Contents.push_back(R.bytes(Op.SizeBytes));
        break;
      case FsTraceOp::Kind::Mkdir:
      case FsTraceOp::Kind::Unlink:
        break; // The javac trace has neither.
      }
    }
    Steps.push_back({Step::Kind::Sync, ""});
  }

  Iteration iterate(Tracer *T) override {
    Iteration It;
    uint64_t T0 = hostNs();
    browser::BrowserEnv Env(browser::chromeProfile());
    rt::Process Proc;
    CachedCloudStack Stack(Env, T);
    bool InitOk = Stack.initialize();
    fs::FileSystem Fs(Env, Proc, Stack.take());
    rt::Suspender Susp(Env);
    uint64_t T1 = hostNs();
    if (T)
      T->reset();
    Stack.mark();

    uint64_t V0 = Env.clock().nowNs();
    Fs_ = &Fs;
    Stack_ = &Stack;
    Susp_ = &Susp;
    Env_ = &Env;
    T_ = T;
    It_ = &It;
    Next = 0;
    step();
    attributed(T, Layer::Loop, [&] { Env.loop().run(); });
    uint64_t T2 = hostNs();
    It.SetupNs = T1 - T0;
    It.RunNs = T2 - T1;
    It.VirtualNs = Env.clock().nowNs() - V0;
    It.check(InitOk, "cached-cloud stack failed to initialize");
    It.check(Next == Steps.size(), "replay stopped at step " +
                                       std::to_string(Next));

    if (T) {
      It.Layers["backends.self_ns"] =
          static_cast<double>(layerSelfNs(*T, Layer::Fs));
      It.Layers["fs.ops"] = static_cast<double>(Fs.stats().Operations);
      It.Layers["fs.stat_ns"] = meanDurationNs(*T, Layer::Fs, "stat");
      It.Layers["fs.read_ns"] = meanDurationNs(*T, Layer::Fs, "read");
      It.Layers["fs.write_ns"] = meanDurationNs(*T, Layer::Fs, "write");
      It.Layers["fs.mkdir_ns"] = meanDurationNs(*T, Layer::Fs, "mkdir");
      It.Layers["fs.readdir_ns"] = meanDurationNs(*T, Layer::Fs, "readdir");
      It.Layers["suspend.resumptions"] =
          static_cast<double>(Susp.resumptionCount());
      It.Layers["suspend.virtual_ns"] =
          static_cast<double>(Susp.totalSuspendedNs());
      Stack.addLayers(*T, It);
      addLoopLayers(Env, *T, It);
    }
    checkReload(Env, Proc, Stack, It);
    return It;
  }

private:
  /// Issues step Next; its completion records the latency and resumes the
  /// "guest" for the following step through the Suspender.
  void step() {
    if (Next == Steps.size())
      return;
    const Step &S = Steps[Next];
    uint64_t Issued = Env_->clock().nowNs();
    auto Finish = [this, Issued](bool Ok) {
      It_->OpVirtualNs.push_back(Env_->clock().nowNs() - Issued);
      It_->check(Ok, Ok ? std::string()
                        : "step " + std::to_string(Next) + " on '" +
                              Steps[Next].Path + "'");
      ++Next;
      Susp_->scheduleResumption([this] { step(); });
    };
    auto Done = [Finish](std::optional<rt::ApiError> E) { Finish(!E); };
    switch (S.K) {
    case Step::Kind::Mkdir: {
      Call C(T_, Layer::Fs, "mkdir");
      Fs_->mkdirp(S.Path, C.done(fs::CompletionCb(Done)));
      return;
    }
    case Step::Kind::Write: {
      Call C(T_, Layer::Fs, "write");
      Fs_->writeFile(S.Path, Contents[S.File],
                     C.done(fs::CompletionCb(Done)));
      return;
    }
    case Step::Kind::Read: {
      Call C(T_, Layer::Fs, "read");
      const std::vector<uint8_t> &Want = Contents[S.File];
      Fs_->readFile(S.Path, C.done(fs::ResultCb<std::vector<uint8_t>>(
                                [Finish, &Want](
                                    rt::ErrorOr<std::vector<uint8_t>> R) {
                                  Finish(R.ok() && *R == Want);
                                })));
      return;
    }
    case Step::Kind::Stat: {
      Call C(T_, Layer::Fs, "stat");
      uint64_t Want = Contents[S.File].size();
      Fs_->stat(S.Path, C.done(fs::ResultCb<fs::Stats>(
                            [Finish, Want](rt::ErrorOr<fs::Stats> R) {
                              Finish(R.ok() && R->SizeBytes == Want);
                            })));
      return;
    }
    case Step::Kind::Readdir: {
      Call C(T_, Layer::Fs, "readdir");
      const std::vector<std::string> &Want = Listing[S.Path];
      Fs_->readdir(S.Path,
                   C.done(fs::ResultCb<std::vector<std::string>>(
                       [Finish, &Want](
                           rt::ErrorOr<std::vector<std::string>> R) {
                         std::vector<std::string> Got;
                         if (R.ok())
                           Got = *R;
                         std::sort(Got.begin(), Got.end());
                         Finish(R.ok() && Got == Want);
                       })));
      return;
    }
    case Step::Kind::Sync: {
      Call C(T_, Layer::Fs, "sync");
      Stack_->backend().sync(C.done(fs::CompletionCb(Done)));
      return;
    }
    }
  }

  /// A fresh cache + backend over the same cloud store reloads the tree
  /// the run left behind: the same files, sizes and directories, and
  /// every file read back through it holds the bytes last written.
  void checkReload(browser::BrowserEnv &Env, rt::Process &Proc,
                   CachedCloudStack &Stack, Iteration &It) {
    std::unique_ptr<fs::KeyValueBackend> Fresh = Stack.reopen();
    if (!Fresh) {
      It.check(false, "a fresh backend failed to reload the cloud store");
      return;
    }
    const fs::FileIndex &Reloaded = Fresh->index();
    std::vector<std::string> Files = Reloaded.allFiles();
    bool Same = Files.size() == Index.size();
    for (const std::string &F : Files) {
      auto Want = Index.find(F);
      const fs::FileIndex::Meta *M = Reloaded.lookup(F);
      Same = Same && Want != Index.end() && M &&
             M->SizeBytes == Contents[Want->second].size();
    }
    Same = Same && Reloaded.allDirs() == Stack.backend().index().allDirs();
    It.check(Same, "reloaded tree differs from the installed one");

    fs::FileSystem FreshFs(Env, Proc, std::move(Fresh));
    size_t Right = 0;
    for (const auto &[Path, File] : Index)
      FreshFs.readFile(Path, [&Right, &Want = Contents[File]](
                                 rt::ErrorOr<std::vector<uint8_t>> R) {
        Right += R.ok() && *R == Want;
      });
    Env.loop().run();
    It.check(Right == Index.size(),
             std::to_string(Index.size() - Right) +
                 " files read back through the reloaded tree differ from "
                 "the bytes written");
  }

  std::vector<Step> Steps;
  std::vector<std::vector<uint8_t>> Contents;
  std::map<std::string, size_t> Index;
  std::map<std::string, std::vector<std::string>> Listing;

  // State of the repetition in flight.
  size_t Next = 0;
  fs::FileSystem *Fs_ = nullptr;
  CachedCloudStack *Stack_ = nullptr;
  rt::Suspender *Susp_ = nullptr;
  browser::BrowserEnv *Env_ = nullptr;
  Tracer *T_ = nullptr;
  Iteration *It_ = nullptr;
};

} // namespace

std::unique_ptr<Workload> makeFsJavac(const Inputs &In) {
  return std::make_unique<FsJavac>(In);
}
