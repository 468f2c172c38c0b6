//===- perfbench/trace.h - Out-of-tree layer tracing ------------*- C++ -*-===//
//
// The traced run of the benchmark. Every measurement here is taken at the
// boundary of a layer's public interface, by decorators and forwarding
// wrappers that the benchmark inserts when it assembles a stack; nothing
// inside src/ is edited or instrumented.
//
//  - A span is one wrapped call: from issue to the moment its completion
//    callback fires, parented under the span whose code issued it. Spans
//    stay in memory and are written out when the run ends.
//  - A span's self time is its duration minus the part of that interval
//    its child spans cover.
//  - Independently, an attribution stack charges every host nanosecond to
//    the layer whose code is executing: a wrapped call pushes its layer, a
//    wrapped completion callback pushes the layer that issued the call.
//    Time spent in the event loop outside every wrapped call is the loop's
//    residual.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "doppio/backends/kv_store.h"
#include "doppio/fs_backend.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t hostNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The layers a span or an attributed nanosecond can belong to.
enum class Layer : uint8_t {
  Bench,   // The benchmark itself (and everything outside loop runs).
  Loop,    // Event-loop dispatch outside every wrapped call.
  Jvm,     // runMainToCompletion, minus what the wrappers below claim.
  Xhr,     // The classpath backend mounted at /classes.
  Fs,      // FileSystem calls issued by the benchmark.
  Server,  // doppiod request handlers, through the router wrapper.
  Store,   // The AsyncKvStore between KeyValueBackend and the cache.
  Slow,    // The slow store below the cache.
  Count
};

const char *layerName(Layer L);

struct Span {
  /// 1-based id of the span that issued this one; 0 for a root.
  uint32_t Parent = 0;
  Layer L = Layer::Bench;
  /// Layer on top of the attribution stack when the call was issued: the
  /// completion callback runs on its behalf.
  Layer Issuer = Layer::Bench;
  const char *Name = "";
  uint64_t StartNs = 0;
  /// 0 until the completion fires.
  uint64_t EndNs = 0;

  uint64_t durationNs() const { return EndNs > StartNs ? EndNs - StartNs : 0; }
};

/// In-memory span store plus the attribution stack.
class Tracer {
public:
  Tracer() { reset(); }

  /// Opens a span of layer \p L under the current context span.
  uint32_t open(Layer L, const char *Name) {
    Span S;
    S.Parent = context();
    S.L = L;
    S.Issuer = top();
    S.Name = Name;
    S.StartNs = hostNs();
    Spans.push_back(S);
    return static_cast<uint32_t>(Spans.size());
  }
  void close(uint32_t Id) { Spans[Id - 1].EndNs = hostNs(); }
  const Span &span(uint32_t Id) const { return Spans[Id - 1]; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Makes \p L (acting for span \p Ctx) the layer executing from now on.
  void push(Layer L, uint32_t Ctx) {
    charge();
    Stack.push_back({L, Ctx});
  }
  void pop() {
    charge();
    Stack.pop_back();
  }
  Layer top() const { return Stack.empty() ? Layer::Bench : Stack.back().L; }
  uint32_t context() const { return Stack.empty() ? 0 : Stack.back().Ctx; }

  /// Host ns charged to \p L while it was on top of the stack.
  uint64_t exclusiveNs(Layer L) const {
    return Exclusive[static_cast<size_t>(L)];
  }

  /// Self time of every span (indexed by id - 1): duration minus the union
  /// of its children's intervals, clipped to its own.
  std::vector<uint64_t> selfNs() const;

  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool writeSpans(const std::string &Path) const;

  void reset() {
    Spans.clear();
    Stack.clear();
    Exclusive.fill(0);
    Last = hostNs();
  }

private:
  struct Frame {
    Layer L;
    uint32_t Ctx;
  };

  void charge() {
    uint64_t Now = hostNs();
    Exclusive[static_cast<size_t>(top())] += Now - Last;
    Last = Now;
  }

  std::vector<Span> Spans;
  std::vector<Frame> Stack;
  std::array<uint64_t, static_cast<size_t>(Layer::Count)> Exclusive{};
  uint64_t Last = 0;
};

/// RAII frame for the synchronous part of a wrapped call: opens the span
/// and makes its layer the one executing. A null tracer makes it inert.
class Call {
public:
  Call(Tracer *T, Layer L, const char *Name) : T(T) {
    if (!T)
      return;
    Id = T->open(L, Name);
    T->push(L, Id);
  }
  ~Call() {
    if (T)
      T->pop();
  }
  Call(const Call &) = delete;
  Call &operator=(const Call &) = delete;

  /// Wraps \p Done so the span closes when it fires and the callback's
  /// own work is charged to the issuing layer.
  template <typename Fn> Fn done(Fn Done) const {
    if (!T)
      return Done;
    Tracer *Tr = T;
    uint32_t Span = Id;
    return [Tr, Span, Done = std::move(Done)](auto &&...Args) {
      Tr->close(Span);
      const perfbench::Span &S = Tr->span(Span);
      Tr->push(S.Issuer, S.Parent);
      Done(std::forward<decltype(Args)>(Args)...);
      Tr->pop();
    };
  }

private:
  Tracer *T;
  uint32_t Id = 0;
};

/// Runs \p Fn with \p L on top of the attribution stack (no span).
template <typename Fn> void attributed(Tracer *T, Layer L, Fn &&F) {
  if (T)
    T->push(L, T->context());
  F();
  if (T)
    T->pop();
}

/// AsyncKvStore decorator: counts traffic always, opens spans when traced.
/// Owns its inner store, or borrows one that outlives it.
class KvTap : public doppio::rt::fs::AsyncKvStore {
public:
  KvTap(std::unique_ptr<AsyncKvStore> Owned, Tracer *T, Layer L)
      : Owned(std::move(Owned)), Inner(this->Owned.get()), T(T), L(L) {}
  KvTap(AsyncKvStore &Borrowed, Tracer *T, Layer L)
      : Inner(&Borrowed), T(T), L(L) {}

  std::string storeName() const override { return Inner->storeName(); }
  void get(const std::string &Key, GetCb Done) override {
    ++Gets;
    Call C(T, L, "get");
    Inner->get(Key, C.done(std::move(Done)));
  }
  void put(const std::string &Key, const Bytes &Value, DoneCb Done) override {
    ++Puts;
    PutBytes += Value.size();
    if (Key == "index") {
      ++IndexPuts;
      IndexPutBytes += Value.size();
    }
    Call C(T, L, "put");
    Inner->put(Key, Value, C.done(std::move(Done)));
  }
  void del(const std::string &Key, DoneCb Done) override {
    Call C(T, L, "del");
    Inner->del(Key, C.done(std::move(Done)));
  }
  void sync(DoneCb Done) override {
    Call C(T, L, "sync");
    Inner->sync(C.done(std::move(Done)));
  }
  uint64_t usedBytes() const override { return Inner->usedBytes(); }
  uint64_t quotaBytes() const override { return Inner->quotaBytes(); }
  uint64_t putCostBytes(const std::string &Key,
                        size_t ValueBytes) const override {
    return Inner->putCostBytes(Key, ValueBytes);
  }

  uint64_t Gets = 0, Puts = 0, PutBytes = 0, IndexPuts = 0,
           IndexPutBytes = 0;

private:
  std::unique_ptr<AsyncKvStore> Owned;
  AsyncKvStore *Inner;
  Tracer *T;
  Layer L;
};

/// FileSystemBackend decorator that opens a span per call when traced.
class BackendTap : public doppio::rt::fs::FileSystemBackend {
public:
  BackendTap(std::unique_ptr<FileSystemBackend> Inner, Tracer *T, Layer L)
      : Inner(std::move(Inner)), T(T), L(L) {}

  std::string backendName() const override { return Inner->backendName(); }
  bool isReadOnly() const override { return Inner->isReadOnly(); }

  using CompletionCb = doppio::rt::fs::CompletionCb;
  template <typename V> using ResultCb = doppio::rt::fs::ResultCb<V>;

  void rename(const std::string &From, const std::string &To,
              CompletionCb Done) override {
    Call C(T, L, "rename");
    Inner->rename(From, To, C.done(std::move(Done)));
  }
  void stat(const std::string &Path,
            ResultCb<doppio::rt::fs::Stats> Done) override {
    Call C(T, L, "stat");
    Inner->stat(Path, C.done(std::move(Done)));
  }
  void open(const std::string &Path, doppio::rt::fs::OpenFlags Flags,
            ResultCb<doppio::rt::fs::FdPtr> Done) override {
    Call C(T, L, "open");
    Inner->open(Path, Flags, C.done(std::move(Done)));
  }
  void unlink(const std::string &Path, CompletionCb Done) override {
    Call C(T, L, "unlink");
    Inner->unlink(Path, C.done(std::move(Done)));
  }
  void rmdir(const std::string &Path, CompletionCb Done) override {
    Call C(T, L, "rmdir");
    Inner->rmdir(Path, C.done(std::move(Done)));
  }
  void mkdir(const std::string &Path, CompletionCb Done) override {
    Call C(T, L, "mkdir");
    Inner->mkdir(Path, C.done(std::move(Done)));
  }
  void readdir(const std::string &Path,
               ResultCb<std::vector<std::string>> Done) override {
    Call C(T, L, "readdir");
    Inner->readdir(Path, C.done(std::move(Done)));
  }

private:
  std::unique_ptr<FileSystemBackend> Inner;
  Tracer *T;
  Layer L;
};

/// Host ns covered by the union of \p Spans' intervals of layer \p L.
uint64_t unionNs(const Tracer &T, Layer L);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
