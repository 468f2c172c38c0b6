//===- jvm/classloader.h - Dynamic class loading (§6.4) -----------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "When a bytecode instruction references a class for the first time, the
/// JVM invokes a complex dynamic class loading process... The DoppioJVM
/// class loader uses the Doppio file system and its Buffer module to
/// appropriately download and parse JVM class files" (§6.4). The class
/// path is a list of Doppio-file-system directories (typically an XHR
/// backend mount, so each class file is downloaded lazily on first
/// reference), plus a registry of built-in classes defined directly by the
/// embedder (the synthesized class library).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_JVM_CLASSLOADER_H
#define DOPPIO_JVM_CLASSLOADER_H

#include "jvm/classfile/verifier.h"
#include "jvm/klass.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace jvm {

class Jvm;

/// The body of one native method of a built-in class, with the name and
/// descriptor that declare it (jcl.cpp declares both in one place).
struct NativeBinding {
  std::string Name;
  std::string Descriptor;
  NativeFn Fn;
};

/// Loads, links, and owns Klass objects.
class ClassLoader {
public:
  explicit ClassLoader(Jvm &Vm) : Vm(Vm) {}

  /// Adds a file-system directory ("/classes") searched for
  /// "<dir>/<internal/name>.class".
  void addClasspathEntry(std::string Dir) {
    Classpath.push_back(std::move(Dir));
  }

  /// Synchronous lookup of an already-loaded class; null if absent. Array
  /// classes ("[I", "[Ljava/lang/String;") are synthesized on demand when
  /// their element class (if any) is loaded.
  Klass *lookup(const std::string &Name);

  /// Loads \p Name (and its superclass chain) through the Doppio file
  /// system, asynchronously. \p Done runs once the class is linked, or
  /// with NoClassDefFound-style ENOENT.
  void loadAsync(const std::string &Name,
                 std::function<void(rt::ErrorOr<Klass *>)> Done);

  /// Defines a built-in class from an in-memory class file and binds each
  /// of \p Natives to the native method of its name and descriptor.
  /// Superclasses must already be defined. Asserts on failure, and on a
  /// body for a method the class does not declare native (programming
  /// errors).
  Klass *defineBuiltin(ClassFile Cf,
                       std::vector<NativeBinding> Natives = {});

  /// Holds a built-in class back until its first lookup, which defines
  /// it. For a class few programs touch: until then it is absent from
  /// loadedClasses(), and so from checkpoint images.
  void deferBuiltin(ClassFile Cf) {
    std::string Name = Cf.ThisClass;
    Deferred.emplace(std::move(Name), std::move(Cf));
  }

  /// Parses and links class bytes that arrived by other means (§6.8's
  /// embedding API). Supers must already be loaded.
  rt::ErrorOr<Klass *> defineFromBytes(const std::vector<uint8_t> &Bytes);

  size_t loadedCount() const { return Classes.size(); }
  /// True while any loadAsync is in flight (a checkpoint must wait).
  bool hasPendingLoads() const { return !Pending.empty(); }
  /// Every loaded class in name order (the checkpoint walks this).
  std::vector<Klass *> loadedClasses() const {
    std::vector<Klass *> Out;
    Out.reserve(Classes.size());
    for (const auto &[Name, K] : Classes)
      Out.push_back(K.get());
    return Out;
  }
  /// Number of class files fetched through the file system.
  uint64_t fileLoads() const { return FileLoads; }

  /// Placement-analysis tallies across every linked method (DESIGN.md
  /// §17): how many bodies landed on each AnalysisStatus.
  uint64_t analysisCount(AnalysisStatus S) const {
    return AnalysisCounts[static_cast<size_t>(S)];
  }
  /// Max proven between-checks bound K over all loaded methods: the
  /// global dynamic-span bound the interpreter asserts in Placed mode.
  uint32_t provenBoundMax() const { return ProvenBoundMax; }

private:
  /// Links \p Cf and marks each method's Verified bit from \p Known (the
  /// verifier's diagnostics for this class file); when null, the verifier
  /// runs here. Definition paths never reject — a method with diagnostics
  /// merely stays unverified and runs guarded.
  Klass *link(ClassFile Cf, const std::vector<VerifyError> *Known = nullptr);
  /// Runs the CFG/loop placement analysis over every verified method of
  /// \p K, stamping the per-method verdicts (klass.h) and the tallies.
  void analyzePlacement(Klass &K);
  Klass *makeArrayClass(const std::string &Name);
  /// Tries classpath entries starting at \p Index.
  void fetchFromClasspath(
      std::shared_ptr<std::string> Name, size_t Index,
      std::function<void(rt::ErrorOr<std::vector<uint8_t>>)> Done);

  Jvm &Vm;
  std::vector<std::string> Classpath;
  std::map<std::string, std::unique_ptr<Klass>> Classes;
  /// Built-in classes not yet defined (deferBuiltin).
  std::map<std::string, ClassFile> Deferred;
  /// In-flight loads: completions waiting on the same class.
  std::map<std::string,
           std::vector<std::function<void(rt::ErrorOr<Klass *>)>>>
      Pending;
  uint64_t FileLoads = 0;
  uint64_t AnalysisCounts[16] = {};
  uint32_t ProvenBoundMax = 0;
};

} // namespace jvm
} // namespace doppio

#endif // DOPPIO_JVM_CLASSLOADER_H
