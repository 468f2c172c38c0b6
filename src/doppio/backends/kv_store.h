//===- doppio/backends/kv_store.h - Storage adapters (§5.1) ------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapters that turn each browser persistence mechanism (Table 2) into a
/// uniform asynchronous key/value store of binary blobs, which the generic
/// KeyValueBackend builds a file system over:
///
///  - LocalStorageKv: string key/value pairs; binary file data rides
///    through Buffer's binary-string codec (2 bytes per code unit on
///    non-validating browsers, 1 otherwise — §5.1), so file capacity
///    depends on the browser. Operations are synchronous.
///  - IndexedDbKv: the asynchronous object database.
///  - CloudKv: Dropbox-style cloud storage behind network latency (the
///    backend contributed by Google Summer of Code in the paper's
///    acknowledgements).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_BACKENDS_KV_STORE_H
#define DOPPIO_DOPPIO_BACKENDS_KV_STORE_H

#include "browser/env.h"
#include "doppio/errors.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace doppio {
namespace rt {
namespace fs {

/// Uniform async binary key/value store over one persistence mechanism.
class AsyncKvStore {
public:
  using Bytes = std::vector<uint8_t>;
  using GetCb = std::function<void(ErrorOr<std::optional<Bytes>>)>;
  using DoneCb = std::function<void(std::optional<ApiError>)>;

  virtual ~AsyncKvStore();

  virtual std::string storeName() const = 0;
  virtual void get(const std::string &Key, GetCb Done) = 0;
  virtual void put(const std::string &Key, const Bytes &Value,
                   DoneCb Done) = 0;
  virtual void del(const std::string &Key, DoneCb Done) = 0;

  /// Quota introspection, so layers above (the write-back cache) can
  /// fast-fail a put that cannot possibly fit instead of discovering
  /// ENOSPC at flush time. quotaBytes() == 0 means unmetered.
  virtual uint64_t usedBytes() const { return 0; }
  virtual uint64_t quotaBytes() const { return 0; }

  /// Bytes of quota one put of \p ValueBytes under \p Key will consume.
  /// Mechanism-dependent: localStorage stores UTF-16 code units, so the
  /// binary-string codec doubles the bill on validating browsers (§5.1).
  virtual uint64_t putCostBytes(const std::string &Key,
                                size_t ValueBytes) const {
    return Key.size() + ValueBytes;
  }

  /// Durability barrier: \p Done fires once every acknowledged mutation
  /// has reached the underlying mechanism. The plain adapters are
  /// write-through (each put is durable at its own callback), so the
  /// default completes immediately; the write-back cache overrides this
  /// to flush dirty state and seal the journal group.
  virtual void sync(DoneCb Done) { Done(std::nullopt); }
};

/// localStorage adapter: synchronous, string-valued, 5 MB quota.
class LocalStorageKv : public AsyncKvStore {
public:
  explicit LocalStorageKv(browser::BrowserEnv &Env) : Env(Env) {}

  std::string storeName() const override { return "localstorage"; }
  void get(const std::string &Key, GetCb Done) override;
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override;
  void del(const std::string &Key, DoneCb Done) override;

  uint64_t usedBytes() const override {
    return Env.localStorage().usedBytes();
  }
  uint64_t quotaBytes() const override {
    return Env.localStorage().quotaBytes();
  }
  /// The quota is billed in UTF-16 bytes of the encoded string: packed
  /// 2-bytes-per-code-unit on non-validating browsers (N payload bytes →
  /// N quota bytes), 1-byte-per-code-unit where UTF-16 is validated
  /// (N payload bytes → 2N quota bytes).
  uint64_t putCostBytes(const std::string &Key,
                        size_t ValueBytes) const override {
    return Key.size() +
           static_cast<uint64_t>(ValueBytes) *
               (Env.profile().ValidatesStrings ? 2 : 1);
  }

private:
  browser::BrowserEnv &Env;
};

/// IndexedDB adapter: asynchronous binary object store.
class IndexedDbKv : public AsyncKvStore {
public:
  /// Requires Env.indexedDB() != null.
  explicit IndexedDbKv(browser::BrowserEnv &Env);

  std::string storeName() const override { return "indexeddb"; }
  void get(const std::string &Key, GetCb Done) override;
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override;
  void del(const std::string &Key, DoneCb Done) override;

  uint64_t usedBytes() const override;
  uint64_t quotaBytes() const override;

private:
  browser::BrowserEnv &Env;
  browser::IndexedDB &Db;
};

/// Dropbox-style cloud adapter: a remote blob store behind WAN latency.
class CloudKv : public AsyncKvStore {
public:
  CloudKv(browser::BrowserEnv &Env, uint64_t RoundTripNs = 0)
      : Env(Env),
        RoundTripNs(RoundTripNs ? RoundTripNs : browser::msToNs(45)) {}

  std::string storeName() const override { return "cloud"; }
  void get(const std::string &Key, GetCb Done) override;
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override;
  void del(const std::string &Key, DoneCb Done) override;

  uint64_t usedBytes() const override { return Used; }
  uint64_t quotaBytes() const override { return Quota; }

  /// Account quota (0 = unmetered, the default; real providers meter).
  void setQuotaBytes(uint64_t Q) { Quota = Q; }

  size_t objectCount() const { return Remote.size(); }

private:
  browser::BrowserEnv &Env;
  uint64_t RoundTripNs;
  uint64_t Quota = 0;
  uint64_t Used = 0;
  /// Hashed: only ever looked up by key and counted, never iterated.
  std::unordered_map<std::string, Bytes> Remote;
};

} // namespace fs
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_BACKENDS_KV_STORE_H
