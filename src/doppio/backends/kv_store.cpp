//===- doppio/backends/kv_store.cpp ---------------------------------------==//

#include "doppio/backends/kv_store.h"

#include "doppio/buffer.h"

#include <cassert>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

AsyncKvStore::~AsyncKvStore() = default;

//===----------------------------------------------------------------------===//
// LocalStorageKv
//===----------------------------------------------------------------------===//

void LocalStorageKv::get(const std::string &Key, GetCb Done) {
  std::optional<js::String> Item = Env.localStorage().getItem(Key);
  if (!Item) {
    Done(std::optional<Bytes>());
    return;
  }
  // Decode the binary-string payload back into bytes (§5.1).
  Buffer Decoded = Buffer::fromString(Env, *Item, Encoding::BinaryString);
  Done(std::optional<Bytes>(Decoded.bytes()));
}

void LocalStorageKv::put(const std::string &Key, const Bytes &Value,
                         DoneCb Done) {
  Buffer Wrapped(Env, Value);
  js::String Encoded = Wrapped.toString(Encoding::BinaryString);
  switch (Env.localStorage().setItem(Key, Encoded)) {
  case browser::StoreResult::Ok:
    Done(std::nullopt);
    return;
  case browser::StoreResult::QuotaExceeded:
    Done(ApiError(Errno::NoSpace, Key));
    return;
  case browser::StoreResult::InvalidString:
    // Unreachable when the codec honours the profile's validation flag.
    Done(ApiError(Errno::Io, Key));
    return;
  }
}

void LocalStorageKv::del(const std::string &Key, DoneCb Done) {
  Env.localStorage().removeItem(Key);
  Done(std::nullopt);
}

//===----------------------------------------------------------------------===//
// IndexedDbKv
//===----------------------------------------------------------------------===//

IndexedDbKv::IndexedDbKv(browser::BrowserEnv &Env)
    : Env(Env), Db(*Env.indexedDB()) {
  assert(Env.indexedDB() && "IndexedDbKv on a browser without IndexedDB");
}

void IndexedDbKv::get(const std::string &Key, GetCb Done) {
  Db.get(Key, [Done = std::move(Done)](std::optional<Bytes> V) {
    Done(std::optional<Bytes>(std::move(V)));
  });
}

void IndexedDbKv::put(const std::string &Key, const Bytes &Value,
                      DoneCb Done) {
  Db.put(Key, Value, [Key, Done = std::move(Done)](bool Ok) {
    if (Ok)
      Done(std::nullopt);
    else
      Done(ApiError(Errno::NoSpace, Key));
  });
}

void IndexedDbKv::del(const std::string &Key, DoneCb Done) {
  Db.remove(Key, [Done = std::move(Done)] { Done(std::nullopt); });
}

uint64_t IndexedDbKv::usedBytes() const { return Db.usedBytes(); }

uint64_t IndexedDbKv::quotaBytes() const { return Db.quotaBytes(); }

//===----------------------------------------------------------------------===//
// CloudKv
//===----------------------------------------------------------------------===//

void CloudKv::get(const std::string &Key, GetCb Done) {
  uint64_t Latency = RoundTripNs;
  auto It = Remote.find(Key);
  if (It != Remote.end())
    Latency += Env.profile().Costs.XhrPerByteNs * It->second.size();
  Env.loop().scheduleAfter(
      [this, Key, Done = std::move(Done)] {
        auto Found = Remote.find(Key);
        if (Found == Remote.end()) {
          Done(std::optional<Bytes>());
          return;
        }
        Done(std::optional<Bytes>(Found->second));
      },
      Latency);
}

void CloudKv::put(const std::string &Key, const Bytes &Value, DoneCb Done) {
  uint64_t Latency =
      RoundTripNs + Env.profile().Costs.XhrPerByteNs * Value.size();
  Env.loop().scheduleAfter(
      [this, Key, Value, Done = std::move(Done)]() mutable {
        uint64_t Old = 0;
        auto It = Remote.find(Key);
        if (It != Remote.end())
          Old = Key.size() + It->second.size();
        uint64_t New = Key.size() + Value.size();
        if (Quota && Used - Old + New > Quota) {
          // The provider rejects over-quota writes server-side; same
          // Errno::NoSpace the browser mechanisms surface (ENOSPC at the
          // fs layer regardless of adapter).
          Done(ApiError(Errno::NoSpace, Key));
          return;
        }
        Used = Used - Old + New;
        Remote[Key] = std::move(Value);
        Done(std::nullopt);
      },
      Latency);
}

void CloudKv::del(const std::string &Key, DoneCb Done) {
  Env.loop().scheduleAfter(
      [this, Key, Done = std::move(Done)] {
        auto It = Remote.find(Key);
        if (It != Remote.end()) {
          Used -= Key.size() + It->second.size();
          Remote.erase(It);
        }
        Done(std::nullopt);
      },
      RoundTripNs);
}
