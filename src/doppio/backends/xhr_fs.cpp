//===- doppio/backends/xhr_fs.cpp -----------------------------------------==//

#include "doppio/backends/xhr_fs.h"

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

XhrBackend::XhrBackend(browser::BrowserEnv &Env, std::string Prefix)
    : Env(Env), ServerPrefix(std::move(Prefix)) {
  // Build the index from the server's listing. A real deployment ships a
  // pre-generated listing file; the simulation reads it directly.
  for (const std::string &Path : Env.server().list(ServerPrefix + "/")) {
    const std::vector<uint8_t> *Body = Env.server().lookup(Path);
    Index.addFile(Path.substr(ServerPrefix.size()),
                  Body ? Body->size() : 0);
  }
}

static ApiError readOnlyError(const std::string &Path) {
  return ApiError(Errno::ReadOnlyFs, Path);
}

void XhrBackend::rename(const std::string &OldPath, const std::string &,
                        CompletionCb Done) {
  Done(readOnlyError(OldPath));
}

void XhrBackend::unlink(const std::string &Path, CompletionCb Done) {
  Done(readOnlyError(Path));
}

void XhrBackend::rmdir(const std::string &Path, CompletionCb Done) {
  Done(readOnlyError(Path));
}

void XhrBackend::mkdir(const std::string &Path, CompletionCb Done) {
  Done(readOnlyError(Path));
}

void XhrBackend::stat(const std::string &Path, ResultCb<Stats> Done) {
  Env.chargeIo(200);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  Stats S;
  S.Type = Meta->Type;
  S.SizeBytes = Meta->SizeBytes;
  S.MtimeNs = Meta->MtimeNs;
  Done(S);
}

void XhrBackend::readdir(const std::string &Path,
                         ResultCb<std::vector<std::string>> Done) {
  Env.chargeIo(200);
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type != FileType::Directory) {
    Done(ApiError(Errno::NotDir, Path));
    return;
  }
  Done(Index.list(Path));
}

void XhrBackend::open(const std::string &Path, OpenFlags Flags,
                      ResultCb<FdPtr> Done) {
  if (Flags.Write || Flags.Create) {
    Done(readOnlyError(Path));
    return;
  }
  const FileIndex::Meta *Meta = Index.lookup(Path);
  if (!Meta) {
    Done(ApiError(Errno::NoEnt, Path));
    return;
  }
  if (Meta->Type == FileType::Directory) {
    Done(ApiError(Errno::IsDir, Path));
    return;
  }
  PreloadFile::SyncFn NoSync = [](const std::string &P,
                                  const std::vector<uint8_t> &,
                                  CompletionCb SyncDone) {
    SyncDone(ApiError(Errno::ReadOnlyFs, P));
  };
  auto It = Cache.find(Path);
  if (It != Cache.end()) {
    ++CacheHits;
    Env.chargeIo(300);
    Done(FdPtr(std::make_shared<PreloadFile>(Env, Path, Flags, It->second,
                                             NoSync)));
    return;
  }
  // Lazy download on first open (§6.4): an asynchronous request loads the
  // file into memory before the open completes.
  ++Downloads;
  Env.xhr().get(ServerPrefix + Path,
                [this, Path, Flags, NoSync,
                 Done = std::move(Done)](browser::Xhr::Response R) {
                  if (R.Status != 200) {
                    Done(ApiError(Errno::Io, Path));
                    return;
                  }
                  Cache[Path] = R.Body;
                  Done(FdPtr(std::make_shared<PreloadFile>(
                      Env, Path, Flags, std::move(R.Body), NoSync)));
                });
}
