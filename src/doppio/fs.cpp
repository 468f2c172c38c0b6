//===- doppio/fs.cpp ------------------------------------------------------==//

#include "doppio/fs.h"

#include "browser/env.h"

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

void FileSystem::bindCells() {
  // claimPrefix: a second FileSystem on the same tab (nothing in-tree
  // builds one today) gets "fs2.*" cells instead of corrupting ours.
  obs::Registry &Reg = Env.metrics();
  std::string P = Reg.claimPrefix("fs");
  OpsC = &Reg.counter(P + ".ops");
  BytesReadC = &Reg.counter(P + ".bytes_read");
  BytesWrittenC = &Reg.counter(P + ".bytes_written");
  UniqueFilesC = &Reg.counter(P + ".unique_files");
  OpNsH = &Reg.histogram(P + ".op_ns");
}

void FileSystem::installChdirValidator(Process &P) {
  P.setChdirValidator(
      [this](const std::string &Abs, Process::ChdirCb Done) {
        stat(Abs, [Abs, Done = std::move(Done)](ErrorOr<Stats> S) {
          if (!S.ok()) {
            Done(S.error());
            return;
          }
          if (!S->isDirectory()) {
            Done(ApiError(Errno::NotDir, Abs));
            return;
          }
          Done(std::nullopt);
        });
      });
}

FileSystem::OpStats FileSystem::stats() const {
  OpStats S;
  S.Operations = OpsC->value();
  S.BytesRead = BytesReadC->value();
  S.BytesWritten = BytesWrittenC->value();
  S.UniqueFilesTouched = UniqueFilesC->value();
  return S;
}

obs::SpanId FileSystem::beginOp(const char *Name) {
  return Env.metrics().spans().begin(Name);
}

void FileSystem::endOp(obs::SpanId Op, uint64_t StartNs) {
  Env.metrics().spans().end(Op);
  uint64_t NowNs = Env.clock().nowNs();
  OpNsH->record(NowNs > StartNs ? NowNs - StartNs : 0);
}

void FileSystem::open(const std::string &P, const std::string &Mode,
                      ResultCb<FdPtr> Done) {
  OpsC->inc();
  std::optional<OpenFlags> Flags = OpenFlags::parse(Mode);
  if (!Flags) {
    Done(ApiError(Errno::Invalid, "bad open mode '" + Mode + "'"));
    return;
  }
  std::string Path = standardize(P);
  touch(Path);
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.open");
  // The op span is current while the backend starts work, so completion
  // posts capture it and the causal chain survives the async hop.
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->open(Path, *Flags,
             [this, Op, StartNs, Done = std::move(Done)](ErrorOr<FdPtr> R) {
               endOp(Op, StartNs);
               Done(std::move(R));
             });
}

void FileSystem::stat(const std::string &P, ResultCb<Stats> Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.stat");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->stat(standardize(P),
             [this, Op, StartNs, Done = std::move(Done)](ErrorOr<Stats> R) {
               endOp(Op, StartNs);
               Done(std::move(R));
             });
}

void FileSystem::rename(const std::string &From, const std::string &To,
                        CompletionCb Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.rename");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->rename(standardize(From), standardize(To),
               [this, Op, StartNs,
                Done = std::move(Done)](std::optional<ApiError> Err) {
                 endOp(Op, StartNs);
                 Done(std::move(Err));
               });
}

void FileSystem::unlink(const std::string &P, CompletionCb Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.unlink");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->unlink(standardize(P),
               [this, Op, StartNs,
                Done = std::move(Done)](std::optional<ApiError> Err) {
                 endOp(Op, StartNs);
                 Done(std::move(Err));
               });
}

void FileSystem::mkdir(const std::string &P, CompletionCb Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.mkdir");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->mkdir(standardize(P),
              [this, Op, StartNs,
               Done = std::move(Done)](std::optional<ApiError> Err) {
                endOp(Op, StartNs);
                Done(std::move(Err));
              });
}

void FileSystem::rmdir(const std::string &P, CompletionCb Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.rmdir");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->rmdir(standardize(P),
              [this, Op, StartNs,
               Done = std::move(Done)](std::optional<ApiError> Err) {
                endOp(Op, StartNs);
                Done(std::move(Err));
              });
}

void FileSystem::readdir(const std::string &P,
                         ResultCb<std::vector<std::string>> Done) {
  OpsC->inc();
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.readdir");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  Root->readdir(standardize(P),
                [this, Op, StartNs, Done = std::move(Done)](
                    ErrorOr<std::vector<std::string>> R) {
                  endOp(Op, StartNs);
                  Done(std::move(R));
                });
}

void FileSystem::readFile(const std::string &P,
                          ResultCb<std::vector<uint8_t>> Done) {
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.readFile");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  auto Finish = [this, Op, StartNs,
                 Done = std::move(Done)](ErrorOr<std::vector<uint8_t>> R) {
    endOp(Op, StartNs);
    Done(std::move(R));
  };
  // open, then one descriptor call for stat -> read -> close: the
  // preloaded contents move out instead of being copied again.
  open(P, "r", [this, Done = std::move(Finish)](ErrorOr<FdPtr> R) mutable {
    if (!R) {
      Done(R.error());
      return;
    }
    // Fd outlives the call: the descriptor frees its contents after Done.
    FdPtr Fd = std::move(*R);
    Fd->readAllAndClose(
        [this, Done = std::move(Done)](ErrorOr<std::vector<uint8_t>> Out) {
          if (Out)
            BytesReadC->inc(Out->size());
          Done(std::move(Out));
        });
  });
}

void FileSystem::writeFile(const std::string &P, std::vector<uint8_t> Data,
                           CompletionCb Done) {
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.writeFile");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  auto Finish = [this, Op, StartNs,
                 Done = std::move(Done)](std::optional<ApiError> Err) {
    endOp(Op, StartNs);
    Done(std::move(Err));
  };
  open(P, "w",
       [this, Data = std::move(Data),
        Done = std::move(Finish)](ErrorOr<FdPtr> R) mutable {
         if (!R) {
           Done(R.error());
           return;
         }
         FdPtr Fd = *R;
         auto Src = std::make_shared<Buffer>(Env, std::move(Data));
         size_t Len = Src->size();
         Fd->write(*Src, 0, Len, 0,
                   [this, Fd, Src, Done](ErrorOr<size_t> WR) {
                     if (!WR) {
                       Done(WR.error());
                       return;
                     }
                     BytesWrittenC->inc(*WR);
                     Fd->close(Done);
                   });
       });
}

void FileSystem::appendFile(const std::string &P, std::vector<uint8_t> Data,
                            CompletionCb Done) {
  uint64_t StartNs = Env.clock().nowNs();
  obs::SpanId Op = beginOp("fs.appendFile");
  obs::SpanStore::Scope Scope(Env.metrics().spans(), Op);
  auto Finish = [this, Op, StartNs,
                 Done = std::move(Done)](std::optional<ApiError> Err) {
    endOp(Op, StartNs);
    Done(std::move(Err));
  };
  open(P, "a",
       [this, Data = std::move(Data),
        Done = std::move(Finish)](ErrorOr<FdPtr> R) mutable {
         if (!R) {
           Done(R.error());
           return;
         }
         FdPtr Fd = *R;
         auto Src = std::make_shared<Buffer>(Env, std::move(Data));
         size_t Len = Src->size();
         Fd->write(*Src, 0, Len, 0,
                   [this, Fd, Src, Done](ErrorOr<size_t> WR) {
                     if (!WR) {
                       Done(WR.error());
                       return;
                     }
                     BytesWrittenC->inc(*WR);
                     Fd->close(Done);
                   });
       });
}

void FileSystem::exists(const std::string &P, ResultCb<bool> Done) {
  // Always a success value: a failed stat means "does not exist", it is
  // not an error (Node fs.exists semantics).
  stat(P, [Done = std::move(Done)](ErrorOr<Stats> R) { Done(R.ok()); });
}

void FileSystem::mkdirp(const std::string &P, CompletionCb Done) {
  std::string Path = standardize(P);
  mkdir(Path, [this, Path, Done = std::move(Done)](
                  std::optional<ApiError> Err) {
    if (!Err || Err->Code == Errno::Exists) {
      Done(std::nullopt);
      return;
    }
    if (Err->Code != Errno::NoEnt || Path == "/") {
      Done(Err);
      return;
    }
    // Parent missing: create it, then retry.
    mkdirp(path::dirname(Path),
           [this, Path, Done](std::optional<ApiError> PErr) {
             if (PErr) {
               Done(PErr);
               return;
             }
             mkdir(Path, [Done](std::optional<ApiError> Err2) {
               if (Err2 && Err2->Code == Errno::Exists) {
                 Done(std::nullopt);
                 return;
               }
               Done(Err2);
             });
           });
  });
}

void FileSystem::copyFile(const std::string &From, const std::string &To,
                          CompletionCb Done) {
  readFile(From, [this, To,
                  Done = std::move(Done)](ErrorOr<std::vector<uint8_t>> R) {
    if (!R) {
      Done(R.error());
      return;
    }
    writeFile(To, std::move(*R), Done);
  });
}

void FileSystem::move(const std::string &From, const std::string &To,
                      CompletionCb Done) {
  rename(From, To,
         [this, From, To, Done = std::move(Done)](
             std::optional<ApiError> Err) {
           if (!Err || Err->Code != Errno::CrossDev) {
             Done(Err);
             return;
           }
           // Crossing a mount: copy then delete (the "transferring files
           // to different backends" use case of §5.1).
           copyFile(From, To,
                    [this, From, Done](std::optional<ApiError> CErr) {
                      if (CErr) {
                        Done(CErr);
                        return;
                      }
                      unlink(From, Done);
                    });
         });
}
