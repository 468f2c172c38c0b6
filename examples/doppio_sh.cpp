//===- examples/doppio_sh.cpp - A tiny shell over the process table ------===//
//
// The process subsystem (src/doppio/proc/, DESIGN.md §14) demonstrated as
// a scripted Unix shell running inside a simulated browser tab: programs
// spawn out of a ProgramRegistry, pipelines wire bounded in-kernel pipes
// between stages, `cd` is validated against the Doppio file system
// (ENOENT/ENOTDIR instead of blind normalization), `&` backgrounds a job,
// `kill %N` delivers SIGTERM, and `wait` reaps children while reporting
// their exit codes.
//
// On top of that, the continuation substrate (DESIGN.md §16) shows up as
// two more builtins: `checkpoint <pid|%N> <file>` freezes a running JVM
// guest into a self-describing blob on the Doppio fs (killing the live
// copy at the freeze point — the blob is the process now), and
// `restore <file>` revives it as a fresh child that finishes the
// remaining work, output stream intact.
//
// Build and run:  ./build/examples/doppio_sh
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/fs.h"
#include "doppio/proc/checkpoint.h"
#include "doppio/proc/programs.h"
#include "jvm/classfile/builder.h"
#include "jvm/proc_program.h"

#include <cstdio>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::proc;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

/// class Ticker { public static void main(String[] a) {
///   long s = 1;
///   for (int i = 0; i < 3000; i++) {
///     s = s * 1103515245L + i;
///     int t = 0;
///     for (int k = 0; k < 200; k++) t = t * 31 + k;
///     if (i % 500 == 0) System.out.println((int)(s % 1000000L) ^ t);
///   } } }
///
/// Long enough to span several scheduler slices (so `checkpoint` finds a
/// mid-run quiescent point), quiet enough for a terminal demo.
std::vector<uint8_t> tickerClassBytes() {
  jvm::ClassBuilder B("Ticker");
  jvm::MethodBuilder &M = B.method(jvm::AccPublic | jvm::AccStatic, "main",
                                   "([Ljava/lang/String;)V");
  jvm::MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  jvm::MethodBuilder::Label KLoop = M.newLabel(), KDone = M.newLabel();
  jvm::MethodBuilder::Label Skip = M.newLabel();
  M.lconst(1).lstore(1);
  M.iconst(0).istore(3);
  M.bind(Loop).iload(3).iconst(3000).branch(jvm::Op::IfIcmpge, Done);
  M.lload(1)
      .lconst(1103515245)
      .op(jvm::Op::Lmul)
      .iload(3)
      .op(jvm::Op::I2l)
      .op(jvm::Op::Ladd)
      .lstore(1);
  M.iconst(0).istore(4);
  M.iconst(0).istore(5);
  M.bind(KLoop).iload(5).iconst(200).branch(jvm::Op::IfIcmpge, KDone);
  M.iload(4)
      .iconst(31)
      .op(jvm::Op::Imul)
      .iload(5)
      .op(jvm::Op::Iadd)
      .istore(4);
  M.iinc(5, 1).branch(jvm::Op::Goto, KLoop).bind(KDone);
  M.iload(3).iconst(500).op(jvm::Op::Irem).iconst(0).branch(
      jvm::Op::IfIcmpne, Skip);
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  M.lload(1)
      .lconst(1000000)
      .op(jvm::Op::Lrem)
      .op(jvm::Op::L2i)
      .iload(4)
      .op(jvm::Op::Ixor)
      .invokevirtual("java/io/PrintStream", "println", "(I)V");
  M.bind(Skip);
  M.iinc(3, 1).branch(jvm::Op::Goto, Loop);
  M.bind(Done).op(jvm::Op::Return);
  return B.bytes();
}

/// Runs a fixed script one command at a time: the next command only
/// starts after the previous one finished (or was backgrounded), like a
/// terminal session being typed.
class Shell {
public:
  Shell(browser::BrowserEnv &Env, ProcessTable &Procs,
        const ProgramRegistry &Progs, const CheckpointRegistry &Ckpts,
        std::vector<std::string> Script)
      : Env(Env), Procs(Procs), Progs(Progs), Ckpts(Ckpts),
        Script(std::move(Script)) {
    // The shell itself is a process (a bare context, no program): its cwd
    // is what `cd` changes, and its children are what `wait` reaps.
    ProcessTable::SpawnSpec S;
    S.Name = "sh";
    Self = Procs.spawn(std::move(S));
  }

  void run(std::function<void()> Done) {
    OnDone = std::move(Done);
    next();
  }

private:
  proc::Process &self() { return *Procs.find(Self); }

  void next() {
    if (Cursor >= Script.size()) {
      if (OnDone)
        OnDone();
      return;
    }
    std::string Line = Script[Cursor++];
    printf("doppio$ %s\n", Line.c_str());
    execLine(std::move(Line));
  }

  void execLine(std::string Line) {
    bool Background = false;
    size_t Amp = Line.find_last_of('&');
    if (Amp != std::string::npos &&
        Line.find_first_not_of(" \t", Amp + 1) == std::string::npos) {
      Background = true;
      Line.erase(Amp);
    }

    std::vector<std::string> First = tokenize(Line);
    if (First.empty()) {
      next();
      return;
    }
    if (First[0] == "cd") {
      builtinCd(First.size() > 1 ? First[1] : "/");
      return;
    }
    if (First[0] == "wait") {
      builtinWait();
      return;
    }
    if (First[0] == "kill") {
      builtinKill(First.size() > 1 ? First[1] : "");
      return;
    }
    if (First[0] == "checkpoint") {
      builtinCheckpoint(First.size() > 1 ? First[1] : "",
                        First.size() > 2 ? First[2] : "");
      return;
    }
    if (First[0] == "restore") {
      builtinRestore(First.size() > 1 ? First[1] : "");
      return;
    }
    runPipeline(Line, Background);
  }

  void builtinCd(const std::string &Path) {
    self().state().chdir(Path, [this](std::optional<ApiError> Err) {
      if (Err)
        printf("cd: %s\n", Err->message().c_str());
      else
        printf("(cwd is now %s)\n", self().state().cwd().c_str());
      next();
    });
  }

  /// Reaps children until ECHILD, reporting how each ended.
  void builtinWait() {
    Procs.waitpid(Self, -1, [this](ErrorOr<WaitResult> W) {
      if (!W.ok()) {
        printf("wait: all children reaped\n");
        next();
        return;
      }
      reportExit(*W);
      builtinWait();
    });
  }

  void builtinKill(const std::string &JobRef) {
    if (JobRef.size() < 2 || JobRef[0] != '%') {
      printf("kill: expected %%N job reference\n");
      next();
      return;
    }
    size_t Job = std::strtoul(JobRef.c_str() + 1, nullptr, 10);
    if (Job == 0 || Job > Jobs.size()) {
      printf("kill: no such job %s\n", JobRef.c_str());
      next();
      return;
    }
    Pid Target = Jobs[Job - 1];
    if (!Procs.kill(Target, Signal::Term))
      printf("kill: (%d) ESRCH\n", Target);
    next();
  }

  /// A %N job reference or a bare pid; 0 when it resolves to nothing.
  Pid resolvePid(const std::string &Ref) {
    if (Ref.empty())
      return 0;
    if (Ref[0] == '%') {
      size_t Job = std::strtoul(Ref.c_str() + 1, nullptr, 10);
      return Job >= 1 && Job <= Jobs.size() ? Jobs[Job - 1] : 0;
    }
    return static_cast<Pid>(std::strtoul(Ref.c_str(), nullptr, 10));
  }

  void builtinCheckpoint(const std::string &PidRef, const std::string &Path) {
    Pid Target = resolvePid(PidRef);
    if (Target == 0 || Path.empty()) {
      printf("checkpoint: usage: checkpoint <pid|%%N> <file>\n");
      next();
      return;
    }
    attemptCheckpoint(Target, Path);
  }

  void attemptCheckpoint(Pid Target, std::string Path) {
    ErrorOr<std::vector<uint8_t>> Blob =
        proc::checkpointProcess(Procs, Target);
    if (!Blob.ok()) {
      if (Blob.error().Code == Errno::Again) {
        // Not quiescent yet: retry on the Resume lane — guest slices run
        // there, and Resume outranks Timer, so a Timer-lane retry would
        // starve behind a compute-bound guest until it exits.
        // Dropping the handle does not cancel.
        Env.loop().postAfter(
            kernel::Lane::Resume,
            [this, Target, Path = std::move(Path)] {
              attemptCheckpoint(Target, Path);
            },
            browser::usToNs(100));
        return;
      }
      printf("checkpoint: %s\n", Blob.error().message().c_str());
      next();
      return;
    }
    // The blob is the process now: kill the live copy at the freeze point
    // (killNow — an already-queued slice running past the checkpoint
    // would make the revived copy replay the overlap).
    size_t Size = Blob->size();
    Procs.killNow(Target, Signal::Kill);
    Procs.fs().writeFile(
        Path, std::move(*Blob),
        [this, Target, Path, Size](std::optional<ApiError> Err) {
          if (Err)
            printf("checkpoint: %s: %s\n", Path.c_str(),
                   Err->message().c_str());
          else
            printf("(%d) frozen to %s (%zu bytes)\n", Target, Path.c_str(),
                   Size);
          next();
        });
  }

  void builtinRestore(const std::string &Path) {
    if (Path.empty()) {
      printf("restore: usage: restore <file>\n");
      next();
      return;
    }
    Procs.fs().readFile(
        Path, [this, Path](ErrorOr<std::vector<uint8_t>> Blob) {
          if (!Blob.ok()) {
            printf("restore: %s\n", Blob.error().message().c_str());
            next();
            return;
          }
          ErrorOr<Pid> P = proc::restoreProcess(Procs, *Blob, Ckpts, Self);
          if (!P.ok()) {
            printf("restore: %s\n", P.error().message().c_str());
            next();
            return;
          }
          proc::Process &Pr = *Procs.find(*P);
          Pr.state().setStdout(
              [](const std::string &T) { fputs(T.c_str(), stdout); });
          Pr.state().setStderr(
              [](const std::string &T) { fputs(T.c_str(), stderr); });
          Jobs.push_back(*P);
          printf("[%zu] %d revived from %s\n", Jobs.size(), *P,
                 Path.c_str());
          next();
        });
  }

  void runPipeline(const std::string &Line, bool Background) {
    std::vector<ProcessTable::SpawnSpec> Stages;
    size_t Start = 0;
    while (Start <= Line.size()) {
      size_t Bar = Line.find('|', Start);
      std::vector<std::string> Argv = tokenize(Line.substr(
          Start, Bar == std::string::npos ? std::string::npos : Bar - Start));
      if (Argv.empty()) {
        printf("sh: empty pipeline stage\n");
        next();
        return;
      }
      ProcessTable::SpawnSpec S;
      S.Name = Argv[0];
      S.Parent = Self;
      S.Prog = Progs.create(Argv);
      if (!S.Prog) {
        printf("sh: %s: command not found\n", Argv[0].c_str());
        next();
        return;
      }
      Stages.push_back(std::move(S));
      if (Bar == std::string::npos)
        break;
      Start = Bar + 1;
    }

    std::vector<Pid> Pids = Procs.spawnPipeline(std::move(Stages));
    // Stream the last stage's stdout (and every stage's stderr) straight
    // to the terminal. Programs start on a later dispatch, so the sinks
    // land before any output does.
    for (Pid P : Pids)
      Procs.find(P)->state().setStderr(
          [](const std::string &T) { fputs(T.c_str(), stderr); });
    Procs.find(Pids.back())->state().setStdout(
        [](const std::string &T) { fputs(T.c_str(), stdout); });

    if (Background) {
      Jobs.push_back(Pids.back());
      printf("[%zu] %d\n", Jobs.size(), Pids.back());
      next();
      return;
    }
    waitForeground(Pids, 0);
  }

  void waitForeground(std::vector<Pid> Pids, size_t Index) {
    if (Index >= Pids.size()) {
      next();
      return;
    }
    Pid Target = Pids[Index];
    Procs.waitpid(Self, Target,
                  [this, Pids = std::move(Pids),
                   Index](ErrorOr<WaitResult> W) mutable {
                    // Only the pipeline's last stage reports its status,
                    // like $? after a shell pipeline.
                    if (W.ok() && Index + 1 == Pids.size())
                      reportExit(*W);
                    waitForeground(std::move(Pids), Index + 1);
                  });
  }

  void reportExit(const WaitResult &W) {
    if (W.Signaled)
      printf("(%d) terminated by %s\n", W.P, signalName(W.Sig));
    else if (W.ExitCode != 0)
      printf("(%d) exit %d\n", W.P, W.ExitCode);
  }

  browser::BrowserEnv &Env;
  ProcessTable &Procs;
  const ProgramRegistry &Progs;
  const CheckpointRegistry &Ckpts;
  std::vector<std::string> Script;
  size_t Cursor = 0;
  Pid Self = 0;
  std::vector<Pid> Jobs;
  std::function<void()> OnDone;
};

} // namespace

int main() {
  browser::BrowserEnv Env(browser::chromeProfile());
  rt::Process Proc;
  auto Root = std::make_unique<fs::InMemoryBackend>(Env);
  Root->seedFile("/etc/motd", bytesOf("welcome to doppio\n"));
  Root->seedFile("/data/fstrace.log",
                 bytesOf("open /data/a.txt\n"
                         "read /data/a.txt 4096\n"
                         "close /data/a.txt\n"
                         "open /data/b.txt\n"
                         "close /data/b.txt\n"));
  Root->seedFile("/data/readme.txt", bytesOf("pipelines compose here\n"));
  Root->seedFile("/classes/Ticker.class", tickerClassBytes());
  fs::FileSystem Fs(Env, Proc, std::move(Root));

  proc::ProcessTable Procs(Env, Fs);
  proc::ProgramRegistry Progs;
  proc::installCorePrograms(Progs);
  // `java [-p profile] Main args...`: a DoppioJVM guest as just another
  // program. -p takes an ExecProfile spec ("quick", "placed,trust=0",
  // ...) through the same parser the env override uses.
  Progs.add("java", [](std::vector<std::string> Args) {
    jvm::JvmProgramSpec Spec;
    if (Args.size() >= 2 && Args[0] == "-p") {
      std::string Err;
      if (!jvm::ExecProfile::parse(Args[1], Spec.Options.Exec, &Err))
        fprintf(stderr, "java: bad profile: %s\n", Err.c_str());
      Args.erase(Args.begin(), Args.begin() + 2);
    }
    Spec.MainClass = Args.empty() ? "Main" : Args[0];
    Spec.Args.assign(Args.empty() ? Args.begin() : Args.begin() + 1,
                     Args.end());
    return jvm::makeJvmProgram(std::move(Spec));
  });
  proc::CheckpointRegistry Ckpts;
  jvm::registerJvmRestore(Ckpts);

  Shell Sh(Env, Procs, Progs, Ckpts,
           {
               "echo hello from a spawned process",
               "cat /etc/motd",
               "cd /missing",          // ENOENT out of the validator.
               "cd /etc/motd",         // ENOTDIR: it's a file.
               "cd /data",             // Validated; children inherit it.
               "cat readme.txt",       // Relative to the new cwd.
               "cat fstrace.log | grep open | wc",
               "cat fstrace.log | grep fsync", // grep's exit 1.
               "upper nonsense-arg | wc &",    // Backgrounded...
               "pause &",                      // ...and a blocked job.
               "kill %2",                      // SIGTERM the blocked job.
               "wait",                         // Reap both, report codes.
               "java Ticker &",                // A JVM guest in the bg.
               "checkpoint %3 /data/ticker.ckpt", // Freeze it mid-run...
               "restore /data/ticker.ckpt",    // ...revive; it finishes.
               "wait",
           });

  bool Finished = false;
  Sh.run([&] { Finished = true; });
  Env.loop().run();

  printf("---\nshell script %s; %llu spawned, %llu reaped, %llu zombies\n",
         Finished ? "completed" : "DID NOT FINISH",
         static_cast<unsigned long long>(Procs.spawned()),
         static_cast<unsigned long long>(Procs.reaped()),
         static_cast<unsigned long long>(Procs.zombies()));
  return Finished && Procs.zombies() == 0 ? 0 : 1;
}
