//===- CppBackend.cpp - AOT native backend via C++ source emission ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"

#include "backend/CppEmitter.h"
#include "support/FileIO.h"
#include "support/Hashing.h"
#include "support/Timer.h"
#include "vm/ParamTable.h"
#include "vm/Traceback.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define SPNC_CPP_BACKEND_POSIX 1
#include <dlfcn.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern char **environ;
#endif

using namespace spnc;
using namespace spnc::backend;

namespace {

/// Tail of the host compiler's log, for diagnostics.
std::string readLogTail(const std::string &Path, size_t MaxBytes = 2000) {
  Expected<std::string> Content = readWholeFile(Path);
  if (!Content)
    return std::string();
  if (Content->size() > MaxBytes)
    return "..." + Content->substr(Content->size() - MaxBytes);
  return Content.takeValue();
}

#ifdef SPNC_CPP_BACKEND_POSIX

/// CPUs this process may run on (its affinity mask), at least one.
unsigned allowedCpus() {
#ifdef __linux__
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string commandLine(const std::vector<std::string> &Argv) {
  std::string Line;
  for (const std::string &Arg : Argv)
    Line += (Line.empty() ? "" : " ") + Arg;
  return Line;
}

/// Starts \p Argv (argv[0] looked up on PATH) with stdin from /dev/null
/// and stdout and stderr into \p LogPath. Returns the child's pid, or -1
/// with the reason in \p Failure.
pid_t spawnLogged(const std::vector<std::string> &Argv,
                  const std::string &LogPath, std::string &Failure) {
  std::vector<char *> Args;
  for (const std::string &Arg : Argv)
    Args.push_back(const_cast<char *>(Arg.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t Pid = -1;
  int Rc = posix_spawnp(&Pid, Args[0], &Actions, nullptr, Args.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    Failure = std::string("cannot start: ") + std::strerror(Rc);
    return -1;
  }
  return Pid;
}

/// Reaps \p Pid; empty when it exited with status 0, else how it ended.
std::string waitChild(pid_t Pid) {
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return std::string("waitpid: ") + std::strerror(errno);
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status) == 0
               ? std::string()
               : "exit status " + std::to_string(WEXITSTATUS(Status));
  if (WIFSIGNALED(Status))
    return "killed by signal " + std::to_string(WTERMSIG(Status));
  return "abnormal termination";
}

/// Runs \p Argv to completion; empty on success, else how it failed.
std::string runLogged(const std::vector<std::string> &Argv,
                      const std::string &LogPath) {
  std::string Failure;
  pid_t Pid = spawnLogged(Argv, LogPath, Failure);
  return Pid < 0 ? Failure : waitChild(Pid);
}

/// Signatures of the emitted entry points (see CppEmitter.h).
using KernelFn = void (*)(const double *, double *, size_t, const void *);
using UpwardFn = void (*)(const double *, double *, size_t, size_t, void *,
                          const void *);

/// The emitted entry points of one shared object; the block upward
/// pass is null unless the program is an MPE or sampling program.
struct NativeEntryPoints {
  KernelFn Kernel = nullptr;
  UpwardFn Upward = nullptr;
};

/// What a native kernel serves: the program's query kinds, minus MPE
/// and sampling when the shared object lacks the block upward pass
/// their downward pass needs. Requests under weight
/// tables offset the external buffers per run, which is only valid when
/// the input is row-major and the output carries one value per sample
/// (the shape of every joint/marginal kernel).
runtime::EngineCapabilities
nativeCapabilities(const vm::KernelProgram &Program,
                   const NativeEntryPoints &Entry) {
  runtime::EngineCapabilities Caps = runtime::EngineCapabilities::of(Program);
  if (!Entry.Upward)
    Caps.Kinds &= ~(runtime::kindBit(vm::QueryKind::Mpe) |
                    runtime::kindBit(vm::QueryKind::Sample));
  for (const vm::BufferInfo &Info : Program.Buffers)
    if (Info.Columns > 1 &&
        ((Info.Role == vm::BufferInfo::Kind::Input && Info.Transposed) ||
         Info.Role == vm::BufferInfo::Kind::Output))
      Caps.ParamTables = false;
  return Caps;
}

/// One parameter block in the kernel's compute type (CppParamLayout),
/// narrowed from the program's doubles like the VM narrows them.
class ParamBlock {
public:
  ParamBlock(const vm::KernelProgram &Program, const CppParamLayout &Layout) {
    std::vector<double> Values = fillCppParams(Program, Layout);
    if (Program.UseF32)
      F32.assign(Values.begin(), Values.end());
    else
      F64 = std::move(Values);
  }

  const void *data() const {
    return F32.empty() ? static_cast<const void *>(F64.data())
                       : static_cast<const void *>(F32.data());
  }

private:
  std::vector<float> F32;
  std::vector<double> F64;
};

/// ExecutionEngine over a dlopen'ed native kernel. Retains the portable
/// program so `getProgram`-based consumers (saveCompiledKernel, work
/// accounting) behave exactly as with the VM engines. Owns the shared
/// object handle and, unless artifacts are kept, the on-disk build
/// directory.
class NativeEngine : public runtime::ExecutionEngine {
public:
  NativeEngine(vm::KernelProgram TheProgram, unsigned Lanes, void *Handle,
               NativeEntryPoints Entry, std::string ArtifactDir,
               bool KeepArtifacts, std::string Description)
      : ExecutionEngine(nativeCapabilities(TheProgram, Entry)),
        Program(std::move(TheProgram)), Layout(layoutCppParams(Program)),
        Own(Program, Layout), Lanes(Lanes), Handle(Handle), Entry(Entry),
        ArtifactDir(std::move(ArtifactDir)),
        KeepArtifacts(KeepArtifacts),
        Description(std::move(Description)) {
    for (const vm::BufferInfo &Info : Program.Buffers)
      if (Info.Role == vm::BufferInfo::Kind::Input)
        NumFeatures = Info.Columns;
  }

  ~NativeEngine() override {
    if (Handle)
      dlclose(Handle);
    if (!KeepArtifacts && !ArtifactDir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(ArtifactDir, EC);
    }
  }

  NativeEngine(const NativeEngine &) = delete;
  NativeEngine &operator=(const NativeEngine &) = delete;

  bool run(const runtime::RunRequest &Request,
           runtime::ExecutionStats *Stats = nullptr) const override {
    std::optional<std::vector<const ParamBlock *>> Blocks;
    if (Request.hasTables() && !(Blocks = Tables.resolve(Request)))
      return false;
    return timedRun(Request, Stats, [&](runtime::ExecutionStats &) {
      size_t N = Request.NumSamples;
      if (Request.Kind == vm::QueryKind::Mpe ||
          Request.Kind == vm::QueryKind::Sample) {
        if (Program.UseF32)
          runMpeOrSample<float>(Request);
        else
          runMpeOrSample<double>(Request);
        return;
      }
      if (!Blocks) {
        Entry.Kernel(Request.Input, Request.Output, N, Own.data());
        return;
      }
      // Each run is an ordinary sub-batch of the row-major input and the
      // one-value-per-sample output.
      vm::forEachTableRun(Request, [&](size_t Begin, size_t End,
                                       uint32_t Table) {
        Entry.Kernel(Request.Input + Begin * NumFeatures,
                     Request.Output + Begin, End - Begin,
                     (*Blocks)[Table]->data());
      });
    });
  }

  int32_t addParamTable(const double *Raw, size_t NumParams) override {
    if (!getCapabilities().ParamTables || NumParams != Program.NumParams)
      return -1;
    // Bind the raw parameters into a copy of the portable program, then
    // lay its side tables out as the block the emitted kernel reads.
    return Tables.add(std::span<const double>(Raw, NumParams),
                      [this](std::span<const double> Params) {
                        return ParamBlock(vm::bindProgram(Program, Params),
                                          Layout);
                      });
  }

  std::vector<double> getParamTable(int32_t Index) const override {
    return Tables.raw(Index);
  }

  const vm::KernelProgram *getProgram() const override { return &Program; }

  runtime::Target getTarget() const override {
    return runtime::Target::CPU;
  }

  std::string describe() const override { return Description; }

private:
  /// Answers an MPE or sampling request: the native upward pass runs a
  /// block of rows at a time, and the shared downward pass
  /// (vm::completeRows, which visits the rows in order) reads each row's
  /// lane of the block's registers.
  template <typename T>
  void runMpeOrSample(const runtime::RunRequest &Request) const {
    size_t N = Request.NumSamples;
    size_t NumRegisters = Program.Tasks[0].NumRegisters;
    std::vector<double> Up(N);
    std::vector<T> Block(NumRegisters * Lanes);
    vm::completeRows<T>(
        Program, Request, Up.data(), [&](size_t I, T *Registers) {
          size_t Lane = I % Lanes;
          if (Lane == 0)
            Entry.Upward(Request.Input, Up.data(), I, N, Block.data(),
                         Own.data());
          for (size_t R = 0; R < NumRegisters; ++R)
            Registers[R] = Block[R * Lanes + Lane];
        });
  }

  vm::KernelProgram Program;
  CppParamLayout Layout;
  /// The block of the program's own side tables.
  ParamBlock Own;
  /// Rows per block of the emitted code.
  unsigned Lanes;
  void *Handle;
  NativeEntryPoints Entry;
  uint32_t NumFeatures = 1;
  std::string ArtifactDir;
  bool KeepArtifacts;
  std::string Description;
  /// Per-model parameter blocks.
  vm::ParamTableSet<ParamBlock> Tables;
};

#endif // SPNC_CPP_BACKEND_POSIX

} // namespace

std::string CppBackend::resolveCompiler() const {
  if (!Options.CompilerPath.empty())
    return Options.CompilerPath;
  if (const char *Env = std::getenv("CXX"))
    if (Env[0] != '\0')
      return Env;
  return "c++";
}

uint64_t CppBackend::artifactFingerprint() const {
  // Everything that changes the produced .so for a fixed program:
  // emitter semantics, toolchain identity, codegen flags.
  size_t Seed = fnv1a64("cpp", 3);
  hashCombineSeed(Seed, kCppEmitterVersion);
  std::string Compiler = resolveCompiler();
  hashCombineSeed(Seed, fnv1a64(Compiler.data(), Compiler.size()));
  for (const std::string &Flag : Options.ExtraFlags)
    hashCombineSeed(Seed, fnv1a64(Flag.data(), Flag.size()));
  return Seed;
}

bool CppBackend::isAvailable(std::string *Reason) const {
#ifndef SPNC_CPP_BACKEND_POSIX
  if (Reason)
    *Reason = "cpp backend requires a POSIX host (dlopen)";
  return false;
#else
  std::lock_guard<std::mutex> Lock(ProbeMutex);
  if (!Probed) {
    Probed = true;
    if (!runLogged({resolveCompiler(), "--version"}, "/dev/null").empty()) {
      std::string Message = "host compiler '";
      Message += resolveCompiler();
      Message += "' not found or not runnable";
      ProbeFailure = std::move(Message);
    }
  }
  if (ProbeFailure && Reason)
    *Reason = *ProbeFailure;
  return !ProbeFailure;
#endif
}

Expected<CompiledArtifact>
CppBackend::compile(const runtime::CompilationPipeline &Pipeline,
                    const spn::Model &Model,
                    const spn::QueryConfig &Query,
                    runtime::CompileStats *Stats) const {
  // Validate the target before spending pipeline time: a GPU request
  // must fail with the backend diagnostic, not a lowering artifact.
  if (std::optional<Error> Err =
          validateTarget(Pipeline.getConfig().getOptions().TheTarget))
    return *Err;
  std::string Reason;
  if (!isAvailable(&Reason))
    return makeError("cpp backend unavailable: " + Reason);
  Expected<vm::KernelProgram> Program =
      Pipeline.compile(Model, Query, Stats);
  if (!Program)
    return Program.getError();
  return build(Program.takeValue(), Pipeline.getConfig(), Stats);
}

Expected<CompiledArtifact>
CppBackend::materialize(vm::KernelProgram Program,
                        const runtime::PipelineConfig &Config) const {
  return build(std::move(Program), Config, nullptr);
}

Expected<CompiledArtifact>
CppBackend::build(vm::KernelProgram Program,
                  const runtime::PipelineConfig &Config,
                  runtime::CompileStats *Stats) const {
#ifndef SPNC_CPP_BACKEND_POSIX
  (void)Config;
  (void)Stats;
  return makeError("cpp backend unavailable: requires a POSIX host");
#else
  if (std::optional<Error> Err =
          validateTarget(Config.getOptions().TheTarget))
    return *Err;
  std::string Reason;
  if (!isAvailable(&Reason))
    return makeError("cpp backend unavailable: " + Reason);

  Timer EmitTimer;
  unsigned Lanes =
      cppLaneWidth(Program, Config.getOptions().Execution.VectorWidth);
  Expected<std::vector<std::string>> Units =
      emitCppKernel(Program, Lanes, allowedCpus());
  if (!Units)
    return Units.getError();

  // Build directory: a fresh mkdtemp under WorkDir (or $TMPDIR/tmp).
  std::string Base = Options.WorkDir;
  if (Base.empty()) {
    const char *Tmp = std::getenv("TMPDIR");
    Base = Tmp && Tmp[0] ? Tmp : "/tmp";
  } else {
    std::error_code EC;
    std::filesystem::create_directories(Base, EC);
  }
  std::string Template = Base + "/spnc-cpp-XXXXXX";
  std::vector<char> DirBuf(Template.begin(), Template.end());
  DirBuf.push_back('\0');
  if (!mkdtemp(DirBuf.data()))
    return makeError("cpp backend: cannot create build directory under '" +
                     Base + "': " + std::strerror(errno));
  std::string Dir = DirBuf.data();
  bool Keep = Options.KeepArtifacts || !Options.WorkDir.empty();
  auto FailAndCleanup = [&](const std::string &Message) -> Error {
    if (!Keep) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
    return makeError(Message);
  };

  // One compile job per unit, each with its own log.
  struct Job {
    std::string Name;
    std::vector<std::string> Argv;
    std::string LogPath;
    pid_t Pid = -1;
    std::string Failure;
  };
  std::string Compiler = resolveCompiler();
  std::vector<Job> Jobs(Units->size());
  std::vector<std::string> LinkArgv = {Compiler};
  LinkArgv.insert(LinkArgv.end(), Options.ExtraFlags.begin(),
                  Options.ExtraFlags.end());
  LinkArgv.insert(LinkArgv.end(), {"-fPIC", "-shared"});
  for (size_t U = 0; U < Jobs.size(); ++U) {
    Job &J = Jobs[U];
    std::string Stem = Dir + "/unit" + std::to_string(U);
    J.Name = "unit" + std::to_string(U) + ".cpp";
    J.LogPath = Stem + ".log";
    std::string WriteError;
    if (failed(writeFileInPlace(Stem + ".cpp", (*Units)[U], &WriteError)))
      return FailAndCleanup("cpp backend: " + WriteError);
    J.Argv = {Compiler, "-std=c++17"};
    J.Argv.insert(J.Argv.end(), Options.ExtraFlags.begin(),
                  Options.ExtraFlags.end());
    J.Argv.insert(J.Argv.end(),
                  {"-fPIC", "-c", Stem + ".cpp", "-o", Stem + ".o"});
    LinkArgv.push_back(Stem + ".o");
  }
  uint64_t EmitNs = EmitTimer.elapsedNs();

  // All units compile at once (there are no more units than CPUs);
  // every started compiler is reaped before any failure is reported.
  Timer CompileTimer;
  for (Job &J : Jobs)
    J.Pid = spawnLogged(J.Argv, J.LogPath, J.Failure);
  for (Job &J : Jobs)
    if (J.Pid >= 0)
      J.Failure = waitChild(J.Pid);
  for (const Job &J : Jobs)
    if (!J.Failure.empty())
      return FailAndCleanup("cpp backend: host compilation of '" + J.Name +
                            "' failed (" + J.Failure +
                            "; command: " + commandLine(J.Argv) +
                            "): " + readLogTail(J.LogPath));
  uint64_t CompileNs = CompileTimer.elapsedNs();

  Timer LinkTimer;
  std::string SoPath = Dir + "/kernel.so";
  std::string LinkLog = Dir + "/link.log";
  LinkArgv.insert(LinkArgv.end(), {"-o", SoPath});
  std::string LinkFailure = runLogged(LinkArgv, LinkLog);
  if (!LinkFailure.empty())
    return FailAndCleanup("cpp backend: linking '" + SoPath + "' failed (" +
                          LinkFailure + "; command: " +
                          commandLine(LinkArgv) +
                          "): " + readLogTail(LinkLog));

  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *DlError = dlerror();
    return FailAndCleanup("cpp backend: cannot load '" + SoPath +
                          "': " + (DlError ? DlError : "unknown error"));
  }
  NativeEntryPoints Entry;
  Entry.Kernel = reinterpret_cast<KernelFn>(dlsym(Handle, kCppKernelSymbol));
  if (!Entry.Kernel) {
    dlclose(Handle);
    return FailAndCleanup("cpp backend: '" + SoPath + "' has no '" +
                          std::string(kCppKernelSymbol) + "' symbol");
  }
  // The block upward pass is emitted only for MPE/sampling programs.
  Entry.Upward = reinterpret_cast<UpwardFn>(dlsym(Handle, kCppUpwardSymbol));

  std::string Description =
      "cpp native w=" + std::to_string(Lanes) + " (" + Compiler;
  for (const std::string &Flag : Options.ExtraFlags)
    Description += " " + Flag;
  Description += ")";

  CompiledArtifact Artifact;
  Artifact.Engine =
      std::make_shared<NativeEngine>(std::move(Program), Lanes, Handle, Entry,
                                     Dir, Keep, std::move(Description));
  Artifact.BackendName = getName();
  Artifact.Fingerprint = artifactFingerprint();
  if (Stats) {
    uint64_t LinkNs = LinkTimer.elapsedNs();
    // The native build as three extra stages of the §V-B1 breakdown.
    Stats->Stages.push_back({"cpp-emit", EmitNs});
    Stats->Stages.push_back({"cpp-compile", CompileNs});
    Stats->Stages.push_back({"cpp-link-load", LinkNs});
    Stats->TotalNs += EmitNs + CompileNs + LinkNs;
  }
  return Artifact;
#endif
}
