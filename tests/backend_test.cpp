//===- backend_test.cpp - Backend registry and CppBackend tests ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the backend layer: registry diagnostics (duplicate and
/// unknown names), the re-homed VM backend, target validation on a
/// CPU-only backend, backend-aware kernel-cache keys, and the
/// C++-emission backend — including a 50-model differential leg
/// against the reference interpreter at the same 1e-9 f64 bound the
/// VM differential suite uses, at every lane width on batches around it,
/// programs that span several segment functions and translation units,
/// and the failure path of a parallel build — and the weights-near-
/// underflow edge model of the shared exponentials on the VM, gpusim and
/// the cpp backend. Native-compilation tests skip gracefully when the
/// host has no working C++ compiler.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "backend/LookupBackend.h"
#include "backend/VmBackend.h"
#include "baselines/Baselines.h"
#include "frontend/Serializer.h"
#include "merge/Merge.h"
#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "support/Casting.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr double kTolerance = 1e-9;
constexpr size_t kNumModels = 50;
constexpr size_t kNumSamples = 16;
/// The lane widths a native kernel is emitted for (the VM's widths).
constexpr unsigned kLaneWidths[] = {1, 4, 8, 16};
/// Rows of the largest batch the differential suite runs: 3W + 5 at the
/// widest W.
constexpr size_t kMaxRows = 3 * 16 + 5;

/// Cheap host flags: the differential suite performs one host compile
/// per model, and -O0 keeps that tractable without changing semantics.
/// -march=native as in the default flags: without AVX the host compiler
/// splits every wide vector statement, which made -O0 builds of 8-lane
/// kernels take ~6x as long.
backend::CppBackendOptions fastCppOptions() {
  backend::CppBackendOptions Options;
  Options.ExtraFlags = {"-O0", "-march=native"};
  return Options;
}

/// Skips the enclosing test when the host cannot build native kernels.
#define SKIP_WITHOUT_HOST_COMPILER(Backend)                                  \
  do {                                                                       \
    std::string SkipReason;                                                  \
    if (!(Backend).isAvailable(&SkipReason))                                 \
      GTEST_SKIP() << SkipReason;                                            \
  } while (0)

/// Compiles \p Model through \p TheBackend with a fresh default-stage
/// pipeline.
Expected<std::shared_ptr<ExecutionEngine>>
compileWith(const backend::Backend &TheBackend, const spn::Model &Model,
            const spn::QueryConfig &Query,
            const CompilerOptions &Options) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  if (!Pipeline)
    return Pipeline.getError();
  return TheBackend.compile(*Pipeline, Model, Query);
}

std::vector<double> runEngine(const ExecutionEngine &Engine,
                              const std::vector<double> &Data,
                              size_t NumSamples) {
  std::vector<double> Output(NumSamples, 0.0);
  EXPECT_TRUE(Engine.run({.Input = Data.data(),
                          .Output = Output.data(),
                          .NumSamples = NumSamples}))
      << "engine refused a joint request: " << Engine.describe();
  return Output;
}

/// The same random population the VM differential suite draws
/// (differential_test.cpp): speaker-shaped graphs of varying size and
/// leaf mix, with kMaxRows rows of joint and marginalized (NaN-bearing)
/// sample data.
struct Scenario {
  spn::Model Model;
  std::vector<double> JointData;
  std::vector<double> MarginalData;
};

Scenario makeScenario(size_t Index) {
  Rng SizeRng(0x5eed5eedULL + Index);
  workloads::SpeakerModelOptions Options;
  Options.Seed = 1000 + Index;
  Options.TargetOperations =
      static_cast<unsigned>(120 + (SizeRng.next() % 600));
  Options.ContinuousFeatureFraction =
      0.3 + 0.5 * static_cast<double>(SizeRng.next() % 100) / 100.0;
  Scenario S{workloads::generateSpeakerModel(Options),
             workloads::generateSpeechData(Options, kMaxRows, 9000 + Index),
             workloads::generateNoisySpeechData(Options, kMaxRows,
                                                9500 + Index,
                                                /*DropProbability=*/0.3)};
  return S;
}

/// A speaker model whose -O2 program spans more than three segment
/// functions, so it builds as several units on a multi-CPU host. With
/// \p NumFeatures 6 its likelihoods stay far above f32's underflow, so
/// it can run in linear space in f32.
Scenario makeSplitScenario(unsigned NumFeatures = 26) {
  workloads::SpeakerModelOptions Options;
  Options.Seed = 4242;
  Options.TargetOperations = 2000;
  Options.NumFeatures = NumFeatures;
  return {workloads::generateSpeakerModel(Options),
          workloads::generateSpeechData(Options, kMaxRows, 9900),
          workloads::generateNoisySpeechData(Options, kMaxRows, 9901,
                                             /*DropProbability=*/0.3)};
}

/// A RAT-SPN (the ratspn_tiny shape) that a partition budget of 1000
/// splits into several tasks linked by intermediate buffers, with
/// synthetic image data and a NaN-bearing variant.
Scenario makePartitionedRatScenario() {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 64;
  Options.Depth = 3;
  Options.Replicas = 2;
  Options.SumsPerRegion = 4;
  Options.LeafDistributions = 8;
  Scenario S{workloads::generateRatSpn(Options, 0),
             workloads::generateImageData(Options.NumFeatures, 2, kMaxRows,
                                          31, nullptr),
             {}};
  S.MarginalData = S.JointData;
  for (size_t I = 0; I < S.MarginalData.size(); I += 3)
    S.MarginalData[I] = std::numeric_limits<double>::quiet_NaN();
  return S;
}

/// A copy of \p Model with every Gaussian leaf moved and widened: the
/// same structure, so it binds into \p Model's kernel as a weight table.
spn::Model shiftedSibling(const spn::Model &Model) {
  Expected<spn::Model> Copy =
      spn::deserializeModel(spn::serializeModel(Model));
  EXPECT_TRUE(static_cast<bool>(Copy));
  for (size_t I = 0; I < Copy->getNumNodes(); ++I)
    if (auto *Gauss = dyn_cast<spn::GaussianLeaf>(
            Copy->getNode(static_cast<unsigned>(I))))
      Gauss->setParameters(Gauss->getMean() + 0.25,
                           Gauss->getStdDev() * 1.1);
  return Copy.takeValue();
}

/// Runs \p Engine, a kernel compiled at vector width \p W, on the
/// leading rows of \p Data in batches around W — none, one row, a
/// partial block on either side of a full one, and three full blocks
/// plus a partial one — and checks each output against \p Reference,
/// the interpreter's log-likelihoods of the same rows: at 1e-9 for f64
/// kernels and at perfbench's f32 allowance, 1e-3 + 1e-5 * |ref|, for
/// f32 kernels; linear-space outputs as their logs. An empty batch must
/// write nothing.
void expectBatchesMatch(const ExecutionEngine &Engine,
                        const std::vector<double> &Data,
                        const std::vector<double> &Reference, unsigned W,
                        const spn::QueryConfig &Query,
                        const std::string &Leg) {
  constexpr double kUntouched = 12345.0;
  const size_t Batches[] = {0, 1, W - 1, W + 1, 3 * W + 5};
  for (size_t N : Batches) {
    std::vector<double> Output(std::max<size_t>(N, 1), kUntouched);
    ASSERT_TRUE(Engine.run({.Input = Data.data(),
                            .Output = Output.data(),
                            .NumSamples = N}))
        << Leg;
    if (N == 0) {
      EXPECT_EQ(Output[0], kUntouched) << Leg << ": empty batch wrote";
    }
    for (size_t I = 0; I < N; ++I) {
      double Got = Query.LogSpace ? Output[I] : std::log(Output[I]);
      double Bound = Query.DataType == spn::ComputeType::F32
                         ? 1e-3 + 1e-5 * std::abs(Reference[I])
                         : kTolerance;
      EXPECT_NEAR(Got, Reference[I], Bound)
          << Leg << ", W=" << W << ", batch of " << N << ", row " << I;
    }
  }
}

/// CPUs this process may run on: the number of units a build uses at
/// most.
unsigned allowedCpus() {
#ifdef __linux__
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

//===----------------------------------------------------------------------===//
// Lookup
//===----------------------------------------------------------------------===//

TEST(BackendRegistryTest, GlobalHasBuiltins) {
  Expected<std::shared_ptr<backend::Backend>> Vm =
      backend::lookupBackend("vm");
  ASSERT_TRUE(static_cast<bool>(Vm)) << Vm.getError().message();
  EXPECT_EQ((*Vm)->getName(), "vm");

  Expected<std::shared_ptr<backend::Backend>> Cpp =
      backend::lookupBackend("cpp");
  ASSERT_TRUE(static_cast<bool>(Cpp)) << Cpp.getError().message();
  EXPECT_EQ((*Cpp)->getName(), "cpp");
}

TEST(BackendRegistryTest, LookupReturnsSharedInstance) {
  Expected<std::shared_ptr<backend::Backend>> First =
      backend::lookupBackend("vm");
  Expected<std::shared_ptr<backend::Backend>> Second =
      backend::lookupBackend("vm");
  ASSERT_TRUE(static_cast<bool>(First));
  ASSERT_TRUE(static_cast<bool>(Second));
  EXPECT_EQ(First->get(), Second->get());
}

TEST(BackendRegistryTest, UnknownNameListsRegisteredBackends) {
  Expected<std::shared_ptr<backend::Backend>> Result =
      backend::lookupBackend("cppp");
  ASSERT_FALSE(static_cast<bool>(Result));
  std::string Message = Result.getError().message();
  EXPECT_NE(Message.find("unknown backend 'cppp'"), std::string::npos)
      << Message;
  EXPECT_NE(Message.find("vm, cpp"), std::string::npos) << Message;
}

//===----------------------------------------------------------------------===//
// VmBackend (the re-homed bytecode path)
//===----------------------------------------------------------------------===//

TEST(VmBackendTest, MatchesCompileModel) {
  Scenario S = makeScenario(0);
  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.DataType = spn::ComputeType::F64;
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;

  Expected<CompiledKernel> Reference =
      compileModel(S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Reference))
      << Reference.getError().message();

  backend::VmBackend Vm;
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      compileWith(Vm, S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Engine))
      << Engine.getError().message();

  std::vector<double> Expected =
      runEngine(Reference->getEngine(), S.JointData, kNumSamples);
  std::vector<double> Actual =
      runEngine(**Engine, S.JointData, kNumSamples);
  for (size_t I = 0; I < kNumSamples; ++I)
    EXPECT_EQ(Actual[I], Expected[I]) << "sample " << I;
}

TEST(VmBackendTest, SupportsBothTargets) {
  backend::VmBackend Vm;
  EXPECT_TRUE(Vm.supportsTarget(Target::CPU));
  EXPECT_TRUE(Vm.supportsTarget(Target::GPU));
  EXPECT_TRUE(Vm.isAvailable());
}

//===----------------------------------------------------------------------===//
// Target validation (CPU-only backend asked for the GPU)
//===----------------------------------------------------------------------===//

TEST(BackendTargetValidationTest, CppBackendRejectsGpuTarget) {
  // validateTarget runs before pipeline or toolchain work, so this
  // needs neither a host compiler nor a compiled model.
  backend::CppBackend Cpp;
  EXPECT_FALSE(Cpp.supportsTarget(Target::GPU));

  Scenario S = makeScenario(1);
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      compileWith(Cpp, S.Model, spn::QueryConfig(), Options);
  ASSERT_FALSE(static_cast<bool>(Engine));
  std::string Message = Engine.getError().message();
  EXPECT_NE(Message.find("backend 'cpp' does not support target 'gpu"),
            std::string::npos)
      << Message;
  EXPECT_NE(Message.find("supported targets"), std::string::npos)
      << Message;
}

//===----------------------------------------------------------------------===//
// Backend-aware cache keys
//===----------------------------------------------------------------------===//

TEST(BackendCacheKeyTest, BackendIdentityChangesKey) {
  Scenario S = makeScenario(2);
  spn::QueryConfig Query;
  CompilerOptions Options;
  Expected<PipelineConfig> Config = PipelineConfig::create(Options);
  ASSERT_TRUE(static_cast<bool>(Config));

  backend::VmBackend Vm;
  backend::CppBackend Cpp;
  EXPECT_NE(KernelCache::makeKey(S.Model, Query, *Config, Vm),
            KernelCache::makeKey(S.Model, Query, *Config, Cpp));
}

TEST(BackendCacheKeyTest, ToolchainFlagsChangeCppKey) {
  Scenario S = makeScenario(3);
  spn::QueryConfig Query;
  Expected<PipelineConfig> Config =
      PipelineConfig::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Config));

  backend::CppBackend Default;
  backend::CppBackend Fast(fastCppOptions());
  EXPECT_NE(KernelCache::makeKey(S.Model, Query, *Config, Default),
            KernelCache::makeKey(S.Model, Query, *Config, Fast));
}

//===----------------------------------------------------------------------===//
// CppBackend
//===----------------------------------------------------------------------===//

TEST(CppBackendTest, MissingCompilerReportsReason) {
  backend::CppBackendOptions Options;
  Options.CompilerPath = "/nonexistent/spnc-no-such-compiler";
  backend::CppBackend Cpp(Options);
  std::string Reason;
  EXPECT_FALSE(Cpp.isAvailable(&Reason));
  EXPECT_NE(Reason.find("/nonexistent/spnc-no-such-compiler"),
            std::string::npos)
      << Reason;

  Scenario S = makeScenario(4);
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      compileWith(Cpp, S.Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_FALSE(static_cast<bool>(Engine));
  EXPECT_NE(Engine.getError().message().find("unavailable"),
            std::string::npos)
      << Engine.getError().message();
}

TEST(CppBackendTest, DifferentialSuiteVsInterpreter) {
  backend::CppBackend Cpp(fastCppOptions());
  SKIP_WITHOUT_HOST_COMPILER(Cpp);

  for (size_t Index = 0; Index < kNumModels; ++Index) {
    Scenario S = makeScenario(Index);

    // One marginal-capable kernel per model serves both the joint and the
    // marginalized data (one host compile per model). Every 16 models
    // cover each lane width, partitioned and not, in f32 and f64 log
    // space (models 0-15 and 32-47) or in f64 linear space (16-23);
    // linear f32 underflows on these graphs.
    unsigned W = kLaneWidths[(Index / 2) % 4];
    bool F32 = (Index / 8) % 2 == 1;
    spn::QueryConfig Query;
    Query.LogSpace = F32 || (Index / 16) % 2 == 0;
    Query.SupportMarginal = true;
    Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
    CompilerOptions Options;
    Options.OptLevel = static_cast<unsigned>(Index % 4);
    Options.Execution.VectorWidth = W;
    // Partition half the population so multi-task programs (buffer
    // copies, intermediate buffers) are covered too.
    if (Index % 2 == 1)
      Options.MaxPartitionSize = static_cast<uint32_t>(
          S.Model.computeStats().NumNodes / 4 + 16);

    Expected<std::shared_ptr<ExecutionEngine>> Engine =
        compileWith(Cpp, S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Engine))
        << "model " << Index << ": "
        << Engine.getError().message();

    baselines::InterpreterEngine Interpreter(S.Model);
    for (const std::vector<double> *Data :
         {&S.JointData, &S.MarginalData}) {
      std::vector<double> Reference = runEngine(Interpreter, *Data, kMaxRows);
      for (double Value : Reference)
        ASSERT_TRUE(std::isfinite(Value))
            << "model " << Index << ": reference not finite";
      expectBatchesMatch(**Engine, *Data, Reference, W, Query,
                         "model " + std::to_string(Index) +
                             (Data == &S.JointData ? " (joint)"
                                                   : " (marginal)"));
    }
  }

  // Programs that span several segments and units: the split speaker
  // model in f64, f32 and linear f32 (f32 at the benchmark's f32-vs-f64
  // allowance), and a RAT-SPN partitioned into tasks linked by
  // intermediate buffers.
  struct SplitCase {
    const char *Name;
    Scenario S;
    spn::ComputeType Type;
    bool LogSpace;
    uint32_t MaxPartitionSize;
    unsigned W;
  };
  SplitCase Cases[] = {
      {"speaker/f64", makeSplitScenario(), spn::ComputeType::F64, true, 0,
       16},
      {"speaker/f32", makeSplitScenario(), spn::ComputeType::F32, true, 0, 8},
      {"speaker/linear-f32", makeSplitScenario(6), spn::ComputeType::F32,
       false, 0, 4},
      {"ratspn/partitioned", makePartitionedRatScenario(),
       spn::ComputeType::F64, true, 1000, 8}};
  for (const SplitCase &Case : Cases) {
    spn::QueryConfig Query;
    Query.LogSpace = Case.LogSpace;
    Query.SupportMarginal = true;
    Query.DataType = Case.Type;
    CompilerOptions Options;
    Options.OptLevel = 2;
    Options.MaxPartitionSize = Case.MaxPartitionSize;
    Options.Execution.VectorWidth = Case.W;
    Expected<std::shared_ptr<ExecutionEngine>> Engine =
        compileWith(Cpp, Case.S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Engine))
        << Case.Name << ": " << Engine.getError().message();
    const vm::KernelProgram &Program = *(*Engine)->getProgram();
    size_t Instructions = 0;
    for (const vm::TaskProgram &Task : Program.Tasks)
      Instructions += Task.Code.size();
    EXPECT_GT(Instructions, 3 * backend::kCppSegmentInstructions)
        << Case.Name;
    if (Case.MaxPartitionSize) {
      EXPECT_GT(Program.Tasks.size(), 2u) << Case.Name;
      EXPECT_TRUE(std::any_of(
          Program.Buffers.begin(), Program.Buffers.end(),
          [](const vm::BufferInfo &Info) {
            return Info.Role == vm::BufferInfo::Kind::Intermediate;
          }))
          << Case.Name;
    }

    baselines::InterpreterEngine Interpreter(Case.S.Model);
    for (const std::vector<double> *Data :
         {&Case.S.JointData, &Case.S.MarginalData})
      expectBatchesMatch(**Engine, *Data,
                         runEngine(Interpreter, *Data, kMaxRows), Case.W,
                         Query,
                         std::string(Case.Name) +
                             (Data == &Case.S.JointData ? " (joint)"
                                                        : " (marginal)"));
  }

  // An indexed request over two weight tables in runs of three rows,
  // shorter than a block: the native engine runs each run as a padded
  // 8-row block of its own.
  Scenario S = makeSplitScenario();
  spn::Model Sibling = shiftedSibling(S.Model);
  spn::QueryConfig Query;
  Query.DataType = spn::ComputeType::F64;
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      compileWith(Cpp, S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Engine))
      << Engine.getError().message();
  std::vector<uint32_t> TableOf;
  std::vector<std::vector<double>> References;
  for (const spn::Model *Model : {&S.Model, &Sibling}) {
    Expected<std::vector<double>> Params = merge::extractParams(*Model);
    ASSERT_TRUE(static_cast<bool>(Params));
    int32_t Table =
        (*Engine)->addParamTable(Params->data(), Params->size());
    ASSERT_GE(Table, 0);
    TableOf.push_back(static_cast<uint32_t>(Table));
    References.push_back(runEngine(baselines::InterpreterEngine(*Model),
                                   S.JointData, kMaxRows));
  }
  std::vector<uint32_t> Tables(kMaxRows);
  for (size_t I = 0; I < kMaxRows; ++I)
    Tables[I] = TableOf[(I / 3) % 2];
  std::vector<double> Output(kMaxRows);
  ASSERT_TRUE((*Engine)->run({.Input = S.JointData.data(),
                                     .Output = Output.data(),
                                     .NumSamples = kMaxRows,
                                     .TableIndices = Tables.data()}));
  for (size_t I = 0; I < kMaxRows; ++I)
    EXPECT_NEAR(Output[I], References[(I / 3) % 2][I], kTolerance)
        << "indexed row " << I;
}

TEST(CppEmitterTest, SplitsIntoBoundedSegmentsDeterministically) {
  Scenario S = makeSplitScenario();
  CompilerOptions Options;
  Options.OptLevel = 2;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(S.Model, spn::QueryConfig());
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  size_t Size = Program->Tasks[0].Code.size();
  size_t Segments = (Size + backend::kCppSegmentInstructions - 1) /
                    backend::kCppSegmentInstructions;
  ASSERT_GT(Segments, 3u);

  // One unit per allowed CPU, never more units than segments.
  for (unsigned MaxUnits : {1u, 2u, 4u, 1000u}) {
    Expected<std::vector<std::string>> First =
        backend::emitCppKernel(*Program, 8, MaxUnits);
    Expected<std::vector<std::string>> Second =
        backend::emitCppKernel(*Program, 8, MaxUnits);
    ASSERT_TRUE(static_cast<bool>(First) && static_cast<bool>(Second));
    EXPECT_EQ(*First, *Second) << MaxUnits << " units";
    EXPECT_EQ(First->size(), std::min<size_t>(MaxUnits, Segments));

    size_t Defined = 0;
    for (const std::string &Unit : *First) {
      EXPECT_EQ(Unit.find("#include"), std::string::npos);
      for (size_t Pos = Unit.find("\nSPNC_SEGMENT("); Pos != std::string::npos;
           Pos = Unit.find("\nSPNC_SEGMENT(", Pos + 1))
        Defined += Unit.compare(Unit.find(')', Pos), 3, ") {") == 0;
    }
    EXPECT_EQ(Defined, Segments) << MaxUnits << " units";
    EXPECT_NE(First->front().find(backend::kCppKernelSymbol),
              std::string::npos);
  }
}

TEST(CppEmitterTest, EveryBufferOfAManyTaskProgramIsNamed) {
  // examples/models/ratspn_tiny.spnb (spnc-modelgen's RAT-SPN) split at
  // a partition budget of 80: 119 tasks linked by ~100 intermediate
  // buffers, so the buffer table is one long line of source.
  workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  spn::Model Model = workloads::generateRatSpn(Rat, 0);
  CompilerOptions Options;
  Options.MaxPartitionSize = 80;
  spn::QueryConfig Query;
  Query.SupportMarginal = true;
  Query.DataType = spn::ComputeType::F64;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  Expected<vm::KernelProgram> Program = Pipeline->compile(Model, Query);
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  EXPECT_EQ(Program->Tasks.size(), 119u);
  ASSERT_GT(Program->Buffers.size(), 95u);

  std::string Table;
  for (size_t B = 0; B < Program->Buffers.size(); ++B)
    Table += (B ? ", b" : "{b") + std::to_string(B);
  Table += "};";
  for (unsigned MaxUnits : {1u, 4u}) {
    Expected<std::vector<std::string>> Units =
        backend::emitCppKernel(*Program, 8, MaxUnits);
    ASSERT_TRUE(static_cast<bool>(Units)) << Units.getError().message();
    for (const std::string &Unit : *Units)
      EXPECT_EQ(Unit.find('\0'), std::string::npos)
          << MaxUnits << " units: NUL byte in the emitted source";
    EXPECT_NE(Units->front().find(Table), std::string::npos)
        << MaxUnits << " units: the buffer table is not intact";
  }
  // Lane widths that are no power of two or exceed the widest register
  // are refused; 16 f64 lanes run as 8.
  EXPECT_EQ(backend::cppLaneWidth(*Program, 16), 8u);
  for (unsigned Lanes : {0u, 3u, 16u}) {
    Expected<std::vector<std::string>> Units =
        backend::emitCppKernel(*Program, Lanes, 1);
    EXPECT_FALSE(static_cast<bool>(Units)) << Lanes << " lanes";
  }
}

TEST(CppBackendTest, OneUnitAndSplitBuildsAreBitIdentical) {
#ifndef __linux__
  GTEST_SKIP() << "pins the build to one CPU through sched_setaffinity";
#else
  backend::CppBackend Probe;
  SKIP_WITHOUT_HOST_COMPILER(Probe);
  cpu_set_t All;
  ASSERT_EQ(sched_getaffinity(0, sizeof(All), &All), 0);
  if (CPU_COUNT(&All) < 2)
    GTEST_SKIP() << "a split build needs two CPUs";
  cpu_set_t One;
  CPU_ZERO(&One);
  for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
    if (CPU_ISSET(Cpu, &All)) {
      CPU_SET(Cpu, &One);
      break;
    }

  // The production flags, where the host compiler could treat a segment
  // differently in a unit of its own; kept artifacts show how many
  // units were built. Linear space, where products feed sums, and the
  // default f32 log space.
  std::filesystem::path Root =
      std::filesystem::temp_directory_path() /
      ("spnc-split-build-" + std::to_string(getpid()));
  std::filesystem::remove_all(Root);
  Scenario S = makeSplitScenario();
  CompilerOptions Options;
  Options.OptLevel = 2;
  for (bool LogSpace : {true, false}) {
    spn::QueryConfig Query;
    Query.SupportMarginal = true;
    Query.LogSpace = LogSpace;
    if (!LogSpace)
      Query.DataType = spn::ComputeType::F64;
    std::vector<double> Outputs[2];
    for (size_t Leg = 0; Leg < 2; ++Leg) {
      backend::CppBackendOptions CppOptions;
      CppOptions.WorkDir =
          (Root / (std::to_string(LogSpace) + std::to_string(Leg))).string();
      backend::CppBackend Cpp(CppOptions);
      ASSERT_EQ(
          sched_setaffinity(0, sizeof(cpu_set_t), Leg ? &All : &One), 0);
      Expected<std::shared_ptr<ExecutionEngine>> Engine =
          compileWith(Cpp, S.Model, Query, Options);
      ASSERT_EQ(sched_setaffinity(0, sizeof(All), &All), 0);
      ASSERT_TRUE(static_cast<bool>(Engine))
          << Engine.getError().message();
      size_t Units = 0;
      for (const auto &Build :
           std::filesystem::directory_iterator(CppOptions.WorkDir))
        for (const auto &File : std::filesystem::directory_iterator(Build))
          Units += File.path().extension() == ".cpp";
      size_t Segments =
          ((*Engine)->getProgram()->Tasks[0].Code.size() +
           backend::kCppSegmentInstructions - 1) /
          backend::kCppSegmentInstructions;
      EXPECT_EQ(Units, Leg ? std::min<size_t>(CPU_COUNT(&All), Segments)
                           : 1u);
      for (const std::vector<double> *Data :
           {&S.JointData, &S.MarginalData}) {
        std::vector<double> Out =
            runEngine(**Engine, *Data, kNumSamples);
        Outputs[Leg].insert(Outputs[Leg].end(), Out.begin(), Out.end());
      }
    }
    ASSERT_EQ(Outputs[0].size(), Outputs[1].size());
    EXPECT_EQ(std::memcmp(Outputs[0].data(), Outputs[1].data(),
                          Outputs[0].size() * sizeof(double)),
              0)
        << (LogSpace ? "log space" : "linear space");
  }
  std::filesystem::remove_all(Root);
#endif
}

#ifdef __linux__
namespace {

/// Sets an environment variable for one scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

/// Builds the split speaker model through a compiler wrapper that runs
/// the real compiler but exits 1, with a marker on stderr, for the
/// invocation naming a path that ends in \p FailOn. The build must fail
/// with \p Wanted in its message plus the log tail, leave no shared
/// object mapped, remove its build directory unless \p Keep, and reap
/// every compiler it started.
void expectFailedBuildCleansUp(const std::string &FailOn,
                               const std::string &Wanted, bool Keep) {
  std::filesystem::path Root =
      std::filesystem::temp_directory_path() /
      ("spnc-failing-build-" + std::to_string(getpid()));
  std::filesystem::remove_all(Root);
  std::filesystem::create_directories(Root / "tmp");
  std::string Wrapper = (Root / "failing-cxx.sh").string();
  {
    std::ofstream Script(Wrapper);
    Script << "#!/bin/sh\n"
              "for arg in \"$@\"; do\n"
              "  case \"$arg\" in\n"
              "    */"
           << FailOn
           << ") echo \"injected failure: $arg\" >&2; exit 1 ;;\n"
              "  esac\n"
              "done\n"
              "exec \""
           << backend::CppBackend().resolveCompiler() << "\" \"$@\"\n";
  }
  std::filesystem::permissions(Wrapper,
                               std::filesystem::perms::owner_all);
  backend::CppBackendOptions Options = fastCppOptions();
  Options.CompilerPath = Wrapper;
  Options.KeepArtifacts = Keep;
  backend::CppBackend Cpp(Options);
  ASSERT_TRUE(Cpp.isAvailable());

  Scenario S = makeSplitScenario();
  Expected<std::shared_ptr<ExecutionEngine>> Engine = [&] {
    ScopedEnv Tmp("TMPDIR", (Root / "tmp").string());
    return compileWith(Cpp, S.Model, spn::QueryConfig(), CompilerOptions());
  }();
  ASSERT_FALSE(static_cast<bool>(Engine));
  std::string Message = Engine.getError().message();
  EXPECT_NE(Message.find(Wanted), std::string::npos) << Message;
  EXPECT_NE(Message.find("injected failure"), std::string::npos) << Message;

  EXPECT_EQ(std::filesystem::is_empty(Root / "tmp"), !Keep);
  std::ifstream Maps("/proc/self/maps");
  for (std::string Line; std::getline(Maps, Line);)
    EXPECT_EQ(Line.find(Root.string()), std::string::npos) << Line;
  errno = 0;
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  std::filesystem::remove_all(Root);
}

} // namespace

TEST(CppBackendTest, FailedUnitCompileIsReportedAndCleanedUp) {
  backend::CppBackend Probe;
  SKIP_WITHOUT_HOST_COMPILER(Probe);
  // The second unit when the build is split, so the others are still
  // compiling when it fails.
  std::string Unit = allowedCpus() >= 2 ? "unit1.cpp" : "unit0.cpp";
  expectFailedBuildCleansUp(Unit, "host compilation of '" + Unit + "'",
                            /*Keep=*/false);
  expectFailedBuildCleansUp(Unit, "host compilation of '" + Unit + "'",
                            /*Keep=*/true);
}

TEST(CppBackendTest, FailedLinkIsReportedAndCleanedUp) {
  backend::CppBackend Probe;
  SKIP_WITHOUT_HOST_COMPILER(Probe);
  expectFailedBuildCleansUp("kernel.so", "linking", /*Keep=*/false);
}
#endif

TEST(CppBackendTest, SelectCascadeLoweringMatchesInterpreter) {
  backend::CppBackend Cpp(fastCppOptions());
  SKIP_WITHOUT_HOST_COMPILER(Cpp);

  // The GPU pipeline lowers leaves to select cascades instead of dense
  // tables; materializing that program through the CPU-only native
  // backend covers the SelectInRange emission.
  Scenario S = makeScenario(5);
  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.DataType = spn::ComputeType::F64;
  CompilerOptions GpuOptions;
  GpuOptions.TheTarget = Target::GPU;
  Expected<CompilationPipeline> GpuPipeline =
      CompilationPipeline::create(GpuOptions);
  ASSERT_TRUE(static_cast<bool>(GpuPipeline));
  Expected<vm::KernelProgram> Program =
      GpuPipeline->compile(S.Model, Query);
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  ASSERT_EQ(Program->Lowering, vm::LoweringKind::SelectCascade);

  Expected<PipelineConfig> CpuConfig =
      PipelineConfig::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(CpuConfig));
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      Cpp.materialize(Program.takeValue(), *CpuConfig);
  ASSERT_TRUE(static_cast<bool>(Engine))
      << Engine.getError().message();

  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Reference =
      runEngine(Interpreter, S.JointData, kNumSamples);
  std::vector<double> Native =
      runEngine(**Engine, S.JointData, kNumSamples);
  for (size_t I = 0; I < kNumSamples; ++I)
    EXPECT_NEAR(Native[I], Reference[I], kTolerance) << "sample " << I;
}

TEST(CppBackendTest, LinearSpaceMatchesVmBackend) {
  backend::CppBackend Cpp(fastCppOptions());
  SKIP_WITHOUT_HOST_COMPILER(Cpp);

  Scenario S = makeScenario(6);
  spn::QueryConfig Query;
  Query.LogSpace = false;
  Query.DataType = spn::ComputeType::F64;
  CompilerOptions Options;

  backend::VmBackend Vm;
  Expected<std::shared_ptr<ExecutionEngine>> VmEngine =
      compileWith(Vm, S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(VmEngine))
      << VmEngine.getError().message();
  Expected<std::shared_ptr<ExecutionEngine>> CppEngine =
      compileWith(Cpp, S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(CppEngine))
      << CppEngine.getError().message();

  std::vector<double> VmOut =
      runEngine(**VmEngine, S.JointData, kNumSamples);
  std::vector<double> CppOut =
      runEngine(**CppEngine, S.JointData, kNumSamples);
  for (size_t I = 0; I < kNumSamples; ++I) {
    EXPECT_GE(VmOut[I], 0.0);
    EXPECT_NEAR(CppOut[I], VmOut[I],
                kTolerance * std::max(1.0, std::abs(VmOut[I])))
        << "sample " << I;
  }
}

TEST(CppBackendTest, DiskTierRoundTripThroughCache) {
  auto Backend = std::make_shared<backend::CppBackend>(fastCppOptions());
  SKIP_WITHOUT_HOST_COMPILER(*Backend);

  Scenario S = makeScenario(7);
  spn::QueryConfig Query;
  Query.DataType = spn::ComputeType::F64;
  CompilerOptions Options;

  std::string Dir =
      (std::filesystem::temp_directory_path() / "spnc-backend-test-cache")
          .string();
  std::filesystem::remove_all(Dir);

  std::vector<double> FirstOut, SecondOut;
  {
    KernelCache::Config Config;
    Config.Directory = Dir;
    Config.TheBackend = Backend;
    KernelCache Cache(Config);
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Kernel))
        << Kernel.getError().message();
    EXPECT_EQ(Cache.getStats().Recompiles, 1u);
    FirstOut = runEngine(Kernel->getEngine(), S.JointData, kNumSamples);
  }
  {
    // A fresh cache over the same directory: the .spnk disk hit is
    // re-materialized (re-emitted and re-linked) by the backend.
    KernelCache::Config Config;
    Config.Directory = Dir;
    Config.TheBackend = Backend;
    KernelCache Cache(Config);
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Kernel))
        << Kernel.getError().message();
    EXPECT_EQ(Cache.getStats().DiskHits, 1u);
    EXPECT_EQ(Cache.getStats().Recompiles, 0u);
    SecondOut = runEngine(Kernel->getEngine(), S.JointData, kNumSamples);
  }
  EXPECT_EQ(FirstOut, SecondOut);
  std::filesystem::remove_all(Dir);
}

TEST(CppBackendTest, EngineDescribesNativeKernel) {
  backend::CppBackend Cpp(fastCppOptions());
  SKIP_WITHOUT_HOST_COMPILER(Cpp);

  Scenario S = makeScenario(8);
  Expected<std::shared_ptr<ExecutionEngine>> Engine = compileWith(
      Cpp, S.Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Engine))
      << Engine.getError().message();
  EXPECT_NE((*Engine)->describe().find("cpp native"),
            std::string::npos);
  // The native engine retains the portable program, so .spnk saving
  // and work accounting behave exactly as with the VM engines.
  ASSERT_NE((*Engine)->getProgram(), nullptr);
  EXPECT_FALSE((*Engine)->getProgram()->Tasks.empty());
}

namespace {

/// The underflow edge model: a mixture of two sums over the same three
/// Gaussians (means 0, 30 and 60, stddev 1), whose first weights are
/// \p FirstA and \p FirstB. At -O2 the two sums are one LogSumExpGroup.
spn::Model makeUnderflowModel(double FirstA, double FirstB) {
  spn::Model Model(1, "underflow");
  std::vector<spn::Node *> Leaves = {Model.makeGaussian(0, 0.0, 1.0),
                                     Model.makeGaussian(0, 30.0, 1.0),
                                     Model.makeGaussian(0, 60.0, 1.0)};
  spn::Node *A = Model.makeSum(Leaves, {FirstA, 0.5, 0.5 - FirstA});
  spn::Node *B = Model.makeSum(Leaves, {FirstB, 0.25, 0.75 - FirstB});
  Model.setRoot(Model.makeSum({A, B}, {0.5, 0.5}));
  return Model;
}

} // namespace

/// Weights near log-space underflow, one of ROADMAP's edge models. A raw
/// weight of 1e-40 is subnormal in f32, and 1e-60, 1e-200 and 1e-300
/// round to 0 there. Where the child a tiny weight multiplies dominates
/// (x near 0), a group's linear sum falls below SharedExpLimits::Floor,
/// and
/// the exact per-lane path must produce the row. Every row matches the
/// interpreter (at perfbench's f32 allowance and at 1e-9 in f64): on the
/// VM at W 1/4/8/16 under the model's own table, the other model's
/// table for every row and a mix of both; on gpusim for each model; and
/// on the cpp backend under the same three table choices.
TEST(SharedExpTest, WeightsNearLogSpaceUnderflow) {
  const spn::Model Models[] = {makeUnderflowModel(1e-40, 1e-60),
                               makeUnderflowModel(1e-300, 1e-200)};
  const double Xs[] = {-5.0, 0.0, 2.5, 10.0, 30.0, 45.0, 60.0};
  constexpr size_t kRows = 61;
  std::vector<double> Rows(kRows);
  for (size_t I = 0; I < kRows; ++I)
    Rows[I] = Xs[I % std::size(Xs)];
  std::vector<double> Reference[2], Params[2];
  for (size_t M = 0; M < 2; ++M) {
    Reference[M] =
        runEngine(baselines::InterpreterEngine(Models[M]), Rows, kRows);
    Expected<std::vector<double>> Raw = merge::extractParams(Models[M]);
    ASSERT_TRUE(static_cast<bool>(Raw));
    Params[M] = Raw.takeValue();
  }
  const std::vector<uint32_t> Other(kRows, 1);
  std::vector<uint32_t> Mixed(kRows);
  for (size_t I = 0; I < kRows; ++I)
    Mixed[I] = (I * 7 / 3) % 2;

  // Runs \p Engine over every row, with \p Model's table; with
  // \p Tables, also under the other model's table and the mix.
  auto Check = [&](ExecutionEngine &Engine, size_t Model, bool F32,
                   bool Tables, const std::string &Leg) {
    auto Expect = [&](const std::vector<double> &Got,
                      const uint32_t *TableOf, const std::string &Run) {
      for (size_t I = 0; I < kRows; ++I) {
        double Want = Reference[TableOf ? TableOf[I] : Model][I];
        double Bound = F32 ? 1e-3 + 1e-5 * std::abs(Want) : kTolerance;
        EXPECT_NEAR(Got[I], Want, Bound)
            << Leg << ", " << Run << ", row " << I << " (x = " << Rows[I]
            << ")";
      }
    };
    Expect(runEngine(Engine, Rows, kRows), nullptr, "own table");
    if (!Tables)
      return;
    ASSERT_EQ(Engine.addParamTable(Params[0].data(), Params[0].size()), 0)
        << Leg;
    ASSERT_EQ(Engine.addParamTable(Params[1].data(), Params[1].size()), 1)
        << Leg;
    for (const std::vector<uint32_t> *TableOf :
         {&Other, static_cast<const std::vector<uint32_t> *>(&Mixed)}) {
      std::vector<double> Out(kRows);
      ASSERT_TRUE(Engine.run({.Input = Rows.data(),
                              .Output = Out.data(),
                              .NumSamples = kRows,
                              .TableIndices = TableOf->data()}))
          << Leg;
      Expect(Out, TableOf->data(),
             TableOf == &Other ? "other table" : "mixed tables");
    }
  };

  backend::VmBackend Vm;
  backend::CppBackend Cpp(fastCppOptions());
  // Without a host compiler only the cpp legs are left out.
  bool HaveCompiler = Cpp.isAvailable();
  for (bool F32 : {true, false}) {
    spn::QueryConfig Query;
    Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
    std::string Type = F32 ? "f32" : "f64";
    for (unsigned W : kLaneWidths) {
      CompilerOptions Options;
      Options.OptLevel = 2;
      Options.Execution.VectorWidth = W;
      Expected<std::shared_ptr<ExecutionEngine>> Engine =
          compileWith(Vm, Models[0], Query, Options);
      ASSERT_TRUE(static_cast<bool>(Engine)) << Engine.getError().message();
      const vm::KernelProgram &Program = *(*Engine)->getProgram();
      size_t Groups = 0;
      for (const vm::TaskProgram &Task : Program.Tasks)
        Groups += std::count_if(
            Task.Code.begin(), Task.Code.end(), [](const vm::Instruction &I) {
              return I.Op == vm::OpCode::LogSumExpGroup;
            });
      EXPECT_EQ(Groups, 1u) << Type;
      Check(**Engine, 0, F32, true, "vm " + Type + " W=" + std::to_string(W));
    }
    for (size_t M = 0; M < 2; ++M) {
      CompilerOptions Options;
      Options.OptLevel = 2;
      Options.TheTarget = Target::GPU;
      Expected<std::shared_ptr<ExecutionEngine>> Engine =
          compileWith(Vm, Models[M], Query, Options);
      ASSERT_TRUE(static_cast<bool>(Engine)) << Engine.getError().message();
      Check(**Engine, M, F32, false,
            "gpusim " + Type + " model " + std::to_string(M));
    }
    if (!HaveCompiler)
      continue;
    CompilerOptions Options;
    Options.OptLevel = 2;
    Options.Execution.VectorWidth = 8;
    Expected<std::shared_ptr<ExecutionEngine>> Engine =
        compileWith(Cpp, Models[0], Query, Options);
    ASSERT_TRUE(static_cast<bool>(Engine)) << Engine.getError().message();
    Check(**Engine, 0, F32, true, "cpp " + Type + " W=8");
  }
}
