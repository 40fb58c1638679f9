//===- registry_test.cpp - Pipeline stage registry tests -----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the open stage registry: registration order and anchoring,
/// duplicate-name rejection, the execution order of registered stages,
/// and the verify-after-each diagnostic catching a deliberately
/// malformed module injected by a test-only stage.
///
//===----------------------------------------------------------------------===//

#include "ir/Operation.h"
#include "runtime/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

spn::Model makeModel() {
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 150;
  Options.Seed = 11;
  return workloads::generateSpeakerModel(Options);
}

std::vector<std::string>
stageNames(const CompilationPipeline &Pipeline) {
  std::vector<std::string> Names;
  for (const PipelineStage &Stage : Pipeline.getStages())
    Names.push_back(Stage.Name);
  return Names;
}

size_t indexOf(const std::vector<std::string> &Names,
               const std::string &Name) {
  auto It = std::find(Names.begin(), Names.end(), Name);
  EXPECT_NE(It, Names.end()) << "stage '" << Name << "' not registered";
  return static_cast<size_t>(It - Names.begin());
}

/// A no-op stage runner.
StageRunner nopStage() {
  return [](detail::StageContext &) { return std::nullopt; };
}

TEST(StageRegistryTest, DefaultStagesRegistered) {
  Expected<CompilationPipeline> Cpu =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Cpu));
  EXPECT_EQ(stageNames(*Cpu),
            (std::vector<std::string>{"translate", "ir-pipeline",
                                      "codegen"}));

  CompilerOptions GpuOptions;
  GpuOptions.TheTarget = Target::GPU;
  Expected<CompilationPipeline> Gpu =
      CompilationPipeline::create(GpuOptions);
  ASSERT_TRUE(static_cast<bool>(Gpu));
  EXPECT_EQ(stageNames(*Gpu),
            (std::vector<std::string>{"translate", "ir-pipeline",
                                      "codegen", "binary-encode"}));
}

TEST(StageRegistryTest, RegistrationOrderRespected) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  // End-anchored stages append in registration order.
  EXPECT_FALSE(Pipeline->registerStage({"first", ""}, nopStage()));
  EXPECT_FALSE(Pipeline->registerStage({"second", ""}, nopStage()));
  std::vector<std::string> Names = stageNames(*Pipeline);
  ASSERT_GE(Names.size(), 2u);
  EXPECT_EQ(Names[Names.size() - 2], "first");
  EXPECT_EQ(Names[Names.size() - 1], "second");
}

TEST(StageRegistryTest, BeforeAndAfterAnchorsResolve) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->registerStage(
      {"pre-codegen", ""}, nopStage(), StageAnchor::before("codegen")));
  EXPECT_FALSE(Pipeline->registerStage(
      {"post-translate", ""}, nopStage(),
      StageAnchor::after("translate")));
  std::vector<std::string> Names = stageNames(*Pipeline);
  EXPECT_EQ(indexOf(Names, "post-translate"),
            indexOf(Names, "translate") + 1);
  EXPECT_EQ(indexOf(Names, "pre-codegen"),
            indexOf(Names, "codegen") - 1);
}

TEST(StageRegistryTest, DuplicateNameRejectedWithDiagnostic) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::optional<Error> Err =
      Pipeline->registerStage({"translate", ""}, nopStage());
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->message().find("duplicate"), std::string::npos)
      << Err->message();
  EXPECT_NE(Err->message().find("translate"), std::string::npos)
      << Err->message();
  // The registry is unchanged: still exactly one "translate".
  std::vector<std::string> Names = stageNames(*Pipeline);
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "translate"), 1);
}

TEST(StageRegistryTest, UnknownAnchorRejectedWithDiagnostic) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::optional<Error> Err = Pipeline->registerStage(
      {"orphan", ""}, nopStage(), StageAnchor::after("no-such-stage"));
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->message().find("no-such-stage"), std::string::npos)
      << Err->message();
  EXPECT_FALSE(Pipeline->hasStage("orphan"));
}

TEST(StageRegistryTest, EmptyNameRejected) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_TRUE(
      Pipeline->registerStage({"", ""}, nopStage()).has_value());
}

TEST(StageRegistryTest, RegisteredStagesRunInListOrder) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::vector<std::string> Ran;
  auto Recorder = [&Ran](std::string Name) -> StageRunner {
    return [&Ran, Name](detail::StageContext &) {
      Ran.push_back(Name);
      return std::nullopt;
    };
  };
  EXPECT_FALSE(Pipeline->registerStage({"observe-translate", ""},
                                       Recorder("observe-translate"),
                                       StageAnchor::after("translate")));
  EXPECT_FALSE(Pipeline->registerStage({"observe-end", ""},
                                       Recorder("observe-end")));
  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  EXPECT_EQ(Ran, (std::vector<std::string>{"observe-translate",
                                           "observe-end"}));
  // Every registered stage got a timing entry, in list order.
  ASSERT_EQ(Stats.Stages.size(), Pipeline->getStages().size());
  for (size_t I = 0; I < Stats.Stages.size(); ++I)
    EXPECT_EQ(Stats.Stages[I].Name, Pipeline->getStages()[I].Name);
}

TEST(StageRegistryTest, StageErrorAbortsCompilation) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  bool CodegenRan = false;
  EXPECT_FALSE(Pipeline->registerStage(
      {"fail", ""},
      [](detail::StageContext &) -> std::optional<Error> {
        return makeError("injected stage failure");
      },
      StageAnchor::before("codegen")));
  EXPECT_FALSE(Pipeline->registerStage(
      {"observe-codegen", ""},
      [&CodegenRan](detail::StageContext &) -> std::optional<Error> {
        CodegenRan = true;
        return std::nullopt;
      },
      StageAnchor::after("codegen")));
  spn::Model Model = makeModel();
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig());
  ASSERT_FALSE(static_cast<bool>(Program));
  EXPECT_NE(Program.getError().message().find("injected stage failure"),
            std::string::npos);
  EXPECT_FALSE(CodegenRan);
}

/// Corrupts the module: moves the terminator of the first multi-op
/// block it finds away from the block's end, which the structural
/// verifier must flag.
std::optional<Error> corruptModule(detail::StageContext &C) {
  if (!C.Module)
    return makeError("corrupting stage ran before translation");
  ir::Operation *Victim = nullptr;
  C.Module.get().getOperation()->walk([&](ir::Operation *Op) {
    if (Victim)
      return;
    ir::Block *TheBlock = Op->getBlock();
    if (Op->isTerminator() && TheBlock &&
        TheBlock->size() > 1 &&
        TheBlock->back() == Op)
      Victim = Op;
  });
  if (!Victim)
    return makeError("no terminator found to corrupt");
  Victim->moveBefore(*Victim->getBlock()->begin());
  return std::nullopt;
}

TEST(StageRegistryTest, VerifyAfterEachCatchesMalformedModule) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  // Test-only stage that deliberately malforms the module, then the
  // verify net; the verify stage directly after the corrupter must
  // report it and name the stage.
  EXPECT_FALSE(Pipeline->registerStage({"corrupt", "test-only"},
                                       corruptModule,
                                       StageAnchor::after("translate")));
  EXPECT_FALSE(Pipeline->enableVerifyAfterEachStage());
  ASSERT_TRUE(Pipeline->hasStage("verify:corrupt"));

  spn::Model Model = makeModel();
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig());
  ASSERT_FALSE(static_cast<bool>(Program));
  EXPECT_NE(Program.getError().message().find(
                "IR verification failed after stage 'corrupt'"),
            std::string::npos)
      << Program.getError().message();
}

TEST(StageRegistryTest, VerifyAfterEachPassesOnHealthyPipeline) {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.MaxPartitionSize = 64;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->enableVerifyAfterEachStage());
  // One verify stage per default stage, each directly after it.
  std::vector<std::string> Names = stageNames(*Pipeline);
  EXPECT_EQ(indexOf(Names, "verify:translate"),
            indexOf(Names, "translate") + 1);
  EXPECT_EQ(indexOf(Names, "verify:ir-pipeline"),
            indexOf(Names, "ir-pipeline") + 1);
  EXPECT_EQ(indexOf(Names, "verify:codegen"),
            indexOf(Names, "codegen") + 1);
  // Enabling twice is a duplicate registration.
  EXPECT_TRUE(Pipeline->enableVerifyAfterEachStage().has_value());

  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  EXPECT_EQ(Stats.Stages.size(), 6u);
}

TEST(StageRegistryTest, StageReportRecordsOpCounts) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->enableStageReport());
  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  ASSERT_EQ(Stats.OpCounts.size(), 3u);
  EXPECT_EQ(Stats.OpCounts[0].Stage, "translate");
  EXPECT_EQ(Stats.OpCounts[1].Stage, "ir-pipeline");
  EXPECT_EQ(Stats.OpCounts[2].Stage, "codegen");
  for (const StageOpCount &Count : Stats.OpCounts)
    EXPECT_GT(Count.NumOps, 0u);
}

TEST(StageRegistryTest, IrDumpStageWritesFile) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::string Path =
      ::testing::TempDir() + "/registry_test_ir_dump.txt";
  EXPECT_FALSE(Pipeline->addIrDumpStage("translate", Path));
  // Unknown anchor fails with a diagnostic.
  std::optional<Error> Err = Pipeline->addIrDumpStage("nonexistent");
  ASSERT_TRUE(Err.has_value());

  spn::Model Model = makeModel();
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig());
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  char Buffer[256] = {};
  size_t Read = std::fread(Buffer, 1, sizeof(Buffer) - 1, File);
  std::fclose(File);
  std::remove(Path.c_str());
  EXPECT_GT(Read, 0u);
  EXPECT_NE(std::string(Buffer).find("module"), std::string::npos);
}

} // namespace
