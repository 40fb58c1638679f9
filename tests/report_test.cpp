//===- report_test.cpp - Golden tests for the JSON reports ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden tests for the machine-readable reports behind
/// `--pipeline-report` and `--kernel-cache-report`: the emitted
/// documents must parse, carry every documented key, and keep a stable
/// key order — the contract dashboards scrape against.
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "runtime/Pipeline.h"
#include "runtime/Reports.h"
#include "support/JSON.h"
#include "support/RawOStream.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

spn::Model makeModel() {
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 200;
  Options.Seed = 13;
  return workloads::generateSpeakerModel(Options);
}

/// Compiles a small model with the stage report on and returns the
/// pipeline report text plus the pipeline's stage names.
struct EmittedReport {
  std::string Text;
  std::vector<std::string> StageNames;
};

EmittedReport emitPipelineReport(bool VerifyEachStage) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  EXPECT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->enableStageReport());
  if (VerifyEachStage) {
    EXPECT_FALSE(Pipeline->enableVerifyAfterEachStage());
  }

  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  EXPECT_TRUE(static_cast<bool>(Program));

  EmittedReport Report;
  for (const PipelineStage &Stage : Pipeline->getStages())
    Report.StageNames.push_back(Stage.Name);
  StringOStream OS(Report.Text);
  writePipelineReport(Stats, &Pipeline->getStages(), OS);
  return Report;
}

std::vector<std::string> memberKeys(const json::Value &Object) {
  std::vector<std::string> Keys;
  for (const json::Value::Member &M : Object.getMembers())
    Keys.push_back(M.first);
  return Keys;
}

TEST(PipelineReportTest, ParsesWithAllDocumentedKeys) {
  EmittedReport Report = emitPipelineReport(/*VerifyEachStage=*/false);
  Expected<json::Value> Doc = json::parse(Report.Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  ASSERT_TRUE(Doc->isObject());
  for (const char *Key :
       {"stages", "op_counts", "passes", "codegen", "translation_ns",
        "binary_encode_ns", "total_ns", "num_tasks", "num_instructions"})
    EXPECT_NE(Doc->find(Key), nullptr) << "missing key: " << Key;

  const json::Value *Codegen = Doc->find("codegen");
  ASSERT_NE(Codegen, nullptr);
  ASSERT_TRUE(Codegen->isObject());
  for (const char *Key :
       {"isel_ns", "regalloc_ns", "peephole_ns", "scheduling_ns"})
    EXPECT_NE(Codegen->find(Key), nullptr) << "missing key: " << Key;
}

TEST(PipelineReportTest, StableTopLevelKeyOrder) {
  EmittedReport Report = emitPipelineReport(/*VerifyEachStage=*/false);
  Expected<json::Value> Doc = json::parse(Report.Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  // The exact top-level sequence is the documented contract
  // (runtime/Reports.h); a reorder is a breaking change.
  EXPECT_EQ(memberKeys(*Doc),
            (std::vector<std::string>{
                "stages", "op_counts", "passes", "codegen",
                "translation_ns", "binary_encode_ns", "total_ns",
                "num_tasks", "num_instructions"}));
  const json::Value *Stages = Doc->find("stages");
  ASSERT_NE(Stages, nullptr);
  ASSERT_TRUE(Stages->isArray());
  ASSERT_FALSE(Stages->getArray().empty());
  for (const json::Value &Stage : Stages->getArray())
    EXPECT_EQ(memberKeys(Stage),
              (std::vector<std::string>{"name", "detail", "diagnostic",
                                        "wall_ns"}));
}

TEST(PipelineReportTest, OneEntryPerRegisteredStageInOrder) {
  EmittedReport Report = emitPipelineReport(/*VerifyEachStage=*/true);
  Expected<json::Value> Doc = json::parse(Report.Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  const json::Value *Stages = Doc->find("stages");
  ASSERT_NE(Stages, nullptr);
  ASSERT_EQ(Stages->getArray().size(), Report.StageNames.size());
  for (size_t I = 0; I < Report.StageNames.size(); ++I) {
    const json::Value &Stage = Stages->getArray()[I];
    const json::Value *Name = Stage.find("name");
    ASSERT_NE(Name, nullptr);
    EXPECT_EQ(Name->getString(), Report.StageNames[I]);
    const json::Value *Diagnostic = Stage.find("diagnostic");
    ASSERT_NE(Diagnostic, nullptr);
    bool IsDiagnostic =
        Report.StageNames[I].find(':') != std::string::npos;
    EXPECT_EQ(Diagnostic->getBool(), IsDiagnostic)
        << Report.StageNames[I];
    const json::Value *WallNs = Stage.find("wall_ns");
    ASSERT_NE(WallNs, nullptr);
    EXPECT_TRUE(WallNs->isNumber());
  }
  // stage-report op counts surfaced: one sample per core stage.
  const json::Value *OpCounts = Doc->find("op_counts");
  ASSERT_NE(OpCounts, nullptr);
  ASSERT_EQ(OpCounts->getArray().size(), 3u);
  for (const json::Value &Count : OpCounts->getArray()) {
    EXPECT_EQ(memberKeys(Count),
              (std::vector<std::string>{"stage", "num_ops"}));
    EXPECT_GT(Count.find("num_ops")->getNumber(), 0.0);
  }
}

TEST(PipelineReportTest, MultiModelReportIsGoldenArray) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));

  workloads::SpeakerModelOptions OtherOptions;
  OtherOptions.TargetOperations = 350;
  OtherOptions.Seed = 29;
  std::vector<spn::Model> Models;
  Models.push_back(makeModel());
  Models.push_back(workloads::generateSpeakerModel(OtherOptions));

  std::vector<ModelPipelineReport> Reports;
  for (size_t I = 0; I < Models.size(); ++I) {
    ModelPipelineReport Report;
    Report.Model = "model-" + std::to_string(I) + ".spnb";
    Report.Stages = &Pipeline->getStages();
    Expected<vm::KernelProgram> Program =
        Pipeline->compile(Models[I], spn::QueryConfig(), &Report.Stats);
    ASSERT_TRUE(static_cast<bool>(Program));
    Reports.push_back(std::move(Report));
  }

  std::string Text;
  {
    StringOStream OS(Text);
    writePipelineReports(Reports, OS);
  }
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  // The multi-model report is a top-level array: one document per
  // model, each the single-model shape prefixed with "model".
  ASSERT_TRUE(Doc->isArray());
  ASSERT_EQ(Doc->getArray().size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    const json::Value &Entry = Doc->getArray()[I];
    ASSERT_TRUE(Entry.isObject());
    EXPECT_EQ(memberKeys(Entry),
              (std::vector<std::string>{
                  "model", "stages", "op_counts", "passes", "codegen",
                  "translation_ns", "binary_encode_ns", "total_ns",
                  "num_tasks", "num_instructions"}));
    EXPECT_EQ(Entry.find("model")->getString(),
              "model-" + std::to_string(I) + ".spnb");
    EXPECT_GT(Entry.find("total_ns")->getNumber(), 0.0);
  }
  // The two models differ in size, so the documents must carry
  // per-model (not shared) statistics.
  EXPECT_NE(Doc->getArray()[0].find("num_instructions")->getNumber(),
            Doc->getArray()[1].find("num_instructions")->getNumber());
}

TEST(PipelineReportTest, RepeatEmissionIsIdentical) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program));
  std::string First, Second;
  {
    StringOStream OS(First);
    writePipelineReport(Stats, &Pipeline->getStages(), OS);
  }
  {
    StringOStream OS(Second);
    writePipelineReport(Stats, &Pipeline->getStages(), OS);
  }
  EXPECT_EQ(First, Second);
}

TEST(PipelineReportTest, FileVariantWritesParseableDocument) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  spn::Model Model = makeModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program));

  std::string Path = ::testing::TempDir() + "/report_test_pipeline.json";
  std::string ErrorMessage;
  ASSERT_TRUE(succeeded(writePipelineReport(
      Stats, &Pipeline->getStages(), Path, &ErrorMessage)))
      << ErrorMessage;
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  std::string Text;
  char Buffer[4096];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Text.append(Buffer, Read);
  std::fclose(File);
  std::remove(Path.c_str());
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();

  // Unwritable path fails with a diagnostic, not a crash.
  EXPECT_TRUE(failed(writePipelineReport(
      Stats, nullptr, "/nonexistent-dir/report.json", &ErrorMessage)));
  EXPECT_FALSE(ErrorMessage.empty());
}

TEST(KernelCacheReportTest, AllCountersPresentInDeclarationOrder) {
  KernelCache::Stats Stats;
  Stats.Hits = 3;
  Stats.Misses = 2;
  Stats.DiskHits = 1;
  Stats.Recompiles = 1;
  Stats.Evictions = 4;
  Stats.DiskPrunedFiles = 5;
  Stats.DiskPrunedBytes = 6144;
  Stats.CorruptedDiskEntries = 1;
  KernelCache::Config Config;
  Config.Directory = "/tmp/spnk-cache";
  Config.MaxEntries = 32;
  Config.DiskBudgetBytes = 1 << 20;

  std::string Text;
  StringOStream OS(Text);
  writeKernelCacheReport(Stats, &Config, OS);

  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  EXPECT_EQ(memberKeys(*Doc),
            (std::vector<std::string>{
                "hits", "misses", "disk_hits", "recompiles", "evictions",
                "disk_pruned_files", "disk_pruned_bytes",
                "corrupted_disk_entries", "config"}));
  EXPECT_EQ(Doc->find("hits")->getNumber(), 3.0);
  EXPECT_EQ(Doc->find("disk_pruned_bytes")->getNumber(), 6144.0);
  const json::Value *ConfigValue = Doc->find("config");
  ASSERT_NE(ConfigValue, nullptr);
  EXPECT_EQ(memberKeys(*ConfigValue),
            (std::vector<std::string>{"directory", "max_entries",
                                      "disk_budget_bytes"}));
  EXPECT_EQ(ConfigValue->find("directory")->getString(),
            "/tmp/spnk-cache");
}

TEST(KernelCacheReportTest, OmitsConfigWhenNotProvided) {
  KernelCache::Stats Stats;
  std::string Text;
  StringOStream OS(Text);
  writeKernelCacheReport(Stats, nullptr, OS);
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  EXPECT_EQ(Doc->find("config"), nullptr);
  EXPECT_EQ(Doc->find("hits")->getNumber(), 0.0);
}

TEST(KernelCacheReportTest, LiveCacheStatsRoundTrip) {
  KernelCache::Config Config;
  KernelCache Cache(Config);
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 100;
  Options.Seed = 3;
  spn::Model Model = workloads::generateSpeakerModel(Options);
  Expected<CompiledKernel> First =
      Cache.getOrCompile(Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(First)) << First.getError().message();
  Expected<CompiledKernel> Second =
      Cache.getOrCompile(Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Second));

  std::string Text;
  StringOStream OS(Text);
  writeKernelCacheReport(Cache.getStats(), &Cache.getConfig(), OS);
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  EXPECT_EQ(Doc->find("hits")->getNumber(), 1.0);
  EXPECT_EQ(Doc->find("misses")->getNumber(), 1.0);
  EXPECT_EQ(Doc->find("recompiles")->getNumber(), 1.0);
}

TEST(JsonTest, WriterEscapesAndNestsCorrectly) {
  std::string Text;
  StringOStream OS(Text);
  json::Writer W(OS);
  W.beginObject();
  W.member("name", "quote\" slash\\ tab\t");
  W.key("list");
  W.beginArray();
  W.value(int64_t(-5));
  W.value(true);
  W.null();
  W.endArray();
  W.endObject();
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  EXPECT_EQ(Doc->find("name")->getString(), "quote\" slash\\ tab\t");
  const json::Value *List = Doc->find("list");
  ASSERT_NE(List, nullptr);
  ASSERT_EQ(List->getArray().size(), 3u);
  EXPECT_EQ(List->getArray()[0].getNumber(), -5.0);
  EXPECT_TRUE(List->getArray()[1].getBool());
  EXPECT_TRUE(List->getArray()[2].isNull());
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  for (const char *Bad :
       {"{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "\"unterminated",
        "{'single':1}", ""})
    EXPECT_FALSE(static_cast<bool>(json::parse(Bad))) << Bad;
}

TEST(JsonTest, ObjectsPreserveTextualMemberOrder) {
  Expected<json::Value> Doc =
      json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.getError().message();
  EXPECT_EQ(memberKeys(*Doc),
            (std::vector<std::string>{"z", "a", "m"}));
}

} // namespace
