//===- parser_test.cpp - Textual IR parser and round-trip tests ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"
#include "dialects/lospn/LoSPNOps.h"
#include "frontend/HiSPNTranslation.h"
#include "ir/Parser.h"
#include "ir/PassManager.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "transforms/Passes.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace spnc;
using namespace spnc::ir;

namespace {

/// Copies an IR span (type shapes, dense attributes) for comparison.
template <typename T> std::vector<T> toVector(std::span<const T> Values) {
  return std::vector<T>(Values.begin(), Values.end());
}

class ParserTest : public ::testing::Test {
protected:
  void SetUp() override {
    hispn::registerHiSPNDialect(Ctx);
    lospn::registerLoSPNDialect(Ctx);
  }

  Context Ctx;
};

TEST_F(ParserTest, ParsesEmptyModule) {
  Expected<OwningOpRef<ModuleOp>> Module =
      parseSourceString(Ctx, "\"builtin.module\"() ({\n}) : () -> ()\n");
  ASSERT_TRUE(static_cast<bool>(Module)) << Module.getError().message();
  EXPECT_TRUE(Module->get().getBody().empty());
}

TEST_F(ParserTest, ParsesOpsValuesAndAttributes) {
  const char *Source = R"(
"builtin.module"() ({
  %0 = "lo_spn.constant"() {value = 0.25} : () -> f64
  %1 = "lo_spn.constant"() {value = -1.5} : () -> f64
  %2 = "lo_spn.mul"(%0, %1) : (f64, f64) -> f64
}) : () -> ()
)";
  Expected<OwningOpRef<ModuleOp>> Module = parseSourceString(Ctx, Source);
  ASSERT_TRUE(static_cast<bool>(Module)) << Module.getError().message();
  Block &Body = Module->get().getBody();
  ASSERT_EQ(Body.size(), 3u);
  Operation *Mul = Body.back();
  EXPECT_EQ(Mul->getName(), "lo_spn.mul");
  ASSERT_EQ(Mul->getNumOperands(), 2u);
  Operation *C0 = Mul->getOperand(0).getDefiningOp();
  ASSERT_NE(C0, nullptr);
  EXPECT_DOUBLE_EQ(C0->getFloatAttr("value"), 0.25);
  EXPECT_DOUBLE_EQ(
      Mul->getOperand(1).getDefiningOp()->getFloatAttr("value"), -1.5);
}

TEST_F(ParserTest, ParsesRegionsAndBlockArguments) {
  const char *Source = R"(
"builtin.module"() ({
  "hi_spn.graph"() ({
  ^bb(%arg0: f64, %arg1: f64):
    %0 = "hi_spn.gaussian"(%arg0) {mean = 0.0, stddev = 1.0} : (f64) -> !hi_spn.prob
    %1 = "hi_spn.gaussian"(%arg1) {mean = 1.0, stddev = 2.0} : (f64) -> !hi_spn.prob
    %2 = "hi_spn.product"(%0, %1) : (!hi_spn.prob, !hi_spn.prob) -> !hi_spn.prob
    "hi_spn.root"(%2) : (!hi_spn.prob) -> ()
  }) {numFeatures = 2} : () -> ()
}) : () -> ()
)";
  Expected<OwningOpRef<ModuleOp>> Module = parseSourceString(Ctx, Source);
  ASSERT_TRUE(static_cast<bool>(Module)) << Module.getError().message();
  ASSERT_TRUE(succeeded(verify(Module->get().getOperation())));
  Operation *Graph = Module->get().getBody().front();
  hispn::GraphOp G(Graph);
  EXPECT_EQ(G.getNumFeatures(), 2u);
  EXPECT_EQ(G.getBody().getNumArguments(), 2u);
  // Leaf evidence must be wired to the block arguments.
  Operation *Leaf = G.getBody().front();
  EXPECT_EQ(Leaf->getOperand(0), G.getBody().getArgument(0));
}

TEST_F(ParserTest, ParsesShapedAndDialectTypes) {
  const char *Source = R"(
"builtin.module"() ({
  "lo_spn.kernel"() ({
  ^bb(%arg0: memref<?x26xf64>, %arg1: memref<2x?x!lo_spn.log<f32>>):
    "lo_spn.return"() : () -> ()
  }) {numInputs = 1, sym_name = "k"} : () -> ()
}) : () -> ()
)";
  Expected<OwningOpRef<ModuleOp>> Module = parseSourceString(Ctx, Source);
  ASSERT_TRUE(static_cast<bool>(Module)) << Module.getError().message();
  lospn::KernelOp Kernel(Module->get().getBody().front());
  Type In = Kernel.getBody().getArgument(0).getType();
  ASSERT_TRUE(In.isa<MemRefType>());
  EXPECT_EQ(toVector(In.cast<MemRefType>().getShape()),
            (std::vector<int64_t>{TypeStorage::kDynamic, 26}));
  EXPECT_EQ(In.cast<MemRefType>().getElementType(),
            Type(FloatType::getF64(Ctx)));
  Type Out = Kernel.getBody().getArgument(1).getType();
  EXPECT_EQ(toVector(Out.cast<MemRefType>().getShape()),
            (std::vector<int64_t>{2, TypeStorage::kDynamic}));
  EXPECT_TRUE(lospn::isLogSpace(
      Out.cast<MemRefType>().getElementType()));
}

TEST_F(ParserTest, ParsesDenseAndSpecialFloats) {
  const char *Source = R"(
"builtin.module"() ({
  %0 = "test.op"() {weights = dense<[0.25, 0.75]>, lo = -inf, bad = nan, flag = true, none = unit, name = "abc"} : () -> f32
}) : () -> ()
)";
  Expected<OwningOpRef<ModuleOp>> Module = parseSourceString(Ctx, Source);
  ASSERT_TRUE(static_cast<bool>(Module)) << Module.getError().message();
  Operation *Op = Module->get().getBody().front();
  EXPECT_EQ(toVector(Op->getAttr("weights").cast<DenseF64Attr>().getValues()),
            (std::vector<double>{0.25, 0.75}));
  EXPECT_TRUE(std::isinf(Op->getFloatAttr("lo")));
  EXPECT_TRUE(std::isnan(Op->getFloatAttr("bad")));
  EXPECT_TRUE(Op->getBoolAttr("flag"));
  EXPECT_TRUE(Op->getAttr("none").isa<UnitAttr>());
  EXPECT_EQ(Op->getAttr("name").cast<StringAttr>().getValue(), "abc");
}

TEST_F(ParserTest, ReportsErrorsWithLocation) {
  struct Case {
    const char *Source;
    const char *ExpectSubstring;
  } Cases[] = {
      {"\"builtin.module\"() ({\n  %0 = \"x\"(%9) : (f32) -> f32\n}) : "
       "() -> ()",
       "undefined value"},
      {"\"builtin.module\"() ({}) : () -> () garbage",
       "expected end of input"},
      {"\"builtin.module\"() ({", "unterminated region"},
      {"%0 = \"lo_spn.constant\"() {value = 1.0} : () -> f64",
       "builtin.module"},
      {"\"builtin.module\"() ({\n  %0 = \"x\"() : () -> badtype\n}) : () "
       "-> ()",
       "unknown type"},
  };
  for (const Case &C : Cases) {
    Expected<OwningOpRef<ModuleOp>> Module =
        parseSourceString(Ctx, C.Source);
    ASSERT_FALSE(static_cast<bool>(Module)) << C.Source;
    EXPECT_NE(Module.getError().message().find(C.ExpectSubstring),
              std::string::npos)
        << "got: " << Module.getError().message();
  }
}

TEST_F(ParserTest, RoundTripsHiSPNModules) {
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 250;
  Options.Seed = 13;
  spn::Model Model = workloads::generateSpeakerModel(Options);
  spn::QueryConfig Query;
  Query.SupportMarginal = true;
  OwningOpRef<ModuleOp> Original =
      spn::translateToHiSPN(Ctx, Model, Query);
  ASSERT_TRUE(static_cast<bool>(Original));

  std::string Text = opToString(Original.get().getOperation());
  Expected<OwningOpRef<ModuleOp>> Reparsed = parseSourceString(Ctx, Text);
  ASSERT_TRUE(static_cast<bool>(Reparsed))
      << Reparsed.getError().message();
  ASSERT_TRUE(succeeded(verify(Reparsed->get().getOperation())));
  // Printing the reparsed module reproduces the text exactly (fixpoint).
  EXPECT_EQ(opToString(Reparsed->get().getOperation()), Text);
}

TEST_F(ParserTest, RoundTripsBufferizedLoSPNModules) {
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 250;
  Options.Seed = 13;
  spn::Model Model = workloads::generateSpeakerModel(Options);
  OwningOpRef<ModuleOp> Module =
      spn::translateToHiSPN(Ctx, Model, spn::QueryConfig());
  ASSERT_TRUE(static_cast<bool>(Module));
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions PartOptions;
  PartOptions.MaxPartitionSize = 64;
  PM.addPass(transforms::createTaskPartitioningPass(PartOptions));
  PM.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));

  std::string Text = opToString(Module.get().getOperation());
  Expected<OwningOpRef<ModuleOp>> Reparsed = parseSourceString(Ctx, Text);
  ASSERT_TRUE(static_cast<bool>(Reparsed))
      << Reparsed.getError().message();
  ASSERT_TRUE(succeeded(verify(Reparsed->get().getOperation())));
  EXPECT_EQ(opToString(Reparsed->get().getOperation()), Text);
}

} // namespace
