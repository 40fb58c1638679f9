//===- frontend_test.cpp - SPN model, serializer, translation tests ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/HiSPNTranslation.h"
#include "frontend/Model.h"
#include "frontend/Serializer.h"
#include "dialects/hispn/HiSPNOps.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace spnc;
using namespace spnc::spn;

namespace {

/// Builds the two-feature example SPN of paper Fig. 1 style: a mixture of
/// two factorizations.
Model buildExampleModel() {
  Model M(2, "example");
  Node *G0 = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(1, 1.0, 0.5);
  Node *G2 = M.makeGaussian(0, -1.0, 2.0);
  Node *G3 = M.makeGaussian(1, 2.0, 1.5);
  Node *P0 = M.makeProduct({G0, G1});
  Node *P1 = M.makeProduct({G2, G3});
  M.setRoot(M.makeSum({P0, P1}, {0.3, 0.7}));
  return M;
}

//===----------------------------------------------------------------------===//
// Model construction and validation
//===----------------------------------------------------------------------===//

TEST(ModelTest, BuildsAndValidates) {
  Model M = buildExampleModel();
  std::string Error;
  EXPECT_TRUE(M.validate(&Error)) << Error;
  ModelStats Stats = M.computeStats();
  EXPECT_EQ(Stats.NumNodes, 7u);
  EXPECT_EQ(Stats.NumSums, 1u);
  EXPECT_EQ(Stats.NumProducts, 2u);
  EXPECT_EQ(Stats.NumLeaves, 4u);
  EXPECT_EQ(Stats.NumGaussians, 4u);
  EXPECT_EQ(Stats.MaxDepth, 3u);
}

TEST(ModelTest, RejectsMissingRoot) {
  Model M(1);
  std::string Error;
  EXPECT_FALSE(M.validate(&Error));
  EXPECT_NE(Error.find("no root"), std::string::npos);
}

TEST(ModelTest, RejectsNonNormalizedWeights) {
  Model M(1);
  Node *G0 = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(0, 1.0, 1.0);
  M.setRoot(M.makeSum({G0, G1}, {0.5, 0.6}));
  std::string Error;
  EXPECT_FALSE(M.validate(&Error));
  EXPECT_NE(Error.find("sum"), std::string::npos);
}

TEST(ModelTest, RejectsNonSmoothSum) {
  Model M(2);
  Node *G0 = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(1, 0.0, 1.0); // different scope
  M.setRoot(M.makeSum({G0, G1}, {0.5, 0.5}));
  std::string Error;
  EXPECT_FALSE(M.validate(&Error));
  EXPECT_NE(Error.find("smooth"), std::string::npos);
}

TEST(ModelTest, RejectsNonDecomposableProduct) {
  Model M(2);
  Node *G0 = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(0, 1.0, 1.0); // overlapping scope
  M.setRoot(M.makeProduct({G0, G1}));
  std::string Error;
  EXPECT_FALSE(M.validate(&Error));
  EXPECT_NE(Error.find("decomposable"), std::string::npos);
}

TEST(ModelTest, ScopeComputation) {
  Model M = buildExampleModel();
  std::set<unsigned> RootScope = M.getScope(M.getRoot());
  EXPECT_EQ(RootScope, (std::set<unsigned>{0, 1}));
  // A leaf's scope is its feature.
  const auto *Sum = cast<SumNode>(M.getRoot());
  const auto *Product = cast<ProductNode>(Sum->getChild(0));
  EXPECT_EQ(M.getScope(Product->getChild(0)), (std::set<unsigned>{0}));
}

TEST(ModelTest, TopologicalOrderIsChildrenFirst) {
  Model M = buildExampleModel();
  std::vector<Node *> Order = M.topologicalOrder();
  ASSERT_EQ(Order.size(), 7u);
  std::unordered_map<const Node *, size_t> Position;
  for (size_t I = 0; I < Order.size(); ++I)
    Position[Order[I]] = I;
  for (Node *N : Order) {
    if (const auto *Inner = dyn_cast<InnerNode>(N))
      for (Node *Child : Inner->getChildren()) {
        EXPECT_LT(Position.at(Child), Position.at(N));
      }
  }
  EXPECT_EQ(Order.back(), M.getRoot());
}

TEST(ModelTest, SharedNodesVisitedOnce) {
  Model M(2);
  Node *Shared = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(1, 0.0, 1.0);
  Node *G1b = M.makeGaussian(1, 2.0, 1.0);
  Node *P0 = M.makeProduct({Shared, G1});
  Node *P1 = M.makeProduct({Shared, G1b}); // Shared is a DAG node.
  M.setRoot(M.makeSum({P0, P1}, {0.4, 0.6}));
  EXPECT_EQ(M.topologicalOrder().size(), 6u);
  std::string Error;
  EXPECT_TRUE(M.validate(&Error)) << Error;
}

TEST(ModelTest, ReferenceEvaluatorMatchesHandComputation) {
  Model M = buildExampleModel();
  double Sample[2] = {0.5, 1.0};
  auto Pdf = [](double Mean, double Sigma, double X) {
    double T = (X - Mean) / Sigma;
    return std::exp(-0.5 * T * T) / (Sigma * std::sqrt(2 * M_PI));
  };
  double Expected =
      0.3 * Pdf(0, 1, 0.5) * Pdf(1, 0.5, 1.0) +
      0.7 * Pdf(-1, 2, 0.5) * Pdf(2, 1.5, 1.0);
  EXPECT_NEAR(M.evalLogLikelihood(std::span<const double>(Sample, 2)),
              std::log(Expected), 1e-12);
}

TEST(ModelTest, MarginalizationYieldsProbabilityOne) {
  Model M(1);
  M.setRoot(M.makeGaussian(0, 0.0, 1.0));
  double Sample[1] = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_DOUBLE_EQ(
      M.evalLogLikelihood(std::span<const double>(Sample, 1)), 0.0);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(SerializerTest, RoundTripsAllNodeKinds) {
  Model M(3, "mixed");
  Node *G = M.makeGaussian(0, 1.25, 0.75);
  Node *H = M.makeHistogram(1, {HistogramBucket{0, 1, 0.25},
                                HistogramBucket{1, 3, 0.75}});
  Node *C = M.makeCategorical(2, {0.1, 0.2, 0.7});
  Node *P = M.makeProduct({G, H, C});
  Node *P2 = M.makeProduct(
      {M.makeGaussian(0, -1.0, 2.0), M.makeHistogram(1, {{0, 3, 1.0}}),
       M.makeCategorical(2, {0.5, 0.5})});
  M.setRoot(M.makeSum({P, P2}, {0.6, 0.4}));

  std::vector<uint8_t> Bytes = serializeModel(M);
  Expected<Model> Restored = deserializeModel(Bytes);
  ASSERT_TRUE(static_cast<bool>(Restored))
      << Restored.getError().message();
  EXPECT_EQ(Restored->getNumFeatures(), 3u);
  EXPECT_EQ(Restored->getName(), "mixed");
  EXPECT_EQ(Restored->getNumNodes(), M.getNumNodes());
  std::string Error;
  EXPECT_TRUE(Restored->validate(&Error)) << Error;

  // Semantics preserved: identical likelihoods.
  double Sample[3] = {0.9, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(
      Restored->evalLogLikelihood(std::span<const double>(Sample, 3)),
      M.evalLogLikelihood(std::span<const double>(Sample, 3)));
}

TEST(SerializerTest, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  Expected<Model> Result = deserializeModel(Bytes);
  EXPECT_FALSE(static_cast<bool>(Result));
  EXPECT_NE(Result.getError().message().find("magic"),
            std::string::npos);
}

TEST(SerializerTest, RejectsTruncatedPayload) {
  Model M(1);
  M.setRoot(M.makeGaussian(0, 0.0, 1.0));
  std::vector<uint8_t> Bytes = serializeModel(M);
  for (size_t Cut : {Bytes.size() - 1, Bytes.size() / 2, size_t(9)}) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(static_cast<bool>(deserializeModel(Truncated)))
        << "cut at " << Cut;
  }
}

TEST(SerializerTest, RejectsTrailingGarbage) {
  Model M(1);
  M.setRoot(M.makeGaussian(0, 0.0, 1.0));
  std::vector<uint8_t> Bytes = serializeModel(M);
  Bytes.push_back(0);
  EXPECT_FALSE(static_cast<bool>(deserializeModel(Bytes)));
}

TEST(SerializerTest, RejectsInvalidLeafParameters) {
  // Crafted .spnb files: each leaf parameter below serializes fine but
  // must be refused on load, naming the node.
  auto Gaussian = [](double Mean, double StdDev) {
    Model M(1);
    M.setRoot(M.makeGaussian(0, Mean, StdDev));
    return M;
  };
  auto Histogram = [](double Lb, double Ub, double P) {
    Model M(1);
    M.setRoot(M.makeHistogram(0, {{Lb, Ub, P}, {Ub, Ub + 1, 0.5}}));
    return M;
  };
  std::vector<Model> Invalid;
  Invalid.push_back(Gaussian(0.0, 0.0));
  Invalid.push_back(Gaussian(0.0, -1.0));
  Invalid.push_back(Gaussian(0.0, std::nan("")));
  Invalid.push_back(Gaussian(std::numeric_limits<double>::infinity(), 1.0));
  Invalid.push_back(Histogram(0.0, 1.0, -0.5));
  Invalid.push_back(Histogram(1.0, 1.0, 0.5));
  {
    Model M(1);
    M.setRoot(M.makeCategorical(0, {0.5, std::nan("")}));
    Invalid.push_back(std::move(M));
  }
  std::string Path = ::testing::TempDir() + "/spnc_invalid_leaf.spnb";
  for (size_t I = 0; I < Invalid.size(); ++I) {
    std::string Error;
    EXPECT_FALSE(Invalid[I].validate(&Error)) << "model " << I;
    ASSERT_TRUE(succeeded(saveModel(Invalid[I], Path)));
    Expected<Model> Loaded = loadModel(Path);
    ASSERT_FALSE(static_cast<bool>(Loaded)) << "model " << I;
    EXPECT_NE(Loaded.getError().message().find("invalid SPNB node"),
              std::string::npos)
        << Loaded.getError().message();
  }
  std::remove(Path.c_str());
}

TEST(SerializerTest, SaveAndLoadFile) {
  Model M = buildExampleModel();
  std::string Path = ::testing::TempDir() + "/spnc_model.spnb";
  ASSERT_TRUE(succeeded(saveModel(M, Path)));
  Expected<Model> Loaded = loadModel(Path);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.getError().message();
  EXPECT_EQ(Loaded->getNumNodes(), M.getNumNodes());
  std::remove(Path.c_str());
}

class SerializerPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SerializerPropertyTest, RandomModelsRoundTripExactly) {
  workloads::SpeakerModelOptions Options;
  Options.Seed = GetParam();
  Options.TargetOperations = 150 + 200 * (GetParam() % 4);
  Model M = workloads::generateSpeakerModel(Options);

  std::vector<uint8_t> Bytes = serializeModel(M);
  Expected<Model> Restored = deserializeModel(Bytes);
  ASSERT_TRUE(static_cast<bool>(Restored))
      << Restored.getError().message();
  EXPECT_EQ(Restored->getNumNodes(), M.getNumNodes());

  // Serialization is canonical: a second round trip yields identical
  // bytes.
  EXPECT_EQ(serializeModel(*Restored), Bytes);

  // Likelihoods are bit-identical.
  std::vector<double> Data =
      workloads::generateSpeechData(Options, 10, GetParam() + 3);
  for (size_t S = 0; S < 10; ++S) {
    std::span<const double> Sample(&Data[S * 26], 26);
    EXPECT_DOUBLE_EQ(Restored->evalLogLikelihood(Sample),
                     M.evalLogLikelihood(Sample));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

//===----------------------------------------------------------------------===//
// Translation to HiSPN
//===----------------------------------------------------------------------===//

TEST(TranslationTest, ProducesVerifiedQuery) {
  Model M = buildExampleModel();
  ir::Context Ctx;
  QueryConfig Config;
  Config.BatchSize = 96;
  Config.SupportMarginal = true;
  ir::OwningOpRef<ir::ModuleOp> Module =
      translateToHiSPN(Ctx, M, Config);
  ASSERT_TRUE(static_cast<bool>(Module));
  ASSERT_TRUE(succeeded(ir::verify(Module.get().getOperation())));

  ir::Operation *QueryOp = Module.get().getBody().front();
  ASSERT_TRUE(ir::isa_op<hispn::JointQueryOp>(QueryOp));
  hispn::JointQueryOp Query(QueryOp);
  EXPECT_EQ(Query.getNumFeatures(), 2u);
  EXPECT_EQ(Query.getBatchSize(), 96u);
  EXPECT_TRUE(Query.getSupportMarginal());
  EXPECT_TRUE(Query.getLogSpace());

  // The graph contains exactly the model's nodes plus the root marker.
  hispn::GraphOp Graph(Query.getGraph());
  EXPECT_EQ(Graph.getBody().size(), M.getNumNodes() + 1);
}

TEST(TranslationTest, SharedNodesTranslateOnce) {
  Model M(2);
  Node *Shared = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(1, 0.0, 1.0);
  Node *G2 = M.makeGaussian(1, 1.0, 1.0);
  Node *P0 = M.makeProduct({Shared, G1});
  Node *P1 = M.makeProduct({Shared, G2});
  M.setRoot(M.makeSum({P0, P1}, {0.5, 0.5}));

  ir::Context Ctx;
  ir::OwningOpRef<ir::ModuleOp> Module =
      translateToHiSPN(Ctx, M, QueryConfig());
  ASSERT_TRUE(static_cast<bool>(Module));
  hispn::JointQueryOp Query(Module.get().getBody().front());
  hispn::GraphOp Graph(Query.getGraph());
  unsigned NumGaussians = 0;
  for (ir::Operation *Op : Graph.getBody())
    if (ir::isa_op<hispn::GaussianOp>(Op))
      ++NumGaussians;
  EXPECT_EQ(NumGaussians, 3u); // not 4: the shared leaf is reused
}

TEST(TranslationTest, RejectsInvalidModel) {
  Model M(2);
  Node *G0 = M.makeGaussian(0, 0.0, 1.0);
  Node *G1 = M.makeGaussian(0, 1.0, 1.0);
  M.setRoot(M.makeProduct({G0, G1})); // not decomposable
  ir::Context Ctx;
  unsigned Errors = 0;
  Ctx.setDiagnosticHandler([&](const std::string &) { ++Errors; });
  ir::OwningOpRef<ir::ModuleOp> Module =
      translateToHiSPN(Ctx, M, QueryConfig());
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_GT(Errors, 0u);
}

} // namespace
