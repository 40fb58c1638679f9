//===- HiSPNTranslation.cpp - SPN model to HiSPN dialect translation ----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/HiSPNTranslation.h"

#include "dialects/hispn/HiSPNOps.h"
#include "support/Compiler.h"

#include <vector>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::spn;

OwningOpRef<ModuleOp>
spnc::spn::translateToHiSPN(Context &Ctx, const Model &TheModel,
                            const QueryConfig &Config) {
  hispn::registerHiSPNDialect(Ctx);

  std::string Message;
  if (!TheModel.validate(&Message)) {
    Ctx.emitError("invalid SPN model: " + Message);
    return {};
  }

  ModuleOp Module = ModuleOp::create(Ctx);
  OpBuilder Builder = OpBuilder::atBlockEnd(Ctx, &Module.getBody());

  // Features arrive as f64 evidence values (SPFlow uses float64 numpy
  // arrays); the abstract probability type defers the compute type.
  // The resolved query spells a marginal query one way, and MPE and
  // sampling always support marginalized (NaN) evidence: that is how
  // features are marked as to-be-completed (docs/queries.md).
  QueryConfig Query = resolveQuery(TheModel, Config);
  Type InputType = FloatType::getF64(Ctx);
  unsigned NumFeatures = TheModel.getNumFeatures();
  auto Create = [&]<typename OpTy>(OpTy) -> Operation * {
    return Builder
        .create<OpTy>(NumFeatures, InputType, Query.BatchSize,
                      Query.SupportMarginal, Query.LogSpace)
        .getOperation();
  };
  Operation *QueryOp =
      Query.Kind == QueryKind::Mpe      ? Create(hispn::MpeQueryOp())
      : Query.Kind == QueryKind::Sample ? Create(hispn::SampleQueryOp())
                                        : Create(hispn::JointQueryOp());
  Block &QueryBlock = QueryOp->getRegion(0).emplaceBlock();
  Builder.setInsertionPointToEnd(&QueryBlock);

  auto Graph =
      Builder.create<hispn::GraphOp>(TheModel.getNumFeatures());
  Block &GraphBlock = Graph->getRegion(0).emplaceBlock();
  for (unsigned I = 0; I < TheModel.getNumFeatures(); ++I)
    GraphBlock.addArgument(InputType);
  Builder.setInsertionPointToEnd(&GraphBlock);

  // Children-first translation; shared nodes map to one op result.
  // NextParam tracks the canonical parameter index of likelihood
  // queries; since this loop walks the same topological order as
  // merge::extractParams, assigning bases here and advancing by each
  // node's parameter count reproduces the extraction order exactly.
  // Node ids are dense, so the translation is indexed by id.
  std::vector<Value> Translated(TheModel.getNumNodes());
  std::vector<Value> Operands;
  bool Tagged = isLikelihood(Query.Kind);
  int64_t NextParam = 0;
  auto TagParams = [&](Operation *Op, int64_t Count) {
    if (!Tagged)
      return;
    Op->setAttr("param", IntAttr::get(Ctx, NextParam));
    NextParam += Count;
  };
  for (Node *Current : TheModel.topologicalOrder()) {
    Value Result;
    switch (Current->getKind()) {
    case NodeKind::Sum: {
      const auto *Sum = cast<SumNode>(Current);
      Operands.clear();
      for (Node *Child : Sum->getChildren())
        Operands.push_back(Translated[Child->getId()]);
      Result = Builder
                   .create<hispn::SumOp>(
                       std::span<const Value>(Operands), Sum->getWeights())
                   ->getResult(0);
      TagParams(Result.getDefiningOp(),
                static_cast<int64_t>(Sum->getNumChildren()));
      break;
    }
    case NodeKind::Product: {
      const auto *Product = cast<ProductNode>(Current);
      Operands.clear();
      for (Node *Child : Product->getChildren())
        Operands.push_back(Translated[Child->getId()]);
      Result = Builder
                   .create<hispn::ProductOp>(
                       std::span<const Value>(Operands))
                   ->getResult(0);
      break;
    }
    case NodeKind::Histogram: {
      const auto *Leaf = cast<HistogramLeaf>(Current);
      Result = Builder
                   .create<hispn::HistogramOp>(
                       GraphBlock.getArgument(Leaf->getFeatureIndex()),
                       Leaf->getFlatBuckets())
                   ->getResult(0);
      TagParams(Result.getDefiningOp(),
                static_cast<int64_t>(Leaf->getBuckets().size()));
      break;
    }
    case NodeKind::Categorical: {
      const auto *Leaf = cast<CategoricalLeaf>(Current);
      Result = Builder
                   .create<hispn::CategoricalOp>(
                       GraphBlock.getArgument(Leaf->getFeatureIndex()),
                       Leaf->getProbabilities())
                   ->getResult(0);
      TagParams(Result.getDefiningOp(),
                static_cast<int64_t>(Leaf->getProbabilities().size()));
      break;
    }
    case NodeKind::Gaussian: {
      const auto *Leaf = cast<GaussianLeaf>(Current);
      Result = Builder
                   .create<hispn::GaussianOp>(
                       GraphBlock.getArgument(Leaf->getFeatureIndex()),
                       Leaf->getMean(), Leaf->getStdDev())
                   ->getResult(0);
      TagParams(Result.getDefiningOp(), 2);
      break;
    }
    }
    Translated[Current->getId()] = Result;
  }

  Builder.create<hispn::RootOp>(Translated[TheModel.getRoot()->getId()]);
  return OwningOpRef<ModuleOp>(Module);
}
