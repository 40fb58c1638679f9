//===- HiSPNTranslation.cpp - SPN model to HiSPN dialect translation ----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/HiSPNTranslation.h"

#include "dialects/hispn/HiSPNOps.h"
#include "support/Compiler.h"

#include <unordered_map>

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
  // MPE and sampling always support marginalized (NaN) evidence: that
  // is how features are marked as to-be-completed (docs/queries.md).
  Type InputType = FloatType::getF64(Ctx);
  unsigned NumFeatures = TheModel.getNumFeatures();
  bool Marginal = Config.SupportMarginal ||
                  Config.Kind == QueryKind::Marginal ||
                  Config.Kind == QueryKind::Mpe ||
                  Config.Kind == QueryKind::Sample;
  Operation *QueryOp = nullptr;
  switch (Config.Kind) {
  case QueryKind::Joint:
  case QueryKind::Marginal:
    QueryOp = Builder
                  .create<hispn::JointQueryOp>(NumFeatures, InputType,
                                               Config.BatchSize, Marginal,
                                               Config.LogSpace)
                  .getOperation();
    break;
  case QueryKind::Mpe:
    QueryOp = Builder
                  .create<hispn::MpeQueryOp>(NumFeatures, InputType,
                                             Config.BatchSize, Marginal,
                                             Config.LogSpace)
                  .getOperation();
    break;
  case QueryKind::Sample:
    QueryOp = Builder
                  .create<hispn::SampleQueryOp>(NumFeatures, InputType,
                                                Config.BatchSize, Marginal,
                                                Config.LogSpace)
                  .getOperation();
    break;
  }
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
  std::unordered_map<const Node *, Value> Translated;
  bool Tagged =
      Config.Kind == QueryKind::Joint || Config.Kind == QueryKind::Marginal;
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
      std::vector<Value> Operands;
      Operands.reserve(Sum->getNumChildren());
      for (Node *Child : Sum->getChildren())
        Operands.push_back(Translated.at(Child));
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
      std::vector<Value> Operands;
      Operands.reserve(Product->getNumChildren());
      for (Node *Child : Product->getChildren())
        Operands.push_back(Translated.at(Child));
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
    Translated.emplace(Current, Result);
  }

  Builder.create<hispn::RootOp>(Translated.at(TheModel.getRoot()));
  return OwningOpRef<ModuleOp>(Module);
}
