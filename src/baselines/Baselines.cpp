//===- Baselines.cpp - SPFlow and Tensorflow-style baseline executors ---------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"

#include "dialects/lospn/LoSPNOps.h"
#include "support/Compiler.h"
#include "support/Random.h"
#include "vm/Traceback.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace spnc;
using namespace spnc::baselines;
using namespace spnc::spn;

static std::vector<uint32_t> buildPositionMap(
    const Model &TheModel, const std::vector<Node *> &Order) {
  std::vector<uint32_t> PositionOf(TheModel.getNumNodes(), 0);
  for (size_t I = 0; I < Order.size(); ++I)
    PositionOf[Order[I]->getId()] = static_cast<uint32_t>(I);
  return PositionOf;
}

//===----------------------------------------------------------------------===//
// SPFlowInterpreter
//===----------------------------------------------------------------------===//

SPFlowInterpreter::SPFlowInterpreter(const Model &TheModel)
    : TheModel(TheModel), Order(TheModel.topologicalOrder()),
      PositionOf(buildPositionMap(TheModel, Order)) {}

void SPFlowInterpreter::execute(const double *Input, double *Output,
                                size_t NumSamples) const {
  const double NegInf = -std::numeric_limits<double>::infinity();
  unsigned NumFeatures = TheModel.getNumFeatures();
  std::vector<double> Values(Order.size());

  for (size_t S = 0; S < NumSamples; ++S) {
    const double *Sample = Input + S * NumFeatures;
    // Per-sample node-by-node walk with a kind dispatch at every node —
    // the structure of SPFlow's Python likelihood evaluation.
    for (size_t I = 0; I < Order.size(); ++I) {
      const Node *Current = Order[I];
      double LogValue = 0.0;
      switch (Current->getKind()) {
      case NodeKind::Sum: {
        const auto *Sum = cast<SumNode>(Current);
        LogValue = NegInf;
        const std::vector<double> &Weights = Sum->getWeights();
        for (size_t C = 0; C < Sum->getNumChildren(); ++C) {
          if (Weights[C] == 0.0)
            continue;
          double Term =
              std::log(Weights[C]) +
              Values[PositionOf[Sum->getChild(C)->getId()]];
          LogValue = lospn::logSumExp(LogValue, Term);
        }
        break;
      }
      case NodeKind::Product: {
        const auto *Product = cast<ProductNode>(Current);
        LogValue = 0.0;
        for (const Node *Child : Product->getChildren())
          LogValue += Values[PositionOf[Child->getId()]];
        break;
      }
      case NodeKind::Histogram: {
        const auto *Leaf = cast<HistogramLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        LogValue = NegInf;
        for (const HistogramBucket &Bucket : Leaf->getBuckets())
          if (X >= Bucket.Lb && X < Bucket.Ub) {
            LogValue = std::log(Bucket.P);
            break;
          }
        break;
      }
      case NodeKind::Categorical: {
        const auto *Leaf = cast<CategoricalLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        LogValue = std::log(
            lospn::evalCategorical(Leaf->getProbabilities(), X));
        break;
      }
      case NodeKind::Gaussian: {
        const auto *Leaf = cast<GaussianLeaf>(Current);
        double X = Sample[Leaf->getFeatureIndex()];
        if (std::isnan(X)) {
          LogValue = 0.0;
          break;
        }
        LogValue = lospn::evalGaussianLogPdf(Leaf->getMean(),
                                             Leaf->getStdDev(), X);
        break;
      }
      }
      Values[I] = LogValue;
    }
    Output[S] = Values[PositionOf[TheModel.getRoot()->getId()]];
  }
}

//===----------------------------------------------------------------------===//
// TfGraphExecutor
//===----------------------------------------------------------------------===//

TfGraphExecutor::TfGraphExecutor(const Model &TheModel)
    : TheModel(TheModel), Order(TheModel.topologicalOrder()),
      PositionOf(buildPositionMap(TheModel, Order)) {}

void TfGraphExecutor::execute(const double *Input, double *Output,
                              size_t NumSamples) const {
  const double NegInf = -std::numeric_limits<double>::infinity();
  unsigned NumFeatures = TheModel.getNumFeatures();

  // Op-at-a-time execution: every node owns a freshly allocated
  // whole-batch output tensor, like a Tensorflow graph where each SPN
  // node became an individual operation launched by the TF runtime
  // (paper §V-A2: "the graph is still broken down into individual
  // operations").
  std::vector<std::vector<double>> NodeOutputs(Order.size());

  for (size_t I = 0; I < Order.size(); ++I) {
    const Node *Current = Order[I];
    std::vector<double> Result(NumSamples);
    switch (Current->getKind()) {
    case NodeKind::Sum: {
      const auto *Sum = cast<SumNode>(Current);
      const std::vector<double> &Weights = Sum->getWeights();
      std::fill(Result.begin(), Result.end(), NegInf);
      for (size_t C = 0; C < Sum->getNumChildren(); ++C) {
        if (Weights[C] == 0.0)
          continue;
        double LogWeight = std::log(Weights[C]);
        const std::vector<double> &Child =
            NodeOutputs[PositionOf[Sum->getChild(C)->getId()]];
        for (size_t S = 0; S < NumSamples; ++S)
          Result[S] = lospn::logSumExp(Result[S], LogWeight + Child[S]);
      }
      break;
    }
    case NodeKind::Product: {
      const auto *Product = cast<ProductNode>(Current);
      std::fill(Result.begin(), Result.end(), 0.0);
      for (const Node *Child : Product->getChildren()) {
        const std::vector<double> &ChildOut =
            NodeOutputs[PositionOf[Child->getId()]];
        for (size_t S = 0; S < NumSamples; ++S)
          Result[S] += ChildOut[S];
      }
      break;
    }
    case NodeKind::Histogram: {
      const auto *Leaf = cast<HistogramLeaf>(Current);
      std::vector<double> Flat = Leaf->getFlatBuckets();
      for (size_t S = 0; S < NumSamples; ++S) {
        double X = Input[S * NumFeatures + Leaf->getFeatureIndex()];
        assert(!std::isnan(X) &&
               "TF translation does not support marginalization");
        Result[S] = std::log(lospn::evalHistogram(Flat, X));
      }
      break;
    }
    case NodeKind::Categorical: {
      const auto *Leaf = cast<CategoricalLeaf>(Current);
      for (size_t S = 0; S < NumSamples; ++S) {
        double X = Input[S * NumFeatures + Leaf->getFeatureIndex()];
        assert(!std::isnan(X) &&
               "TF translation does not support marginalization");
        Result[S] =
            std::log(lospn::evalCategorical(Leaf->getProbabilities(), X));
      }
      break;
    }
    case NodeKind::Gaussian: {
      const auto *Leaf = cast<GaussianLeaf>(Current);
      double Mean = Leaf->getMean();
      double StdDev = Leaf->getStdDev();
      for (size_t S = 0; S < NumSamples; ++S) {
        double X = Input[S * NumFeatures + Leaf->getFeatureIndex()];
        assert(!std::isnan(X) &&
               "TF translation does not support marginalization");
        Result[S] = lospn::evalGaussianLogPdf(Mean, StdDev, X);
      }
      break;
    }
    }
    NodeOutputs[I] = std::move(Result);
  }

  const std::vector<double> &RootOut =
      NodeOutputs[PositionOf[TheModel.getRoot()->getId()]];
  std::copy(RootOut.begin(), RootOut.end(), Output);
}

//===----------------------------------------------------------------------===//
// ExecutionEngine adapters
//===----------------------------------------------------------------------===//

InterpreterEngine::InterpreterEngine(const spn::Model &TheModel)
    : ExecutionEngine({runtime::kindBit(vm::QueryKind::Joint) |
                       runtime::kindBit(vm::QueryKind::Marginal) |
                       runtime::kindBit(vm::QueryKind::Mpe) |
                       runtime::kindBit(vm::QueryKind::Sample)}),
      TheModel(TheModel), Interpreter(TheModel),
      NumNodes(TheModel.computeStats().NumNodes) {}

bool InterpreterEngine::run(const runtime::RunRequest &Request,
                            runtime::ExecutionStats *Stats) const {
  return timedRun(Request, Stats, [&](runtime::ExecutionStats &) {
    size_t NumFeatures = TheModel.getNumFeatures();
    auto Evidence = [&](size_t S) {
      return std::span<const double>(Request.Input + S * NumFeatures,
                                     NumFeatures);
    };
    auto OutRow = [&](size_t S) {
      return std::span<double>(Request.Rows + S * NumFeatures, NumFeatures);
    };
    switch (Request.Kind) {
    case vm::QueryKind::Joint:
    case vm::QueryKind::Marginal:
      Interpreter.execute(Request.Input, Request.Output,
                          Request.NumSamples);
      return;
    case vm::QueryKind::Mpe:
      for (size_t S = 0; S < Request.NumSamples; ++S) {
        double LogProb = TheModel.evalMpe(Evidence(S), OutRow(S));
        if (Request.Output)
          Request.Output[S] = LogProb;
      }
      return;
    case vm::QueryKind::Sample:
      for (size_t S = 0; S < Request.NumSamples; ++S) {
        Rng R(vm::perSampleSeed(Request.Seed, S));
        TheModel.sampleAncestral(Evidence(S), OutRow(S), R);
      }
      return;
    }
  });
}

TfGraphEngine::TfGraphEngine(const spn::Model &TheModel)
    : ExecutionEngine({runtime::kindBit(vm::QueryKind::Joint)}),
      Executor(TheModel), NumNodes(TheModel.computeStats().NumNodes) {}

bool TfGraphEngine::run(const runtime::RunRequest &Request,
                        runtime::ExecutionStats *Stats) const {
  return timedRun(Request, Stats, [&](runtime::ExecutionStats &) {
    Executor.execute(Request.Input, Request.Output, Request.NumSamples);
  });
}
