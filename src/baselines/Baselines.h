//===- Baselines.h - SPFlow and Tensorflow-style baseline executors ----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two baselines the paper compares against (§V-A2):
///
///  * `SPFlowInterpreter` — the equivalent of SPFlow's Python inference:
///    a per-sample, node-by-node graph walk with dynamic dispatch at
///    every node. (Being C++, it is far faster than Python; absolute
///    speedups versus it are therefore smaller than the paper's 500-900x,
///    while the ordering of all execution modes is preserved — see
///    EXPERIMENTS.md.)
///  * `TfGraphExecutor` — the equivalent of SPFlow's translation to a
///    Tensorflow graph: op-at-a-time execution where every node processes
///    the entire batch into a freshly allocated buffer. Like the paper's
///    TF translation it does not support marginalized (NaN) evidence.
///
/// Both compute log-likelihoods in double precision, matching SPFlow.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BASELINES_BASELINES_H
#define SPNC_BASELINES_BASELINES_H

#include "frontend/Model.h"
#include "runtime/ExecutionEngine.h"

#include <cstddef>
#include <string>
#include <vector>

namespace spnc {
namespace baselines {

/// Per-sample interpreted inference (SPFlow-equivalent baseline).
class SPFlowInterpreter {
public:
  explicit SPFlowInterpreter(const spn::Model &TheModel);

  /// Computes log-likelihoods for \p NumSamples samples (row-major
  /// [sample][feature]). NaN evidence marginalizes a feature.
  void execute(const double *Input, double *Output,
               size_t NumSamples) const;

private:
  const spn::Model &TheModel;
  std::vector<spn::Node *> Order;
  /// Dense node-id -> position map for the value scratchpad.
  std::vector<uint32_t> PositionOf;
};

/// Op-at-a-time batched inference (Tensorflow-translation baseline).
class TfGraphExecutor {
public:
  explicit TfGraphExecutor(const spn::Model &TheModel);

  /// Computes log-likelihoods for a batch. Marginalized (NaN) evidence is
  /// unsupported, as in the paper's TF translation.
  void execute(const double *Input, double *Output,
               size_t NumSamples) const;

private:
  const spn::Model &TheModel;
  std::vector<spn::Node *> Order;
  std::vector<uint32_t> PositionOf;
};

//===----------------------------------------------------------------------===//
// ExecutionEngine adapters
//===----------------------------------------------------------------------===//

/// Presents the SPFlow-equivalent interpreter through the unified
/// runtime::ExecutionEngine interface, so baselines plug into the same
/// harnesses (and kernel cache) as compiled kernels. Serves joint,
/// marginal, MPE and sampling requests; it is the oracle every compiled
/// engine is differential-tested against. The adapted model must
/// outlive the engine.
class InterpreterEngine : public runtime::ExecutionEngine {
public:
  explicit InterpreterEngine(const spn::Model &TheModel);

  /// Joint/marginal requests run the per-sample interpreter. MPE uses
  /// the model's reference traceback (Model::evalMpe), sampling
  /// Model::sampleAncestral with the shared per-sample seeding contract
  /// (vm::perSampleSeed), so sample I depends only on (Seed, I).
  bool run(const runtime::RunRequest &Request,
           runtime::ExecutionStats *Stats = nullptr) const override;

  /// Shorthand for a joint request over \p NumSamples rows (NaN
  /// features are marginalized, as the interpreter always does).
  void execute(const double *Input, double *Output, size_t NumSamples,
               runtime::ExecutionStats *Stats = nullptr) const {
    run({.Input = Input, .Output = Output, .NumSamples = NumSamples},
        Stats);
  }

  /// The interpreter evaluates the model's own parameters: always -1.
  int32_t addParamTable(const double *, size_t) override { return -1; }

  /// Model-derived accounting: one work unit per SPN node evaluated
  /// per sample (there is no compiled program to count instructions
  /// from).
  runtime::EngineAccounting getAccounting() const override {
    runtime::EngineAccounting Accounting;
    Accounting.NumInstructions = NumNodes;
    Accounting.NumTasks = 1;
    return Accounting;
  }
  runtime::Target getTarget() const override {
    return runtime::Target::CPU;
  }
  std::string describe() const override {
    return "baseline: spflow-style interpreter";
  }

private:
  const spn::Model &TheModel;
  SPFlowInterpreter Interpreter;
  size_t NumNodes;
};

/// Presents the Tensorflow-translation baseline through the unified
/// runtime::ExecutionEngine interface. Serves joint requests only:
/// marginalized (NaN) evidence is unsupported, as in the paper's TF
/// translation. The adapted model must outlive the engine.
class TfGraphEngine : public runtime::ExecutionEngine {
public:
  explicit TfGraphEngine(const spn::Model &TheModel);

  bool run(const runtime::RunRequest &Request,
           runtime::ExecutionStats *Stats = nullptr) const override;

  /// The graph evaluates the model's own parameters: always -1.
  int32_t addParamTable(const double *, size_t) override { return -1; }

  /// Model-derived accounting: one whole-batch op per SPN node.
  runtime::EngineAccounting getAccounting() const override {
    runtime::EngineAccounting Accounting;
    Accounting.NumInstructions = NumNodes;
    Accounting.NumTasks = 1;
    return Accounting;
  }
  runtime::Target getTarget() const override {
    return runtime::Target::CPU;
  }
  std::string describe() const override {
    return "baseline: tensorflow-style graph executor";
  }

private:
  TfGraphExecutor Executor;
  size_t NumNodes;
};

} // namespace baselines
} // namespace spnc

#endif // SPNC_BASELINES_BASELINES_H
