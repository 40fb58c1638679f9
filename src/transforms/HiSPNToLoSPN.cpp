//===- HiSPNToLoSPN.cpp - Lowering from HiSPN to LoSPN -----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers hi_spn.joint_query / hi_spn.mpe_query / hi_spn.sample_query
/// operations to lo_spn.kernel operations in tensor form (paper
/// §IV-A3). The lowering:
///  * gives the abstract probability type the resolved concrete width
///    (f32/f64, optionally wrapped in !lo_spn.log<>);
///  * decomposes variadic weighted sums into binary mul/add chains with
///    lo_spn.constant weights (log-weights in log-space);
///  * wraps the whole DAG into a single task whose body processes one
///    sample, reading features through lo_spn.batch_extract.
///
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"
#include "dialects/lospn/LoSPNOps.h"
#include "ir/ValueMap.h"
#include "transforms/Passes.h"

#include <cassert>
#include <cmath>
#include <optional>
#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::transforms;

namespace {

class HiSPNToLoSPNPass : public Pass {
public:
  explicit HiSPNToLoSPNPass(unsigned ComputeWidth)
      : ComputeWidth(ComputeWidth) {
    assert((ComputeWidth == 32 || ComputeWidth == 64) &&
           "compute width must be 32 or 64");
  }

  const char *getName() const override { return "lower-hispn-to-lospn"; }

  LogicalResult run(Operation *Module, Context &Ctx) override {
    lospn::registerLoSPNDialect(Ctx);
    std::vector<hispn::QueryOp> Queries;
    for (Operation *Op : cast_op<ModuleOp>(Module).getBody())
      if (hispn::QueryOp::classof(Op))
        Queries.push_back(hispn::QueryOp(Op));
    for (hispn::QueryOp Query : Queries)
      if (failed(lowerQuery(Query, Ctx)))
        return failure();
    return success();
  }

private:
  /// The concrete computation type: the resolved width, wrapped in
  /// !lo_spn.log<> for log-space queries.
  Type selectComputationType(hispn::QueryOp Query, Context &Ctx) {
    Type Storage = ComputeWidth == 64 ? Type(FloatType::getF64(Ctx))
                                      : Type(FloatType::getF32(Ctx));
    return Query.getLogSpace() ? Type(lospn::LogType::get(Ctx, Storage))
                               : Storage;
  }

  LogicalResult lowerQuery(hispn::QueryOp Query, Context &Ctx) {
    hispn::GraphOp Graph(Query.getGraph());
    Type ComputeTy = selectComputationType(Query, Ctx);
    Type InputTy = Query.getInputType();
    bool Marginal = Query.getSupportMarginal();
    // MPE replaces the sum-combine (lo_spn.max instead of lo_spn.add).
    bool MaxProduct = isa_op<hispn::MpeQueryOp>(Query.getOperation());
    bool Log = lospn::isLogSpace(ComputeTy);
    unsigned NumFeatures = Query.getNumFeatures();

    OpBuilder Builder(Ctx);
    Builder.setInsertionPoint(Query.getOperation());

    // Kernel with one input tensor [batch x features].
    auto Kernel = Builder.create<lospn::KernelOp>("spn_kernel", 1u);
    Block &KernelBlock = Kernel->getRegion(0).emplaceBlock();
    Value InputTensor = KernelBlock.addArgument(TensorType::get(
        Ctx, {TypeStorage::kDynamic, NumFeatures}, InputTy));

    // Single task producing the result tensor [1 x batch] (transposed).
    Builder.setInsertionPointToEnd(&KernelBlock);
    Type ResultTensorTy =
        TensorType::get(Ctx, {1, TypeStorage::kDynamic}, ComputeTy);
    Value TaskOperands[1] = {InputTensor};
    Type TaskResults[1] = {ResultTensorTy};
    auto Task = Builder.create<lospn::TaskOp>(
        std::span<const Value>(TaskOperands),
        std::span<const Type>(TaskResults), Query.getBatchSize(), 1u);
    Block &TaskBlock = Task->getRegion(0).emplaceBlock();
    Value BatchIndex = TaskBlock.addArgument(IndexType::get(Ctx));
    Value TensorArg = TaskBlock.addArgument(InputTensor.getType());

    Builder.setInsertionPointToEnd(&TaskBlock);

    // One batch_extract per feature actually used by a leaf.
    std::unordered_map<unsigned, Value> FeatureExtracts;
    std::vector<Value> BodyOperands;
    std::vector<unsigned> BodyFeatures;
    Graph.getBody(); // ensure region is materialized
    for (Operation *Op : Graph.getBody()) {
      if (Op->getNumOperands() == 0)
        continue;
      if (!isa_op<hispn::HistogramOp>(Op) &&
          !isa_op<hispn::CategoricalOp>(Op) &&
          !isa_op<hispn::GaussianOp>(Op))
        continue;
      Value Evidence = Op->getOperand(0);
      assert(Evidence.isBlockArgument() &&
             "leaf evidence must be a graph feature");
      unsigned Feature = Evidence.getIndex();
      if (FeatureExtracts.count(Feature))
        continue;
      auto Extract = Builder.create<lospn::BatchExtractOp>(
          TensorArg, BatchIndex, Feature, /*Transposed=*/false);
      FeatureExtracts.emplace(Feature, Extract->getResult(0));
      BodyOperands.push_back(Extract->getResult(0));
      BodyFeatures.push_back(Feature);
    }

    // Body op wrapping the arithmetic.
    Type BodyResults[1] = {ComputeTy};
    auto Body = Builder.create<lospn::BodyOp>(
        std::span<const Value>(BodyOperands),
        std::span<const Type>(BodyResults));
    Block &BodyBlock = Body->getRegion(0).emplaceBlock();
    std::unordered_map<unsigned, Value> FeatureArgs;
    for (size_t I = 0; I < BodyOperands.size(); ++I)
      FeatureArgs.emplace(BodyFeatures[I],
                          BodyBlock.addArgument(InputTy));

    Builder.setInsertionPointToEnd(&BodyBlock);

    // Translate the DAG children-first (the graph body is already in
    // def-before-use order).
    ValueMap<Value> Lowered;
    Value RootValue;
    for (Operation *Op : Graph.getBody()) {
      if (hispn::RootOp Root = dyn_cast_op<hispn::RootOp>(Op)) {
        RootValue = Lowered.at(Root.getRootValue().getImpl());
        continue;
      }
      // Likelihood queries: leaf ops inherit their `param` base
      // attribute, each sum-weight constant gets `base + child index`.
      // The unique per-site attributes double as a CSE barrier — no two
      // tagged ops can be deduplicated, keeping the program shape
      // independent of the parameter values (docs/merging.md).
      Attribute ParamAttr = Op->getAttr("param");
      Value Result;
      if (auto Leaf = dyn_cast_op<hispn::HistogramOp>(Op)) {
        Result = Builder
                     .create<lospn::HistogramOp>(
                         FeatureArgs.at(Op->getOperand(0).getIndex()),
                         Leaf.getFlatBuckets(), Marginal, ComputeTy)
                     ->getResult(0);
        if (ParamAttr)
          Result.getDefiningOp()->setAttr("param", ParamAttr);
      } else if (auto Leaf = dyn_cast_op<hispn::CategoricalOp>(Op)) {
        Result = Builder
                     .create<lospn::CategoricalOp>(
                         FeatureArgs.at(Op->getOperand(0).getIndex()),
                         Leaf.getProbabilities(), Marginal, ComputeTy)
                     ->getResult(0);
        if (ParamAttr)
          Result.getDefiningOp()->setAttr("param", ParamAttr);
      } else if (auto Leaf = dyn_cast_op<hispn::GaussianOp>(Op)) {
        Result = Builder
                     .create<lospn::GaussianOp>(
                         FeatureArgs.at(Op->getOperand(0).getIndex()),
                         Leaf.getMean(), Leaf.getStdDev(), Marginal,
                         ComputeTy)
                     ->getResult(0);
        if (ParamAttr)
          Result.getDefiningOp()->setAttr("param", ParamAttr);
      } else if (isa_op<hispn::ProductOp>(Op)) {
        Result = Lowered.at(Op->getOperand(0).getImpl());
        for (unsigned I = 1; I < Op->getNumOperands(); ++I) {
          Value Rhs = Lowered.at(Op->getOperand(I).getImpl());
          Result =
              Builder.create<lospn::MulOp>(Result, Rhs)->getResult(0);
        }
      } else if (auto Sum = dyn_cast_op<hispn::SumOp>(Op)) {
        // Weighted sum decomposition: sum_i w_i * x_i as a chain of
        // binary mul/add (paper §III-B). MPE queries combine the
        // weighted terms with max instead (max-product); the
        // left-associative chain is what makes argmax ties resolve to
        // the lowest child index during traceback.
        std::span<const double> Weights = Sum.getWeights();
        int64_t ParamBase =
            ParamAttr ? ParamAttr.cast<IntAttr>().getValue() : -1;
        Value Acc;
        for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
          double Weight = Log ? std::log(Weights[I]) : Weights[I];
          Value Child = Lowered.at(Op->getOperand(I).getImpl());
          // A tagged log-weight carries its raw weight too: the -O2
          // shared exponentials weigh linear terms, and the log does not
          // round-trip through exp.
          Value WeightConst =
              (ParamBase < 0
                   ? Builder.create<lospn::ConstantOp>(Weight, ComputeTy)
                   : Builder.create<lospn::ConstantOp>(
                         Weight, ComputeTy, ParamBase + I,
                         Log ? std::optional<double>(Weights[I])
                             : std::nullopt))
                  ->getResult(0);
          Value Term =
              Builder.create<lospn::MulOp>(Child, WeightConst)
                  ->getResult(0);
          if (!Acc)
            Acc = Term;
          else if (MaxProduct)
            Acc = Builder.create<lospn::MaxOp>(Acc, Term)->getResult(0);
          else
            Acc = Builder.create<lospn::AddOp>(Acc, Term)->getResult(0);
        }
        Result = Acc;
      } else {
        Ctx.emitError("unexpected op in hi_spn.graph: " + Op->getName());
        return failure();
      }
      Lowered[Op->getResult(0).getImpl()] = Result;
    }
    if (!RootValue) {
      Ctx.emitError("graph has no root value");
      return failure();
    }
    Value Yielded[1] = {RootValue};
    Builder.create<lospn::YieldOp>(std::span<const Value>(Yielded));

    // Task terminator: collect the body result for this sample.
    Builder.setInsertionPointToEnd(&TaskBlock);
    Value Collected[1] = {Body->getResult(0)};
    Builder.create<lospn::BatchCollectOp>(
        BatchIndex, std::span<const Value>(Collected), /*Transposed=*/true);

    // Kernel terminator returns the task's result tensor.
    Builder.setInsertionPointToEnd(&KernelBlock);
    Value Returned[1] = {Task->getResult(0)};
    Builder.create<lospn::ReturnOp>(std::span<const Value>(Returned));

    // The query op is fully lowered; remove it.
    Query->erase();
    return success();
  }

  unsigned ComputeWidth;
};

} // namespace

std::unique_ptr<Pass>
spnc::transforms::createHiSPNToLoSPNLoweringPass(unsigned ComputeWidth) {
  return std::make_unique<HiSPNToLoSPNPass>(ComputeWidth);
}
