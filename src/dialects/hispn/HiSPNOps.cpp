//===- HiSPNOps.cpp - HiSPN dialect operations ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"

#include "support/StringUtils.h"

#include <cmath>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::hispn;

ProbType ProbType::get(Context &Ctx) {
  TypeStorage Proto;
  Proto.Kind = TypeKind::Probability;
  return ProbType(Ctx.uniqueType(std::move(Proto)));
}

static LogicalResult emitOpError(OpView Op, const std::string &Message) {
  Op.getContext().emitError(formatString(
      "'%s': %s", Op->getName().c_str(), Message.c_str()));
  return failure();
}

/// Checks that all operands and the single result are !hi_spn.prob.
static LogicalResult verifyAllProb(OpView Op) {
  for (unsigned I = 0; I < Op->getNumOperands(); ++I)
    if (!Op->getOperand(I).getType().isa<ProbType>())
      return emitOpError(Op, formatString("operand %u is not !hi_spn.prob", I));
  if (Op->getNumResults() != 1 ||
      !Op->getResult(0).getType().isa<ProbType>())
    return emitOpError(Op, "must return a single !hi_spn.prob value");
  return success();
}

//===----------------------------------------------------------------------===//
// JointQueryOp
//===----------------------------------------------------------------------===//

void JointQueryOp::build(OpBuilder &Builder, OperationState &State,
                         unsigned NumFeatures, Type InputType,
                         unsigned BatchSize, bool SupportMarginal,
                         bool LogSpace) {
  Context &Ctx = Builder.getContext();
  State.addAttribute("numFeatures", IntAttr::get(Ctx, NumFeatures));
  State.addAttribute("inputType", TypeAttr::get(Ctx, InputType));
  State.addAttribute("batchSize", IntAttr::get(Ctx, BatchSize));
  State.addAttribute("supportMarginal", BoolAttr::get(Ctx, SupportMarginal));
  State.addAttribute("logSpace", BoolAttr::get(Ctx, LogSpace));
  State.addRegion();
}

Operation *JointQueryOp::getGraph() const {
  Region &TheRegion = TheOp->getRegion(0);
  if (TheRegion.empty() || TheRegion.front().empty())
    return nullptr;
  return TheRegion.front().front();
}

LogicalResult JointQueryOp::verify() {
  if (TheOp->getNumRegions() != 1)
    return emitOpError(*this, "requires exactly one region");
  if (!TheOp->hasAttr("numFeatures") || !TheOp->hasAttr("batchSize") ||
      !TheOp->hasAttr("inputType"))
    return emitOpError(*this,
                       "requires numFeatures, batchSize and inputType");
  Operation *Graph = getGraph();
  if (!Graph || !isa_op<GraphOp>(Graph))
    return emitOpError(*this, "region must contain a single hi_spn.graph");
  if (cast_op<GraphOp>(Graph).getNumFeatures() != getNumFeatures())
    return emitOpError(*this, "numFeatures mismatch with nested graph");
  return success();
}

//===----------------------------------------------------------------------===//
// MpeQueryOp / SampleQueryOp (same structure as JointQueryOp)
//===----------------------------------------------------------------------===//

/// Shared attribute setup of the three query ops.
static void buildQueryOp(OpBuilder &Builder, OperationState &State,
                         unsigned NumFeatures, Type InputType,
                         unsigned BatchSize, bool SupportMarginal,
                         bool LogSpace) {
  Context &Ctx = Builder.getContext();
  State.addAttribute("numFeatures", IntAttr::get(Ctx, NumFeatures));
  State.addAttribute("inputType", TypeAttr::get(Ctx, InputType));
  State.addAttribute("batchSize", IntAttr::get(Ctx, BatchSize));
  State.addAttribute("supportMarginal", BoolAttr::get(Ctx, SupportMarginal));
  State.addAttribute("logSpace", BoolAttr::get(Ctx, LogSpace));
  State.addRegion();
}

/// Shared structural verification of the three query ops.
static LogicalResult verifyQueryOp(OpView Op, Operation *Graph,
                                   unsigned NumFeatures) {
  if (Op->getNumRegions() != 1)
    return emitOpError(Op, "requires exactly one region");
  if (!Op->hasAttr("numFeatures") || !Op->hasAttr("batchSize") ||
      !Op->hasAttr("inputType"))
    return emitOpError(Op, "requires numFeatures, batchSize and inputType");
  if (!Graph || !isa_op<GraphOp>(Graph))
    return emitOpError(Op, "region must contain a single hi_spn.graph");
  if (cast_op<GraphOp>(Graph).getNumFeatures() != NumFeatures)
    return emitOpError(Op, "numFeatures mismatch with nested graph");
  return success();
}

void MpeQueryOp::build(OpBuilder &Builder, OperationState &State,
                       unsigned NumFeatures, Type InputType,
                       unsigned BatchSize, bool SupportMarginal,
                       bool LogSpace) {
  buildQueryOp(Builder, State, NumFeatures, InputType, BatchSize,
               SupportMarginal, LogSpace);
}

Operation *MpeQueryOp::getGraph() const {
  Region &TheRegion = TheOp->getRegion(0);
  if (TheRegion.empty() || TheRegion.front().empty())
    return nullptr;
  return TheRegion.front().front();
}

LogicalResult MpeQueryOp::verify() {
  return verifyQueryOp(*this, getGraph(), getNumFeatures());
}

void SampleQueryOp::build(OpBuilder &Builder, OperationState &State,
                          unsigned NumFeatures, Type InputType,
                          unsigned BatchSize, bool SupportMarginal,
                          bool LogSpace) {
  buildQueryOp(Builder, State, NumFeatures, InputType, BatchSize,
               SupportMarginal, LogSpace);
}

Operation *SampleQueryOp::getGraph() const {
  Region &TheRegion = TheOp->getRegion(0);
  if (TheRegion.empty() || TheRegion.front().empty())
    return nullptr;
  return TheRegion.front().front();
}

LogicalResult SampleQueryOp::verify() {
  return verifyQueryOp(*this, getGraph(), getNumFeatures());
}

//===----------------------------------------------------------------------===//
// GraphOp
//===----------------------------------------------------------------------===//

void GraphOp::build(OpBuilder &Builder, OperationState &State,
                    unsigned NumFeatures) {
  State.addAttribute("numFeatures",
                     IntAttr::get(Builder.getContext(), NumFeatures));
  State.addRegion();
}

Operation *GraphOp::getRoot() {
  Block &Body = getBody();
  return Body.empty() ? nullptr : Body.getTerminator();
}

LogicalResult GraphOp::verify() {
  if (TheOp->getNumRegions() != 1 || TheOp->getRegion(0).size() != 1)
    return emitOpError(*this, "requires a single-block region");
  Block &Body = TheOp->getRegion(0).front();
  if (Body.getNumArguments() != getNumFeatures())
    return emitOpError(
        *this, "block argument count must equal the numFeatures attribute");
  Operation *Terminator = Body.getTerminator();
  if (!Terminator || !isa_op<RootOp>(Terminator))
    return emitOpError(*this, "body must be terminated by hi_spn.root");
  return success();
}

//===----------------------------------------------------------------------===//
// RootOp
//===----------------------------------------------------------------------===//

void RootOp::build(OpBuilder &, OperationState &State, Value RootValue) {
  State.addOperand(RootValue);
}

LogicalResult RootOp::verify() {
  if (TheOp->getNumOperands() != 1 ||
      !TheOp->getOperand(0).getType().isa<ProbType>())
    return emitOpError(*this, "requires a single !hi_spn.prob operand");
  return success();
}

//===----------------------------------------------------------------------===//
// ProductOp
//===----------------------------------------------------------------------===//

void ProductOp::build(OpBuilder &Builder, OperationState &State,
                      std::span<const Value> Operands) {
  State.addOperands(Operands);
  State.addResultType(ProbType::get(Builder.getContext()));
}

LogicalResult ProductOp::verify() {
  if (TheOp->getNumOperands() == 0)
    return emitOpError(*this, "requires at least one operand");
  return verifyAllProb(*this);
}

namespace {
/// product(x) -> x: collapses single-input product nodes (the early
/// optimization mentioned in paper §IV-A2).
struct CollapseSingleInputProduct : public RewritePattern {
  CollapseSingleInputProduct()
      : RewritePattern(ProductOp::getOperationName()) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    if (Op->getNumOperands() != 1)
      return failure();
    Rewriter.replaceOp(Op, Op->getOperand(0));
    return success();
  }
};

/// sum(x) with weight 1.0 -> x. Skipped for parameter-tagged sums
/// (merged-model compilation): whether the pattern fires depends on the
/// weight *value*, and erasing the sum would drop its parameter site —
/// structurally-isomorphic models must keep identical program shapes.
struct CollapseSingleInputSum : public RewritePattern {
  CollapseSingleInputSum() : RewritePattern(SumOp::getOperationName()) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    if (Op->getNumOperands() != 1)
      return failure();
    if (Op->hasAttr("param"))
      return failure();
    SumOp Sum(Op);
    if (Sum.getWeights()[0] != 1.0)
      return failure();
    Rewriter.replaceOp(Op, Op->getOperand(0));
    return success();
  }
};

/// Flattens nested products: product(product(a, b), c) -> product(a, b, c).
/// Only fires when the inner product has no other users.
struct FlattenNestedProduct : public RewritePattern {
  FlattenNestedProduct() : RewritePattern(ProductOp::getOperationName()) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    bool HasNested = false;
    SmallVector<Value, 8> NewOperands;
    for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
      Value Operand = Op->getOperand(I);
      Operation *Def = Operand.getDefiningOp();
      if (Def && isa_op<ProductOp>(Def) && Operand.hasOneUse()) {
        HasNested = true;
        for (unsigned J = 0; J < Def->getNumOperands(); ++J)
          NewOperands.push_back(Def->getOperand(J));
      } else {
        NewOperands.push_back(Operand);
      }
    }
    if (!HasNested)
      return failure();
    Rewriter.setInsertionPoint(Op);
    ProductOp Flat = Rewriter.create<ProductOp>(
        std::span<const Value>(NewOperands));
    Rewriter.replaceOp(Op, Flat->getResult(0));
    return success();
  }
};
} // namespace

void ProductOp::getCanonicalizationPatterns(PatternList &Patterns,
                                            Context &) {
  Patterns.push_back(std::make_unique<CollapseSingleInputProduct>());
  Patterns.push_back(std::make_unique<FlattenNestedProduct>());
}

//===----------------------------------------------------------------------===//
// SumOp
//===----------------------------------------------------------------------===//

void SumOp::build(OpBuilder &Builder, OperationState &State,
                  std::span<const Value> Operands,
                  const std::vector<double> &Weights) {
  Context &Ctx = Builder.getContext();
  State.addOperands(Operands);
  State.addAttribute("weights", DenseF64Attr::get(Ctx, Weights));
  State.addResultType(ProbType::get(Ctx));
}

LogicalResult SumOp::verify() {
  if (TheOp->getNumOperands() == 0)
    return emitOpError(*this, "requires at least one operand");
  Attribute Weights = TheOp->getAttr("weights");
  if (!Weights || !Weights.isa<DenseF64Attr>())
    return emitOpError(*this, "requires a dense weights attribute");
  if (Weights.cast<DenseF64Attr>().size() != TheOp->getNumOperands())
    return emitOpError(*this,
                       "weight count must match the number of operands");
  for (double Weight : Weights.cast<DenseF64Attr>().getValues())
    if (!(Weight >= 0.0) || !std::isfinite(Weight))
      return emitOpError(*this, "weights must be non-negative and finite");
  return verifyAllProb(*this);
}

void SumOp::getCanonicalizationPatterns(PatternList &Patterns, Context &) {
  Patterns.push_back(std::make_unique<CollapseSingleInputSum>());
}

//===----------------------------------------------------------------------===//
// HistogramOp
//===----------------------------------------------------------------------===//

void HistogramOp::build(OpBuilder &Builder, OperationState &State,
                        Value Index,
                        const std::vector<double> &FlatBuckets) {
  Context &Ctx = Builder.getContext();
  assert(FlatBuckets.size() % 3 == 0 &&
         "buckets must be triples of (lb, ub, p)");
  State.addOperand(Index);
  State.addAttribute("buckets", DenseF64Attr::get(Ctx, FlatBuckets));
  State.addAttribute("bucketCount",
                     IntAttr::get(Ctx, FlatBuckets.size() / 3));
  State.addResultType(ProbType::get(Ctx));
}

LogicalResult HistogramOp::verify() {
  if (TheOp->getNumOperands() != 1)
    return emitOpError(*this, "requires a single index operand");
  Attribute Buckets = TheOp->getAttr("buckets");
  if (!Buckets || !Buckets.isa<DenseF64Attr>())
    return emitOpError(*this, "requires a dense buckets attribute");
  const auto &Values = Buckets.cast<DenseF64Attr>().getValues();
  if (Values.size() % 3 != 0 ||
      Values.size() / 3 != getBucketCount())
    return emitOpError(*this,
                       "buckets must be (lb, ub, p) triples matching "
                       "bucketCount");
  for (size_t I = 0; I < Values.size(); I += 3) {
    if (!(Values[I] < Values[I + 1]))
      return emitOpError(*this, "bucket bounds must satisfy lb < ub");
    if (!(Values[I + 2] >= 0.0))
      return emitOpError(*this, "bucket probability must be non-negative");
  }
  return success();
}

//===----------------------------------------------------------------------===//
// CategoricalOp
//===----------------------------------------------------------------------===//

void CategoricalOp::build(OpBuilder &Builder, OperationState &State,
                          Value Index,
                          const std::vector<double> &Probabilities) {
  Context &Ctx = Builder.getContext();
  State.addOperand(Index);
  State.addAttribute("probabilities",
                     DenseF64Attr::get(Ctx, Probabilities));
  State.addResultType(ProbType::get(Ctx));
}

LogicalResult CategoricalOp::verify() {
  if (TheOp->getNumOperands() != 1)
    return emitOpError(*this, "requires a single index operand");
  Attribute Probs = TheOp->getAttr("probabilities");
  if (!Probs || !Probs.isa<DenseF64Attr>() ||
      Probs.cast<DenseF64Attr>().size() == 0)
    return emitOpError(*this,
                       "requires a non-empty dense probabilities attribute");
  for (double P : Probs.cast<DenseF64Attr>().getValues())
    if (!(P >= 0.0) || !std::isfinite(P))
      return emitOpError(*this,
                         "probabilities must be non-negative and finite");
  return success();
}

//===----------------------------------------------------------------------===//
// GaussianOp
//===----------------------------------------------------------------------===//

void GaussianOp::build(OpBuilder &Builder, OperationState &State,
                       Value Evidence, double Mean, double StdDev) {
  Context &Ctx = Builder.getContext();
  State.addOperand(Evidence);
  State.addAttribute("mean", FloatAttr::get(Ctx, Mean));
  State.addAttribute("stddev", FloatAttr::get(Ctx, StdDev));
  State.addResultType(ProbType::get(Ctx));
}

LogicalResult GaussianOp::verify() {
  if (TheOp->getNumOperands() != 1)
    return emitOpError(*this, "requires a single evidence operand");
  if (!TheOp->hasAttr("mean") || !TheOp->hasAttr("stddev"))
    return emitOpError(*this, "requires mean and stddev attributes");
  if (!(getStdDev() > 0.0))
    return emitOpError(*this, "stddev must be positive");
  return success();
}

//===----------------------------------------------------------------------===//
// Dialect registration
//===----------------------------------------------------------------------===//

void spnc::hispn::registerHiSPNDialect(Context &Ctx) {
  if (Ctx.isDialectLoaded("hi_spn"))
    return;
  Ctx.markDialectLoaded("hi_spn");
  registerBuiltinDialect(Ctx);
  registerOperation<JointQueryOp>(Ctx);
  registerOperation<MpeQueryOp>(Ctx);
  registerOperation<SampleQueryOp>(Ctx);
  registerOperation<GraphOp>(Ctx);
  registerOperation<RootOp>(Ctx);
  registerOperation<ProductOp>(Ctx);
  registerOperation<SumOp>(Ctx);
  registerOperation<HistogramOp>(Ctx);
  registerOperation<CategoricalOp>(Ctx);
  registerOperation<GaussianOp>(Ctx);
}
