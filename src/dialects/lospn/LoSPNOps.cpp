//===- LoSPNOps.cpp - LoSPN dialect operations -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "dialects/lospn/LoSPNOps.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::lospn;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

LogType LogType::get(Context &Ctx, Type ElementType) {
  assert(ElementType.isFloat() && "log type requires a float element type");
  TypeStorage Proto;
  Proto.Kind = TypeKind::Log;
  Proto.Element = ElementType.getImpl();
  return LogType(Ctx.uniqueType(std::move(Proto)));
}

Type spnc::lospn::getStorageType(Type T) {
  if (LogType Log = T.dyn_cast<LogType>())
    return Log.getElementType();
  return T;
}

//===----------------------------------------------------------------------===//
// Reference semantics
//===----------------------------------------------------------------------===//

double spnc::lospn::logSumExp(double A, double B) {
  if (A == -std::numeric_limits<double>::infinity())
    return B;
  if (B == -std::numeric_limits<double>::infinity())
    return A;
  double Max = std::max(A, B);
  double Min = std::min(A, B);
  return Max + std::log1p(std::exp(Min - Max));
}

double spnc::lospn::evalHistogram(std::span<const double> FlatBuckets,
                                  double Evidence) {
  for (size_t I = 0; I + 2 < FlatBuckets.size(); I += 3)
    if (Evidence >= FlatBuckets[I] && Evidence < FlatBuckets[I + 1])
      return FlatBuckets[I + 2];
  return 0.0;
}

double spnc::lospn::evalCategorical(std::span<const double> Probabilities,
                                    double Evidence) {
  auto Index = static_cast<long long>(Evidence);
  if (Index < 0 || static_cast<size_t>(Index) >= Probabilities.size())
    return 0.0;
  return Probabilities[static_cast<size_t>(Index)];
}

double spnc::lospn::evalGaussianPdf(double Mean, double StdDev,
                                    double Evidence) {
  const double InvSqrt2Pi = 0.39894228040143267794;
  double Normalized = (Evidence - Mean) / StdDev;
  return (InvSqrt2Pi / StdDev) * std::exp(-0.5 * Normalized * Normalized);
}

double spnc::lospn::evalGaussianLogPdf(double Mean, double StdDev,
                                       double Evidence) {
  const double LogSqrt2Pi = 0.91893853320467274178;
  double Normalized = (Evidence - Mean) / StdDev;
  return -0.5 * Normalized * Normalized - std::log(StdDev) - LogSqrt2Pi;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

static LogicalResult emitOpError(OpView Op, const std::string &Message) {
  Op.getContext().emitError(
      formatString("'%s': %s", Op->getName().c_str(), Message.c_str()));
  return failure();
}

static bool isContainer(Type T) {
  return T.isa<TensorType>() || T.isa<MemRefType>();
}

//===----------------------------------------------------------------------===//
// KernelOp
//===----------------------------------------------------------------------===//

void KernelOp::build(OpBuilder &Builder, OperationState &State,
                     std::string_view Name, unsigned NumInputs) {
  Context &Ctx = Builder.getContext();
  State.addAttribute("sym_name", StringAttr::get(Ctx, Name));
  State.addAttribute("numInputs", IntAttr::get(Ctx, NumInputs));
  State.addRegion();
}

bool KernelOp::isBufferized() {
  Block &Body = getBody();
  for (unsigned I = 0; I < Body.getNumArguments(); ++I)
    if (Body.getArgument(I).getType().isa<MemRefType>())
      return true;
  return false;
}

LogicalResult KernelOp::verify() {
  if (TheOp->getNumRegions() != 1 || TheOp->getRegion(0).size() != 1)
    return emitOpError(*this, "requires a single-block region");
  Block &Body = getBody();
  if (getNumInputs() > Body.getNumArguments())
    return emitOpError(*this, "numInputs exceeds block argument count");
  for (unsigned I = 0; I < Body.getNumArguments(); ++I)
    if (!isContainer(Body.getArgument(I).getType()))
      return emitOpError(
          *this, "kernel arguments must be tensors or memrefs");
  Operation *Terminator = Body.getTerminator();
  if (!Terminator || !isa_op<ReturnOp>(Terminator))
    return emitOpError(*this, "body must be terminated by lo_spn.return");
  return success();
}

//===----------------------------------------------------------------------===//
// TaskOp
//===----------------------------------------------------------------------===//

void TaskOp::build(OpBuilder &Builder, OperationState &State,
                   std::span<const Value> Operands,
                   std::span<const Type> ResultTypes, unsigned BatchSize,
                   unsigned NumInputs) {
  Context &Ctx = Builder.getContext();
  State.addOperands(Operands);
  for (Type Ty : ResultTypes)
    State.addResultType(Ty);
  State.addAttribute("batchSize", IntAttr::get(Ctx, BatchSize));
  State.addAttribute("numInputs", IntAttr::get(Ctx, NumInputs));
  State.addRegion();
}

LogicalResult TaskOp::verify() {
  if (TheOp->getNumRegions() != 1 || TheOp->getRegion(0).size() != 1)
    return emitOpError(*this, "requires a single-block region");
  for (unsigned I = 0; I < TheOp->getNumOperands(); ++I)
    if (!isContainer(TheOp->getOperand(I).getType()))
      return emitOpError(*this,
                         "task operands must be tensors or memrefs");
  if (getNumInputs() > TheOp->getNumOperands())
    return emitOpError(*this, "numInputs exceeds operand count");
  Block &Body = getBody();
  if (Body.getNumArguments() != TheOp->getNumOperands() + 1)
    return emitOpError(
        *this,
        "body must have one batch-index argument plus one argument per "
        "operand");
  if (!Body.getArgument(0).getType().isa<IndexType>())
    return emitOpError(*this, "first body argument must be the batch index");
  for (unsigned I = 0; I < TheOp->getNumOperands(); ++I)
    if (Body.getArgument(I + 1).getType() !=
        TheOp->getOperand(I).getType())
      return emitOpError(
          *this, formatString("body argument %u must mirror operand type", I + 1));
  return success();
}

//===----------------------------------------------------------------------===//
// BodyOp
//===----------------------------------------------------------------------===//

void BodyOp::build(OpBuilder &, OperationState &State,
                   std::span<const Value> Operands,
                   std::span<const Type> ResultTypes) {
  State.addOperands(Operands);
  for (Type Ty : ResultTypes)
    State.addResultType(Ty);
  State.addRegion();
}

LogicalResult BodyOp::verify() {
  if (TheOp->getNumRegions() != 1 || TheOp->getRegion(0).size() != 1)
    return emitOpError(*this, "requires a single-block region");
  Block &Body = TheOp->getRegion(0).front();
  if (Body.getNumArguments() != TheOp->getNumOperands())
    return emitOpError(*this, "block arguments must mirror the operands");
  for (unsigned I = 0; I < TheOp->getNumOperands(); ++I)
    if (Body.getArgument(I).getType() != TheOp->getOperand(I).getType())
      return emitOpError(
          *this, formatString("block argument %u type mismatch", I));
  Operation *Terminator = Body.getTerminator();
  if (!Terminator || !isa_op<YieldOp>(Terminator))
    return emitOpError(*this, "body must be terminated by lo_spn.yield");
  if (Terminator->getNumOperands() != TheOp->getNumResults())
    return emitOpError(*this, "yield operand count must match results");
  for (unsigned I = 0; I < TheOp->getNumResults(); ++I)
    if (Terminator->getOperand(I).getType() !=
        TheOp->getResult(I).getType())
      return emitOpError(*this,
                         formatString("yield operand %u type mismatch", I));
  return success();
}

//===----------------------------------------------------------------------===//
// Terminators
//===----------------------------------------------------------------------===//

void YieldOp::build(OpBuilder &, OperationState &State,
                    std::span<const Value> Values) {
  State.addOperands(Values);
}

void ReturnOp::build(OpBuilder &, OperationState &State,
                     std::span<const Value> Values) {
  State.addOperands(Values);
}

//===----------------------------------------------------------------------===//
// Batch access
//===----------------------------------------------------------------------===//

void BatchExtractOp::build(OpBuilder &Builder, OperationState &State,
                           Value Batch, Value DynamicIndex,
                           unsigned StaticIndex, bool Transposed) {
  Context &Ctx = Builder.getContext();
  State.addOperand(Batch);
  State.addOperand(DynamicIndex);
  State.addAttribute("staticIndex", IntAttr::get(Ctx, StaticIndex));
  State.addAttribute("transposed", BoolAttr::get(Ctx, Transposed));
  State.addResultType(Batch.getType().cast<TensorType>().getElementType());
}

LogicalResult BatchExtractOp::verify() {
  if (TheOp->getNumOperands() != 2 ||
      !TheOp->getOperand(0).getType().isa<TensorType>() ||
      !TheOp->getOperand(1).getType().isa<IndexType>())
    return emitOpError(*this, "requires (tensor, index) operands");
  if (TheOp->getResult(0).getType() !=
      TheOp->getOperand(0).getType().cast<TensorType>().getElementType())
    return emitOpError(*this, "result must be the tensor element type");
  return success();
}

void BatchReadOp::build(OpBuilder &Builder, OperationState &State,
                        Value BatchMem, Value DynamicIndex,
                        unsigned StaticIndex, bool Transposed) {
  Context &Ctx = Builder.getContext();
  State.addOperand(BatchMem);
  State.addOperand(DynamicIndex);
  State.addAttribute("staticIndex", IntAttr::get(Ctx, StaticIndex));
  State.addAttribute("transposed", BoolAttr::get(Ctx, Transposed));
  State.addResultType(
      BatchMem.getType().cast<MemRefType>().getElementType());
}

LogicalResult BatchReadOp::verify() {
  if (TheOp->getNumOperands() != 2 ||
      !TheOp->getOperand(0).getType().isa<MemRefType>() ||
      !TheOp->getOperand(1).getType().isa<IndexType>())
    return emitOpError(*this, "requires (memref, index) operands");
  if (TheOp->getResult(0).getType() !=
      TheOp->getOperand(0).getType().cast<MemRefType>().getElementType())
    return emitOpError(*this, "result must be the memref element type");
  return success();
}

void BatchCollectOp::build(OpBuilder &Builder, OperationState &State,
                           Value BatchIndex,
                           std::span<const Value> ResultValues,
                           bool Transposed) {
  State.addOperand(BatchIndex);
  State.addOperands(ResultValues);
  State.addAttribute("transposed",
                     BoolAttr::get(Builder.getContext(), Transposed));
}

void BatchWriteOp::build(OpBuilder &Builder, OperationState &State,
                         Value BatchMem, Value BatchIndex,
                         std::span<const Value> ResultValues,
                         bool Transposed) {
  State.addOperand(BatchMem);
  State.addOperand(BatchIndex);
  State.addOperands(ResultValues);
  State.addAttribute("transposed",
                     BoolAttr::get(Builder.getContext(), Transposed));
}

LogicalResult BatchWriteOp::verify() {
  if (TheOp->getNumOperands() < 3)
    return emitOpError(*this,
                       "requires (memref, index, values...) operands");
  if (!TheOp->getOperand(0).getType().isa<MemRefType>() ||
      !TheOp->getOperand(1).getType().isa<IndexType>())
    return emitOpError(*this, "first operands must be (memref, index)");
  return success();
}

//===----------------------------------------------------------------------===//
// Buffer management
//===----------------------------------------------------------------------===//

void AllocOp::build(OpBuilder &, OperationState &State, Type MemRefTy) {
  State.addResultType(MemRefTy);
}

LogicalResult AllocOp::verify() {
  if (TheOp->getNumResults() != 1 ||
      !TheOp->getResult(0).getType().isa<MemRefType>())
    return emitOpError(*this, "must produce a single memref");
  return success();
}

void DeallocOp::build(OpBuilder &, OperationState &State, Value MemRef) {
  State.addOperand(MemRef);
}

void CopyOp::build(OpBuilder &, OperationState &State, Value Source,
                   Value Destination) {
  State.addOperand(Source);
  State.addOperand(Destination);
}

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

static LogicalResult verifyBinaryArith(OpView Op) {
  if (Op->getNumOperands() != 2 || Op->getNumResults() != 1)
    return emitOpError(Op, "requires two operands and one result");
  Type ResultTy = Op->getResult(0).getType();
  if (!ResultTy.isComputationType())
    return emitOpError(Op, "result must be a computation type");
  if (Op->getOperand(0).getType() != ResultTy ||
      Op->getOperand(1).getType() != ResultTy)
    return emitOpError(Op, "operand types must match the result type");
  return success();
}

void MulOp::build(OpBuilder &, OperationState &State, Value Lhs,
                  Value Rhs) {
  State.addOperand(Lhs);
  State.addOperand(Rhs);
  State.addResultType(Lhs.getType());
}

LogicalResult MulOp::verify() { return verifyBinaryArith(*this); }

Attribute MulOp::fold(std::span<const Attribute> Operands) {
  if (!Operands[0] || !Operands[1])
    return Attribute();
  double Lhs = Operands[0].cast<FloatAttr>().getValue();
  double Rhs = Operands[1].cast<FloatAttr>().getValue();
  bool Log = isLogSpace(TheOp->getResult(0).getType());
  // In log-space, multiplication of probabilities is addition of logs.
  double Result = Log ? Lhs + Rhs : Lhs * Rhs;
  return FloatAttr::get(getContext(), Result);
}

void AddOp::build(OpBuilder &, OperationState &State, Value Lhs,
                  Value Rhs) {
  State.addOperand(Lhs);
  State.addOperand(Rhs);
  State.addResultType(Lhs.getType());
}

LogicalResult AddOp::verify() { return verifyBinaryArith(*this); }

Attribute AddOp::fold(std::span<const Attribute> Operands) {
  if (!Operands[0] || !Operands[1])
    return Attribute();
  double Lhs = Operands[0].cast<FloatAttr>().getValue();
  double Rhs = Operands[1].cast<FloatAttr>().getValue();
  bool Log = isLogSpace(TheOp->getResult(0).getType());
  double Result = Log ? logSumExp(Lhs, Rhs) : Lhs + Rhs;
  return FloatAttr::get(getContext(), Result);
}

namespace {

/// Returns the constant value of \p V if defined by lo_spn.constant.
/// Parameter-tagged constants (merged-model compilation) never match:
/// the identity rewrites below depend on the constant's *value*, and a
/// shared kernel must keep the same shape for every weight assignment.
static bool matchConstant(Value V, double &Out) {
  Operation *Def = V.getDefiningOp();
  if (!Def || !isa_op<ConstantOp>(Def))
    return false;
  if (Def->hasAttr("param"))
    return false;
  Out = cast_op<ConstantOp>(Def).getValue();
  return true;
}

/// mul(x, 1) -> x in linear space; mul(x, 0-log) -> x in log space.
struct MulIdentity : public RewritePattern {
  MulIdentity() : RewritePattern(MulOp::getOperationName()) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    bool Log = isLogSpace(Op->getResult(0).getType());
    double Identity = Log ? 0.0 : 1.0;
    for (unsigned I = 0; I < 2; ++I) {
      double Constant;
      if (matchConstant(Op->getOperand(I), Constant) &&
          Constant == Identity) {
        Rewriter.replaceOp(Op, Op->getOperand(1 - I));
        return success();
      }
    }
    return failure();
  }
};

/// add(x, 0) -> x in linear space; add(x, -inf) -> x in log space.
struct AddIdentity : public RewritePattern {
  AddIdentity() : RewritePattern(AddOp::getOperationName()) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    bool Log = isLogSpace(Op->getResult(0).getType());
    double Identity =
        Log ? -std::numeric_limits<double>::infinity() : 0.0;
    for (unsigned I = 0; I < 2; ++I) {
      double Constant;
      if (matchConstant(Op->getOperand(I), Constant) &&
          Constant == Identity) {
        Rewriter.replaceOp(Op, Op->getOperand(1 - I));
        return success();
      }
    }
    return failure();
  }
};

} // namespace

void MulOp::getCanonicalizationPatterns(PatternList &Patterns, Context &) {
  Patterns.push_back(std::make_unique<MulIdentity>());
}

void AddOp::getCanonicalizationPatterns(PatternList &Patterns, Context &) {
  Patterns.push_back(std::make_unique<AddIdentity>());
}

void MaxOp::build(OpBuilder &, OperationState &State, Value Lhs,
                  Value Rhs) {
  State.addOperand(Lhs);
  State.addOperand(Rhs);
  State.addResultType(Lhs.getType());
}

LogicalResult MaxOp::verify() { return verifyBinaryArith(*this); }

Attribute MaxOp::fold(std::span<const Attribute> Operands) {
  if (!Operands[0] || !Operands[1])
    return Attribute();
  double Lhs = Operands[0].cast<FloatAttr>().getValue();
  double Rhs = Operands[1].cast<FloatAttr>().getValue();
  // Max is monotonic under log, so both spaces fold identically.
  return FloatAttr::get(getContext(), Lhs >= Rhs ? Lhs : Rhs);
}

void ConstantOp::build(OpBuilder &Builder, OperationState &State,
                       double TheValue, Type ResultType) {
  State.addAttribute("value",
                     FloatAttr::get(Builder.getContext(), TheValue));
  State.addResultType(ResultType);
}

void ConstantOp::build(OpBuilder &Builder, OperationState &State,
                       double TheValue, Type ResultType, int64_t Param,
                       std::optional<double> Raw) {
  build(Builder, State, TheValue, ResultType);
  State.addAttribute("param", IntAttr::get(Builder.getContext(), Param));
  if (Raw)
    State.addAttribute("weight", FloatAttr::get(Builder.getContext(), *Raw));
}

LogicalResult ConstantOp::verify() {
  if (TheOp->getNumResults() != 1 || !TheOp->hasAttr("value"))
    return emitOpError(*this, "requires a value attribute and one result");
  return success();
}

//===----------------------------------------------------------------------===//
// Leaves
//===----------------------------------------------------------------------===//

static void addLeafCommon(OpBuilder &Builder, OperationState &State,
                          Value Evidence, bool SupportMarginal,
                          Type ResultType) {
  State.addOperand(Evidence);
  State.addAttribute("supportMarginal",
                     BoolAttr::get(Builder.getContext(), SupportMarginal));
  State.addResultType(ResultType);
}

static LogicalResult verifyLeafCommon(OpView Op) {
  if (Op->getNumOperands() != 1 || Op->getNumResults() != 1)
    return emitOpError(Op, "requires one evidence operand and one result");
  if (!Op->getOperand(0).getType().isFloat() &&
      !Op->getOperand(0).getType().isInteger())
    return emitOpError(Op, "evidence must be a float or integer");
  if (!Op->getResult(0).getType().isComputationType())
    return emitOpError(Op, "result must be a computation type");
  return success();
}

void HistogramOp::build(OpBuilder &Builder, OperationState &State,
                        Value Index, std::span<const double> FlatBuckets,
                        bool SupportMarginal, Type ResultType) {
  Context &Ctx = Builder.getContext();
  assert(FlatBuckets.size() % 3 == 0 &&
         "buckets must be triples of (lb, ub, p)");
  addLeafCommon(Builder, State, Index, SupportMarginal, ResultType);
  State.addAttribute("buckets", DenseF64Attr::get(Ctx, FlatBuckets));
  State.addAttribute("bucketCount",
                     IntAttr::get(Ctx, FlatBuckets.size() / 3));
}

LogicalResult HistogramOp::verify() {
  if (failed(verifyLeafCommon(*this)))
    return failure();
  Attribute Buckets = TheOp->getAttr("buckets");
  if (!Buckets || !Buckets.isa<DenseF64Attr>() ||
      Buckets.cast<DenseF64Attr>().size() % 3 != 0)
    return emitOpError(*this, "requires flattened (lb, ub, p) buckets");
  return success();
}

void CategoricalOp::build(OpBuilder &Builder, OperationState &State,
                          Value Index,
                          std::span<const double> Probabilities,
                          bool SupportMarginal, Type ResultType) {
  addLeafCommon(Builder, State, Index, SupportMarginal, ResultType);
  State.addAttribute(
      "probabilities",
      DenseF64Attr::get(Builder.getContext(), Probabilities));
}

LogicalResult CategoricalOp::verify() {
  if (failed(verifyLeafCommon(*this)))
    return failure();
  Attribute Probs = TheOp->getAttr("probabilities");
  if (!Probs || !Probs.isa<DenseF64Attr>() ||
      Probs.cast<DenseF64Attr>().size() == 0)
    return emitOpError(*this, "requires a non-empty probability table");
  return success();
}

void GaussianOp::build(OpBuilder &Builder, OperationState &State,
                       Value Evidence, double Mean, double StdDev,
                       bool SupportMarginal, Type ResultType) {
  Context &Ctx = Builder.getContext();
  addLeafCommon(Builder, State, Evidence, SupportMarginal, ResultType);
  State.addAttribute("mean", FloatAttr::get(Ctx, Mean));
  State.addAttribute("stddev", FloatAttr::get(Ctx, StdDev));
}

LogicalResult GaussianOp::verify() {
  if (failed(verifyLeafCommon(*this)))
    return failure();
  if (!TheOp->hasAttr("mean") || !TheOp->hasAttr("stddev"))
    return emitOpError(*this, "requires mean and stddev attributes");
  if (!(getStdDev() > 0.0))
    return emitOpError(*this, "stddev must be positive");
  return success();
}

//===----------------------------------------------------------------------===//
// Dialect registration
//===----------------------------------------------------------------------===//

void spnc::lospn::registerLoSPNDialect(Context &Ctx) {
  if (Ctx.isDialectLoaded("lo_spn"))
    return;
  Ctx.markDialectLoaded("lo_spn");
  registerBuiltinDialect(Ctx);
  registerOperation<KernelOp>(Ctx);
  registerOperation<TaskOp>(Ctx);
  registerOperation<BodyOp>(Ctx);
  registerOperation<YieldOp>(Ctx);
  registerOperation<ReturnOp>(Ctx);
  registerOperation<BatchExtractOp>(Ctx);
  registerOperation<BatchReadOp>(Ctx);
  registerOperation<BatchCollectOp>(Ctx);
  registerOperation<BatchWriteOp>(Ctx);
  registerOperation<AllocOp>(Ctx);
  registerOperation<DeallocOp>(Ctx);
  registerOperation<CopyOp>(Ctx);
  registerOperation<MulOp>(Ctx);
  registerOperation<AddOp>(Ctx);
  registerOperation<MaxOp>(Ctx);
  registerOperation<ConstantOp>(Ctx);
  registerOperation<HistogramOp>(Ctx);
  registerOperation<CategoricalOp>(Ctx);
  registerOperation<GaussianOp>(Ctx);

  Ctx.setConstantMaterializer(
      [](OpBuilder &Builder, Attribute TheValue, Type ResultType)
          -> Operation * {
        FloatAttr Float = TheValue.dyn_cast<FloatAttr>();
        if (!Float || !ResultType.isComputationType())
          return nullptr;
        return Builder
            .create<ConstantOp>(Float.getValue(), ResultType)
            .getOperation();
      });
}
