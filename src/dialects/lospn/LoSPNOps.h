//===- LoSPNOps.h - LoSPN dialect operations (paper Table II) --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LoSPN dialect (paper §III-B): the lowering target for HiSPN,
/// representing the actual computation of a query. A query on a batch of
/// inputs is a `Kernel` comprising one or more `Tasks`; a task applies its
/// body to every sample of the batch. Arithmetic is binary (weighted sums
/// are decomposed into mul+add), and the `!lo_spn.log<T>` type requests
/// log-space computation.
///
/// Batch containers use the tensor type right after lowering from HiSPN
/// (value semantics ease reasoning across tasks) and the memref type after
/// bufferization (paper §IV-A5):
///
///   tensor form:  %out = lo_spn.task(%in : tensor)   { ... batch_extract /
///                 batch_collect ... }
///   memref form:  lo_spn.task(%in, %out : memref)    { ... batch_read /
///                 batch_write ... }
///
/// Intermediate buffers in memref form are created by `lo_spn.alloc` and
/// released by `lo_spn.dealloc`.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_DIALECTS_LOSPN_LOSPNOPS_H
#define SPNC_DIALECTS_LOSPN_LOSPNOPS_H

#include "ir/BuiltinOps.h"
#include "ir/OpDefinition.h"
#include "ir/PatternMatch.h"

#include <optional>

namespace spnc {
namespace lospn {

/// The log-space computation type `!lo_spn.log<T>`: values are stored as
/// log-probabilities in the underlying float type, and the lowering emits
/// log-space arithmetic (mul -> add, add -> logsumexp).
class LogType : public ir::Type {
public:
  using ir::Type::Type;
  static LogType get(ir::Context &Ctx, ir::Type ElementType);
  ir::Type getElementType() const { return ir::Type(getImpl()->Element); }
  static bool classof(ir::Type T) {
    return T && T.getKind() == ir::TypeKind::Log;
  }
};

/// True if \p T is a log-space type.
inline bool isLogSpace(ir::Type T) { return T.isa<LogType>(); }

/// Returns the raw float type used to store values of computation type
/// \p T (identity for float types).
ir::Type getStorageType(ir::Type T);

/// Registers the LoSPN dialect with a context (idempotent). Also installs
/// the dialect's constant materializer.
void registerLoSPNDialect(ir::Context &Ctx);

//===----------------------------------------------------------------------===//
// Structure ops
//===----------------------------------------------------------------------===//

/// Function-like entry point for a compiled query (paper Table II).
/// Tensor form: block args are the input tensors, the terminating
/// `lo_spn.return` yields the result tensors. Memref form: block args are
/// input memrefs followed by output memrefs (split by the numInputs
/// attribute) and the return has no operands.
class KernelOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.kernel"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::string_view Name, unsigned NumInputs);

  std::string_view getKernelName() const {
    return TheOp->getAttr("sym_name").cast<ir::StringAttr>().getValue();
  }
  unsigned getNumInputs() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numInputs"));
  }
  ir::Block &getBody() { return TheOp->getRegion(0).front(); }
  /// True once bufferization rewrote the kernel to memref form.
  bool isBufferized();

  LogicalResult verify();
};

/// A computational task: applies its body to every sample in a batch.
/// The first region block argument is the batch index; the remaining
/// block arguments mirror the operands (paper Fig. 3).
class TaskOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.task"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  /// Builds a task. \p ResultTypes are the produced tensors (tensor form;
  /// empty in memref form). \p NumInputs tells how many leading operands
  /// are inputs (the rest are output buffers in memref form).
  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Operands,
                    std::span<const ir::Type> ResultTypes,
                    unsigned BatchSize, unsigned NumInputs);

  unsigned getBatchSize() const {
    return static_cast<unsigned>(TheOp->getIntAttr("batchSize"));
  }
  unsigned getNumInputs() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numInputs"));
  }
  ir::Block &getBody() { return TheOp->getRegion(0).front(); }
  ir::Value getBatchIndex() { return getBody().getArgument(0); }
  /// Block argument mirroring operand \p OperandIdx.
  ir::Value getBodyArg(unsigned OperandIdx) {
    return getBody().getArgument(OperandIdx + 1);
  }

  LogicalResult verify();
};

/// Container for the per-sample arithmetic (paper Table II). Operands are
/// the scalar inputs (leaf evidence values); the single-block region
/// mirrors them as block arguments and yields the scalar results.
class BodyOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.body"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Operands,
                    std::span<const ir::Type> ResultTypes);

  ir::Block &getBody() { return TheOp->getRegion(0).front(); }

  LogicalResult verify();
};

/// Terminator yielding the results of a `lo_spn.body`.
class YieldOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.yield"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Values);
};

/// Terminator of a kernel body; yields result tensors in tensor form.
class ReturnOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.return"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Values);
};

//===----------------------------------------------------------------------===//
// Batch access ops
//===----------------------------------------------------------------------===//

/// Reads one feature of one sample from a tensor (tensor form).
/// `staticIndex` selects the feature; the operand index selects the
/// sample. With `transposed = true` the container layout is
/// [feature][sample] instead of [sample][feature].
class BatchExtractOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.batch_extract"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Batch, ir::Value DynamicIndex,
                    unsigned StaticIndex, bool Transposed);

  unsigned getStaticIndex() const {
    return static_cast<unsigned>(TheOp->getIntAttr("staticIndex"));
  }
  bool getTransposed() const { return TheOp->getBoolAttr("transposed"); }

  LogicalResult verify();
};

/// Reads one feature of one sample from a memref (memref form).
class BatchReadOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.batch_read"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value BatchMem, ir::Value DynamicIndex,
                    unsigned StaticIndex, bool Transposed);

  unsigned getStaticIndex() const {
    return static_cast<unsigned>(TheOp->getIntAttr("staticIndex"));
  }
  bool getTransposed() const { return TheOp->getBoolAttr("transposed"); }

  LogicalResult verify();
};

/// Terminator of a task body in tensor form: records the per-sample
/// result values that make up the task's tensor results. (In the paper's
/// Table II batch_collect itself produces the tensor; here the tensor is
/// the task result and batch_collect terminates the body, which keeps all
/// container values at task granularity.)
class BatchCollectOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.batch_collect"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value BatchIndex,
                    std::span<const ir::Value> ResultValues,
                    bool Transposed);

  bool getTransposed() const { return TheOp->getBoolAttr("transposed"); }
};

/// Stores per-sample result values to an output memref (memref form
/// terminator).
class BatchWriteOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.batch_write"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value BatchMem, ir::Value BatchIndex,
                    std::span<const ir::Value> ResultValues,
                    bool Transposed);

  bool getTransposed() const { return TheOp->getBoolAttr("transposed"); }

  LogicalResult verify();
};

//===----------------------------------------------------------------------===//
// Buffer management ops (memref form)
//===----------------------------------------------------------------------===//

/// Allocates an intermediate result buffer. The `deviceResident`
/// attribute, set by the GPU copy-elimination pass (paper §IV-C), keeps
/// the buffer on the device across task boundaries.
class AllocOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.alloc"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Type MemRefType);

  bool isDeviceResident() const {
    return TheOp->hasAttr("deviceResident");
  }

  LogicalResult verify();
};

/// Releases an intermediate result buffer.
class DeallocOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.dealloc"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value MemRef);
};

/// Copies one buffer into another (used before copy elimination).
class CopyOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.copy"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Source, ir::Value Destination);
};

//===----------------------------------------------------------------------===//
// Arithmetic ops
//===----------------------------------------------------------------------===//

/// SPN multiplication. On `!lo_spn.log<T>` the generated code is a plain
/// float addition (paper §III-B).
class MulOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.mul"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Lhs, ir::Value Rhs);

  LogicalResult verify();
  ir::Attribute fold(std::span<const ir::Attribute> Operands);
  static void getCanonicalizationPatterns(ir::PatternList &Patterns,
                                          ir::Context &Ctx);
};

/// SPN addition. On `!lo_spn.log<T>` the generated code computes
/// log(exp(a) + exp(b)) in a numerically stable way.
class AddOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.add"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Lhs, ir::Value Rhs);

  LogicalResult verify();
  ir::Attribute fold(std::span<const ir::Attribute> Operands);
  static void getCanonicalizationPatterns(ir::PatternList &Patterns,
                                          ir::Context &Ctx);
};

/// SPN maximum, the sum-combine of max-product (MPE) queries. Because
/// max is monotonic under log, the generated code is the same plain
/// float max in linear and log space.
class MaxOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.max"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Lhs, ir::Value Rhs);

  LogicalResult verify();
  ir::Attribute fold(std::span<const ir::Attribute> Operands);
};

/// Compile-time constant of a computation type. For log-space result
/// types the value attribute already stores the log of the probability.
class ConstantOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.constant"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;
  static constexpr bool kIsConstant = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    double Value, ir::Type ResultType);
  /// A sum weight tagged with its canonical parameter index \p Param
  /// (docs/merging.md) and, in log space, with \p Raw, the raw weight
  /// whose log \p Value is (the `weight` attribute, which the -O2 shared
  /// exponentials weigh with). One state holds every attribute, so the
  /// op is allocated once.
  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    double Value, ir::Type ResultType, int64_t Param,
                    std::optional<double> Raw);

  double getValue() const { return TheOp->getFloatAttr("value"); }

  LogicalResult verify();
};

//===----------------------------------------------------------------------===//
// Leaf ops
//===----------------------------------------------------------------------===//

/// Histogram leaf (memref of (lb, ub, p) triples, flattened). Computes
/// p(x) — or log p(x) for a log-space result type. With
/// `supportMarginal = true`, NaN evidence yields probability 1.
class HistogramOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.histogram"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Index, std::span<const double> FlatBuckets,
                    bool SupportMarginal, ir::Type ResultType);

  std::span<const double> getFlatBuckets() const {
    return TheOp->getAttr("buckets").cast<ir::DenseF64Attr>().getValues();
  }
  unsigned getBucketCount() const {
    return static_cast<unsigned>(TheOp->getIntAttr("bucketCount"));
  }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }

  LogicalResult verify();
};

/// Categorical leaf (probability table lookup).
class CategoricalOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.categorical"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Index,
                    std::span<const double> Probabilities,
                    bool SupportMarginal, ir::Type ResultType);

  std::span<const double> getProbabilities() const {
    return TheOp->getAttr("probabilities")
        .cast<ir::DenseF64Attr>()
        .getValues();
  }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }

  LogicalResult verify();
};

/// Gaussian leaf (probability density evaluation).
class GaussianOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "lo_spn.gaussian"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Evidence, double Mean, double StdDev,
                    bool SupportMarginal, ir::Type ResultType);

  double getMean() const { return TheOp->getFloatAttr("mean"); }
  double getStdDev() const { return TheOp->getFloatAttr("stddev"); }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }

  LogicalResult verify();
};

//===----------------------------------------------------------------------===//
// Reference semantics used by folding, interpreters and codegen
//===----------------------------------------------------------------------===//

/// log(exp(A) + exp(B)) computed stably; the single source of truth for
/// log-space addition across folding, the VM and the baselines.
double logSumExp(double A, double B);

/// Evaluates a histogram leaf in linear space.
double evalHistogram(std::span<const double> FlatBuckets, double Evidence);
/// Evaluates a categorical leaf in linear space.
double evalCategorical(std::span<const double> Probabilities,
                       double Evidence);
/// Evaluates a Gaussian PDF in linear space.
double evalGaussianPdf(double Mean, double StdDev, double Evidence);
/// Evaluates a Gaussian log-PDF.
double evalGaussianLogPdf(double Mean, double StdDev, double Evidence);

} // namespace lospn
} // namespace spnc

#endif // SPNC_DIALECTS_LOSPN_LOSPNOPS_H
