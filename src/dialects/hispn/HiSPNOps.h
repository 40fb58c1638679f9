//===- HiSPNOps.h - HiSPN dialect operations (paper Table I) ---------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HiSPN dialect (paper §III-A): a high-level representation of a
/// probabilistic query over an SPN DAG, deliberately close to SPFlow's
/// model representation. The DAG nodes (sum / product / leaves) compute
/// values of the abstract `!hi_spn.prob` type, deferring the choice of the
/// concrete computation datatype to the lowering.
///
/// Structure of a query:
///   hi_spn.joint_query {numFeatures, batchSize, inputType,
///                       supportMarginal, logSpace} (
///     hi_spn.graph {numFeatures} (
///       ^bb(%f0: f64, ..., %fN: f64):
///         ... sum/product/leaf nodes ...
///         hi_spn.root %root
///     )
///   )
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_DIALECTS_HISPN_HISPNOPS_H
#define SPNC_DIALECTS_HISPN_HISPNOPS_H

#include "ir/BuiltinOps.h"
#include "ir/OpDefinition.h"
#include "ir/PatternMatch.h"

namespace spnc {
namespace hispn {

/// The abstract probability type `!hi_spn.prob` (paper §III-A): HiSPN
/// graphs compute probabilities without committing to f32/f64/log-space.
class ProbType : public ir::Type {
public:
  using ir::Type::Type;
  static ProbType get(ir::Context &Ctx);
  static bool classof(ir::Type T) {
    return T && T.getKind() == ir::TypeKind::Probability;
  }
};

/// Registers the HiSPN dialect with a context (idempotent).
void registerHiSPNDialect(ir::Context &Ctx);

//===----------------------------------------------------------------------===//
// Query and structure ops
//===----------------------------------------------------------------------===//

/// Top-level joint-probability query over one SPN graph. A marginal query
/// is a joint query with `supportMarginal = true`, where NaN evidence
/// marginalizes the corresponding feature (paper §V-A).
class JointQueryOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.joint_query"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    unsigned NumFeatures, ir::Type InputType,
                    unsigned BatchSize, bool SupportMarginal, bool LogSpace);

  unsigned getNumFeatures() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numFeatures"));
  }
  unsigned getBatchSize() const {
    return static_cast<unsigned>(TheOp->getIntAttr("batchSize"));
  }
  ir::Type getInputType() const {
    return TheOp->getAttr("inputType").cast<ir::TypeAttr>().getValue();
  }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }
  /// True if the lowering shall compute in log-space.
  bool getLogSpace() const { return TheOp->getBoolAttr("logSpace"); }

  /// The single hi_spn.graph op nested in the query region.
  ir::Operation *getGraph() const;

  LogicalResult verify();
};

/// Top-level MPE (max-product) query over one SPN graph: the lowering
/// replaces sum-combines with maxes, and the compiled kernel returns an
/// argmax-completed assignment plus its max-product (log-)probability.
/// NaN evidence marks the features to complete (docs/queries.md).
class MpeQueryOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.mpe_query"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    unsigned NumFeatures, ir::Type InputType,
                    unsigned BatchSize, bool SupportMarginal, bool LogSpace);

  unsigned getNumFeatures() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numFeatures"));
  }
  unsigned getBatchSize() const {
    return static_cast<unsigned>(TheOp->getIntAttr("batchSize"));
  }
  ir::Type getInputType() const {
    return TheOp->getAttr("inputType").cast<ir::TypeAttr>().getValue();
  }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }
  bool getLogSpace() const { return TheOp->getBoolAttr("logSpace"); }

  /// The single hi_spn.graph op nested in the query region.
  ir::Operation *getGraph() const;

  LogicalResult verify();
};

/// Top-level ancestral-sampling query over one SPN graph: the upward
/// pass is the marginal evidence program, and the compiled kernel draws
/// seeded i.i.d. samples conditioned on the non-NaN evidence.
class SampleQueryOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.sample_query"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    unsigned NumFeatures, ir::Type InputType,
                    unsigned BatchSize, bool SupportMarginal, bool LogSpace);

  unsigned getNumFeatures() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numFeatures"));
  }
  unsigned getBatchSize() const {
    return static_cast<unsigned>(TheOp->getIntAttr("batchSize"));
  }
  ir::Type getInputType() const {
    return TheOp->getAttr("inputType").cast<ir::TypeAttr>().getValue();
  }
  bool getSupportMarginal() const {
    return TheOp->getBoolAttr("supportMarginal");
  }
  bool getLogSpace() const { return TheOp->getBoolAttr("logSpace"); }

  /// The single hi_spn.graph op nested in the query region.
  ir::Operation *getGraph() const;

  LogicalResult verify();
};

/// Container for the SPN DAG. Block arguments are the feature values.
class GraphOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.graph"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    unsigned NumFeatures);

  unsigned getNumFeatures() const {
    return static_cast<unsigned>(TheOp->getIntAttr("numFeatures"));
  }
  ir::Block &getBody() { return TheOp->getRegion(0).front(); }
  ir::Value getFeature(unsigned Index) {
    return getBody().getArgument(Index);
  }
  /// The root marker terminating the graph body.
  ir::Operation *getRoot();

  LogicalResult verify();
};

/// Marks the root of the SPN DAG; terminator of the graph body.
class RootOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.root"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = true;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value RootValue);

  ir::Value getRootValue() const { return TheOp->getOperand(0); }

  LogicalResult verify();
};

//===----------------------------------------------------------------------===//
// Inner nodes
//===----------------------------------------------------------------------===//

/// N-ary product node: factorization of independent scopes.
class ProductOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.product"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Operands);

  LogicalResult verify();
  static void getCanonicalizationPatterns(ir::PatternList &Patterns,
                                          ir::Context &Ctx);
};

/// N-ary weighted sum node: mixture of distributions.
class SumOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.sum"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    std::span<const ir::Value> Operands,
                    const std::vector<double> &Weights);

  std::span<const double> getWeights() const {
    return TheOp->getAttr("weights").cast<ir::DenseF64Attr>().getValues();
  }

  LogicalResult verify();
  static void getCanonicalizationPatterns(ir::PatternList &Patterns,
                                          ir::Context &Ctx);
};

//===----------------------------------------------------------------------===//
// Leaf nodes (univariate distributions)
//===----------------------------------------------------------------------===//

/// Histogram leaf over one discrete feature. Buckets are stored flattened
/// as [lb0, ub0, p0, lb1, ub1, p1, ...]; a bucket covers [lb, ub).
class HistogramOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.histogram"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Index, const std::vector<double> &FlatBuckets);

  std::span<const double> getFlatBuckets() const {
    return TheOp->getAttr("buckets").cast<ir::DenseF64Attr>().getValues();
  }
  unsigned getBucketCount() const {
    return static_cast<unsigned>(TheOp->getIntAttr("bucketCount"));
  }

  LogicalResult verify();
};

/// Categorical leaf: probability table indexed by the (integral) feature.
class CategoricalOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.categorical"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Index,
                    const std::vector<double> &Probabilities);

  std::span<const double> getProbabilities() const {
    return TheOp->getAttr("probabilities")
        .cast<ir::DenseF64Attr>()
        .getValues();
  }

  LogicalResult verify();
};

/// Univariate Gaussian leaf.
class GaussianOp : public ir::OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "hi_spn.gaussian"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;

  static void build(ir::OpBuilder &Builder, ir::OperationState &State,
                    ir::Value Evidence, double Mean, double StdDev);

  double getMean() const { return TheOp->getFloatAttr("mean"); }
  double getStdDev() const { return TheOp->getFloatAttr("stddev"); }

  LogicalResult verify();
};

} // namespace hispn
} // namespace spnc

#endif // SPNC_DIALECTS_HISPN_HISPNOPS_H
