//===- Model.h - SPFlow-equivalent SPN model ---------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory Sum-Product Network model mirroring the representation of
/// the SPFlow library (paper §II-A, §IV-A1): a rooted DAG of weighted sum
/// nodes, product nodes and univariate leaves (histogram / categorical /
/// Gaussian). Models are built through the DSL-like factory methods on
/// `Model`, validated for completeness/smoothness and decomposability, and
/// translated to the HiSPN dialect for compilation.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_FRONTEND_MODEL_H
#define SPNC_FRONTEND_MODEL_H

#include "frontend/Query.h"
#include "support/Casting.h"

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace spnc {

class Rng;

namespace spn {

class Model;

/// Discriminator for SPN node kinds.
enum class NodeKind : uint8_t {
  Sum,
  Product,
  Histogram,
  Categorical,
  Gaussian,
};

/// Base class of all SPN DAG nodes. Nodes are owned by their Model and
/// identified by a dense id; the same node may be referenced by several
/// parents (the structure is a DAG, not a tree).
class Node {
public:
  virtual ~Node();

  NodeKind getKind() const { return Kind; }
  unsigned getId() const { return Id; }

  /// True for histogram/categorical/gaussian leaves.
  bool isLeaf() const {
    return Kind == NodeKind::Histogram || Kind == NodeKind::Categorical ||
           Kind == NodeKind::Gaussian;
  }

protected:
  Node(NodeKind Kind, unsigned Id) : Kind(Kind), Id(Id) {}

private:
  NodeKind Kind;
  unsigned Id;
};

/// Inner node with children (sum or product).
class InnerNode : public Node {
public:
  const std::vector<Node *> &getChildren() const { return Children; }
  size_t getNumChildren() const { return Children.size(); }
  Node *getChild(size_t Index) const { return Children[Index]; }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Sum ||
           N->getKind() == NodeKind::Product;
  }

protected:
  InnerNode(NodeKind Kind, unsigned Id, std::vector<Node *> Children)
      : Node(Kind, Id), Children(std::move(Children)) {}

private:
  std::vector<Node *> Children;
};

/// Weighted mixture node.
class SumNode : public InnerNode {
public:
  SumNode(unsigned Id, std::vector<Node *> Children,
          std::vector<double> Weights)
      : InnerNode(NodeKind::Sum, Id, std::move(Children)),
        Weights(std::move(Weights)) {}

  const std::vector<double> &getWeights() const { return Weights; }

  /// Replaces the mixture weights (used by parameter learning); the
  /// count must match the children.
  void setWeights(std::vector<double> NewWeights) {
    assert(NewWeights.size() == getNumChildren() &&
           "one weight per child required");
    Weights = std::move(NewWeights);
  }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Sum;
  }

private:
  std::vector<double> Weights;
};

/// Factorization node.
class ProductNode : public InnerNode {
public:
  ProductNode(unsigned Id, std::vector<Node *> Children)
      : InnerNode(NodeKind::Product, Id, std::move(Children)) {}

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Product;
  }
};

/// Base of univariate leaves: distribution over a single feature.
class LeafNode : public Node {
public:
  unsigned getFeatureIndex() const { return FeatureIndex; }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Histogram ||
           N->getKind() == NodeKind::Categorical ||
           N->getKind() == NodeKind::Gaussian;
  }

protected:
  LeafNode(NodeKind Kind, unsigned Id, unsigned FeatureIndex)
      : Node(Kind, Id), FeatureIndex(FeatureIndex) {}

private:
  unsigned FeatureIndex;
};

/// A histogram bucket [Lb, Ub) with probability mass P.
struct HistogramBucket {
  double Lb;
  double Ub;
  double P;
};

/// Histogram distribution leaf.
class HistogramLeaf : public LeafNode {
public:
  HistogramLeaf(unsigned Id, unsigned FeatureIndex,
                std::vector<HistogramBucket> Buckets)
      : LeafNode(NodeKind::Histogram, Id, FeatureIndex),
        Buckets(std::move(Buckets)) {}

  const std::vector<HistogramBucket> &getBuckets() const { return Buckets; }
  /// Buckets flattened to [lb, ub, p, ...] as stored in IR attributes.
  std::vector<double> getFlatBuckets() const;

  /// Replaces the per-bucket probability masses (bucket bounds are
  /// structural and stay fixed).
  void setBucketProbabilities(const std::vector<double> &P) {
    assert(P.size() == Buckets.size() && "one mass per bucket required");
    for (size_t I = 0; I < P.size(); ++I)
      Buckets[I].P = P[I];
  }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Histogram;
  }

private:
  std::vector<HistogramBucket> Buckets;
};

/// Categorical distribution leaf.
class CategoricalLeaf : public LeafNode {
public:
  CategoricalLeaf(unsigned Id, unsigned FeatureIndex,
                  std::vector<double> Probabilities)
      : LeafNode(NodeKind::Categorical, Id, FeatureIndex),
        Probabilities(std::move(Probabilities)) {}

  const std::vector<double> &getProbabilities() const {
    return Probabilities;
  }

  /// Replaces the category probabilities (parameter learning).
  void setProbabilities(std::vector<double> P) {
    assert(P.size() == Probabilities.size() &&
           "category count is structural");
    Probabilities = std::move(P);
  }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Categorical;
  }

private:
  std::vector<double> Probabilities;
};

/// Gaussian distribution leaf.
class GaussianLeaf : public LeafNode {
public:
  GaussianLeaf(unsigned Id, unsigned FeatureIndex, double Mean,
               double StdDev)
      : LeafNode(NodeKind::Gaussian, Id, FeatureIndex), Mean(Mean),
        StdDev(StdDev) {}

  double getMean() const { return Mean; }
  double getStdDev() const { return StdDev; }

  /// Replaces the distribution parameters (parameter learning).
  void setParameters(double NewMean, double NewStdDev) {
    assert(NewStdDev > 0.0 && "stddev must be positive");
    Mean = NewMean;
    StdDev = NewStdDev;
  }

  static bool classof(const Node *N) {
    return N->getKind() == NodeKind::Gaussian;
  }

private:
  double Mean;
  double StdDev;
};

/// Aggregate statistics over a model (used by the workload generators to
/// match the published model statistics, paper §V-A).
struct ModelStats {
  size_t NumNodes = 0;
  size_t NumSums = 0;
  size_t NumProducts = 0;
  size_t NumLeaves = 0;
  size_t NumGaussians = 0;
  size_t MaxDepth = 0;
};

/// An SPN model: node arena + root + feature count.
class Model {
public:
  explicit Model(unsigned NumFeatures, std::string Name = "spn")
      : NumFeatures(NumFeatures), Name(std::move(Name)) {}

  Model(const Model &) = delete;
  Model &operator=(const Model &) = delete;
  Model(Model &&) = default;
  Model &operator=(Model &&) = default;

  unsigned getNumFeatures() const { return NumFeatures; }
  const std::string &getName() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  Node *getRoot() const { return Root; }
  void setRoot(Node *NewRoot) { Root = NewRoot; }

  size_t getNumNodes() const { return Nodes.size(); }
  Node *getNode(unsigned Id) const { return Nodes[Id].get(); }

  //===--------------------------------------------------------------------===//
  // DSL-style factory methods (SPFlow-like construction, paper §VI)
  //===--------------------------------------------------------------------===//

  SumNode *makeSum(std::vector<Node *> Children,
                   std::vector<double> Weights);
  ProductNode *makeProduct(std::vector<Node *> Children);
  HistogramLeaf *makeHistogram(unsigned FeatureIndex,
                               std::vector<HistogramBucket> Buckets);
  CategoricalLeaf *makeCategorical(unsigned FeatureIndex,
                                   std::vector<double> Probabilities);
  GaussianLeaf *makeGaussian(unsigned FeatureIndex, double Mean,
                             double StdDev);

  //===--------------------------------------------------------------------===//
  // Analysis
  //===--------------------------------------------------------------------===//

  /// Checks structural validity: a root exists, the graph below it is
  /// acyclic, sums are complete/smooth (children share one scope),
  /// products are decomposable (children have disjoint scopes), and
  /// every node passes checkNodeParams (weights normalized to 1 within
  /// \p WeightTolerance). On failure, fills \p ErrorMessage.
  bool validate(std::string *ErrorMessage = nullptr,
                double WeightTolerance = 1e-6) const;

  /// Conservative lower bound on the log-probability one evaluation of
  /// the model can produce, propagated bottom up: a leaf contributes the
  /// log of its smallest positive mass (Gaussians assume evidence within
  /// four standard deviations), a product the sum of its children's
  /// bounds, a sum the best single weighted child bound. The underflow
  /// analysis behind resolveQuery's f32/f64 choice.
  double minLogProbabilityBound() const;

  /// Computes the scope (set of feature indices) of \p N.
  std::set<unsigned> getScope(const Node *N) const;

  /// Returns nodes reachable from the root in topological (children
  /// before parents) order.
  std::vector<Node *> topologicalOrder() const;

  ModelStats computeStats() const;

  //===--------------------------------------------------------------------===//
  // Reference inference (ground truth for all execution engines)
  //===--------------------------------------------------------------------===//

  /// Evaluates the joint (or, with NaN evidence, marginal) probability of
  /// one sample, returning the log-probability. \p Sample must hold
  /// getNumFeatures() values; NaN marks a marginalized feature.
  double evalLogLikelihood(std::span<const double> Sample) const;

  /// Most-probable-explanation query: a max-product upward pass followed
  /// by an argmax downward traceback. NaN entries of \p Evidence are
  /// completed with the most probable values; observed entries are echoed
  /// into \p Assignment unchanged. Argmax ties resolve to the lowest
  /// child index (and the lowest bucket for discrete leaf modes), the
  /// same contract every compiled engine follows (docs/queries.md).
  /// Returns the max-product log-probability of the winning branch —
  /// for non-selective SPNs an approximation of the assignment's true
  /// log-likelihood. Both spans must hold getNumFeatures() values.
  double evalMpe(std::span<const double> Evidence,
                 std::span<double> Assignment) const;

  /// Draws one ancestral sample conditioned on the non-NaN entries of
  /// \p Evidence: a marginal upward pass, then a downward walk choosing
  /// sum children with their posterior probability and drawing unobserved
  /// leaves from their distributions. The RNG draw order replicates the
  /// compiled traceback contract (vm/Traceback.h): sums consume one
  /// uniform per binary combine of their left-associative lowering chain,
  /// table leaves one uniform, Gaussian leaves two. Observed features are
  /// echoed into \p Out; both spans must hold getNumFeatures() values.
  void sampleAncestral(std::span<const double> Evidence,
                       std::span<double> Out, Rng &R) const;

private:
  template <typename NodeTy, typename... Args>
  NodeTy *addNode(Args &&...NodeArgs) {
    auto Owned = std::make_unique<NodeTy>(
        static_cast<unsigned>(Nodes.size()), std::forward<Args>(NodeArgs)...);
    NodeTy *Result = Owned.get();
    Nodes.push_back(std::move(Owned));
    return Result;
  }

  unsigned NumFeatures;
  std::string Name;
  Node *Root = nullptr;
  std::vector<std::unique_ptr<Node>> Nodes;
};

/// Checks the parameters of one node: sum weights (one per child) are
/// finite, non-negative and sum to 1 within \p WeightTolerance; Gaussian
/// means are finite and standard deviations finite and positive;
/// histogram masses and categorical probabilities are finite and
/// non-negative, and every histogram bucket has Lb < Ub. Returns a
/// description of the first violation, or an empty string. Model::validate
/// runs it on every node, and so do deserializeModel and
/// merge::extractParams.
std::string checkNodeParams(const Node &N, double WeightTolerance = 1e-6);

/// Largest log-probability bound (Model::minLogProbabilityBound) a
/// linear-space query computes in f32; below it f32 could flush a result
/// to zero (log FLT_MIN is about -87.3).
inline constexpr double kF32MinLogProbability = -85.0;

/// Resolves \p Query against \p TheModel. It folds SupportMarginal into
/// the kind: a joint query with SupportMarginal becomes Marginal, and
/// Marginal, MPE and sampling always support marginalized evidence. An
/// Auto compute type becomes F32 in log space (underflow-safe) and in
/// linear space unless the model's log-probability bound falls below
/// kF32MinLogProbability, where it becomes F64 (paper §III-A: the
/// abstract probability type defers the width to "characteristics ...
/// of the SPN"). The result never holds ComputeType::Auto; it is the
/// query the compiler lowers and the kernel cache keys on.
QueryConfig resolveQuery(const Model &TheModel, QueryConfig Query);

} // namespace spn
} // namespace spnc

#endif // SPNC_FRONTEND_MODEL_H
