//===- Model.cpp - SPFlow-equivalent SPN model --------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/Model.h"

#include "dialects/lospn/LoSPNOps.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"
#include "vm/Traceback.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <unordered_set>

using namespace spnc;
using namespace spnc::spn;

Node::~Node() = default;

std::vector<double> HistogramLeaf::getFlatBuckets() const {
  std::vector<double> Flat;
  Flat.reserve(Buckets.size() * 3);
  for (const HistogramBucket &Bucket : Buckets) {
    Flat.push_back(Bucket.Lb);
    Flat.push_back(Bucket.Ub);
    Flat.push_back(Bucket.P);
  }
  return Flat;
}

//===----------------------------------------------------------------------===//
// Factory methods
//===----------------------------------------------------------------------===//

SumNode *Model::makeSum(std::vector<Node *> Children,
                        std::vector<double> Weights) {
  assert(Children.size() == Weights.size() &&
         "one weight per sum child required");
  return addNode<SumNode>(std::move(Children), std::move(Weights));
}

ProductNode *Model::makeProduct(std::vector<Node *> Children) {
  return addNode<ProductNode>(std::move(Children));
}

HistogramLeaf *Model::makeHistogram(unsigned FeatureIndex,
                                    std::vector<HistogramBucket> Buckets) {
  assert(FeatureIndex < NumFeatures && "feature index out of range");
  return addNode<HistogramLeaf>(FeatureIndex, std::move(Buckets));
}

CategoricalLeaf *
Model::makeCategorical(unsigned FeatureIndex,
                       std::vector<double> Probabilities) {
  assert(FeatureIndex < NumFeatures && "feature index out of range");
  return addNode<CategoricalLeaf>(FeatureIndex, std::move(Probabilities));
}

GaussianLeaf *Model::makeGaussian(unsigned FeatureIndex, double Mean,
                                  double StdDev) {
  assert(FeatureIndex < NumFeatures && "feature index out of range");
  return addNode<GaussianLeaf>(FeatureIndex, Mean, StdDev);
}

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

std::vector<Node *> Model::topologicalOrder() const {
  std::vector<Node *> Order;
  if (!Root)
    return Order;
  // Iterative DFS emitting nodes after all children (post-order). Shared
  // children are emitted once; node ids are dense, so they index the
  // visited flags.
  std::vector<uint8_t> Visited(Nodes.size(), 0);
  std::vector<std::pair<Node *, size_t>> Stack;
  Stack.emplace_back(Root, 0);
  Visited[Root->getId()] = 1;
  while (!Stack.empty()) {
    auto &[Current, NextChild] = Stack.back();
    const auto *Inner = dyn_cast<InnerNode>(Current);
    if (!Inner || NextChild >= Inner->getNumChildren()) {
      Order.push_back(Current);
      Stack.pop_back();
      continue;
    }
    Node *Child = Inner->getChild(NextChild++);
    if (!Visited[Child->getId()]) {
      Visited[Child->getId()] = 1;
      Stack.emplace_back(Child, 0);
    }
  }
  return Order;
}

std::set<unsigned> Model::getScope(const Node *N) const {
  // Bottom-up scope computation over the sub-DAG rooted at N, visiting
  // children before parents (iterative post-order over the DAG).
  std::unordered_map<const Node *, std::set<unsigned>> Scopes;
  std::unordered_set<const Node *> Visited{N};
  std::vector<std::pair<const Node *, size_t>> Stack;
  Stack.emplace_back(N, 0);
  while (!Stack.empty()) {
    auto &[Current, NextChild] = Stack.back();
    const auto *Inner = dyn_cast<InnerNode>(Current);
    if (Inner && NextChild < Inner->getNumChildren()) {
      const Node *Child = Inner->getChild(NextChild++);
      if (Visited.insert(Child).second)
        Stack.emplace_back(Child, 0);
      continue;
    }
    if (const auto *Leaf = dyn_cast<LeafNode>(Current)) {
      Scopes[Current] = {Leaf->getFeatureIndex()};
    } else {
      std::set<unsigned> Scope;
      for (const Node *Child : Inner->getChildren()) {
        const std::set<unsigned> &ChildScope = Scopes[Child];
        Scope.insert(ChildScope.begin(), ChildScope.end());
      }
      Scopes[Current] = std::move(Scope);
    }
    Stack.pop_back();
  }
  return Scopes[N];
}

bool Model::validate(std::string *ErrorMessage,
                     double WeightTolerance) const {
  auto Fail = [&](std::string Message) {
    if (ErrorMessage)
      *ErrorMessage = std::move(Message);
    return false;
  };
  if (!Root)
    return Fail("model has no root node");

  // Acyclicity via iterative three-color DFS.
  enum class Color : uint8_t { White, Grey, Black };
  std::vector<Color> Colors(Nodes.size(), Color::White);
  {
    std::vector<std::pair<const Node *, size_t>> Stack;
    Stack.emplace_back(Root, 0);
    Colors[Root->getId()] = Color::Grey;
    while (!Stack.empty()) {
      auto &[Current, NextChild] = Stack.back();
      const auto *Inner = dyn_cast<InnerNode>(Current);
      if (!Inner || NextChild >= Inner->getNumChildren()) {
        Colors[Current->getId()] = Color::Black;
        Stack.pop_back();
        continue;
      }
      const Node *Child = Inner->getChild(NextChild++);
      Color &ChildColor = Colors[Child->getId()];
      if (ChildColor == Color::Grey)
        return Fail("SPN DAG contains a cycle");
      if (ChildColor == Color::White) {
        ChildColor = Color::Grey;
        Stack.emplace_back(Child, 0);
      }
    }
  }

  // Scope-based checks in one bottom-up pass. Scopes are stored as
  // bitsets indexed by the dense node ids, all in one array, so
  // validation stays linear-ish even for paper-scale RAT-SPNs with
  // hundreds of thousands of nodes.
  size_t Words = (NumFeatures + 63) / 64;
  std::vector<uint64_t> Scopes(Nodes.size() * Words, 0);
  auto ScopeOf = [&](const Node *N) {
    return std::span<uint64_t>(Scopes.data() + N->getId() * Words, Words);
  };
  for (Node *Current : topologicalOrder()) {
    if (std::string Why = checkNodeParams(*Current, WeightTolerance);
        !Why.empty())
      return Fail(std::move(Why));
    std::span<uint64_t> Scope = ScopeOf(Current);
    if (const auto *Leaf = dyn_cast<LeafNode>(Current)) {
      if (Leaf->getFeatureIndex() >= NumFeatures)
        return Fail(formatString("leaf %u references feature %u out of %u",
                                 Leaf->getId(), Leaf->getFeatureIndex(),
                                 NumFeatures));
      Scope[Leaf->getFeatureIndex() / 64] |=
          uint64_t(1) << (Leaf->getFeatureIndex() % 64);
      continue;
    }
    const auto *Inner = cast<InnerNode>(Current);
    if (Inner->getNumChildren() == 0)
      return Fail(
          formatString("inner node %u has no children", Inner->getId()));

    if (const auto *Sum = dyn_cast<SumNode>(Current)) {
      // Smoothness: all children must have the same scope.
      std::span<const uint64_t> First = ScopeOf(Sum->getChild(0));
      for (Node *Child : Sum->getChildren()) {
        std::span<const uint64_t> ChildScope = ScopeOf(Child);
        if (!std::equal(ChildScope.begin(), ChildScope.end(), First.begin()))
          return Fail(formatString(
              "sum %u is not smooth: child scopes differ", Sum->getId()));
      }
      std::copy(First.begin(), First.end(), Scope.begin());
    } else {
      // Decomposability: child scopes must be pairwise disjoint.
      for (Node *Child : Inner->getChildren()) {
        std::span<const uint64_t> ChildScope = ScopeOf(Child);
        for (size_t W = 0; W < Words; ++W) {
          if (Scope[W] & ChildScope[W])
            return Fail(formatString(
                "product %u is not decomposable: child scopes overlap",
                Inner->getId()));
          Scope[W] |= ChildScope[W];
        }
      }
    }
  }
  return true;
}

std::string spnc::spn::checkNodeParams(const Node &N,
                                       double WeightTolerance) {
  auto NonNegative = [](double P) { return P >= 0.0 && std::isfinite(P); };
  switch (N.getKind()) {
  case NodeKind::Sum: {
    const auto &Sum = *cast<SumNode>(&N);
    if (Sum.getWeights().size() != Sum.getNumChildren())
      return formatString("sum %u weight/child count mismatch", Sum.getId());
    double Total = 0.0;
    for (double Weight : Sum.getWeights()) {
      if (!NonNegative(Weight))
        return formatString("sum %u has an invalid weight", Sum.getId());
      Total += Weight;
    }
    if (std::fabs(Total - 1.0) > WeightTolerance)
      return formatString("sum %u weights sum to %g, expected 1",
                          Sum.getId(), Total);
    return std::string();
  }
  case NodeKind::Product:
    return std::string();
  case NodeKind::Histogram:
    for (const HistogramBucket &B : cast<HistogramLeaf>(&N)->getBuckets())
      if (!NonNegative(B.P) || !(B.Lb < B.Ub))
        return formatString("histogram %u has an invalid bucket "
                            "[%g, %g) with mass %g",
                            N.getId(), B.Lb, B.Ub, B.P);
    return std::string();
  case NodeKind::Categorical:
    for (double P : cast<CategoricalLeaf>(&N)->getProbabilities())
      if (!NonNegative(P))
        return formatString("categorical %u has an invalid probability %g",
                            N.getId(), P);
    return std::string();
  case NodeKind::Gaussian: {
    const auto &Gauss = *cast<GaussianLeaf>(&N);
    if (!std::isfinite(Gauss.getMean()) || !std::isfinite(Gauss.getStdDev()) ||
        !(Gauss.getStdDev() > 0.0))
      return formatString("gaussian %u has invalid parameters (mean %g, "
                          "stddev %g)",
                          N.getId(), Gauss.getMean(), Gauss.getStdDev());
    return std::string();
  }
  }
  return std::string();
}

double Model::minLogProbabilityBound() const {
  constexpr double kEvidenceSigmas = 4.0;
  std::vector<double> Bounds(Nodes.size(), 0.0);
  for (const Node *Current : topologicalOrder()) {
    double Bound = 0.0;
    if (const auto *Gauss = dyn_cast<GaussianLeaf>(Current)) {
      Bound = -0.5 * kEvidenceSigmas * kEvidenceSigmas -
              std::log(Gauss->getStdDev()) - vm::kLogSqrt2Pi;
    } else if (const auto *Hist = dyn_cast<HistogramLeaf>(Current)) {
      double MinMass = 1.0;
      for (const HistogramBucket &B : Hist->getBuckets())
        if (B.P > 0.0)
          MinMass = std::min(MinMass, B.P);
      Bound = std::log(MinMass);
    } else if (const auto *Cat = dyn_cast<CategoricalLeaf>(Current)) {
      double MinMass = 1.0;
      for (double P : Cat->getProbabilities())
        if (P > 0.0)
          MinMass = std::min(MinMass, P);
      Bound = std::log(MinMass);
    } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
      for (const Node *Child : Product->getChildren())
        Bound += Bounds[Child->getId()];
    } else {
      // sum_i w_i p_i(x) >= w_j p_j(x) for every j.
      const auto *Sum = cast<SumNode>(Current);
      Bound = -std::numeric_limits<double>::infinity();
      for (unsigned I = 0; I < Sum->getNumChildren(); ++I)
        if (Sum->getWeights()[I] > 0.0)
          Bound = std::max(Bound, std::log(Sum->getWeights()[I]) +
                                      Bounds[Sum->getChild(I)->getId()]);
    }
    Bounds[Current->getId()] = Bound;
  }
  return Root ? Bounds[Root->getId()] : 0.0;
}

QueryConfig spnc::spn::resolveQuery(const Model &TheModel,
                                    QueryConfig Query) {
  if (Query.Kind == QueryKind::Mpe || Query.Kind == QueryKind::Sample)
    Query.SupportMarginal = true;
  if (Query.DataType == ComputeType::Auto)
    Query.DataType =
        !Query.LogSpace &&
                TheModel.minLogProbabilityBound() < kF32MinLogProbability
            ? ComputeType::F64
            : ComputeType::F32;
  return Query;
}

ModelStats Model::computeStats() const {
  ModelStats Stats;
  std::unordered_map<const Node *, size_t> Depths;
  for (Node *Current : topologicalOrder()) {
    ++Stats.NumNodes;
    size_t Depth = 1;
    switch (Current->getKind()) {
    case NodeKind::Sum:
      ++Stats.NumSums;
      break;
    case NodeKind::Product:
      ++Stats.NumProducts;
      break;
    case NodeKind::Gaussian:
      ++Stats.NumGaussians;
      ++Stats.NumLeaves;
      break;
    case NodeKind::Histogram:
    case NodeKind::Categorical:
      ++Stats.NumLeaves;
      break;
    }
    if (const auto *Inner = dyn_cast<InnerNode>(Current))
      for (Node *Child : Inner->getChildren())
        Depth = std::max(Depth, Depths[Child] + 1);
    Depths[Current] = Depth;
    Stats.MaxDepth = std::max(Stats.MaxDepth, Depth);
  }
  return Stats;
}

//===----------------------------------------------------------------------===//
// Reference inference
//===----------------------------------------------------------------------===//

double Model::evalLogLikelihood(std::span<const double> Sample) const {
  assert(Sample.size() == NumFeatures && "sample size mismatch");
  assert(Root && "model has no root");
  // Bottom-up evaluation in log-space over the topological order; shared
  // nodes are evaluated exactly once (linear in DAG size, paper §II-A).
  std::unordered_map<const Node *, double> LogValues;
  for (Node *Current : topologicalOrder()) {
    double LogValue = 0.0;
    switch (Current->getKind()) {
    case NodeKind::Sum: {
      const auto *Sum = cast<SumNode>(Current);
      LogValue = -std::numeric_limits<double>::infinity();
      for (size_t I = 0; I < Sum->getNumChildren(); ++I) {
        double Weight = Sum->getWeights()[I];
        if (Weight == 0.0)
          continue;
        double Term = std::log(Weight) + LogValues[Sum->getChild(I)];
        LogValue = lospn::logSumExp(LogValue, Term);
      }
      break;
    }
    case NodeKind::Product: {
      const auto *Product = cast<ProductNode>(Current);
      LogValue = 0.0;
      for (Node *Child : Product->getChildren())
        LogValue += LogValues[Child];
      break;
    }
    case NodeKind::Histogram: {
      const auto *Leaf = cast<HistogramLeaf>(Current);
      double Evidence = Sample[Leaf->getFeatureIndex()];
      if (std::isnan(Evidence)) {
        LogValue = 0.0; // Marginalized: contributes probability 1.
        break;
      }
      std::vector<double> Flat = Leaf->getFlatBuckets();
      LogValue = std::log(lospn::evalHistogram(Flat, Evidence));
      break;
    }
    case NodeKind::Categorical: {
      const auto *Leaf = cast<CategoricalLeaf>(Current);
      double Evidence = Sample[Leaf->getFeatureIndex()];
      if (std::isnan(Evidence)) {
        LogValue = 0.0;
        break;
      }
      LogValue =
          std::log(lospn::evalCategorical(Leaf->getProbabilities(),
                                          Evidence));
      break;
    }
    case NodeKind::Gaussian: {
      const auto *Leaf = cast<GaussianLeaf>(Current);
      double Evidence = Sample[Leaf->getFeatureIndex()];
      if (std::isnan(Evidence)) {
        LogValue = 0.0;
        break;
      }
      LogValue = lospn::evalGaussianLogPdf(Leaf->getMean(),
                                           Leaf->getStdDev(), Evidence);
      break;
    }
    }
    LogValues[Current] = LogValue;
  }
  return LogValues[Root];
}

//===----------------------------------------------------------------------===//
// Reference MPE and ancestral sampling
//===----------------------------------------------------------------------===//

namespace {

/// Mode of a discrete leaf's flat (lb, ub, mass) table: the lowest entry
/// with maximal mass, matching codegen's emitDiscreteLeaf tie-breaking.
struct DiscreteMode {
  double Value = 0.0;
  double Mass = 0.0;
};

DiscreteMode discreteMode(const std::vector<double> &Flat) {
  DiscreteMode Mode;
  bool First = true;
  for (size_t I = 0; I + 2 < Flat.size(); I += 3) {
    if (First || Flat[I + 2] > Mode.Mass) {
      Mode.Value = Flat[I];
      Mode.Mass = Flat[I + 2];
      First = false;
    }
  }
  return Mode;
}

/// Flattens a discrete leaf to the (lb, ub, mass) triple layout shared
/// with the IR attributes and the compiled traceback plans. Categorical
/// category I becomes the unit bucket [I, I+1).
std::vector<double> flatTable(const LeafNode *Leaf) {
  if (const auto *Hist = dyn_cast<HistogramLeaf>(Leaf))
    return Hist->getFlatBuckets();
  const auto *Cat = cast<CategoricalLeaf>(Leaf);
  const std::vector<double> &P = Cat->getProbabilities();
  std::vector<double> Flat;
  Flat.reserve(P.size() * 3);
  for (size_t I = 0; I < P.size(); ++I) {
    Flat.push_back(static_cast<double>(I));
    Flat.push_back(static_cast<double>(I + 1));
    Flat.push_back(P[I]);
  }
  return Flat;
}

/// Upward log-value of a leaf. NaN evidence contributes the log mode
/// mass under max-product and log 1 under the marginal semantics used
/// for sampling.
double leafLogValue(const LeafNode *Leaf, double Evidence,
                    bool MaxProduct) {
  if (std::isnan(Evidence)) {
    if (!MaxProduct)
      return 0.0;
    if (const auto *Gauss = dyn_cast<GaussianLeaf>(Leaf))
      return lospn::evalGaussianLogPdf(Gauss->getMean(),
                                       Gauss->getStdDev(),
                                       Gauss->getMean());
    return std::log(discreteMode(flatTable(Leaf)).Mass);
  }
  switch (Leaf->getKind()) {
  case NodeKind::Histogram:
    return std::log(lospn::evalHistogram(
        cast<HistogramLeaf>(Leaf)->getFlatBuckets(), Evidence));
  case NodeKind::Categorical:
    return std::log(lospn::evalCategorical(
        cast<CategoricalLeaf>(Leaf)->getProbabilities(), Evidence));
  default: {
    const auto *Gauss = cast<GaussianLeaf>(Leaf);
    return lospn::evalGaussianLogPdf(Gauss->getMean(),
                                     Gauss->getStdDev(), Evidence);
  }
  }
}

} // namespace

double Model::evalMpe(std::span<const double> Evidence,
                      std::span<double> Assignment) const {
  assert(Evidence.size() == NumFeatures && "evidence size mismatch");
  assert(Assignment.size() == NumFeatures && "assignment size mismatch");
  assert(Root && "model has no root");
  // Upward max-product pass in log-space. Sums mirror the compiled
  // lowering exactly: every child contributes log(weight) + child (a
  // zero weight yields -inf), combined left-associatively so ties keep
  // the earlier term and argmax resolves to the lowest child index.
  std::unordered_map<const Node *, double> LogValues;
  for (Node *Current : topologicalOrder()) {
    double LogValue = 0.0;
    if (const auto *Sum = dyn_cast<SumNode>(Current)) {
      for (size_t I = 0; I < Sum->getNumChildren(); ++I) {
        double Term = std::log(Sum->getWeights()[I]) +
                      LogValues.at(Sum->getChild(I));
        if (I == 0 || Term > LogValue)
          LogValue = Term;
      }
    } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
      for (Node *Child : Product->getChildren())
        LogValue += LogValues.at(Child);
    } else {
      const auto *Leaf = cast<LeafNode>(Current);
      LogValue = leafLogValue(Leaf, Evidence[Leaf->getFeatureIndex()],
                              /*MaxProduct=*/true);
    }
    LogValues[Current] = LogValue;
  }

  // Downward argmax traceback. Pre-fill with the evidence so observed
  // features (and features outside the model's scope) are echoed.
  for (size_t I = 0; I < Assignment.size(); ++I)
    Assignment[I] = Evidence[I];
  std::vector<const Node *> Stack{Root};
  while (!Stack.empty()) {
    const Node *Current = Stack.back();
    Stack.pop_back();
    if (const auto *Sum = dyn_cast<SumNode>(Current)) {
      size_t BestChild = 0;
      double Best = 0.0;
      for (size_t I = 0; I < Sum->getNumChildren(); ++I) {
        double Term = std::log(Sum->getWeights()[I]) +
                      LogValues.at(Sum->getChild(I));
        if (I == 0 || Term > Best) {
          Best = Term;
          BestChild = I;
        }
      }
      Stack.push_back(Sum->getChild(BestChild));
    } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
      for (Node *Child : Product->getChildren())
        Stack.push_back(Child);
    } else {
      const auto *Leaf = cast<LeafNode>(Current);
      if (!std::isnan(Evidence[Leaf->getFeatureIndex()]))
        continue;
      if (const auto *Gauss = dyn_cast<GaussianLeaf>(Leaf))
        Assignment[Leaf->getFeatureIndex()] = Gauss->getMean();
      else
        Assignment[Leaf->getFeatureIndex()] =
            discreteMode(flatTable(Leaf)).Value;
    }
  }
  return LogValues.at(Root);
}

void Model::sampleAncestral(std::span<const double> Evidence,
                            std::span<double> Out, Rng &R) const {
  assert(Evidence.size() == NumFeatures && "evidence size mismatch");
  assert(Out.size() == NumFeatures && "output size mismatch");
  assert(Root && "model has no root");
  // Upward marginal pass under the evidence (NaN contributes log 1).
  // Zero-weight children stay in the chain as -inf terms so the downward
  // walk below consumes exactly one uniform per binary combine, like the
  // compiled traceback (vm/Traceback.h RNG contract).
  std::unordered_map<const Node *, double> LogValues;
  for (Node *Current : topologicalOrder()) {
    double LogValue = 0.0;
    if (const auto *Sum = dyn_cast<SumNode>(Current)) {
      for (size_t I = 0; I < Sum->getNumChildren(); ++I) {
        double Term = std::log(Sum->getWeights()[I]) +
                      LogValues.at(Sum->getChild(I));
        LogValue = I == 0 ? Term : lospn::logSumExp(LogValue, Term);
      }
    } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
      for (Node *Child : Product->getChildren())
        LogValue += LogValues.at(Child);
    } else {
      const auto *Leaf = cast<LeafNode>(Current);
      LogValue = leafLogValue(Leaf, Evidence[Leaf->getFeatureIndex()],
                              /*MaxProduct=*/false);
    }
    LogValues[Current] = LogValue;
  }

  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = Evidence[I];

  // Downward pass. The compiled engines lower an N-ary sum to a
  // left-associative binary chain and walk it outermost-first, so the
  // oracle draws its uniforms in the same order: one per combine from
  // child N-1 downward, each with the posterior probability of taking
  // that child over the combined prefix before it.
  std::vector<double> Terms, Prefix;
  std::vector<const Node *> Stack{Root};
  while (!Stack.empty()) {
    const Node *Current = Stack.back();
    Stack.pop_back();
    if (const auto *Sum = dyn_cast<SumNode>(Current)) {
      size_t N = Sum->getNumChildren();
      Terms.resize(N);
      Prefix.resize(N);
      for (size_t I = 0; I < N; ++I) {
        Terms[I] = std::log(Sum->getWeights()[I]) +
                   LogValues.at(Sum->getChild(I));
        Prefix[I] =
            I == 0 ? Terms[0] : lospn::logSumExp(Prefix[I - 1], Terms[I]);
      }
      size_t Chosen = 0;
      for (size_t I = N; I-- > 1;) {
        double VA = Prefix[I - 1];
        double VB = Terms[I];
        // Identical branch-probability computation to runTraceback's
        // Choice case, including the unconditional uniform draw.
        double PB = -1.0;
        double Hi = VA >= VB ? VA : VB;
        double Lo = VA >= VB ? VB : VA;
        if (!(std::isinf(Hi) && Hi < 0.0))
          PB = std::exp(VB - (Hi + std::log1p(std::exp(Lo - Hi))));
        if (R.uniform() < PB) {
          Chosen = I;
          break;
        }
      }
      Stack.push_back(Sum->getChild(Chosen));
    } else if (const auto *Product = dyn_cast<ProductNode>(Current)) {
      // Reverse push so child 0's subtree is visited (and draws) first,
      // the visit order of the compiled traceback's Both nodes.
      for (size_t I = Product->getNumChildren(); I-- > 0;)
        Stack.push_back(Product->getChild(I));
    } else {
      const auto *Leaf = cast<LeafNode>(Current);
      if (!std::isnan(Evidence[Leaf->getFeatureIndex()]))
        continue;
      if (const auto *Gauss = dyn_cast<GaussianLeaf>(Leaf)) {
        Out[Leaf->getFeatureIndex()] =
            Gauss->getMean() +
            Gauss->getStdDev() * vm::drawStandardNormal(R);
      } else {
        std::vector<double> Flat = flatTable(Leaf);
        Out[Leaf->getFeatureIndex()] = vm::drawTableBucket(
            Flat.data(), static_cast<uint32_t>(Flat.size() / 3), R);
      }
    }
  }
}
