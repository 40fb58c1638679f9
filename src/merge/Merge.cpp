//===- Merge.cpp - Structural model merging -----------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "merge/Merge.h"

#include "support/Casting.h"
#include "support/Hashing.h"

#include <bit>

using namespace spnc;
using namespace spnc::merge;

namespace {

/// Small tags separating item kinds in the signature stream, so e.g. a
/// product of two children can never alias a sum of two children.
enum ItemTag : uint64_t {
  TagFeatures = 0x10,
  TagSum = 0x20,
  TagProduct = 0x21,
  TagHistogram = 0x30,
  TagCategorical = 0x31,
  TagGaussian = 0x32,
};

static uint64_t bits(double Value) { return std::bit_cast<uint64_t>(Value); }

} // namespace

/// Feeds the structural signature of \p Model, walked in its topological
/// order \p Order, to \p Emit word by word.
template <typename EmitFn>
static void emitSignature(const spn::Model &Model,
                          std::span<spn::Node *const> Order, EmitFn &&Emit) {
  // Children are referenced by their position in the walk, which is
  // deterministic (depth-first from the root, children in stored order,
  // shared nodes visited once) — node ids, which depend on construction
  // order, stay out of the signature; they only index the positions.
  std::vector<uint32_t> Position(Model.getNumNodes());
  for (size_t I = 0; I < Order.size(); ++I)
    Position[Order[I]->getId()] = static_cast<uint32_t>(I);

  Emit(TagFeatures);
  Emit(Model.getNumFeatures());
  for (const spn::Node *N : Order) {
    if (const auto *Inner = dyn_cast<spn::InnerNode>(N)) {
      Emit(isa<spn::SumNode>(N) ? TagSum : TagProduct);
      Emit(Inner->getNumChildren());
      for (const spn::Node *Child : Inner->getChildren())
        Emit(Position[Child->getId()]);
      continue;
    }
    const auto *Leaf = cast<spn::LeafNode>(N);
    if (const auto *Hist = dyn_cast<spn::HistogramLeaf>(N)) {
      Emit(TagHistogram);
      Emit(Leaf->getFeatureIndex());
      Emit(Hist->getBuckets().size());
      // Bucket bounds are structural: they shape the generated lookup
      // table / select cascade. Only the masses are tunable.
      for (const spn::HistogramBucket &B : Hist->getBuckets()) {
        Emit(bits(B.Lb));
        Emit(bits(B.Ub));
      }
    } else if (const auto *Cat = dyn_cast<spn::CategoricalLeaf>(N)) {
      Emit(TagCategorical);
      Emit(Leaf->getFeatureIndex());
      Emit(Cat->getProbabilities().size());
    } else {
      Emit(TagGaussian);
      Emit(Leaf->getFeatureIndex());
    }
  }
}

StructuralSignature
spnc::merge::structuralSignature(const spn::Model &Model) {
  StructuralSignature Sig;
  emitSignature(Model, Model.topologicalOrder(),
                [&](uint64_t Item) { Sig.Items.push_back(Item); });
  return Sig;
}

uint64_t spnc::merge::structuralHash(const spn::Model &Model) {
  return structuralHash(Model, Model.topologicalOrder());
}

uint64_t spnc::merge::structuralHash(const spn::Model &Model,
                                     std::span<spn::Node *const> Order) {
  // XXH64 over the item bytes, streamed: the same value as hashing the
  // whole signature vector, without building it.
  WordHasher Hash;
  emitSignature(Model, Order, [&](uint64_t Item) { Hash.add(Item); });
  return Hash.finish();
}

bool spnc::merge::isStructurallyIsomorphic(const spn::Model &A,
                                           const spn::Model &B) {
  return structuralSignature(A) == structuralSignature(B);
}

Expected<std::vector<double>>
spnc::merge::extractParams(const spn::Model &Model) {
  return extractParams(Model.topologicalOrder());
}

Expected<std::vector<double>>
spnc::merge::extractParams(std::span<spn::Node *const> Order) {
  std::vector<double> Params;
  for (const spn::Node *N : Order) {
    if (std::string Why = spn::checkNodeParams(*N); !Why.empty())
      return makeError("invalid SPN model: " + Why);
    if (const auto *Sum = dyn_cast<spn::SumNode>(N)) {
      Params.insert(Params.end(), Sum->getWeights().begin(),
                    Sum->getWeights().end());
    } else if (const auto *Hist = dyn_cast<spn::HistogramLeaf>(N)) {
      for (const spn::HistogramBucket &B : Hist->getBuckets())
        Params.push_back(B.P);
    } else if (const auto *Cat = dyn_cast<spn::CategoricalLeaf>(N)) {
      Params.insert(Params.end(), Cat->getProbabilities().begin(),
                    Cat->getProbabilities().end());
    } else if (const auto *Gauss = dyn_cast<spn::GaussianLeaf>(N)) {
      Params.push_back(Gauss->getMean());
      Params.push_back(Gauss->getStdDev());
    }
  }
  return Params;
}

ModelCounts spnc::merge::countModel(const spn::Model &Model) {
  ModelCounts Counts;
  for (const spn::Node *N : Model.topologicalOrder()) {
    ++Counts.NumNodes;
    if (const auto *Inner = dyn_cast<spn::InnerNode>(N)) {
      Counts.NumEdges += Inner->getNumChildren();
      if (isa<spn::SumNode>(N)) {
        ++Counts.NumSums;
        Counts.NumParams += Inner->getNumChildren();
      } else {
        ++Counts.NumProducts;
      }
      continue;
    }
    ++Counts.NumLeaves;
    if (const auto *Hist = dyn_cast<spn::HistogramLeaf>(N))
      Counts.NumParams += Hist->getBuckets().size();
    else if (const auto *Cat = dyn_cast<spn::CategoricalLeaf>(N))
      Counts.NumParams += Cat->getProbabilities().size();
    else
      Counts.NumParams += 2;
  }
  return Counts;
}

std::vector<MergeGroup>
spnc::merge::discoverMergeGroups(std::span<const spn::Model *const> Models) {
  std::vector<MergeGroup> Groups;
  std::vector<StructuralSignature> Signatures;
  // Group by full signature, not just the hash: a (vanishingly unlikely)
  // hash collision must not merge non-isomorphic models.
  for (size_t I = 0; I < Models.size(); ++I) {
    if (!Models[I])
      continue;
    StructuralSignature Sig = structuralSignature(*Models[I]);
    bool Placed = false;
    for (size_t G = 0; G < Groups.size(); ++G) {
      if (Signatures[G] == Sig) {
        Groups[G].Members.push_back(I);
        Placed = true;
        break;
      }
    }
    if (!Placed) {
      MergeGroup Group;
      Group.Hash =
          xxh64(Sig.Items.data(), Sig.Items.size() * sizeof(uint64_t));
      Group.Members.push_back(I);
      Groups.push_back(std::move(Group));
      Signatures.push_back(std::move(Sig));
    }
  }
  return Groups;
}
