//===- Serializer.cpp - Binary SPN model serialization -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/Serializer.h"

#include "support/ByteStream.h"
#include "support/Compiler.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace spnc;
using namespace spnc::spn;

namespace {

constexpr uint32_t kMagic = 0x424e5053; // "SPNB" little-endian
constexpr uint32_t kVersion = 1;

} // namespace

std::vector<uint8_t> spnc::spn::serializeModel(const Model &TheModel) {
  ByteWriter W;
  W.u32(kMagic);
  W.u32(kVersion);
  W.u32(TheModel.getNumFeatures());
  W.str(TheModel.getName());

  // Emit nodes in topological order so children precede parents and
  // child references can use positions in the emitted table.
  std::vector<Node *> Order = TheModel.topologicalOrder();
  std::unordered_map<const Node *, uint32_t> Position;
  W.u32(static_cast<uint32_t>(Order.size()));
  W.u32(static_cast<uint32_t>(Order.size()) - 1); // root is last
  for (Node *Current : Order) {
    Position[Current] = static_cast<uint32_t>(Position.size());
    W.u8(static_cast<uint8_t>(Current->getKind()));
    switch (Current->getKind()) {
    case NodeKind::Sum: {
      const auto *Sum = cast<SumNode>(Current);
      W.u32(static_cast<uint32_t>(Sum->getNumChildren()));
      for (Node *Child : Sum->getChildren())
        W.u32(Position.at(Child));
      W.f64Vec(Sum->getWeights());
      break;
    }
    case NodeKind::Product: {
      const auto *Product = cast<ProductNode>(Current);
      W.u32(static_cast<uint32_t>(Product->getNumChildren()));
      for (Node *Child : Product->getChildren())
        W.u32(Position.at(Child));
      break;
    }
    case NodeKind::Histogram: {
      const auto *Leaf = cast<HistogramLeaf>(Current);
      W.u32(Leaf->getFeatureIndex());
      W.f64Vec(Leaf->getFlatBuckets());
      break;
    }
    case NodeKind::Categorical: {
      const auto *Leaf = cast<CategoricalLeaf>(Current);
      W.u32(Leaf->getFeatureIndex());
      W.f64Vec(Leaf->getProbabilities());
      break;
    }
    case NodeKind::Gaussian: {
      const auto *Leaf = cast<GaussianLeaf>(Current);
      W.u32(Leaf->getFeatureIndex());
      W.f64(Leaf->getMean());
      W.f64(Leaf->getStdDev());
      break;
    }
    }
  }
  return W.take();
}

Expected<Model> spnc::spn::deserializeModel(
    std::span<const uint8_t> Buffer) {
  ByteReader R(Buffer);
  if (R.u32() != kMagic)
    return makeError("not an SPNB model (bad magic)");
  uint32_t Version = R.u32();
  if (Version != kVersion)
    return makeError(formatString("unsupported SPNB version %u", Version));
  uint32_t NumFeatures = R.u32();
  std::string Name = R.str();
  uint32_t NumNodes = R.u32();
  uint32_t RootId = R.u32();
  if (R.bad())
    return makeError("truncated SPNB header");
  if (RootId >= NumNodes)
    return makeError("root id out of range");

  Model TheModel(NumFeatures, std::move(Name));
  std::vector<Node *> ByPosition;
  ByPosition.reserve(NumNodes);

  auto ReadChildren = [&](std::vector<Node *> &Children) {
    uint32_t Count = R.u32();
    for (uint32_t I = 0; I < Count && !R.bad(); ++I) {
      uint32_t ChildPos = R.u32();
      if (ChildPos >= ByPosition.size()) {
        return false;
      }
      Children.push_back(ByPosition[ChildPos]);
    }
    return !R.bad();
  };

  for (uint32_t I = 0; I < NumNodes; ++I) {
    auto Kind = static_cast<NodeKind>(R.u8());
    if (R.bad())
      return makeError("truncated SPNB node table");
    switch (Kind) {
    case NodeKind::Sum: {
      std::vector<Node *> Children;
      if (!ReadChildren(Children))
        return makeError("invalid sum children");
      std::vector<double> Weights = R.f64Vec();
      if (Weights.size() != Children.size())
        return makeError("sum weight/child count mismatch");
      ByPosition.push_back(
          TheModel.makeSum(std::move(Children), std::move(Weights)));
      break;
    }
    case NodeKind::Product: {
      std::vector<Node *> Children;
      if (!ReadChildren(Children))
        return makeError("invalid product children");
      ByPosition.push_back(TheModel.makeProduct(std::move(Children)));
      break;
    }
    case NodeKind::Histogram: {
      uint32_t Feature = R.u32();
      std::vector<double> Flat = R.f64Vec();
      if (R.bad() || Flat.size() % 3 != 0 || Feature >= NumFeatures)
        return makeError("invalid histogram leaf");
      std::vector<HistogramBucket> Buckets;
      Buckets.reserve(Flat.size() / 3);
      for (size_t J = 0; J < Flat.size(); J += 3)
        Buckets.push_back(
            HistogramBucket{Flat[J], Flat[J + 1], Flat[J + 2]});
      ByPosition.push_back(
          TheModel.makeHistogram(Feature, std::move(Buckets)));
      break;
    }
    case NodeKind::Categorical: {
      uint32_t Feature = R.u32();
      std::vector<double> Probabilities = R.f64Vec();
      if (R.bad() || Feature >= NumFeatures)
        return makeError("invalid categorical leaf");
      ByPosition.push_back(
          TheModel.makeCategorical(Feature, std::move(Probabilities)));
      break;
    }
    case NodeKind::Gaussian: {
      uint32_t Feature = R.u32();
      double Mean = R.f64();
      double StdDev = R.f64();
      if (R.bad() || Feature >= NumFeatures)
        return makeError("invalid gaussian leaf");
      ByPosition.push_back(TheModel.makeGaussian(Feature, Mean, StdDev));
      break;
    }
    default:
      return makeError(formatString("unknown node kind %u",
                                    static_cast<unsigned>(Kind)));
    }
    if (std::string Why = checkNodeParams(*ByPosition.back()); !Why.empty())
      return makeError("invalid SPNB node: " + Why);
  }
  if (R.bad() || !R.atEnd())
    return makeError("malformed SPNB payload");
  TheModel.setRoot(ByPosition[RootId]);
  return TheModel;
}

LogicalResult spnc::spn::saveModel(const Model &TheModel,
                                   const std::string &Path,
                                   std::string *ErrorMessage) {
  return replaceFileAtomically(Path, asChars(serializeModel(TheModel)),
                               ErrorMessage);
}

Expected<Model> spnc::spn::loadModel(const std::string &Path) {
  Expected<std::string> Bytes = readWholeFile(Path);
  if (!Bytes)
    return Bytes.getError();
  return deserializeModel(asBytes(*Bytes));
}
