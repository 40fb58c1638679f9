//===- Serializer.cpp - Binary SPN model serialization -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/Serializer.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>

using namespace spnc;
using namespace spnc::spn;

namespace {

constexpr uint32_t kMagic = 0x424e5053; // "SPNB" little-endian
constexpr uint32_t kVersion = 1;

/// Append-only little-endian byte writer.
class Writer {
public:
  std::vector<uint8_t> take() { return std::move(Bytes); }

  void writeU8(uint8_t Value) { Bytes.push_back(Value); }
  void writeU32(uint32_t Value) { writeRaw(&Value, sizeof(Value)); }
  void writeF64(double Value) { writeRaw(&Value, sizeof(Value)); }
  void writeString(const std::string &Value) {
    writeU32(static_cast<uint32_t>(Value.size()));
    writeRaw(Value.data(), Value.size());
  }
  void writeF64Array(std::span<const double> Values) {
    writeU32(static_cast<uint32_t>(Values.size()));
    for (double Value : Values)
      writeF64(Value);
  }

private:
  void writeRaw(const void *Data, size_t Size) {
    const auto *Begin = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), Begin, Begin + Size);
  }

  std::vector<uint8_t> Bytes;
};

/// Bounds-checked little-endian byte reader.
class Reader {
public:
  explicit Reader(std::span<const uint8_t> Buffer) : Buffer(Buffer) {}

  bool hadError() const { return Error; }
  bool atEnd() const { return Offset == Buffer.size(); }

  uint8_t readU8() {
    uint8_t Value = 0;
    readRaw(&Value, sizeof(Value));
    return Value;
  }
  uint32_t readU32() {
    uint32_t Value = 0;
    readRaw(&Value, sizeof(Value));
    return Value;
  }
  double readF64() {
    double Value = 0;
    readRaw(&Value, sizeof(Value));
    return Value;
  }
  std::string readString() {
    uint32_t Size = readU32();
    if (Error || Buffer.size() - Offset < Size) {
      Error = true;
      return {};
    }
    std::string Value(reinterpret_cast<const char *>(&Buffer[Offset]),
                      Size);
    Offset += Size;
    return Value;
  }
  std::vector<double> readF64Array() {
    uint32_t Size = readU32();
    if (Error || (Buffer.size() - Offset) / sizeof(double) < Size) {
      Error = true;
      return {};
    }
    std::vector<double> Values(Size);
    for (double &Value : Values)
      Value = readF64();
    return Values;
  }

private:
  void readRaw(void *Data, size_t Size) {
    if (Error || Buffer.size() - Offset < Size) {
      Error = true;
      std::memset(Data, 0, Size);
      return;
    }
    std::memcpy(Data, &Buffer[Offset], Size);
    Offset += Size;
  }

  std::span<const uint8_t> Buffer;
  size_t Offset = 0;
  bool Error = false;
};

} // namespace

std::vector<uint8_t> spnc::spn::serializeModel(const Model &TheModel) {
  Writer W;
  W.writeU32(kMagic);
  W.writeU32(kVersion);
  W.writeU32(TheModel.getNumFeatures());
  W.writeString(TheModel.getName());

  // Emit nodes in topological order so children precede parents and
  // child references can use positions in the emitted table.
  std::vector<Node *> Order = TheModel.topologicalOrder();
  std::unordered_map<const Node *, uint32_t> Position;
  W.writeU32(static_cast<uint32_t>(Order.size()));
  W.writeU32(static_cast<uint32_t>(Order.size()) - 1); // root is last
  for (Node *Current : Order) {
    Position[Current] = static_cast<uint32_t>(Position.size());
    W.writeU8(static_cast<uint8_t>(Current->getKind()));
    switch (Current->getKind()) {
    case NodeKind::Sum: {
      const auto *Sum = cast<SumNode>(Current);
      W.writeU32(static_cast<uint32_t>(Sum->getNumChildren()));
      for (Node *Child : Sum->getChildren())
        W.writeU32(Position.at(Child));
      W.writeF64Array(Sum->getWeights());
      break;
    }
    case NodeKind::Product: {
      const auto *Product = cast<ProductNode>(Current);
      W.writeU32(static_cast<uint32_t>(Product->getNumChildren()));
      for (Node *Child : Product->getChildren())
        W.writeU32(Position.at(Child));
      break;
    }
    case NodeKind::Histogram: {
      const auto *Leaf = cast<HistogramLeaf>(Current);
      W.writeU32(Leaf->getFeatureIndex());
      W.writeF64Array(Leaf->getFlatBuckets());
      break;
    }
    case NodeKind::Categorical: {
      const auto *Leaf = cast<CategoricalLeaf>(Current);
      W.writeU32(Leaf->getFeatureIndex());
      W.writeF64Array(Leaf->getProbabilities());
      break;
    }
    case NodeKind::Gaussian: {
      const auto *Leaf = cast<GaussianLeaf>(Current);
      W.writeU32(Leaf->getFeatureIndex());
      W.writeF64(Leaf->getMean());
      W.writeF64(Leaf->getStdDev());
      break;
    }
    }
  }
  return W.take();
}

Expected<Model> spnc::spn::deserializeModel(
    std::span<const uint8_t> Buffer) {
  Reader R(Buffer);
  if (R.readU32() != kMagic)
    return makeError("not an SPNB model (bad magic)");
  uint32_t Version = R.readU32();
  if (Version != kVersion)
    return makeError(formatString("unsupported SPNB version %u", Version));
  uint32_t NumFeatures = R.readU32();
  std::string Name = R.readString();
  uint32_t NumNodes = R.readU32();
  uint32_t RootId = R.readU32();
  if (R.hadError())
    return makeError("truncated SPNB header");
  if (RootId >= NumNodes)
    return makeError("root id out of range");

  Model TheModel(NumFeatures, std::move(Name));
  std::vector<Node *> ByPosition;
  ByPosition.reserve(NumNodes);

  auto ReadChildren = [&](std::vector<Node *> &Children) {
    uint32_t Count = R.readU32();
    for (uint32_t I = 0; I < Count && !R.hadError(); ++I) {
      uint32_t ChildPos = R.readU32();
      if (ChildPos >= ByPosition.size()) {
        return false;
      }
      Children.push_back(ByPosition[ChildPos]);
    }
    return !R.hadError();
  };

  for (uint32_t I = 0; I < NumNodes; ++I) {
    auto Kind = static_cast<NodeKind>(R.readU8());
    if (R.hadError())
      return makeError("truncated SPNB node table");
    switch (Kind) {
    case NodeKind::Sum: {
      std::vector<Node *> Children;
      if (!ReadChildren(Children))
        return makeError("invalid sum children");
      std::vector<double> Weights = R.readF64Array();
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
      uint32_t Feature = R.readU32();
      std::vector<double> Flat = R.readF64Array();
      if (R.hadError() || Flat.size() % 3 != 0 || Feature >= NumFeatures)
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
      uint32_t Feature = R.readU32();
      std::vector<double> Probabilities = R.readF64Array();
      if (R.hadError() || Feature >= NumFeatures)
        return makeError("invalid categorical leaf");
      ByPosition.push_back(
          TheModel.makeCategorical(Feature, std::move(Probabilities)));
      break;
    }
    case NodeKind::Gaussian: {
      uint32_t Feature = R.readU32();
      double Mean = R.readF64();
      double StdDev = R.readF64();
      if (R.hadError() || Feature >= NumFeatures)
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
  if (R.hadError() || !R.atEnd())
    return makeError("malformed SPNB payload");
  TheModel.setRoot(ByPosition[RootId]);
  return TheModel;
}

LogicalResult spnc::spn::saveModel(const Model &TheModel,
                                   const std::string &Path) {
  std::vector<uint8_t> Bytes = serializeModel(TheModel);
  // Like saveCompiledKernel: write a temporary sibling and rename it
  // into place, so an interrupted write never leaves a truncated .spnb
  // at Path.
  std::string TempPath = Path + ".tmp";
  std::FILE *File = std::fopen(TempPath.c_str(), "wb");
  if (!File)
    return failure();
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  bool Flushed = std::fclose(File) == 0;
  if (Written != Bytes.size() || !Flushed ||
      std::rename(TempPath.c_str(), Path.c_str()) != 0) {
    std::remove(TempPath.c_str());
    return failure();
  }
  return success();
}

Expected<Model> spnc::spn::loadModel(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return makeError(formatString("cannot open '%s'", Path.c_str()));
  std::vector<uint8_t> Bytes;
  uint8_t Chunk[4096];
  size_t Read;
  while ((Read = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Bytes.insert(Bytes.end(), Chunk, Chunk + Read);
  bool ReadError = std::ferror(File) != 0;
  std::fclose(File);
  if (ReadError)
    return makeError(formatString("cannot read '%s'", Path.c_str()));
  return deserializeModel(Bytes);
}
