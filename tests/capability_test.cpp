//===- capability_test.cpp - Engine x request-kind capability matrix ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table over every engine and every request kind. Each engine
/// fixes at construction which requests it serves: a served cell must
/// match the InterpreterEngine oracle at the 1e-9 the differential
/// suites use (f64 kernels), and every other cell must be refused —
/// `run` returns false and leaves the NaN-filled output buffers
/// untouched. Compiled engines get the kernel compiled for the cell's
/// query kind (for indexed requests, the kernel two isomorphic models
/// share, each with its weight table), so the matrix records what each
/// engine kind can do; a kernel compiled for joint queries must
/// additionally refuse every other kind and unknown weight tables.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "baselines/Baselines.h"
#include "runtime/KernelCache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr double kTolerance = 1e-9;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kRows = 24;
constexpr uint64_t kSeed = 11;

/// The request kinds of the matrix: the four query kinds plus a joint
/// request with per-row weight-table indices.
enum class Cell { Joint, Marginal, Mpe, Sample, Indexed };

const char *cellName(Cell C) {
  switch (C) {
  case Cell::Joint:
    return "joint";
  case Cell::Marginal:
    return "marginal";
  case Cell::Mpe:
    return "mpe";
  case Cell::Sample:
    return "sample";
  case Cell::Indexed:
    return "indexed";
  }
  return "?";
}

constexpr Cell kCells[] = {Cell::Joint, Cell::Marginal, Cell::Mpe,
                           Cell::Sample, Cell::Indexed};

/// Two structurally isomorphic RAT-SPNs (shared structure, different
/// parameters): the second supplies the other weight table of indexed
/// requests.
workloads::RatSpnOptions ratOptions() {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 12;
  Options.Depth = 2;
  Options.Replicas = 2;
  Options.SumsPerRegion = 2;
  Options.LeafDistributions = 3;
  Options.Seed = 5;
  return Options;
}

/// One engine row of the matrix.
struct EngineRow {
  std::string Name;
  /// Compiled engines: compile options and (for cpp) the backend.
  bool Compiled = true;
  CompilerOptions Options;
  std::shared_ptr<const backend::Backend> Backend;
  /// The cells the engine serves.
  std::set<Cell> Served;
  /// Shape of the row's two models.
  workloads::RatSpnOptions Rat = ratOptions();
};

std::vector<EngineRow> engineRows() {
  std::set<Cell> All(std::begin(kCells), std::end(kCells));
  std::set<Cell> NoTables = {Cell::Joint, Cell::Marginal, Cell::Mpe,
                             Cell::Sample};
  std::vector<EngineRow> Rows;
  EngineRow Vm1{"vm_w1", true, {}, nullptr, All};
  Vm1.Options.Execution.VectorWidth = 1;
  Rows.push_back(Vm1);
  EngineRow Vm8{"vm_w8", true, {}, nullptr, All};
  Vm8.Options.Execution.VectorWidth = 8;
  Rows.push_back(Vm8);
  EngineRow Gpu{"gpusim", true, {}, nullptr, All};
  Gpu.Options.TheTarget = Target::GPU;
  Rows.push_back(Gpu);
  backend::CppBackendOptions Fast;
  Fast.ExtraFlags = {"-O0", "-march=native"};
  // Models large enough that every kernel, the shared one included,
  // spans several segment functions and translation units; 8-lane
  // blocks, so the indexed request's runs of three rows are partial
  // blocks.
  EngineRow Cpp{"cpp", true, {},
                std::make_shared<backend::CppBackend>(Fast), All};
  Cpp.Options.Execution.VectorWidth = 8;
  Cpp.Rat.NumFeatures = 32;
  Cpp.Rat.Depth = 3;
  Cpp.Rat.SumsPerRegion = 3;
  Cpp.Rat.LeafDistributions = 4;
  Rows.push_back(Cpp);
  Rows.push_back({"interpreter", false, {}, nullptr, NoTables});
  Rows.push_back({"tfgraph", false, {}, nullptr, {Cell::Joint}});
  return Rows;
}

const EngineRow &rowNamed(const std::string &Name) {
  static const std::vector<EngineRow> Rows = engineRows();
  for (const EngineRow &Row : Rows)
    if (Row.Name == Name)
      return Row;
  ADD_FAILURE() << "no engine row " << Name;
  return Rows.front();
}

class CapabilityMatrixTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    Row = &rowNamed(GetParam());
    if (Row->Backend) {
      std::string Reason;
      if (!Row->Backend->isAvailable(&Reason))
        GTEST_SKIP() << Reason;
    }
    for (unsigned M = 0; M < 2; ++M)
      Models.push_back(workloads::generateRatSpn(Row->Rat, M));
    NumFeatures = Models[0].getNumFeatures();
    Clean = workloads::generateImageData(NumFeatures, 2, kRows, 3, nullptr);
    // Every third feature unobserved: marginalized, completed or drawn.
    Partial = Clean;
    for (size_t I = 0; I < Partial.size(); I += 3)
      Partial[I] = kNaN;
  }

  spn::QueryConfig queryFor(Cell C) const {
    spn::QueryConfig Query;
    Query.DataType = spn::ComputeType::F64;
    if (C == Cell::Marginal)
      Query.Kind = spn::QueryKind::Marginal;
    else if (C == Cell::Mpe)
      Query.Kind = spn::QueryKind::Mpe;
    else if (C == Cell::Sample)
      Query.Kind = spn::QueryKind::Sample;
    return Query;
  }

  /// The engine of this row answering \p C, and the weight-table index
  /// of each model when \p C is indexed and the engine has tables.
  std::shared_ptr<ExecutionEngine> engineFor(Cell C,
                                             std::vector<uint32_t> &Tables) {
    Tables = {0, 0};
    if (!Row->Compiled) {
      if (Row->Name == "interpreter")
        return std::make_shared<baselines::InterpreterEngine>(Models[0]);
      return std::make_shared<baselines::TfGraphEngine>(Models[0]);
    }
    KernelCache::Config Config;
    Config.TheBackend = Row->Backend;
    Caches.push_back(std::make_unique<KernelCache>(Config));
    KernelCache &Cache = *Caches.back();
    if (C == Cell::Indexed && Row->Served.count(Cell::Indexed)) {
      std::shared_ptr<ExecutionEngine> Engine;
      for (size_t M = 0; M < 2; ++M) {
        Expected<KernelCache::MergedKernel> Merged =
            Cache.getOrCompileMerged(Models[M], queryFor(C), Row->Options);
        EXPECT_TRUE(static_cast<bool>(Merged))
            << Merged.getError().message();
        if (!Merged)
          return nullptr;
        Engine = Merged->Kernel.getEngineShared();
        Tables[M] = static_cast<uint32_t>(Merged->TableIndex);
      }
      return Engine;
    }
    // Engines without weight tables get the plain joint kernel for the
    // indexed cell, which they must refuse.
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(Models[0], queryFor(C), Row->Options);
    EXPECT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
    return Kernel ? Kernel->getEngineShared() : nullptr;
  }

  const EngineRow *Row = nullptr;
  std::vector<spn::Model> Models;
  std::vector<std::unique_ptr<KernelCache>> Caches;
  size_t NumFeatures = 0;
  std::vector<double> Clean, Partial;
};

/// The buffers of one request, NaN-filled so a refusal is visible.
struct Buffers {
  std::vector<double> Output, Rows;
  std::vector<uint32_t> TableIndices;
  explicit Buffers(size_t NumFeatures)
      : Output(kRows, kNaN), Rows(kRows * NumFeatures, kNaN) {}

  bool untouched() const {
    for (double X : Output)
      if (!std::isnan(X))
        return false;
    for (double X : Rows)
      if (!std::isnan(X))
        return false;
    return true;
  }
};

RunRequest requestFor(Cell C, const std::vector<double> &Input,
                      Buffers &B) {
  RunRequest Request;
  Request.Input = Input.data();
  Request.Output = B.Output.data();
  Request.NumSamples = kRows;
  switch (C) {
  case Cell::Joint:
  case Cell::Marginal:
    Request.Kind = C == Cell::Joint ? vm::QueryKind::Joint
                                    : vm::QueryKind::Marginal;
    break;
  case Cell::Mpe:
    Request.Kind = vm::QueryKind::Mpe;
    Request.Rows = B.Rows.data();
    break;
  case Cell::Sample:
    Request.Kind = vm::QueryKind::Sample;
    Request.Rows = B.Rows.data();
    Request.Seed = kSeed;
    break;
  case Cell::Indexed:
    Request.TableIndices = B.TableIndices.data();
    break;
  }
  return Request;
}

void expectNear(const std::vector<double> &Got,
                const std::vector<double> &Want, const char *What) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_NEAR(Got[I], Want[I], kTolerance) << What << " [" << I << "]";
}

TEST_P(CapabilityMatrixTest, ServedCellsMatchOracleOthersAreRefused) {
  for (Cell C : kCells) {
    SCOPED_TRACE(Row->Name + " x " + cellName(C));
    std::vector<uint32_t> Tables;
    std::shared_ptr<ExecutionEngine> Engine = engineFor(C, Tables);
    ASSERT_NE(Engine, nullptr);
    if (Row->Backend) {
      size_t Instructions = 0;
      for (const vm::TaskProgram &Task : Engine->getProgram()->Tasks)
        Instructions += Task.Code.size();
      EXPECT_GT(Instructions, 3 * backend::kCppSegmentInstructions);
    }
    const std::vector<double> &Input =
        C == Cell::Joint || C == Cell::Indexed ? Clean : Partial;
    Buffers Got(NumFeatures);
    // Indexed requests alternate between the two models in runs of
    // three rows; the other kinds evaluate the first model.
    for (size_t I = 0; I < kRows; ++I)
      Got.TableIndices.push_back(Tables[(I / 3) % 2]);
    bool Served = Engine->run(requestFor(C, Input, Got));
    bool ShouldServe = Row->Served.count(C) != 0;
    EXPECT_EQ(Served, ShouldServe) << Engine->describe();
    if (!Served) {
      EXPECT_TRUE(Got.untouched()) << "a refused request wrote output";
      continue;
    }

    // The oracle answers the same request per model.
    std::vector<Buffers> Want;
    for (size_t M = 0; M < 2; ++M) {
      Want.emplace_back(NumFeatures);
      baselines::InterpreterEngine Oracle(Models[M]);
      RunRequest Request = requestFor(C, Input, Want.back());
      Request.TableIndices = nullptr;
      ASSERT_TRUE(Oracle.run(Request));
    }
    if (C == Cell::Indexed) {
      for (size_t I = 0; I < kRows; ++I)
        EXPECT_NEAR(Got.Output[I], Want[(I / 3) % 2].Output[I], kTolerance)
            << "row " << I;
      continue;
    }
    if (C != Cell::Sample)
      expectNear(Got.Output, Want[0].Output, "log-probability");
    if (C == Cell::Mpe || C == Cell::Sample)
      expectNear(Got.Rows, Want[0].Rows, "row");
  }
}

/// The compiled engines: a kernel serves the kind it was compiled for.
class CompiledKernelTest : public CapabilityMatrixTest {};

TEST_P(CompiledKernelTest, JointKernelRefusesOtherKinds) {
  std::vector<uint32_t> Tables;
  std::shared_ptr<ExecutionEngine> Engine = engineFor(Cell::Joint, Tables);
  ASSERT_NE(Engine, nullptr);
  for (Cell C : kCells) {
    // Every joint kernel takes weight tables: the indexed cell is served
    // for registered tables and refused for unknown ones.
    if (C == Cell::Joint)
      continue;
    SCOPED_TRACE(Row->Name + " joint kernel x " + cellName(C));
    Buffers Got(NumFeatures);
    Got.TableIndices.assign(kRows, C == Cell::Indexed ? 99 : 0);
    EXPECT_FALSE(Engine->run(requestFor(C, Partial, Got)));
    EXPECT_TRUE(Got.untouched());
  }
  // A known kind without the buffer it writes is refused too.
  Buffers Got(NumFeatures);
  RunRequest Request = requestFor(Cell::Joint, Clean, Got);
  Request.Output = nullptr;
  EXPECT_FALSE(Engine->run(Request));
}

std::string paramName(const ::testing::TestParamInfo<std::string> &Info) {
  return Info.param;
}

INSTANTIATE_TEST_SUITE_P(Engines, CapabilityMatrixTest,
                         ::testing::Values("vm_w1", "vm_w8", "gpusim", "cpp",
                                           "interpreter", "tfgraph"),
                         paramName);
INSTANTIATE_TEST_SUITE_P(Engines, CompiledKernelTest,
                         ::testing::Values("vm_w1", "vm_w8", "gpusim", "cpp"),
                         paramName);

} // namespace
