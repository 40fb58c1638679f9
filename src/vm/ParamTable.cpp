//===- ParamTable.cpp - Weight-table binding of compiled programs ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/ParamTable.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

using namespace spnc;
using namespace spnc::vm;

namespace {

/// Applies \p Transform to a raw model parameter, mirroring codegen.
double transformParam(ParamTransform Transform, double Raw) {
  // Every formula below is the exact arithmetic the code generator runs
  // when it bakes the generating model's constants (Codegen.cpp): the
  // self-binding check compares the results bit-for-bit.
  switch (Transform) {
  case ParamTransform::Identity:
    return Raw;
  case ParamTransform::Log:
    return std::log(Raw);
  case ParamTransform::Reciprocal:
    return 1.0 / Raw;
  case ParamTransform::LogGaussCoefficient:
    return -std::log(Raw) - kLogSqrt2Pi;
  case ParamTransform::LinearGaussCoefficient:
    return kInvSqrt2Pi / Raw;
  }
  return Raw;
}

/// Rewrites the side tables \p Task in place according to \p Sites;
/// \p LogSpace is the program's space.
void bindTaskParams(TaskParams &Task, const std::vector<ParamSite> &Sites,
                    std::span<const double> Raw, bool LogSpace) {
  // Fold sites follow the sites of their leaf, which rewrite its
  // coefficient or bucket values. The leaf's marginal and default values
  // have no site of their own: they restart from the unweighted
  // probability one and zero before the folds are replayed.
  for (const ParamSite &Site : Sites) {
    if (Site.Kind == ParamSlotKind::GaussianFold) {
      Task.Gaussians[Site.Index].MarginalValue = LogSpace ? 0.0 : 1.0;
    } else if (Site.Kind == ParamSlotKind::TableFold) {
      LookupTable &Table = Task.Tables[Site.Index];
      Table.MarginalValue = LogSpace ? 0.0 : 1.0;
      Table.DefaultValue =
          LogSpace ? -std::numeric_limits<double>::infinity() : 0.0;
    }
  }
  for (const ParamSite &Site : Sites) {
    assert(Site.Param < Raw.size() && "parameter index out of range");
    double Value = transformParam(Site.Transform, Raw[Site.Param]);
    switch (Site.Kind) {
    case ParamSlotKind::ConstPool:
      Task.ConstPool[Site.Index] = Value;
      break;
    case ParamSlotKind::GaussianMean:
      Task.Gaussians[Site.Index].Mean = Value;
      break;
    case ParamSlotKind::GaussianInvStdDev:
      Task.Gaussians[Site.Index].InvStdDev = Value;
      break;
    case ParamSlotKind::GaussianCoefficient:
      Task.Gaussians[Site.Index].Coefficient = Value;
      break;
    case ParamSlotKind::TableValue:
      for (uint32_t I = 0; I < Site.Count; ++I)
        Task.Tables[Site.Index].Values[Site.Slot + I] = Value;
      break;
    case ParamSlotKind::SelectValue:
      Task.Selects[Site.Index].Value = Value;
      break;
    case ParamSlotKind::GaussianFold: {
      GaussianParams &G = Task.Gaussians[Site.Index];
      G.Coefficient = foldWeight(LogSpace, G.Coefficient, Value);
      G.MarginalValue = foldWeight(LogSpace, G.MarginalValue, Value);
      break;
    }
    case ParamSlotKind::TableFold: {
      LookupTable &Table = Task.Tables[Site.Index];
      for (double &Slot : Table.Values)
        Slot = foldWeight(LogSpace, Slot, Value);
      Table.DefaultValue = foldWeight(LogSpace, Table.DefaultValue, Value);
      Table.MarginalValue =
          foldWeight(LogSpace, Table.MarginalValue, Value);
      break;
    }
    }
  }
}

} // namespace

std::vector<TaskParams> spnc::vm::bindParams(const KernelProgram &Program,
                                             std::span<const double> Raw) {
  assert(Raw.size() == Program.NumParams &&
         "weight table length must match the program's parameter count");
  std::vector<TaskParams> Bound;
  Bound.reserve(Program.Tasks.size());
  for (const TaskProgram &Task : Program.Tasks) {
    Bound.push_back(Task);
    bindTaskParams(Bound.back(), Task.ParamSites, Raw, Program.LogSpace);
  }
  return Bound;
}

KernelProgram spnc::vm::bindProgram(const KernelProgram &Program,
                                    std::span<const double> Raw) {
  std::vector<TaskParams> Params = bindParams(Program, Raw);
  KernelProgram Bound = Program;
  for (size_t T = 0; T < Bound.Tasks.size(); ++T)
    static_cast<TaskParams &>(Bound.Tasks[T]) = std::move(Params[T]);
  return Bound;
}

namespace {

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}

/// True when the side tables of \p Program and \p Bound (a binding of
/// it) hold the same bits; otherwise describes the first difference in
/// \p Why when provided.
bool sameSideTables(const KernelProgram &Program,
                    const std::vector<TaskParams> &Bound, std::string *Why) {
  auto Fail = [&](const std::string &Message) {
    if (Why)
      *Why = Message;
    return false;
  };
  for (size_t T = 0; T < Program.Tasks.size(); ++T) {
    const TaskParams &A = Program.Tasks[T];
    const TaskParams &B = Bound[T];
    std::string Where = " (task " + std::to_string(T) + ")";
    for (size_t I = 0; I < A.ConstPool.size(); ++I)
      if (!sameBits(A.ConstPool[I], B.ConstPool[I]))
        return Fail("self-binding diverges at const-pool slot " +
                    std::to_string(I) + Where);
    for (size_t I = 0; I < A.Gaussians.size(); ++I)
      if (!sameBits(A.Gaussians[I].Mean, B.Gaussians[I].Mean) ||
          !sameBits(A.Gaussians[I].InvStdDev, B.Gaussians[I].InvStdDev) ||
          !sameBits(A.Gaussians[I].Coefficient,
                    B.Gaussians[I].Coefficient) ||
          !sameBits(A.Gaussians[I].MarginalValue,
                    B.Gaussians[I].MarginalValue))
        return Fail("self-binding diverges at gaussian " +
                    std::to_string(I) + Where);
    for (size_t I = 0; I < A.Tables.size(); ++I) {
      for (size_t J = 0; J < A.Tables[I].Values.size(); ++J)
        if (!sameBits(A.Tables[I].Values[J], B.Tables[I].Values[J]))
          return Fail("self-binding diverges at table " +
                      std::to_string(I) + " slot " + std::to_string(J) +
                      Where);
      if (!sameBits(A.Tables[I].DefaultValue, B.Tables[I].DefaultValue) ||
          !sameBits(A.Tables[I].MarginalValue, B.Tables[I].MarginalValue))
        return Fail("self-binding diverges at table " + std::to_string(I) +
                    " default/marginal value" + Where);
    }
    for (size_t I = 0; I < A.Selects.size(); ++I)
      if (!sameBits(A.Selects[I].Value, B.Selects[I].Value))
        return Fail("self-binding diverges at select " +
                    std::to_string(I) + Where);
  }
  return true;
}

} // namespace

BoundParams spnc::vm::bindIfDifferent(const KernelProgram &Program,
                                      std::span<const double> Raw) {
  std::vector<TaskParams> Bound = bindParams(Program, Raw);
  if (sameSideTables(Program, Bound, nullptr))
    return std::nullopt;
  return Bound;
}

bool spnc::vm::verifySelfBinding(const KernelProgram &Program,
                                 std::span<const double> Raw,
                                 std::string *Why) {
  if (Raw.size() != Program.NumParams) {
    if (Why)
      *Why = "parameter count mismatch: program has " +
             std::to_string(Program.NumParams) + ", model extracts " +
             std::to_string(Raw.size());
    return false;
  }
  return sameSideTables(Program, bindParams(Program, Raw), Why);
}
