//===- Traceback.h - Downward traceback for MPE and sampling ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The downward pass of the MPE and ancestral-sampling query kinds, the
/// one copy every compiled engine runs (vm::CpuExecutor,
/// gpusim::GpuExecutor and the cpp backend's native kernels, whose
/// shared objects hold only the upward pass). An engine hands
/// `completeRows` its per-row upward pass; after the upward pass of one
/// sample has filled the task's register file, `runTraceback` walks the
/// program's `TracebackPlan` from the root, descending the argmax child
/// at each sum-combine (MPE; ties go to the lowest child index via the
/// left-associative chain) or a posterior-weighted random child
/// (sampling), and writes one value per feature into the output row
/// (docs/queries.md).
///
/// The sampling RNG contract is part of the reproducibility guarantee:
/// sample I of a batch uses `Rng(perSampleSeed(Seed, I))`, every Choice
/// node consumes exactly one uniform (even when a branch is forced by a
/// zero-probability sibling), and unobserved leaves draw via a CDF walk
/// (one uniform) or the cache-free Box-Muller cosine branch (two
/// uniforms). A fixed seed therefore reproduces bit-identical samples
/// regardless of batch splitting, and engines whose upward registers
/// agree draw the same rows.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_TRACEBACK_H
#define SPNC_VM_TRACEBACK_H

#include "runtime/ExecutionEngine.h"
#include "support/Random.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace spnc {
namespace vm {

/// Derives the per-sample RNG seed: decorrelates consecutive sample
/// indices while staying independent of how a batch is chunked.
inline uint64_t perSampleSeed(uint64_t Seed, uint64_t SampleIdx) {
  return Seed ^ (0x9e3779b97f4a7c15ULL * (SampleIdx + 1));
}

/// Cache-free standard normal draw: Box-Muller cosine branch, exactly
/// two uniforms per call. Deliberately not Rng::normal(), whose cached
/// second sample would make the stream depend on draw parity.
inline double drawStandardNormal(Rng &R) {
  double U1 = 1.0 - R.uniform(); // avoid log(0)
  double U2 = R.uniform();
  return std::sqrt(-2.0 * std::log(U1)) *
         std::cos(2.0 * 3.14159265358979323846 * U2);
}

/// Draws a bucket from (lb, ub, mass) triples by a single-uniform CDF
/// walk and returns its lower bound (the representative value of the
/// discrete bucket). Masses need not sum to 1; the walk normalizes.
inline double drawTableBucket(const double *Triples, uint32_t Count,
                              Rng &R) {
  double Total = 0.0;
  for (uint32_t I = 0; I < Count; ++I)
    Total += Triples[3 * I + 2];
  double U = R.uniform() * Total;
  double Acc = 0.0;
  for (uint32_t I = 0; I < Count; ++I) {
    Acc += Triples[3 * I + 2];
    if (U < Acc)
      return Triples[3 * I];
  }
  // Rounding fallthrough: return the last bucket with positive mass.
  for (uint32_t I = Count; I > 0; --I)
    if (Triples[3 * (I - 1) + 2] > 0.0)
      return Triples[3 * (I - 1)];
  return 0.0;
}

/// Runs the downward pass for one sample. \p Registers is the task's
/// register file after the upward pass of the same sample; \p Evidence
/// is the sample's feature row (NaN = unobserved); \p Out receives one
/// value per feature (only features in the model's scope are written —
/// callers pre-fill rows when features can be missing). \p Kind selects
/// MPE (argmax descent, no RNG use) or sampling; \p Stack is caller
/// scratch to avoid per-sample allocation.
template <typename T>
inline void runTraceback(const TracebackPlan &Plan, const T *Registers,
                         const double *Evidence, double *Out,
                         bool LogSpace, QueryKind Kind, Rng &R,
                         std::vector<int32_t> &Stack) {
  const bool Sampling = Kind == QueryKind::Sample;
  Stack.clear();
  Stack.push_back(Plan.Root);
  while (!Stack.empty()) {
    const PlanNode &N = Plan.Nodes[static_cast<size_t>(Stack.back())];
    Stack.pop_back();
    switch (N.Kind) {
    case PlanNodeKind::Choice: {
      double VA = static_cast<double>(Registers[N.RegA]);
      double VB = static_cast<double>(Registers[N.RegB]);
      bool TakeB;
      if (Sampling) {
        // Posterior branch probability of B; -1 forces branch A when
        // both children carry zero mass (ties resolve low, like MPE).
        double PB = -1.0;
        if (LogSpace) {
          double Hi = VA >= VB ? VA : VB;
          double Lo = VA >= VB ? VB : VA;
          if (!(std::isinf(Hi) && Hi < 0.0)) {
            double Total = Hi + std::log1p(std::exp(Lo - Hi));
            PB = std::exp(VB - Total);
          }
        } else {
          double Total = VA + VB;
          if (Total > 0.0)
            PB = VB / Total;
        }
        // Exactly one uniform per Choice, drawn unconditionally, so the
        // stream never depends on degenerate branch weights.
        TakeB = R.uniform() < PB;
      } else {
        // MPE: descend left on ties -> lowest child index overall.
        TakeB = VB > VA;
      }
      Stack.push_back(TakeB ? N.B : N.A);
      break;
    }
    case PlanNodeKind::Both:
      Stack.push_back(N.B);
      Stack.push_back(N.A);
      break;
    case PlanNodeKind::Pass:
      Stack.push_back(N.A);
      break;
    case PlanNodeKind::LeafTable: {
      double E = Evidence[N.Feature];
      if (!std::isnan(E))
        Out[N.Feature] = E;
      else if (Sampling)
        Out[N.Feature] = drawTableBucket(
            Plan.Buckets.data() + N.TableBegin, N.TableCount, R);
      else
        Out[N.Feature] = N.Mode;
      break;
    }
    case PlanNodeKind::LeafGaussian: {
      double E = Evidence[N.Feature];
      if (!std::isnan(E))
        Out[N.Feature] = E;
      else if (Sampling)
        Out[N.Feature] = N.Mean + N.StdDev * drawStandardNormal(R);
      else
        Out[N.Feature] = N.Mode;
      break;
    }
    }
  }
}

/// Answers the MPE or sampling \p Request for \p Program, a single-task
/// program with a traceback plan, from an engine's upward pass:
/// \p Upward(I, Registers) runs the upward pass of row I into
/// \p Registers (T, the program's compute type) and writes the row's
/// root value to \p Up[I]. Per row, the evidence is copied into the
/// output row first, so features outside the model's scope echo their
/// observed values (NaN when unobserved); then the row's RNG is seeded
/// and the traceback completes it. An MPE request that asks for them
/// gets the root values in Output as log-probabilities, also when the
/// program computes in linear space.
template <typename T, typename UpwardFn>
void completeRows(const KernelProgram &Program,
                  const runtime::RunRequest &Request, const double *Up,
                  UpwardFn &&Upward) {
  uint32_t NumFeatures = 1;
  for (const BufferInfo &Info : Program.Buffers)
    if (Info.Role == BufferInfo::Kind::Input)
      NumFeatures = Info.Columns;
  std::vector<T> Registers(Program.Tasks[0].NumRegisters);
  std::vector<int32_t> Stack;
  for (size_t I = 0; I < Request.NumSamples; ++I) {
    Upward(I, Registers.data());
    const double *Row = Request.Input + I * NumFeatures;
    double *OutRow = Request.Rows + I * NumFeatures;
    std::copy(Row, Row + NumFeatures, OutRow);
    Rng R(perSampleSeed(Request.Seed, I));
    runTraceback(Program.Plan, Registers.data(), Row, OutRow,
                 Program.LogSpace, Request.Kind, R, Stack);
  }
  if (Request.Kind == QueryKind::Mpe && Request.Output)
    for (size_t I = 0; I < Request.NumSamples; ++I)
      Request.Output[I] = Program.LogSpace ? Up[I] : std::log(Up[I]);
}

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_TRACEBACK_H
