//===- Executor.cpp - Scalar and SIMD bytecode execution engines --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/Executor.h"

#include "support/Compiler.h"
#include "support/ThreadPool.h"
#include "vm/ParamTable.h"
#include "vm/Traceback.h"
#include "vm/VecMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

using namespace spnc;
using namespace spnc::vm;

// Opaque libm entry points (see VecMath.h). Plain wrappers keep the
// addresses stable regardless of how the standard library spells the
// overloads.
static float libmExpF(float X) { return std::exp(X); }
static float libmLog1pF(float X) { return std::log1p(X); }
static float libmLogF(float X) { return std::log(X); }
static double libmExpD(double X) { return std::exp(X); }
static double libmLog1pD(double X) { return std::log1p(X); }
static double libmLogD(double X) { return std::log(X); }

float (*const volatile spnc::vm::ScalarExpF)(float) = &libmExpF;
float (*const volatile spnc::vm::ScalarLog1pF)(float) = &libmLog1pF;
float (*const volatile spnc::vm::ScalarLogF)(float) = &libmLogF;
double (*const volatile spnc::vm::ScalarExpD)(double) = &libmExpD;
double (*const volatile spnc::vm::ScalarLog1pD)(double) = &libmLog1pD;
double (*const volatile spnc::vm::ScalarLogD)(double) = &libmLogD;

//===----------------------------------------------------------------------===//
// Buffer addressing
//===----------------------------------------------------------------------===//

template <typename T>
static SPNC_ALWAYS_INLINE size_t elementIndex(const BufferBinding<T> &B,
                                              uint32_t Col, size_t I) {
  return B.Transposed
             ? static_cast<size_t>(Col) * B.Stride + B.Offset + I
             : (B.Offset + I) * B.Columns + Col;
}

template <typename T>
static SPNC_ALWAYS_INLINE T loadElement(const BufferBinding<T> &B,
                                        uint32_t Col, size_t I) {
  size_t Idx = elementIndex(B, Col, I);
  if (B.ExternalIn)
    return static_cast<T>(B.ExternalIn[Idx]);
  if (B.Scratch)
    return B.Scratch[Idx];
  return static_cast<T>(B.ExternalOut[Idx]);
}

template <typename T>
static SPNC_ALWAYS_INLINE void storeElement(const BufferBinding<T> &B,
                                            uint32_t Col, size_t I,
                                            T Value) {
  size_t Idx = elementIndex(B, Col, I);
  if (B.Scratch)
    B.Scratch[Idx] = Value;
  else
    B.ExternalOut[Idx] = static_cast<double>(Value);
}

template <typename T>
BoundBuffers<T> spnc::vm::bindBuffers(const KernelProgram &Program,
                                      const double *Input, double *Output,
                                      size_t TotalSamples, size_t Begin,
                                      size_t End) {
  size_t ChunkLen = End - Begin;
  BoundBuffers<T> Bound;
  Bound.Bindings.resize(Program.Buffers.size());
  Bound.Intermediates.resize(Program.Buffers.size());
  for (size_t I = 0; I < Program.Buffers.size(); ++I) {
    const BufferInfo &Info = Program.Buffers[I];
    BufferBinding<T> &B = Bound.Bindings[I];
    B.Columns = Info.Columns;
    B.Transposed = Info.Transposed;
    switch (Info.Role) {
    case BufferInfo::Kind::Input:
      B.ExternalIn = Input;
      B.Stride = TotalSamples;
      B.Offset = Begin;
      break;
    case BufferInfo::Kind::Output:
      B.ExternalOut = Output;
      B.Stride = TotalSamples;
      B.Offset = Begin;
      break;
    case BufferInfo::Kind::Intermediate:
      Bound.Intermediates[I].resize(static_cast<size_t>(Info.Columns) *
                                    ChunkLen);
      B.Scratch = Bound.Intermediates[I].data();
      B.Stride = ChunkLen;
      B.Offset = 0;
      break;
    }
  }
  return Bound;
}

template BoundBuffers<float>
spnc::vm::bindBuffers<float>(const KernelProgram &, const double *,
                             double *, size_t, size_t, size_t);
template BoundBuffers<double>
spnc::vm::bindBuffers<double>(const KernelProgram &, const double *,
                              double *, size_t, size_t, size_t);

template <typename T>
void spnc::vm::interpretRows(const KernelProgram &Program,
                             const runtime::RunRequest &Request) {
  size_t N = Request.NumSamples;
  std::vector<double> Up(N);
  BoundBuffers<T> Bound =
      bindBuffers<T>(Program, Request.Input, Up.data(), N, 0, N);
  completeRows<T>(Program, Request, Up.data(), [&](size_t I, T *Registers) {
    interpretSample(Program.Tasks[0], Program.Tasks[0],
                    Bound.Bindings.data(), I, Registers);
  });
}

template void spnc::vm::interpretRows<float>(const KernelProgram &,
                                             const runtime::RunRequest &);
template void spnc::vm::interpretRows<double>(const KernelProgram &,
                                              const runtime::RunRequest &);

//===----------------------------------------------------------------------===//
// Scalar engine
//===----------------------------------------------------------------------===//

template <typename T>
static SPNC_ALWAYS_INLINE T scalarLogSumExp(T A, T B) {
  T Max = A > B ? A : B;
  if (Max == -std::numeric_limits<T>::infinity())
    return Max;
  T Diff = (A > B ? B : A) - Max;
  return Max + static_cast<T>(
                   std::log1p(std::exp(static_cast<double>(Diff))));
}

template <typename T>
void spnc::vm::interpretSample(const TaskProgram &Task,
                               const TaskParams &Params,
                               const BufferBinding<T> *Buffers,
                               size_t SampleIdx, T *Registers) {
  const T NegInf = -std::numeric_limits<T>::infinity();
  (void)NegInf;
  const Instruction *Inst = Task.Code.data();
  const Instruction *End = Inst + Task.Code.size();

#if defined(__GNUC__) || defined(__clang__)
  // Direct-threaded dispatch: one indirect branch per instruction,
  // predicted per-opcode-site instead of through a single shared switch
  // branch. This stands in for the dispatch-free native code the paper's
  // LLVM backend emits.
  static const void *JumpTable[] = {
      &&op_Const,       &&op_Load,          &&op_Store,
      &&op_Add,         &&op_Mul,           &&op_FusedMulAdd,
      &&op_LogSumExp,   &&op_Gaussian,      &&op_GaussianLog,
      &&op_TableLookup, &&op_SelectInRange, &&op_NanBlend,
      &&op_AddN,        &&op_MulN,          &&op_LogSumExpN,
      &&op_Max};
#define SPNC_DISPATCH()                                                     \
  do {                                                                      \
    if (Inst == End)                                                        \
      return;                                                               \
    goto *JumpTable[static_cast<unsigned>((Inst++)->Op)];                   \
  } while (0)
#define SPNC_CASE(name) op_##name:
#define SPNC_INST (Inst[-1])
#define SPNC_NEXT() SPNC_DISPATCH()
  SPNC_DISPATCH();
#else
#define SPNC_CASE(name) case OpCode::name:
#define SPNC_INST (*Inst)
#define SPNC_NEXT() break
  for (; Inst != End; ++Inst) {
    switch (Inst->Op) {
#endif

  SPNC_CASE(Const) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = static_cast<T>(Params.ConstPool[I.A]);
    SPNC_NEXT();
  }
  SPNC_CASE(Load) {
    const Instruction &I = SPNC_INST;
    const BufferAccess &Access = Task.Loads[I.A];
    Registers[I.Dst] =
        loadElement(Buffers[Access.Buffer], Access.Index, SampleIdx);
    SPNC_NEXT();
  }
  SPNC_CASE(Store) {
    const Instruction &I = SPNC_INST;
    const BufferAccess &Access = Task.Stores[I.A];
    storeElement(Buffers[Access.Buffer], Access.Index, SampleIdx,
                 Registers[I.Dst]);
    SPNC_NEXT();
  }
  SPNC_CASE(Add) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = Registers[I.A] + Registers[I.B];
    SPNC_NEXT();
  }
  SPNC_CASE(Mul) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = Registers[I.A] * Registers[I.B];
    SPNC_NEXT();
  }
  SPNC_CASE(FusedMulAdd) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] =
        Registers[I.A] * Registers[I.B] + Registers[I.C];
    SPNC_NEXT();
  }
  SPNC_CASE(LogSumExp) {
    const Instruction &I = SPNC_INST;
    Registers[I.Dst] = scalarLogSumExp(Registers[I.A], Registers[I.B]);
    SPNC_NEXT();
  }
  SPNC_CASE(Gaussian) {
    const Instruction &I = SPNC_INST;
    const GaussianParams &P = Params.Gaussians[I.B];
    T X = Registers[I.A];
    if (P.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(P.MarginalValue);
    } else {
      T Norm = (X - static_cast<T>(P.Mean)) * static_cast<T>(P.InvStdDev);
      Registers[I.Dst] =
          static_cast<T>(P.Coefficient) *
          static_cast<T>(std::exp(static_cast<double>(T(-0.5) * Norm * Norm)));
    }
    SPNC_NEXT();
  }
  SPNC_CASE(GaussianLog) {
    const Instruction &I = SPNC_INST;
    const GaussianParams &P = Params.Gaussians[I.B];
    T X = Registers[I.A];
    if (P.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(P.MarginalValue);
    } else {
      T Norm = (X - static_cast<T>(P.Mean)) * static_cast<T>(P.InvStdDev);
      Registers[I.Dst] =
          static_cast<T>(P.Coefficient) - T(0.5) * Norm * Norm;
    }
    SPNC_NEXT();
  }
  SPNC_CASE(TableLookup) {
    const Instruction &I = SPNC_INST;
    const LookupTable &Table = Params.Tables[I.B];
    T X = Registers[I.A];
    if (Table.SupportMarginal && std::isnan(X)) {
      Registers[I.Dst] = static_cast<T>(Table.MarginalValue);
    } else {
      auto Idx = static_cast<int64_t>(
          std::floor(static_cast<double>(X) - Table.Lo));
      Registers[I.Dst] =
          (Idx >= 0 && Idx < static_cast<int64_t>(Table.Values.size()))
              ? static_cast<T>(Table.Values[static_cast<size_t>(Idx)])
              : static_cast<T>(Table.DefaultValue);
    }
    SPNC_NEXT();
  }
  SPNC_CASE(SelectInRange) {
    const Instruction &I = SPNC_INST;
    const SelectRange &Range = Params.Selects[I.B];
    T X = Registers[I.A];
    // NaN compares false, so marginalized evidence keeps the previously
    // blended value.
    if (X >= static_cast<T>(Range.Lo) && X < static_cast<T>(Range.Hi))
      Registers[I.Dst] = static_cast<T>(Range.Value);
    SPNC_NEXT();
  }
  SPNC_CASE(NanBlend) {
    const Instruction &I = SPNC_INST;
    if (std::isnan(Registers[I.A]))
      Registers[I.Dst] = static_cast<T>(Params.ConstPool[I.B]);
    SPNC_NEXT();
  }
  SPNC_CASE(AddN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Sum = T(0);
    for (uint32_t N = 0; N < I.B; ++N)
      Sum += Registers[Args[N]];
    Registers[I.Dst] = Sum;
    SPNC_NEXT();
  }
  SPNC_CASE(MulN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Product = T(1);
    for (uint32_t N = 0; N < I.B; ++N)
      Product *= Registers[Args[N]];
    Registers[I.Dst] = Product;
    SPNC_NEXT();
  }
  SPNC_CASE(LogSumExpN) {
    const Instruction &I = SPNC_INST;
    const uint32_t *Args = &Task.Args[I.A];
    T Max = -std::numeric_limits<T>::infinity();
    for (uint32_t N = 0; N < I.B; ++N)
      Max = Registers[Args[N]] > Max ? Registers[Args[N]] : Max;
    if (Max == -std::numeric_limits<T>::infinity()) {
      Registers[I.Dst] = Max;
    } else {
      T Sum = T(0);
      for (uint32_t N = 0; N < I.B; ++N)
        Sum += static_cast<T>(std::exp(
            static_cast<double>(Registers[Args[N]] - Max)));
      Registers[I.Dst] =
          Max + static_cast<T>(std::log(static_cast<double>(Sum)));
    }
    SPNC_NEXT();
  }
  SPNC_CASE(Max) {
    const Instruction &I = SPNC_INST;
    // Ties keep A (the earlier chain element) so that MPE argmax ties
    // resolve to the lowest child index.
    Registers[I.Dst] = Registers[I.A] >= Registers[I.B]
                           ? Registers[I.A]
                           : Registers[I.B];
    SPNC_NEXT();
  }

#if defined(__GNUC__) || defined(__clang__)
#else
    }
  }
#endif
#undef SPNC_DISPATCH
#undef SPNC_CASE
#undef SPNC_INST
#undef SPNC_NEXT
}


template void spnc::vm::interpretSample<float>(const TaskProgram &,
                                               const TaskParams &,
                                               const BufferBinding<float> *,
                                               size_t, float *);
template void
spnc::vm::interpretSample<double>(const TaskProgram &, const TaskParams &,
                                  const BufferBinding<double> *, size_t,
                                  double *);

//===----------------------------------------------------------------------===//
// Vector engine
//===----------------------------------------------------------------------===//

namespace {

/// Per-block input staging for the loads+shuffles configuration: the W
/// row-major sample rows are transposed once into [feature][lane] form,
/// after which every feature load is a contiguous vector load.
template <typename T>
struct BlockTranspose {
  std::vector<T> Data; // Columns x W
  uint32_t Columns = 0;

  void prepare(const BufferBinding<T> &B, size_t Begin, unsigned W) {
    Columns = B.Columns;
    Data.resize(static_cast<size_t>(Columns) * W);
    const double *Src =
        B.ExternalIn + (B.Offset + Begin) * B.Columns;
    // Feature-major fill: contiguous vectorizable writes per feature,
    // strided reads — the interpreter-level equivalent of the
    // loads+shuffles register transpose.
    for (uint32_t C = 0; C < Columns; ++C) {
      T *Dst = &Data[static_cast<size_t>(C) * W];
      for (unsigned L = 0; L < W; ++L)
        Dst[L] = static_cast<T>(Src[static_cast<size_t>(L) * Columns + C]);
    }
  }
};

/// Out[L] = Get(*Lanes[L]) as T for every lane L: one side-table entry
/// as each lane's table holds it. A block whose lanes all read one table
/// (\p Uniform: every block of a plain or RunRequest::Table request)
/// reads the entry once and broadcasts it; reading it per lane there cost
/// speaker-offline and ratspn-classify 10-13% of their throughput
/// (EXPERIMENTS "Single-table blocks").
template <typename T, unsigned W, typename GetFn>
static SPNC_ALWAYS_INLINE void laneValues(const TaskParams *const *Lanes,
                                          bool Uniform, GetFn &&Get,
                                          T *Out) {
  if (Uniform) {
    T Value = static_cast<T>(Get(*Lanes[0]));
    for (unsigned L = 0; L < W; ++L)
      Out[L] = Value;
  } else {
    for (unsigned L = 0; L < W; ++L)
      Out[L] = static_cast<T>(Get(*Lanes[L]));
  }
}

/// Runs \p Task over the W samples of one block, lane L reading its
/// side tables from Lanes[L]. The lanes of one block may read different
/// weight tables: every parameter an instruction reads is gathered per
/// lane (laneValues) and then goes through the same arithmetic, so each
/// row gets the same bits whichever tables its neighbours read. Table
/// sizes, bucket bounds and marginal support are structural, so every
/// lane reads them from Lanes[0]. Every instantiation is kept out of
/// line: GCC 12 inlines it into runChunkTyped otherwise, and the W=8 f32
/// engine then runs ratspn-classify ~5% slower (EXPERIMENTS "One
/// downward pass").
template <typename T, unsigned W>
SPNC_NOINLINE void runBlock(const TaskProgram &Task,
                            const TaskParams *const *Lanes,
                            const BufferBinding<T> *Buffers,
                            const BlockTranspose<T> *Transposes,
                            size_t Begin, bool UseVecLib, T *Regs) {
  const T NegInf = -std::numeric_limits<T>::infinity();
  const TaskParams &First = *Lanes[0];
  bool Uniform = true;
  for (unsigned L = 1; L < W; ++L)
    Uniform = Uniform && Lanes[L] == Lanes[0];
  T Tmp0[W], Tmp1[W], P0[W], P1[W], P2[W];
  for (const Instruction &Inst : Task.Code) {
    T *D = &Regs[static_cast<size_t>(Inst.Dst) * W];
    // Reads field F of the Gaussian leaf this instruction evaluates.
    auto Gaussian = [&Inst](double GaussianParams::*F) {
      return [&Inst, F](const TaskParams &P) {
        return P.Gaussians[Inst.B].*F;
      };
    };
    switch (Inst.Op) {
    case OpCode::Const: {
      laneValues<T, W>(
          Lanes, Uniform,
          [&](const TaskParams &P) { return P.ConstPool[Inst.A]; }, D);
      break;
    }
    case OpCode::Load: {
      const BufferAccess &Access = Task.Loads[Inst.A];
      const BufferBinding<T> &B = Buffers[Access.Buffer];
      if (B.Transposed && B.Scratch) {
        // Contiguous vector load from a transposed intermediate.
        const T *Src = B.Scratch + elementIndex(B, Access.Index, Begin);
        for (unsigned L = 0; L < W; ++L)
          D[L] = Src[L];
      } else if (B.Transposed) {
        const double *Src =
            (B.ExternalIn ? B.ExternalIn : B.ExternalOut) +
            elementIndex(B, Access.Index, Begin);
        for (unsigned L = 0; L < W; ++L)
          D[L] = static_cast<T>(Src[L]);
      } else if (Transposes && Transposes[Access.Buffer].Columns) {
        // Loads+shuffles: contiguous load from the per-block transpose.
        const T *Src = &Transposes[Access.Buffer]
                            .Data[static_cast<size_t>(Access.Index) * W];
        for (unsigned L = 0; L < W; ++L)
          D[L] = Src[L];
      } else {
        // Gather: one strided load per lane.
        const BufferBinding<T> &Bb = B;
        for (unsigned L = 0; L < W; ++L)
          D[L] = loadElement(Bb, Access.Index, Begin + L);
      }
      break;
    }
    case OpCode::Store: {
      const BufferAccess &Access = Task.Stores[Inst.A];
      const BufferBinding<T> &B = Buffers[Access.Buffer];
      const T *Src = &Regs[static_cast<size_t>(Inst.Dst) * W];
      if (B.Transposed && B.Scratch) {
        T *Dst = B.Scratch + elementIndex(B, Access.Index, Begin);
        for (unsigned L = 0; L < W; ++L)
          Dst[L] = Src[L];
      } else {
        for (unsigned L = 0; L < W; ++L)
          storeElement(B, Access.Index, Begin + L, Src[L]);
      }
      break;
    }
    case OpCode::Add: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const T *B = &Regs[static_cast<size_t>(Inst.B) * W];
      for (unsigned L = 0; L < W; ++L)
        D[L] = A[L] + B[L];
      break;
    }
    case OpCode::Mul: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const T *B = &Regs[static_cast<size_t>(Inst.B) * W];
      for (unsigned L = 0; L < W; ++L)
        D[L] = A[L] * B[L];
      break;
    }
    case OpCode::FusedMulAdd: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const T *B = &Regs[static_cast<size_t>(Inst.B) * W];
      const T *C = &Regs[static_cast<size_t>(Inst.C) * W];
      for (unsigned L = 0; L < W; ++L)
        D[L] = A[L] * B[L] + C[L];
      break;
    }
    case OpCode::LogSumExp: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const T *B = &Regs[static_cast<size_t>(Inst.B) * W];
      // Tmp0 = min - max (guarded against (-inf) - (-inf) = NaN),
      // Tmp1 = exp(Tmp0) in [0, 1], D = max + log1p(Tmp1).
      for (unsigned L = 0; L < W; ++L) {
        T Max = A[L] > B[L] ? A[L] : B[L];
        T Diff = (A[L] > B[L] ? B[L] : A[L]) - Max;
        Tmp0[L] = std::isnan(Diff) ? NegInf : Diff;
        D[L] = Max;
      }
      if (UseVecLib) {
        vecExpNeg(Tmp0, Tmp1, W);
        vecLog1p01(Tmp1, Tmp0, W);
      } else {
        scalarExp(Tmp0, Tmp1, W);
        scalarLog1p(Tmp1, Tmp0, W);
      }
      for (unsigned L = 0; L < W; ++L)
        D[L] = D[L] == NegInf ? NegInf : D[L] + Tmp0[L];
      break;
    }
    case OpCode::Gaussian:
    case OpCode::GaussianLog: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      laneValues<T, W>(Lanes, Uniform, Gaussian(&GaussianParams::Mean), P0);
      laneValues<T, W>(Lanes, Uniform, Gaussian(&GaussianParams::InvStdDev),
                       P1);
      laneValues<T, W>(Lanes, Uniform,
                       Gaussian(&GaussianParams::Coefficient), P2);
      if (Inst.Op == OpCode::GaussianLog) {
        for (unsigned L = 0; L < W; ++L) {
          T Norm = (A[L] - P0[L]) * P1[L];
          D[L] = P2[L] - T(0.5) * Norm * Norm;
        }
      } else {
        for (unsigned L = 0; L < W; ++L) {
          T Norm = (A[L] - P0[L]) * P1[L];
          Tmp0[L] = T(-0.5) * Norm * Norm;
        }
        if (UseVecLib)
          vecExpNeg(Tmp0, Tmp1, W);
        else
          scalarExp(Tmp0, Tmp1, W);
        for (unsigned L = 0; L < W; ++L)
          D[L] = P2[L] * Tmp1[L];
      }
      if (First.Gaussians[Inst.B].SupportMarginal) {
        laneValues<T, W>(Lanes, Uniform,
                         Gaussian(&GaussianParams::MarginalValue), P0);
        for (unsigned L = 0; L < W; ++L)
          D[L] = std::isnan(A[L]) ? P0[L] : D[L];
      }
      break;
    }
    case OpCode::TableLookup: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const LookupTable &Shape = First.Tables[Inst.B];
      const auto Size = static_cast<int64_t>(Shape.Values.size());
      for (unsigned L = 0; L < W; ++L) {
        const LookupTable &Table = Lanes[L]->Tables[Inst.B];
        if (Shape.SupportMarginal && std::isnan(A[L])) {
          D[L] = static_cast<T>(Table.MarginalValue);
          continue;
        }
        auto Idx = static_cast<int64_t>(
            std::floor(static_cast<double>(A[L]) - Shape.Lo));
        D[L] = (Idx >= 0 && Idx < Size)
                   ? static_cast<T>(Table.Values[static_cast<size_t>(Idx)])
                   : static_cast<T>(Table.DefaultValue);
      }
      break;
    }
    case OpCode::SelectInRange: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const SelectRange &Range = First.Selects[Inst.B];
      const T Lo = static_cast<T>(Range.Lo);
      const T Hi = static_cast<T>(Range.Hi);
      laneValues<T, W>(
          Lanes, Uniform,
          [&](const TaskParams &P) { return P.Selects[Inst.B].Value; }, P0);
      for (unsigned L = 0; L < W; ++L)
        D[L] = (A[L] >= Lo && A[L] < Hi) ? P0[L] : D[L];
      break;
    }
    case OpCode::NanBlend: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      laneValues<T, W>(
          Lanes, Uniform,
          [&](const TaskParams &P) { return P.ConstPool[Inst.B]; }, P0);
      for (unsigned L = 0; L < W; ++L)
        D[L] = std::isnan(A[L]) ? P0[L] : D[L];
      break;
    }
    case OpCode::AddN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      for (unsigned L = 0; L < W; ++L)
        D[L] = T(0);
      for (uint32_t N = 0; N < Inst.B; ++N) {
        const T *A = &Regs[static_cast<size_t>(Args[N]) * W];
        for (unsigned L = 0; L < W; ++L)
          D[L] += A[L];
      }
      break;
    }
    case OpCode::MulN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      for (unsigned L = 0; L < W; ++L)
        D[L] = T(1);
      for (uint32_t N = 0; N < Inst.B; ++N) {
        const T *A = &Regs[static_cast<size_t>(Args[N]) * W];
        for (unsigned L = 0; L < W; ++L)
          D[L] *= A[L];
      }
      break;
    }
    case OpCode::Max: {
      const T *A = &Regs[static_cast<size_t>(Inst.A) * W];
      const T *B = &Regs[static_cast<size_t>(Inst.B) * W];
      for (unsigned L = 0; L < W; ++L)
        D[L] = A[L] >= B[L] ? A[L] : B[L];
      break;
    }
    case OpCode::LogSumExpN: {
      const uint32_t *Args = &Task.Args[Inst.A];
      // D accumulates the lane maxima, Tmp1 the exponential sums.
      for (unsigned L = 0; L < W; ++L)
        D[L] = NegInf;
      for (uint32_t N = 0; N < Inst.B; ++N) {
        const T *A = &Regs[static_cast<size_t>(Args[N]) * W];
        for (unsigned L = 0; L < W; ++L)
          D[L] = A[L] > D[L] ? A[L] : D[L];
      }
      for (unsigned L = 0; L < W; ++L)
        Tmp1[L] = T(0);
      for (uint32_t N = 0; N < Inst.B; ++N) {
        const T *A = &Regs[static_cast<size_t>(Args[N]) * W];
        for (unsigned L = 0; L < W; ++L) {
          T Diff = A[L] - D[L];
          Tmp0[L] = std::isnan(Diff) ? NegInf : Diff;
        }
        if (UseVecLib)
          vecExpNeg(Tmp0, Tmp0, W);
        else
          scalarExp(Tmp0, Tmp0, W);
        for (unsigned L = 0; L < W; ++L)
          Tmp1[L] += Tmp0[L];
      }
      if (UseVecLib)
        vecLogPos(Tmp1, Tmp0, W);
      else
        scalarLog(Tmp1, Tmp0, W);
      for (unsigned L = 0; L < W; ++L)
        D[L] = D[L] == NegInf ? NegInf : D[L] + Tmp0[L];
      break;
    }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// CpuExecutor
//===----------------------------------------------------------------------===//

CpuExecutor::CpuExecutor(KernelProgram TheProgram,
                         ExecutionConfig TheConfig)
    : ExecutionEngine(runtime::EngineCapabilities::of(TheProgram)),
      Program(std::move(TheProgram)), Config(TheConfig) {
  assert((Config.VectorWidth == 1 || Config.VectorWidth == 4 ||
          Config.VectorWidth == 8 || Config.VectorWidth == 16) &&
         "unsupported vector width");
  assert(Program.NumInputs == 1 && Program.NumOutputs == 1 &&
         "executor supports kernels with one input and one output buffer");
  if (Config.NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(Config.NumThreads);
}

CpuExecutor::~CpuExecutor() = default;

std::string CpuExecutor::describe() const {
  std::string Desc = Config.VectorWidth <= 1
                         ? "cpu scalar"
                         : "cpu simd w=" +
                               std::to_string(Config.VectorWidth);
  if (Config.VectorWidth > 1) {
    Desc += Config.UseVecLib ? ", veclib" : ", libm";
    Desc += Config.UseShuffle ? ", shuffle" : ", gather";
  }
  if (Config.NumThreads > 1)
    Desc += ", threads=" + std::to_string(Config.NumThreads);
  return Desc;
}

namespace {

/// Runs batch rows [Begin, End) of \p Program, row I reading its side
/// tables from Params.get(I, Task). Full W-row blocks run on the vector
/// engine whatever tables their rows name, and the remainder on the
/// scalar interpreter.
template <typename T>
void runChunkTyped(const KernelProgram &Program,
                   const ExecutionConfig &Config, const RowParams &Params,
                   const double *Input, double *Output, size_t TotalSamples,
                   size_t Begin, size_t End) {
  size_t ChunkLen = End - Begin;
  BoundBuffers<T> Bound =
      bindBuffers<T>(Program, Input, Output, TotalSamples, Begin, End);
  const std::vector<BufferBinding<T>> &Bindings = Bound.Bindings;

  uint32_t MaxRegs = 0;
  for (const TaskProgram &Task : Program.Tasks)
    MaxRegs = std::max(MaxRegs, Task.NumRegisters);

  // Buffer-to-buffer copy (only emitted with copy avoidance disabled).
  auto RunCopy = [&](const KernelStep &Step) {
    const BufferBinding<T> &Src = Bindings[Step.CopySrc];
    const BufferBinding<T> &Dst = Bindings[Step.CopyDst];
    for (uint32_t Col = 0; Col < Src.Columns; ++Col)
      for (size_t I = 0; I < ChunkLen; ++I)
        storeElement(Dst, Col, I, loadElement(Src, Col, I));
  };

  unsigned W = Config.VectorWidth;
  size_t NumBlocks = W <= 1 ? 0 : ChunkLen / W;
  std::vector<T> Registers(static_cast<size_t>(MaxRegs) * std::max(W, 1u));
  std::vector<BlockTranspose<T>> Transposes(
      Config.UseShuffle && NumBlocks ? Program.Buffers.size() : 0);

  auto RunVector = [&](auto WidthTag, const TaskProgram &Task,
                       const TaskParams *const *Lanes, size_t BlockBegin) {
    constexpr unsigned BW = decltype(WidthTag)::value;
    runBlock<T, BW>(Task, Lanes, Bindings.data(),
                    Transposes.empty() ? nullptr : Transposes.data(),
                    BlockBegin, Config.UseVecLib, Registers.data());
  };

  for (const KernelStep &Step : Program.Steps) {
    if (Step.Task < 0) {
      RunCopy(Step);
      continue;
    }
    size_t TaskIndex = static_cast<size_t>(Step.Task);
    const TaskProgram &Task = Program.Tasks[TaskIndex];
    for (size_t Block = 0; Block < NumBlocks; ++Block) {
      size_t BlockBegin = Block * W;
      const TaskParams *Lanes[16]; // W <= 16
      Params.lanes(Begin + BlockBegin, W, TaskIndex, Lanes);
      // Stage row-major inputs blockwise for the loads+shuffles path.
      if (!Transposes.empty())
        for (size_t I = 0; I < Program.Buffers.size(); ++I)
          if (!Program.Buffers[I].Transposed && Bindings[I].ExternalIn)
            Transposes[I].prepare(Bindings[I], BlockBegin, W);
      switch (W) {
      case 4:
        RunVector(std::integral_constant<unsigned, 4>{}, Task, Lanes,
                  BlockBegin);
        break;
      case 8:
        RunVector(std::integral_constant<unsigned, 8>{}, Task, Lanes,
                  BlockBegin);
        break;
      case 16:
        RunVector(std::integral_constant<unsigned, 16>{}, Task, Lanes,
                  BlockBegin);
        break;
      default:
        spnc_unreachable("unsupported vector width");
      }
    }
    // Scalar epilogue for the remainder (paper §IV-B); the whole chunk
    // on the scalar engine.
    for (size_t I = NumBlocks * W; I < ChunkLen; ++I)
      interpretSample(Task, Params.get(Begin + I, TaskIndex),
                      Bindings.data(), I, Registers.data());
  }
}

} // namespace

void CpuExecutor::executeChunk(const RowParams &Params,
                               const double *Input, double *Output,
                               size_t TotalSamples, size_t Begin,
                               size_t End) const {
  if (Program.UseF32)
    runChunkTyped<float>(Program, Config, Params, Input, Output,
                         TotalSamples, Begin, End);
  else
    runChunkTyped<double>(Program, Config, Params, Input, Output,
                          TotalSamples, Begin, End);
}

void CpuExecutor::dispatch(const RowParams &Params, const double *Input,
                           double *Output, size_t TotalSamples) const {
  if (!Pool) {
    executeChunk(Params, Input, Output, TotalSamples, 0, TotalSamples);
    return;
  }
  size_t Chunk = Config.ChunkSize ? Config.ChunkSize : Program.BatchSize;
  if (Chunk == 0)
    Chunk = TotalSamples;
  for (size_t B = 0; B < TotalSamples; B += Chunk) {
    size_t E = std::min(TotalSamples, B + Chunk);
    Pool->submit([this, &Params, Input, Output, TotalSamples, B, E] {
      executeChunk(Params, Input, Output, TotalSamples, B, E);
    });
  }
}

std::vector<double> CpuExecutor::getParamTable(int32_t Index) const {
  return Tables.raw(Index);
}

int32_t CpuExecutor::addParamTable(const double *Params,
                                   size_t NumParams) {
  if (!getCapabilities().ParamTables || NumParams != Program.NumParams)
    return -1;
  return Tables.add(std::span<const double>(Params, NumParams),
                    [this](std::span<const double> Raw) {
                      return bindIfDifferent(Program, Raw);
                    });
}

bool CpuExecutor::run(const runtime::RunRequest &Request,
                      runtime::ExecutionStats *Stats) const {
  std::optional<RowParams> Params =
      RowParams::resolve(Program, Tables, Request);
  if (!Params)
    return false;
  return timedRun(Request, Stats, [&](runtime::ExecutionStats &) {
    if (Request.Kind == QueryKind::Mpe || Request.Kind == QueryKind::Sample) {
      if (Program.UseF32)
        interpretRows<float>(Program, Request);
      else
        interpretRows<double>(Program, Request);
      return;
    }
    dispatch(*Params, Request.Input, Request.Output, Request.NumSamples);
    if (Pool)
      Pool->wait();
  });
}
