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
#include <type_traits>
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
    const uint32_t *Slots = &Task.Args[I.C];
    // Operand N: its register plus its weight.
    auto Operand = [&](uint32_t N) {
      return Registers[Args[N]] +
             static_cast<T>(Params.ConstPool[Slots[N]]);
    };
    T Max = -std::numeric_limits<T>::infinity();
    for (uint32_t N = 0; N < I.B; ++N)
      Max = std::max(Max, Operand(N));
    if (Max == -std::numeric_limits<T>::infinity()) {
      Registers[I.Dst] = Max;
    } else {
      T Sum = T(0);
      for (uint32_t N = 0; N < I.B; ++N)
        Sum += static_cast<T>(
            std::exp(static_cast<double>(Operand(N) - Max)));
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

/// Input staging for the loads+shuffles configuration: the row-major
/// rows of a chunk's full W-row blocks are transposed once, before any
/// task runs, into [feature][row] form, after which every feature load
/// of every task is a contiguous vector load from its block's slice.
template <typename T>
struct ChunkTranspose {
  std::vector<T> Data; // Columns x Rows
  size_t Rows = 0;

  void prepare(const BufferBinding<T> &B, size_t NumRows, unsigned W) {
    Rows = NumRows;
    Data.resize(static_cast<size_t>(B.Columns) * Rows);
    const double *Src = B.ExternalIn + B.Offset * B.Columns;
    // Block by block, feature-major: contiguous vectorizable writes per
    // feature, strided reads from the block's rows — the
    // interpreter-level equivalent of the loads+shuffles register
    // transpose.
    for (size_t Begin = 0; Begin < Rows; Begin += W)
      for (uint32_t C = 0; C < B.Columns; ++C) {
        T *Dst = &Data[static_cast<size_t>(C) * Rows + Begin];
        for (unsigned L = 0; L < W; ++L)
          Dst[L] = static_cast<T>(Src[(Begin + L) * B.Columns + C]);
      }
  }
};

/// One side-table entry as each of P lanes' tables holds it:
/// Get(*Lanes[L]) as T in lane L. A block whose lanes all read one table
/// (\p Uniform: every block of a plain or RunRequest::Table request)
/// reads the entry once and broadcasts it; reading it per lane there cost
/// ratspn-classify 28% and speaker-offline 37% of their throughput
/// (EXPERIMENTS "A vector engine that vectorizes").
template <typename T, unsigned P, typename GetFn>
static SPNC_ALWAYS_INLINE Vec<T, P>
laneValues(const TaskParams *const *Lanes, bool Uniform, GetFn &&Get) {
  // v - 0 == v for every v, signed zeros included.
  if (Uniform)
    return static_cast<T>(Get(*Lanes[0])) - Vec<T, P>{};
  Vec<T, P> Out{};
  for (unsigned L = 0; L < P; ++L)
    Out[L] = static_cast<T>(Get(*Lanes[L]));
  return Out;
}

/// Runs the lane-array function \p F (VecMath.h) over the lanes of \p X:
/// the per-lane libm calls of f64 and of the no-vector-library
/// configuration.
template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Vec<T, P>
onLanes(Vec<T, P> X, void (*F)(const T *, T *, size_t)) {
  T In[P], Out[P];
  __builtin_memcpy(In, &X, sizeof(X));
  F(In, Out, P);
  __builtin_memcpy(&X, Out, sizeof(X));
  return X;
}

/// exp, log1p and log over P lanes: the VecMath polynomials for f32
/// with the vector library, VecMath's double lane arrays for f64, and
/// libm per lane without it (Fig. 6).
template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Vec<T, P> expNeg(Vec<T, P> X, bool UseVecLib) {
  if (!UseVecLib)
    return onLanes<T, P>(X, scalarExp);
  if constexpr (std::is_same_v<T, float>)
    return polyExpNeg<Vec<T, P>, Vec<int32_t, P>>(X);
  else
    return onLanes<T, P>(X, vecExpNeg);
}

template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Vec<T, P> log1p01(Vec<T, P> X, bool UseVecLib) {
  if (!UseVecLib)
    return onLanes<T, P>(X, scalarLog1p);
  if constexpr (std::is_same_v<T, float>)
    return polyLog1p01(X);
  else
    return onLanes<T, P>(X, vecLog1p01);
}

template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Vec<T, P> logPos(Vec<T, P> X, bool UseVecLib) {
  if (!UseVecLib)
    return onLanes<T, P>(X, scalarLog);
  if constexpr (std::is_same_v<T, float>)
    return polyLogPos<Vec<T, P>, Vec<int32_t, P>>(X);
  else
    return onLanes<T, P>(X, vecLogPos);
}

/// Runs \p Task over the W samples of one block, lane L reading its
/// side tables from Lanes[L]. Every instruction reads its operands from
/// the register file as vectors, computes its result as one vector
/// expression and writes it back, one piece of kPieceLanes lanes at a
/// time. The lanes of one block may read different weight tables: every
/// parameter an instruction reads is gathered per lane (laneValues) and
/// then goes through the same arithmetic, so each row gets the same bits
/// whichever tables its neighbours read. Table sizes, bucket bounds and
/// marginal support are structural, so every lane reads them from
/// Lanes[0]. Every instantiation is kept out of line: GCC 12 inlines the
/// W=8 and W=16 ones into runChunkTyped otherwise, and ratspn-classify
/// then ran ~4% slower (EXPERIMENTS "A vector engine that vectorizes").
template <typename T, unsigned W>
SPNC_NOINLINE void runBlock(const TaskProgram &Task,
                            const TaskParams *const *Lanes,
                            const BufferBinding<T> *Buffers,
                            const ChunkTranspose<T> *Transposes,
                            size_t Begin, bool UseVecLib, T *Regs) {
  constexpr unsigned P = kPieceLanes<T, W>;
  using V = Vec<T, P>;
  const V NegInf = -std::numeric_limits<T>::infinity() - V{};
  const TaskParams &First = *Lanes[0];
  bool Uniform = true;
  for (unsigned L = 1; L < W; ++L)
    Uniform = Uniform && Lanes[L] == Lanes[0];
  // A NaN difference ((-inf) - (-inf)) counts as -inf.
  auto Guard = [&NegInf](V Diff) { return Diff != Diff ? NegInf : Diff; };
  // M where X is NaN (marginalized evidence), Y elsewhere.
  auto Marginal = [](V X, V M, V Y) { return X != X ? M : Y; };
  for (const Instruction &Inst : Task.Code) {
    // Lanes [C, C + P) of every register the instruction names.
    for (unsigned C = 0; C < W; C += P) {
      auto Reg = [&](uint32_t R) {
        V X{};
        __builtin_memcpy(&X, Regs + static_cast<size_t>(R) * W + C,
                         sizeof(V));
        return X;
      };
      auto Param = [&](auto &&Get) {
        return laneValues<T, P>(Lanes + C, Uniform, Get);
      };
      // Field F of the Gaussian leaf this instruction evaluates.
      auto Gaussian = [&](double GaussianParams::*F) {
        return Param([&](const TaskParams &Params) {
          return Params.Gaussians[Inst.B].*F;
        });
      };
      size_t Row = Begin + C;
      V Value{};
      switch (Inst.Op) {
      case OpCode::Const:
        Value = Param(
            [&](const TaskParams &Params) { return Params.ConstPool[Inst.A]; });
        break;
      case OpCode::Load: {
        const BufferAccess &Access = Task.Loads[Inst.A];
        const BufferBinding<T> &B = Buffers[Access.Buffer];
        if (B.Transposed && B.Scratch) {
          // Contiguous vector load from a transposed intermediate.
          __builtin_memcpy(&Value,
                           B.Scratch + elementIndex(B, Access.Index, Row),
                           sizeof(V));
        } else if (B.Transposed) {
          Vec<double, P> Wide{};
          __builtin_memcpy(&Wide,
                           (B.ExternalIn ? B.ExternalIn : B.ExternalOut) +
                               elementIndex(B, Access.Index, Row),
                           sizeof(Wide));
          Value = __builtin_convertvector(Wide, V);
        } else if (Transposes && Transposes[Access.Buffer].Rows) {
          // Loads+shuffles: contiguous load from the chunk's transpose.
          const ChunkTranspose<T> &Staged = Transposes[Access.Buffer];
          __builtin_memcpy(
              &Value,
              &Staged.Data[static_cast<size_t>(Access.Index) * Staged.Rows +
                           Row],
              sizeof(V));
        } else {
          // Gather: one strided load per lane.
          for (unsigned L = 0; L < P; ++L)
            Value[L] = loadElement(B, Access.Index, Row + L);
        }
        break;
      }
      case OpCode::Store: {
        const BufferAccess &Access = Task.Stores[Inst.A];
        const BufferBinding<T> &B = Buffers[Access.Buffer];
        V Src = Reg(Inst.Dst);
        if (B.Transposed && B.Scratch) {
          __builtin_memcpy(B.Scratch + elementIndex(B, Access.Index, Row),
                           &Src, sizeof(V));
        } else {
          for (unsigned L = 0; L < P; ++L)
            storeElement(B, Access.Index, Row + L, Src[L]);
        }
        continue;
      }
      case OpCode::Add:
        Value = Reg(Inst.A) + Reg(Inst.B);
        break;
      case OpCode::Mul:
        Value = Reg(Inst.A) * Reg(Inst.B);
        break;
      case OpCode::FusedMulAdd:
        Value = Reg(Inst.A) * Reg(Inst.B) + Reg(Inst.C);
        break;
      case OpCode::LogSumExp: {
        V A = Reg(Inst.A), B = Reg(Inst.B);
        V Max = A > B ? A : B;
        V Diff = Guard((A > B ? B : A) - Max);
        Value = Max == NegInf
                    ? Max
                    : Max + log1p01<T, P>(expNeg<T, P>(Diff, UseVecLib),
                                          UseVecLib);
        break;
      }
      case OpCode::Gaussian:
      case OpCode::GaussianLog: {
        V X = Reg(Inst.A);
        V Norm = (X - Gaussian(&GaussianParams::Mean)) *
                 Gaussian(&GaussianParams::InvStdDev);
        V Coefficient = Gaussian(&GaussianParams::Coefficient);
        if (Inst.Op == OpCode::GaussianLog)
          Value = Coefficient - T(0.5) * Norm * Norm;
        else
          Value = Coefficient * expNeg<T, P>(T(-0.5) * Norm * Norm, UseVecLib);
        if (First.Gaussians[Inst.B].SupportMarginal)
          Value =
              Marginal(X, Gaussian(&GaussianParams::MarginalValue), Value);
        break;
      }
      case OpCode::TableLookup: {
        V X = Reg(Inst.A);
        const LookupTable &Shape = First.Tables[Inst.B];
        const auto Size = static_cast<int64_t>(Shape.Values.size());
        for (unsigned L = 0; L < P; ++L) {
          const LookupTable &Table = Lanes[C + L]->Tables[Inst.B];
          if (Shape.SupportMarginal && std::isnan(X[L])) {
            Value[L] = static_cast<T>(Table.MarginalValue);
            continue;
          }
          auto Idx = static_cast<int64_t>(
              std::floor(static_cast<double>(X[L]) - Shape.Lo));
          Value[L] =
              (Idx >= 0 && Idx < Size)
                  ? static_cast<T>(Table.Values[static_cast<size_t>(Idx)])
                  : static_cast<T>(Table.DefaultValue);
        }
        break;
      }
      case OpCode::SelectInRange: {
        // NaN compares false, so marginalized evidence keeps the
        // previously blended value.
        V X = Reg(Inst.A);
        const SelectRange &Range = First.Selects[Inst.B];
        Value = (X >= static_cast<T>(Range.Lo)) &
                        (X < static_cast<T>(Range.Hi))
                    ? Param([&](const TaskParams &Params) {
                        return Params.Selects[Inst.B].Value;
                      })
                    : Reg(Inst.Dst);
        break;
      }
      case OpCode::NanBlend:
        Value = Marginal(Reg(Inst.A), Param([&](const TaskParams &Params) {
                           return Params.ConstPool[Inst.B];
                         }),
                         Reg(Inst.Dst));
        break;
      case OpCode::AddN: {
        const uint32_t *Args = &Task.Args[Inst.A];
        for (uint32_t N = 0; N < Inst.B; ++N)
          Value += Reg(Args[N]);
        break;
      }
      case OpCode::MulN: {
        const uint32_t *Args = &Task.Args[Inst.A];
        Value = T(1) - V{};
        for (uint32_t N = 0; N < Inst.B; ++N)
          Value *= Reg(Args[N]);
        break;
      }
      case OpCode::Max: {
        // Ties keep A, as in the scalar engine.
        V A = Reg(Inst.A), B = Reg(Inst.B);
        Value = A >= B ? A : B;
        break;
      }
      case OpCode::LogSumExpN: {
        // The lanes' maximum, then the sum of exp(operand - maximum).
        // Operand N is its register plus its weight, read per lane; the
        // sum reuses the first kMaxNaryArgs operands the maximum computed
        // (recomputing them ran a ratspn-classify-shaped loop ~15%
        // slower).
        const uint32_t *Args = &Task.Args[Inst.A];
        const uint32_t *Slots = &Task.Args[Inst.C];
        auto Operand = [&](uint32_t N) {
          return Reg(Args[N]) + Param([&](const TaskParams &Params) {
                   return Params.ConstPool[Slots[N]];
                 });
        };
        V Kept[kMaxNaryArgs];
        V Max = NegInf;
        for (uint32_t N = 0; N < Inst.B; ++N) {
          V A = Operand(N);
          if (N < kMaxNaryArgs)
            Kept[N] = A;
          Max = A > Max ? A : Max;
        }
        V Sum{};
        for (uint32_t N = 0; N < Inst.B; ++N) {
          V A = N < kMaxNaryArgs ? Kept[N] : Operand(N);
          Sum += expNeg<T, P>(Guard(A - Max), UseVecLib);
        }
        Value = Max == NegInf ? Max : Max + logPos<T, P>(Sum, UseVecLib);
        break;
      }
      }
      __builtin_memcpy(Regs + static_cast<size_t>(Inst.Dst) * W + C, &Value,
                       sizeof(V));
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
  // Stage row-major inputs once for the loads+shuffles path.
  std::vector<ChunkTranspose<T>> Transposes(
      Config.UseShuffle && NumBlocks ? Program.Buffers.size() : 0);
  for (size_t I = 0; I < Transposes.size(); ++I)
    if (!Program.Buffers[I].Transposed && Bindings[I].ExternalIn)
      Transposes[I].prepare(Bindings[I], NumBlocks * W, W);

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
