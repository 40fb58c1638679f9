//===- Executor.cpp - The block bytecode engine -------------------------------===//
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

//===----------------------------------------------------------------------===//
// The block engine
//===----------------------------------------------------------------------===//

namespace {

/// The values of P lanes of T: a GCC vector, or T itself for one lane.
/// GCC keeps a one-lane vector in general-purpose registers and memory,
/// and W=1 f64 then ran ~1.35x slower per row.
template <typename T, unsigned P>
using Piece = std::conditional_t<P == 1, T, Vec<T, P>>;

/// Lane \p L of \p X, and its assignment.
template <typename T, typename V>
static SPNC_ALWAYS_INLINE T getLane(const V &X, unsigned L) {
  if constexpr (std::is_same_v<V, T>)
    return X;
  else
    return X[L];
}

template <typename T, typename V>
static SPNC_ALWAYS_INLINE void setLane(V &X, unsigned L, T Value) {
  if constexpr (std::is_same_v<V, T>)
    X = Value;
  else
    X[L] = Value;
}

/// One side-table entry as each of P lanes' tables holds it:
/// Get(*Lanes[L]) as T in lane L. A block whose lanes all read one table
/// (\p Uniform: every block of a plain or RunRequest::Table request)
/// reads the entry once and broadcasts it; reading it per lane there cost
/// ratspn-classify 28% and speaker-offline 37% of their throughput
/// (EXPERIMENTS "A vector engine that vectorizes").
template <typename T, unsigned P, typename GetFn>
static SPNC_ALWAYS_INLINE Piece<T, P>
laneValues(const TaskParams *const *Lanes, bool Uniform, GetFn &&Get) {
  // v - 0 == v for every v, signed zeros included.
  if (Uniform)
    return static_cast<T>(Get(*Lanes[0])) - Piece<T, P>{};
  Piece<T, P> Out{};
  for (unsigned L = 0; L < P; ++L)
    setLane<T>(Out, L, static_cast<T>(Get(*Lanes[L])));
  return Out;
}

/// P doubles from \p Src as T.
template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Piece<T, P> convertLanes(const double *Src) {
  if constexpr (P == 1) {
    return static_cast<T>(*Src);
  } else {
    Vec<double, P> Wide{};
    __builtin_memcpy(&Wide, Src, sizeof(Wide));
    return __builtin_convertvector(Wide, Vec<T, P>);
  }
}

/// Runs the lane-array function \p F (VecMath.h) over the first \p Live
/// lanes of \p X, the others passing through: the per-lane libm calls of
/// f64 and of the no-vector-library configuration, made for live rows
/// only.
template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Piece<T, P>
onLanes(Piece<T, P> X, unsigned Live, void (*F)(const T *, T *, size_t)) {
  T Lanes[P];
  __builtin_memcpy(Lanes, &X, sizeof(X));
  F(Lanes, Lanes, Live);
  __builtin_memcpy(&X, Lanes, sizeof(X));
  return X;
}

/// exp, log1p and log over the \p Live lanes of a piece: the VecMath
/// polynomials for f32 with the vector library (over every lane, at no
/// extra cost; one lane runs in a four-lane vector), VecMath's double
/// lane arrays for f64, and libm per lane without it (Fig. 6).
template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Piece<T, P> expNeg(Piece<T, P> X, bool UseVecLib,
                                             unsigned Live) {
  if (!UseVecLib)
    return onLanes<T, P>(X, Live, scalarExp);
  if constexpr (!std::is_same_v<T, float>)
    return onLanes<T, P>(X, Live, vecExpNeg);
  else if constexpr (P == 1)
    return expNeg<T, 4>(X - Vec<T, 4>{}, true, 4)[0];
  else
    return polyExpNeg<Vec<T, P>, Vec<int32_t, P>>(X);
}

template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Piece<T, P> log1p01(Piece<T, P> X, bool UseVecLib,
                                              unsigned Live) {
  if (!UseVecLib)
    return onLanes<T, P>(X, Live, scalarLog1p);
  if constexpr (!std::is_same_v<T, float>)
    return onLanes<T, P>(X, Live, vecLog1p01);
  else if constexpr (P == 1)
    return log1p01<T, 4>(X - Vec<T, 4>{}, true, 4)[0];
  else
    return polyLog1p01(X);
}

template <typename T, unsigned P>
static SPNC_ALWAYS_INLINE Piece<T, P> logPos(Piece<T, P> X, bool UseVecLib,
                                             unsigned Live) {
  if (!UseVecLib)
    return onLanes<T, P>(X, Live, scalarLog);
  if constexpr (!std::is_same_v<T, float>)
    return onLanes<T, P>(X, Live, vecLogPos);
  else if constexpr (P == 1)
    return logPos<T, 4>(X - Vec<T, 4>{}, true, 4)[0];
  else
    return polyLogPos<Vec<T, P>, Vec<int32_t, P>>(X);
}

/// True if any lane of the comparison result \p Mask is set (a scalar
/// comparison at P = 1).
template <typename M> static SPNC_ALWAYS_INLINE bool anyLane(M Mask) {
  if constexpr (std::is_arithmetic_v<M>) {
    return Mask != 0;
  } else {
    uint64_t Words[sizeof(M) / sizeof(uint64_t)];
    __builtin_memcpy(Words, &Mask, sizeof(M));
    uint64_t Any = 0;
    for (uint64_t Word : Words)
      Any |= Word;
    return Any != 0;
  }
}

/// One lane of a LogSumExpGroup sum whose linear sum fell below
/// SharedExpLimits<T>::Floor: log sum_j exp(c_j + log w_j) over the \p N
/// children \p Children, w_j = Pool[Slots[j]], in double. The log is
/// taken of the double weight and rounded to T, as a LogSumExpN slot
/// holds it, so a weight below T's range still counts. NaN children
/// count as -inf, as in LogSumExpN. Out of line: no benchmark row comes
/// here.
template <typename T>
static SPNC_NOINLINE T exactGroupSum(const T *Children, uint32_t N,
                                     const std::vector<double> &Pool,
                                     const uint32_t *Slots) {
  double Terms[kMaxNaryArgs];
  double Max = -std::numeric_limits<double>::infinity();
  for (uint32_t J = 0; J < N; ++J) {
    Terms[J] = static_cast<double>(Children[J]) +
               static_cast<double>(static_cast<T>(std::log(Pool[Slots[J]])));
    Max = Terms[J] > Max ? Terms[J] : Max;
  }
  if (Max == -std::numeric_limits<double>::infinity())
    return static_cast<T>(Max);
  double Sum = 0.0;
  for (uint32_t J = 0; J < N; ++J)
    if (double Diff = Terms[J] - Max; Diff == Diff)
      Sum += std::exp(Diff);
  return static_cast<T>(Max + std::log(Sum));
}

} // namespace

/// Every instruction reads its operands from the register file as
/// vectors, computes its result as one vector expression and writes it
/// back, one piece of kPieceLanes lanes at a time; a piece of padding
/// lanes only is skipped. Every parameter an instruction reads is
/// gathered per lane (laneValues) and then goes through the same
/// arithmetic, so each row gets the same bits whichever tables its
/// neighbours read. Table sizes, bucket bounds and marginal support are
/// structural, so every lane reads them from Lanes[0]. Every
/// instantiation is kept out of line: GCC 12 inlines the W=8 and W=16
/// ones into runChunkTyped otherwise, and ratspn-classify then ran ~4%
/// slower (EXPERIMENTS "A vector engine that vectorizes").
template <typename T, unsigned W>
SPNC_NOINLINE void spnc::vm::runBlock(const TaskProgram &Task,
                                      const TaskParams *const *Lanes,
                                      const BufferBinding<T> *Buffers,
                                      size_t Begin, unsigned Live,
                                      bool UseVecLib, T *Regs) {
  // At W = 1 this makes Live the constant 1.
  if (Live < 1 || Live > W)
    __builtin_unreachable();
  constexpr unsigned P = kPieceLanes<T, W>;
  using V = Piece<T, P>;
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
    for (unsigned C = 0; C < Live; C += P) {
      // The piece's live lanes: all P but in the last block of a batch.
      const unsigned N = std::min(P, Live - C);
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
      // The leaf's (X - Mean) / StdDev, and its marginal value where X
      // is NaN, Y elsewhere.
      auto Normalized = [&](V X) {
        return (X - Gaussian(&GaussianParams::Mean)) *
               Gaussian(&GaussianParams::InvStdDev);
      };
      auto GaussianMarginal = [&](V X, V Y) {
        if (!First.Gaussians[Inst.B].SupportMarginal)
          return Y;
        return Marginal(X, Gaussian(&GaussianParams::MarginalValue), Y);
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
        size_t Element = elementIndex(B, Access.Index, Row);
        if (B.Transposed && N == P && B.Scratch) {
          // Contiguous vector load: a transposed intermediate, or a
          // chunk's staged input (loads+shuffles).
          __builtin_memcpy(&Value, B.Scratch + Element, sizeof(V));
        } else if (B.Transposed && N == P) {
          Value = convertLanes<T, P>(
              (B.ExternalIn ? B.ExternalIn : B.ExternalOut) + Element);
        } else {
          // Gather: one strided load per live lane; padding lanes read
          // zero.
          for (unsigned L = 0; L < N; ++L)
            setLane<T>(Value, L, loadElement(B, Access.Index, Row + L));
        }
        break;
      }
      case OpCode::Store: {
        const BufferAccess &Access = Task.Stores[Inst.A];
        const BufferBinding<T> &B = Buffers[Access.Buffer];
        V Src = Reg(Inst.Dst);
        if (B.Transposed && N == P && B.Scratch) {
          __builtin_memcpy(B.Scratch + elementIndex(B, Access.Index, Row),
                           &Src, sizeof(V));
        } else {
          // Live lanes only.
          for (unsigned L = 0; L < N; ++L)
            storeElement(B, Access.Index, Row + L, getLane<T>(Src, L));
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
                    : Max + log1p01<T, P>(expNeg<T, P>(Diff, UseVecLib, N),
                                          UseVecLib, N);
        break;
      }
      // Two cases, not one with a branch on the opcode: GCC then fuses
      // the same multiply-adds at every width, so a row gets the same
      // bits at W=1 as in a wider block.
      case OpCode::Gaussian: {
        V X = Reg(Inst.A);
        V Norm = Normalized(X);
        Value = GaussianMarginal(
            X, Gaussian(&GaussianParams::Coefficient) *
                   expNeg<T, P>(T(-0.5) * Norm * Norm, UseVecLib, N));
        break;
      }
      case OpCode::GaussianLog: {
        V X = Reg(Inst.A);
        V Norm = Normalized(X);
        Value = GaussianMarginal(
            X, Gaussian(&GaussianParams::Coefficient) - T(0.5) * Norm * Norm);
        break;
      }
      case OpCode::TableLookup: {
        V X = Reg(Inst.A);
        const LookupTable &Shape = First.Tables[Inst.B];
        const auto Size = static_cast<int64_t>(Shape.Values.size());
        for (unsigned L = 0; L < N; ++L) {
          const LookupTable &Table = Lanes[C + L]->Tables[Inst.B];
          T XL = getLane<T>(X, L);
          if (Shape.SupportMarginal && std::isnan(XL)) {
            setLane<T>(Value, L, static_cast<T>(Table.MarginalValue));
            continue;
          }
          auto Idx = static_cast<int64_t>(
              std::floor(static_cast<double>(XL) - Shape.Lo));
          setLane<T>(Value, L,
                     (Idx >= 0 && Idx < Size)
                         ? static_cast<T>(
                               Table.Values[static_cast<size_t>(Idx)])
                         : static_cast<T>(Table.DefaultValue));
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
        for (uint32_t I = 0; I < Inst.B; ++I)
          Value += Reg(Args[I]);
        break;
      }
      case OpCode::MulN: {
        const uint32_t *Args = &Task.Args[Inst.A];
        Value = T(1) - V{};
        for (uint32_t I = 0; I < Inst.B; ++I)
          Value *= Reg(Args[I]);
        break;
      }
      case OpCode::Max: {
        // Ties keep A (the earlier chain element) so that MPE argmax ties
        // resolve to the lowest child index.
        V A = Reg(Inst.A), B = Reg(Inst.B);
        Value = A >= B ? A : B;
        break;
      }
      case OpCode::LogSumExpN: {
        // The lanes' maximum, then the sum of exp(operand - maximum).
        // Operand I is its register plus its weight, read per lane; the
        // sum reuses the first kMaxNaryArgs operands the maximum computed
        // (recomputing them ran a ratspn-classify-shaped loop ~15%
        // slower).
        const uint32_t *Args = &Task.Args[Inst.A];
        const uint32_t *Slots = &Task.Args[Inst.C];
        auto Operand = [&](uint32_t I) {
          return Reg(Args[I]) + Param([&](const TaskParams &Params) {
                   return Params.ConstPool[Slots[I]];
                 });
        };
        V Kept[kMaxNaryArgs];
        V Max = NegInf;
        for (uint32_t I = 0; I < Inst.B; ++I) {
          V A = Operand(I);
          if (I < kMaxNaryArgs)
            Kept[I] = A;
          Max = A > Max ? A : Max;
        }
        V Sum{};
        for (uint32_t I = 0; I < Inst.B; ++I) {
          V A = I < kMaxNaryArgs ? Kept[I] : Operand(I);
          Sum += expNeg<T, P>(Guard(A - Max), UseVecLib, N);
        }
        Value =
            Max == NegInf ? Max : Max + logPos<T, P>(Sum, UseVecLib, N);
        break;
      }
      case OpCode::LogSumExpGroup: {
        // One maximum and one exponential per child, then per sum a
        // weighted linear sum and one log. Every child is read before a
        // destination is written.
        const uint32_t *Children = &Task.Args[Inst.A];
        const uint32_t *Dsts = Children + Inst.B;
        const uint32_t *Slots = Dsts + Inst.C;
        const V Cut = -SharedExpLimits<T>::Cut - V{};
        V Child[kMaxNaryArgs], Scaled[kMaxNaryArgs];
        V Max = NegInf;
        for (uint32_t J = 0; J < Inst.B; ++J) {
          Child[J] = Reg(Children[J]);
          Max = Child[J] > Max ? Child[J] : Max;
        }
        for (uint32_t J = 0; J < Inst.B; ++J) {
          V Diff = Guard(Child[J] - Max);
          Scaled[J] = Diff >= Cut ? expNeg<T, P>(Diff, UseVecLib, N) : V{};
        }
        for (uint32_t S = 0; S < Inst.C; ++S) {
          const uint32_t *Weights = Slots + static_cast<size_t>(S) * Inst.B;
          V Sum{};
          for (uint32_t J = 0; J < Inst.B; ++J)
            Sum += Param([&](const TaskParams &Params) {
                     return Params.ConstPool[Weights[J]];
                   }) *
                   Scaled[J];
          V Result = Max + logPos<T, P>(Sum, UseVecLib, N);
          Result = Max == NegInf ? Max : Result;
          // Lanes whose sum underflowed, each on its own: a row's bits
          // never depend on its neighbours.
          if (anyLane((Sum < SharedExpLimits<T>::Floor) & (Max != NegInf)))
              [[unlikely]] {
            for (unsigned L = 0; L < N; ++L) {
              if (!(getLane<T>(Sum, L) < SharedExpLimits<T>::Floor) ||
                  getLane<T>(Max, L) == -std::numeric_limits<T>::infinity())
                continue;
              T Lane[kMaxNaryArgs];
              for (uint32_t J = 0; J < Inst.B; ++J)
                Lane[J] = getLane<T>(Child[J], L);
              setLane<T>(Result, L,
                         exactGroupSum<T>(Lane, Inst.B,
                                          Lanes[C + L]->ConstPool, Weights));
            }
          }
          __builtin_memcpy(Regs + static_cast<size_t>(Dsts[S]) * W + C,
                           &Result, sizeof(V));
        }
        continue;
      }
      default:
        // Decoding validates every opcode.
        __builtin_unreachable();
      }
      __builtin_memcpy(Regs + static_cast<size_t>(Inst.Dst) * W + C, &Value,
                       sizeof(V));
    }
  }
}

#define SPNC_INSTANTIATE_RUN_BLOCK(T, W)                                     \
  template void spnc::vm::runBlock<T, W>(                                    \
      const TaskProgram &, const TaskParams *const *,                        \
      const BufferBinding<T> *, size_t, unsigned, bool, T *);
SPNC_INSTANTIATE_RUN_BLOCK(float, 1)
SPNC_INSTANTIATE_RUN_BLOCK(float, 4)
SPNC_INSTANTIATE_RUN_BLOCK(float, 8)
SPNC_INSTANTIATE_RUN_BLOCK(float, 16)
SPNC_INSTANTIATE_RUN_BLOCK(double, 1)
SPNC_INSTANTIATE_RUN_BLOCK(double, 4)
SPNC_INSTANTIATE_RUN_BLOCK(double, 8)
SPNC_INSTANTIATE_RUN_BLOCK(double, 16)
#undef SPNC_INSTANTIATE_RUN_BLOCK

namespace {

/// runBlock<T, W> for a configured vector width \p W.
template <typename T>
auto blockFunction(unsigned W) -> decltype(&runBlock<T, 1>) {
  switch (W) {
  case 1:
    return &runBlock<T, 1>;
  case 4:
    return &runBlock<T, 4>;
  case 8:
    return &runBlock<T, 8>;
  case 16:
    return &runBlock<T, 16>;
  }
  spnc_unreachable("unsupported vector width");
}

/// The rows of \p NumRows that the W-lane block at row \p Row holds: W,
/// but in the last block.
unsigned liveRows(size_t Row, size_t NumRows, unsigned W) {
  return static_cast<unsigned>(std::min<size_t>(W, NumRows - Row));
}

} // namespace

template <typename T>
void spnc::vm::interpretRows(const KernelProgram &Program,
                             const ExecutionConfig &Config,
                             const runtime::RunRequest &Request) {
  size_t N = Request.NumSamples;
  unsigned W = Config.VectorWidth;
  const TaskProgram &Task = Program.Tasks[0];
  std::vector<double> Up(N);
  BoundBuffers<T> Bound =
      bindBuffers<T>(Program, Request.Input, Up.data(), N, 0, N);
  // MPE and sampling programs take no weight tables.
  const TaskParams *Lanes[16]; // W <= 16
  std::fill_n(Lanes, W, &Task);
  auto RunBlock = blockFunction<T>(W);
  BlockBuffer<T> Block(static_cast<size_t>(Task.NumRegisters) * W);
  completeRows<T>(Program, Request, Up.data(), [&](size_t I, T *Registers) {
    size_t Lane = I % W;
    if (Lane == 0)
      RunBlock(Task, Lanes, Bound.Bindings.data(), I, liveRows(I, N, W),
               Config.UseVecLib, Block.data());
    for (size_t R = 0; R < Task.NumRegisters; ++R)
      Registers[R] = Block[R * W + Lane];
  });
}

template void spnc::vm::interpretRows<float>(const KernelProgram &,
                                             const ExecutionConfig &,
                                             const runtime::RunRequest &);
template void spnc::vm::interpretRows<double>(const KernelProgram &,
                                              const ExecutionConfig &,
                                              const runtime::RunRequest &);

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
  Desc += Config.UseVecLib ? ", veclib" : ", libm";
  if (Config.VectorWidth > 1)
    Desc += Config.UseShuffle ? ", shuffle" : ", gather";
  if (Config.NumThreads > 1)
    Desc += ", threads=" + std::to_string(Config.NumThreads);
  return Desc;
}

namespace {

/// Loads+shuffles: the \p Rows rows of row-major input \p B that a chunk
/// reads, transposed into \p Data as [feature][row], and the binding
/// through which every feature load of a whole block is one contiguous
/// vector load.
template <typename T>
BufferBinding<T> stageTransposed(const BufferBinding<T> &B, size_t Rows,
                                 unsigned W, BlockBuffer<T> &Data) {
  Data.resize(static_cast<size_t>(B.Columns) * Rows);
  const double *Src = B.ExternalIn + B.Offset * B.Columns;
  // Block by block, feature-major: contiguous vectorizable writes per
  // feature, strided reads from the block's rows — the interpreter-level
  // equivalent of the loads+shuffles register transpose.
  for (size_t Begin = 0; Begin < Rows; Begin += W) {
    unsigned Live = liveRows(Begin, Rows, W);
    for (uint32_t C = 0; C < B.Columns; ++C) {
      T *Dst = &Data[static_cast<size_t>(C) * Rows + Begin];
      for (unsigned L = 0; L < Live; ++L)
        Dst[L] = static_cast<T>(Src[(Begin + L) * B.Columns + C]);
    }
  }
  BufferBinding<T> Staged;
  Staged.Scratch = Data.data();
  Staged.Columns = B.Columns;
  Staged.Transposed = true;
  Staged.Stride = Rows;
  return Staged;
}

/// Runs batch rows [Begin, End) of \p Program as blocks of W rows, row I
/// reading its side tables from Params.get(I, Task), whatever tables
/// the rows of a block name. The chunk's last block is padded, as the
/// cpp backend pads its last block: its padding lanes read zero inputs
/// and the tables of its last row, and are never stored. So a row's
/// bits do not depend on where its batch or chunk ends.
template <typename T>
void runChunkTyped(const KernelProgram &Program,
                   const ExecutionConfig &Config, const RowParams &Params,
                   const double *Input, double *Output, size_t TotalSamples,
                   size_t Begin, size_t End) {
  size_t ChunkLen = End - Begin;
  BoundBuffers<T> Bound =
      bindBuffers<T>(Program, Input, Output, TotalSamples, Begin, End);
  std::vector<BufferBinding<T>> &Bindings = Bound.Bindings;

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
  BlockBuffer<T> Registers(static_cast<size_t>(MaxRegs) * W);
  // Stage row-major inputs once for the loads+shuffles path.
  std::vector<BlockBuffer<T>> Staged(Program.Buffers.size());
  if (Config.UseShuffle && W > 1)
    for (size_t I = 0; I < Bindings.size(); ++I)
      if (!Bindings[I].Transposed && Bindings[I].ExternalIn)
        Bindings[I] = stageTransposed(Bindings[I], ChunkLen, W, Staged[I]);

  auto RunBlock = blockFunction<T>(W);
  for (const KernelStep &Step : Program.Steps) {
    if (Step.Task < 0) {
      RunCopy(Step);
      continue;
    }
    size_t TaskIndex = static_cast<size_t>(Step.Task);
    const TaskProgram &Task = Program.Tasks[TaskIndex];
    for (size_t Row = 0; Row < ChunkLen; Row += W) {
      unsigned Live = liveRows(Row, ChunkLen, W);
      const TaskParams *Lanes[16]; // W <= 16
      Params.lanes(Begin + Row, Live, W, TaskIndex, Lanes);
      RunBlock(Task, Lanes, Bindings.data(), Row, Live, Config.UseVecLib,
               Registers.data());
    }
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
    if (spn::needsTraceback(Request.Kind)) {
      if (Program.UseF32)
        interpretRows<float>(Program, Config, Request);
      else
        interpretRows<double>(Program, Config, Request);
      return;
    }
    dispatch(*Params, Request.Input, Request.Output, Request.NumSamples);
    if (Pool)
      Pool->wait();
  });
}
