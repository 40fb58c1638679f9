//===- Bytecode.h - Register bytecode for compiled SPN kernels ---------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable representation produced by the SPNC code generators.
/// Where the paper's pipeline lowers LoSPN through the standard MLIR
/// dialects into LLVM IR and native object code, this reproduction lowers
/// LoSPN into a compact register bytecode executed by one engine that
/// runs each instruction as one SIMD expression over a block of samples,
/// one sample at the narrowest width (see DESIGN.md §4 for the
/// substitution rationale). One `TaskProgram` corresponds to one LoSPN
/// task; a `KernelProgram` bundles the tasks and the buffer plan of a
/// kernel.
///
/// Log-space arithmetic is resolved at code generation time: a `lo_spn.mul`
/// on `!lo_spn.log<T>` emits `Add`, a `lo_spn.add` emits `LogSumExp`, and
/// leaf instructions with log results use tables/coefficients that already
/// contain log-probabilities (paper §III-B).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_BYTECODE_H
#define SPNC_VM_BYTECODE_H

#include "frontend/Query.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spnc {
namespace vm {

/// The opcodes' semantics. Which of an instruction's fields and Args
/// each one reads, writes or indexes a side table with is described
/// once, in vm/Operands.h.
enum class OpCode : uint8_t {
  /// dst <- ConstPool[A].
  Const,
  /// dst <- the buffer element Loads[A]; layout per buffer plan.
  Load,
  /// The buffer element Stores[A] <- register Dst.
  Store,
  /// dst <- a + b (also log-space multiplication).
  Add,
  /// dst <- a * b (linear-space multiplication).
  Mul,
  /// dst <- a * b + c (fused by the O2+ peephole).
  FusedMulAdd,
  /// dst <- log(exp(a) + exp(b)) (log-space addition; uses the vector
  /// math library when enabled).
  LogSumExp,
  /// dst <- gaussian pdf (linear) of a, Gaussians[B].
  Gaussian,
  /// dst <- gaussian log-pdf of a, Gaussians[B].
  GaussianLog,
  /// dst <- lookup of a in Tables[B] (histogram / categorical). The table
  /// values are log-probabilities when the task computes in log space.
  TableLookup,
  /// dst <- (lo <= a < hi) ? v : dst, Selects[B]. The GPU lowering emits
  /// cascades of these instead of table lookups (paper §IV-C).
  SelectInRange,
  /// dst <- isnan(a) ? constpool[B] : dst. Emitted after select cascades
  /// of marginal-supporting discrete leaves.
  NanBlend,
  /// N-ary variants produced by the O2 chain-collapse peephole: operands
  /// are the registers Args[A .. A+B). dst <- sum / product of them.
  AddN,
  MulN,
  /// dst <- log sum_j exp(r_j + constpool[s_j]): the weighted log-sum-exp
  /// of a sum node, r_j = Args[A + j] a register and s_j = Args[C + j] a
  /// const-pool slot, for j < B. The slots hold the sum's log-weights;
  /// an unweighted operand names a pooled structural 0.0.
  LogSumExpN,
  /// dst <- max(a, b). Emitted for sum nodes of MPE (max-product)
  /// queries; identical in linear and log space (max is monotonic under
  /// log).
  Max,
  /// The weighted log-sum-exps of C sums over the same B children (a
  /// RAT-SPN region's sums), sharing one maximum and one exponential per
  /// child. Args[A .. A+B) are the children c_j, Args[A+B .. A+B+C) the
  /// destinations d_i, and Args[A+B+C + i*B + j] the const-pool slot of
  /// the raw (linear) weight w_ij of child j in sum i; Dst is unused.
  /// With m = max_j c_j and e_j = exp(c_j - m), or 0 where c_j - m is
  /// below -SharedExpLimits<T>::Cut or NaN:
  ///   d_i <- m + log sum_j w_ij * e_j,   -inf where m is -inf.
  /// A lane whose linear sum falls below SharedExpLimits<T>::Floor
  /// recomputes d_i as log sum_j exp(c_j + log w_ij), the log taken of
  /// the double weight. Engines read every child before they write a
  /// destination, so a destination may share a child's register.
  /// 1 <= B <= kMaxNaryArgs and C >= 1 (checked by decodeProgram).
  LogSumExpGroup,
};

/// Most operands of an n-ary instruction the -O2 chain collapse emits:
/// larger fan-in is split into a tree of chunked n-ary ops, because
/// unbounded n-ary ops would keep every operand register live
/// simultaneously, destroying GPU occupancy (and CPU register-file
/// locality). Engines may rely on it for speed, not for correctness;
/// LogSumExpGroup's children are bounded by it.
inline constexpr uint32_t kMaxNaryArgs = 8;

/// The limits of LogSumExpGroup in compute type T (float or double).
/// Cut: a child more than Cut nats below the maximum counts as exactly
/// 0, so every kept product w * e_j is normal for weights w >= 2^-39
/// (f32: e^-60 * 2^-39 > 2^-126) or w >= 2^-156 (f64: e^-600 * 2^-156 >
/// 2^-1022); a subnormal product costs a microcode assist per lane.
/// Floor: a linear sum below it is recomputed exactly, and above it the
/// terms the cut drops (at most kMaxNaryArgs * e^-Cut for weights <= 1)
/// stay below half an ulp of the sum (f32: 8 * e^-60 < 2^-50 * 2^-25;
/// f64: 8 * e^-600 < 2^-800 * 2^-54).
template <typename T> struct SharedExpLimits;
template <> struct SharedExpLimits<float> {
  static constexpr float Cut = 60.0f;
  static constexpr float Floor = 0x1p-50f;
};
template <> struct SharedExpLimits<double> {
  static constexpr double Cut = 600.0;
  static constexpr double Floor = 0x1p-800;
};

/// One bytecode instruction. Register operands index the per-sample
/// register file; immediate operands index per-program side tables.
struct Instruction {
  OpCode Op;
  uint32_t Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
};

/// Precomputed Gaussian parameters. For log-space tasks, `Coefficient`
/// holds log(1/(sigma*sqrt(2pi))); for linear space the raw coefficient.
struct GaussianParams {
  double Mean = 0.0;
  double InvStdDev = 1.0;
  double Coefficient = 0.0;
  /// Generate the NaN check for marginalized evidence.
  bool SupportMarginal = false;
  /// Value contributed by a marginalized feature (1 or log 1 = 0).
  double MarginalValue = 0.0;
};

/// Lookup table for discrete leaves. Dense tables map integral evidence
/// x in [Lo, Lo + Values.size()) to Values[x - Lo]; out-of-range evidence
/// yields DefaultValue (0, or -inf in log space).
struct LookupTable {
  double Lo = 0.0;
  std::vector<double> Values;
  double DefaultValue = 0.0;
  bool SupportMarginal = false;
  double MarginalValue = 0.0;
};

/// One range-select of a GPU-style select cascade.
struct SelectRange {
  double Lo = 0.0;
  double Hi = 0.0;
  double Value = 0.0;
};

/// Constants shared between code generation and weight-table binding:
/// log(sqrt(2*pi)) and 1/sqrt(2*pi) of the Gaussian pdf. Binding must
/// reproduce the code generator's arithmetic bit-for-bit, so both sides
/// use these exact literals.
inline constexpr double kLogSqrt2Pi = 0.91893853320467274178;
inline constexpr double kInvSqrt2Pi = 0.39894228040143267794;

/// Which side-table slot of a task a tunable parameter lands in
/// (docs/merging.md).
enum class ParamSlotKind : uint8_t {
  /// ConstPool[Index] (a sum-weight constant: the log-weight through a
  /// Log transform in log space, the raw weight through Identity in
  /// linear space and for the weights of a LogSumExpGroup).
  ConstPool = 0,
  /// Gaussians[Index].Mean.
  GaussianMean = 1,
  /// Gaussians[Index].InvStdDev.
  GaussianInvStdDev = 2,
  /// Gaussians[Index].Coefficient.
  GaussianCoefficient = 3,
  /// Tables[Index].Values[Slot .. Slot + Count) (one histogram bucket
  /// may span several dense-table slots).
  TableValue = 4,
  /// Selects[Index].Value (select-cascade lowering).
  SelectValue = 5,
  /// A sum weight the -O2 peephole folded into Gaussians[Index]: its
  /// Coefficient and MarginalValue absorb the weight (added in log
  /// space, multiplied in linear space; see vm::foldWeight).
  GaussianFold = 6,
  /// A sum weight folded into Tables[Index]: every value, the
  /// DefaultValue and the MarginalValue absorb it.
  TableFold = 7,
};

/// How a raw model parameter is transformed before it is written into
/// the slot. Mirrors the code generator's constant folding exactly.
enum class ParamTransform : uint8_t {
  /// slot = p.
  Identity = 0,
  /// slot = log(p) (log-space weights, table masses).
  Log = 1,
  /// slot = 1 / p (Gaussian InvStdDev from the stddev).
  Reciprocal = 2,
  /// slot = -log(p) - log(sqrt(2 pi)) (log-space Gaussian coefficient
  /// from the stddev).
  LogGaussCoefficient = 3,
  /// slot = (1 / sqrt(2 pi)) / p (linear-space Gaussian coefficient).
  LinearGaussCoefficient = 4,
};

/// One tunable slot of a task: binding a weight table writes
/// Transform(Raw[Param]) into the slot the site describes, or folds it
/// into a leaf (the Fold kinds, which follow the leaf's own sites). The
/// sites of structurally-isomorphic models are identical; only the raw
/// parameter vectors differ.
struct ParamSite {
  ParamSlotKind Kind = ParamSlotKind::ConstPool;
  ParamTransform Transform = ParamTransform::Identity;
  /// Index into the task's ConstPool / Gaussians / Tables / Selects.
  uint32_t Index = 0;
  /// First affected Values slot (TableValue only).
  uint32_t Slot = 0;
  /// Number of affected Values slots (TableValue; 1 otherwise).
  uint32_t Count = 1;
  /// Index into the canonical parameter vector (merge::extractParams).
  uint32_t Param = 0;
};

/// How a bytecode load/store addresses a buffer.
struct BufferAccess {
  /// Index into the kernel's buffer plan.
  uint32_t Buffer = 0;
  /// Feature index (row-major input) or slot index (transposed
  /// intermediate).
  uint32_t Index = 0;
};

/// The parameter side tables of one task: everything binding a weight
/// table rewrites (docs/merging.md). Engines bind a table into one of
/// these per task and run the task's instruction stream over it.
struct TaskParams {
  std::vector<double> ConstPool;
  std::vector<GaussianParams> Gaussians;
  std::vector<LookupTable> Tables;
  std::vector<SelectRange> Selects;
};

/// Executable form of one LoSPN task.
struct TaskProgram : TaskParams {
  std::vector<Instruction> Code;
  uint32_t NumRegisters = 0;
  std::vector<BufferAccess> Loads;
  std::vector<BufferAccess> Stores;
  /// Operand lists of the n-ary instructions: registers, the const-pool
  /// slots of LogSumExpN's and LogSumExpGroup's weights, and
  /// LogSumExpGroup's destination registers.
  std::vector<uint32_t> Args;
  /// Tunable slots (joint/marginal programs; empty for MPE/sampling,
  /// whose traceback plan bakes values). The inherited side tables hold
  /// the generating model's own binding, so a program runs stand-alone.
  std::vector<ParamSite> ParamSites;
};

/// Role and layout of one kernel-level buffer.
struct BufferInfo {
  enum class Kind : uint8_t { Input, Output, Intermediate };
  Kind Role = Kind::Intermediate;
  /// Number of features (inputs) or slots (outputs/intermediates).
  uint32_t Columns = 1;
  /// True for [slot][sample] layout (contiguous per slot); false for the
  /// row-major [sample][feature] layout of external inputs.
  bool Transposed = true;
  /// GPU: buffer stays on the device between tasks (paper §IV-C).
  bool DeviceResident = false;
};

/// How the code generator lowered discrete leaves — the CPU strategy
/// uses dense table lookups, the GPU strategy select cascades (paper
/// §IV-C). Recorded in the program (and its binary header) so a loaded
/// kernel can default to the matching engine.
enum class LoweringKind : uint8_t {
  /// Not recorded (hand-built programs).
  Unknown = 0,
  TableLookup = 1,
  SelectCascade = 2,
};

/// The inference task a program was generated for: the frontend's
/// header-only enum (the frontend sits below vm), whose values are the
/// `.spnk` header's query byte.
using spn::QueryKind;

/// Node kinds of the downward-traceback plan attached to MPE/sampling
/// programs (docs/queries.md).
enum class PlanNodeKind : uint8_t {
  /// A binary sum-combine step: for MPE descend into child A iff
  /// R[RegA] >= R[RegB] (ties -> A, which makes n-ary argmax ties
  /// resolve to the lowest child index through the left-associative
  /// chain); for sampling descend into B with probability
  /// value(B) / (value(A) + value(B)).
  Choice = 0,
  /// A product: traceback descends into both children.
  Both = 1,
  /// A weighted term (child times constant): descends into the single
  /// child A.
  Pass = 2,
  /// Discrete leaf (histogram / categorical): assigns the evidence when
  /// observed; otherwise the mode (MPE) or a CDF-walk draw (sampling)
  /// over Buckets[TableBegin .. TableBegin + 3*TableCount).
  LeafTable = 3,
  /// Gaussian leaf: assigns the evidence when observed; otherwise the
  /// mean (MPE mode) or a Box-Muller draw (sampling).
  LeafGaussian = 4,
};

/// One node of the traceback plan. Child references A/B index
/// TracebackPlan::Nodes; RegA/RegB reference the task's register file
/// after the upward pass of the same sample.
struct PlanNode {
  PlanNodeKind Kind = PlanNodeKind::Pass;
  /// Child plan-node indices (-1 = absent).
  int32_t A = -1;
  int32_t B = -1;
  /// Upward-pass value registers of the two combine inputs (Choice).
  uint32_t RegA = 0;
  uint32_t RegB = 0;
  /// Feature index assigned by a leaf node.
  uint32_t Feature = 0;
  /// Gaussian parameters (LeafGaussian).
  double Mean = 0.0;
  double StdDev = 1.0;
  /// Assignment for an unobserved feature under MPE: the distribution's
  /// mode (lowest-value mode on tied masses).
  double Mode = 0.0;
  /// Bucket triples (lb, ub, linear-space mass) of a LeafTable node,
  /// stored flattened in TracebackPlan::Buckets.
  uint32_t TableBegin = 0;
  uint32_t TableCount = 0;
};

/// Downward traceback plan for MPE / ancestral-sampling programs. Built
/// by the code generator at optimization level 0 (one register per
/// value, single task) so RegA/RegB stay valid; empty (Root == -1) for
/// joint/marginal programs.
struct TracebackPlan {
  std::vector<PlanNode> Nodes;
  /// Flattened (lb, ub, mass) triples referenced by LeafTable nodes.
  std::vector<double> Buckets;
  /// Plan node of the kernel's root value, or -1 when no plan exists.
  int32_t Root = -1;

  bool empty() const { return Root < 0; }
};

/// One step of a kernel: either a task execution or a buffer copy (the
/// latter only occurs with copy avoidance disabled, paper §IV-A5).
struct KernelStep {
  /// Index into Tasks, or -1 for a copy step.
  int32_t Task = -1;
  int32_t CopySrc = -1;
  int32_t CopyDst = -1;
};

/// Executable form of one LoSPN kernel.
struct KernelProgram {
  std::string Name;
  std::vector<TaskProgram> Tasks;
  std::vector<KernelStep> Steps;
  std::vector<BufferInfo> Buffers;
  uint32_t NumInputs = 0;
  uint32_t NumOutputs = 0;
  /// Compute in 32-bit floats (paper: f32 log-space for speaker models).
  bool UseF32 = true;
  /// Results are log-probabilities.
  bool LogSpace = true;
  /// Optimization hint from the query (chunk/block size).
  uint32_t BatchSize = 4096;
  /// The discrete-leaf lowering strategy this program was generated with.
  LoweringKind Lowering = LoweringKind::Unknown;
  /// The inference task this program was generated for.
  QueryKind Query = QueryKind::Joint;
  /// Downward traceback plan (MPE / sampling programs only).
  TracebackPlan Plan;
  /// Length of the canonical parameter vector the sites index into
  /// (docs/merging.md): engines rebind a joint/marginal program's sum
  /// weights and leaf parameters from per-model weight tables of this
  /// length.
  uint32_t NumParams = 0;

  /// Total number of instructions across all tasks.
  size_t totalInstructions() const {
    size_t Total = 0;
    for (const TaskProgram &Task : Tasks)
      Total += Task.Code.size();
    return Total;
  }
};

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_BYTECODE_H
