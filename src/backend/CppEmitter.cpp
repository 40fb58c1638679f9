//===- CppEmitter.cpp - KernelProgram -> C++ translation units ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// The emitted code runs a batch as blocks of W rows, W being the lane
// width the kernel is emitted for, like the VM's vector engine:
//
//   * every register is a GCC vector of W lanes of the compute type, and
//     each bytecode instruction is one vector statement;
//   * per block, every buffer holds one vector per column: the block's
//     rows of the external input are transposed into its columns (the
//     VM's loads+shuffles), the steps run in program order, and the real
//     rows of the output columns are written back. Intermediate buffers
//     hold one block. The last, partial block runs padded with zero rows;
//   * each task's code is cut into segment functions of at most
//     kCppSegmentInstructions instructions that take the register file,
//     the buffer table "b" and the parameter block "p" (CppParamLayout)
//     by pointer; structural constants (bucket bounds) are spelled as
//     hexadecimal float literals, so no precision is lost in the round
//     trip through source text.
//
// Every statement mirrors the arithmetic of the VM's block engine
// (vm::runBlock) with its vector library, whatever the query kind: f32
// exp, log and log1p run the VecMath polynomials, copied into every unit
// from vm/VecMathKernels.inc, and f64 calls libm per lane, as VecMath's
// double lane arrays do. So the upward registers the downward pass of
// MPE and sampling (vm::completeRows, on the host) reads are computed as
// the VM computes them.
//
// Segments are spread over translation units balanced by instruction
// count, so the host compiler builds the units concurrently and never
// sees a function larger than one segment. The units include no headers:
// the math goes through the compiler builtins (__builtin_exp,
// __builtin_floor, ...), which name the same libm functions <cmath> does.
//
//===----------------------------------------------------------------------===//

#include "backend/CppEmitter.h"

#include "support/StringUtils.h"
#include "vm/Operands.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>

using namespace spnc;
using namespace spnc::backend;
using namespace spnc::vm;

namespace {

/// The VecMath polynomial kernels as source text.
#define SPNC_VECMATH_KERNELS(...) #__VA_ARGS__
const char *const kVecMathKernels =
#include "vm/VecMathKernels.inc"
    ;
#undef SPNC_VECMATH_KERNELS

/// Renders \p Value as a C++17 expression of type double that
/// round-trips exactly: hexadecimal float literals for finite values,
/// compiler builtins for the specials.
std::string formatDouble(double Value) {
  if (std::isnan(Value))
    return "__builtin_nan(\"\")";
  if (std::isinf(Value))
    return Value > 0 ? "__builtin_inf()" : "-__builtin_inf()";
  return formatString("%a", Value);
}

/// The same, pre-cast to the kernel's compute type.
std::string formatValue(double Value) {
  return "(value_t)" + formatDouble(Value);
}

std::string reg(uint32_t Index) {
  return "r[" + std::to_string(Index) + "]";
}

/// Expression reading parameter-block slot \p Idx.
std::string paramExpr(size_t Idx) { return "p[" + std::to_string(Idx) + "]"; }

/// Name of the block storage of buffer \p BufIdx: one vector per column.
std::string bufferName(size_t BufIdx) {
  // Appended rather than "b" + ..., which GCC 12 flags with -Wrestrict.
  std::string Name = "b";
  Name += std::to_string(BufIdx);
  return Name;
}

/// The column a load or store names, in the block.
std::string column(const BufferAccess &Access) {
  return bufferName(Access.Buffer) + "[" + std::to_string(Access.Index) +
         "]";
}

/// Emits instruction \p I of task \p TaskIdx as one vector statement over
/// the block's lanes. Every side-table value is read from the parameter
/// block "p", which holds the program's values narrowed to value_t as
/// the VM narrows them; the exp and log behind the spnc_* helpers come
/// from the unit's prelude (emitMath).
void emitInstruction(std::string &Out, const TaskProgram &Task,
                     size_t TaskIdx, const Instruction &I,
                     const CppParamLayout &PL) {
  std::string Value;
  switch (I.Op) {
  case OpCode::Const:
    Value = "splat(" + paramExpr(PL.ConstSlot[TaskIdx][I.A]) + ")";
    break;
  case OpCode::Load:
    Value = column(Task.Loads[I.A]);
    break;
  case OpCode::Store:
    Out += "  " + column(Task.Stores[I.A]) + " = " + reg(I.Dst) + ";\n";
    return;
  case OpCode::Add:
    Value = reg(I.A) + " + " + reg(I.B);
    break;
  case OpCode::Mul:
    Value = reg(I.A) + " * " + reg(I.B);
    break;
  case OpCode::FusedMulAdd:
    Value = reg(I.A) + " * " + reg(I.B) + " + " + reg(I.C);
    break;
  case OpCode::LogSumExp:
    Value = "spnc_lse(" + reg(I.A) + ", " + reg(I.B) + ")";
    break;
  case OpCode::Max:
    // Ties keep A so MPE argmax ties resolve to the lowest child index,
    // like the VM.
    Value = reg(I.A) + " >= " + reg(I.B) + " ? " + reg(I.A) + " : " +
            reg(I.B);
    break;
  case OpCode::Gaussian:
  case OpCode::GaussianLog: {
    size_t Slot = PL.GaussianBase[TaskIdx] + 4 * static_cast<size_t>(I.B);
    Value = formatString("spnc_gaussian%s(%s, p + %zu)",
                         I.Op == OpCode::GaussianLog ? "_log" : "",
                         reg(I.A).c_str(), Slot);
    if (Task.Gaussians[I.B].SupportMarginal)
      Value = "spnc_marginal(" + reg(I.A) + ", " + paramExpr(Slot + 3) +
              ", " + Value + ")";
    break;
  }
  case OpCode::TableLookup: {
    const LookupTable &Table = Task.Tables[I.B];
    size_t Base = PL.TableBase[TaskIdx][I.B];
    size_t Size = Table.Values.size();
    Value = formatString("spnc_lookup(%s, p + %zu, %zu, %s)",
                         reg(I.A).c_str(), Base, Size,
                         formatDouble(Table.Lo).c_str());
    if (Table.SupportMarginal)
      Value = "spnc_marginal(" + reg(I.A) + ", " +
              paramExpr(Base + Size + 1) + ", " + Value + ")";
    break;
  }
  case OpCode::SelectInRange: {
    const SelectRange &Range = Task.Selects[I.B];
    Value = "spnc_select(" + reg(I.A) + ", " + formatValue(Range.Lo) +
            ", " + formatValue(Range.Hi) + ", " +
            paramExpr(PL.SelectBase[TaskIdx] + I.B) + ", " + reg(I.Dst) +
            ")";
    break;
  }
  case OpCode::NanBlend:
    Value = "spnc_marginal(" + reg(I.A) + ", " +
            paramExpr(PL.ConstSlot[TaskIdx][I.B]) + ", " + reg(I.Dst) + ")";
    break;
  case OpCode::AddN:
  case OpCode::MulN: {
    // From the identity, accumulating in Args order like the VM.
    bool IsAdd = I.Op == OpCode::AddN;
    Value = IsAdd ? "splat(0)" : "splat(1)";
    for (uint32_t N = 0; N < I.B; ++N)
      Value += (IsAdd ? " + " : " * ") + reg(Task.Args[I.A + N]);
    break;
  }
  case OpCode::LogSumExpN: {
    // Each operand is its register plus its weight; then the lanes'
    // maximum and the sum of exp(operand - maximum).
    Out += "  {\n";
    for (uint32_t N = 0; N < I.B; ++N)
      Out += formatString(
          "    vec_t o%u = %s + %s;\n", N, reg(Task.Args[I.A + N]).c_str(),
          paramExpr(PL.ConstSlot[TaskIdx][Task.Args[I.C + N]]).c_str());
    Out += "    vec_t mx = splat(kNegInf);\n";
    for (uint32_t N = 0; N < I.B; ++N)
      Out += formatString("    mx = o%u > mx ? o%u : mx;\n", N, N);
    Out += "    vec_t sum = splat(0);\n";
    for (uint32_t N = 0; N < I.B; ++N)
      Out += formatString("    sum += spnc_exp(spnc_guard(o%u - mx));\n", N);
    Out += "    " + reg(I.Dst) +
           " = mx == kNegInf ? mx : mx + spnc_log(sum);\n  }\n";
    return;
  }
  case OpCode::LogSumExpGroup: {
    // The children into locals first (a destination may share a child's
    // register), their maximum and one exponential each; then per sum
    // its weighted linear sum and spnc_group_log, which also gets the
    // log-weights for the lanes whose sum underflowed.
    const uint32_t *Children = &Task.Args[I.A];
    const uint32_t *Dsts = Children + I.B;
    const uint32_t *Slots = Dsts + I.C;
    std::string List;
    for (uint32_t N = 0; N < I.B; ++N)
      List += (N ? ", " : "") + reg(Children[N]);
    Out += formatString("  {\n    const vec_t c[%u] = {%s};\n", I.B,
                        List.c_str());
    Out += "    vec_t mx = splat(kNegInf);\n";
    for (uint32_t N = 0; N < I.B; ++N)
      Out += formatString("    mx = c[%u] > mx ? c[%u] : mx;\n", N, N);
    for (uint32_t N = 0; N < I.B; ++N)
      Out += formatString("    vec_t e%u = spnc_group_exp(c[%u] - mx);\n", N,
                          N);
    for (uint32_t S = 0; S < I.C; ++S) {
      const uint32_t *Weights = Slots + static_cast<size_t>(S) * I.B;
      Out += "    {\n      vec_t sum = splat(0);\n";
      std::string Logs;
      for (uint32_t N = 0; N < I.B; ++N) {
        Out += formatString(
            "      sum += %s * e%u;\n",
            paramExpr(PL.ConstSlot[TaskIdx][Weights[N]]).c_str(), N);
        Logs += (N ? ", " : "") +
                paramExpr(PL.LogConstSlot[TaskIdx][Weights[N]]);
      }
      Out += formatString("      const value_t lw[%u] = {%s};\n", I.B,
                          Logs.c_str());
      Out += "      " + reg(Dsts[S]) +
             formatString(" = spnc_group_log(sum, mx, c, lw, %u);\n    }\n",
                          I.B);
    }
    Out += "  }\n";
    return;
  }
  }
  Out += "  " + reg(I.Dst) + " = " + Value + ";\n";
}

/// One segment function: instructions [Begin, End) of task \p Task,
/// the \p Index-th segment of that task.
struct Segment {
  size_t Task;
  size_t Index;
  size_t Begin;
  size_t End;
};

/// Cuts the code of every task into evenly sized segments of at most
/// kCppSegmentInstructions instructions, tasks in order.
std::vector<Segment> cutSegments(const KernelProgram &Program) {
  std::vector<Segment> Segments;
  for (size_t T = 0; T < Program.Tasks.size(); ++T) {
    size_t Size = Program.Tasks[T].Code.size();
    size_t Count =
        (Size + kCppSegmentInstructions - 1) / kCppSegmentInstructions;
    for (size_t S = 0; S < Count; ++S)
      Segments.push_back({T, S, Size * S / Count, Size * (S + 1) / Count});
  }
  return Segments;
}

/// Unit of each segment: largest segment first onto the unit with the
/// fewest instructions so far (lowest index on ties), which balances
/// the units and leaves none empty while segments remain.
std::vector<size_t> assignUnits(const std::vector<Segment> &Segments,
                                size_t NumUnits) {
  auto SizeOf = [&](size_t S) {
    return Segments[S].End - Segments[S].Begin;
  };
  std::vector<size_t> Order(Segments.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return SizeOf(A) > SizeOf(B);
  });
  std::vector<size_t> Load(NumUnits, 0);
  std::vector<size_t> UnitOf(Segments.size(), 0);
  for (size_t S : Order) {
    size_t Unit = static_cast<size_t>(
        std::min_element(Load.begin(), Load.end()) - Load.begin());
    UnitOf[S] = Unit;
    Load[Unit] += SizeOf(S);
  }
  return UnitOf;
}

std::string segmentName(const Segment &Seg) {
  return "spnc_t" + std::to_string(Seg.Task) + "_s" +
         std::to_string(Seg.Index);
}

/// Emits exp, log and log1p(exp) over lanes as the VM's vector engine
/// computes them with its vector library, plus the guard it puts on
/// log-sum-exp differences and, for a program with a LogSumExpGroup, the
/// group's helpers.
void emitMath(std::string &Out, const KernelProgram &Program,
              unsigned Lanes) {
  if (Program.UseF32) {
    Out += formatString(
        "\n// exp, log and log1p(exp) of the VM's vector engine: the VecMath\n"
        "// polynomials.\n"
        "typedef int ivec_t __attribute__((vector_size(%u * sizeof(int))));\n",
        Lanes);
    Out += kVecMathKernels;
    Out += "\nSPNC_OUTLINE vec_t spnc_exp(vec_t x) {\n"
           "  return polyExpNeg<vec_t, ivec_t>(x);\n"
           "}\n"
           "SPNC_OUTLINE vec_t spnc_log(vec_t x) {\n"
           "  return polyLogPos<vec_t, ivec_t>(x);\n"
           "}\n"
           "inline vec_t spnc_log1p_exp(vec_t x) {\n"
           "  return polyLog1p01(polyExpNeg<vec_t, ivec_t>(x));\n"
           "}\n";
  } else {
    // VecMath's double lane arrays clamp the exponent to <= 0.
    Out += "\n// exp, log and log1p(exp) of the VM's vector engine: libm on every\n"
           "// lane.\n"
           "SPNC_OUTLINE vec_t spnc_exp(vec_t x) {\n"
           "  return spnc_lanes(\n"
           "      x, [](double v) { return __builtin_exp(v > 0.0 ? 0.0 : v); });\n"
           "}\n"
           "SPNC_OUTLINE vec_t spnc_log(vec_t x) {\n"
           "  return spnc_lanes(x, [](double v) { return __builtin_log(v); });\n"
           "}\n"
           "inline vec_t spnc_log1p_exp(vec_t x) {\n"
           "  return spnc_lanes(x, [](double v) {\n"
           "    return __builtin_log1p(__builtin_exp(v > 0.0 ? 0.0 : v));\n"
           "  });\n"
           "}\n";
  }
  Out += "// A NaN difference ((-inf) - (-inf)) counts as -inf.\n"
         "inline vec_t spnc_guard(vec_t d) {\n"
         "  return d != d ? splat(kNegInf) : d;\n"
         "}\n";
  // The group helpers only where a group needs them: a program without
  // one (a speaker kernel) keeps the units of the emitter before them.
  bool HasGroup = false;
  for (const TaskProgram &Task : Program.Tasks)
    for (const Instruction &I : Task.Code)
      HasGroup = HasGroup || I.Op == OpCode::LogSumExpGroup;
  if (!HasGroup)
    return;
  double Cut = Program.UseF32 ? SharedExpLimits<float>::Cut
                              : SharedExpLimits<double>::Cut;
  double Floor = Program.UseF32 ? SharedExpLimits<float>::Floor
                                : SharedExpLimits<double>::Floor;
  Out += formatString(
      "\n"
      "// LogSumExpGroup (vm::SharedExpLimits): exp of a child's distance d\n"
      "// to the maximum, 0 below the cut; then m + log of a sum, and the\n"
      "// lanes whose sum fell below the floor recomputed in double as\n"
      "// log sum_j exp(c_j + lw_j) from the log-weights lw.\n"
      "const value_t kGroupCut = %s;\n"
      "const value_t kGroupFloor = %s;\n"
      "inline vec_t spnc_group_exp(vec_t d) {\n"
      "  d = spnc_guard(d);\n"
      "  return d >= -kGroupCut ? spnc_exp(d) : splat(0);\n"
      "}\n"
      "SPNC_OUTLINE vec_t spnc_group_log(vec_t sum, vec_t mx, const vec_t *c,\n"
      "                                  const value_t *lw, size_t n) {\n"
      "  vec_t v = mx + spnc_log(sum);\n"
      "  v = mx == kNegInf ? mx : v;\n"
      "  for (size_t l = 0; l < kLanes; ++l) {\n"
      "    if (!(sum[l] < kGroupFloor) || mx[l] == kNegInf)\n"
      "      continue;\n"
      "    double t[%u], m = -__builtin_inf(), s = 0.0;\n"
      "    for (size_t j = 0; j < n; ++j) {\n"
      "      t[j] = (double)c[j][l] + (double)lw[j];\n"
      "      m = t[j] > m ? t[j] : m;\n"
      "    }\n"
      "    if (m == -__builtin_inf()) {\n"
      "      v[l] = kNegInf;\n"
      "      continue;\n"
      "    }\n"
      "    for (size_t j = 0; j < n; ++j)\n"
      "      if (t[j] - m == t[j] - m)\n"
      "        s += __builtin_exp(t[j] - m);\n"
      "    v[l] = (value_t)(m + __builtin_log(s));\n"
      "  }\n"
      "  return v;\n"
      "}\n",
      formatValue(Cut).c_str(), formatValue(Floor).c_str(), kMaxNaryArgs);
}

/// Emits the head every unit shares: the compute type, the register
/// vector, the segment signature and the leaf and log-sum-exp helpers.
void emitPrelude(std::string &Out, const KernelProgram &Program,
                 unsigned Lanes, size_t Unit, size_t NumUnits) {
  Out += formatString(
      "// Generated by the SPNC cpp backend (emitter v%u) from "
      "kernel '%s', unit %zu of %zu.\n"
      "// compute type: %s; %s space; lowering: %s; %u lanes.\n",
      kCppEmitterVersion, Program.Name.c_str(), Unit, NumUnits,
      Program.UseF32 ? "f32" : "f64", Program.LogSpace ? "log" : "linear",
      Program.Lowering == LoweringKind::SelectCascade ? "select-cascade"
                                                      : "table-lookup",
      Lanes);
  Out += "typedef decltype(sizeof 0) size_t;\n";
  Out += formatString("typedef %s value_t;\n",
                      Program.UseF32 ? "float" : "double");
  Out += formatString(
      "// One register: a lane per row of the block. Element-aligned, so\n"
      "// any value_t storage holds registers.\n"
      "typedef value_t vec_t __attribute__((\n"
      "    vector_size(%u * sizeof(value_t)), aligned(sizeof(value_t))));\n",
      Lanes);
  Out += "\n"
         "// Every segment runs a slice of one task over a block: the\n"
         "// register file r, the buffer table b (each buffer's columns,\n"
         "// indexed by buffer id) and the parameter block p. Never inlined,\n"
         "// so every register write stays a store and the compiler sees the\n"
         "// same code whichever unit holds the segment.\n"
         "#define SPNC_SEGMENT(name)                                       \\\n"
         "  extern \"C\" __attribute__((visibility(\"hidden\"), noinline))     "
         "\\\n"
         "  void name(vec_t *__restrict r, vec_t *const *b,                \\\n"
         "            const value_t *__restrict p)\n"
         "\n"
         "// The math and leaf helpers stay calls: inlined at every use, they\n"
         "// made the units take about twice as long to compile and gained no\n"
         "// speed.\n"
         "#define SPNC_OUTLINE __attribute__((noinline))\n"
         "\n"
         "namespace {\n";
  Out += formatString("const size_t kLanes = %u;\n", Lanes);
  Out += "const value_t kNegInf = -(value_t)__builtin_inf();\n"
         "\n"
         "// v in every lane (v - 0 == v for every v, signed zeros included).\n"
         "inline vec_t splat(value_t v) { return v - (vec_t){}; }\n"
         "\n"
         "// f on every lane, through double.\n"
         "template <typename F> inline vec_t spnc_lanes(vec_t x, F f) {\n"
         "  vec_t y;\n"
         "  for (size_t l = 0; l < kLanes; ++l)\n"
         "    y[l] = (value_t)f((double)x[l]);\n"
         "  return y;\n"
         "}\n";
  emitMath(Out, Program, Lanes);
  Out += "\n"
         "SPNC_OUTLINE vec_t spnc_lse(vec_t a, vec_t b) {\n"
         "  vec_t mx = a > b ? a : b;\n"
         "  vec_t lse = mx + spnc_log1p_exp(spnc_guard((a > b ? b : a) - mx));\n"
         "  return mx == kNegInf ? mx : lse;\n"
         "}\n"
         "\n"
         "// Gaussian leaves; g = (Mean, InvStdDev, Coefficient, "
         "MarginalValue).\n"
         "SPNC_OUTLINE vec_t spnc_gaussian(vec_t x, const value_t *g) {\n"
         "  vec_t n = (x - g[0]) * g[1];\n"
         "  return g[2] * spnc_exp((value_t)-0.5 * n * n);\n"
         "}\n"
         "SPNC_OUTLINE vec_t spnc_gaussian_log(vec_t x, const value_t *g) {\n"
         "  vec_t n = (x - g[0]) * g[1];\n"
         "  return g[2] - (value_t)0.5 * n * n;\n"
         "}\n"
         "\n"
         "// Dense-table leaf over the buckets [lo, lo + size): t holds their\n"
         "// values, then the value of evidence outside them (NaN included).\n"
         "SPNC_OUTLINE vec_t spnc_lookup(vec_t x, const value_t *t,\n"
         "                               long long size, double lo) {\n"
         "  vec_t y;\n"
         "  for (size_t l = 0; l < kLanes; ++l) {\n"
         "    double f = __builtin_floor((double)x[l] - lo);\n"
         "    y[l] = f >= 0 && f < size ? t[(long long)f] : t[size];\n"
         "  }\n"
         "  return y;\n"
         "}\n"
         "\n"
         "// m where x is NaN (marginalized evidence), v elsewhere.\n"
         "inline vec_t spnc_marginal(vec_t x, value_t m, vec_t v) {\n"
         "  return x != x ? splat(m) : v;\n"
         "}\n"
         "\n"
         "// v where x lies in [lo, hi), old elsewhere (NaN compares false).\n"
         "inline vec_t spnc_select(vec_t x, value_t lo, value_t hi, value_t v,\n"
         "                         vec_t old) {\n"
         "  return (x >= lo) & (x < hi) ? splat(v) : old;\n"
         "}\n";
}

/// Emits the definition of \p Seg: pointers to the buffers it touches,
/// then its instructions.
void emitSegment(std::string &Out, const KernelProgram &Program,
                 const Segment &Seg, const CppParamLayout &PL) {
  const TaskProgram &Task = Program.Tasks[Seg.Task];
  Out += "\nSPNC_SEGMENT(" + segmentName(Seg) + ") {\n";
  std::set<uint32_t> Buffers;
  for (size_t I = Seg.Begin; I < Seg.End; ++I) {
    const Instruction &Inst = Task.Code[I];
    if (Inst.Op == OpCode::Load)
      Buffers.insert(Task.Loads[Inst.A].Buffer);
    else if (Inst.Op == OpCode::Store)
      Buffers.insert(Task.Stores[Inst.A].Buffer);
  }
  for (uint32_t B : Buffers)
    Out += formatString("  vec_t *b%u = b[%u];\n", B, B);
  for (size_t I = Seg.Begin; I < Seg.End; ++I)
    emitInstruction(Out, Task, Seg.Task, Task.Code[I], PL);
  Out += "}\n";
}

/// Emits the loop moving the block's rows of external buffer \p BufIdx
/// between the caller's array and the buffer's columns: an input is
/// transposed in, padded lanes zero; the output's real rows are written
/// back.
void emitTransfer(std::string &Out, const KernelProgram &Program,
                  size_t BufIdx) {
  const BufferInfo &Info = Program.Buffers[BufIdx];
  std::string Element = Info.Transposed
                            ? std::string("c * n + i + l")
                            : formatString("(i + l) * %u + c", Info.Columns);
  std::string Column = bufferName(BufIdx) + "[c][l]";
  Out += formatString("  for (size_t c = 0; c < %u; ++c)\n", Info.Columns);
  if (Info.Role == BufferInfo::Kind::Input)
    Out += "    for (size_t l = 0; l < kLanes; ++l)\n      " + Column +
           " = l < m ? (value_t)in[" + Element + "] : (value_t)0;\n";
  else
    Out += "    for (size_t l = 0; l < m; ++l)\n      out[" + Element +
           "] = (double)" + Column + ";\n";
}

/// Emits spnc_block, the steps of the program over one block, and the
/// entry points around it: spnc_kernel_run over a whole batch and, with
/// \p Upward, spnc_kernel_upward over one block into the caller's
/// registers.
void emitEntries(std::string &Out, const KernelProgram &Program,
                 const std::vector<Segment> &Segments, bool Upward) {
  Out += "\nnamespace {\n"
         "// Rows [i, i + m) of the n-row batch, m = min(W, n - i), as one\n"
         "// block: the input rows are transposed into their buffer's\n"
         "// columns, the steps run in order, and the real rows of the\n"
         "// output are written back. s holds every buffer's columns.\n"
         "void spnc_block(const double *__restrict in, double *__restrict out,\n"
         "                size_t i, size_t n, vec_t *__restrict r, vec_t *s,\n"
         "                const value_t *__restrict p) {\n"
         "  size_t m = n - i < kLanes ? n - i : kLanes;\n";
  size_t Columns = 0;
  std::string Table;
  for (size_t B = 0; B < Program.Buffers.size(); ++B) {
    Out += formatString("  vec_t *b%zu = s + %zu;\n", B, Columns);
    Columns += Program.Buffers[B].Columns;
    Table += (B ? ", " : "") + bufferName(B);
  }
  Out += formatString("  vec_t *const b[%zu] = {%s};\n",
                      Program.Buffers.size(), Table.c_str());
  for (size_t B = 0; B < Program.Buffers.size(); ++B)
    if (Program.Buffers[B].Role == BufferInfo::Kind::Input)
      emitTransfer(Out, Program, B);
  for (size_t S = 0; S < Program.Steps.size(); ++S) {
    const KernelStep &Step = Program.Steps[S];
    if (Step.Task < 0) {
      // Buffer-to-buffer copy (copy avoidance disabled).
      Out += formatString("  // step %zu: copy buffer %d -> %d\n"
                          "  for (size_t c = 0; c < %u; ++c)\n"
                          "    b%d[c] = b%d[c];\n",
                          S, Step.CopySrc, Step.CopyDst,
                          Program.Buffers[Step.CopySrc].Columns,
                          Step.CopyDst, Step.CopySrc);
      continue;
    }
    const TaskProgram &Task = Program.Tasks[Step.Task];
    Out += formatString(
        "  // step %zu: task %d (%zu instructions, %u registers)\n", S,
        Step.Task, Task.Code.size(), Task.NumRegisters);
    for (const Segment &Seg : Segments)
      if (Seg.Task == static_cast<size_t>(Step.Task))
        Out += "  " + segmentName(Seg) + "(r, b, p);\n";
  }
  for (size_t B = 0; B < Program.Buffers.size(); ++B)
    if (Program.Buffers[B].Role == BufferInfo::Kind::Output)
      emitTransfer(Out, Program, B);
  Out += "}\n"
         "\n"
         "// Zero-filled room for count vectors at a cache-line boundary;\n"
         "// *raw is what to delete[].\n"
         "vec_t *spnc_alloc(size_t count, char **raw) {\n"
         "  *raw = new char[count * sizeof(vec_t) + 63]();\n"
         "  return (vec_t *)(*raw + (-(size_t)*raw & 63));\n"
         "}\n"
         "} // namespace\n";

  uint32_t Registers = 1;
  for (const TaskProgram &Task : Program.Tasks)
    Registers = std::max(Registers, Task.NumRegisters);
  // One register file serves every task and block, like the VM's.
  Out += formatString(
      "\nextern \"C\" void %s(const double *__restrict in, "
      "double *__restrict out, size_t n,\n"
      "                        const void *params) {\n"
      "  char *raw;\n"
      "  vec_t *s = spnc_alloc(%u + %zu, &raw);\n"
      "  for (size_t i = 0; i < n; i += kLanes)\n"
      "    spnc_block(in, out, i, n, s, s + %u, (const value_t *)params);\n"
      "  delete[] raw;\n"
      "}\n",
      kCppKernelSymbol, Registers, Columns, Registers);
  if (Upward)
    Out += formatString(
        "\nextern \"C\" void %s(const double *__restrict in, "
        "double *__restrict out, size_t i,\n"
        "                        size_t n, void *regs, "
        "const void *params) {\n"
        "  char *raw;\n"
        "  vec_t *s = spnc_alloc(%zu, &raw);\n"
        "  spnc_block(in, out, i, n, (vec_t *)regs, s, "
        "(const value_t *)params);\n"
        "  delete[] raw;\n"
        "}\n",
        kCppUpwardSymbol, Columns);
}

} // namespace

Expected<std::vector<std::string>>
spnc::backend::emitCppKernel(const KernelProgram &Program, unsigned Lanes,
                             unsigned MaxUnits) {
  if (Program.NumInputs != 1 || Program.NumOutputs != 1)
    return makeError(
        "cpp emitter supports kernels with one input and one output "
        "buffer (got " +
        std::to_string(Program.NumInputs) + " inputs, " +
        std::to_string(Program.NumOutputs) + " outputs)");
  size_t ValueBytes = Program.UseF32 ? sizeof(float) : sizeof(double);
  if (Lanes == 0 || (Lanes & (Lanes - 1)) != 0 ||
      Lanes * ValueBytes > kCppMaxVectorBytes)
    return makeError("cpp emitter: lane width " + std::to_string(Lanes) +
                     " is not a power of two of at most " +
                     std::to_string(kCppMaxVectorBytes) + " bytes");
  bool NeedsPlan = spn::needsTraceback(Program.Query);
  if (NeedsPlan) {
    if (Program.Plan.empty())
      return makeError(
          "cpp emitter: MPE/sampling program carries no traceback plan");
    if (Program.Tasks.size() != 1 || Program.Steps.size() != 1 ||
        Program.Steps[0].Task != 0)
      return makeError(
          "cpp emitter: MPE/sampling requires a single-task program");
  }

  std::vector<Segment> Segments = cutSegments(Program);
  size_t NumUnits = std::max<size_t>(
      1, std::min<size_t>(std::max(MaxUnits, 1u), Segments.size()));
  std::vector<size_t> UnitOf = assignUnits(Segments, NumUnits);
  CppParamLayout Layout = layoutCppParams(Program);

  std::vector<std::string> Units(NumUnits);
  for (size_t U = 0; U < NumUnits; ++U) {
    std::string &Out = Units[U];
    emitPrelude(Out, Program, Lanes, U, NumUnits);
    Out += "} // namespace\n";
    // Unit 0 calls every segment, so it declares those defined elsewhere.
    if (U == 0)
      for (size_t S = 0; S < Segments.size(); ++S)
        if (UnitOf[S] != 0)
          Out += "SPNC_SEGMENT(" + segmentName(Segments[S]) + ");\n";
    for (size_t S = 0; S < Segments.size(); ++S)
      if (UnitOf[S] == U)
        emitSegment(Out, Program, Segments[S], Layout);
    if (U == 0)
      emitEntries(Out, Program, Segments, NeedsPlan);
  }
  return Units;
}

unsigned spnc::backend::cppLaneWidth(const KernelProgram &Program,
                                     unsigned VectorWidth) {
  unsigned ValueBytes = Program.UseF32 ? sizeof(float) : sizeof(double);
  return std::min(VectorWidth, kCppMaxVectorBytes / ValueBytes);
}

CppParamLayout spnc::backend::layoutCppParams(const KernelProgram &Program) {
  CppParamLayout Layout;
  size_t Off = 0;
  for (const TaskProgram &Task : Program.Tasks) {
    std::vector<size_t> &Const = Layout.ConstSlot.emplace_back(
        Task.ConstPool.size(), CppParamLayout::kUnused);
    auto Read = [&](uint32_t Slot) {
      if (Const[Slot] == CppParamLayout::kUnused)
        Const[Slot] = Off++;
    };
    std::vector<size_t> &Log = Layout.LogConstSlot.emplace_back(
        Task.ConstPool.size(), CppParamLayout::kUnused);
    // A group's raw weights also need their logs (its exact path).
    for (const Instruction &I : Task.Code) {
      bool Group = opcodeInfo(I.Op).Args == ArgsLayout::Group;
      forEachConstRead(Task, I, [&](uint32_t Slot) {
        Read(Slot);
        if (Group && Log[Slot] == CppParamLayout::kUnused)
          Log[Slot] = Off++;
      });
    }
    Layout.GaussianBase.push_back(Off);
    Off += Task.Gaussians.size() * 4;
    std::vector<size_t> &Tables = Layout.TableBase.emplace_back();
    for (const LookupTable &Table : Task.Tables) {
      Tables.push_back(Off);
      Off += Table.Values.size() + 2;
    }
    Layout.SelectBase.push_back(Off);
    Off += Task.Selects.size();
  }
  Layout.Size = Off;
  return Layout;
}

std::vector<double>
spnc::backend::fillCppParams(const KernelProgram &Program,
                             const CppParamLayout &Layout) {
  std::vector<double> Block(Layout.Size);
  for (size_t T = 0; T < Program.Tasks.size(); ++T) {
    const TaskProgram &Task = Program.Tasks[T];
    for (size_t I = 0; I < Task.ConstPool.size(); ++I) {
      if (Layout.ConstSlot[T][I] != CppParamLayout::kUnused)
        Block[Layout.ConstSlot[T][I]] = Task.ConstPool[I];
      if (Layout.LogConstSlot[T][I] != CppParamLayout::kUnused)
        Block[Layout.LogConstSlot[T][I]] = std::log(Task.ConstPool[I]);
    }
    double *Gauss = Block.data() + Layout.GaussianBase[T];
    for (const GaussianParams &G : Task.Gaussians) {
      *Gauss++ = G.Mean;
      *Gauss++ = G.InvStdDev;
      *Gauss++ = G.Coefficient;
      *Gauss++ = G.MarginalValue;
    }
    for (size_t I = 0; I < Task.Tables.size(); ++I) {
      const LookupTable &Table = Task.Tables[I];
      double *Out = std::copy(Table.Values.begin(), Table.Values.end(),
                              Block.data() + Layout.TableBase[T][I]);
      Out[0] = Table.DefaultValue;
      Out[1] = Table.MarginalValue;
    }
    for (size_t I = 0; I < Task.Selects.size(); ++I)
      Block[Layout.SelectBase[T] + I] = Task.Selects[I].Value;
  }
  return Block;
}
