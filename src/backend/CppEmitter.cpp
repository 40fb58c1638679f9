//===- CppEmitter.cpp - KernelProgram -> C++ translation units ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// The emitted code is structured like the scalar interpreter's execution
// of one chunk covering the whole batch:
//
//   * one zero-filled heap array per intermediate buffer ([slot][sample]
//     layout),
//   * one sample loop per kernel step, with a fresh register file per
//     iteration, calling the task's segment functions in order,
//   * each segment a straight-line run of at most kCppSegmentInstructions
//     instructions, with arithmetic copied cast-for-cast from
//     vm::interpretSample, every side-table value read from the
//     parameter block "p" (CppParamLayout) and the structural constants
//     (bucket bounds) spelled as hexadecimal float literals so no
//     precision is lost in the round trip through source text.
//
// MPE and sampling programs add a per-row upward entry point; their
// downward pass runs on the host (vm::completeRows).
//
// Segments are spread over translation units balanced by instruction
// count, so the host compiler builds the units concurrently and never
// sees a function larger than one segment. The units include no headers:
// the math goes through the compiler builtins (__builtin_exp,
// __builtin_isnan, ...), which name the same libm functions <cmath> does.
//
//===----------------------------------------------------------------------===//

#include "backend/CppEmitter.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdint>
#include <numeric>
#include <set>

using namespace spnc;
using namespace spnc::backend;
using namespace spnc::vm;

namespace {

/// printf-append onto \p Out.
void appendf(std::string &Out, const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  char Buffer[512];
  int Length = std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  if (Length > 0)
    Out.append(Buffer, static_cast<size_t>(Length));
}

/// Renders \p Value as a C++17 expression of type double that
/// round-trips exactly: hexadecimal float literals for finite values,
/// compiler builtins for the specials.
std::string formatDouble(double Value) {
  if (std::isnan(Value))
    return "__builtin_nan(\"\")";
  if (std::isinf(Value))
    return Value > 0 ? "__builtin_inf()" : "-__builtin_inf()";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%a", Value);
  return Buffer;
}

/// The same, pre-cast to the kernel's compute type.
std::string formatValue(double Value) {
  return "(value_t)" + formatDouble(Value);
}

/// Element-index expression for buffer \p BufIdx at compile-time column
/// \p Col and loop variable "i". One chunk covers the whole batch, so
/// Offset is 0 and the transposed stride is the sample count "n"
/// (matching the CPU executor's binding of a single full chunk).
std::string indexExpr(const KernelProgram &Program, uint32_t BufIdx,
                      uint32_t Col) {
  const BufferInfo &Info = Program.Buffers[BufIdx];
  std::string Out;
  if (Info.Transposed) {
    if (Col == 0)
      return "i";
    appendf(Out, "(size_t)%u * n + i", Col);
  } else {
    if (Info.Columns == 1)
      return "i";
    appendf(Out, "i * %u + %u", Info.Columns, Col);
  }
  return Out;
}

/// Name of the emitted storage for buffer \p BufIdx.
std::string bufferName(const KernelProgram &Program, uint32_t BufIdx) {
  switch (Program.Buffers[BufIdx].Role) {
  case BufferInfo::Kind::Input:
    return "in";
  case BufferInfo::Kind::Output:
    return "out";
  case BufferInfo::Kind::Intermediate:
    break;
  }
  std::string Name = "b";
  Name += std::to_string(BufIdx);
  return Name;
}

/// Expression loading one element of \p BufIdx as value_t (external
/// buffers are double and narrowed on load, like the interpreter).
std::string loadExpr(const KernelProgram &Program, uint32_t BufIdx,
                     uint32_t Col) {
  std::string Element =
      bufferName(Program, BufIdx) + "[" + indexExpr(Program, BufIdx, Col) + "]";
  if (Program.Buffers[BufIdx].Role == BufferInfo::Kind::Intermediate)
    return Element;
  return "(value_t)" + Element;
}

/// Statement storing \p Value into one element of \p BufIdx (external
/// buffers widen back to double, like the interpreter).
std::string storeStmt(const KernelProgram &Program, uint32_t BufIdx,
                      uint32_t Col, const std::string &Value) {
  std::string Element =
      bufferName(Program, BufIdx) + "[" + indexExpr(Program, BufIdx, Col) + "]";
  if (Program.Buffers[BufIdx].Role == BufferInfo::Kind::Intermediate)
    return Element + " = " + Value + ";";
  return Element + " = (double)(" + Value + ");";
}

std::string reg(uint32_t Index) {
  return "r[" + std::to_string(Index) + "]";
}

/// Expression reading parameter-block slot \p Idx.
std::string paramExpr(size_t Idx) { return "p[" + std::to_string(Idx) + "]"; }

/// Emits the body of one instruction at indentation \p Indent. The
/// arithmetic mirrors vm::interpretSample cast for cast; see that
/// function for the semantics being reproduced. Every side-table value
/// is read from the parameter block "p", which holds the same values
/// narrowed to value_t exactly as the interpreter narrows them.
void emitInstruction(std::string &Out, const KernelProgram &Program,
                     const TaskProgram &Task, size_t TaskIdx,
                     const Instruction &I, const char *Indent,
                     const CppParamLayout &PL) {
  switch (I.Op) {
  case OpCode::Const:
    appendf(Out, "%s%s = %s;\n", Indent, reg(I.Dst).c_str(),
            paramExpr(PL.ConstSlot[TaskIdx][I.A]).c_str());
    break;
  case OpCode::Load: {
    const BufferAccess &Access = Task.Loads[I.A];
    appendf(Out, "%s%s = %s;\n", Indent, reg(I.Dst).c_str(),
            loadExpr(Program, Access.Buffer, Access.Index).c_str());
    break;
  }
  case OpCode::Store: {
    const BufferAccess &Access = Task.Stores[I.A];
    appendf(Out, "%s%s\n", Indent,
            storeStmt(Program, Access.Buffer, Access.Index, reg(I.Dst))
                .c_str());
    break;
  }
  case OpCode::Add:
    appendf(Out, "%s%s = %s + %s;\n", Indent, reg(I.Dst).c_str(),
            reg(I.A).c_str(), reg(I.B).c_str());
    break;
  case OpCode::Mul:
    appendf(Out, "%s%s = %s * %s;\n", Indent, reg(I.Dst).c_str(),
            reg(I.A).c_str(), reg(I.B).c_str());
    break;
  case OpCode::FusedMulAdd:
    appendf(Out, "%s%s = %s * %s + %s;\n", Indent, reg(I.Dst).c_str(),
            reg(I.A).c_str(), reg(I.B).c_str(), reg(I.C).c_str());
    break;
  case OpCode::LogSumExp:
    appendf(Out, "%s%s = spnc_log_sum_exp(%s, %s);\n", Indent,
            reg(I.Dst).c_str(), reg(I.A).c_str(), reg(I.B).c_str());
    break;
  case OpCode::Max:
    // Ties keep A so MPE argmax ties resolve to the lowest child index,
    // like the interpreter.
    appendf(Out, "%s%s = %s >= %s ? %s : %s;\n", Indent,
            reg(I.Dst).c_str(), reg(I.A).c_str(), reg(I.B).c_str(),
            reg(I.A).c_str(), reg(I.B).c_str());
    break;
  case OpCode::Gaussian:
  case OpCode::GaussianLog: {
    const GaussianParams &P = Task.Gaussians[I.B];
    size_t Slot = PL.GaussianBase[TaskIdx] + 4 * static_cast<size_t>(I.B);
    appendf(Out, "%s{\n%s  value_t x = %s;\n", Indent, Indent,
            reg(I.A).c_str());
    std::string Deeper = std::string(Indent) + "  ";
    if (P.SupportMarginal) {
      appendf(Out, "%s  if (__builtin_isnan(x)) {\n%s    %s = %s;\n%s  } else {\n",
              Indent, Indent, reg(I.Dst).c_str(),
              paramExpr(Slot + 3).c_str(), Indent);
      Deeper += "  ";
    }
    const char *Body = Deeper.c_str();
    std::string Coefficient = paramExpr(Slot + 2);
    appendf(Out, "%svalue_t norm = (x - %s) * %s;\n", Body,
            paramExpr(Slot).c_str(), paramExpr(Slot + 1).c_str());
    if (I.Op == OpCode::Gaussian)
      appendf(Out,
              "%s%s = %s * "
              "(value_t)__builtin_exp((double)((value_t)-0.5 * norm * norm));\n",
              Body, reg(I.Dst).c_str(), Coefficient.c_str());
    else
      appendf(Out, "%s%s = %s - (value_t)0.5 * norm * norm;\n", Body,
              reg(I.Dst).c_str(), Coefficient.c_str());
    if (P.SupportMarginal)
      appendf(Out, "%s  }\n", Indent);
    appendf(Out, "%s}\n", Indent);
    break;
  }
  case OpCode::TableLookup: {
    const LookupTable &Table = Task.Tables[I.B];
    size_t Base = PL.TableBase[TaskIdx][I.B];
    size_t Size = Table.Values.size();
    appendf(Out, "%s{\n%s  value_t x = %s;\n", Indent, Indent,
            reg(I.A).c_str());
    std::string Deeper = std::string(Indent) + "  ";
    if (Table.SupportMarginal) {
      appendf(Out, "%s  if (__builtin_isnan(x)) {\n%s    %s = %s;\n%s  } else {\n",
              Indent, Indent, reg(I.Dst).c_str(),
              paramExpr(Base + Size + 1).c_str(), Indent);
      Deeper += "  ";
    }
    const char *Body = Deeper.c_str();
    appendf(Out,
            "%slong long idx = (long long)__builtin_floor((double)x - %s);\n",
            Body, formatDouble(Table.Lo).c_str());
    appendf(Out,
            "%s%s = (idx >= 0 && idx < (long long)%zu) ? p[%zu + idx] : %s;\n",
            Body, reg(I.Dst).c_str(), Size, Base,
            paramExpr(Base + Size).c_str());
    if (Table.SupportMarginal)
      appendf(Out, "%s  }\n", Indent);
    appendf(Out, "%s}\n", Indent);
    break;
  }
  case OpCode::SelectInRange: {
    const SelectRange &Range = Task.Selects[I.B];
    // NaN compares false, so marginalized evidence keeps the previous
    // register value — same as the interpreter.
    appendf(Out, "%sif (%s >= %s && %s < %s) %s = %s;\n", Indent,
            reg(I.A).c_str(), formatValue(Range.Lo).c_str(),
            reg(I.A).c_str(), formatValue(Range.Hi).c_str(),
            reg(I.Dst).c_str(),
            paramExpr(PL.SelectBase[TaskIdx] + I.B).c_str());
    break;
  }
  case OpCode::NanBlend:
    appendf(Out, "%sif (__builtin_isnan(%s)) %s = %s;\n", Indent,
            reg(I.A).c_str(), reg(I.Dst).c_str(),
            paramExpr(PL.ConstSlot[TaskIdx][I.B]).c_str());
    break;
  case OpCode::AddN:
  case OpCode::MulN: {
    // Accumulate in Args order from the identity, exactly like the
    // interpreter's scalar loop.
    bool IsAdd = I.Op == OpCode::AddN;
    appendf(Out, "%s{\n%s  value_t acc = (value_t)%d;\n", Indent, Indent,
            IsAdd ? 0 : 1);
    for (uint32_t N = 0; N < I.B; ++N)
      appendf(Out, "%s  acc %s= %s;\n", Indent, IsAdd ? "+" : "*",
              reg(Task.Args[I.A + N]).c_str());
    appendf(Out, "%s  %s = acc;\n%s}\n", Indent, reg(I.Dst).c_str(),
            Indent);
    break;
  }
  case OpCode::LogSumExpN: {
    appendf(Out, "%s{\n%s  value_t max = kNegInf;\n", Indent, Indent);
    for (uint32_t N = 0; N < I.B; ++N) {
      std::string Operand = reg(Task.Args[I.A + N]);
      appendf(Out, "%s  max = %s > max ? %s : max;\n", Indent,
              Operand.c_str(), Operand.c_str());
    }
    appendf(Out,
            "%s  if (max == kNegInf) {\n%s    %s = max;\n%s  } else {\n",
            Indent, Indent, reg(I.Dst).c_str(), Indent);
    appendf(Out, "%s    value_t sum = (value_t)0;\n", Indent);
    for (uint32_t N = 0; N < I.B; ++N)
      appendf(Out, "%s    sum += (value_t)__builtin_exp((double)(%s - max));\n",
              Indent, reg(Task.Args[I.A + N]).c_str());
    appendf(Out,
            "%s    %s = max + (value_t)__builtin_log((double)sum);\n%s  }\n%s}\n",
            Indent, reg(I.Dst).c_str(), Indent, Indent);
    break;
  }
  }
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

/// Emits the head every unit shares: the compute type, the segment
/// signature and the log-sum-exp helper.
void emitPrelude(std::string &Out, const KernelProgram &Program,
                 size_t Unit, size_t NumUnits) {
  appendf(Out,
          "// Generated by the SPNC cpp backend (emitter v%u) from "
          "kernel '%s', unit %zu of %zu.\n"
          "// compute type: %s; %s space; lowering: %s.\n",
          kCppEmitterVersion, Program.Name.c_str(), Unit, NumUnits,
          Program.UseF32 ? "f32" : "f64",
          Program.LogSpace ? "log" : "linear",
          Program.Lowering == LoweringKind::SelectCascade
              ? "select-cascade"
              : "table-lookup");
  Out += "typedef decltype(sizeof 0) size_t;\n";
  appendf(Out, "typedef %s value_t;\n", Program.UseF32 ? "float" : "double");
  Out += "\n"
         "// Every segment runs a slice of one task for sample i: the\n"
         "// register file r, the external buffers, the intermediate\n"
         "// buffers b (indexed by buffer id) and the parameter block p.\n"
         "// Never inlined, so every register write stays a store and the\n"
         "// compiler sees the same code whichever unit holds the segment.\n"
         "#define SPNC_SEGMENT(name)                                      "
         "    \\\n"
         "  extern \"C\" __attribute__((visibility(\"hidden\"), noinline))    "
         "    \\\n"
         "  void name(value_t *__restrict r, const double *__restrict in, "
         "    \\\n"
         "            double *__restrict out, value_t *const *b,          "
         "    \\\n"
         "            const value_t *__restrict p, size_t i, size_t n)\n"
         "\n"
         "namespace {\n"
         "const value_t kNegInf = -(value_t)__builtin_inf();\n"
         "\n"
         "// Mirrors the interpreter's scalarLogSumExp: max + "
         "log1p(exp(min - max)),\n"
         "// with the exp/log1p round trip through double.\n"
         "inline value_t spnc_log_sum_exp(value_t a, value_t b) {\n"
         "  value_t max = a > b ? a : b;\n"
         "  if (max == kNegInf)\n"
         "    return max;\n"
         "  value_t diff = (a > b ? b : a) - max;\n"
         "  return max +\n"
         "         (value_t)__builtin_log1p(__builtin_exp((double)diff));\n"
         "}\n";
}

/// Emits the definition of \p Seg: pointers to the intermediate buffers
/// it touches, then its instructions.
void emitSegment(std::string &Out, const KernelProgram &Program,
                 const Segment &Seg, const CppParamLayout &PL) {
  const TaskProgram &Task = Program.Tasks[Seg.Task];
  appendf(Out, "\nSPNC_SEGMENT(%s) {\n", segmentName(Seg).c_str());
  std::set<uint32_t> Buffers;
  for (size_t I = Seg.Begin; I < Seg.End; ++I) {
    const Instruction &Inst = Task.Code[I];
    if (Inst.Op == OpCode::Load)
      Buffers.insert(Task.Loads[Inst.A].Buffer);
    else if (Inst.Op == OpCode::Store)
      Buffers.insert(Task.Stores[Inst.A].Buffer);
  }
  for (uint32_t B : Buffers)
    if (Program.Buffers[B].Role == BufferInfo::Kind::Intermediate)
      appendf(Out, "  value_t *b%u = b[%u];\n", B, B);
  for (size_t I = Seg.Begin; I < Seg.End; ++I)
    emitInstruction(Out, Program, Task, Seg.Task, Task.Code[I], "  ", PL);
  Out += "}\n";
}

/// Allocates the intermediate buffers, zero-filled in the executor's
/// [slot][sample] layout, and the pointer table "b" the segments get.
void emitBufferSetup(std::string &Out, const KernelProgram &Program) {
  std::string Table;
  for (size_t B = 0; B < Program.Buffers.size(); ++B) {
    Table += B ? ", " : "";
    if (Program.Buffers[B].Role != BufferInfo::Kind::Intermediate) {
      Table += "0";
      continue;
    }
    appendf(Out, "  value_t *b%zu = new value_t[(size_t)%u * n]();\n", B,
            Program.Buffers[B].Columns);
    appendf(Table, "b%zu", B);
  }
  appendf(Out, "  value_t *const b[%zu] = {%s};\n", Program.Buffers.size(),
          Table.c_str());
}

void emitBufferRelease(std::string &Out, const KernelProgram &Program) {
  for (size_t B = 0; B < Program.Buffers.size(); ++B)
    if (Program.Buffers[B].Role == BufferInfo::Kind::Intermediate)
      appendf(Out, "  delete[] b%zu;\n", B);
}

/// Emits the sample loop of one task: a fresh register file per sample,
/// the task's segments in order (reading the parameter block "p").
void emitTaskLoop(std::string &Out, const KernelProgram &Program,
                  size_t TaskIdx, const std::vector<Segment> &Segments) {
  appendf(Out,
          "  for (size_t i = 0; i < n; ++i) {\n"
          "    value_t r[%u] = {};\n",
          std::max(Program.Tasks[TaskIdx].NumRegisters, 1u));
  for (const Segment &Seg : Segments)
    if (Seg.Task == TaskIdx)
      appendf(Out, "    %s(r, in, out, b, p, i, n);\n",
              segmentName(Seg).c_str());
  Out += "  }\n";
}

/// Emits the joint/marginal entry point over the program's steps.
void emitKernelEntry(std::string &Out, const KernelProgram &Program,
                     const std::vector<Segment> &Segments) {
  appendf(Out,
          "\nextern \"C\" void %s(const double *__restrict in, "
          "double *__restrict out, size_t n,\n"
          "                        const void *params) {\n"
          "  const value_t *p = (const value_t *)params;\n",
          kCppKernelSymbol);
  emitBufferSetup(Out, Program);
  for (size_t S = 0; S < Program.Steps.size(); ++S) {
    const KernelStep &Step = Program.Steps[S];
    if (Step.Task < 0) {
      // Buffer-to-buffer copy (copy avoidance disabled).
      uint32_t Src = static_cast<uint32_t>(Step.CopySrc);
      uint32_t Dst = static_cast<uint32_t>(Step.CopyDst);
      appendf(Out, "  // step %zu: copy buffer %u -> %u\n", S, Src, Dst);
      for (uint32_t Col = 0; Col < Program.Buffers[Src].Columns; ++Col) {
        appendf(Out, "  for (size_t i = 0; i < n; ++i)\n    %s\n",
                storeStmt(Program, Dst, Col, loadExpr(Program, Src, Col))
                    .c_str());
      }
      continue;
    }
    const TaskProgram &Task = Program.Tasks[Step.Task];
    appendf(Out, "  // step %zu: task %d (%zu instructions, %u registers)\n",
            S, Step.Task, Task.Code.size(), Task.NumRegisters);
    emitTaskLoop(Out, Program, static_cast<size_t>(Step.Task), Segments);
  }
  emitBufferRelease(Out, Program);
  Out += "}\n";
}

/// Emits the per-row upward entry point of an MPE or sampling program:
/// the single task's segments for row "i" into the caller's register
/// file. The host runs the downward pass (vm::completeRows). A
/// single-task program has no intermediate buffers, so the segments get
/// no buffer table.
void emitUpwardEntry(std::string &Out, const std::vector<Segment> &Segments) {
  appendf(Out,
          "\nextern \"C\" void %s(const double *__restrict in, "
          "double *__restrict out, size_t i,\n"
          "                        size_t n, void *regs, "
          "const void *params) {\n"
          "  value_t *r = (value_t *)regs;\n"
          "  const value_t *p = (const value_t *)params;\n",
          kCppUpwardSymbol);
  for (const Segment &Seg : Segments)
    appendf(Out, "  %s(r, in, out, 0, p, i, n);\n", segmentName(Seg).c_str());
  Out += "}\n";
}

} // namespace

Expected<std::vector<std::string>>
spnc::backend::emitCppKernel(const KernelProgram &Program,
                             unsigned MaxUnits) {
  if (Program.NumInputs != 1 || Program.NumOutputs != 1)
    return makeError(
        "cpp emitter supports kernels with one input and one output "
        "buffer (got " +
        std::to_string(Program.NumInputs) + " inputs, " +
        std::to_string(Program.NumOutputs) + " outputs)");
  bool NeedsPlan = Program.Query == QueryKind::Mpe ||
                   Program.Query == QueryKind::Sample;
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
    emitPrelude(Out, Program, U, NumUnits);
    Out += "\n} // namespace\n";
    // Unit 0 calls every segment, so it declares those defined elsewhere.
    if (U == 0)
      for (size_t S = 0; S < Segments.size(); ++S)
        if (UnitOf[S] != 0)
          appendf(Out, "SPNC_SEGMENT(%s);\n",
                  segmentName(Segments[S]).c_str());
    for (size_t S = 0; S < Segments.size(); ++S)
      if (UnitOf[S] == U)
        emitSegment(Out, Program, Segments[S], Layout);
    if (U == 0) {
      emitKernelEntry(Out, Program, Segments);
      if (NeedsPlan)
        emitUpwardEntry(Out, Segments);
    }
  }
  return Units;
}

CppParamLayout spnc::backend::layoutCppParams(const KernelProgram &Program) {
  CppParamLayout Layout;
  size_t Off = 0;
  for (const TaskProgram &Task : Program.Tasks) {
    std::vector<size_t> &Const = Layout.ConstSlot.emplace_back(
        Task.ConstPool.size(), CppParamLayout::kUnused);
    for (const Instruction &I : Task.Code) {
      uint32_t Slot = I.Op == OpCode::Const      ? I.A
                      : I.Op == OpCode::NanBlend ? I.B
                                                 : UINT32_MAX;
      if (Slot != UINT32_MAX && Const[Slot] == CppParamLayout::kUnused)
        Const[Slot] = Off++;
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
    for (size_t I = 0; I < Task.ConstPool.size(); ++I)
      if (Layout.ConstSlot[T][I] != CppParamLayout::kUnused)
        Block[Layout.ConstSlot[T][I]] = Task.ConstPool[I];
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
