//===- Codegen.cpp - LoSPN to bytecode code generation -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "ir/ValueMap.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "vm/Operands.h"
#include "vm/ParamTable.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::lospn;
using namespace spnc::codegen;
using namespace spnc::vm;

namespace {

// Shared with the weight-table binder (vm/ParamTable.cpp), which must
// reproduce this arithmetic bit-for-bit.
constexpr double kLogSqrt2Pi = vm::kLogSqrt2Pi;
constexpr double kInvSqrt2Pi = vm::kInvSqrt2Pi;

/// Largest dense lookup table generated for histogram leaves; wider
/// value ranges fall back to select cascades.
constexpr double kMaxDenseTableSize = 4096;

/// True if all histogram bucket bounds are integral (dense-table
/// eligible).
static bool bucketsAreIntegral(std::span<const double> Flat) {
  for (size_t I = 0; I < Flat.size(); I += 3)
    if (Flat[I] != std::floor(Flat[I]) ||
        Flat[I + 1] != std::floor(Flat[I + 1]))
      return false;
  return true;
}

/// Emits instructions for one task.
///
/// For MPE/sampling queries the emitter additionally builds the
/// downward `TracebackPlan` alongside the upward-pass instructions. The
/// plan references upward-pass registers (Choice nodes compare/weigh the
/// two combined operands), which is only sound under direct -O0-style
/// emission where every SSA value owns a distinct register for the whole
/// program; `emitKernelProgram` enforces that.
class TaskEmitter {
public:
  TaskEmitter(const CodegenOptions &Options, bool LogSpace,
              const ValueMap<uint32_t> &BufferIds,
              const std::vector<BufferInfo> &KernelBuffers,
              TracebackPlan *Plan)
      : Options(Options), Log(LogSpace), BufferIds(BufferIds),
        KernelBuffers(KernelBuffers), Plan(Plan) {}

  Expected<TaskProgram> emit(TaskOp Task) {
    // Kernel-level buffer for each task operand.
    std::vector<uint32_t> OperandBuffers;
    for (unsigned I = 0; I < Task->getNumOperands(); ++I)
      OperandBuffers.push_back(
          BufferIds.at(Task->getOperand(I).getImpl()));

    Block &TaskBlock = Task.getBody();
    for (Operation *Op : TaskBlock) {
      if (BatchReadOp Read = dyn_cast_op<BatchReadOp>(Op)) {
        uint32_t Reg = newReg();
        uint32_t Buffer = OperandBuffers[Op->getOperand(0).getIndex() - 1];
        Program.Loads.push_back(
            BufferAccess{Buffer, Read.getStaticIndex()});
        push(OpCode::Load, Reg,
             static_cast<uint32_t>(Program.Loads.size() - 1));
        RegOf[Op->getResult(0).getImpl()] = Reg;
        if (Plan &&
            KernelBuffers[Buffer].Role == BufferInfo::Kind::Input)
          FeatureOf[Op->getResult(0).getImpl()] = Read.getStaticIndex();
        continue;
      }
      if (BodyOp Body = dyn_cast_op<BodyOp>(Op)) {
        if (failed(emitBody(Body)))
          return makeError("unsupported operation in task body");
        continue;
      }
      if (BatchWriteOp Write = dyn_cast_op<BatchWriteOp>(Op)) {
        uint32_t Buffer =
            OperandBuffers[Op->getOperand(0).getIndex() - 1];
        for (unsigned I = 2; I < Op->getNumOperands(); ++I) {
          Program.Stores.push_back(BufferAccess{Buffer, I - 2});
          Instruction Inst;
          Inst.Op = OpCode::Store;
          Inst.Dst = RegOf.at(Op->getOperand(I).getImpl());
          Inst.A = static_cast<uint32_t>(Program.Stores.size() - 1);
          Program.Code.push_back(Inst);
        }
        continue;
      }
      return makeError(
          formatString("unsupported op '%s' in task during codegen",
                       Op->getName().c_str()));
    }
    Program.NumRegisters = NextReg;
    LinearWeights.resize(Program.ConstPool.size(), kQuietNan);
    return std::move(Program);
  }

  /// Per const-pool slot of the emitted task: the raw weight of a
  /// log-space sum weight (the lowering's `weight` attribute), NaN for
  /// every other slot.
  std::vector<double> takeLinearWeights() { return std::move(LinearWeights); }

private:
  LogicalResult emitBody(BodyOp Body) {
    Block &Inner = Body.getBody();
    for (unsigned I = 0; I < Body->getNumOperands(); ++I) {
      RegOf[Inner.getArgument(I).getImpl()] =
          RegOf.at(Body->getOperand(I).getImpl());
      if (Plan) {
        if (const uint32_t *Feature =
                FeatureOf.lookup(Body->getOperand(I).getImpl())) {
          uint32_t Copy = *Feature;
          FeatureOf[Inner.getArgument(I).getImpl()] = Copy;
        }
      }
    }

    for (Operation *Op : Inner) {
      if (isa_op<YieldOp>(Op)) {
        for (unsigned I = 0; I < Op->getNumOperands(); ++I)
          RegOf[Body->getResult(I).getImpl()] =
              RegOf.at(Op->getOperand(I).getImpl());
        // The yielded root probability is where the traceback starts.
        if (Plan && Op->getNumOperands() > 0)
          Plan->Root = PlanOf.at(Op->getOperand(0).getImpl());
        continue;
      }
      if (ConstantOp Const = dyn_cast_op<ConstantOp>(Op)) {
        uint32_t Reg = newReg();
        int64_t Param = paramIndexOf(Op);
        uint32_t Slot;
        if (Param >= 0) {
          // A tunable sum-weight constant: its own (never-pooled) slot,
          // rebindable from a weight table. The baked value is already
          // the log-weight in log space, so the binder applies the same
          // transform to the raw weight.
          Slot = paramPoolSlot(Const.getValue());
          addSite(ParamSlotKind::ConstPool,
                  Log ? ParamTransform::Log : ParamTransform::Identity,
                  Slot, Param);
          if (Log && Op->hasAttr("weight")) {
            LinearWeights.resize(Slot + 1, kQuietNan);
            LinearWeights[Slot] = Op->getFloatAttr("weight");
          }
        } else {
          Slot = poolConstant(Const.getValue());
        }
        push(OpCode::Const, Reg, Slot);
        RegOf[Op->getResult(0).getImpl()] = Reg;
        continue;
      }
      if (isa_op<MulOp>(Op)) {
        uint32_t Reg = newReg();
        push(Log ? OpCode::Add : OpCode::Mul, Reg, regOfOperand(Op, 0),
             regOfOperand(Op, 1));
        RegOf[Op->getResult(0).getImpl()] = Reg;
        if (Plan) {
          // A multiply with a constant factor is a weight application
          // (sum-child term): the traceback passes straight through to
          // the child. A multiply of two graph values is a product node:
          // both branches are part of the completion.
          Operation *DefA = Op->getOperand(0).getDefiningOp();
          Operation *DefB = Op->getOperand(1).getDefiningOp();
          bool ConstA = DefA && isa_op<ConstantOp>(DefA);
          bool ConstB = DefB && isa_op<ConstantOp>(DefB);
          PlanNode Node;
          if (ConstA != ConstB) {
            Node.Kind = PlanNodeKind::Pass;
            Node.A = PlanOf.at(Op->getOperand(ConstA ? 1 : 0).getImpl());
          } else {
            Node.Kind = PlanNodeKind::Both;
            Node.A = PlanOf.at(Op->getOperand(0).getImpl());
            Node.B = PlanOf.at(Op->getOperand(1).getImpl());
          }
          PlanOf[Op->getResult(0).getImpl()] = addPlanNode(Node);
        }
        continue;
      }
      if (isa_op<AddOp>(Op) || isa_op<MaxOp>(Op)) {
        // Sum-combine: lo_spn.add for joint/marginal/sampling queries,
        // lo_spn.max for MPE (max is monotonic under log, so OpCode::Max
        // serves both spaces). Left-associative chains plus the
        // "descend B only on a strictly greater value" traceback rule
        // give ties-to-lowest-child-index determinism.
        bool IsMax = isa_op<MaxOp>(Op);
        uint32_t Reg = newReg();
        push(IsMax ? OpCode::Max
                   : (Log ? OpCode::LogSumExp : OpCode::Add),
             Reg, regOfOperand(Op, 0), regOfOperand(Op, 1));
        RegOf[Op->getResult(0).getImpl()] = Reg;
        if (Plan) {
          PlanNode Node;
          Node.Kind = PlanNodeKind::Choice;
          Node.A = PlanOf.at(Op->getOperand(0).getImpl());
          Node.B = PlanOf.at(Op->getOperand(1).getImpl());
          Node.RegA = regOfOperand(Op, 0);
          Node.RegB = regOfOperand(Op, 1);
          PlanOf[Op->getResult(0).getImpl()] = addPlanNode(Node);
        }
        continue;
      }
      if (GaussianOp Gauss = dyn_cast_op<GaussianOp>(Op)) {
        GaussianParams Params;
        Params.Mean = Gauss.getMean();
        Params.InvStdDev = 1.0 / Gauss.getStdDev();
        Params.Coefficient =
            Log ? -std::log(Gauss.getStdDev()) - kLogSqrt2Pi
                : kInvSqrt2Pi / Gauss.getStdDev();
        Params.SupportMarginal = Gauss.getSupportMarginal();
        // For MPE, a marginalized (NaN) leaf contributes the density at
        // its mode (the mean) — the value the traceback will fill in —
        // instead of the marginal's 1.
        Params.MarginalValue =
            Options.Query == vm::QueryKind::Mpe
                ? Params.Coefficient
                : (Log ? 0.0 : 1.0);
        Program.Gaussians.push_back(Params);
        uint32_t GaussIndex =
            static_cast<uint32_t>(Program.Gaussians.size() - 1);
        if (int64_t Param = paramIndexOf(Op); Param >= 0) {
          // Canonical order: mean, then stddev. The stddev feeds two
          // derived slots. MarginalValue is 1 (log 0) until the -O2
          // peephole folds a weight into it.
          addSite(ParamSlotKind::GaussianMean, ParamTransform::Identity,
                  GaussIndex, Param);
          addSite(ParamSlotKind::GaussianInvStdDev,
                  ParamTransform::Reciprocal, GaussIndex, Param + 1);
          addSite(ParamSlotKind::GaussianCoefficient,
                  Log ? ParamTransform::LogGaussCoefficient
                      : ParamTransform::LinearGaussCoefficient,
                  GaussIndex, Param + 1);
        }
        uint32_t Reg = newReg();
        push(Log ? OpCode::GaussianLog : OpCode::Gaussian, Reg,
             regOfOperand(Op, 0), GaussIndex);
        RegOf[Op->getResult(0).getImpl()] = Reg;
        if (Plan) {
          PlanNode Node;
          Node.Kind = PlanNodeKind::LeafGaussian;
          Node.Feature = FeatureOf.at(Op->getOperand(0).getImpl());
          Node.Mean = Gauss.getMean();
          Node.StdDev = Gauss.getStdDev();
          Node.Mode = Gauss.getMean();
          PlanOf[Op->getResult(0).getImpl()] = addPlanNode(Node);
        }
        continue;
      }
      if (HistogramOp Hist = dyn_cast_op<HistogramOp>(Op)) {
        emitDiscreteLeaf(Op, Hist.getFlatBuckets(),
                         Hist.getSupportMarginal());
        continue;
      }
      if (CategoricalOp Cat = dyn_cast_op<CategoricalOp>(Op)) {
        // A categorical is a histogram with unit buckets at 0..N-1.
        std::vector<double> Flat;
        std::span<const double> Probs = Cat.getProbabilities();
        Flat.reserve(Probs.size() * 3);
        for (size_t I = 0; I < Probs.size(); ++I) {
          Flat.push_back(static_cast<double>(I));
          Flat.push_back(static_cast<double>(I + 1));
          Flat.push_back(Probs[I]);
        }
        emitDiscreteLeaf(Op, Flat, Cat.getSupportMarginal());
        continue;
      }
      return failure();
    }
    return success();
  }

  /// Emits a discrete leaf either as a dense table lookup (CPU strategy)
  /// or as a cascade of selects (GPU strategy, paper §IV-C).
  void emitDiscreteLeaf(Operation *Op, std::span<const double> Flat,
                        bool Marginal) {
    double Default =
        Log ? -std::numeric_limits<double>::infinity() : 0.0;
    // Mode of the leaf distribution: the highest-mass bucket; ties
    // resolve to the lowest bucket index (docs/queries.md).
    double ModeValue = 0.0, ModeMass = 0.0;
    for (size_t I = 0; I < Flat.size(); I += 3)
      if (Flat[I + 2] > ModeMass) {
        ModeMass = Flat[I + 2];
        ModeValue = Flat[I];
      }
    // For MPE, a marginalized (NaN) leaf contributes its mode mass (the
    // bucket the traceback will select) instead of the marginal's 1.
    double MarginalValue =
        Options.Query == vm::QueryKind::Mpe
            ? (Log ? std::log(ModeMass) : ModeMass)
            : (Log ? 0.0 : 1.0);
    uint32_t Evidence = regOfOperand(Op, 0);
    uint32_t Reg = newReg();

    if (Plan) {
      PlanNode Node;
      Node.Kind = PlanNodeKind::LeafTable;
      Node.Feature = FeatureOf.at(Op->getOperand(0).getImpl());
      Node.Mode = ModeValue;
      Node.TableBegin = static_cast<uint32_t>(Plan->Buckets.size());
      Node.TableCount = static_cast<uint32_t>(Flat.size() / 3);
      Plan->Buckets.insert(Plan->Buckets.end(), Flat.begin(),
                           Flat.end());
      PlanOf[Op->getResult(0).getImpl()] = addPlanNode(Node);
    }

    bool Dense = !Options.EmitSelectCascades && !Flat.empty() &&
                 bucketsAreIntegral(Flat);
    if (Dense) {
      double Lo = Flat[0], Hi = Flat[1];
      for (size_t I = 0; I < Flat.size(); I += 3) {
        Lo = std::min(Lo, Flat[I]);
        Hi = std::max(Hi, Flat[I + 1]);
      }
      Dense = (Hi - Lo) <= kMaxDenseTableSize;
      if (Dense) {
        LookupTable Table;
        Table.Lo = Lo;
        Table.DefaultValue = Default;
        Table.SupportMarginal = Marginal;
        Table.MarginalValue = MarginalValue;
        Table.Values.assign(static_cast<size_t>(Hi - Lo), Default);
        for (size_t I = 0; I < Flat.size(); I += 3) {
          double P = Log ? std::log(Flat[I + 2]) : Flat[I + 2];
          for (double X = Flat[I]; X < Flat[I + 1]; X += 1.0)
            Table.Values[static_cast<size_t>(X - Lo)] = P;
        }
        Program.Tables.push_back(std::move(Table));
        uint32_t TableIndex =
            static_cast<uint32_t>(Program.Tables.size() - 1);
        if (int64_t ParamBase = paramIndexOf(Op); ParamBase >= 0) {
          // One tunable mass per bucket; a wide bucket spans several
          // dense slots. Bounds and Lo are structural; DefaultValue and
          // MarginalValue only change through a peephole weight fold.
          const LookupTable &Placed = Program.Tables[TableIndex];
          for (size_t I = 0; I < Flat.size(); I += 3) {
            ParamSite Site;
            Site.Kind = ParamSlotKind::TableValue;
            Site.Transform =
                Log ? ParamTransform::Log : ParamTransform::Identity;
            Site.Index = TableIndex;
            Site.Slot = static_cast<uint32_t>(Flat[I] - Placed.Lo);
            Site.Count = static_cast<uint32_t>(Flat[I + 1] - Flat[I]);
            Site.Param =
                static_cast<uint32_t>(ParamBase + static_cast<int64_t>(I / 3));
            Program.ParamSites.push_back(Site);
          }
        }
        push(OpCode::TableLookup, Reg, Evidence, TableIndex);
        RegOf[Op->getResult(0).getImpl()] = Reg;
        return;
      }
    }

    // Select cascade: initialize with the default, one range select per
    // bucket, NaN blend for marginalization.
    int64_t ParamBase = paramIndexOf(Op);
    push(OpCode::Const, Reg, poolConstant(Default));
    for (size_t I = 0; I < Flat.size(); I += 3) {
      Program.Selects.push_back(SelectRange{
          Flat[I], Flat[I + 1],
          Log ? std::log(Flat[I + 2]) : Flat[I + 2]});
      uint32_t SelectIndex =
          static_cast<uint32_t>(Program.Selects.size() - 1);
      if (ParamBase >= 0)
        addSite(ParamSlotKind::SelectValue,
                Log ? ParamTransform::Log : ParamTransform::Identity,
                SelectIndex, ParamBase + static_cast<int64_t>(I / 3));
      push(OpCode::SelectInRange, Reg, Evidence, SelectIndex);
    }
    if (Marginal) {
      Instruction Inst;
      Inst.Op = OpCode::NanBlend;
      Inst.Dst = Reg;
      Inst.A = Evidence;
      Inst.B = poolConstant(MarginalValue);
      Program.Code.push_back(Inst);
    }
    RegOf[Op->getResult(0).getImpl()] = Reg;
  }

  uint32_t regOfOperand(Operation *Op, unsigned Index) {
    return RegOf.at(Op->getOperand(Index).getImpl());
  }

  uint32_t newReg() { return NextReg++; }

  int32_t addPlanNode(const PlanNode &Node) {
    Plan->Nodes.push_back(Node);
    return static_cast<int32_t>(Plan->Nodes.size() - 1);
  }

  /// Canonical parameter index of a `param`-tagged op, -1 for untagged
  /// ops and in programs carrying a traceback plan (which bakes values).
  int64_t paramIndexOf(Operation *Op) const {
    return Plan ? -1 : Op->getIntAttr("param", -1);
  }

  void addSite(ParamSlotKind Kind, ParamTransform Transform,
               uint32_t Index, int64_t Param) {
    ParamSite Site;
    Site.Kind = Kind;
    Site.Transform = Transform;
    Site.Index = Index;
    Site.Param = static_cast<uint32_t>(Param);
    Program.ParamSites.push_back(Site);
  }

  /// The first structural slot holding a value equal to \p Value, or a
  /// new one: +0.0 and -0.0 share a slot (they compare equal), and so
  /// does every NaN.
  uint32_t poolConstant(double Value) {
    double Canonical = Value == 0.0        ? 0.0
                       : std::isnan(Value) ? kQuietNan
                                           : Value;
    auto [It, Inserted] = StructuralSlotOf.try_emplace(
        std::bit_cast<uint64_t>(Canonical),
        static_cast<uint32_t>(Program.ConstPool.size()));
    if (Inserted)
      Program.ConstPool.push_back(Value);
    return It->second;
  }

  /// A fresh constant-pool slot for a tunable value, never handed out
  /// by poolConstant: a structural constant that happens to equal the
  /// generating model's weight would change under rebinding.
  uint32_t paramPoolSlot(double Value) {
    Program.ConstPool.push_back(Value);
    return static_cast<uint32_t>(Program.ConstPool.size() - 1);
  }

  void push(OpCode Op, uint32_t Dst, uint32_t A = 0, uint32_t B = 0,
            uint32_t C = 0) {
    Instruction Inst;
    Inst.Op = Op;
    Inst.Dst = Dst;
    Inst.A = A;
    Inst.B = B;
    Inst.C = C;
    Program.Code.push_back(Inst);
  }

  const CodegenOptions &Options;
  bool Log;
  const ValueMap<uint32_t> &BufferIds;
  const std::vector<BufferInfo> &KernelBuffers;
  /// Traceback plan under construction (null for joint/marginal).
  TracebackPlan *Plan;
  TaskProgram Program;
  static constexpr double kQuietNan =
      std::numeric_limits<double>::quiet_NaN();
  /// The structural (non-parameter) pool slot per canonical value bits.
  std::unordered_map<uint64_t, uint32_t> StructuralSlotOf;
  std::vector<double> LinearWeights;
  ValueMap<uint32_t> RegOf;
  /// Input feature index a value carries (plan building only).
  ValueMap<uint32_t> FeatureOf;
  /// Plan node index per SSA value (plan building only).
  ValueMap<int32_t> PlanOf;
  uint32_t NextReg = 0;
};

/// The first const-pool slot of \p Program that holds \p Value bit for
/// bit and that no parameter site names, or a new one. Never a weight's
/// slot, which binding a weight table rewrites.
static uint32_t structuralSlot(TaskProgram &Program, double Value) {
  std::vector<uint8_t> IsWeight(Program.ConstPool.size(), 0);
  for (const ParamSite &Site : Program.ParamSites)
    if (Site.Kind == ParamSlotKind::ConstPool)
      IsWeight[Site.Index] = 1;
  for (size_t S = 0; S < Program.ConstPool.size(); ++S)
    if (!IsWeight[S] && std::bit_cast<uint64_t>(Program.ConstPool[S]) ==
                            std::bit_cast<uint64_t>(Value))
      return static_cast<uint32_t>(S);
  Program.ConstPool.push_back(Value);
  return static_cast<uint32_t>(Program.ConstPool.size() - 1);
}

//===----------------------------------------------------------------------===//
// Chain collapse (O2+): binary reduction chains become n-ary ops
//===----------------------------------------------------------------------===//

/// Collapses left-leaning chains of the same binary reduction (the form
/// the weighted-sum and product lowering emits) into (trees of) n-ary
/// instructions: one max/log pair per ~8 elements instead of one
/// exp/log1p per element for log-space additions, and tight accumulation
/// loops for sums and products. The dominant win on RAT-SPN-style graphs
/// with large fan-in. A log-sum-exp chain also absorbs the weight
/// applications feeding it: a single-use Add(child, Const) becomes the
/// operand (child, the Const's pool slot) of the LogSumExpN, which adds
/// the weight itself, so the pair costs no instructions of its own.
static void runChainCollapse(TaskProgram &Program) {
  std::vector<Instruction> &Code = Program.Code;
  std::vector<uint32_t> UseCounts(Program.NumRegisters, 0);
  // First and last write per register: select cascades and NaN blends
  // write their register several times. The first write identifies the
  // defining op for chain expansion; a chunk op reading such a register
  // must be placed after the *final* write.
  std::vector<int32_t> DefOf(Program.NumRegisters, -1);
  std::vector<int32_t> LastWriteOf(Program.NumRegisters, -1);
  for (size_t I = 0; I < Code.size(); ++I) {
    forEachRegisterRead(Program, Code[I],
                        [&](uint32_t Reg) { ++UseCounts[Reg]; });
    forEachRegisterWrite(Program, Code[I], [&](uint32_t Reg) {
      if (DefOf[Reg] < 0)
        DefOf[Reg] = static_cast<int32_t>(I);
      LastWriteOf[Reg] = static_cast<int32_t>(I);
    });
  }

  std::vector<uint8_t> Dead(Code.size(), 0);
  // Instructions to emit directly before position I (chunked subtrees).
  std::vector<std::vector<Instruction>> Prefix(Code.size());

  // The pool slot of a structural 0.0, which an unweighted log-sum-exp
  // operand names (r + 0.0 changes no log-sum-exp result bit).
  std::optional<uint32_t> ZeroSlot;
  auto Zero = [&] {
    if (!ZeroSlot)
      ZeroSlot = structuralSlot(Program, 0.0);
    return *ZeroSlot;
  };

  // True if Reg is the only-read result of a live Kind instruction, which
  // the chain reading it absorbs.
  auto IsChainLink = [&](uint32_t Reg, OpCode Kind) {
    int32_t Def = DefOf[Reg];
    return Def >= 0 && !Dead[Def] && Code[Def].Op == Kind &&
           UseCounts[Reg] == 1;
  };

  // One operand of an n-ary op: its register, the pool slot of the
  // weight added to it (LogSumExpN only), and the position its value is
  // ready at, which orders a chain's operands and places its chunks.
  struct Operand {
    uint32_t Reg;
    uint32_t Slot;
    size_t Pos;
  };

  // Gives log-sum-exp operand Leaf its weight: if Leaf is the result of
  // a single-use Add(child, Const) whose child is no product chain (whose
  // AddN keeps the weight), Leaf becomes (child, the Const's slot), and
  // the Add and a Const left unread die; otherwise the structural zero.
  auto AbsorbWeight = [&](Operand &Leaf) {
    Leaf.Slot = Zero();
    if (!IsChainLink(Leaf.Reg, OpCode::Add))
      return;
    int32_t Def = DefOf[Leaf.Reg];
    const Instruction &Apply = Code[Def];
    for (unsigned Side = 0; Side < 2; ++Side) {
      uint32_t Weight = Side == 0 ? Apply.B : Apply.A;
      uint32_t Child = Side == 0 ? Apply.A : Apply.B;
      int32_t WeightDef = DefOf[Weight];
      if (WeightDef < 0 || Code[WeightDef].Op != OpCode::Const ||
          LastWriteOf[Weight] != WeightDef ||
          IsChainLink(Child, OpCode::Add))
        continue;
      Dead[Def] = 1;
      if (--UseCounts[Weight] == 0)
        Dead[WeightDef] = 1;
      Leaf.Reg = Child;
      Leaf.Slot = Code[WeightDef].A;
      return;
    }
  };

  auto MakeNary = [&](OpCode Kind, uint32_t Dst,
                      std::span<const Operand> Operands) {
    Instruction Result;
    Result.Op = Kind == OpCode::Add
                    ? OpCode::AddN
                    : (Kind == OpCode::Mul ? OpCode::MulN
                                           : OpCode::LogSumExpN);
    Result.Dst = Dst;
    Result.A = static_cast<uint32_t>(Program.Args.size());
    Result.B = static_cast<uint32_t>(Operands.size());
    for (const Operand &O : Operands)
      Program.Args.push_back(O.Reg);
    if (Result.Op == OpCode::LogSumExpN) {
      Result.C = static_cast<uint32_t>(Program.Args.size());
      for (const Operand &O : Operands)
        Program.Args.push_back(O.Slot);
    }
    return Result;
  };

  // Process back-to-front so outermost chain heads absorb whole chains.
  std::vector<uint32_t> Leaves;
  std::vector<uint32_t> Pending;
  for (size_t I = Code.size(); I-- > 0;) {
    Instruction &Inst = Code[I];
    if (Dead[I])
      continue;
    OpCode Kind = Inst.Op;
    if (Kind != OpCode::Add && Kind != OpCode::Mul &&
        Kind != OpCode::LogSumExp)
      continue;

    // Expand operands that are single-use results of the same kind.
    Leaves.clear();
    Pending.assign({Inst.A, Inst.B});
    while (!Pending.empty()) {
      uint32_t Reg = Pending.back();
      Pending.pop_back();
      if (IsChainLink(Reg, Kind)) {
        int32_t Def = DefOf[Reg];
        Dead[Def] = 1;
        Pending.push_back(Code[Def].A);
        Pending.push_back(Code[Def].B);
        continue;
      }
      Leaves.push_back(Reg);
    }
    // Fewer than three leaves means nothing was absorbed (expanding even
    // one operand yields at least three), so no kills need undoing.
    if (Leaves.size() < 3)
      continue;

    // Reduce the leaves in chunks of kMaxNaryArgs (vm/Bytecode.h) until
    // one value remains. Each chunk op is placed directly after the
    // definition of its last-defined operand (not at the chain head), so
    // at most one chunk's worth of operands plus the partial results are
    // live at any point — unbounded placement at the head would keep
    // every leaf live simultaneously and wreck register allocation and
    // GPU occupancy.
    // A leaf's position is that of its definition's last write; an
    // absorbed weight application keeps its Add's position, so operand
    // order and chunking are those of the unabsorbed chain.
    std::vector<Operand> Level;
    Level.reserve(Leaves.size());
    for (uint32_t Reg : Leaves) {
      int32_t Def = LastWriteOf[Reg];
      Operand Leaf{Reg, 0, Def < 0 ? 0 : static_cast<size_t>(Def)};
      if (Kind == OpCode::LogSumExp)
        AbsorbWeight(Leaf);
      Level.push_back(Leaf);
    }
    std::sort(Level.begin(), Level.end(),
              [](const Operand &A, const Operand &B) {
                return A.Pos < B.Pos;
              });
    while (Level.size() > kMaxNaryArgs) {
      std::vector<Operand> Next;
      for (size_t Begin = 0; Begin < Level.size();
           Begin += kMaxNaryArgs) {
        size_t End = std::min(Level.size(), Begin + kMaxNaryArgs);
        if (End - Begin == 1) {
          Next.push_back(Level[Begin]);
          continue;
        }
        uint32_t ChunkReg = Program.NumRegisters++;
        size_t LastDef = 0;
        for (size_t Idx = Begin; Idx < End; ++Idx)
          LastDef = std::max(LastDef, Level[Idx].Pos);
        // Emit directly after the last operand definition (before the
        // instruction that follows it), never past the chain head.
        size_t Attach = std::min(LastDef + 1, I);
        Prefix[Attach].push_back(MakeNary(
            Kind, ChunkReg,
            std::span<const Operand>(&Level[Begin], End - Begin)));
        Next.push_back({ChunkReg, Kind == OpCode::LogSumExp ? Zero() : 0,
                        Attach});
      }
      Level = std::move(Next);
    }
    Inst = MakeNary(Kind, Inst.Dst, Level);
  }

  std::vector<Instruction> Compacted;
  Compacted.reserve(Code.size());
  for (size_t I = 0; I < Code.size(); ++I) {
    // Prefix chunks attach to positions regardless of whether the
    // original instruction there was absorbed.
    for (const Instruction &Extra : Prefix[I])
      Compacted.push_back(Extra);
    if (!Dead[I])
      Compacted.push_back(Code[I]);
  }
  Code = std::move(Compacted);
}

//===----------------------------------------------------------------------===//
// Shared exponentials (O2+): one group per set of sums over the same
// children
//===----------------------------------------------------------------------===//

/// A LogSumExpN's register list in Args, as a hash-map key.
struct RegisterList {
  const uint32_t *Regs;
  uint32_t Size;
  bool operator==(const RegisterList &Other) const {
    return Size == Other.Size && std::equal(Regs, Regs + Size, Other.Regs);
  }
};

struct RegisterListHash {
  size_t operator()(const RegisterList &List) const {
    return static_cast<size_t>(xxh64(List.Regs, List.Size * sizeof(uint32_t)));
  }
};

/// Emits the LogSumExpN instructions of \p Program that read the same
/// registers in the same order (the sums of one RAT-SPN region, which
/// the chain collapse chunks alike) as one LogSumExpGroup per group of
/// two or more, at its first member's position, where every child is
/// defined and no destination is read yet: one maximum and one
/// exponential per child then serve every sum of the group. Its weights
/// are linear. Each grouped weight keeps its slot, which takes the raw
/// weight from \p LinearWeights (the lowering's `weight` attribute), and
/// its site becomes Identity, so binding a table skips the log; an
/// unweighted operand names a structural 1.0. A LogSumExpN whose weight
/// has no raw value, or whose slot another instruction reads, stays as
/// it is. Linear in the code: groups are found through a hash map over
/// the register lists, and Args is rebuilt in one pass.
static void runSharedExponentials(TaskProgram &Program,
                                  std::span<const double> LinearWeights) {
  std::vector<Instruction> &Code = Program.Code;
  std::vector<double> &Pool = Program.ConstPool;
  // The ConstPool site of each slot (-1: a structural constant), and how
  // many operands and instructions read each slot.
  std::vector<int32_t> SiteOf(Pool.size(), -1);
  for (size_t S = 0; S < Program.ParamSites.size(); ++S)
    if (Program.ParamSites[S].Kind == ParamSlotKind::ConstPool)
      SiteOf[Program.ParamSites[S].Index] = static_cast<int32_t>(S);
  std::vector<uint32_t> Reads(Pool.size(), 0);
  for (const Instruction &Inst : Code)
    forEachConstRead(Program, Inst, [&](uint32_t Slot) { ++Reads[Slot]; });
  // A group keeps its children in the engines' kMaxNaryArgs arrays.
  auto Groupable = [&](const Instruction &Inst) {
    if (Inst.B > kMaxNaryArgs)
      return false;
    for (uint32_t N = 0; N < Inst.B; ++N) {
      uint32_t Slot = Program.Args[Inst.C + N];
      bool Weight = SiteOf[Slot] >= 0;
      if (Weight ? Reads[Slot] != 1 || std::isnan(LinearWeights[Slot])
                 : std::bit_cast<uint64_t>(Pool[Slot]) != 0)
        return false;
    }
    return true;
  };

  // Group of each instruction (-1: none) and members per group.
  std::unordered_map<RegisterList, uint32_t, RegisterListHash> GroupOf;
  std::vector<int32_t> GroupOfInst(Code.size(), -1);
  std::vector<uint32_t> NumMembers;
  bool AnyShared = false;
  for (size_t I = 0; I < Code.size(); ++I) {
    const Instruction &Inst = Code[I];
    if (Inst.Op != OpCode::LogSumExpN || !Groupable(Inst))
      continue;
    auto [It, New] = GroupOf.try_emplace(
        RegisterList{&Program.Args[Inst.A], Inst.B},
        static_cast<uint32_t>(NumMembers.size()));
    if (New)
      NumMembers.push_back(0);
    AnyShared = AnyShared || NumMembers[It->second] == 1;
    ++NumMembers[It->second];
    GroupOfInst[I] = static_cast<int32_t>(It->second);
  }
  if (!AnyShared)
    return;

  // The members of each group, in program order (a counting sort).
  std::vector<uint32_t> First(NumMembers.size() + 1, 0);
  for (size_t G = 0; G < NumMembers.size(); ++G)
    First[G + 1] = First[G] + NumMembers[G];
  std::vector<uint32_t> Members(First.back());
  std::vector<uint32_t> Next(First.begin(), First.end() - 1);
  for (size_t I = 0; I < Code.size(); ++I)
    if (GroupOfInst[I] >= 0)
      Members[Next[GroupOfInst[I]]++] = static_cast<uint32_t>(I);

  uint32_t One = structuralSlot(Program, 1.0);
  std::vector<Instruction> Emitted;
  Emitted.reserve(Code.size());
  std::vector<uint32_t> Args;
  Args.reserve(Program.Args.size());
  // Appends Program.Args[Begin .. Begin + Count) and returns its offset.
  auto CopyArgs = [&](uint32_t Begin, uint64_t Count) {
    uint32_t At = static_cast<uint32_t>(Args.size());
    Args.insert(Args.end(), Program.Args.begin() + Begin,
                Program.Args.begin() + Begin + Count);
    return At;
  };
  for (size_t I = 0; I < Code.size(); ++I) {
    Instruction Inst = Code[I];
    int32_t G = GroupOfInst[I];
    if (G >= 0 && NumMembers[G] >= 2) {
      if (Members[First[G]] != I)
        continue; // Emitted with its group's first member.
      Instruction Group;
      Group.Op = OpCode::LogSumExpGroup;
      Group.A = CopyArgs(Inst.A, Inst.B);
      Group.B = Inst.B;
      Group.C = NumMembers[G];
      for (uint32_t M = First[G]; M < First[G + 1]; ++M)
        Args.push_back(Code[Members[M]].Dst);
      for (uint32_t M = First[G]; M < First[G + 1]; ++M) {
        const Instruction &Member = Code[Members[M]];
        for (uint32_t N = 0; N < Member.B; ++N) {
          uint32_t Slot = Program.Args[Member.C + N];
          if (SiteOf[Slot] < 0) {
            Args.push_back(One);
            continue;
          }
          Pool[Slot] = LinearWeights[Slot];
          Program.ParamSites[SiteOf[Slot]].Transform =
              ParamTransform::Identity;
          Args.push_back(Slot);
        }
      }
      Emitted.push_back(Group);
      continue;
    }
    forEachArgsRange(Inst, [&](uint32_t &Begin, uint64_t Count) {
      Begin = CopyArgs(Begin, Count);
    });
    Emitted.push_back(Inst);
  }
  Code = std::move(Emitted);
  Program.Args = std::move(Args);
}

//===----------------------------------------------------------------------===//
// Peephole (O2+): leaf-coefficient folding, FMA fusion, dead code
//===----------------------------------------------------------------------===//

static void runPeephole(TaskProgram &Program, bool LogSpace) {
  std::vector<Instruction> &Code = Program.Code;
  std::vector<uint8_t> Dead(Code.size(), 0);

  // The weight site behind each const-pool slot that holds a sum weight
  // (-1 elsewhere). Only those constants fold: the fold is recorded as a
  // site of its own, so binding a weight table replays it.
  std::vector<int32_t> WeightSiteOf(Program.ConstPool.size(), -1);
  for (size_t S = 0; S < Program.ParamSites.size(); ++S)
    if (Program.ParamSites[S].Kind == ParamSlotKind::ConstPool)
      WeightSiteOf[Program.ParamSites[S].Index] = static_cast<int32_t>(S);

  // Use counts per register over the live instructions (cascade Dst
  // reads included): a weight Add the fold below kills no longer keeps
  // its Const alive.
  auto CountUses = [&] {
    std::vector<uint32_t> Counts(Program.NumRegisters, 0);
    for (size_t I = 0; I < Code.size(); ++I)
      if (!Dead[I])
        forEachRegisterRead(Program, Code[I],
                            [&](uint32_t Reg) { ++Counts[Reg]; });
    return Counts;
  };
  std::vector<uint32_t> UseCounts = CountUses();

  // Defining instruction per register (cascades define via their first
  // write, the Const).
  std::vector<int32_t> DefOf(Program.NumRegisters, -1);
  for (size_t I = 0; I < Code.size(); ++I)
    forEachRegisterWrite(Program, Code[I], [&](uint32_t Reg) {
      if (DefOf[Reg] < 0)
        DefOf[Reg] = static_cast<int32_t>(I);
    });

  auto IsLeafFoldTarget = [&](int32_t Def) {
    if (Def < 0)
      return false;
    OpCode Op = Code[Def].Op;
    return Op == (LogSpace ? OpCode::GaussianLog : OpCode::Gaussian) ||
           Op == OpCode::TableLookup;
  };

  const OpCode WeightApply = LogSpace ? OpCode::Add : OpCode::Mul;

  for (size_t I = 0; I < Code.size(); ++I) {
    Instruction &Inst = Code[I];
    if (Inst.Op != WeightApply)
      continue;
    // Match leaf (single use) combined with a sum weight: fold the
    // weight into the leaf parameters, record the fold as a site, and
    // forward the leaf register.
    for (unsigned Side = 0; Side < 2; ++Side) {
      uint32_t LeafReg = Side == 0 ? Inst.A : Inst.B;
      uint32_t ConstReg = Side == 0 ? Inst.B : Inst.A;
      int32_t LeafDef = DefOf[LeafReg];
      int32_t ConstDef = DefOf[ConstReg];
      if (!IsLeafFoldTarget(LeafDef) || ConstDef < 0 ||
          Code[ConstDef].Op != OpCode::Const ||
          WeightSiteOf[Code[ConstDef].A] < 0 || UseCounts[LeafReg] != 1)
        continue;
      ParamSite Fold = Program.ParamSites[WeightSiteOf[Code[ConstDef].A]];
      double Weight = Program.ConstPool[Fold.Index];
      Instruction &Leaf = Code[LeafDef];
      Fold.Index = Leaf.B;
      if (Leaf.Op == OpCode::TableLookup) {
        Fold.Kind = ParamSlotKind::TableFold;
        LookupTable &Table = Program.Tables[Leaf.B];
        for (double &Value : Table.Values)
          Value = foldWeight(LogSpace, Value, Weight);
        Table.DefaultValue =
            foldWeight(LogSpace, Table.DefaultValue, Weight);
        Table.MarginalValue =
            foldWeight(LogSpace, Table.MarginalValue, Weight);
      } else {
        Fold.Kind = ParamSlotKind::GaussianFold;
        GaussianParams &Params = Program.Gaussians[Leaf.B];
        Params.Coefficient =
            foldWeight(LogSpace, Params.Coefficient, Weight);
        Params.MarginalValue =
            foldWeight(LogSpace, Params.MarginalValue, Weight);
      }
      Program.ParamSites.push_back(Fold);
      // The weighted result now comes straight out of the leaf.
      Leaf.Dst = Inst.Dst;
      DefOf[Inst.Dst] = LeafDef;
      Dead[I] = 1;
      --UseCounts[LeafReg];
      --UseCounts[ConstReg];
      break;
    }
  }

  // FMA fusion (linear space): Add(d, Mul(a,b), c) with a single-use mul.
  if (!LogSpace) {
    for (size_t I = 0; I < Code.size(); ++I) {
      Instruction &Inst = Code[I];
      if (Inst.Op != OpCode::Add || Dead[I])
        continue;
      for (unsigned Side = 0; Side < 2; ++Side) {
        uint32_t MulReg = Side == 0 ? Inst.A : Inst.B;
        uint32_t AddReg = Side == 0 ? Inst.B : Inst.A;
        int32_t MulDef = DefOf[MulReg];
        if (MulDef < 0 || Code[MulDef].Op != OpCode::Mul ||
            Dead[MulDef] || UseCounts[MulReg] != 1)
          continue;
        Instruction Fused;
        Fused.Op = OpCode::FusedMulAdd;
        Fused.Dst = Inst.Dst;
        Fused.A = Code[MulDef].A;
        Fused.B = Code[MulDef].B;
        Fused.C = AddReg;
        Dead[MulDef] = 1;
        Inst = Fused;
        break;
      }
    }
  }

  // Dead code elimination: drop unused pure defs (including consts left
  // over from the folds above).
  UseCounts = CountUses();
  // Recompute after rewrites; then sweep backwards so chains die. An
  // instruction that writes no register (a store) or reads one it writes
  // (an accumulator, whose cascade's first write defines it) stays.
  for (size_t I = Code.size(); I-- > 0;) {
    const OpcodeInfo &Info = opcodeInfo(Code[I].Op);
    bool Writes = false, Live = Info.Reads & Info.Writes;
    forEachRegisterWrite(Program, Code[I], [&](uint32_t Reg) {
      Writes = true;
      Live = Live || UseCounts[Reg] != 0;
    });
    if (Dead[I] || !Writes || Live)
      continue;
    Dead[I] = 1;
    forEachRegisterRead(Program, Code[I],
                        [&](uint32_t Reg) { --UseCounts[Reg]; });
  }

  std::vector<Instruction> Compacted;
  Compacted.reserve(Code.size());
  for (size_t I = 0; I < Code.size(); ++I)
    if (!Dead[I])
      Compacted.push_back(Code[I]);
  Code = std::move(Compacted);
}

//===----------------------------------------------------------------------===//
// Scheduling (O3): consumer-first reordering to shorten live ranges
//===----------------------------------------------------------------------===//

static void runScheduling(TaskProgram &Program) {
  // Read-modify-write cascades impose write-after-write ordering the
  // simple dependence model below does not capture; skip such programs.
  for (const Instruction &Inst : Program.Code)
    if (opcodeInfo(Inst.Op).Reads & opcodeInfo(Inst.Op).Writes)
      return;

  std::vector<Instruction> &Code = Program.Code;
  std::vector<int32_t> DefOf(Program.NumRegisters, -1);
  for (size_t I = 0; I < Code.size(); ++I)
    forEachRegisterWrite(Program, Code[I], [&](uint32_t Reg) {
      DefOf[Reg] = static_cast<int32_t>(I);
    });

  std::vector<Instruction> Scheduled;
  Scheduled.reserve(Code.size());
  std::vector<uint8_t> Emitted(Code.size(), 0);

  // Depth-first from each store: operands immediately before their
  // (first) consumer keeps live ranges short, which lets the register
  // allocator reuse registers aggressively.
  std::vector<uint32_t> Uses;
  std::vector<std::pair<int32_t, size_t>> Stack;
  auto Emit = [&](int32_t RootIdx) {
    if (Emitted[RootIdx])
      return;
    Emitted[RootIdx] = 1; // Marked when stacked; appended when popped.
    Stack.emplace_back(RootIdx, 0);
    while (!Stack.empty()) {
      auto &[Idx, NextUse] = Stack.back();
      Uses.clear();
      forEachRegisterRead(Program, Code[Idx],
                          [&](uint32_t Reg) { Uses.push_back(Reg); });
      if (NextUse < Uses.size()) {
        int32_t Def = DefOf[Uses[NextUse++]];
        if (Def >= 0 && !Emitted[Def]) {
          Emitted[Def] = 1; // Reserve to avoid duplicate stacking.
          Stack.emplace_back(Def, 0);
        }
        continue;
      }
      Scheduled.push_back(Code[Idx]);
      Stack.pop_back();
    }
  };
  for (size_t I = 0; I < Code.size(); ++I)
    if (Code[I].Op == OpCode::Store)
      Emit(static_cast<int32_t>(I));
  // Anything not reachable from a store is dead; keep it anyway to stay
  // semantics-preserving in case of unusual programs.
  for (size_t I = 0; I < Code.size(); ++I)
    if (!Emitted[I])
      Scheduled.push_back(Code[I]);
  Code = std::move(Scheduled);
}

//===----------------------------------------------------------------------===//
// Register allocation (O1+): linear scan with a free list
//===----------------------------------------------------------------------===//

static void runRegisterAllocation(TaskProgram &Program) {
  std::vector<Instruction> &Code = Program.Code;

  // Last read of each virtual register over the final order.
  std::vector<int32_t> LastUse(Program.NumRegisters, -1);
  for (size_t I = 0; I < Code.size(); ++I)
    forEachRegisterRead(Program, Code[I], [&](uint32_t Reg) {
      LastUse[Reg] = static_cast<int32_t>(I);
    });

  constexpr uint32_t kUnassigned = 0xffffffffu;
  std::vector<uint32_t> Assignment(Program.NumRegisters, kUnassigned);
  std::vector<uint32_t> FreeList;
  uint32_t NumPhys = 0;

  auto Allocate = [&](uint32_t VReg) {
    if (Assignment[VReg] != kUnassigned)
      return;
    if (!FreeList.empty()) {
      Assignment[VReg] = FreeList.back();
      FreeList.pop_back();
    } else {
      Assignment[VReg] = NumPhys++;
    }
  };

  std::vector<uint32_t> Dying, Defs;
  for (size_t I = 0; I < Code.size(); ++I) {
    Instruction &Inst = Code[I];

    // Virtual registers whose live range ends at this instruction, and
    // the ones it writes.
    Dying.clear();
    forEachRegisterRead(Program, Inst, [&](uint32_t VReg) {
      if (LastUse[VReg] == static_cast<int32_t>(I) &&
          std::find(Dying.begin(), Dying.end(), VReg) == Dying.end())
        Dying.push_back(VReg);
    });
    Defs.clear();
    forEachRegisterWrite(Program, Inst,
                         [&](uint32_t VReg) { Defs.push_back(VReg); });

    // Rewrite reads (including the Dst read of stores and accumulators).
    forEachRegisterRead(Program, Inst, [&](uint32_t &Reg) {
      assert(Assignment[Reg] != kUnassigned && "use before def");
      Reg = Assignment[Reg];
    });

    // Assign the defs. Accumulators keep their existing assignment; a
    // fresh def may reuse a register dying at this very instruction,
    // since every engine reads all operands before it writes; but not a
    // register this instruction still writes.
    for (uint32_t VReg : Dying)
      if (std::find(Defs.begin(), Defs.end(), VReg) == Defs.end())
        FreeList.push_back(Assignment[VReg]);
    for (uint32_t VReg : Defs)
      Allocate(VReg);
    size_t Def = 0;
    forEachRegisterWrite(Program, Inst, [&](uint32_t &Reg) {
      uint32_t VReg = Defs[Def++];
      Reg = Assignment[VReg];
      // A def that is never read dies immediately.
      if (LastUse[VReg] < static_cast<int32_t>(I))
        FreeList.push_back(Reg);
    });
  }

  Program.NumRegisters = std::max(NumPhys, 1u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

Expected<vm::KernelProgram>
spnc::codegen::emitKernelProgram(KernelOp Kernel,
                                 const CodegenOptions &Options,
                                 CodegenTimings *Timings) {
  if (!Kernel.isBufferized())
    return makeError("codegen requires a bufferized kernel");

  KernelProgram Program;
  Program.Name = Kernel.getKernelName();
  Program.Lowering = Options.EmitSelectCascades
                         ? LoweringKind::SelectCascade
                         : LoweringKind::TableLookup;
  Program.Query = Options.Query;

  // MPE and sampling build a traceback plan that references upward-pass
  // registers by index, so every SSA value must keep its own register:
  // force direct emission regardless of the requested level (the
  // pipeline also skips task partitioning for these queries).
  bool NeedsPlan = spn::needsTraceback(Options.Query);
  unsigned OptLevel = NeedsPlan ? 0 : Options.OptLevel;

  // Buffer plan from the kernel signature and allocs.
  ValueMap<uint32_t> BufferIds;
  Block &Body = Kernel.getBody();
  unsigned NumInputs = Kernel.getNumInputs();
  for (unsigned I = 0; I < Body.getNumArguments(); ++I) {
    Value Arg = Body.getArgument(I);
    MemRefType MemRef = Arg.getType().cast<MemRefType>();
    BufferInfo Info;
    Info.Role = I < NumInputs ? BufferInfo::Kind::Input
                              : BufferInfo::Kind::Output;
    std::span<const int64_t> Shape = MemRef.getShape();
    if (Shape.size() == 2 && Shape[0] == TypeStorage::kDynamic) {
      Info.Transposed = false;
      Info.Columns = static_cast<uint32_t>(Shape[1]);
    } else {
      Info.Transposed = true;
      Info.Columns =
          Shape.empty() ? 1 : static_cast<uint32_t>(Shape[0]);
    }
    BufferIds[Arg.getImpl()] =
        static_cast<uint32_t>(Program.Buffers.size());
    Program.Buffers.push_back(Info);
  }
  Program.NumInputs = NumInputs;
  Program.NumOutputs = Body.getNumArguments() - NumInputs;

  // Determine the compute type from the first output buffer element.
  {
    Value FirstOut = Body.getArgument(NumInputs);
    Type Element =
        FirstOut.getType().cast<MemRefType>().getElementType();
    Program.LogSpace = isLogSpace(Element);
    Type Storage = getStorageType(Element);
    Program.UseF32 = Storage.cast<FloatType>().getWidth() == 32;
  }

  CodegenTimings LocalTimings;
  CodegenTimings &T = Timings ? *Timings : LocalTimings;

  for (Operation *Op : Body) {
    if (AllocOp Alloc = dyn_cast_op<AllocOp>(Op)) {
      MemRefType MemRef =
          Alloc->getResult(0).getType().cast<MemRefType>();
      BufferInfo Info;
      Info.Role = BufferInfo::Kind::Intermediate;
      Info.Transposed = true;
      Info.Columns = static_cast<uint32_t>(MemRef.getShape()[0]);
      Info.DeviceResident = Alloc.isDeviceResident();
      BufferIds[Alloc->getResult(0).getImpl()] =
          static_cast<uint32_t>(Program.Buffers.size());
      Program.Buffers.push_back(Info);
      continue;
    }
    if (isa_op<DeallocOp>(Op) || isa_op<ReturnOp>(Op))
      continue;
    if (CopyOp Copy = dyn_cast_op<CopyOp>(Op)) {
      KernelStep Step;
      Step.CopySrc = static_cast<int32_t>(
          BufferIds.at(Op->getOperand(0).getImpl()));
      Step.CopyDst = static_cast<int32_t>(
          BufferIds.at(Op->getOperand(1).getImpl()));
      Program.Steps.push_back(Step);
      continue;
    }
    TaskOp Task = dyn_cast_op<TaskOp>(Op);
    if (!Task)
      return makeError(formatString(
          "unsupported op '%s' in kernel body", Op->getName().c_str()));
    Program.BatchSize = Task.getBatchSize();

    if (NeedsPlan && !Program.Tasks.empty())
      return makeError(
          "MPE/sampling codegen requires a single unpartitioned task");

    Timer IselTimer;
    TaskEmitter Emitter(Options, Program.LogSpace, BufferIds,
                        Program.Buffers,
                        NeedsPlan ? &Program.Plan : nullptr);
    Expected<TaskProgram> TaskProg = Emitter.emit(Task);
    T.IselNs += IselTimer.elapsedNs();
    if (!TaskProg)
      return TaskProg.getError();

    if (OptLevel >= 2) {
      Timer PeepholeTimer;
      runPeephole(*TaskProg, Program.LogSpace);
      runChainCollapse(*TaskProg);
      runSharedExponentials(*TaskProg, Emitter.takeLinearWeights());
      T.PeepholeNs += PeepholeTimer.elapsedNs();
    }
    if (OptLevel >= 3) {
      Timer SchedulingTimer;
      runScheduling(*TaskProg);
      T.SchedulingNs += SchedulingTimer.elapsedNs();
    }
    if (OptLevel >= 1) {
      Timer RegAllocTimer;
      runRegisterAllocation(*TaskProg);
      T.RegAllocNs += RegAllocTimer.elapsedNs();
    }

    KernelStep Step;
    Step.Task = static_cast<int32_t>(Program.Tasks.size());
    Program.Steps.push_back(Step);
    Program.Tasks.push_back(TaskProg.takeValue());
  }
  for (const TaskProgram &Task : Program.Tasks)
    for (const ParamSite &Site : Task.ParamSites)
      Program.NumParams = std::max(Program.NumParams, Site.Param + 1);
  return Program;
}
