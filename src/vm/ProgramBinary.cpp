//===- ProgramBinary.cpp - Binary encoding of kernel programs ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/ProgramBinary.h"

#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "support/Hashing.h"
#include "vm/Operands.h"

#include <algorithm>
#include <cstring>
#include <string>

using namespace spnc;
using namespace spnc::vm;

namespace {

constexpr uint32_t kMagic = 0x43505356; // "VSPC"
// Byte offset of the checksum field (after magic + version) and of the
// checksummed payload that follows it. docs/spnk-format.md is the
// authoritative layout description.
constexpr size_t kChecksumOffset = 8;
constexpr size_t kPayloadOffset = 16;

} // namespace

std::vector<uint8_t> spnc::vm::encodeProgram(const KernelProgram &P) {
  ByteWriter W;
  W.u32(kMagic);
  W.u32(kProgramBinaryVersion);
  W.u64(0); // checksum placeholder, patched after the payload is known
  W.str(P.Name);
  W.u8(P.UseF32);
  W.u8(P.LogSpace);
  W.u8(static_cast<uint8_t>(P.Lowering));
  W.u8(static_cast<uint8_t>(P.Query));
  W.u32(static_cast<uint32_t>(P.Plan.Nodes.size()));
  for (const PlanNode &N : P.Plan.Nodes) {
    W.u8(static_cast<uint8_t>(N.Kind));
    W.u32(static_cast<uint32_t>(N.A));
    W.u32(static_cast<uint32_t>(N.B));
    W.u32(N.RegA);
    W.u32(N.RegB);
    W.u32(N.Feature);
    W.f64(N.Mean);
    W.f64(N.StdDev);
    W.f64(N.Mode);
    W.u32(N.TableBegin);
    W.u32(N.TableCount);
  }
  W.f64Vec(P.Plan.Buckets);
  W.u32(static_cast<uint32_t>(P.Plan.Root));
  W.u32(P.NumParams);
  W.u32(P.BatchSize);
  W.u32(P.NumInputs);
  W.u32(P.NumOutputs);

  W.u32(static_cast<uint32_t>(P.Buffers.size()));
  for (const BufferInfo &B : P.Buffers) {
    W.u8(static_cast<uint8_t>(B.Role));
    W.u32(B.Columns);
    W.u8(B.Transposed);
    W.u8(B.DeviceResident);
  }

  W.u32(static_cast<uint32_t>(P.Steps.size()));
  for (const KernelStep &S : P.Steps) {
    W.u32(static_cast<uint32_t>(S.Task));
    W.u32(static_cast<uint32_t>(S.CopySrc));
    W.u32(static_cast<uint32_t>(S.CopyDst));
  }

  W.u32(static_cast<uint32_t>(P.Tasks.size()));
  for (const TaskProgram &T : P.Tasks) {
    W.u32(T.NumRegisters);
    W.u32(static_cast<uint32_t>(T.Code.size()));
    for (const Instruction &I : T.Code) {
      W.u8(static_cast<uint8_t>(I.Op));
      W.u32(I.Dst);
      W.u32(I.A);
      W.u32(I.B);
      W.u32(I.C);
    }
    W.f64Vec(T.ConstPool);
    W.u32(static_cast<uint32_t>(T.Gaussians.size()));
    for (const GaussianParams &G : T.Gaussians) {
      W.f64(G.Mean);
      W.f64(G.InvStdDev);
      W.f64(G.Coefficient);
      W.u8(G.SupportMarginal);
      W.f64(G.MarginalValue);
    }
    W.u32(static_cast<uint32_t>(T.Tables.size()));
    for (const LookupTable &L : T.Tables) {
      W.f64(L.Lo);
      W.f64Vec(L.Values);
      W.f64(L.DefaultValue);
      W.u8(L.SupportMarginal);
      W.f64(L.MarginalValue);
    }
    W.u32(static_cast<uint32_t>(T.Selects.size()));
    for (const SelectRange &S : T.Selects) {
      W.f64(S.Lo);
      W.f64(S.Hi);
      W.f64(S.Value);
    }
    W.u32(static_cast<uint32_t>(T.Loads.size()));
    for (const BufferAccess &A : T.Loads) {
      W.u32(A.Buffer);
      W.u32(A.Index);
    }
    W.u32(static_cast<uint32_t>(T.Stores.size()));
    for (const BufferAccess &A : T.Stores) {
      W.u32(A.Buffer);
      W.u32(A.Index);
    }
    W.u32(static_cast<uint32_t>(T.Args.size()));
    for (uint32_t Arg : T.Args)
      W.u32(Arg);
    W.u32(static_cast<uint32_t>(T.ParamSites.size()));
    for (const ParamSite &S : T.ParamSites) {
      W.u8(static_cast<uint8_t>(S.Kind));
      W.u8(static_cast<uint8_t>(S.Transform));
      W.u32(S.Index);
      W.u32(S.Slot);
      W.u32(S.Count);
      W.u32(S.Param);
    }
  }
  std::vector<uint8_t> Bytes = W.take();
  uint64_t Checksum =
      xxh64(Bytes.data() + kPayloadOffset, Bytes.size() - kPayloadOffset);
  std::memcpy(Bytes.data() + kChecksumOffset, &Checksum, sizeof(Checksum));
  return Bytes;
}

namespace {

std::string outOfRange(const std::string &Where, const char *Field,
                       int64_t Value, size_t Limit) {
  return Where + ": " + Field + " " + std::to_string(Value) +
         " out of range (limit " + std::to_string(Limit) + ")";
}

/// The name the index checks give \p Table's index, and its size in
/// \p Task.
std::pair<const char *, size_t> sideTable(const TaskProgram &Task,
                                          SideTable Table) {
  switch (Table) {
  case SideTable::ConstPool:
    return {"const-pool index", Task.ConstPool.size()};
  case SideTable::Loads:
    return {"load index", Task.Loads.size()};
  case SideTable::Stores:
    return {"store index", Task.Stores.size()};
  case SideTable::Gaussians:
    return {"gaussian index", Task.Gaussians.size()};
  case SideTable::Tables:
    return {"table index", Task.Tables.size()};
  case SideTable::Selects:
    return {"select index", Task.Selects.size()};
  case SideTable::None:
    break;
  }
  return {"", 0};
}

/// Checks what \p I lists in \p Task's Args: the counts the engines rely
/// on, the ranges (operands, then weights), then each register and weight
/// slot. Returns an error naming the first offending field, located by
/// \p At, or an empty string.
template <typename AtFn>
std::string checkArgs(const TaskProgram &Task, const Instruction &I,
                      AtFn At) {
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  if (Info.Args == ArgsLayout::Group) {
    // The engines keep a group's children in kMaxNaryArgs-sized arrays.
    if (I.B == 0 || I.B > kMaxNaryArgs)
      return outOfRange(At(), "child count", I.B, kMaxNaryArgs + 1);
    if (I.C == 0)
      return At() + ": group of no sum";
  } else if (I.B == 0) {
    // The engines address an n-ary instruction's Args at its first
    // operand.
    return At() + ": n-ary instruction of no operand";
  }
  uint64_t Ends[2] = {};
  unsigned NumRanges = 0;
  forEachArgsRange(I, [&](uint32_t Begin, uint64_t Size) {
    Ends[NumRanges++] = Begin + Size;
  });
  for (unsigned R = 0; R < NumRanges; ++R)
    if (Ends[R] > Task.Args.size())
      return outOfRange(At(), R == 0 ? "arg range end" : "weight range end",
                        static_cast<int64_t>(Ends[R]), Task.Args.size());
  // The largest register and weight slot first (a loop without early
  // exits), the first offender only when one is out of range.
  uint32_t MaxReg = 0, MaxSlot = 0;
  forEachArg(Task, I, [&](ArgRole Role, uint64_t, uint32_t Entry) {
    uint32_t &Max = Role == ArgRole::ConstSlot ? MaxSlot : MaxReg;
    Max = std::max(Max, Entry);
  });
  std::string Err;
  if (MaxReg < Task.NumRegisters && MaxSlot < Task.ConstPool.size())
    return Err;
  forEachArg(Task, I, [&](ArgRole Role, uint64_t K, uint32_t Entry) {
    bool Slot = Role == ArgRole::ConstSlot;
    size_t Limit = Slot ? Task.ConstPool.size() : Task.NumRegisters;
    if (!Err.empty() || Entry < Limit)
      return;
    const char *List = Info.Args != ArgsLayout::Group ? "operand"
                       : Role == ArgRole::Read        ? "child"
                       : Role == ArgRole::Write       ? "destination"
                                                      : "weight";
    Err = outOfRange(At() + ", " + List + " " + std::to_string(K),
                     Slot ? "weight slot" : "register", Entry, Limit);
  });
  return Err;
}

/// Checks, in one linear pass, every value of \p P that the engines, the
/// traceback or the cpp emitter use to index a table, a buffer or the
/// register file. Returns an error naming the first offending field, or
/// an empty string when every index is in range. Locations are only
/// formatted on failure, so the pass costs a few compares per field.
std::string checkIndices(const KernelProgram &P) {
  size_t NumBuffers = P.Buffers.size();
  uint32_t NumIn = 0, NumOut = 0, NumFeatures = 0, OutputColumns = 0;
  for (size_t I = 0; I < NumBuffers; ++I) {
    const BufferInfo &B = P.Buffers[I];
    if (B.Role > BufferInfo::Kind::Intermediate)
      return outOfRange("buffer " + std::to_string(I), "role",
                        static_cast<int64_t>(B.Role), 3);
    if (B.Role == BufferInfo::Kind::Input) {
      ++NumIn;
      NumFeatures = B.Columns;
    } else if (B.Role == BufferInfo::Kind::Output) {
      ++NumOut;
      OutputColumns = B.Columns;
    }
  }
  // Every engine runs kernels with one input and one output buffer.
  if (NumIn != 1 || NumOut != 1 || P.NumInputs != 1 || P.NumOutputs != 1)
    return "buffer roles: " + std::to_string(NumIn) + " input and " +
           std::to_string(NumOut) + " output buffers (header: " +
           std::to_string(P.NumInputs) + " and " +
           std::to_string(P.NumOutputs) + "), kernels take one of each";
  auto IsInput = [&](uint32_t Buffer) {
    return P.Buffers[Buffer].Role == BufferInfo::Kind::Input;
  };

  for (size_t I = 0; I < P.Steps.size(); ++I) {
    const KernelStep &S = P.Steps[I];
    auto At = [&] { return "step " + std::to_string(I); };
    if (S.Task >= 0) {
      if (static_cast<size_t>(S.Task) >= P.Tasks.size())
        return outOfRange(At(), "task", S.Task, P.Tasks.size());
      continue;
    }
    if (S.CopySrc < 0 || static_cast<size_t>(S.CopySrc) >= NumBuffers)
      return outOfRange(At(), "copy source", S.CopySrc, NumBuffers);
    if (S.CopyDst < 0 || static_cast<size_t>(S.CopyDst) >= NumBuffers)
      return outOfRange(At(), "copy destination", S.CopyDst, NumBuffers);
    if (IsInput(S.CopyDst) ||
        P.Buffers[S.CopySrc].Columns > P.Buffers[S.CopyDst].Columns)
      return At() + ": copy destination " + std::to_string(S.CopyDst) +
             " cannot hold copy source " + std::to_string(S.CopySrc);
  }

  // Columns of each buffer its stores and copy steps fill.
  std::vector<uint64_t> Filled(NumBuffers, 0);
  for (const KernelStep &S : P.Steps)
    if (S.Task < 0)
      Filled[S.CopyDst] += P.Buffers[S.CopySrc].Columns;

  for (size_t T = 0; T < P.Tasks.size(); ++T) {
    const TaskProgram &Task = P.Tasks[T];
    std::string Where = "task " + std::to_string(T);
    for (bool Store : {false, true}) {
      const char *Kind = Store ? ", store " : ", load ";
      const std::vector<BufferAccess> &Accesses =
          Store ? Task.Stores : Task.Loads;
      for (size_t I = 0; I < Accesses.size(); ++I) {
        const BufferAccess &A = Accesses[I];
        auto At = [&] { return Where + Kind + std::to_string(I); };
        if (A.Buffer >= NumBuffers)
          return outOfRange(At(), "buffer", A.Buffer, NumBuffers);
        if (Store && IsInput(A.Buffer))
          return At() + ": buffer " + std::to_string(A.Buffer) +
                 " is an input";
        if (A.Index >= P.Buffers[A.Buffer].Columns)
          return outOfRange(At(), "column", A.Index,
                            P.Buffers[A.Buffer].Columns);
        if (Store)
          ++Filled[A.Buffer];
      }
    }
    uint64_t Writes = 0;
    for (size_t N = 0; N < Task.Code.size(); ++N) {
      const Instruction &I = Task.Code[N];
      auto At = [&] { return Where + ", instruction " + std::to_string(N); };
      if (static_cast<size_t>(I.Op) >= kNumOpCodes)
        return outOfRange(At(), "opcode", static_cast<int64_t>(I.Op),
                          kNumOpCodes);
      const OpcodeInfo &Info = opcodeInfo(I.Op);
      if (Info.Args != ArgsLayout::None)
        if (std::string Err = checkArgs(Task, I, At); !Err.empty())
          return Err;
      for (OperandField F : {FieldDst, FieldA, FieldB, FieldC})
        if ((Info.Reads | Info.Writes) & F &&
            field(I, F) >= Task.NumRegisters)
          return outOfRange(At(), "register", field(I, F),
                            Task.NumRegisters);
      if (Info.Table != SideTable::None) {
        auto [Name, Size] = sideTable(Task, Info.Table);
        if (field(I, Info.TableField) >= Size)
          return outOfRange(At(), Name, field(I, Info.TableField), Size);
      }
      forEachRegisterWrite(Task, I, [&](uint32_t) { ++Writes; });
    }
    // Engines allocate NumRegisters values per lane: no more than the
    // code writes (at least one).
    if (Task.NumRegisters > std::max<uint64_t>(Writes, 1))
      return outOfRange(Where, "register count", Task.NumRegisters,
                        std::max<uint64_t>(Writes, 1) + 1);

    for (size_t I = 0; I < Task.ParamSites.size(); ++I) {
      const ParamSite &S = Task.ParamSites[I];
      auto At = [&] { return Where + ", param site " + std::to_string(I); };
      if (S.Param >= P.NumParams)
        return outOfRange(At(), "parameter", S.Param, P.NumParams);
      size_t Size = 0;
      switch (S.Kind) {
      case ParamSlotKind::ConstPool:
        Size = Task.ConstPool.size();
        break;
      case ParamSlotKind::GaussianMean:
      case ParamSlotKind::GaussianInvStdDev:
      case ParamSlotKind::GaussianCoefficient:
      case ParamSlotKind::GaussianFold:
        Size = Task.Gaussians.size();
        break;
      case ParamSlotKind::TableValue:
      case ParamSlotKind::TableFold:
        Size = Task.Tables.size();
        break;
      case ParamSlotKind::SelectValue:
        Size = Task.Selects.size();
        break;
      }
      if (S.Index >= Size)
        return outOfRange(At(), "slot index", S.Index, Size);
      if (S.Kind == ParamSlotKind::TableValue &&
          static_cast<uint64_t>(S.Slot) + S.Count >
              Task.Tables[S.Index].Values.size())
        return outOfRange(At(), "table slot end",
                          static_cast<int64_t>(S.Slot) + S.Count,
                          Task.Tables[S.Index].Values.size());
    }
  }

  // Engines allocate Columns values per row of an intermediate buffer:
  // no more than its stores and copy steps fill.
  for (size_t I = 0; I < NumBuffers; ++I)
    if (P.Buffers[I].Role == BufferInfo::Kind::Intermediate &&
        P.Buffers[I].Columns > Filled[I])
      return outOfRange("buffer " + std::to_string(I), "column count",
                        P.Buffers[I].Columns, Filled[I] + 1);

  const TracebackPlan &Plan = P.Plan;
  if (Plan.Root < -1 ||
      Plan.Root >= static_cast<int64_t>(Plan.Nodes.size()))
    return outOfRange("plan", "root", Plan.Root, Plan.Nodes.size());
  if (!Plan.Nodes.empty() && P.Tasks.empty())
    return "plan: no task holds the registers the plan reads";
  // Engines complete MPE and sampling rows from the registers of the one
  // task and its one output column.
  if (spn::needsTraceback(P.Query) &&
      (Plan.empty() || P.Tasks.size() != 1 || OutputColumns != 1))
    return std::string("plan: ") + spn::queryKindName(P.Query) +
           " programs need a traceback plan, one task and one output "
           "column";
  for (size_t I = 0; I < Plan.Nodes.size(); ++I) {
    const PlanNode &N = Plan.Nodes[I];
    auto At = [&] { return "plan node " + std::to_string(I); };
    // Children precede their parents, which also rules out cycles.
    bool HasA = N.Kind == PlanNodeKind::Choice ||
                N.Kind == PlanNodeKind::Both || N.Kind == PlanNodeKind::Pass;
    bool HasB =
        N.Kind == PlanNodeKind::Choice || N.Kind == PlanNodeKind::Both;
    auto BadChild = [&](int32_t Child) {
      return Child < 0 || static_cast<size_t>(Child) >= I;
    };
    if (HasA && BadChild(N.A))
      return outOfRange(At(), "child", N.A, I);
    if (HasB && BadChild(N.B))
      return outOfRange(At(), "child", N.B, I);
    uint32_t NumRegisters = P.Tasks[0].NumRegisters;
    if (N.Kind == PlanNodeKind::Choice)
      for (uint32_t Reg : {N.RegA, N.RegB})
        if (Reg >= NumRegisters)
          return outOfRange(At(), "register", Reg, NumRegisters);
    if (N.Kind == PlanNodeKind::LeafTable &&
        static_cast<uint64_t>(N.TableBegin) + 3ull * N.TableCount >
            Plan.Buckets.size())
      return outOfRange(At(), "bucket range end",
                        static_cast<int64_t>(N.TableBegin) +
                            3ll * N.TableCount,
                        Plan.Buckets.size());
    bool Leaf = N.Kind == PlanNodeKind::LeafTable ||
                N.Kind == PlanNodeKind::LeafGaussian;
    if (Leaf && N.Feature >= NumFeatures)
      return outOfRange(At(), "feature", N.Feature, NumFeatures);
  }
  return std::string();
}

} // namespace

Expected<KernelProgram>
spnc::vm::decodeProgram(std::span<const uint8_t> Blob) {
  ByteReader R(Blob);
  if (R.u32() != kMagic)
    return makeError("not a kernel program blob (bad magic)");
  uint32_t Version = R.u32();
  if (Version != kProgramBinaryVersion)
    return makeError("unsupported kernel program version " +
                     std::to_string(Version) + " (only v" +
                     std::to_string(kProgramBinaryVersion) + " is read)");
  // Verify the content checksum before any structural parsing, so a
  // damaged blob can never be half-interpreted into a program.
  uint64_t Expected = R.u64();
  if (R.bad() || Blob.size() < kPayloadOffset)
    return makeError("truncated program header");
  uint64_t Actual =
      xxh64(Blob.data() + kPayloadOffset, Blob.size() - kPayloadOffset);
  if (Actual != Expected)
    return makeError("kernel program checksum mismatch (truncated or "
                     "corrupted blob)");
  KernelProgram P;
  P.Name = R.str();
  P.UseF32 = R.u8() != 0;
  P.LogSpace = R.u8() != 0;
  uint8_t Lowering = R.u8();
  if (Lowering > static_cast<uint8_t>(LoweringKind::SelectCascade))
    return makeError("invalid lowering kind in program header");
  P.Lowering = static_cast<LoweringKind>(Lowering);
  uint8_t Query = R.u8();
  if (Query > static_cast<uint8_t>(QueryKind::Sample))
    return makeError("invalid query kind in program header");
  P.Query = static_cast<QueryKind>(Query);
  uint32_t NumNodes = R.u32();
  if (R.bad() || NumNodes > Blob.size())
    return makeError("invalid plan node count");
  P.Plan.Nodes.resize(NumNodes);
  for (PlanNode &N : P.Plan.Nodes) {
    uint8_t Kind = R.u8();
    if (Kind > static_cast<uint8_t>(PlanNodeKind::LeafGaussian))
      return makeError("invalid plan node kind");
    N.Kind = static_cast<PlanNodeKind>(Kind);
    N.A = static_cast<int32_t>(R.u32());
    N.B = static_cast<int32_t>(R.u32());
    N.RegA = R.u32();
    N.RegB = R.u32();
    N.Feature = R.u32();
    N.Mean = R.f64();
    N.StdDev = R.f64();
    N.Mode = R.f64();
    N.TableBegin = R.u32();
    N.TableCount = R.u32();
  }
  P.Plan.Buckets = R.f64Vec();
  P.Plan.Root = static_cast<int32_t>(R.u32());
  P.NumParams = R.u32();
  P.BatchSize = R.u32();
  P.NumInputs = R.u32();
  P.NumOutputs = R.u32();

  uint32_t NumBuffers = R.u32();
  if (R.bad() || NumBuffers > Blob.size())
    return makeError("truncated program header");
  P.Buffers.resize(NumBuffers);
  for (BufferInfo &B : P.Buffers) {
    B.Role = static_cast<BufferInfo::Kind>(R.u8());
    B.Columns = R.u32();
    B.Transposed = R.u8() != 0;
    B.DeviceResident = R.u8() != 0;
  }

  uint32_t NumSteps = R.u32();
  if (R.bad() || NumSteps > Blob.size())
    return makeError("truncated step table");
  P.Steps.resize(NumSteps);
  for (KernelStep &S : P.Steps) {
    S.Task = static_cast<int32_t>(R.u32());
    S.CopySrc = static_cast<int32_t>(R.u32());
    S.CopyDst = static_cast<int32_t>(R.u32());
  }

  uint32_t NumTasks = R.u32();
  if (R.bad() || NumTasks > Blob.size())
    return makeError("truncated task table");
  P.Tasks.resize(NumTasks);
  for (TaskProgram &T : P.Tasks) {
    T.NumRegisters = R.u32();
    uint32_t NumInsts = R.u32();
    if (R.bad() || NumInsts > Blob.size())
      return makeError("invalid instruction count");
    T.Code.resize(NumInsts);
    for (Instruction &I : T.Code) {
      I.Op = static_cast<OpCode>(R.u8());
      I.Dst = R.u32();
      I.A = R.u32();
      I.B = R.u32();
      I.C = R.u32();
    }
    T.ConstPool = R.f64Vec();
    uint32_t NumGauss = R.u32();
    if (R.bad() || NumGauss > Blob.size())
      return makeError("invalid gaussian count");
    T.Gaussians.resize(NumGauss);
    for (GaussianParams &G : T.Gaussians) {
      G.Mean = R.f64();
      G.InvStdDev = R.f64();
      G.Coefficient = R.f64();
      G.SupportMarginal = R.u8() != 0;
      G.MarginalValue = R.f64();
    }
    uint32_t NumTables = R.u32();
    if (R.bad() || NumTables > Blob.size())
      return makeError("invalid table count");
    T.Tables.resize(NumTables);
    for (LookupTable &L : T.Tables) {
      L.Lo = R.f64();
      L.Values = R.f64Vec();
      L.DefaultValue = R.f64();
      L.SupportMarginal = R.u8() != 0;
      L.MarginalValue = R.f64();
    }
    uint32_t NumSelects = R.u32();
    if (R.bad() || NumSelects > Blob.size())
      return makeError("invalid select count");
    T.Selects.resize(NumSelects);
    for (SelectRange &S : T.Selects) {
      S.Lo = R.f64();
      S.Hi = R.f64();
      S.Value = R.f64();
    }
    uint32_t NumLoads = R.u32();
    if (R.bad() || NumLoads > Blob.size())
      return makeError("invalid load count");
    T.Loads.resize(NumLoads);
    for (BufferAccess &A : T.Loads) {
      A.Buffer = R.u32();
      A.Index = R.u32();
    }
    uint32_t NumStores = R.u32();
    if (R.bad() || NumStores > Blob.size())
      return makeError("invalid store count");
    T.Stores.resize(NumStores);
    for (BufferAccess &A : T.Stores) {
      A.Buffer = R.u32();
      A.Index = R.u32();
    }
    uint32_t NumArgs = R.u32();
    if (R.bad() || NumArgs > Blob.size())
      return makeError("invalid args count");
    T.Args.resize(NumArgs);
    for (uint32_t &Arg : T.Args)
      Arg = R.u32();
    uint32_t NumSites = R.u32();
    if (R.bad() || NumSites > Blob.size())
      return makeError("invalid parameter-site count");
    T.ParamSites.resize(NumSites);
    for (ParamSite &S : T.ParamSites) {
      uint8_t Kind = R.u8();
      if (Kind > static_cast<uint8_t>(ParamSlotKind::TableFold))
        return makeError("invalid parameter-site kind");
      S.Kind = static_cast<ParamSlotKind>(Kind);
      uint8_t Transform = R.u8();
      if (Transform >
          static_cast<uint8_t>(ParamTransform::LinearGaussCoefficient))
        return makeError("invalid parameter transform");
      S.Transform = static_cast<ParamTransform>(Transform);
      S.Index = R.u32();
      S.Slot = R.u32();
      S.Count = R.u32();
      S.Param = R.u32();
    }
  }
  if (R.bad() || !R.atEnd())
    return makeError("malformed kernel program blob");
  if (std::string Err = checkIndices(P); !Err.empty())
    return makeError("invalid kernel program: " + Err);
  return P;
}

Expected<KernelProgram> spnc::vm::readProgramFile(const std::string &Path) {
  Expected<std::string> Blob = readWholeFile(Path);
  if (!Blob)
    return Blob.getError();
  Expected<KernelProgram> Program = decodeProgram(asBytes(*Blob));
  if (!Program)
    return makeError("cannot load '" + Path +
                     "': " + Program.getError().message());
  return Program;
}
