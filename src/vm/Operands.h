//===- Operands.h - What each bytecode opcode's fields name ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one description of every opcode's operands (vm/Bytecode.h), as an
/// MLIR op declares its operands once: code generation, the `.spnk`
/// decoder's index checks, the cpp emitter's parameter layout and the
/// disassembler read them only through `opcodeInfo` and the visitors
/// below. Only execution (vm::runBlock, the cpp emitter's statements) is
/// written per opcode.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_OPERANDS_H
#define SPNC_VM_OPERANDS_H

#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace spnc {
namespace vm {

/// The fields of an Instruction, as mask bits.
enum OperandField : uint8_t { FieldDst = 1, FieldA = 2, FieldB = 4, FieldC = 8 };

/// The side table an instruction's immediate indexes.
enum class SideTable : uint8_t {
  None,
  ConstPool,
  Loads,
  Stores,
  Gaussians,
  Tables,
  Selects,
};

/// What an instruction lists in its task's Args.
enum class ArgsLayout : uint8_t {
  None,
  /// B operand registers from Args[A].
  Operands,
  /// B operand registers from Args[A], and from Args[C] the const-pool
  /// slot of each one's weight.
  WeightedOperands,
  /// From Args[A]: B children (registers read), C destinations
  /// (registers written), then C*B raw-weight const-pool slots, sum by
  /// sum.
  Group,
};

/// The operands of one opcode.
struct OpcodeInfo {
  /// Mnemonic (disassembly).
  const char *Name;
  /// Masks of the fields that are registers it reads and that it writes
  /// (a field in both is a read-modify-write accumulator).
  uint8_t Reads, Writes;
  /// The side table its immediate indexes, and the field that holds it.
  SideTable Table = SideTable::None;
  OperandField TableField = FieldA;
  ArgsLayout Args = ArgsLayout::None;
};

/// One entry per opcode, in OpCode order.
inline constexpr OpcodeInfo kOpcodeInfo[] = {
    {"const", 0, FieldDst, SideTable::ConstPool, FieldA},
    {"load", 0, FieldDst, SideTable::Loads, FieldA},
    {"store", FieldDst, 0, SideTable::Stores, FieldA},
    {"add", FieldA | FieldB, FieldDst},
    {"mul", FieldA | FieldB, FieldDst},
    {"fma", FieldA | FieldB | FieldC, FieldDst},
    {"logsumexp", FieldA | FieldB, FieldDst},
    {"gaussian", FieldA, FieldDst, SideTable::Gaussians, FieldB},
    {"gaussian.log", FieldA, FieldDst, SideTable::Gaussians, FieldB},
    {"table.lookup", FieldA, FieldDst, SideTable::Tables, FieldB},
    {"select.range", FieldA | FieldDst, FieldDst, SideTable::Selects, FieldB},
    {"nan.blend", FieldA | FieldDst, FieldDst, SideTable::ConstPool, FieldB},
    {"add.n", 0, FieldDst, SideTable::None, FieldA, ArgsLayout::Operands},
    {"mul.n", 0, FieldDst, SideTable::None, FieldA, ArgsLayout::Operands},
    {"logsumexp.n", 0, FieldDst, SideTable::None, FieldA,
     ArgsLayout::WeightedOperands},
    {"max", FieldA | FieldB, FieldDst},
    {"logsumexp.grp", 0, 0, SideTable::None, FieldA, ArgsLayout::Group},
};

inline constexpr size_t kNumOpCodes = std::size(kOpcodeInfo);
static_assert(kNumOpCodes == static_cast<size_t>(OpCode::LogSumExpGroup) + 1,
              "kOpcodeInfo needs one entry per opcode");

/// The description of \p Op, which must be below kNumOpCodes.
constexpr const OpcodeInfo &opcodeInfo(OpCode Op) {
  return kOpcodeInfo[static_cast<size_t>(Op)];
}

/// Field \p F of \p I, mutable when \p I is.
template <typename InstT> constexpr auto &field(InstT &I, OperandField F) {
  return F == FieldDst ? I.Dst : F == FieldA ? I.A : F == FieldB ? I.B : I.C;
}

/// What one entry an instruction lists in Args is.
enum class ArgRole : uint8_t { Read, Write, ConstSlot };

/// Calls \p Fn(Role, K, Entry) for each entry \p I lists in \p Task's
/// Args, K its index within its list: the operands of a WeightedOperands
/// instruction as (register, weight slot) pairs, a Group's children,
/// then its destinations, then its weights. Entry refers into Args,
/// mutable when \p Task is. The Args ranges must lie inside Args
/// (decodeProgram checks them).
template <typename TaskT, typename InstT, typename Fn>
void forEachArg(TaskT &Task, const InstT &I, Fn &&F) {
  ArgsLayout Layout = opcodeInfo(I.Op).Args;
  if (Layout == ArgsLayout::None)
    return;
  for (uint32_t K = 0; K < I.B; ++K) {
    F(ArgRole::Read, uint64_t(K), Task.Args[I.A + K]);
    if (Layout == ArgsLayout::WeightedOperands)
      F(ArgRole::ConstSlot, uint64_t(K), Task.Args[I.C + K]);
  }
  if (Layout != ArgsLayout::Group)
    return;
  size_t Dsts = size_t(I.A) + I.B, Weights = Dsts + I.C;
  for (uint32_t K = 0; K < I.C; ++K)
    F(ArgRole::Write, uint64_t(K), Task.Args[Dsts + K]);
  for (uint64_t K = 0; K < uint64_t(I.B) * I.C; ++K)
    F(ArgRole::ConstSlot, K, Task.Args[Weights + K]);
}

/// Calls \p Fn(Begin, Size) for each range of Args \p I lists: its
/// operands (a Group's children, destinations and weights together),
/// then a WeightedOperands instruction's weights. Begin is \p I's A or
/// C field, mutable when \p I is.
template <typename InstT, typename Fn>
void forEachArgsRange(InstT &I, Fn &&F) {
  switch (opcodeInfo(I.Op).Args) {
  case ArgsLayout::None:
    return;
  case ArgsLayout::Operands:
    return F(I.A, uint64_t(I.B));
  case ArgsLayout::WeightedOperands:
    F(I.A, uint64_t(I.B));
    return F(I.C, uint64_t(I.B));
  case ArgsLayout::Group:
    return F(I.A, uint64_t(I.B) + I.C + uint64_t(I.B) * I.C);
  }
}

/// Calls \p Fn(Reg) for each register \p I reads: its fields in the
/// order A, B, C, Dst, then the registers it lists in Args. Reg is
/// mutable when \p Task and \p I are.
template <typename TaskT, typename InstT, typename Fn>
void forEachRegisterRead(TaskT &Task, InstT &I, Fn &&F) {
  for (OperandField Field : {FieldA, FieldB, FieldC, FieldDst})
    if (opcodeInfo(I.Op).Reads & Field)
      F(field(I, Field));
  forEachArg(Task, I, [&](ArgRole Role, uint64_t, auto &Reg) {
    if (Role == ArgRole::Read)
      F(Reg);
  });
}

/// Calls \p Fn(Reg) for each register \p I writes: its Dst, or a
/// Group's destinations. Reg is mutable (for renaming) when \p Task and
/// \p I are.
template <typename TaskT, typename InstT, typename Fn>
void forEachRegisterWrite(TaskT &Task, InstT &I, Fn &&F) {
  if (opcodeInfo(I.Op).Writes & FieldDst)
    F(I.Dst);
  if (opcodeInfo(I.Op).Args == ArgsLayout::Group)
    forEachArg(Task, I, [&](ArgRole Role, uint64_t, auto &Reg) {
      if (Role == ArgRole::Write)
        F(Reg);
    });
}

/// Calls \p Fn(Slot) for each const-pool slot \p I reads: its immediate,
/// or the weight slots it lists in Args.
template <typename TaskT, typename InstT, typename Fn>
void forEachConstRead(TaskT &Task, InstT &I, Fn &&F) {
  const OpcodeInfo &Info = opcodeInfo(I.Op);
  if (Info.Table == SideTable::ConstPool)
    F(field(I, Info.TableField));
  forEachArg(Task, I, [&](ArgRole Role, uint64_t, auto &Slot) {
    if (Role == ArgRole::ConstSlot)
      F(Slot);
  });
}

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_OPERANDS_H
