//===- alloc_test.cpp - Heap allocations of one compile -----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// Counts the calls of the global operator new during a compile, a number
// the host cannot move. The IR keeps its operations, values and uniqued
// attributes in the context's arena (DESIGN.md §5), so a compile
// allocates per pass and per table, not per op. A RAT-SPN class compile
// creates ~52k ops, so a path that allocates per op again crosses the
// bounds below.
//
//===----------------------------------------------------------------------===//

#include "runtime/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocations{0};

void *countedAllocation(std::size_t Size) {
  NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *Memory = std::malloc(Size ? Size : 1))
    return Memory;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAllocation(Size); }
void *operator new[](std::size_t Size) { return countedAllocation(Size); }
void operator delete(void *Memory) noexcept { std::free(Memory); }
void operator delete[](void *Memory) noexcept { std::free(Memory); }
void operator delete(void *Memory, std::size_t) noexcept {
  std::free(Memory);
}
void operator delete[](void *Memory, std::size_t) noexcept {
  std::free(Memory);
}

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// Allocations of one compile of \p Model on a pipeline built beforehand.
uint64_t allocationsOfCompile(const spn::Model &Model,
                              const CompilerOptions &Options) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  EXPECT_TRUE(static_cast<bool>(Pipeline));
  if (!Pipeline)
    return 0;
  uint64_t Before = NumAllocations.load();
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig());
  uint64_t After = NumAllocations.load();
  EXPECT_TRUE(static_cast<bool>(Program));
  return After - Before;
}

TEST(AllocationTest, RatSpnClassCompile) {
  // The ratspn-classify benchmark's class: small-scale RAT-SPN, class 0
  // fitted to prototype seed 42, -O2, partitions of 5000, W=8.
  workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
  Rat.PrototypeSeed = 42;
  spn::Model Class = workloads::generateRatSpn(Rat, 0);
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.MaxPartitionSize = 5000;
  Options.Execution.VectorWidth = 8;
  uint64_t Count = allocationsOfCompile(Class, Options);
  RecordProperty("allocations", static_cast<int>(Count));
  // 8,097 with GCC 12's libstdc++.
  EXPECT_LT(Count, 20000u);
}

TEST(AllocationTest, SpeakerModelCompile) {
  workloads::SpeakerModelOptions Speaker;
  Speaker.Seed = 1;
  spn::Model Model = workloads::generateSpeakerModel(Speaker);
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  uint64_t Count = allocationsOfCompile(Model, Options);
  RecordProperty("allocations", static_cast<int>(Count));
  // 2,843 with GCC 12's libstdc++; the model has ~2.6k nodes.
  EXPECT_LT(Count, 10000u);
}

} // namespace
