//===- support_test.cpp - Support library tests ----------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "support/Expected.h"
#include "support/FileIO.h"
#include "support/Future.h"
#include "support/Hashing.h"
#include "support/Histogram.h"
#include "support/LogicalResult.h"
#include "support/Random.h"
#include "support/RawOStream.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace spnc;

namespace {

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Animal {
  enum class Kind { Dog, Cat } K;
  explicit Animal(Kind K) : K(K) {}
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->K == Animal::Kind::Dog; }
};
struct Cat : Animal {
  Cat() : Animal(Kind::Cat) {}
  static bool classof(const Animal *A) { return A->K == Animal::Kind::Cat; }
};

TEST(CastingTest, IsaCastDynCast) {
  Dog D;
  Animal *A = &D;
  EXPECT_TRUE(isa<Dog>(A));
  EXPECT_FALSE(isa<Cat>(A));
  EXPECT_EQ(cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
  EXPECT_EQ(dyn_cast_or_null<Dog>(static_cast<Animal *>(nullptr)),
            nullptr);
  EXPECT_TRUE(isa_and_nonnull<Dog>(A));
  EXPECT_FALSE(isa_and_nonnull<Dog>(static_cast<Animal *>(nullptr)));
  const Animal *CA = &D;
  EXPECT_TRUE(isa<Dog>(CA));
  EXPECT_EQ(cast<Dog>(CA), &D);
}

//===----------------------------------------------------------------------===//
// LogicalResult and Expected
//===----------------------------------------------------------------------===//

TEST(LogicalResultTest, States) {
  EXPECT_TRUE(succeeded(success()));
  EXPECT_TRUE(failed(failure()));
  EXPECT_TRUE(failed(LogicalResult::success(false)));
  EXPECT_TRUE(succeeded(LogicalResult::failure(false)));
}

TEST(ExpectedTest, ValueAndError) {
  Expected<int> Good(42);
  ASSERT_TRUE(static_cast<bool>(Good));
  EXPECT_EQ(*Good, 42);
  EXPECT_EQ(Good.takeValue(), 42);

  Expected<int> Bad(makeError("boom"));
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_EQ(Bad.getError().message(), "boom");
}

TEST(ExpectedTest, MoveOnlyPayload) {
  Expected<std::unique_ptr<int>> Value(std::make_unique<int>(7));
  ASSERT_TRUE(static_cast<bool>(Value));
  std::unique_ptr<int> Taken = Value.takeValue();
  EXPECT_EQ(*Taken, 7);
}

//===----------------------------------------------------------------------===//
// Hashing, strings, streams
//===----------------------------------------------------------------------===//

TEST(HashingTest, CombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_EQ(hashCombine(1, 2, 3), hashCombine(1, 2, 3));
  std::vector<int> A{1, 2, 3}, B{3, 2, 1};
  EXPECT_NE(hashRange(A.begin(), A.end()), hashRange(B.begin(), B.end()));
}

TEST(StringUtilsTest, FormatAndSplit) {
  EXPECT_EQ(formatString("%s=%d", "x", 7), "x=7");
  EXPECT_EQ(formatString("%.2f", 1.239), "1.24");
  std::vector<std::string> Pieces = splitString("a,b,,c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");
}

TEST(RawOStreamTest, FormatsValues) {
  std::string Buffer;
  StringOStream OS(Buffer);
  OS << "x=" << 42 << ' ' << int64_t(-7) << ' ' << uint64_t(8) << ' '
     << 2.5 << ' ' << true;
  OS.indent(3) << "end";
  EXPECT_EQ(Buffer, "x=42 -7 8 2.5 true   end");
}

//===----------------------------------------------------------------------===//
// RNG
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicStreams) {
  Rng A(123), B(123), C(124);
  bool Differs = false;
  for (int I = 0; I < 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Differs = true;
  }
  EXPECT_TRUE(Differs);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double X = R.uniform();
    ASSERT_GE(X, 0.0);
    ASSERT_LT(X, 1.0);
    Sum += X;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng R(9);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal(2.0, 3.0);
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(Var), 3.0, 0.1);
}

TEST(RngTest, UniformIntBounds) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.uniformInt(7), 7u);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Counter] { ++Counter; });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
  // Reusable after wait().
  Pool.submit([&Counter] { Counter += 10; });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 110);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(1000, [&](size_t I) { ++Hits[I]; });
  for (const auto &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
  Pool.parallelFor(0, [&](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForZeroItemsReturnsImmediately) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
  // The pool stays usable afterwards.
  Pool.parallelFor(3, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls.load(), 3);
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanWorkers) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Hits(3);
  Pool.parallelFor(3, [&](size_t I) { ++Hits[I]; });
  // Each item runs exactly once even though most workers get no chunk.
  for (const auto &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotDeadlockWait) {
  ThreadPool Pool(4);
  std::atomic<int> Completed{0};
  for (int I = 0; I < 16; ++I)
    Pool.submit([&Completed, I] {
      if (I == 5)
        throw std::runtime_error("task failure");
      ++Completed;
    });
  // wait() must return (not hang on the never-decremented counter a
  // naive pool would leak) and surface the first task exception.
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  EXPECT_EQ(Completed.load(), 15);
  // The failure is consumed: the pool keeps working and the next wait
  // is clean.
  Pool.submit([&Completed] { ++Completed; });
  Pool.wait();
  EXPECT_EQ(Completed.load(), 16);
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskException) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I) {
                                  if (I == 50)
                                    throw std::runtime_error("boom");
                                  ++Ran;
                                }),
               std::runtime_error);
  // Other chunks still completed; only the throwing chunk aborted.
  EXPECT_GT(Ran.load(), 0);
}

//===----------------------------------------------------------------------===//
// Future
//===----------------------------------------------------------------------===//

TEST(FutureTest, DeliversValueAcrossThreads) {
  Promise<int> ThePromise;
  Future<int> TheFuture = ThePromise.getFuture();
  EXPECT_TRUE(TheFuture.valid());
  EXPECT_FALSE(TheFuture.ready());
  EXPECT_FALSE(ThePromise.isSet());
  // A bounded wait on a pending future times out instead of hanging.
  EXPECT_FALSE(TheFuture.waitFor(1000));

  std::thread Producer([P = std::move(ThePromise)]() mutable {
    P.set(42);
  });
  EXPECT_EQ(TheFuture.get(), 42);
  EXPECT_TRUE(TheFuture.ready());
  // Copies observe the same state.
  Future<int> Copy = TheFuture;
  EXPECT_EQ(Copy.take(), 42);
  Producer.join();
}

TEST(FutureTest, DefaultConstructedIsInvalid) {
  Future<int> TheFuture;
  EXPECT_FALSE(TheFuture.valid());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram H;
  for (uint64_t V = 0; V < 16; ++V)
    H.record(V);
  EXPECT_EQ(H.getCount(), 16u);
  EXPECT_EQ(H.getMin(), 0u);
  EXPECT_EQ(H.getMax(), 15u);
  EXPECT_DOUBLE_EQ(H.mean(), 7.5);
  EXPECT_EQ(H.quantile(0.0), 0u);
  EXPECT_EQ(H.quantile(0.5), 8u);
  EXPECT_EQ(H.quantile(1.0), 15u);
}

TEST(HistogramTest, QuantilesBoundedRelativeError) {
  Histogram H;
  // A latency-like distribution spanning several decades.
  for (uint64_t V = 1000; V <= 1000000; V += 997)
    H.record(V);
  uint64_t P50 = H.quantile(0.5);
  // The true median is ~500500; the log-bucketed estimate must land
  // within the documented 12.5% relative error.
  EXPECT_GT(P50, 500500ull * 7 / 8);
  EXPECT_LT(P50, 500500ull * 9 / 8);
  EXPECT_GE(H.quantile(0.99), P50);
  EXPECT_GE(H.getMax(), H.quantile(0.999));
  EXPECT_LE(H.getMin(), H.quantile(0.001));
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram A, B;
  A.record(10);
  A.record(20);
  B.record(30);
  A.merge(B);
  EXPECT_EQ(A.getCount(), 3u);
  EXPECT_EQ(A.getSum(), 60u);
  EXPECT_EQ(A.getMin(), 10u);
  EXPECT_EQ(A.getMax(), 30u);
  // Empty histograms merge as no-ops.
  Histogram Empty;
  A.merge(Empty);
  EXPECT_EQ(A.getCount(), 3u);
  EXPECT_EQ(Empty.quantile(0.5), 0u);
}

TEST(HistogramTest, MergeOfTwoEmptiesStaysEmpty) {
  Histogram A, B;
  A.merge(B);
  EXPECT_EQ(A.getCount(), 0u);
  EXPECT_EQ(A.getSum(), 0u);
  EXPECT_EQ(A.getMin(), 0u);
  EXPECT_EQ(A.getMax(), 0u);
  EXPECT_EQ(A.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(A.mean(), 0.0);
  // Still usable after the empty merge.
  A.record(7);
  EXPECT_EQ(A.getCount(), 1u);
  EXPECT_EQ(A.getMin(), 7u);
}

TEST(HistogramTest, MergeOfDisjointRangesKeepsExactExtremes) {
  // The serving layer merges per-shard latency histograms whose ranges
  // need not overlap (a fast shard and a slow shard). Min/max/count/sum
  // are tracked exactly and must survive the merge in both directions.
  Histogram Fast, Slow;
  for (uint64_t V = 100; V < 200; V += 10)
    Fast.record(V);
  for (uint64_t V = 1000000; V < 2000000; V += 100000)
    Slow.record(V);

  Histogram Merged = Fast;
  Merged.merge(Slow);
  EXPECT_EQ(Merged.getCount(), Fast.getCount() + Slow.getCount());
  EXPECT_EQ(Merged.getSum(), Fast.getSum() + Slow.getSum());
  EXPECT_EQ(Merged.getMin(), 100u);
  EXPECT_EQ(Merged.getMax(), 1900000u);

  // Merge order does not matter.
  Histogram Reversed = Slow;
  Reversed.merge(Fast);
  EXPECT_EQ(Reversed.getCount(), Merged.getCount());
  EXPECT_EQ(Reversed.getSum(), Merged.getSum());
  EXPECT_EQ(Reversed.getMin(), Merged.getMin());
  EXPECT_EQ(Reversed.getMax(), Merged.getMax());
  EXPECT_EQ(Reversed.getBuckets(), Merged.getBuckets());
}

TEST(HistogramTest, QuantilesAfterMergeMatchCombinedPopulation) {
  // Quantiles of a merged histogram must equal the quantiles of one
  // histogram fed the union of both populations — the property the
  // aggregated serving report relies on.
  Histogram A, B, Union;
  for (uint64_t V = 1000; V <= 100000; V += 331) {
    A.record(V);
    Union.record(V);
  }
  for (uint64_t V = 50000; V <= 5000000; V += 4177) {
    B.record(V);
    Union.record(V);
  }
  Histogram Merged = A;
  Merged.merge(B);
  ASSERT_EQ(Merged.getCount(), Union.getCount());
  for (double Q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99})
    EXPECT_EQ(Merged.quantile(Q), Union.quantile(Q)) << "Q=" << Q;
  EXPECT_EQ(Merged.getBuckets(), Union.getBuckets());
}

TEST(FileIOTest, AtomicReplaceWritesWholeFilesAndCleansUpOnFailure) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "spnc-fileio";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir / "subdir");
  std::string Path = (Dir / "file.bin").string();
  ASSERT_TRUE(succeeded(replaceFileAtomically(Path, "first version")));
  ASSERT_TRUE(succeeded(replaceFileAtomically(Path, "second")));
  Expected<std::string> Read = readWholeFile(Path);
  ASSERT_TRUE(static_cast<bool>(Read)) << Read.getError().message();
  EXPECT_EQ(*Read, "second");

  // Renaming over a directory fails: the error names the sibling and the
  // reason, and the sibling is removed.
  std::string Error;
  EXPECT_TRUE(failed(
      replaceFileAtomically((Dir / "subdir").string(), "x", &Error)));
  EXPECT_NE(Error.find("cannot rename '" + (Dir / "subdir").string() +
                       ".tmp."),
            std::string::npos)
      << Error;
  std::vector<std::string> Names;
  for (const std::filesystem::directory_entry &Entry :
       std::filesystem::directory_iterator(Dir))
    Names.push_back(Entry.path().filename().string());
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"file.bin", "subdir"}));

  Expected<std::string> Missing = readWholeFile((Dir / "missing").string());
  ASSERT_FALSE(static_cast<bool>(Missing));
  EXPECT_EQ(Missing.getError().message().rfind("cannot open '", 0), 0u);
  std::filesystem::remove_all(Dir);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + std::sqrt(static_cast<double>(I));
  EXPECT_GT(T.elapsedNs(), 0u);
  uint64_t First = T.elapsedNs();
  T.reset();
  EXPECT_LE(T.elapsedNs(), First + 1000000);
}

} // namespace
