//===- vm_test.cpp - Bytecode, vector math and executor tests -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"
#include "vm/Executor.h"
#include "vm/ProgramBinary.h"
#include "vm/VecMath.h"
#include "merge/Merge.h"
#include "runtime/Pipeline.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

using namespace spnc;
using namespace spnc::vm;

namespace {

//===----------------------------------------------------------------------===//
// Vector math accuracy (SVML/libmvec substitute)
//===----------------------------------------------------------------------===//

/// The f32 polynomial kernels of VecMath.h.
enum class Poly { ExpNeg, LogPos, Log1p01 };

/// Runs \p Kernel over \p In as the vector engine's W-row blocks do: W
/// lanes per block, in pieces of kPieceLanes. A last partial piece is
/// padded with 1.
template <unsigned W>
std::vector<float> polyAt(Poly Kernel, const std::vector<float> &In) {
  constexpr unsigned P = kPieceLanes<float, W>;
  using V = Vec<float, P>;
  using VI = Vec<int32_t, P>;
  std::vector<float> Out(In.size());
  for (size_t Begin = 0; Begin < In.size(); Begin += P) {
    size_t N = std::min<size_t>(P, In.size() - Begin);
    V X = 1.0f - V{};
    for (size_t L = 0; L < N; ++L)
      X[L] = In[Begin + L];
    V Y = Kernel == Poly::ExpNeg   ? polyExpNeg<V, VI>(X)
          : Kernel == Poly::LogPos ? polyLogPos<V, VI>(X)
                                   : polyLog1p01(X);
    for (size_t L = 0; L < N; ++L)
      Out[Begin + L] = Y[L];
  }
  return Out;
}

/// \p Kernel over \p In at each block width of the vector engine.
std::vector<std::pair<unsigned, std::vector<float>>>
polyAtEveryWidth(Poly Kernel, const std::vector<float> &In) {
  return {{4u, polyAt<4>(Kernel, In)},
          {8u, polyAt<8>(Kernel, In)},
          {16u, polyAt<16>(Kernel, In)}};
}

TEST(VecMathTest, ExpNegMatchesLibm) {
  Rng R(11);
  std::vector<float> In(10000);
  for (float &X : In)
    X = static_cast<float>(-R.uniform(0.0, 80.0));
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::ExpNeg, In))
    for (size_t I = 0; I < In.size(); ++I) {
      float Expected = std::exp(In[I]);
      EXPECT_NEAR(Out[I], Expected, std::fabs(Expected) * 1e-5f + 1e-38f)
          << "x = " << In[I] << ", " << Width << " lanes";
    }
}

TEST(VecMathTest, ExpNegEdgeCases) {
  for (const auto &[Width, Out] :
       polyAtEveryWidth(Poly::ExpNeg, {0.0f, -1.0f, -500.0f})) {
    EXPECT_FLOAT_EQ(Out[0], 1.0f) << Width << " lanes";
    EXPECT_NEAR(Out[1], 0.36787944f, 1e-6f) << Width << " lanes";
    // Deep underflow clamps near zero.
    EXPECT_LT(Out[2], 1e-30f) << Width << " lanes";
    EXPECT_GE(Out[2], 0.0f) << Width << " lanes";
  }
}

TEST(VecMathTest, Log1pMatchesLibmOnUnitInterval) {
  Rng R(13);
  std::vector<float> In(10000);
  for (float &X : In)
    X = static_cast<float>(R.uniform());
  In.push_back(0.0f);
  In.push_back(1.0f);
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::Log1p01, In)) {
    for (size_t I = 0; I + 2 < In.size(); ++I)
      EXPECT_NEAR(Out[I], std::log1p(In[I]), 1e-5f)
          << "x = " << In[I] << ", " << Width << " lanes";
    EXPECT_FLOAT_EQ(Out[In.size() - 2], 0.0f) << Width << " lanes";
    EXPECT_NEAR(Out[In.size() - 1], 0.6931472f, 2e-6f) << Width << " lanes";
  }
}

TEST(VecMathTest, LaneArrayEntryPoints) {
  // The polynomials against the libm lane arrays of the no-vector-library
  // configuration, and the f64 lane arrays against libm.
  std::vector<float> In(16), Pos(16);
  Rng R(5);
  for (size_t I = 0; I < In.size(); ++I) {
    In[I] = static_cast<float>(-R.uniform(0.0, 40.0));
    Pos[I] = static_cast<float>(R.uniform(1.0, 16.0));
  }
  std::vector<float> Exp(In.size()), Log(Pos.size());
  scalarExp(In.data(), Exp.data(), In.size());
  scalarLog(Pos.data(), Log.data(), Pos.size());
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::ExpNeg, In))
    for (size_t I = 0; I < In.size(); ++I)
      EXPECT_NEAR(Out[I], Exp[I], std::fabs(Exp[I]) * 1e-5f + 1e-38f)
          << "lane " << I << ", " << Width << " lanes";
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::LogPos, Pos))
    for (size_t I = 0; I < Pos.size(); ++I)
      EXPECT_NEAR(Out[I], Log[I], 1e-5f)
          << "lane " << I << ", " << Width << " lanes";

  // The f64 lanes keep libm's bits; exp clamps its argument to <= 0.
  double D[3] = {-2.5, 0.0, 0.5}, DOut[3];
  vecExpNeg(D, DOut, 3);
  EXPECT_EQ(DOut[0], std::exp(-2.5));
  EXPECT_EQ(DOut[1], 1.0);
  EXPECT_EQ(DOut[2], 1.0);
  double P[2] = {0.25, 3.0}, POut[2];
  vecLog1p01(P, POut, 1);
  EXPECT_EQ(POut[0], std::log1p(0.25));
  vecLogPos(P + 1, POut + 1, 1);
  EXPECT_EQ(POut[1], std::log(3.0));
}

//===----------------------------------------------------------------------===//
// Opcode semantics
//===----------------------------------------------------------------------===//

/// Every width the block engine runs.
constexpr unsigned kWidths[] = {1, 4, 8, 16};

/// runBlock<T, W> for a width of kWidths.
template <typename T>
void runBlockAt(unsigned W, const TaskProgram &Task,
                const BufferBinding<T> *Buffers, size_t Begin, unsigned Live,
                T *Registers) {
  const TaskParams *Lanes[16];
  std::fill_n(Lanes, W, &Task);
  switch (W) {
  case 1:
    return runBlock<T, 1>(Task, Lanes, Buffers, Begin, Live, true,
                          Registers);
  case 4:
    return runBlock<T, 4>(Task, Lanes, Buffers, Begin, Live, true,
                          Registers);
  case 8:
    return runBlock<T, 8>(Task, Lanes, Buffers, Begin, Live, true,
                          Registers);
  default:
    return runBlock<T, 16>(Task, Lanes, Buffers, Begin, Live, true,
                           Registers);
  }
}

/// Runs \p Task over the \p NumRows rows of \p Buffers at width \p W:
/// whole blocks, then a padded one.
template <typename T>
void runRowsAt(unsigned W, const TaskProgram &Task,
               const BufferBinding<T> *Buffers, size_t NumRows) {
  std::vector<T> Registers(static_cast<size_t>(Task.NumRegisters) * W);
  for (size_t Row = 0; Row < NumRows; Row += W)
    runBlockAt<T>(W, Task, Buffers, Row,
                  static_cast<unsigned>(std::min<size_t>(W, NumRows - Row)),
                  Registers.data());
}

class OpcodeTest : public ::testing::Test {
protected:
  /// Runs a task with no loads/stores as one block at each width of
  /// kWidths and returns its register values at each. Every lane of a
  /// block runs the same row, so the lanes must agree bit for bit.
  std::vector<std::vector<double>> run(const TaskProgram &Task) {
    std::vector<std::vector<double>> PerWidth;
    for (unsigned W : kWidths) {
      std::vector<double> Registers(Task.NumRegisters * W, 0.0);
      runBlockAt<double>(W, Task, nullptr, 0, W, Registers.data());
      std::vector<double> &Lane0 = PerWidth.emplace_back();
      for (uint32_t R = 0; R < Task.NumRegisters; ++R) {
        Lane0.push_back(Registers[R * W]);
        for (unsigned L = 1; L < W; ++L)
          EXPECT_EQ(0, std::memcmp(&Registers[R * W + L], &Lane0.back(),
                                   sizeof(double)))
              << "W=" << W << " register " << R << " lane " << L;
      }
    }
    return PerWidth;
  }

  static Instruction make(OpCode Op, uint32_t Dst, uint32_t A = 0,
                          uint32_t B = 0, uint32_t C = 0) {
    Instruction Inst;
    Inst.Op = Op;
    Inst.Dst = Dst;
    Inst.A = A;
    Inst.B = B;
    Inst.C = C;
    return Inst;
  }
};

TEST_F(OpcodeTest, ArithmeticOps) {
  TaskProgram Task;
  Task.NumRegisters = 6;
  Task.ConstPool = {2.0, 3.0, 4.0};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::Const, 2, 2),
               make(OpCode::Add, 3, 0, 1),            // 5
               make(OpCode::Mul, 4, 0, 2),            // 8
               make(OpCode::FusedMulAdd, 5, 1, 2, 0)}; // 14
  for (const std::vector<double> &R : run(Task)) {
    EXPECT_DOUBLE_EQ(R[3], 5.0);
    EXPECT_DOUBLE_EQ(R[4], 8.0);
    EXPECT_DOUBLE_EQ(R[5], 14.0);
  }
}

TEST_F(OpcodeTest, LogSumExpOp) {
  TaskProgram Task;
  Task.NumRegisters = 3;
  Task.ConstPool = {std::log(0.25), std::log(0.5)};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::LogSumExp, 2, 0, 1)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[2], std::log(0.75), 1e-12);

  // -inf handling.
  Task.ConstPool = {-std::numeric_limits<double>::infinity(),
                    std::log(0.5)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[2], std::log(0.5), 1e-12);
  Task.ConstPool = {-std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity()};
  for (const std::vector<double> &R : run(Task))
    EXPECT_TRUE(std::isinf(R[2]));
}

TEST_F(OpcodeTest, GaussianOps) {
  TaskProgram Task;
  Task.NumRegisters = 3;
  Task.ConstPool = {0.7};
  GaussianParams P;
  P.Mean = 0.2;
  P.InvStdDev = 1.0 / 1.5;
  P.Coefficient = 0.39894228040143267794 / 1.5; // linear coeff
  Task.Gaussians = {P};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::Gaussian, 1, 0, 0)};
  double T = (0.7 - 0.2) / 1.5;
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[1],
                0.39894228040143267794 / 1.5 * std::exp(-0.5 * T * T),
                1e-7);

  GaussianParams LogP;
  LogP.Mean = 0.2;
  LogP.InvStdDev = 1.0 / 1.5;
  LogP.Coefficient = -std::log(1.5) - 0.91893853320467274178;
  Task.Gaussians = {LogP};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::GaussianLog, 1, 0, 0)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[1],
                -0.5 * T * T - std::log(1.5) - 0.91893853320467274178,
                1e-12);
}

TEST_F(OpcodeTest, GaussianMarginalBlend) {
  TaskProgram Task;
  Task.NumRegisters = 2;
  Task.ConstPool = {std::numeric_limits<double>::quiet_NaN()};
  GaussianParams P;
  P.SupportMarginal = true;
  P.MarginalValue = 0.0; // log 1
  Task.Gaussians = {P};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::GaussianLog, 1, 0, 0)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_DOUBLE_EQ(R[1], 0.0);
}

TEST_F(OpcodeTest, TableLookup) {
  TaskProgram Task;
  Task.NumRegisters = 4;
  Task.ConstPool = {2.0, -5.0, 99.0};
  LookupTable Table;
  Table.Lo = 0.0;
  Table.Values = {0.1, 0.2, 0.3};
  Table.DefaultValue = -1.0;
  Task.Tables = {Table};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::TableLookup, 1, 0, 0),
               make(OpCode::Const, 2, 1),
               make(OpCode::TableLookup, 3, 2, 0)};
  for (const std::vector<double> &R : run(Task)) {
    EXPECT_DOUBLE_EQ(R[1], 0.3);  // index 2
    EXPECT_DOUBLE_EQ(R[3], -1.0); // out of range -> default
  }
}

TEST_F(OpcodeTest, SelectCascadeWithNanBlend) {
  TaskProgram Task;
  Task.NumRegisters = 2;
  Task.ConstPool = {1.5, 0.0 /*default*/, 7.0 /*marginal*/,
                    std::numeric_limits<double>::quiet_NaN()};
  Task.Selects = {SelectRange{0.0, 1.0, 10.0},
                  SelectRange{1.0, 2.0, 20.0}};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::Const, 1, 1),
               make(OpCode::SelectInRange, 1, 0, 0),
               make(OpCode::SelectInRange, 1, 0, 1),
               make(OpCode::NanBlend, 1, 0, 2)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_DOUBLE_EQ(R[1], 20.0); // 1.5 falls into bucket [1,2)

  // NaN evidence keeps the default through the cascade, then blends.
  Task.Code[0] = make(OpCode::Const, 0, 3);
  for (const std::vector<double> &R : run(Task))
    EXPECT_DOUBLE_EQ(R[1], 7.0);
}

TEST_F(OpcodeTest, NaryArithmetic) {
  TaskProgram Task;
  Task.NumRegisters = 6;
  Task.ConstPool = {2.0, 3.0, 4.0};
  Task.Args = {0, 1, 2};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::Const, 2, 2),
               make(OpCode::AddN, 3, /*ArgOffset=*/0, /*Count=*/3),
               make(OpCode::MulN, 4, 0, 3)};
  for (const std::vector<double> &R : run(Task)) {
    EXPECT_DOUBLE_EQ(R[3], 9.0);
    EXPECT_DOUBLE_EQ(R[4], 24.0);
  }
}

TEST_F(OpcodeTest, LogSumExpN) {
  // Operand N is register Args[N] plus the weight in const-pool slot
  // Args[3 + N]; slot 3 is the structural 0.0 of an unweighted operand.
  TaskProgram Task;
  Task.NumRegisters = 4;
  Task.ConstPool = {std::log(0.1), std::log(0.2), std::log(0.3), 0.0,
                    std::log(0.5), std::log(0.25)};
  Task.Args = {0, 1, 2, /*weights*/ 4, 3, 5};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::Const, 2, 2),
               make(OpCode::LogSumExpN, 3, /*ArgOffset=*/0, /*Count=*/3,
                    /*WeightOffset=*/3)};
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[3], std::log(0.1 * 0.5 + 0.2 + 0.3 * 0.25), 1e-12);

  // All -inf inputs stay -inf (no NaN).
  double NegInf = -std::numeric_limits<double>::infinity();
  Task.ConstPool[0] = Task.ConstPool[1] = Task.ConstPool[2] = NegInf;
  for (const std::vector<double> &R : run(Task))
    EXPECT_TRUE(std::isinf(R[3]) && R[3] < 0);

  // Mixed -inf inputs are ignored, and so is a -inf weight.
  Task.ConstPool[1] = std::log(0.2);
  Task.ConstPool[2] = std::log(0.3);
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[3], std::log(0.2 + 0.3 * 0.25), 1e-12);
  Task.ConstPool[5] = NegInf;
  for (const std::vector<double> &R : run(Task))
    EXPECT_NEAR(R[3], std::log(0.2), 1e-12);

  // On every engine, one program stores log(exp(x0 + w0) + exp(x1) +
  // exp(x2 + w2)) twice: with the weights as operands (x1 naming the
  // structural zero), and as Add(x, Const) terms fed to a LogSumExpN
  // whose operands all name the zero. On every row — finite, -inf and
  // signed-zero features — both agree bit for bit, at W 1/4/8/16, in f32
  // and f64.
  constexpr uint32_t kFeatures = 3;
  constexpr size_t kRows = 77;
  Task = TaskProgram();
  Task.ConstPool = {std::log(0.5), 0.0, std::log(0.25)};
  Task.Loads = {BufferAccess{0, 0}, BufferAccess{0, 1}, BufferAccess{0, 2}};
  Task.Stores = {BufferAccess{1, 0}, BufferAccess{1, 1}};
  Task.Args = {0, 1, 2, /*weights*/ 0, 1, 2,
               5, 1, 7, /*zeros*/ 1, 1, 1};
  Task.Code = {make(OpCode::Load, 0, 0),
               make(OpCode::Load, 1, 1),
               make(OpCode::Load, 2, 2),
               make(OpCode::LogSumExpN, 3, 0, 3, 3),
               make(OpCode::Const, 4, 0),
               make(OpCode::Add, 5, 0, 4),
               make(OpCode::Const, 6, 2),
               make(OpCode::Add, 7, 2, 6),
               make(OpCode::LogSumExpN, 8, 6, 3, 9),
               make(OpCode::Store, 3, 0),
               make(OpCode::Store, 8, 1)};
  Task.NumRegisters = 9;
  KernelProgram Program;
  Program.Buffers = {BufferInfo{BufferInfo::Kind::Input, kFeatures, false},
                     BufferInfo{BufferInfo::Kind::Output, 2, true}};
  Program.NumInputs = 1;
  Program.NumOutputs = 1;
  Program.Tasks = {Task};
  Program.Steps = {KernelStep{0, -1, -1}};

  Rng R(4242);
  std::vector<double> Input(kRows * kFeatures);
  for (size_t Row = 0; Row < kRows; ++Row)
    for (uint32_t F = 0; F < kFeatures; ++F) {
      double &X = Input[Row * kFeatures + F];
      X = R.uniform(-6.0, 0.0);
      if (Row % 5 == F + 1 || Row == 9)
        X = NegInf;
      if (Row == 11 || (Row == 12 && F == 1))
        X = -0.0;
      if (Row == 12 && F != 1)
        X = 0.0;
    }
  for (bool F32 : {false, true})
    for (unsigned W : {1u, 4u, 8u, 16u}) {
      Program.UseF32 = F32;
      ExecutionConfig Config;
      Config.VectorWidth = W;
      CpuExecutor Exec(Program, Config);
      std::vector<double> Out(2 * kRows);
      ASSERT_TRUE(Exec.run(
          {.Input = Input.data(), .Output = Out.data(), .NumSamples = kRows}));
      for (size_t Row = 0; Row < kRows; ++Row) {
        double Weighted = Out[Row], Terms = Out[kRows + Row];
        EXPECT_EQ(0, std::memcmp(&Weighted, &Terms, sizeof(double)))
            << (F32 ? "f32" : "f64") << " W=" << W << " row " << Row << ": "
            << Weighted << " weighted, " << Terms << " as Add terms";
      }
      double Want = std::log(0.5 * std::exp(Input[0]) + std::exp(Input[1]) +
                             0.25 * std::exp(Input[2]));
      EXPECT_NEAR(Out[0], Want, F32 ? 1e-5 : 1e-12);
      EXPECT_TRUE(std::isinf(Out[9]) && Out[9] < 0);
    }
}

TEST_F(OpcodeTest, LogSumExpGroup) {
  // Three sums over the same three children, once as one LogSumExpGroup
  // (destinations r3..r5, raw weights) and once as three LogSumExpN
  // (r6..r8, log-weights), stored side by side. The second sum's middle
  // operand is unweighted: the group names the structural 1.0 (slot 4),
  // the LogSumExpN the structural 0.0 (slot 13). The third sum's tiny
  // weights round to 0 in f32 (1e-60, 1e-300), and where its heavy
  // child lies beyond the cut (row 14: 650 nats, past the f64 cut too)
  // its linear sum falls below the floor in both types, so the exact
  // per-lane path must produce the row. Rows hold finite, -inf and NaN
  // children, all -inf, all NaN, and children beyond the f32 cut. On
  // every row both forms agree with each other and with the
  // log-sum-exp in double, at W 1/4/8/16 in f32 and f64.
  constexpr uint32_t kFeatures = 3;
  constexpr uint32_t kSums = 3;
  constexpr size_t kRows = 77;
  const double Weights[kSums][kFeatures] = {
      {0.5, 0.3, 0.2}, {0.25, 1.0, 0.125}, {1e-300, 1e-60, 0.5}};
  TaskProgram Task;
  for (const auto &Sum : Weights)
    for (double W : Sum)
      Task.ConstPool.push_back(W);
  for (const auto &Sum : Weights)
    for (double W : Sum)
      Task.ConstPool.push_back(std::log(W));
  Task.Loads = {BufferAccess{0, 0}, BufferAccess{0, 1}, BufferAccess{0, 2}};
  // The group: children r0..r2, destinations r3..r5, then each sum's raw
  // weights (Args[6 .. 15)).
  Task.Args = {0, 1, 2, 3, 4, 5};
  for (uint32_t Slot = 0; Slot < kSums * kFeatures; ++Slot)
    Task.Args.push_back(Slot);
  Task.Code = {make(OpCode::Load, 0, 0), make(OpCode::Load, 1, 1),
               make(OpCode::Load, 2, 2),
               make(OpCode::LogSumExpGroup, 0, /*ArgOffset=*/0,
                    /*Children=*/kFeatures, /*Sums=*/kSums)};
  for (uint32_t S = 0; S < kSums; ++S) {
    // LogSumExpN S: the children, then its log-weights.
    auto Offset = static_cast<uint32_t>(Task.Args.size());
    Task.Args.insert(Task.Args.end(), {0, 1, 2});
    for (uint32_t F = 0; F < kFeatures; ++F)
      Task.Args.push_back(kSums * kFeatures + S * kFeatures + F);
    Task.Code.push_back(make(OpCode::LogSumExpN, 6 + S, Offset, kFeatures,
                             Offset + kFeatures));
  }
  for (uint32_t R = 0; R < 2 * kSums; ++R) {
    Task.Stores.push_back(BufferAccess{1, R});
    Task.Code.push_back(make(OpCode::Store, 3 + R, R));
  }
  Task.NumRegisters = 3 + 2 * kSums;
  KernelProgram Program;
  Program.Buffers = {
      BufferInfo{BufferInfo::Kind::Input, kFeatures, false},
      BufferInfo{BufferInfo::Kind::Output, 2 * kSums, true}};
  Program.NumInputs = 1;
  Program.NumOutputs = 1;
  Program.Tasks = {Task};
  Program.Steps = {KernelStep{0, -1, -1}};
  ASSERT_TRUE(static_cast<bool>(decodeProgram(encodeProgram(Program))));

  const double NegInf = -std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  Rng R(2718);
  std::vector<double> Input(kRows * kFeatures);
  for (size_t Row = 0; Row < kRows; ++Row)
    for (uint32_t F = 0; F < kFeatures; ++F) {
      double &X = Input[Row * kFeatures + F];
      X = R.uniform(-30.0, 0.0);
      if (Row % 7 == 1 && Row / 7 % kFeatures == F)
        X = NegInf;
      if (Row % 7 == 2 && Row / 7 % kFeatures == F)
        X = NaN;
      if (Row == 5 || (Row == 8 && F != 0))
        X = NegInf;
      if (Row == 6 || (Row == 8 && F == 0))
        X = NaN;
      if (Row == 13)
        X = -70.0 * F; // beyond the f32 cut: 0, -70, -140
      if (Row == 14)
        X = F == 0 ? 0.0 : F == 1 ? NegInf : -650.0;
      if (Row == 15)
        X = F == 0 ? -3.0 : F == 1 ? NaN : NegInf;
    }
  for (bool F32 : {false, true})
    for (unsigned W : kWidths) {
      Program.UseF32 = F32;
      ExecutionConfig Config;
      Config.VectorWidth = W;
      CpuExecutor Exec(Program, Config);
      std::vector<double> Out(2 * kSums * kRows);
      ASSERT_TRUE(Exec.run(
          {.Input = Input.data(), .Output = Out.data(), .NumSamples = kRows}));
      for (size_t Row = 0; Row < kRows; ++Row)
        for (size_t S = 0; S < kSums; ++S) {
          double Group = Out[S * kRows + Row];
          double Single = Out[(kSums + S) * kRows + Row];
          // log sum_j exp(x_j + log w_j) in double, NaN children left
          // out.
          double Max = NegInf, Sum = 0.0;
          for (uint32_t F = 0; F < kFeatures; ++F)
            if (double X = Input[Row * kFeatures + F]; !std::isnan(X))
              Max = std::max(Max, X + std::log(Weights[S][F]));
          for (uint32_t F = 0; F < kFeatures; ++F)
            if (double X = Input[Row * kFeatures + F];
                !std::isnan(X) && Max != NegInf)
              Sum += std::exp(X + std::log(Weights[S][F]) - Max);
          double Want = Max == NegInf ? NegInf : Max + std::log(Sum);
          std::string Where = std::string(F32 ? "f32" : "f64") +
                              " W=" + std::to_string(W) + " row " +
                              std::to_string(Row) + " sum " +
                              std::to_string(S);
          if (Want == NegInf) {
            EXPECT_EQ(Group, NegInf) << Where;
            EXPECT_EQ(Single, NegInf) << Where;
            continue;
          }
          double Bound = (F32 ? 1e-6 : 1e-13) * (1.0 + std::abs(Want));
          EXPECT_NEAR(Group, Single, Bound) << Where;
          EXPECT_NEAR(Group, Want, Bound) << Where;
        }
    }
}

//===----------------------------------------------------------------------===//
// Buffer addressing
//===----------------------------------------------------------------------===//

TEST(BufferTest, RowMajorAndTransposedAddressing) {
  // One input buffer [sample][feature], one transposed output [slot][s].
  TaskProgram Task;
  Task.NumRegisters = 1;
  Task.Loads = {BufferAccess{0, 1}};  // feature 1
  Task.Stores = {BufferAccess{1, 0}}; // slot 0
  Instruction Load;
  Load.Op = OpCode::Load;
  Load.Dst = 0;
  Load.A = 0;
  Instruction Store;
  Store.Op = OpCode::Store;
  Store.Dst = 0;
  Store.A = 0;
  Task.Code = {Load, Store};

  double Input[6] = {10, 11, 20, 21, 30, 31}; // 3 samples x 2 features
  double Output[3] = {0, 0, 0};
  BufferBinding<double> Buffers[2];
  Buffers[0].ExternalIn = Input;
  Buffers[0].Columns = 2;
  Buffers[0].Transposed = false;
  Buffers[0].Stride = 3;
  Buffers[1].ExternalOut = Output;
  Buffers[1].Columns = 1;
  Buffers[1].Transposed = true;
  Buffers[1].Stride = 3;

  // Three one-row blocks at W=1, one padded block at W 4/8/16.
  for (unsigned W : kWidths) {
    std::fill_n(Output, 3, 0.0);
    runRowsAt<double>(W, Task, Buffers, 3);
    EXPECT_DOUBLE_EQ(Output[0], 11) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[1], 21) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[2], 31) << "W=" << W;
  }
}

TEST(BufferTest, MultiSlotTransposedOutput) {
  // A task publishing two interface values per sample into a transposed
  // [slot][sample] buffer (the partitioned-kernel layout).
  TaskProgram Task;
  Task.NumRegisters = 2;
  Task.Loads = {BufferAccess{0, 0}};
  Task.Stores = {BufferAccess{1, 0}, BufferAccess{1, 1}};
  Task.ConstPool = {100.0};
  Instruction Load;
  Load.Op = OpCode::Load;
  Load.Dst = 0;
  Instruction Const;
  Const.Op = OpCode::Const;
  Const.Dst = 1;
  Instruction Add;
  Add.Op = OpCode::Add;
  Add.Dst = 1;
  Add.A = 0;
  Add.B = 1;
  Instruction Store0;
  Store0.Op = OpCode::Store;
  Store0.Dst = 0;
  Store0.A = 0;
  Instruction Store1;
  Store1.Op = OpCode::Store;
  Store1.Dst = 1;
  Store1.A = 1;
  Task.Code = {Load, Const, Add, Store0, Store1};

  double Input[3] = {1, 2, 3}; // 3 samples x 1 feature
  double Output[6] = {};       // 2 slots x 3 samples
  BufferBinding<double> Buffers[2];
  Buffers[0].ExternalIn = Input;
  Buffers[0].Columns = 1;
  Buffers[0].Transposed = false;
  Buffers[0].Stride = 3;
  Buffers[1].ExternalOut = Output;
  Buffers[1].Columns = 2;
  Buffers[1].Transposed = true;
  Buffers[1].Stride = 3;
  for (unsigned W : kWidths) {
    std::fill_n(Output, 6, 0.0);
    runRowsAt<double>(W, Task, Buffers, 3);
    // Slot 0 = the raw value, slot 1 = value + 100, each contiguous.
    EXPECT_DOUBLE_EQ(Output[0], 1) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[1], 2) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[2], 3) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[3], 101) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[4], 102) << "W=" << W;
    EXPECT_DOUBLE_EQ(Output[5], 103) << "W=" << W;
  }
}

TEST(VecMathTest, EightLaneKernelEdgeValues) {
  // Eight edge values at the clamp boundaries in one call must agree
  // with libm at every block width.
  std::vector<float> In = {0.0f,   -1e-8f, -1.0f,  -10.0f,
                           -50.0f, -86.9f, -87.0f, -200.0f};
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::ExpNeg, In)) {
    for (int I = 0; I < 6; ++I)
      EXPECT_NEAR(Out[I], std::exp(In[I]), std::exp(In[I]) * 1e-5f + 1e-38f)
          << "lane " << I << ", " << Width << " lanes";
    EXPECT_LE(Out[6], 2e-38f) << Width << " lanes";
    EXPECT_LE(Out[7], 2e-38f) << Width << " lanes"; // clamped deep underflow
    EXPECT_GE(Out[7], 0.0f) << Width << " lanes";
  }

  std::vector<float> LogIn = {1.0f, 1.5f, 2.0f, 3.0f,
                              4.0f, 7.9f, 8.0f, 64.0f};
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::LogPos, LogIn))
    for (int I = 0; I < 8; ++I)
      EXPECT_NEAR(Out[I], std::log(LogIn[I]), 1e-5f)
          << "lane " << I << ", " << Width << " lanes";

  // A lane count that is not a multiple of 8 fills 4-lane blocks
  // exactly and leaves the 8- and 16-lane calls partial.
  std::vector<float> Tail(12);
  for (size_t I = 0; I < Tail.size(); ++I)
    Tail[I] = -0.3f * static_cast<float>(I);
  for (const auto &[Width, Out] : polyAtEveryWidth(Poly::ExpNeg, Tail))
    for (size_t I = 0; I < Tail.size(); ++I)
      EXPECT_NEAR(Out[I], std::exp(Tail[I]),
                  std::exp(Tail[I]) * 1e-5f + 1e-38f)
          << "lane " << I << ", " << Width << " lanes";
}

//===----------------------------------------------------------------------===//
// Program binary round trip
//===----------------------------------------------------------------------===//

KernelProgram makeSampleProgram() {
  KernelProgram Program;
  Program.Name = "sample";
  Program.UseF32 = true;
  Program.LogSpace = true;
  Program.BatchSize = 64;
  Program.NumInputs = 1;
  Program.NumOutputs = 1;
  BufferInfo In;
  In.Role = BufferInfo::Kind::Input;
  In.Columns = 26;
  In.Transposed = false;
  BufferInfo Out;
  Out.Role = BufferInfo::Kind::Output;
  Out.Columns = 1;
  Out.DeviceResident = true;
  Program.Buffers = {In, Out};
  TaskProgram Task;
  Task.NumRegisters = 3;
  Task.ConstPool = {1.0, 2.5};
  Task.Gaussians = {GaussianParams{0.5, 2.0, -1.0, true, 0.0}};
  Task.Tables = {LookupTable{0.0, {0.5, 0.5}, -1.0, false, 1.0}};
  Task.Selects = {SelectRange{0.0, 1.0, 0.25}};
  Task.Loads = {BufferAccess{0, 3}};
  Task.Stores = {BufferAccess{1, 0}};
  // Each register is written: the decoder rejects a register file larger
  // than the code's register writes.
  Task.Code = {Instruction{OpCode::Load, 1, 0, 0, 0},
               Instruction{OpCode::Const, 0, 1, 0, 0},
               Instruction{OpCode::GaussianLog, 2, 1, 0, 0}};
  Program.Tasks = {Task};
  Program.Steps = {KernelStep{0, -1, -1}};
  return Program;
}

TEST(ProgramBinaryTest, RoundTrips) {
  KernelProgram Program = makeSampleProgram();
  std::vector<uint8_t> Blob = encodeProgram(Program);
  Expected<KernelProgram> Restored = decodeProgram(Blob);
  ASSERT_TRUE(static_cast<bool>(Restored))
      << Restored.getError().message();
  EXPECT_EQ(Restored->Name, "sample");
  EXPECT_EQ(Restored->BatchSize, 64u);
  EXPECT_TRUE(Restored->UseF32);
  EXPECT_TRUE(Restored->LogSpace);
  ASSERT_EQ(Restored->Buffers.size(), 2u);
  EXPECT_EQ(Restored->Buffers[0].Columns, 26u);
  EXPECT_TRUE(Restored->Buffers[1].DeviceResident);
  ASSERT_EQ(Restored->Tasks.size(), 1u);
  const TaskProgram &Task = Restored->Tasks[0];
  EXPECT_EQ(Task.NumRegisters, 3u);
  EXPECT_EQ(Task.ConstPool, (std::vector<double>{1.0, 2.5}));
  ASSERT_EQ(Task.Code.size(), 3u);
  EXPECT_EQ(Task.Code[2].Op, OpCode::GaussianLog);
  EXPECT_DOUBLE_EQ(Task.Gaussians[0].InvStdDev, 2.0);
  EXPECT_TRUE(Task.Gaussians[0].SupportMarginal);
  EXPECT_EQ(Task.Tables[0].Values.size(), 2u);
  EXPECT_DOUBLE_EQ(Task.Selects[0].Value, 0.25);
  ASSERT_EQ(Restored->Steps.size(), 1u);
  EXPECT_EQ(Restored->Steps[0].Task, 0);
}

TEST(ProgramBinaryTest, RejectsCorruptBlobs) {
  KernelProgram Program = makeSampleProgram();
  std::vector<uint8_t> Blob = encodeProgram(Program);
  // Bad magic.
  std::vector<uint8_t> Bad = Blob;
  Bad[0] ^= 0xff;
  EXPECT_FALSE(static_cast<bool>(decodeProgram(Bad)));
  // Truncations at various points.
  for (size_t Cut :
       {size_t(3), Blob.size() / 4, Blob.size() / 2, Blob.size() - 1}) {
    std::vector<uint8_t> Truncated(Blob.begin(), Blob.begin() + Cut);
    EXPECT_FALSE(static_cast<bool>(decodeProgram(Truncated)))
        << "cut " << Cut;
  }
  // Trailing garbage.
  Bad = Blob;
  Bad.push_back(42);
  EXPECT_FALSE(static_cast<bool>(decodeProgram(Bad)));
}

TEST(ProgramBinaryTest, ReadProgramFileReportsReadAndDecodeErrors) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("spnc-read-program-" + std::to_string(::getpid()));
  fs::create_directories(Dir / "dir.spnk");
  std::vector<uint8_t> Blob = encodeProgram(makeSampleProgram());
  auto Write = [&](const fs::path &Path, size_t Size) {
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    std::fwrite(Blob.data(), 1, Size, File);
    std::fclose(File);
  };
  Write(Dir / "whole.spnk", Blob.size());
  Write(Dir / "truncated.spnk", Blob.size() / 2);

  Expected<KernelProgram> Whole = readProgramFile(Dir / "whole.spnk");
  ASSERT_TRUE(static_cast<bool>(Whole)) << Whole.getError().message();
  EXPECT_EQ(Whole->Name, "sample");

  // A directory opens but does not read: the errno text, not a decode
  // error about the empty blob.
  std::string DirPath = Dir / "dir.spnk";
  Expected<KernelProgram> FromDir = readProgramFile(DirPath);
  ASSERT_FALSE(static_cast<bool>(FromDir));
  EXPECT_EQ(FromDir.getError().message(),
            "cannot read '" + DirPath + "': " + std::strerror(EISDIR));

  std::string TruncatedPath = Dir / "truncated.spnk";
  Expected<KernelProgram> Truncated = readProgramFile(TruncatedPath);
  ASSERT_FALSE(static_cast<bool>(Truncated));
  Expected<KernelProgram> Decoded = decodeProgram(
      std::span<const uint8_t>(Blob.data(), Blob.size() / 2));
  ASSERT_FALSE(static_cast<bool>(Decoded));
  EXPECT_EQ(Truncated.getError().message(),
            "cannot load '" + TruncatedPath +
                "': " + Decoded.getError().message());

  std::string MissingPath = Dir / "missing.spnk";
  Expected<KernelProgram> Missing = readProgramFile(MissingPath);
  ASSERT_FALSE(static_cast<bool>(Missing));
  EXPECT_EQ(Missing.getError().message(),
            "cannot open '" + MissingPath + "': " + std::strerror(ENOENT));
  fs::remove_all(Dir);
}

TEST(ProgramBinaryTest, ReportsCurrentVersionAndChecksum) {
  // Header: magic, version word, then the XXH64 checksum of the payload
  // that starts at byte 16 (docs/spnk-format.md).
  std::vector<uint8_t> Blob = encodeProgram(makeSampleProgram());
  ASSERT_GT(Blob.size(), 16u);
  uint32_t Version = 0;
  std::memcpy(&Version, Blob.data() + 4, sizeof(Version));
  EXPECT_EQ(Version, kProgramBinaryVersion);
  uint64_t Checksum = 0;
  std::memcpy(&Checksum, Blob.data() + 8, sizeof(Checksum));
  EXPECT_EQ(Checksum, xxh64(Blob.data() + 16, Blob.size() - 16));
  EXPECT_TRUE(static_cast<bool>(decodeProgram(Blob)));
}

TEST(ProgramBinaryTest, ChecksumCatchesPayloadBitFlip) {
  KernelProgram Program = makeSampleProgram();
  std::vector<uint8_t> Blob = encodeProgram(Program);
  // Flip one bit in the last byte — part of a numeric payload field, so
  // the blob stays structurally valid and only the checksum can catch
  // the damage.
  std::vector<uint8_t> Flipped = Blob;
  Flipped[Flipped.size() - 1] ^= 0x01;
  Expected<KernelProgram> Result = decodeProgram(Flipped);
  ASSERT_FALSE(static_cast<bool>(Result));
  EXPECT_NE(Result.getError().message().find("checksum"),
            std::string::npos);
}

/// Rewrites a current (v6) blob of a single-task program without
/// parameter sites as a v2 blob: drop the v4 query/plan section (13
/// bytes for a Joint program with an empty plan), the parameter count
/// (4 bytes), the trailing per-task parameter-site count (4 bytes) and
/// the 8-byte checksum field, then patch the version word. The remaining
/// payload layout is identical.
static std::vector<uint8_t> downgradeToV2(std::span<const uint8_t> V6) {
  std::vector<uint8_t> V2(V6.begin(), V6.end());
  uint32_t NameLen = 0;
  std::memcpy(&NameLen, V2.data() + 16, sizeof(NameLen));
  size_t QueryOffset = 16 + 4 + NameLen + 3;
  V2.erase(V2.begin() + QueryOffset, V2.begin() + QueryOffset + 17);
  V2.erase(V2.end() - 4, V2.end());
  V2.erase(V2.begin() + 8, V2.begin() + 16);
  const uint32_t Version = 2;
  std::memcpy(V2.data() + 4, &Version, sizeof(Version));
  return V2;
}

TEST(ProgramBinaryTest, PreV5BlobsAreRejected) {
  // A real v2 layout is rejected on its version, before any parsing.
  KernelProgram Program = makeSampleProgram();
  std::vector<uint8_t> Blob = encodeProgram(Program);
  Expected<KernelProgram> V2 = decodeProgram(downgradeToV2(Blob));
  ASSERT_FALSE(static_cast<bool>(V2));
  EXPECT_NE(V2.getError().message().find("version 2"), std::string::npos)
      << V2.getError().message();
  // So is every older version word over the current payload.
  for (uint32_t Version = 1; Version < kProgramBinaryVersion; ++Version) {
    std::vector<uint8_t> Old = Blob;
    std::memcpy(Old.data() + 4, &Version, sizeof(Version));
    Expected<KernelProgram> Result = decodeProgram(Old);
    ASSERT_FALSE(static_cast<bool>(Result)) << "v" << Version;
    EXPECT_NE(Result.getError().message().find(
                  "version " + std::to_string(Version)),
              std::string::npos)
        << Result.getError().message();
  }
}

//===----------------------------------------------------------------------===//
// Vector vs scalar engine equivalence (property sweep)
//===----------------------------------------------------------------------===//

/// Builds a random log-space arithmetic task over a few input features.
KernelProgram makeRandomProgram(uint64_t Seed, uint32_t NumFeatures) {
  Rng R(Seed);
  KernelProgram Program;
  Program.Name = "random";
  Program.UseF32 = true;
  Program.LogSpace = true;
  Program.BatchSize = 32;
  Program.NumInputs = 1;
  Program.NumOutputs = 1;
  BufferInfo In;
  In.Role = BufferInfo::Kind::Input;
  In.Columns = NumFeatures;
  In.Transposed = false;
  BufferInfo Out;
  Out.Role = BufferInfo::Kind::Output;
  Out.Columns = 1;
  Out.Transposed = true;
  Program.Buffers = {In, Out};

  TaskProgram Task;
  uint32_t Next = 0;
  std::vector<uint32_t> Values;
  auto Push = [&](Instruction Inst) { Task.Code.push_back(Inst); };
  for (uint32_t F = 0; F < NumFeatures; ++F) {
    Task.Loads.push_back(BufferAccess{0, F});
    Instruction Load;
    Load.Op = OpCode::Load;
    Load.Dst = Next++;
    Load.A = F;
    Push(Load);
    GaussianParams P;
    P.Mean = R.uniform(-1, 1);
    P.InvStdDev = 1.0 / R.uniform(0.5, 2.0);
    P.Coefficient = -R.uniform(0.0, 1.0);
    Task.Gaussians.push_back(P);
    Instruction G;
    G.Op = OpCode::GaussianLog;
    G.Dst = Next;
    G.A = Next - 1;
    G.B = static_cast<uint32_t>(Task.Gaussians.size() - 1);
    ++Next;
    Push(G);
    Values.push_back(Next - 1);
  }
  while (Values.size() > 1) {
    uint32_t A = Values.back();
    Values.pop_back();
    uint32_t B = Values.back();
    Values.pop_back();
    Instruction Combine;
    Combine.Op = R.uniform() < 0.5 ? OpCode::Add : OpCode::LogSumExp;
    Combine.Dst = Next++;
    Combine.A = A;
    Combine.B = B;
    Push(Combine);
    Values.push_back(Next - 1);
  }
  Task.Stores.push_back(BufferAccess{1, 0});
  Instruction Store;
  Store.Op = OpCode::Store;
  Store.Dst = Values[0];
  Store.A = 0;
  Push(Store);
  Task.NumRegisters = Next;
  Program.Tasks = {Task};
  Program.Steps = {KernelStep{0, -1, -1}};
  return Program;
}

/// One program the vector engine runs against the scalar engine, with
/// the rows it runs on and the tolerance its compute type allows.
struct EquivalenceLeg {
  std::string Name;
  KernelProgram Program;
  std::vector<double> Input;
  double Rel;
  double Abs;
};

/// Compiles \p Model's marginal query at -O2 for \p Target (the GPU
/// target lowers leaves to select cascades).
Expected<KernelProgram> compileMarginal(const spn::Model &Model,
                                        bool LogSpace, bool F32,
                                        runtime::Target Target) {
  runtime::CompilerOptions Options;
  Options.OptLevel = 2;
  Options.TheTarget = Target;
  Expected<runtime::CompilationPipeline> Pipeline =
      runtime::CompilationPipeline::create(Options);
  if (!Pipeline)
    return Pipeline.getError();
  spn::QueryConfig Query;
  Query.LogSpace = LogSpace;
  Query.SupportMarginal = true;
  Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
  return Pipeline->compile(Model, Query);
}

/// Rows of every leg: not a multiple of any vector width.
constexpr size_t kEquivalenceRows = 77;

/// The programs of the sweep: the random arithmetic program on NaN-free
/// rows, then speaker kernels in log and linear space, f32 and f64, and
/// the select-cascade lowering, on rows in which marginalized (NaN)
/// features and out-of-range evidence (-inf or 0 leaves) share blocks
/// with finite lanes, and a RAT-SPN class in log space, f32 and f64.
/// -O2 brings in the n-ary sums and products, the weighted log-sum-exps,
/// the fused multiply-adds and the marginal blends.
const std::vector<EquivalenceLeg> &equivalenceLegs() {
  static const std::vector<EquivalenceLeg> Legs = [] {
    const size_t NumSamples = kEquivalenceRows;
    std::vector<EquivalenceLeg> Legs;
    const uint32_t NumFeatures = 5;
    Rng R(1234);
    std::vector<double> Clean(NumSamples * NumFeatures);
    for (double &X : Clean)
      X = R.uniform(-2.0, 2.0);
    Legs.push_back(
        {"random", makeRandomProgram(99, NumFeatures), Clean, 1e-4, 1e-4});

    workloads::SpeakerModelOptions Speaker;
    Speaker.Seed = 3;
    Speaker.NumFeatures = 6; // keeps linear-space f32 far from underflow
    Speaker.TargetOperations = 300;
    spn::Model Model = workloads::generateSpeakerModel(Speaker);
    std::vector<double> Noisy = workloads::generateNoisySpeechData(
        Speaker, NumSamples, 77, /*DropProbability=*/0.3);
    // Evidence of 1000, in no histogram bucket and far in every
    // Gaussian's tail, in one feature of every fourth row and in all of
    // them in row 9; row 10 is marginalized entirely.
    for (size_t Row = 0; Row < NumSamples; ++Row) {
      double *Features = &Noisy[Row * Speaker.NumFeatures];
      if (Row % 4 == 1)
        Features[Row % Speaker.NumFeatures] = 1000.0;
      for (unsigned F = 0; F < Speaker.NumFeatures; ++F) {
        if (Row == 9)
          Features[F] = 1000.0;
        if (Row == 10)
          Features[F] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    for (bool LogSpace : {true, false})
      for (bool F32 : {true, false}) {
        Expected<KernelProgram> Program =
            compileMarginal(Model, LogSpace, F32, runtime::Target::CPU);
        if (!Program) {
          ADD_FAILURE() << Program.getError().message();
          continue;
        }
        double Rel = F32 ? 1e-4 : 1e-9;
        Legs.push_back({std::string("speaker ") +
                            (LogSpace ? "log " : "linear ") +
                            (F32 ? "f32" : "f64"),
                        Program.takeValue(), Noisy, Rel,
                        LogSpace ? Rel : 1e-30});
      }
    Expected<KernelProgram> Cascade =
        compileMarginal(Model, true, true, runtime::Target::GPU);
    if (Cascade)
      Legs.push_back(
          {"select-cascade log f32", Cascade.takeValue(), Noisy, 1e-4, 1e-4});
    else
      ADD_FAILURE() << Cascade.getError().message();

    // A RAT-SPN class, whose sum weights become operands of the n-ary
    // log-sum-exp, on image rows with marginalized pixels.
    workloads::RatSpnOptions Rat;
    Rat.NumFeatures = 16;
    Rat.Depth = 2;
    Rat.Replicas = 2;
    Rat.SumsPerRegion = 3;
    Rat.LeafDistributions = 4;
    Rat.Seed = 17;
    spn::Model RatModel = workloads::generateRatSpn(Rat, 0);
    std::vector<double> Images = workloads::generateImageData(
        Rat.NumFeatures, /*NumClasses=*/2, NumSamples, 5, nullptr);
    for (size_t I = 0; I < Images.size(); I += 7)
      Images[I] = std::numeric_limits<double>::quiet_NaN();
    for (bool F32 : {true, false}) {
      Expected<KernelProgram> Program =
          compileMarginal(RatModel, true, F32, runtime::Target::CPU);
      if (!Program) {
        ADD_FAILURE() << Program.getError().message();
        continue;
      }
      double Tolerance = F32 ? 1e-4 : 1e-9;
      Legs.push_back({std::string("ratspn log ") + (F32 ? "f32" : "f64"),
                      Program.takeValue(), Images, Tolerance, Tolerance});
    }
    return Legs;
  }();
  return Legs;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, bool>> {
};

TEST_P(EngineEquivalenceTest, VectorMatchesScalar) {
  auto [Width, UseVecLib, UseShuffle] = GetParam();
  const size_t NumSamples = kEquivalenceRows;
  for (const EquivalenceLeg &Leg : equivalenceLegs()) {
    CpuExecutor ScalarExec(Leg.Program, ExecutionConfig());
    std::vector<double> Expected(NumSamples);
    ASSERT_TRUE(ScalarExec.run({.Input = Leg.Input.data(),
                                .Output = Expected.data(),
                                .NumSamples = NumSamples}));

    ExecutionConfig Vector;
    Vector.VectorWidth = Width;
    Vector.UseVecLib = UseVecLib;
    Vector.UseShuffle = UseShuffle;
    CpuExecutor VectorExec(Leg.Program, Vector);
    std::vector<double> Actual(NumSamples);
    ASSERT_TRUE(VectorExec.run({.Input = Leg.Input.data(),
                                .Output = Actual.data(),
                                .NumSamples = NumSamples}));

    for (size_t S = 0; S < NumSamples; ++S) {
      if (Actual[S] == Expected[S])
        continue; // equal infinities compare equal
      EXPECT_NEAR(Actual[S], Expected[S],
                  std::fabs(Expected[S]) * Leg.Rel + Leg.Abs)
          << Leg.Name << ", sample " << S;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(4u, 8u, 16u),
                       ::testing::Bool(), ::testing::Bool()));

//===----------------------------------------------------------------------===//
// A row's bits do not depend on its batch
//===----------------------------------------------------------------------===//

/// Rows of the batch every reference runs: a multiple of every width.
constexpr size_t kPoolRows = 64;

/// Bit-for-bit comparison of one output row against its reference.
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Rows [Begin, Begin + Count) of the row-major \p Rows, copied so that
/// a read past the window's end is a read past its allocation (ASan).
std::vector<double> window(const std::vector<double> &Rows,
                           uint32_t NumFeatures, size_t Begin,
                           size_t Count) {
  return std::vector<double>(
      Rows.begin() + static_cast<ptrdiff_t>(Begin * NumFeatures),
      Rows.begin() + static_cast<ptrdiff_t>((Begin + Count) * NumFeatures));
}

/// Scores the rows of every window of \p Count rows that the pool's
/// ends hold, [0, Count) and [kPoolRows - Count, kPoolRows), on
/// \p Engine, under the tables \p Tables names per pool row (none when
/// empty, and RunRequest::Table when all rows name one), and expects
/// each row's output to equal \p Want for that pool row, bit for bit.
void expectWindowsMatch(const runtime::ExecutionEngine &Engine,
                        const std::vector<double> &Rows,
                        uint32_t NumFeatures, QueryKind Kind,
                        const std::vector<uint32_t> &Tables,
                        const std::vector<double> &Want, size_t Count,
                        const std::string &Leg) {
  for (size_t Begin : {size_t(0), kPoolRows - Count}) {
    std::vector<double> In = window(Rows, NumFeatures, Begin, Count);
    std::vector<double> Out(Count);
    runtime::RunRequest Request{.Kind = Kind,
                                .Input = In.data(),
                                .Output = Out.data(),
                                .NumSamples = Count};
    std::vector<uint32_t> Indices;
    if (!Tables.empty()) {
      Indices.assign(Tables.begin() + static_cast<ptrdiff_t>(Begin),
                     Tables.begin() + static_cast<ptrdiff_t>(Begin + Count));
      if (std::all_of(Tables.begin(), Tables.end(),
                      [&](uint32_t T) { return T == Tables[0]; }))
        Request.Table = static_cast<int32_t>(Tables[0]);
      else
        Request.TableIndices = Indices.data();
    }
    ASSERT_TRUE(Engine.run(Request)) << Leg;
    for (size_t I = 0; I < Count; ++I)
      EXPECT_TRUE(sameBits(Out[I], Want[Begin + I]))
          << Leg << ": pool row " << Begin + I << " of a " << Count
          << "-row batch reads " << Out[I] << ", " << Want[Begin + I]
          << " in the " << kPoolRows << "-row batch";
  }
}

/// A likelihood program of the sweep, the pool rows it scores, and the
/// raw parameters of two weight tables of its structure: its own model's
/// and another's.
struct RowBitsLeg {
  std::string Name;
  KernelProgram Program;
  std::vector<double> Rows;
  uint32_t NumFeatures;
  std::vector<double> OwnParams;
  std::vector<double> OtherParams;
};

/// Compiles \p Model's joint or marginal query at -O2 for the CPU.
KernelProgram compileLikelihood(const spn::Model &Model, bool Marginal,
                                bool F32) {
  runtime::CompilerOptions Options;
  Options.OptLevel = 2;
  Expected<runtime::CompilationPipeline> Pipeline =
      runtime::CompilationPipeline::create(Options);
  EXPECT_TRUE(static_cast<bool>(Pipeline));
  spn::QueryConfig Query;
  Query.Kind = Marginal ? spn::QueryKind::Marginal : spn::QueryKind::Joint;
  Query.SupportMarginal = Marginal;
  Query.DataType = F32 ? spn::ComputeType::F32 : spn::ComputeType::F64;
  Expected<KernelProgram> Program = Pipeline->compile(Model, Query);
  EXPECT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  return Program ? Program.takeValue() : KernelProgram();
}

/// A speaker kernel and a RAT-SPN tenant, joint and marginal, f32 and
/// f64. Marginal rows carry NaN features. A speaker's second table
/// scales every raw parameter; a tenant's is another class of its
/// structure.
std::vector<RowBitsLeg> rowBitsLegs() {
  std::vector<RowBitsLeg> Legs;
  workloads::SpeakerModelOptions Speaker;
  Speaker.Seed = 5;
  Speaker.TargetOperations = 300;
  spn::Model SpeakerModel = workloads::generateSpeakerModel(Speaker);
  std::vector<double> SpeakerParams = *merge::extractParams(SpeakerModel);
  std::vector<double> ScaledParams = SpeakerParams;
  for (double &P : ScaledParams)
    P *= 1.25;

  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 16;
  Rat.Depth = 2;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 3;
  Rat.LeafDistributions = 4;
  Rat.Seed = 17;
  spn::Model Tenant = workloads::generateRatSpn(Rat, 0);
  std::vector<double> TenantParams = *merge::extractParams(Tenant);
  std::vector<double> OtherTenant =
      *merge::extractParams(workloads::generateRatSpn(Rat, 1));

  for (bool Marginal : {false, true})
    for (bool F32 : {true, false}) {
      std::string Suffix = std::string(Marginal ? " marginal" : " joint") +
                           (F32 ? " f32" : " f64");
      std::vector<double> Speech =
          Marginal ? workloads::generateNoisySpeechData(
                         Speaker, kPoolRows, 41, /*DropProbability=*/0.3)
                   : workloads::generateSpeechData(Speaker, kPoolRows, 41);
      Legs.push_back({"speaker" + Suffix,
                      compileLikelihood(SpeakerModel, Marginal, F32), Speech,
                      Speaker.NumFeatures, SpeakerParams, ScaledParams});
      std::vector<double> Images = workloads::generateImageData(
          Rat.NumFeatures, /*NumClasses=*/2, kPoolRows, 43, nullptr);
      if (Marginal)
        for (size_t I = 0; I < Images.size(); I += 5)
          Images[I] = std::numeric_limits<double>::quiet_NaN();
      Legs.push_back({"ratspn" + Suffix,
                      compileLikelihood(Tenant, Marginal, F32), Images,
                      Rat.NumFeatures, TenantParams, OtherTenant});
    }
  return Legs;
}

/// Every row's output bits are those it gets in a kPoolRows-row batch,
/// whatever its batch: at W 4/8/16, for batches of 1..3W+1 rows, chunk
/// sizes 0, W-1 and W+3 on one and two threads, and under plain, Table
/// and mixed TableIndices requests. So a row keeps its bits when it
/// moves between whole blocks and a padded last block, or between
/// chunks, and whatever tables its neighbours read.
TEST(RowBitsTest, IndependentOfBatch) {
  for (const RowBitsLeg &Leg : rowBitsLegs()) {
    QueryKind Kind = Leg.Program.Query;
    for (unsigned W : {4u, 8u, 16u}) {
      // Table 0 is the leg's own model's, table 1 the other's.
      auto AddTables = [&](CpuExecutor &Exec) {
        ASSERT_EQ(Exec.addParamTable(Leg.OwnParams.data(),
                                     Leg.OwnParams.size()),
                  0);
        ASSERT_EQ(Exec.addParamTable(Leg.OtherParams.data(),
                                     Leg.OtherParams.size()),
                  1);
      };
      std::vector<uint32_t> Mixed(kPoolRows);
      for (size_t I = 0; I < kPoolRows; ++I)
        Mixed[I] = (I * 7 / 3) % 2;
      const std::vector<uint32_t> Choices[] = {
          {}, std::vector<uint32_t>(kPoolRows, 1), Mixed};

      // The references: each table choice over one kPoolRows-row batch.
      ExecutionConfig Config;
      Config.VectorWidth = W;
      CpuExecutor Reference(Leg.Program, Config);
      AddTables(Reference);
      std::vector<std::vector<double>> Want;
      for (const std::vector<uint32_t> &Tables : Choices) {
        Want.emplace_back(kPoolRows);
        runtime::RunRequest Request{.Kind = Kind,
                                    .Input = Leg.Rows.data(),
                                    .Output = Want.back().data(),
                                    .NumSamples = kPoolRows,
                                    .TableIndices = Tables.empty()
                                                        ? nullptr
                                                        : Tables.data()};
        ASSERT_TRUE(Reference.run(Request)) << Leg.Name;
      }

      for (uint32_t ChunkSize : {0u, W - 1, W + 3})
        for (unsigned Threads : {1u, 2u}) {
          ExecutionConfig Chunked = Config;
          Chunked.ChunkSize = ChunkSize;
          Chunked.NumThreads = Threads;
          CpuExecutor Exec(Leg.Program, Chunked);
          AddTables(Exec);
          for (size_t C = 0; C < std::size(Choices); ++C)
            for (size_t Count = 1; Count <= 3 * W + 1; ++Count)
              expectWindowsMatch(
                  Exec, Leg.Rows, Leg.NumFeatures, Kind, Choices[C],
                  Want[C], Count,
                  Leg.Name + " W=" + std::to_string(W) + " chunk " +
                      std::to_string(ChunkSize) + " threads " +
                      std::to_string(Threads) + " tables " +
                      std::to_string(C));
        }
    }
  }
}

/// A two-task program over \p NumFeatures features of an external input
/// laid out row-major or, with \p TransposedInput, [feature][row]. Task 0
/// stores each feature's Gaussian log-density into a transposed
/// intermediate; task 1 loads them back and stores their log-sum-exp and
/// their sum into the two slots of the output.
KernelProgram makePaddingProgram(uint32_t NumFeatures, bool TransposedInput,
                                 bool F32) {
  auto Make = [](OpCode Op, uint32_t Dst, uint32_t A = 0, uint32_t B = 0,
                 uint32_t C = 0) {
    Instruction Inst;
    Inst.Op = Op;
    Inst.Dst = Dst;
    Inst.A = A;
    Inst.B = B;
    Inst.C = C;
    return Inst;
  };
  TaskProgram Leaves;
  TaskProgram Root;
  Root.ConstPool = {0.0};
  for (uint32_t F = 0; F < NumFeatures; ++F) {
    GaussianParams P;
    P.Mean = 0.25 * F;
    P.InvStdDev = 1.0 / (1.0 + 0.5 * F);
    P.Coefficient = -0.9189385332 - std::log(1.0 + 0.5 * F);
    Leaves.Gaussians.push_back(P);
    Leaves.Loads.push_back(BufferAccess{0, F});
    Leaves.Stores.push_back(BufferAccess{1, F});
    Leaves.Code.push_back(Make(OpCode::Load, F, F));
    Leaves.Code.push_back(Make(OpCode::GaussianLog, NumFeatures + F, F, F));
    Leaves.Code.push_back(Make(OpCode::Store, NumFeatures + F, F));
    Root.Loads.push_back(BufferAccess{1, F});
    Root.Code.push_back(Make(OpCode::Load, F, F));
    Root.Args.push_back(F);
  }
  Root.Args.insert(Root.Args.end(), NumFeatures, 0); // the zero weights
  Root.Code.push_back(
      Make(OpCode::LogSumExpN, NumFeatures, 0, NumFeatures, NumFeatures));
  Root.Code.push_back(Make(OpCode::AddN, NumFeatures + 1, 0, NumFeatures));
  Root.Stores = {BufferAccess{2, 0}, BufferAccess{2, 1}};
  Root.Code.push_back(Make(OpCode::Store, NumFeatures, 0));
  Root.Code.push_back(Make(OpCode::Store, NumFeatures + 1, 1));
  Leaves.NumRegisters = 2 * NumFeatures;
  Root.NumRegisters = NumFeatures + 2;

  KernelProgram Program;
  Program.Name = "padding";
  Program.UseF32 = F32;
  Program.LogSpace = true;
  Program.NumInputs = 1;
  Program.NumOutputs = 1;
  Program.Buffers = {
      BufferInfo{BufferInfo::Kind::Input, NumFeatures, TransposedInput},
      BufferInfo{BufferInfo::Kind::Intermediate, NumFeatures, true},
      BufferInfo{BufferInfo::Kind::Output, 2, true}};
  Program.Tasks = {Leaves, Root};
  Program.Steps = {KernelStep{0, -1, -1}, KernelStep{1, -1, -1}};
  return Program;
}

/// The loads and stores of padding lanes, on hand-built programs whose
/// external input is transposed, or row-major and gathered (UseShuffle
/// false) or staged (UseShuffle true): every batch of 1..3W+1 rows, in
/// arrays of its own size, gets the bits its rows get in a kPoolRows-row
/// batch, at W 1/4/8/16 in f32 and f64. A padding lane that read or
/// wrote past a batch's rows would fail here under ASan.
TEST(RowBitsTest, PaddingLanesOfHandBuiltPrograms) {
  constexpr uint32_t kFeatures = 3;
  Rng R(77);
  std::vector<double> Pool(kPoolRows * kFeatures);
  for (double &X : Pool)
    X = R.uniform(-3.0, 3.0);
  // The rows [Begin, Begin + Count) of the pool as the program reads
  // them.
  auto Layout = [&](bool Transposed, size_t Begin, size_t Count) {
    std::vector<double> In = window(Pool, kFeatures, Begin, Count);
    if (Transposed)
      for (size_t I = 0; I < Count; ++I)
        for (uint32_t F = 0; F < kFeatures; ++F)
          In[F * Count + I] = Pool[(Begin + I) * kFeatures + F];
    return In;
  };
  for (bool F32 : {true, false})
    for (bool Transposed : {true, false})
      for (bool UseShuffle : {true, false}) {
        if (Transposed && !UseShuffle)
          continue; // a transposed input is never staged
        KernelProgram Program =
            makePaddingProgram(kFeatures, Transposed, F32);
        for (unsigned W : kWidths) {
          ExecutionConfig Config;
          Config.VectorWidth = W;
          Config.UseShuffle = UseShuffle;
          CpuExecutor Exec(Program, Config);
          std::string Leg = std::string(F32 ? "f32" : "f64") +
                            (Transposed  ? " transposed"
                             : UseShuffle ? " staged"
                                          : " gathered") +
                            " W=" + std::to_string(W);
          auto Run = [&](size_t Begin, size_t Count) {
            std::vector<double> In = Layout(Transposed, Begin, Count);
            std::vector<double> Out(2 * Count);
            EXPECT_TRUE(Exec.run({.Input = In.data(),
                                  .Output = Out.data(),
                                  .NumSamples = Count}))
                << Leg;
            return Out;
          };
          std::vector<double> Want = Run(0, kPoolRows);
          for (size_t Row = 0; Row < kPoolRows; ++Row) {
            double Sum = 0.0, Max = -INFINITY;
            std::vector<double> Logs;
            for (uint32_t F = 0; F < kFeatures; ++F) {
              const GaussianParams &P = Program.Tasks[0].Gaussians[F];
              double Norm = (Pool[Row * kFeatures + F] - P.Mean) * P.InvStdDev;
              Logs.push_back(P.Coefficient - 0.5 * Norm * Norm);
              Sum += Logs.back();
              Max = std::max(Max, Logs.back());
            }
            double Lse = 0.0;
            for (double L : Logs)
              Lse += std::exp(L - Max);
            double Tolerance = F32 ? 1e-4 : 1e-12;
            EXPECT_NEAR(Want[Row], Max + std::log(Lse), Tolerance)
                << Leg << " row " << Row;
            EXPECT_NEAR(Want[kPoolRows + Row], Sum, Tolerance)
                << Leg << " row " << Row;
          }
          for (size_t Count = 1; Count <= 3 * W + 1; ++Count)
            for (size_t Begin : {size_t(0), kPoolRows - Count}) {
              std::vector<double> Got = Run(Begin, Count);
              for (size_t I = 0; I < Count; ++I)
                for (size_t Slot = 0; Slot < 2; ++Slot)
                  EXPECT_TRUE(sameBits(Got[Slot * Count + I],
                                       Want[Slot * kPoolRows + Begin + I]))
                      << Leg << ": slot " << Slot << " of pool row "
                      << Begin + I << " in a " << Count << "-row batch";
            }
        }
      }
}

} // namespace
