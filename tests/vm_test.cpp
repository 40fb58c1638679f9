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
#include "support/Hashing.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>

#include <unistd.h>

using namespace spnc;
using namespace spnc::vm;

namespace {

//===----------------------------------------------------------------------===//
// Vector math accuracy (SVML/libmvec substitute)
//===----------------------------------------------------------------------===//

TEST(VecMathTest, ExpNegMatchesLibm) {
  Rng R(11);
  for (int I = 0; I < 10000; ++I) {
    float X = static_cast<float>(-R.uniform(0.0, 80.0));
    float Expected = std::exp(X);
    float Actual = fastExpNeg(X);
    EXPECT_NEAR(Actual, Expected, std::fabs(Expected) * 1e-5f + 1e-38f)
        << "x = " << X;
  }
}

TEST(VecMathTest, ExpNegEdgeCases) {
  EXPECT_FLOAT_EQ(fastExpNeg(0.0f), 1.0f);
  EXPECT_NEAR(fastExpNeg(-1.0f), 0.36787944f, 1e-6f);
  // Deep underflow clamps near zero.
  EXPECT_LT(fastExpNeg(-500.0f), 1e-30f);
  EXPECT_GE(fastExpNeg(-500.0f), 0.0f);
}

TEST(VecMathTest, Log1pMatchesLibmOnUnitInterval) {
  Rng R(13);
  for (int I = 0; I < 10000; ++I) {
    float X = static_cast<float>(R.uniform());
    float Expected = std::log1p(X);
    EXPECT_NEAR(fastLog1p01(X), Expected, 1e-5f) << "x = " << X;
  }
  EXPECT_FLOAT_EQ(fastLog1p01(0.0f), 0.0f);
  EXPECT_NEAR(fastLog1p01(1.0f), 0.6931472f, 2e-6f);
}

TEST(VecMathTest, LaneArrayEntryPoints) {
  float In[8], OutVec[8], OutScalar[8];
  Rng R(5);
  for (float &X : In)
    X = static_cast<float>(-R.uniform(0.0, 40.0));
  vecExpNeg(In, OutVec, 8);
  scalarExp(In, OutScalar, 8);
  for (int I = 0; I < 8; ++I)
    EXPECT_NEAR(OutVec[I], OutScalar[I],
                std::fabs(OutScalar[I]) * 1e-5f + 1e-38f);
}

//===----------------------------------------------------------------------===//
// Single-sample interpreter opcode semantics
//===----------------------------------------------------------------------===//

class OpcodeTest : public ::testing::Test {
protected:
  /// Runs a task with no loads/stores and returns register values.
  std::vector<double> run(const TaskProgram &Task) {
    std::vector<double> Registers(Task.NumRegisters, 0.0);
    BufferBinding<double> NoBuffers[1] = {};
    interpretSample(Task, Task, NoBuffers, 0, Registers.data());
    return Registers;
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
  std::vector<double> R = run(Task);
  EXPECT_DOUBLE_EQ(R[3], 5.0);
  EXPECT_DOUBLE_EQ(R[4], 8.0);
  EXPECT_DOUBLE_EQ(R[5], 14.0);
}

TEST_F(OpcodeTest, LogSumExpOp) {
  TaskProgram Task;
  Task.NumRegisters = 3;
  Task.ConstPool = {std::log(0.25), std::log(0.5)};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::LogSumExp, 2, 0, 1)};
  EXPECT_NEAR(run(Task)[2], std::log(0.75), 1e-12);

  // -inf handling.
  Task.ConstPool = {-std::numeric_limits<double>::infinity(),
                    std::log(0.5)};
  EXPECT_NEAR(run(Task)[2], std::log(0.5), 1e-12);
  Task.ConstPool = {-std::numeric_limits<double>::infinity(),
                    -std::numeric_limits<double>::infinity()};
  EXPECT_TRUE(std::isinf(run(Task)[2]));
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
  EXPECT_NEAR(run(Task)[1],
              0.39894228040143267794 / 1.5 * std::exp(-0.5 * T * T),
              1e-7);

  GaussianParams LogP;
  LogP.Mean = 0.2;
  LogP.InvStdDev = 1.0 / 1.5;
  LogP.Coefficient = -std::log(1.5) - 0.91893853320467274178;
  Task.Gaussians = {LogP};
  Task.Code = {make(OpCode::Const, 0, 0),
               make(OpCode::GaussianLog, 1, 0, 0)};
  EXPECT_NEAR(run(Task)[1],
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
  EXPECT_DOUBLE_EQ(run(Task)[1], 0.0);
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
  std::vector<double> R = run(Task);
  EXPECT_DOUBLE_EQ(R[1], 0.3);  // index 2
  EXPECT_DOUBLE_EQ(R[3], -1.0); // out of range -> default
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
  EXPECT_DOUBLE_EQ(run(Task)[1], 20.0); // 1.5 falls into bucket [1,2)

  // NaN evidence keeps the default through the cascade, then blends.
  Task.Code[0] = make(OpCode::Const, 0, 3);
  EXPECT_DOUBLE_EQ(run(Task)[1], 7.0);
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
  std::vector<double> R = run(Task);
  EXPECT_DOUBLE_EQ(R[3], 9.0);
  EXPECT_DOUBLE_EQ(R[4], 24.0);
}

TEST_F(OpcodeTest, LogSumExpN) {
  TaskProgram Task;
  Task.NumRegisters = 4;
  Task.ConstPool = {std::log(0.1), std::log(0.2), std::log(0.3)};
  Task.Args = {0, 1, 2};
  Task.Code = {make(OpCode::Const, 0, 0), make(OpCode::Const, 1, 1),
               make(OpCode::Const, 2, 2),
               make(OpCode::LogSumExpN, 3, 0, 3)};
  EXPECT_NEAR(run(Task)[3], std::log(0.6), 1e-12);

  // All -inf inputs stay -inf (no NaN).
  double NegInf = -std::numeric_limits<double>::infinity();
  Task.ConstPool = {NegInf, NegInf, NegInf};
  double Result = run(Task)[3];
  EXPECT_TRUE(std::isinf(Result) && Result < 0);

  // Mixed -inf inputs are ignored.
  Task.ConstPool = {NegInf, std::log(0.2), std::log(0.3)};
  EXPECT_NEAR(run(Task)[3], std::log(0.5), 1e-12);
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

  double Registers[1];
  for (size_t S = 0; S < 3; ++S)
    interpretSample(Task, Task, Buffers, S, Registers);
  EXPECT_DOUBLE_EQ(Output[0], 11);
  EXPECT_DOUBLE_EQ(Output[1], 21);
  EXPECT_DOUBLE_EQ(Output[2], 31);
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
  double Registers[2];
  for (size_t S = 0; S < 3; ++S)
    interpretSample(Task, Task, Buffers, S, Registers);
  // Slot 0 = the raw value, slot 1 = value + 100, each contiguous.
  EXPECT_DOUBLE_EQ(Output[0], 1);
  EXPECT_DOUBLE_EQ(Output[1], 2);
  EXPECT_DOUBLE_EQ(Output[2], 3);
  EXPECT_DOUBLE_EQ(Output[3], 101);
  EXPECT_DOUBLE_EQ(Output[4], 102);
  EXPECT_DOUBLE_EQ(Output[5], 103);
}

TEST(VecMathTest, EightLaneKernelEdgeValues) {
  // The 8-lane fast path must agree with libm at the clamp boundaries
  // and across the full range in one call.
  float In[8] = {0.0f, -1e-8f, -1.0f, -10.0f, -50.0f, -86.9f, -87.0f,
                 -200.0f};
  float Out[8];
  vecExpNeg(In, Out, 8);
  for (int I = 0; I < 6; ++I)
    EXPECT_NEAR(Out[I], std::exp(In[I]),
                std::exp(In[I]) * 1e-5f + 1e-38f)
        << "lane " << I;
  EXPECT_LE(Out[6], 2e-38f);
  EXPECT_LE(Out[7], 2e-38f); // clamped deep underflow
  EXPECT_GE(Out[7], 0.0f);

  float LogIn[8] = {1.0f, 1.5f, 2.0f, 3.0f, 4.0f, 7.9f, 8.0f, 64.0f};
  float LogOut[8];
  vecLogPos(LogIn, LogOut, 8);
  for (int I = 0; I < 8; ++I)
    EXPECT_NEAR(LogOut[I], std::log(LogIn[I]), 1e-5f) << "lane " << I;

  // Non-multiple-of-8 lane counts exercise the scalar tail.
  float Tail[11], TailOut[11];
  for (int I = 0; I < 11; ++I)
    Tail[I] = -0.3f * static_cast<float>(I);
  vecExpNeg(Tail, TailOut, 11);
  for (int I = 0; I < 11; ++I)
    EXPECT_NEAR(TailOut[I], std::exp(Tail[I]),
                std::exp(Tail[I]) * 1e-5f + 1e-38f)
        << "lane " << I;
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
  Instruction I;
  I.Op = OpCode::GaussianLog;
  I.Dst = 2;
  I.A = 1;
  I.B = 0;
  Task.Code = {I};
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
  ASSERT_EQ(Task.Code.size(), 1u);
  EXPECT_EQ(Task.Code[0].Op, OpCode::GaussianLog);
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
  // Header: magic, version word, then the FNV-1a checksum of the payload
  // that starts at byte 16 (docs/spnk-format.md).
  std::vector<uint8_t> Blob = encodeProgram(makeSampleProgram());
  ASSERT_GT(Blob.size(), 16u);
  uint32_t Version = 0;
  std::memcpy(&Version, Blob.data() + 4, sizeof(Version));
  EXPECT_EQ(Version, kProgramBinaryVersion);
  uint64_t Checksum = 0;
  std::memcpy(&Checksum, Blob.data() + 8, sizeof(Checksum));
  EXPECT_EQ(Checksum, fnv1a64(Blob.data() + 16, Blob.size() - 16));
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

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool, bool>> {
};

TEST_P(EngineEquivalenceTest, VectorMatchesScalar) {
  auto [Width, UseVecLib, UseShuffle] = GetParam();
  const uint32_t NumFeatures = 5;
  const size_t NumSamples = 77; // not a multiple of any vector width
  KernelProgram Program = makeRandomProgram(99, NumFeatures);

  Rng R(1234);
  std::vector<double> Input(NumSamples * NumFeatures);
  for (double &X : Input)
    X = R.uniform(-2.0, 2.0);

  ExecutionConfig Scalar;
  CpuExecutor ScalarExec(Program, Scalar);
  std::vector<double> Expected(NumSamples);
  ASSERT_TRUE(ScalarExec.run(
      {.Input = Input.data(), .Output = Expected.data(),
       .NumSamples = NumSamples}));

  ExecutionConfig Vector;
  Vector.VectorWidth = Width;
  Vector.UseVecLib = UseVecLib;
  Vector.UseShuffle = UseShuffle;
  CpuExecutor VectorExec(makeRandomProgram(99, NumFeatures), Vector);
  std::vector<double> Actual(NumSamples);
  ASSERT_TRUE(VectorExec.run(
      {.Input = Input.data(), .Output = Actual.data(),
       .NumSamples = NumSamples}));

  for (size_t S = 0; S < NumSamples; ++S)
    EXPECT_NEAR(Actual[S], Expected[S],
                std::fabs(Expected[S]) * 1e-4 + 1e-4)
        << "sample " << S;
}

INSTANTIATE_TEST_SUITE_P(
    Widths, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(4u, 8u, 16u),
                       ::testing::Bool(), ::testing::Bool()));

} // namespace
