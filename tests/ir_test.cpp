//===- ir_test.cpp - Unit tests for the IR core --------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"
#include "dialects/lospn/LoSPNOps.h"
#include "ir/BuiltinOps.h"
#include "ir/Context.h"
#include "ir/PassManager.h"
#include "ir/PatternMatch.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "support/RawOStream.h"
#include "transforms/Passes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace spnc;
using namespace spnc::ir;

namespace {

/// Minimal test dialect: a constant, a pure binary op and a terminator.
class TestConstOp : public OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "test.const"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;
  static constexpr bool kIsConstant = true;
  static void build(OpBuilder &Builder, OperationState &State,
                    double Value) {
    State.addAttribute("value",
                       FloatAttr::get(Builder.getContext(), Value));
    State.addResultType(FloatType::getF64(Builder.getContext()));
  }
};

class TestAddOp : public OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "test.add"; }
  static constexpr bool kIsPure = true;
  static constexpr bool kIsTerminator = false;
  static void build(OpBuilder &, OperationState &State, Value Lhs,
                    Value Rhs) {
    State.addOperand(Lhs);
    State.addOperand(Rhs);
    State.addResultType(Lhs.getType());
  }
  Attribute fold(std::span<const Attribute> Operands) {
    if (!Operands[0] || !Operands[1])
      return Attribute();
    return FloatAttr::get(getContext(),
                          Operands[0].cast<FloatAttr>().getValue() +
                              Operands[1].cast<FloatAttr>().getValue());
  }
};

class TestSinkOp : public OpView {
public:
  using OpView::OpView;
  static const char *getOperationName() { return "test.sink"; }
  static constexpr bool kIsPure = false;
  static constexpr bool kIsTerminator = false;
  static void build(OpBuilder &, OperationState &State, Value V) {
    State.addOperand(V);
  }
};

void registerTestDialect(Context &Ctx) {
  if (Ctx.isDialectLoaded("test"))
    return;
  Ctx.markDialectLoaded("test");
  registerBuiltinDialect(Ctx);
  registerOperation<TestConstOp>(Ctx);
  registerOperation<TestAddOp>(Ctx);
  registerOperation<TestSinkOp>(Ctx);
  Ctx.setConstantMaterializer(
      [](OpBuilder &Builder, Attribute V, Type Ty) -> Operation * {
        if (!V.isa<FloatAttr>() || !Ty.isFloat())
          return nullptr;
        return Builder.create<TestConstOp>(V.cast<FloatAttr>().getValue())
            .getOperation();
      });
}

class IRTest : public ::testing::Test {
protected:
  void SetUp() override {
    registerTestDialect(Ctx);
    Module = ModuleOp::create(Ctx);
    Builder = std::make_unique<OpBuilder>(
        OpBuilder::atBlockEnd(Ctx, &Module.get().getBody()));
  }

  Context Ctx;
  OwningOpRef<ModuleOp> Module;
  std::unique_ptr<OpBuilder> Builder;
};

//===----------------------------------------------------------------------===//
// Types and attributes
//===----------------------------------------------------------------------===//

TEST_F(IRTest, TypesAreUniqued) {
  EXPECT_EQ(FloatType::getF32(Ctx), FloatType::getF32(Ctx));
  EXPECT_NE(Type(FloatType::getF32(Ctx)), Type(FloatType::getF64(Ctx)));
  EXPECT_EQ(IntegerType::get(Ctx, 32), IntegerType::get(Ctx, 32));
  EXPECT_NE(Type(IntegerType::get(Ctx, 32)),
            Type(IntegerType::get(Ctx, 64)));
  Type T1 = TensorType::get(Ctx, {TypeStorage::kDynamic, 26},
                            FloatType::getF64(Ctx));
  Type T2 = TensorType::get(Ctx, {TypeStorage::kDynamic, 26},
                            FloatType::getF64(Ctx));
  EXPECT_EQ(T1, T2);
  Type T3 =
      TensorType::get(Ctx, {26, TypeStorage::kDynamic},
                      FloatType::getF64(Ctx));
  EXPECT_NE(T1, T3);
  // Tensor and memref of the same shape are distinct.
  Type M1 = MemRefType::get(Ctx, {TypeStorage::kDynamic, 26},
                            FloatType::getF64(Ctx));
  EXPECT_NE(T1, M1);
}

TEST_F(IRTest, TypeCasting) {
  Type T = MemRefType::get(Ctx, {4, 8}, FloatType::getF32(Ctx));
  ASSERT_TRUE(T.isa<MemRefType>());
  EXPECT_FALSE(T.isa<TensorType>());
  EXPECT_EQ(T.cast<MemRefType>().getShape()[1], 8);
  EXPECT_EQ(T.cast<MemRefType>().getElementType(),
            Type(FloatType::getF32(Ctx)));
  EXPECT_FALSE(static_cast<bool>(T.dyn_cast<TensorType>()));
}

TEST_F(IRTest, AttributesAreUniqued) {
  EXPECT_EQ(IntAttr::get(Ctx, 42), IntAttr::get(Ctx, 42));
  EXPECT_NE(Attribute(IntAttr::get(Ctx, 42)),
            Attribute(IntAttr::get(Ctx, 43)));
  EXPECT_EQ(FloatAttr::get(Ctx, 0.5), FloatAttr::get(Ctx, 0.5));
  EXPECT_EQ(StringAttr::get(Ctx, "abc"), StringAttr::get(Ctx, "abc"));
  EXPECT_EQ(DenseF64Attr::get(Ctx, {1.0, 2.0}),
            DenseF64Attr::get(Ctx, {1.0, 2.0}));
  EXPECT_NE(Attribute(DenseF64Attr::get(Ctx, {1.0, 2.0})),
            Attribute(DenseF64Attr::get(Ctx, {2.0, 1.0})));
  // Int and bool are distinct kinds even for "equal" values.
  EXPECT_NE(Attribute(IntAttr::get(Ctx, 1)),
            Attribute(BoolAttr::get(Ctx, true)));
}

TEST_F(IRTest, FloatAttributesAreUniquedByBits) {
  // -0.0 and +0.0 are two constants, whichever is created first.
  FloatAttr Pos = FloatAttr::get(Ctx, 0.0);
  FloatAttr Neg = FloatAttr::get(Ctx, -0.0);
  EXPECT_NE(Attribute(Pos), Attribute(Neg));
  EXPECT_FALSE(std::signbit(Pos.getValue()));
  EXPECT_TRUE(std::signbit(Neg.getValue()));
  Context Reversed;
  FloatAttr NegFirst = FloatAttr::get(Reversed, -0.0);
  FloatAttr PosSecond = FloatAttr::get(Reversed, 0.0);
  EXPECT_TRUE(std::signbit(NegFirst.getValue()));
  EXPECT_FALSE(std::signbit(PosSecond.getValue()));

  // A NaN is one attribute, not a new one per request.
  double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(FloatAttr::get(Ctx, NaN), FloatAttr::get(Ctx, NaN));

  // Dense arrays compare their values by bits too.
  EXPECT_NE(Attribute(DenseF64Attr::get(Ctx, {0.5, 0.0})),
            Attribute(DenseF64Attr::get(Ctx, {0.5, -0.0})));
  EXPECT_EQ(DenseF64Attr::get(Ctx, {0.5, NaN}),
            DenseF64Attr::get(Ctx, {0.5, NaN}));
}

//===----------------------------------------------------------------------===//
// Operations, values, use-lists
//===----------------------------------------------------------------------===//

TEST_F(IRTest, BuildAndInspectOps) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));

  EXPECT_EQ(Add->getNumOperands(), 2u);
  EXPECT_EQ(Add->getNumResults(), 1u);
  EXPECT_EQ(Add->getOperand(0), C1->getResult(0));
  EXPECT_EQ(Add->getOperand(1), C2->getResult(0));
  EXPECT_EQ(Add->getBlock(), &Module.get().getBody());
  EXPECT_EQ(Add->getParentOp(), Module.get().getOperation());
  EXPECT_TRUE(isa_op<TestAddOp>(Add.getOperation()));
  EXPECT_FALSE(isa_op<TestConstOp>(Add.getOperation()));
  EXPECT_EQ(Module.get().getBody().size(), 3u);
}

TEST_F(IRTest, UseListsTrackUses) {
  TestConstOp C = Builder->create<TestConstOp>(1.0);
  Value V = C->getResult(0);
  EXPECT_TRUE(V.useEmpty());

  TestAddOp Add = Builder->create<TestAddOp>(V, V);
  EXPECT_FALSE(V.useEmpty());
  EXPECT_FALSE(V.hasOneUse()); // Two uses by the same op.
  std::vector<Operation *> Users = V.getUsers();
  ASSERT_EQ(Users.size(), 2u);
  EXPECT_EQ(Users[0], Add.getOperation());
  EXPECT_EQ(Users[1], Add.getOperation());

  Add->erase();
  EXPECT_TRUE(V.useEmpty());
}

TEST_F(IRTest, ReplaceAllUsesWith) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C1->getResult(0));

  C1->getResult(0).replaceAllUsesWith(C2->getResult(0));
  EXPECT_TRUE(C1->getResult(0).useEmpty());
  EXPECT_EQ(Add->getOperand(0), C2->getResult(0));
  EXPECT_EQ(Add->getOperand(1), C2->getResult(0));
}

TEST_F(IRTest, SetOperandMaintainsUseLists) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C1->getResult(0));
  Add->setOperand(0, C2->getResult(0));
  EXPECT_TRUE(C1->getResult(0).hasOneUse());
  EXPECT_TRUE(C2->getResult(0).hasOneUse());
}

TEST_F(IRTest, AttributesOnOps) {
  TestConstOp C = Builder->create<TestConstOp>(3.5);
  EXPECT_DOUBLE_EQ(C->getFloatAttr("value"), 3.5);
  EXPECT_FALSE(C->hasAttr("other"));
  C->setAttr("other", IntAttr::get(Ctx, 7));
  EXPECT_EQ(C->getIntAttr("other"), 7);
  C->removeAttr("other");
  EXPECT_FALSE(C->hasAttr("other"));
  // Attributes are sorted by name for deterministic printing.
  C->setAttr("zzz", IntAttr::get(Ctx, 1));
  C->setAttr("aaa", IntAttr::get(Ctx, 2));
  ASSERT_EQ(C->getAttrs().size(), 3u);
  EXPECT_EQ(C->getAttrs()[0].Name, "aaa");
  EXPECT_EQ(C->getAttrs()[2].Name, "zzz");
}

TEST_F(IRTest, MoveBefore) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  C2->moveBefore(C1.getOperation());
  Block &Body = Module.get().getBody();
  EXPECT_EQ(Body.front(), C2.getOperation());
  EXPECT_EQ(Body.back(), C1.getOperation());
}

TEST_F(IRTest, WalkIsPostOrder) {
  TestConstOp C = Builder->create<TestConstOp>(1.0);
  Builder->create<TestSinkOp>(C->getResult(0));
  std::vector<std::string> Names;
  Module.get().getOperation()->walk(
      [&](Operation *Op) { Names.push_back(Op->getName()); });
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "test.const");
  EXPECT_EQ(Names[1], "test.sink");
  EXPECT_EQ(Names[2], "builtin.module");
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

TEST_F(IRTest, PrintsGenericForm) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.5);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));

  std::string Text = opToString(Module.get().getOperation());
  EXPECT_NE(Text.find("\"builtin.module\"()"), std::string::npos);
  EXPECT_NE(Text.find("%0 = \"test.const\"() {value = 1.5} : () -> f64"),
            std::string::npos);
  EXPECT_NE(Text.find("\"test.add\"(%0, %1)"), std::string::npos);
  EXPECT_NE(Text.find(": (f64, f64) -> f64"), std::string::npos);
}

TEST_F(IRTest, PrintsTypes) {
  auto TypeToString = [&](Type T) {
    std::string S;
    StringOStream OS(S);
    T.print(OS);
    return S;
  };
  EXPECT_EQ(TypeToString(FloatType::getF32(Ctx)), "f32");
  EXPECT_EQ(TypeToString(IndexType::get(Ctx)), "index");
  EXPECT_EQ(TypeToString(IntegerType::get(Ctx, 1)), "i1");
  EXPECT_EQ(TypeToString(TensorType::get(Ctx, {TypeStorage::kDynamic, 26},
                                         FloatType::getF64(Ctx))),
            "tensor<?x26xf64>");
  EXPECT_EQ(TypeToString(MemRefType::get(Ctx, {4, TypeStorage::kDynamic},
                                         FloatType::getF32(Ctx))),
            "memref<4x?xf32>");
}

//===----------------------------------------------------------------------===//
// Printer golden text
//===----------------------------------------------------------------------===//

/// Each test builds a module with the builder API and compares its
/// printed text with golden text, so the format of `spnc-cli --dump-ir`
/// and of the `ir-dump:<stage>` stage cannot change unnoticed. Nothing
/// parses IR text; these goldens are the printer's only check.
class PrinterTest : public IRTest {
protected:
  void SetUp() override {
    IRTest::SetUp();
    hispn::registerHiSPNDialect(Ctx);
    lospn::registerLoSPNDialect(Ctx);
  }

  void expectModulePrints(std::string_view Golden) {
    EXPECT_EQ(opToString(Module.get().getOperation()), Golden);
  }
};

TEST_F(PrinterTest, EmptyModule) {
  expectModulePrints(R"ir("builtin.module"() ({
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, OpsValuesAndScalarAttributes) {
  TestConstOp C1 = Builder->create<TestConstOp>(0.25);
  TestConstOp C2 = Builder->create<TestConstOp>(-1.5);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));
  OperationState State("test.op");
  State.addOperand(Add->getResult(0));
  State.addOperand(C1->getResult(0));
  State.addAttribute("count", IntAttr::get(Ctx, -7));
  State.addAttribute("whole", FloatAttr::get(Ctx, 3.0));
  State.addAttribute("third", FloatAttr::get(Ctx, 1.0 / 3.0));
  State.addAttribute("tiny", FloatAttr::get(Ctx, 1e-300));
  State.addAttribute("huge", FloatAttr::get(Ctx, 1e20));
  State.addAttribute("on", BoolAttr::get(Ctx, true));
  State.addAttribute("off", BoolAttr::get(Ctx, false));
  State.addAttribute("marker", UnitAttr::get(Ctx));
  State.addAttribute("name", StringAttr::get(Ctx, "say \"hi\" \\ bye"));
  State.addAttribute("type", TypeAttr::get(Ctx, IntegerType::get(Ctx, 32)));
  State.addResultType(FloatType::getF32(Ctx));
  State.addResultType(IntegerType::get(Ctx, 1));
  Operation *TwoResults = Builder->createOperation(State);
  Builder->create<TestSinkOp>(TwoResults->getResult(1));
  expectModulePrints(R"ir("builtin.module"() ({
  %0 = "test.const"() {value = 0.25} : () -> f64
  %1 = "test.const"() {value = -1.5} : () -> f64
  %2 = "test.add"(%0, %1) : (f64, f64) -> f64
  %3, %4 = "test.op"(%2, %0) {count = -7, huge = 1e+20, marker = unit, name = "say \"hi\" \\ bye", off = false, on = true, third = 0.33333333333333331, tiny = 1e-300, type = i32, whole = 3.0} : (f64, f64) -> (f32, i1)
  "test.sink"(%4) : (i1) -> ()
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, HiSPNQueryModule) {
  Type F64 = FloatType::getF64(Ctx);
  auto Query = Builder->create<hispn::JointQueryOp>(
      /*NumFeatures=*/2, F64, /*BatchSize=*/64, /*SupportMarginal=*/true,
      /*LogSpace=*/false);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Query->getRegion(0).emplaceBlock());
  auto Graph = B.create<hispn::GraphOp>(2);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Value X0 = Body.addArgument(F64);
  Value X1 = Body.addArgument(F64);
  B.setInsertionPointToEnd(&Body);
  Value G0 = B.create<hispn::GaussianOp>(X0, 0.0, 1.0)->getResult(0);
  Value G1 = B.create<hispn::GaussianOp>(X1, 1.0, 2.0)->getResult(0);
  Value H1 = B.create<hispn::HistogramOp>(
                  X1, std::vector<double>{0.0, 1.0, 0.25, 1.0, 2.0, 0.75})
                 ->getResult(0);
  std::vector<Value> Left = {G0, G1}, Right = {G0, H1};
  Value P0 = B.create<hispn::ProductOp>(Left)->getResult(0);
  Value P1 = B.create<hispn::ProductOp>(Right)->getResult(0);
  std::vector<Value> Children = {P0, P1};
  Value S = B.create<hispn::SumOp>(Children, std::vector<double>{0.3, 0.7})
                ->getResult(0);
  B.create<hispn::RootOp>(S);
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));
  expectModulePrints(R"ir("builtin.module"() ({
  "hi_spn.joint_query"() ({
    "hi_spn.graph"() ({
    ^bb(%arg0: f64, %arg1: f64):
      %0 = "hi_spn.gaussian"(%arg0) {mean = 0.0, stddev = 1.0} : (f64) -> !hi_spn.prob
      %1 = "hi_spn.gaussian"(%arg1) {mean = 1.0, stddev = 2.0} : (f64) -> !hi_spn.prob
      %2 = "hi_spn.histogram"(%arg1) {bucketCount = 2, buckets = dense<[0.0, 1.0, 0.25, 1.0, 2.0, 0.75]>} : (f64) -> !hi_spn.prob
      %3 = "hi_spn.product"(%0, %1) : (!hi_spn.prob, !hi_spn.prob) -> !hi_spn.prob
      %4 = "hi_spn.product"(%0, %2) : (!hi_spn.prob, !hi_spn.prob) -> !hi_spn.prob
      %5 = "hi_spn.sum"(%3, %4) {weights = dense<[0.29999999999999999, 0.69999999999999996]>} : (!hi_spn.prob, !hi_spn.prob) -> !hi_spn.prob
      "hi_spn.root"(%5) : (!hi_spn.prob) -> ()
    }) {numFeatures = 2} : () -> ()
  }) {batchSize = 64, inputType = f64, logSpace = false, numFeatures = 2, supportMarginal = true} : () -> ()
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, RegionsWithBlockArguments) {
  // An op with two regions: two blocks with arguments, then a block
  // without.
  Type F64 = FloatType::getF64(Ctx);
  TestConstOp C = Builder->create<TestConstOp>(4.0);
  OperationState State("test.regions");
  State.addOperand(C->getResult(0));
  State.addResultType(F64);
  State.addRegion();
  State.addRegion();
  Operation *Regions = Builder->createOperation(State);
  Block &First = Regions->getRegion(0).emplaceBlock();
  Value I = First.addArgument(IndexType::get(Ctx));
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &First);
  OperationState Use("test.use");
  Use.addOperand(I);
  B.createOperation(Use);
  Block &Second = Regions->getRegion(0).emplaceBlock();
  Second.addArgument(F64);
  Second.addArgument(IntegerType::get(Ctx, 1));
  B.setInsertionPointToEnd(&Second);
  B.create<TestConstOp>(1.0);
  B.setInsertionPointToEnd(&Regions->getRegion(1).emplaceBlock());
  B.create<TestConstOp>(2.0);
  expectModulePrints(R"ir("builtin.module"() ({
  %0 = "test.const"() {value = 4.0} : () -> f64
  %1 = "test.regions"(%0) ({
  ^bb(%arg0: index):
    "test.use"(%arg0) : (index) -> ()
  ^bb(%arg1: f64, %arg2: i1):
    %2 = "test.const"() {value = 1.0} : () -> f64
  }, {
    %3 = "test.const"() {value = 2.0} : () -> f64
  }) : (f64) -> f64
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, ShapedAndDialectTypes) {
  constexpr int64_t Dyn = TypeStorage::kDynamic;
  Type F32 = FloatType::getF32(Ctx), F64 = FloatType::getF64(Ctx);
  OperationState State("test.types");
  State.addAttribute("type",
                     TypeAttr::get(Ctx, TensorType::get(
                                            Ctx, {Dyn, Dyn},
                                            lospn::LogType::get(Ctx, F64))));
  State.addResultType(hispn::ProbType::get(Ctx));
  State.addResultType(lospn::LogType::get(Ctx, F64));
  State.addResultType(IndexType::get(Ctx));
  State.addRegion();
  Operation *Types = Builder->createOperation(State);
  Block &Body = Types->getRegion(0).emplaceBlock();
  Body.addArgument(MemRefType::get(Ctx, {Dyn, 26}, F64));
  Body.addArgument(
      MemRefType::get(Ctx, {2, Dyn}, lospn::LogType::get(Ctx, F32)));
  Body.addArgument(TensorType::get(Ctx, {Dyn, 26}, F64));
  Body.addArgument(TensorType::get(Ctx, std::span<const int64_t>(), F32));
  Body.addArgument(IntegerType::get(Ctx, 64));
  OperationState Inner("test.inner");
  for (unsigned I = 0; I < Body.getNumArguments(); ++I)
    Inner.addOperand(Body.getArgument(I));
  Inner.addResultType(hispn::ProbType::get(Ctx));
  OpBuilder::atBlockEnd(Ctx, &Body).createOperation(Inner);
  expectModulePrints(R"ir("builtin.module"() ({
  %0, %1, %2 = "test.types"() ({
  ^bb(%arg0: memref<?x26xf64>, %arg1: memref<2x?x!lo_spn.log<f32>>, %arg2: tensor<?x26xf64>, %arg3: tensor<f32>, %arg4: i64):
    %3 = "test.inner"(%arg0, %arg1, %arg2, %arg3, %arg4) : (memref<?x26xf64>, memref<2x?x!lo_spn.log<f32>>, tensor<?x26xf64>, tensor<f32>, i64) -> !hi_spn.prob
  }) {type = tensor<?x?x!lo_spn.log<f64>>} : () -> (!hi_spn.prob, !lo_spn.log<f64>, index)
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, DenseArraysWithSpecialFloats) {
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double Inf = std::numeric_limits<double>::infinity();
  OperationState State("test.dense");
  State.addAttribute("values",
                     DenseF64Attr::get(Ctx, {0.25, NaN, Inf, -Inf, -0.0, 0.0,
                                             1.0, 0.1, 1e300, 5e-324}));
  State.addAttribute("none", DenseF64Attr::get(Ctx, std::span<const double>()));
  State.addAttribute("nan", FloatAttr::get(Ctx, NaN));
  State.addAttribute("negative_nan", FloatAttr::get(Ctx, -NaN));
  State.addAttribute("inf", FloatAttr::get(Ctx, Inf));
  State.addAttribute("negative_inf", FloatAttr::get(Ctx, -Inf));
  State.addAttribute("negative_zero", FloatAttr::get(Ctx, -0.0));
  State.addResultType(FloatType::getF64(Ctx));
  Builder->createOperation(State);
  expectModulePrints(R"ir("builtin.module"() ({
  %0 = "test.dense"() {inf = inf, nan = nan, negative_inf = -inf, negative_nan = nan, negative_zero = -0.0, none = dense<[]>, values = dense<[0.25, nan, inf, -inf, -0.0, 0.0, 1.0, 0.10000000000000001, 1.0000000000000001e+300, 4.9406564584124654e-324]>} : () -> f64
}) : () -> ()
)ir");
}

TEST_F(PrinterTest, BufferizedPartitionedLoSPNKernel) {
  // A three-feature joint query, partitioned into tasks of at most four
  // ops and bufferized as the compiler does.
  Type F64 = FloatType::getF64(Ctx);
  auto Query = Builder->create<hispn::JointQueryOp>(
      /*NumFeatures=*/3, F64, /*BatchSize=*/1, /*SupportMarginal=*/false,
      /*LogSpace=*/true);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Query->getRegion(0).emplaceBlock());
  auto Graph = B.create<hispn::GraphOp>(3);
  Block &Body = Graph->getRegion(0).emplaceBlock();
  Value X0 = Body.addArgument(F64);
  Value X1 = Body.addArgument(F64);
  Value X2 = Body.addArgument(F64);
  B.setInsertionPointToEnd(&Body);
  Value G0 = B.create<hispn::GaussianOp>(X0, 0.5, 2.0)->getResult(0);
  Value G1 = B.create<hispn::GaussianOp>(X0, -1.0, 0.5)->getResult(0);
  Value H1 = B.create<hispn::HistogramOp>(
                  X1, std::vector<double>{0.0, 1.0, 0.25, 1.0, 2.0, 0.75})
                 ->getResult(0);
  Value C2 = B.create<hispn::CategoricalOp>(
                  X2, std::vector<double>{0.125, 0.375, 0.5})
                 ->getResult(0);
  Value C2b = B.create<hispn::CategoricalOp>(
                   X2, std::vector<double>{0.5, 0.25, 0.25})
                  ->getResult(0);
  std::vector<Value> Left = {G0, H1, C2}, Right = {G1, H1, C2b};
  Value P0 = B.create<hispn::ProductOp>(Left)->getResult(0);
  Value P1 = B.create<hispn::ProductOp>(Right)->getResult(0);
  std::vector<Value> Children = {P0, P1};
  Value S = B.create<hispn::SumOp>(Children, std::vector<double>{0.4, 0.6})
                ->getResult(0);
  B.create<hispn::RootOp>(S);

  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions Partition;
  Partition.MaxPartitionSize = 4;
  PM.addPass(transforms::createTaskPartitioningPass(Partition));
  PM.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));
  unsigned Tasks = 0;
  Module.get().getOperation()->walk([&](Operation *Op) {
    Tasks += isa_op<lospn::TaskOp>(Op);
  });
  EXPECT_GT(Tasks, 1u);
  expectModulePrints(R"ir("builtin.module"() ({
  "lo_spn.kernel"() ({
  ^bb(%arg0: memref<?x3xf64>, %arg1: memref<1x?x!lo_spn.log<f32>>):
    %0 = "lo_spn.alloc"() : () -> memref<2x?x!lo_spn.log<f32>>
    "lo_spn.task"(%arg0, %0) ({
    ^bb(%arg2: index, %arg3: memref<?x3xf64>, %arg4: memref<2x?x!lo_spn.log<f32>>):
      %1 = "lo_spn.batch_read"(%arg3, %arg2) {staticIndex = 0, transposed = false} : (memref<?x3xf64>, index) -> f64
      %2 = "lo_spn.batch_read"(%arg3, %arg2) {staticIndex = 1, transposed = false} : (memref<?x3xf64>, index) -> f64
      %3, %4 = "lo_spn.body"(%1, %2) ({
      ^bb(%arg5: f64, %arg6: f64):
        %5 = "lo_spn.gaussian"(%arg5) {mean = 0.5, stddev = 2.0, supportMarginal = false} : (f64) -> !lo_spn.log<f32>
        %6 = "lo_spn.histogram"(%arg6) {bucketCount = 2, buckets = dense<[0.0, 1.0, 0.25, 1.0, 2.0, 0.75]>, supportMarginal = false} : (f64) -> !lo_spn.log<f32>
        %7 = "lo_spn.mul"(%5, %6) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        "lo_spn.yield"(%6, %7) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> ()
      }) : (f64, f64) -> (!lo_spn.log<f32>, !lo_spn.log<f32>)
      "lo_spn.batch_write"(%arg4, %arg2, %3, %4) {transposed = true} : (memref<2x?x!lo_spn.log<f32>>, index, !lo_spn.log<f32>, !lo_spn.log<f32>) -> ()
    }) {batchSize = 1, numInputs = 1} : (memref<?x3xf64>, memref<2x?x!lo_spn.log<f32>>) -> ()
    %8 = "lo_spn.alloc"() : () -> memref<1x?x!lo_spn.log<f32>>
    "lo_spn.task"(%arg0, %0, %8) ({
    ^bb(%arg7: index, %arg8: memref<?x3xf64>, %arg9: memref<2x?x!lo_spn.log<f32>>, %arg10: memref<1x?x!lo_spn.log<f32>>):
      %9 = "lo_spn.batch_read"(%arg8, %arg7) {staticIndex = 2, transposed = false} : (memref<?x3xf64>, index) -> f64
      %10 = "lo_spn.batch_read"(%arg9, %arg7) {staticIndex = 1, transposed = true} : (memref<2x?x!lo_spn.log<f32>>, index) -> !lo_spn.log<f32>
      %11 = "lo_spn.body"(%9, %10) ({
      ^bb(%arg11: f64, %arg12: !lo_spn.log<f32>):
        %12 = "lo_spn.categorical"(%arg11) {probabilities = dense<[0.125, 0.375, 0.5]>, supportMarginal = false} : (f64) -> !lo_spn.log<f32>
        %13 = "lo_spn.mul"(%arg12, %12) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        %14 = "lo_spn.constant"() {value = -0.916290731874155} : () -> !lo_spn.log<f32>
        %15 = "lo_spn.mul"(%13, %14) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        "lo_spn.yield"(%15) : (!lo_spn.log<f32>) -> ()
      }) : (f64, !lo_spn.log<f32>) -> !lo_spn.log<f32>
      "lo_spn.batch_write"(%arg10, %arg7, %11) {transposed = true} : (memref<1x?x!lo_spn.log<f32>>, index, !lo_spn.log<f32>) -> ()
    }) {batchSize = 1, numInputs = 2} : (memref<?x3xf64>, memref<2x?x!lo_spn.log<f32>>, memref<1x?x!lo_spn.log<f32>>) -> ()
    %16 = "lo_spn.alloc"() : () -> memref<1x?x!lo_spn.log<f32>>
    "lo_spn.task"(%arg0, %0, %16) ({
    ^bb(%arg13: index, %arg14: memref<?x3xf64>, %arg15: memref<2x?x!lo_spn.log<f32>>, %arg16: memref<1x?x!lo_spn.log<f32>>):
      %17 = "lo_spn.batch_read"(%arg14, %arg13) {staticIndex = 0, transposed = false} : (memref<?x3xf64>, index) -> f64
      %18 = "lo_spn.batch_read"(%arg14, %arg13) {staticIndex = 2, transposed = false} : (memref<?x3xf64>, index) -> f64
      %19 = "lo_spn.batch_read"(%arg15, %arg13) {staticIndex = 0, transposed = true} : (memref<2x?x!lo_spn.log<f32>>, index) -> !lo_spn.log<f32>
      %20 = "lo_spn.body"(%17, %18, %19) ({
      ^bb(%arg17: f64, %arg18: f64, %arg19: !lo_spn.log<f32>):
        %21 = "lo_spn.gaussian"(%arg17) {mean = -1.0, stddev = 0.5, supportMarginal = false} : (f64) -> !lo_spn.log<f32>
        %22 = "lo_spn.categorical"(%arg18) {probabilities = dense<[0.5, 0.25, 0.25]>, supportMarginal = false} : (f64) -> !lo_spn.log<f32>
        %23 = "lo_spn.mul"(%21, %arg19) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        %24 = "lo_spn.mul"(%23, %22) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        "lo_spn.yield"(%24) : (!lo_spn.log<f32>) -> ()
      }) : (f64, f64, !lo_spn.log<f32>) -> !lo_spn.log<f32>
      "lo_spn.batch_write"(%arg16, %arg13, %20) {transposed = true} : (memref<1x?x!lo_spn.log<f32>>, index, !lo_spn.log<f32>) -> ()
    }) {batchSize = 1, numInputs = 2} : (memref<?x3xf64>, memref<2x?x!lo_spn.log<f32>>, memref<1x?x!lo_spn.log<f32>>) -> ()
    "lo_spn.dealloc"(%0) : (memref<2x?x!lo_spn.log<f32>>) -> ()
    "lo_spn.task"(%16, %8, %arg1) ({
    ^bb(%arg20: index, %arg21: memref<1x?x!lo_spn.log<f32>>, %arg22: memref<1x?x!lo_spn.log<f32>>, %arg23: memref<1x?x!lo_spn.log<f32>>):
      %25 = "lo_spn.batch_read"(%arg21, %arg20) {staticIndex = 0, transposed = true} : (memref<1x?x!lo_spn.log<f32>>, index) -> !lo_spn.log<f32>
      %26 = "lo_spn.batch_read"(%arg22, %arg20) {staticIndex = 0, transposed = true} : (memref<1x?x!lo_spn.log<f32>>, index) -> !lo_spn.log<f32>
      %27 = "lo_spn.body"(%25, %26) ({
      ^bb(%arg24: !lo_spn.log<f32>, %arg25: !lo_spn.log<f32>):
        %28 = "lo_spn.constant"() {value = -0.51082562376599072} : () -> !lo_spn.log<f32>
        %29 = "lo_spn.mul"(%arg24, %28) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        %30 = "lo_spn.add"(%arg25, %29) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
        "lo_spn.yield"(%30) : (!lo_spn.log<f32>) -> ()
      }) : (!lo_spn.log<f32>, !lo_spn.log<f32>) -> !lo_spn.log<f32>
      "lo_spn.batch_write"(%arg23, %arg20, %27) {transposed = true} : (memref<1x?x!lo_spn.log<f32>>, index, !lo_spn.log<f32>) -> ()
    }) {batchSize = 1, numInputs = 2} : (memref<1x?x!lo_spn.log<f32>>, memref<1x?x!lo_spn.log<f32>>, memref<1x?x!lo_spn.log<f32>>) -> ()
    "lo_spn.dealloc"(%8) : (memref<1x?x!lo_spn.log<f32>>) -> ()
    "lo_spn.dealloc"(%16) : (memref<1x?x!lo_spn.log<f32>>) -> ()
    "lo_spn.return"() : () -> ()
  }) {numInputs = 1, sym_name = "spn_kernel"} : () -> ()
}) : () -> ()
)ir");
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST_F(IRTest, VerifierAcceptsValidIR) {
  TestConstOp C = Builder->create<TestConstOp>(1.0);
  Builder->create<TestSinkOp>(C->getResult(0));
  EXPECT_TRUE(succeeded(verify(Module.get().getOperation())));
}

TEST_F(IRTest, VerifierRejectsUseBeforeDef) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));
  // Move the definition after the use.
  C1.getOperation()->remove();
  Block &Body = Module.get().getBody();
  Body.push_back(C1.getOperation());
  (void)Add;

  unsigned Errors = 0;
  Ctx.setDiagnosticHandler([&](const std::string &) { ++Errors; });
  EXPECT_TRUE(failed(verify(Module.get().getOperation())));
  EXPECT_GT(Errors, 0u);
}

//===----------------------------------------------------------------------===//
// Folding, DCE, CSE, canonicalizer
//===----------------------------------------------------------------------===//

TEST_F(IRTest, GreedyDriverFoldsConstants) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.5);
  TestConstOp C2 = Builder->create<TestConstOp>(2.5);
  TestAddOp Add =
      Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));
  Builder->create<TestSinkOp>(Add->getResult(0));

  ASSERT_TRUE(succeeded(runCanonicalizer(Module.get().getOperation())));
  // The sink's operand must now be a constant 4.0; the add is gone.
  Block &Body = Module.get().getBody();
  Operation *Sink = Body.back();
  ASSERT_TRUE(isa_op<TestSinkOp>(Sink));
  Operation *Def = Sink->getOperand(0).getDefiningOp();
  ASSERT_TRUE(Def && isa_op<TestConstOp>(Def));
  EXPECT_DOUBLE_EQ(Def->getFloatAttr("value"), 4.0);
  for (Operation *Op : Body)
    EXPECT_FALSE(isa_op<TestAddOp>(Op));
}

TEST_F(IRTest, DCEErasesUnusedPureOps) {
  Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  Builder->create<TestAddOp>(C2->getResult(0), C2->getResult(0));
  EXPECT_EQ(Module.get().getBody().size(), 3u);
  unsigned Erased = runDCE(Module.get().getOperation());
  // Everything is dead (no side-effecting consumer).
  EXPECT_EQ(Erased, 3u);
  EXPECT_TRUE(Module.get().getBody().empty());
}

TEST_F(IRTest, DCEKeepsLiveChains) {
  TestConstOp C = Builder->create<TestConstOp>(1.0);
  TestAddOp Add =
      Builder->create<TestAddOp>(C->getResult(0), C->getResult(0));
  Builder->create<TestSinkOp>(Add->getResult(0));
  EXPECT_EQ(runDCE(Module.get().getOperation()), 0u);
  EXPECT_EQ(Module.get().getBody().size(), 3u);
}

TEST_F(IRTest, CSEDeduplicatesPureOps) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(1.0); // duplicate
  TestAddOp A1 =
      Builder->create<TestAddOp>(C1->getResult(0), C2->getResult(0));
  Builder->create<TestSinkOp>(A1->getResult(0));

  unsigned Erased = runCSE(Module.get().getOperation());
  EXPECT_EQ(Erased, 1u);
  // The add now uses the surviving constant twice.
  EXPECT_EQ(A1->getOperand(0), A1->getOperand(1));
}

TEST_F(IRTest, CSEDistinguishesDifferentAttributes) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C2 = Builder->create<TestConstOp>(2.0);
  Builder->create<TestSinkOp>(C1->getResult(0));
  Builder->create<TestSinkOp>(C2->getResult(0));
  EXPECT_EQ(runCSE(Module.get().getOperation()), 0u);
}

//===----------------------------------------------------------------------===//
// Pass manager
//===----------------------------------------------------------------------===//

TEST_F(IRTest, OwningOpRefDestroysAndReleases) {
  // A second module owned by a ref is destroyed on reset without
  // touching the fixture's module.
  OwningOpRef<ModuleOp> Other = ModuleOp::create(Ctx);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Other.get().getBody());
  B.create<TestConstOp>(1.0);
  EXPECT_TRUE(static_cast<bool>(Other));
  Other.reset();
  EXPECT_FALSE(static_cast<bool>(Other));

  // Move transfers ownership; release relinquishes it.
  OwningOpRef<ModuleOp> A = ModuleOp::create(Ctx);
  Operation *Raw = A.get().getOperation();
  OwningOpRef<ModuleOp> Moved = std::move(A);
  EXPECT_FALSE(static_cast<bool>(A));
  EXPECT_EQ(Moved.get().getOperation(), Raw);
  ModuleOp Released = Moved.release();
  EXPECT_FALSE(static_cast<bool>(Moved));
  Released.getOperation()->dropAllReferences();
  Released.getOperation()->destroy();
}

TEST_F(IRTest, BuilderInsertionPoints) {
  TestConstOp C1 = Builder->create<TestConstOp>(1.0);
  TestConstOp C3 = Builder->create<TestConstOp>(3.0);
  // Insert between the two.
  OpBuilder B(Ctx);
  B.setInsertionPoint(C3.getOperation());
  TestConstOp C2 = B.create<TestConstOp>(2.0);
  // And right after the first.
  B.setInsertionPointAfter(C1.getOperation());
  TestConstOp C15 = B.create<TestConstOp>(1.5);

  std::vector<double> Values;
  for (Operation *Op : Module.get().getBody())
    Values.push_back(Op->getFloatAttr("value"));
  EXPECT_EQ(Values, (std::vector<double>{1.0, 1.5, 2.0, 3.0}));
  (void)C2;
  (void)C15;
}

TEST_F(IRTest, MoveBeforeAcrossBlocks) {
  // Ops can migrate between blocks of different regions.
  OperationState State("test.container");
  State.NumRegions = 1;
  Operation *Container = Builder->createOperation(State);
  Block &Inner = Container->getRegion(0).emplaceBlock();

  TestConstOp C = Builder->create<TestConstOp>(5.0);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Inner);
  TestConstOp Anchor = B.create<TestConstOp>(6.0);
  C.getOperation()->moveBefore(Anchor.getOperation());
  EXPECT_EQ(C->getBlock(), &Inner);
  EXPECT_EQ(Inner.front(), C.getOperation());
  EXPECT_EQ(Module.get().getBody().size(), 1u); // just the container
}

#ifdef SPNC_ADDRESS_SANITIZER
TEST_F(IRTest, ErasedOpMemoryIsPoisoned) {
  // Erasing frees nothing back to the heap, so AddressSanitizer sees a
  // use after erase() only through the poisoning of the op's memory.
  TestConstOp Kept = Builder->create<TestConstOp>(1.0);
  TestConstOp Erased = Builder->create<TestConstOp>(2.0);
  Operation *Op = Erased.getOperation();
  EXPECT_FALSE(__asan_address_is_poisoned(Op));
  Op->erase();
  EXPECT_TRUE(__asan_address_is_poisoned(Op));
  EXPECT_FALSE(__asan_address_is_poisoned(Kept.getOperation()));
}
#endif

TEST_F(IRTest, WalkCallbackMayEraseVisitedOp) {
  Builder->create<TestConstOp>(1.0);
  Builder->create<TestConstOp>(2.0);
  TestConstOp Keep = Builder->create<TestConstOp>(3.0);
  Builder->create<TestSinkOp>(Keep->getResult(0));
  Module.get().getOperation()->walk([](Operation *Op) {
    if (isa_op<TestConstOp>(Op) && Op->useEmpty())
      Op->erase();
  });
  EXPECT_EQ(Module.get().getBody().size(), 2u); // Keep + sink
}

class CountingPass : public Pass {
public:
  explicit CountingPass(unsigned &Counter) : Counter(Counter) {}
  const char *getName() const override { return "counting"; }
  LogicalResult run(Operation *, Context &) override {
    ++Counter;
    return success();
  }

private:
  unsigned &Counter;
};

class FailingPass : public Pass {
public:
  const char *getName() const override { return "failing"; }
  LogicalResult run(Operation *, Context &) override { return failure(); }
};

TEST_F(IRTest, PassManagerRunsPassesInOrderAndTimes) {
  unsigned Counter = 0;
  PassManager PM(Ctx);
  PM.addPass(std::make_unique<CountingPass>(Counter));
  PM.addPass(std::make_unique<CountingPass>(Counter));
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  EXPECT_EQ(Counter, 2u);
  ASSERT_EQ(PM.getTimings().size(), 2u);
  EXPECT_EQ(PM.getTimings()[0].PassName, "counting");
  EXPECT_GE(PM.getTotalNs(), PM.getTimings()[0].WallNs);
}

TEST_F(IRTest, PassManagerStopsOnFailure) {
  unsigned Counter = 0;
  unsigned Errors = 0;
  Ctx.setDiagnosticHandler([&](const std::string &) { ++Errors; });
  PassManager PM(Ctx);
  PM.addPass(std::make_unique<FailingPass>());
  PM.addPass(std::make_unique<CountingPass>(Counter));
  EXPECT_TRUE(failed(PM.run(Module.get().getOperation())));
  EXPECT_EQ(Counter, 0u);
  EXPECT_GT(Errors, 0u);
}

} // namespace
