//===- ir_test.cpp - Unit tests for the IR core --------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/BuiltinOps.h"
#include "ir/Context.h"
#include "ir/PassManager.h"
#include "ir/PatternMatch.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "support/RawOStream.h"

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
  Type T = VectorType::get(Ctx, 8, FloatType::getF32(Ctx));
  ASSERT_TRUE(T.isa<VectorType>());
  EXPECT_FALSE(T.isa<TensorType>());
  EXPECT_EQ(T.cast<VectorType>().getNumLanes(), 8u);
  EXPECT_EQ(T.cast<VectorType>().getElementType(),
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

TEST_F(IRTest, ArrayAttr) {
  ArrayAttr Arr = ArrayAttr::get(
      Ctx, {IntAttr::get(Ctx, 1), StringAttr::get(Ctx, "x")});
  ASSERT_EQ(Arr.size(), 2u);
  EXPECT_EQ(Arr.getElement(0).cast<IntAttr>().getValue(), 1);
  EXPECT_EQ(Arr.getElement(1).cast<StringAttr>().getValue(), "x");
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
  EXPECT_EQ(TypeToString(VectorType::get(Ctx, 8, FloatType::getF32(Ctx))),
            "vector<8xf32>");
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
