//===----------------------------------------------------------------------===//
/// \file Unit tests for the loop IR, builder, verifier, and DepGraph.
//===----------------------------------------------------------------------===//

#include "ir/DepGraph.h"
#include "ir/IRBuilder.h"
#include "ir/LoopBody.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace lsms;

namespace {

/// Each op's omega-0 operand, predicate and memory predecessors.
std::vector<std::vector<int>> zeroOmegaPreds(const LoopBody &Body) {
  std::vector<std::vector<int>> Preds(static_cast<size_t>(Body.numOps()));
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      if (U.Omega == 0)
        Preds[static_cast<size_t>(Op.Id)].push_back(Body.value(U.Value).Def);
    if (Op.PredValue >= 0 && Op.PredOmega == 0)
      Preds[static_cast<size_t>(Op.Id)].push_back(
          Body.value(Op.PredValue).Def);
  }
  for (const MemDep &D : Body.MemDeps)
    if (D.Omega == 0)
      Preds[static_cast<size_t>(D.Dst)].push_back(D.Src);
  return Preds;
}

/// Expects sequentialOrder() to hold every op and, at each position, the
/// lowest-id op whose omega-0 predecessors all come earlier.
void expectLowestReadyFirst(const LoopBody &Body) {
  const std::vector<int> Order = Body.sequentialOrder();
  ASSERT_EQ(Order.size(), static_cast<size_t>(Body.numOps())) << Body.Name;
  const std::vector<std::vector<int>> Preds = zeroOmegaPreds(Body);
  std::vector<char> Done(static_cast<size_t>(Body.numOps()), 0);
  const auto IsDone = [&Done](int P) { return Done[static_cast<size_t>(P)]; };
  for (size_t K = 0; K < Order.size(); ++K) {
    int Lowest = -1;
    for (int X = 0; X < Body.numOps() && Lowest < 0; ++X)
      if (!Done[static_cast<size_t>(X)] &&
          std::all_of(Preds[static_cast<size_t>(X)].begin(),
                      Preds[static_cast<size_t>(X)].end(), IsDone))
        Lowest = X;
    ASSERT_EQ(Order[K], Lowest) << Body.Name << " position " << K;
    Done[static_cast<size_t>(Lowest)] = 1;
  }
}

/// A load feeding a store to the same element, plus a memory arc of
/// \p MemOmega from the store back to the load.
LoopBody loadStoreWithMemoryArc(int MemOmega) {
  LoopBody Body;
  IRBuilder B(Body);
  const int Arr = B.newArray();
  const int A = B.addressStream("a", 0);
  const int L = B.emitLoad(Arr, 0, Use{A, 0}, "l");
  const int St = B.emitStore(Arr, 0, Use{A, 0}, Use{L, 0}, "st");
  B.addMemDep(St, Body.value(L).Def, DepKind::Flow, 1, MemOmega);
  Body.addOperation(Opcode::BrTop, {}, "brtop");
  Body.setBrTop(Body.numOps() - 1);
  return Body;
}

/// x = c + c under predicate p at \p PredOmega, with p = (x > c): a cycle
/// that only the predicate use can close.
LoopBody predicatedByOwnComparison(int PredOmega) {
  LoopBody Body;
  IRBuilder B(Body);
  const int C = B.constant(1.0);
  const int X = B.declareValue(RegClass::RR, "x");
  const int P = B.emitValue(Opcode::CmpGT, {Use{X, 0}, Use{C, 0}}, "p");
  B.defineValue(X, Opcode::FloatAdd, {Use{C, 0}, Use{C, 0}}, P, PredOmega);
  Body.addOperation(Opcode::BrTop, {}, "brtop");
  Body.setBrTop(Body.numOps() - 1);
  return Body;
}

} // namespace

TEST(LoopBody, StartStopPseudoOpsExist) {
  LoopBody Body;
  EXPECT_EQ(Body.op(Body.startOp()).Opc, Opcode::Start);
  EXPECT_EQ(Body.op(Body.stopOp()).Opc, Opcode::Stop);
  EXPECT_EQ(Body.numMachineOps(), 0);
}

TEST(LoopBody, SampleLoopVerifies) {
  const LoopBody Body = buildSampleLoop();
  EXPECT_EQ(Body.verify(), "");
  EXPECT_EQ(Body.brTopOp(), Body.numOps() - 1);
  EXPECT_EQ(Body.NumArrays, 2);
}

TEST(LoopBody, AllKernelsVerify) {
  for (const LoopBody &Body :
       {buildSampleLoop(), buildDaxpyLoop(), buildDotLoop(),
        buildLinearRecurrenceLoop(), buildPredicatedAbsLoop(),
        buildDivideLoop()})
    EXPECT_EQ(Body.verify(), "") << Body.Name;
}

TEST(LoopBody, UsesOfFindsOperandAndPredicateSites) {
  const LoopBody Body = buildPredicatedAbsLoop();
  // Find the predicate value "p" and check it is used as a predicate.
  int P = -1;
  for (const Value &V : Body.Values)
    if (V.Name == "p")
      P = V.Id;
  ASSERT_GE(P, 0);
  const auto Sites = Body.usesOf(P);
  // Used by PredNot (operand) and the then-store (predicate).
  EXPECT_EQ(Sites.size(), 2u);
}

TEST(LoopBody, VerifierRejectsMissingBrTop) {
  LoopBody Body;
  IRBuilder B(Body);
  const int C = B.constant(1.0);
  B.emitValue(Opcode::FloatAdd, {Use{C, 0}, Use{C, 0}}, "t");
  // finish() not called: no brtop.
  EXPECT_NE(Body.verify(), "");
}

TEST(LoopBody, VerifierRejectsZeroOmegaCycle) {
  LoopBody Body;
  IRBuilder B(Body);
  const int X = B.declareValue(RegClass::RR, "x");
  const int Y =
      B.emitValue(Opcode::FloatAdd, {Use{X, 0}, Use{X, 0}}, "y");
  B.defineValue(X, Opcode::FloatMul, {Use{Y, 0}, Use{Y, 0}});
  Body.addOperation(Opcode::BrTop, {}, "brtop");
  Body.setBrTop(Body.numOps() - 1);
  const std::string Err = Body.verify();
  EXPECT_NE(Err.find("cycle"), std::string::npos) << Err;
}

TEST(LoopBody, VerifierRejectsCycleClosedByMemoryArc) {
  EXPECT_EQ(loadStoreWithMemoryArc(/*MemOmega=*/1).verify(), "");
  const std::string Err = loadStoreWithMemoryArc(/*MemOmega=*/0).verify();
  EXPECT_NE(Err.find("cycle"), std::string::npos) << Err;
}

TEST(LoopBody, VerifierRejectsCycleThroughPredicateUse) {
  EXPECT_EQ(predicatedByOwnComparison(/*PredOmega=*/1).verify(), "");
  const std::string Err = predicatedByOwnComparison(/*PredOmega=*/0).verify();
  EXPECT_NE(Err.find("cycle"), std::string::npos) << Err;
}

TEST(LoopBody, SequentialOrderTakesTheLowestReadyOpFirst) {
  // The full suite starts with the hand-written kernels.
  for (const LoopBody &Body : buildFullSuite())
    expectLowestReadyFirst(Body);
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    expectLowestReadyFirst(generateIrregularLoop(Seed));
}

TEST(LoopBody, VerifierAcceptsOmegaOneCycle) {
  const LoopBody Body = buildLinearRecurrenceLoop();
  EXPECT_EQ(Body.verify(), "");
}

TEST(LoopBody, VerifierRejectsGprWithOmega) {
  LoopBody Body;
  IRBuilder B(Body);
  const int A = B.invariant("a", 1.0);
  B.emitValue(Opcode::FloatAdd, {Use{A, 1}, Use{A, 0}}, "t");
  Body.addOperation(Opcode::BrTop, {}, "brtop");
  Body.setBrTop(Body.numOps() - 1);
  EXPECT_NE(Body.verify(), "");
}

TEST(LoopBody, VerifierRejectsBadArity) {
  LoopBody Body;
  const int Op = Body.addOperation(Opcode::FloatAdd, {}, "bad");
  const int V = Body.addValue(RegClass::RR, Op, "bad");
  Body.op(Op).Result = V;
  Body.addOperation(Opcode::BrTop, {}, "brtop");
  Body.setBrTop(Body.numOps() - 1);
  EXPECT_NE(Body.verify(), "");
}

TEST(LoopBody, PrintMentionsEveryOp) {
  const LoopBody Body = buildSampleLoop();
  std::ostringstream OS;
  Body.print(OS);
  const std::string Out = OS.str();
  EXPECT_NE(Out.find("fadd"), std::string::npos);
  EXPECT_NE(Out.find("store"), std::string::npos);
  EXPECT_NE(Out.find("x"), std::string::npos);
}

TEST(DepGraph, StartAndStopArcsCoverAllOps) {
  const LoopBody Body = buildDaxpyLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);

  // Every op other than Start has an incoming arc from Start; every op
  // other than Stop reaches Stop directly.
  for (const Operation &Op : Body.Ops) {
    if (Op.Id != Body.startOp()) {
      bool FromStart = false;
      for (int ArcIdx : Graph.predArcs(Op.Id))
        FromStart |= Graph.arc(ArcIdx).Src == Body.startOp();
      EXPECT_TRUE(FromStart) << Op.Name;
    }
    if (Op.Id != Body.stopOp()) {
      bool ToStop = false;
      for (int ArcIdx : Graph.succArcs(Op.Id))
        ToStop |= Graph.arc(ArcIdx).Dst == Body.stopOp();
      EXPECT_TRUE(ToStop) << Op.Name;
    }
  }
}

TEST(DepGraph, FlowArcLatencyIsProducerLatency) {
  const LoopBody Body = buildDaxpyLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);

  // Find the flow arc from the load lx into the multiply.
  bool Found = false;
  for (const DepArc &Arc : Graph.arcs()) {
    if (Arc.Kind != DepKind::Flow)
      continue;
    if (Body.op(Arc.Src).Opc == Opcode::Load &&
        Body.op(Arc.Dst).Opc == Opcode::FloatMul) {
      EXPECT_EQ(Arc.Latency, 13);
      EXPECT_EQ(Arc.Omega, 0);
      Found = true;
    }
  }
  EXPECT_TRUE(Found);
}

TEST(DepGraph, GprUsesCreateNoFlowArcs) {
  const LoopBody Body = buildDaxpyLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  for (const DepArc &Arc : Graph.arcs()) {
    if (Arc.Kind == DepKind::Flow) {
      EXPECT_NE(Body.value(Arc.Value).Class, RegClass::GPR);
    }
  }
}

TEST(DepGraph, OmegaCarriedOnRecurrenceArcs) {
  const LoopBody Body = buildSampleLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  int Omega2Arcs = 0;
  for (const DepArc &Arc : Graph.arcs())
    if (Arc.Kind == DepKind::Flow && Arc.Omega == 2)
      ++Omega2Arcs;
  // x uses y@2 and y uses x@2.
  EXPECT_EQ(Omega2Arcs, 2);
}

TEST(DepGraph, MemDepsBecomeArcs) {
  const LoopBody Body = buildPredicatedAbsLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  bool Found = false;
  for (const DepArc &Arc : Graph.arcs())
    Found |= Arc.Kind == DepKind::Output;
  EXPECT_TRUE(Found);
}
