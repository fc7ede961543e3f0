//===----------------------------------------------------------------------===//
/// \file Unit tests for ResMII/RecMII/MII, critical-op marking, lifetimes,
/// MaxLive, MinLT, and MinAvg (Sections 3 and 5.1 of the paper).
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "ir/IRBuilder.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

/// Reference MinLT: the Section 5.1 definition read off every arc of the
/// graph, not only those leaving the value's defining operation.
long allArcsMinLT(const DepGraph &Graph, const MinDistMatrix &MinDist,
                  int ValueId) {
  const long II = MinDist.initiationInterval();
  long MinLT = 0;
  for (const DepArc &Arc : Graph.arcs())
    if (Arc.Kind == DepKind::Flow && Arc.Value == ValueId)
      MinLT = std::max(MinLT, static_cast<long>(Arc.Omega) * II +
                                  MinDist.at(Arc.Src, Arc.Dst));
  return MinLT;
}

/// computeMinLT equals the all-arcs reference for every value of \p Body
/// at II = MII, MII + 1 and MII + 2.
void expectMinLTMatchesAllArcs(const LoopBody &Body) {
  const DepGraph Graph(Body, machine());
  const int MII = computeMII(Graph).MII;
  MinDistMatrix M;
  for (int II = MII; II <= MII + 2; ++II) {
    ASSERT_TRUE(M.compute(Graph, II)) << Body.Name << " II=" << II;
    for (const Value &V : Body.Values)
      ASSERT_EQ(computeMinLT(Graph, M, V.Id), allArcsMinLT(Graph, M, V.Id))
          << Body.Name << " II=" << II << " value " << V.Name;
  }
}

} // namespace

TEST(Bounds, SampleLoopResMII) {
  // Two fadds on one adder -> ResMII 2 (stores: 2 on 2 ports -> 1;
  // address adds: 2 on 2 ALUs -> 1; brtop: 1).
  const LoopBody Body = buildSampleLoop();
  EXPECT_EQ(computeResMII(Body, machine()), 2);
}

TEST(Bounds, DivideLoopResMII) {
  // One 17-cycle divide on the non-pipelined divider dominates.
  const LoopBody Body = buildDivideLoop();
  EXPECT_EQ(computeResMII(Body, machine()), 17);
}

TEST(Bounds, SampleLoopMII) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const MIIBounds B = computeMII(Graph);
  EXPECT_EQ(B.ResMII, 2);
  EXPECT_EQ(B.RecMII, 1);
  EXPECT_EQ(B.MII, 2);
}

TEST(Bounds, LinearRecurrenceIsRecMIIBound) {
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph(Body, machine());
  const MIIBounds B = computeMII(Graph);
  EXPECT_EQ(B.RecMII, 3);
  EXPECT_GE(B.MII, 3);
  EXPECT_EQ(B.MII, std::max(B.ResMII, B.RecMII));
}

TEST(Bounds, CriticalOpsAtMII) {
  const LoopBody Body = buildSampleLoop();
  const auto Critical = markCriticalOps(Body, machine(), /*II=*/2);
  // The adder is saturated (2 of 2 cycles); both fadds are critical.
  int NumCritical = 0;
  for (const Operation &Op : Body.Ops)
    if (Critical[static_cast<size_t>(Op.Id)]) {
      ++NumCritical;
      EXPECT_EQ(machine().unitFor(Op.Opc), FuKind::Adder) << Op.Name;
    }
  EXPECT_EQ(NumCritical, 2);
}

TEST(Bounds, NothingCriticalAtLargeII) {
  const LoopBody Body = buildSampleLoop();
  const auto Critical = markCriticalOps(Body, machine(), /*II=*/100);
  for (const Operation &Op : Body.Ops)
    EXPECT_FALSE(Critical[static_cast<size_t>(Op.Id)]);
}

TEST(Lifetimes, Figure4LiveVector) {
  // Reconstruct Figure 4: x defined at 0 with lifetime 5, y defined at 1
  // with lifetime 3, II = 2 -> LiveVector <4,4>.
  const LoopBody Body = buildSampleLoop();

  // Hand-build the paper's schedule: x-fadd at 0, y-fadd at 1; place the
  // rest where they do not affect the x/y lifetimes under scrutiny.
  std::vector<int> Times(static_cast<size_t>(Body.numOps()), 0);
  int XOp = -1, YOp = -1;
  for (const Value &V : Body.Values) {
    if (V.Name == "x")
      XOp = V.Def;
    if (V.Name == "y")
      YOp = V.Def;
  }
  ASSERT_GE(XOp, 0);
  ASSERT_GE(YOp, 0);
  Times[static_cast<size_t>(XOp)] = 0;
  Times[static_cast<size_t>(YOp)] = 1;
  // Stores read x and y at omega 0; schedule them right after definition so
  // they do not extend the lifetimes beyond the recurrence reads.
  for (const Operation &Op : Body.Ops)
    if (Op.Opc == Opcode::Store)
      Times[static_cast<size_t>(Op.Id)] =
          Times[static_cast<size_t>(Body.value(Op.Operands[1].Value).Def)] +
          1;

  const PressureInfo Info = computePressure(Body, Times, /*II=*/2,
                                            RegClass::RR);
  // x: defined 0, last use x@2 by y-fadd at 1 -> end 1 + 2*2 = 5.
  int XVal = -1, YVal = -1;
  for (const Value &V : Body.Values) {
    if (V.Name == "x")
      XVal = V.Id;
    if (V.Name == "y")
      YVal = V.Id;
  }
  EXPECT_EQ(Info.Length[static_cast<size_t>(XVal)], 5);
  // y: defined 1, last use y@2 by x-fadd at 0 -> end 0 + 4 = 4, length 3.
  EXPECT_EQ(Info.Length[static_cast<size_t>(YVal)], 3);
}

TEST(Lifetimes, LiveVectorWrapsModulo) {
  // One value with lifetime 5 at II=2 occupies columns <3,2>.
  LoopBody Body;
  IRBuilder B(Body);
  const int X = B.declareValue(RegClass::RR, "x");
  B.defineValue(X, Opcode::FloatAdd, {Use{X, 1}, Use{X, 5}});
  B.setSeeds(X, {0, 0, 0, 0, 0});
  B.finish();

  std::vector<int> Times(static_cast<size_t>(Body.numOps()), 0);
  // Def at 0; last use omega 5 by itself at 0 -> end 5*II... use II=2:
  // lifetime = 0 + 5*2 - 0 = 10 -> full columns.
  const PressureInfo Info = computePressure(Body, Times, 2, RegClass::RR);
  EXPECT_EQ(Info.Length[static_cast<size_t>(X)], 10);
  EXPECT_EQ(Info.LiveVector[0], 5);
  EXPECT_EQ(Info.LiveVector[1], 5);
  EXPECT_EQ(Info.MaxLive, 5);
  EXPECT_DOUBLE_EQ(Info.AvgLive, 5.0);
}

TEST(Lifetimes, MinLTForAccumulator) {
  // dot product: s = s + p. MinLT(s) = omega*II + MinDist(def,def) = II.
  const LoopBody Body = buildDotLoop();
  const DepGraph Graph(Body, machine());
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 4));
  int S = -1;
  for (const Value &V : Body.Values)
    if (V.Name == "s")
      S = V.Id;
  ASSERT_GE(S, 0);
  EXPECT_EQ(computeMinLT(Graph, M, S), 4);
}

TEST(Lifetimes, MinLTLowerBoundsActualLifetime) {
  // For any valid schedule, each value's lifetime >= MinLT.
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const int II = 2;
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, II));

  // Produce a legal schedule by taking Estart times (ASAP), which satisfies
  // dependences by construction of MinDist (resources ignored: lifetimes
  // do not care).
  std::vector<int> Times(static_cast<size_t>(Body.numOps()));
  for (int X = 0; X < Body.numOps(); ++X)
    Times[static_cast<size_t>(X)] =
        static_cast<int>(M.at(Body.startOp(), X));

  const PressureInfo Info = computePressure(Body, Times, II, RegClass::RR);
  for (const Value &V : Body.Values) {
    if (V.Class != RegClass::RR)
      continue;
    if (Info.Length[static_cast<size_t>(V.Id)] == 0)
      continue; // unused
    EXPECT_GE(Info.Length[static_cast<size_t>(V.Id)],
              computeMinLT(Graph, M, V.Id))
        << V.Name;
  }
}

TEST(Lifetimes, MinLTMatchesAllArcsReference) {
  for (const LoopBody &Body : buildKernelSuite())
    expectMinLTMatchesAllArcs(Body);
  const std::vector<LoopBody> Oracle =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/20,
                       /*Seed=*/0xD1FF, /*Jobs=*/1);
  ASSERT_EQ(Oracle.size(), 200u);
  for (const LoopBody &Body : Oracle)
    expectMinLTMatchesAllArcs(Body);
}

TEST(Lifetimes, MinAvgCountsOnlyRRValues) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, machine());
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 3));
  const long MinAvg = computeMinAvg(Graph, M);
  EXPECT_GT(MinAvg, 0);
  // Loads are live for >= 13 cycles at II=3 -> each contributes >= 5;
  // two loads alone give >= 10.
  EXPECT_GE(MinAvg, 10);
}

TEST(Lifetimes, GprCount) {
  const LoopBody Daxpy = buildDaxpyLoop();
  // "a" plus the shared stride constant 4... addressStream uses constant
  // strides (deduplicated), so: a, #0 (stride).
  EXPECT_EQ(countGprs(Daxpy), 2);
}
