//===----------------------------------------------------------------------===//
/// \file Unit tests for SCCs, circuit enumeration, min-ratio RecMII, and
/// the MinDist relation. The per-component RecMII search is checked
/// against two references kept here: Johnson's circuit enumeration
/// (Circuits.h) and the whole-graph Bellman-Ford binary search.
//===----------------------------------------------------------------------===//

#include "Circuits.h"
#include "graph/MinDist.h"
#include "graph/MinRatioCycle.h"
#include "graph/Scc.h"
#include "ir/IRBuilder.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel Machine = MachineModel::cydra5();
  return Machine;
}

DepGraph makeGraph(const LoopBody &Body) { return DepGraph(Body, machine()); }

/// Reference: true when the arc weights latency - II*omega admit a
/// positive-weight cycle anywhere in the graph. Longest-path relaxation
/// from all sources at once, N passes over every arc.
bool hasPositiveCycle(const DepGraph &Graph, int II) {
  const int N = Graph.numOps();
  std::vector<long> Dist(static_cast<size_t>(N), 0);
  for (int Pass = 0; Pass < N; ++Pass) {
    bool Changed = false;
    for (const DepArc &Arc : Graph.arcs()) {
      const long W = static_cast<long>(Arc.Latency) -
                     static_cast<long>(II) * static_cast<long>(Arc.Omega);
      if (Dist[static_cast<size_t>(Arc.Src)] + W >
          Dist[static_cast<size_t>(Arc.Dst)]) {
        Dist[static_cast<size_t>(Arc.Dst)] =
            Dist[static_cast<size_t>(Arc.Src)] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

/// Reference: the smallest II >= 0 without a positive cycle, by binary
/// search over the whole graph up to its total latency.
int recMIIWholeGraph(const DepGraph &Graph) {
  long Hi = 1;
  for (const DepArc &Arc : Graph.arcs())
    Hi += std::max(0, Arc.Latency);
  EXPECT_FALSE(hasPositiveCycle(Graph, static_cast<int>(Hi)));
  long Lo = 0;
  while (Lo < Hi) {
    const long Mid = Lo + (Hi - Lo) / 2;
    if (hasPositiveCycle(Graph, static_cast<int>(Mid)))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return static_cast<int>(Lo);
}

void expectRecMIIMatchesWholeGraph(const std::vector<LoopBody> &Loops) {
  for (const LoopBody &Body : Loops) {
    const DepGraph Graph = makeGraph(Body);
    ASSERT_EQ(computeRecMIIByRatio(Graph), recMIIWholeGraph(Graph))
        << Body.Name;
  }
}

/// One extra arc between two of buildArcLoop's adds.
struct ArcSpec {
  int Src, Dst, Latency, Omega;
};

/// \p NumAdds adds on loop invariants (so no flow arc joins them), joined
/// only by \p Arcs. \p AddOps receives each add's operation id.
LoopBody buildArcLoop(int NumAdds, const std::vector<ArcSpec> &Arcs,
                      std::vector<int> &AddOps) {
  LoopBody Body;
  Body.Name = "arcs";
  IRBuilder B(Body);
  const int C = B.constant(1.0);
  AddOps.clear();
  for (int I = 0; I < NumAdds; ++I) {
    const int V = B.emitValue(Opcode::FloatAdd, {Use{C, 0}, Use{C, 0}},
                              "a" + std::to_string(I));
    B.markLiveOut(V);
    AddOps.push_back(Body.value(V).Def);
  }
  for (const ArcSpec &A : Arcs)
    B.addMemDep(AddOps[static_cast<size_t>(A.Src)],
                AddOps[static_cast<size_t>(A.Dst)], DepKind::Extra, A.Latency,
                A.Omega);
  B.finish();
  return Body;
}

} // namespace

TEST(Scc, SampleLoopHasOneTwoOpComponent) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  const SccInfo Sccs = computeSccs(Graph);

  int OnRec = 0;
  for (const Operation &Op : Body.Ops)
    if (Sccs.OnRecurrence[static_cast<size_t>(Op.Id)])
      ++OnRec;
  // Exactly the two mutually recurrent fadds (address self-loops are
  // trivial circuits and do not count).
  EXPECT_EQ(OnRec, 2);
}

TEST(Scc, StraightLineLoopHasNoRecurrences) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph = makeGraph(Body);
  const SccInfo Sccs = computeSccs(Graph);
  for (const Operation &Op : Body.Ops)
    EXPECT_FALSE(Sccs.OnRecurrence[static_cast<size_t>(Op.Id)]) << Op.Name;
}

TEST(Circuits, SampleLoopCircuits) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  const CircuitScan Scan = findElementaryCircuits(Graph);
  EXPECT_FALSE(Scan.Truncated);

  // Self-loops: x->x, y->y, ax->ax, ay->ay. Two-node circuit: x<->y.
  int SelfLoops = 0, TwoNode = 0;
  for (const Circuit &C : Scan.Circuits) {
    if (C.Nodes.size() == 1)
      ++SelfLoops;
    if (C.Nodes.size() == 2)
      ++TwoNode;
  }
  EXPECT_EQ(SelfLoops, 4);
  EXPECT_EQ(TwoNode, 1);
}

TEST(Circuits, CircuitScanMatchesRatioAlgorithm) {
  for (const LoopBody &Body :
       {buildSampleLoop(), buildDotLoop(), buildLinearRecurrenceLoop(),
        buildDivideLoop()}) {
    const DepGraph Graph = makeGraph(Body);
    const CircuitScan Scan = findElementaryCircuits(Graph);
    ASSERT_FALSE(Scan.Truncated);
    int ByScan = 0;
    for (const Circuit &C : Scan.Circuits)
      ByScan = std::max(ByScan, circuitRecMII(Graph, C.Nodes));
    const int ByRatio = computeRecMIIByRatio(Graph);
    EXPECT_EQ(ByScan, ByRatio) << Body.Name;
  }
}

TEST(MinRatioCycle, LinearRecurrenceRecMII) {
  // x(i) = a*x(i-1) + b: fmul(2) + fadd(1) over omega 1 -> RecMII 3.
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph = makeGraph(Body);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 3);
}

TEST(MinRatioCycle, SampleLoopRecMII) {
  // x<->y: two fadds (lat 1 each) over omega 4 -> ceil(2/4) = 1;
  // self-recurrences: lat 1 over omega 1 -> 1.
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 1);
}

TEST(MinRatioCycle, SccSearchMatchesWholeGraphOnKernels) {
  expectRecMIIMatchesWholeGraph(buildKernelSuite());
}

TEST(MinRatioCycle, SccSearchMatchesWholeGraphOnPaperSuite) {
  const std::vector<LoopBody> Suite = buildFullSuite();
  ASSERT_EQ(Suite.size(), 1525u);
  expectRecMIIMatchesWholeGraph(Suite);
}

TEST(MinRatioCycle, SccSearchMatchesWholeGraphOnRandomLoops) {
  std::vector<LoopBody> Loops;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    Loops.push_back(generateRandomLoop(Seed));
  expectRecMIIMatchesWholeGraph(Loops);
}

TEST(MinRatioCycle, SccSearchMatchesWholeGraphOnIrregularLoops) {
  const std::vector<LoopBody> Loops =
      buildIrregularSuite(/*Count=*/200, /*MaxOps=*/40, /*Seed=*/0x5CC,
                          /*Jobs=*/1);
  ASSERT_EQ(Loops.size(), 200u);
  expectRecMIIMatchesWholeGraph(Loops);
}

TEST(MinRatioCycle, LargerBoundInALaterComponent) {
  // {a0,a1}: latency 2 over omega 1 -> 2. {a2,a3}: 10 over 1 -> 10, in
  // the later-numbered component, so the search must raise the bound the
  // first component gave.
  std::vector<int> Ops;
  const LoopBody Body = buildArcLoop(
      4, {{0, 1, 1, 0}, {1, 0, 1, 1}, {2, 3, 5, 0}, {3, 2, 5, 1}}, Ops);
  const DepGraph Graph = makeGraph(Body);
  const SccInfo Sccs = computeSccs(Graph);
  ASSERT_LT(Sccs.Component[static_cast<size_t>(Ops[0])],
            Sccs.Component[static_cast<size_t>(Ops[2])]);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 10);
  EXPECT_EQ(recMIIWholeGraph(Graph), 10);
}

TEST(MinRatioCycle, SmallerBoundInALaterComponent) {
  std::vector<int> Ops;
  const LoopBody Body = buildArcLoop(
      4, {{0, 1, 5, 0}, {1, 0, 5, 1}, {2, 3, 1, 0}, {3, 2, 1, 1}}, Ops);
  const DepGraph Graph = makeGraph(Body);
  const SccInfo Sccs = computeSccs(Graph);
  ASSERT_LT(Sccs.Component[static_cast<size_t>(Ops[0])],
            Sccs.Component[static_cast<size_t>(Ops[2])]);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 10);
  EXPECT_EQ(recMIIWholeGraph(Graph), 10);
}

TEST(MinRatioCycle, OneOpComponentWithOnlySelfArcs) {
  // a2 is a component of its own whose only arcs are two self-arcs:
  // ceil(7/2) = 4 beats 3/1 and the 2 of {a0,a1} before it.
  std::vector<int> Ops;
  const LoopBody Body = buildArcLoop(
      3, {{0, 1, 1, 0}, {1, 0, 1, 1}, {2, 2, 7, 2}, {2, 2, 3, 1}}, Ops);
  const DepGraph Graph = makeGraph(Body);
  const SccInfo Sccs = computeSccs(Graph);
  ASSERT_EQ(Sccs.Size[static_cast<size_t>(
                Sccs.Component[static_cast<size_t>(Ops[2])])],
            1);
  ASSERT_LT(Sccs.Component[static_cast<size_t>(Ops[0])],
            Sccs.Component[static_cast<size_t>(Ops[2])]);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 4);
  EXPECT_EQ(recMIIWholeGraph(Graph), 4);
}

TEST(MinRatioCycle, ZeroLatencyZeroOmegaArcInsideARecurrence) {
  // a0 -> a1 costs nothing and spans no iteration; the circuit
  // a0 -> a1 -> a2 -> a0 has latency 5 over omega 1.
  std::vector<int> Ops;
  const LoopBody Body =
      buildArcLoop(3, {{0, 1, 0, 0}, {1, 2, 2, 0}, {2, 0, 3, 1}}, Ops);
  const DepGraph Graph = makeGraph(Body);
  EXPECT_EQ(computeRecMIIByRatio(Graph), 5);
  EXPECT_EQ(recMIIWholeGraph(Graph), 5);
}

TEST(MinRatioCycle, PositiveCycleDetection) {
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph = makeGraph(Body);
  EXPECT_TRUE(hasPositiveCycle(Graph, 2));
  EXPECT_FALSE(hasPositiveCycle(Graph, 3));
}

TEST(MinDist, RejectsTooSmallII) {
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M;
  EXPECT_FALSE(M.compute(Graph, 2));
  EXPECT_TRUE(M.compute(Graph, 3));
}

TEST(MinDist, DiagonalIsZeroAtFeasibleII) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 2));
  for (int X = 0; X < M.numOps(); ++X)
    EXPECT_EQ(M.at(X, X), 0);
}

TEST(MinDist, TriangleInequalityOfLongestPaths) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 2));
  const int N = M.numOps();
  for (int X = 0; X < N; ++X)
    for (int Y = 0; Y < N; ++Y)
      for (int Z = 0; Z < N; ++Z) {
        if (!M.connected(X, Y) || !M.connected(Y, Z))
          continue;
        ASSERT_TRUE(M.connected(X, Z));
        EXPECT_GE(M.at(X, Z), M.at(X, Y) + M.at(Y, Z));
      }
}

TEST(MinDist, StartReachesEverythingNonNegative) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 3));
  for (int X = 0; X < M.numOps(); ++X) {
    ASSERT_TRUE(M.connected(Body.startOp(), X));
    EXPECT_GE(M.at(Body.startOp(), X), 0);
  }
}

TEST(MinDist, CriticalPathThroughLoad) {
  // daxpy: load (13) -> fmul (2) -> fadd (1) -> store (1) -> Stop.
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M;
  ASSERT_TRUE(M.compute(Graph, 3));
  // Address add (1) precedes the load, so the span to Stop is
  // 1 + 13 + 2 + 1 + 1 = 18.
  EXPECT_EQ(M.at(Body.startOp(), Body.stopOp()), 18);
}

TEST(MinDist, HigherIILoosensRecurrenceDistances) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);
  MinDistMatrix M2, M5;
  ASSERT_TRUE(M2.compute(Graph, 2));
  ASSERT_TRUE(M5.compute(Graph, 5));
  // Distances along omega-carrying paths shrink as II grows.
  bool SomewhereSmaller = false;
  for (int X = 0; X < M2.numOps(); ++X)
    for (int Y = 0; Y < M2.numOps(); ++Y) {
      if (!M2.connected(X, Y))
        continue;
      ASSERT_TRUE(M5.connected(X, Y));
      EXPECT_LE(M5.at(X, Y), M2.at(X, Y));
      SomewhereSmaller |= M5.at(X, Y) < M2.at(X, Y);
    }
  EXPECT_TRUE(SomewhereSmaller);
}
