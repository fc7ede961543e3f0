//===----------------------------------------------------------------------===//
/// \file Unit tests for the dependence graph's SCC condensation, circuit
/// enumeration, min-ratio RecMII, and the MinDist relation. Three
/// references are kept with the tests: the condensation is checked against
/// a reachability closure, and the per-component RecMII search against
/// Johnson's circuit enumeration (Circuits.h) and the whole-graph
/// Bellman-Ford binary search.
//===----------------------------------------------------------------------===//

#include "Circuits.h"
#include "graph/MinDist.h"
#include "graph/MinRatioCycle.h"
#include "ir/IRBuilder.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
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

bool strictlyAscending(std::span<const int> Ids) {
  return std::adjacent_find(Ids.begin(), Ids.end(),
                            std::greater_equal<int>()) == Ids.end();
}

/// Checks the graph's adjacency and condensation against their
/// definitions on every loop: succArcs(x) lists exactly the arcs leaving x
/// and predArcs(x) exactly those entering x, each ascending; two ops share
/// a component iff each reaches the other, judged by a reachability
/// closure computed here; every arc between components runs from the
/// higher id to the lower; the member buckets partition the ops and the
/// intra and entering buckets partition the arcs by destination
/// component, each ascending; and an op is on a recurrence iff its
/// component has two or more ops.
void expectCondensationHolds(const std::vector<LoopBody> &Loops) {
  for (const LoopBody &Body : Loops) {
    SCOPED_TRACE(Body.Name);
    const DepGraph Graph = makeGraph(Body);
    const int N = Graph.numOps();
    const size_t NN = static_cast<size_t>(N);
    ASSERT_EQ(N, Body.numOps());

    std::vector<int> SuccSeen(Graph.arcs().size(), 0);
    std::vector<int> PredSeen(Graph.arcs().size(), 0);
    for (int X = 0; X < N; ++X) {
      ASSERT_TRUE(strictlyAscending(Graph.succArcs(X)));
      for (int A : Graph.succArcs(X)) {
        ASSERT_EQ(Graph.arc(A).Src, X);
        ++SuccSeen[static_cast<size_t>(A)];
      }
      ASSERT_TRUE(strictlyAscending(Graph.predArcs(X)));
      for (int A : Graph.predArcs(X)) {
        ASSERT_EQ(Graph.arc(A).Dst, X);
        ++PredSeen[static_cast<size_t>(A)];
      }
    }
    ASSERT_EQ(SuccSeen, std::vector<int>(Graph.arcs().size(), 1));
    ASSERT_EQ(PredSeen, std::vector<int>(Graph.arcs().size(), 1));

    // Reaches[x * N + y]: a path of zero or more arcs leads from x to y.
    std::vector<char> Reaches(NN * NN, 0);
    std::vector<int> Work;
    for (int X = 0; X < N; ++X) {
      char *Row = &Reaches[static_cast<size_t>(X) * NN];
      Row[X] = 1;
      Work.assign(1, X);
      while (!Work.empty()) {
        const int Y = Work.back();
        Work.pop_back();
        for (int A : Graph.succArcs(Y))
          if (!Row[Graph.arc(A).Dst]) {
            Row[Graph.arc(A).Dst] = 1;
            Work.push_back(Graph.arc(A).Dst);
          }
      }
    }
    for (int X = 0; X < N; ++X)
      for (int Y = 0; Y < N; ++Y)
        ASSERT_EQ(Graph.component(X) == Graph.component(Y),
                  Reaches[static_cast<size_t>(X) * NN +
                          static_cast<size_t>(Y)] &&
                      Reaches[static_cast<size_t>(Y) * NN +
                              static_cast<size_t>(X)])
            << "ops " << X << " and " << Y;

    for (const DepArc &Arc : Graph.arcs()) {
      if (Graph.component(Arc.Src) != Graph.component(Arc.Dst)) {
        ASSERT_GT(Graph.component(Arc.Src), Graph.component(Arc.Dst));
      }
    }

    std::vector<int> OpSeen(NN, 0);
    std::vector<int> ArcSeen(Graph.arcs().size(), 0);
    for (int C = 0; C < Graph.numComponents(); ++C) {
      const std::span<const int> Members = Graph.members(C);
      ASSERT_FALSE(Members.empty());
      ASSERT_TRUE(strictlyAscending(Members));
      for (size_t I = 0; I < Members.size(); ++I) {
        ASSERT_EQ(Graph.component(Members[I]), C);
        ASSERT_EQ(Graph.memberIndex(Members[I]), static_cast<int>(I));
        ASSERT_EQ(Graph.onRecurrence(Members[I]), Members.size() >= 2);
        ++OpSeen[static_cast<size_t>(Members[I])];
      }
      ASSERT_TRUE(strictlyAscending(Graph.intraArcs(C)));
      for (int A : Graph.intraArcs(C)) {
        ASSERT_EQ(Graph.component(Graph.arc(A).Src), C);
        ASSERT_EQ(Graph.component(Graph.arc(A).Dst), C);
        ++ArcSeen[static_cast<size_t>(A)];
      }
      ASSERT_TRUE(strictlyAscending(Graph.enteringArcs(C)));
      for (int A : Graph.enteringArcs(C)) {
        ASSERT_NE(Graph.component(Graph.arc(A).Src), C);
        ASSERT_EQ(Graph.component(Graph.arc(A).Dst), C);
        ++ArcSeen[static_cast<size_t>(A)];
      }
    }
    ASSERT_EQ(OpSeen, std::vector<int>(NN, 1));
    ASSERT_EQ(ArcSeen, std::vector<int>(Graph.arcs().size(), 1));
  }
}

} // namespace

TEST(Scc, SampleLoopHasOneTwoOpComponent) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph = makeGraph(Body);

  int OnRec = 0;
  for (const Operation &Op : Body.Ops)
    if (Graph.onRecurrence(Op.Id))
      ++OnRec;
  // Exactly the two mutually recurrent fadds (address self-loops are
  // trivial circuits and do not count).
  EXPECT_EQ(OnRec, 2);
}

TEST(Scc, StraightLineLoopHasNoRecurrences) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph = makeGraph(Body);
  for (const Operation &Op : Body.Ops)
    EXPECT_FALSE(Graph.onRecurrence(Op.Id)) << Op.Name;
}

TEST(Scc, CondensationHoldsOnKernels) {
  const std::vector<LoopBody> Kernels = buildKernelSuite();
  ASSERT_EQ(Kernels.size(), 43u);
  expectCondensationHolds(Kernels);
}

TEST(Scc, CondensationHoldsOnPaperSuite) {
  const std::vector<LoopBody> Suite = buildFullSuite();
  ASSERT_EQ(Suite.size(), 1525u);
  expectCondensationHolds(Suite);
}

TEST(Scc, CondensationHoldsOnRandomLoops) {
  std::vector<LoopBody> Loops;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    Loops.push_back(generateRandomLoop(Seed));
  expectCondensationHolds(Loops);
}

TEST(Scc, CondensationHoldsOnIrregularLoops) {
  const std::vector<LoopBody> Loops =
      buildIrregularSuite(/*Count=*/200, /*MaxOps=*/40, /*Seed=*/0x5CC,
                          /*Jobs=*/1);
  ASSERT_EQ(Loops.size(), 200u);
  expectCondensationHolds(Loops);
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
  ASSERT_LT(Graph.component(Ops[0]), Graph.component(Ops[2]));
  EXPECT_EQ(computeRecMIIByRatio(Graph), 10);
  EXPECT_EQ(recMIIWholeGraph(Graph), 10);
}

TEST(MinRatioCycle, SmallerBoundInALaterComponent) {
  std::vector<int> Ops;
  const LoopBody Body = buildArcLoop(
      4, {{0, 1, 5, 0}, {1, 0, 5, 1}, {2, 3, 1, 0}, {3, 2, 1, 1}}, Ops);
  const DepGraph Graph = makeGraph(Body);
  ASSERT_LT(Graph.component(Ops[0]), Graph.component(Ops[2]));
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
  ASSERT_EQ(Graph.members(Graph.component(Ops[2])).size(), 1u);
  ASSERT_LT(Graph.component(Ops[0]), Graph.component(Ops[2]));
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
