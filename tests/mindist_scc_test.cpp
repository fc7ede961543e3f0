//===----------------------------------------------------------------------===//
/// \file Differential tests for the SCC-decomposed MinDist closure against
/// a dense Floyd-Warshall reference kept here. The max-plus transitive
/// closure is unique, so the two must agree entry for entry on every graph
/// and II -- including below RecMII, where both must reject the positive
/// cycle. The sweeps reuse one matrix object across ascending IIs per
/// graph, as the II retry loops do, and the reuse tests move one matrix
/// between graphs: the relation depends on the graph and II alone, never
/// on what the matrix computed before. The reach lists built from each
/// matrix must list exactly its connected pairs.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "graph/MinDist.h"
#include "ir/DepGraph.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>

namespace lsms {
namespace {

/// Reference: dense max-plus Floyd-Warshall over all operations. Fills
/// \p Out (row-major, MinDistMatrix::NoPath when unconnected) and returns
/// false when II admits a positive cycle.
bool denseMinDist(const DepGraph &Graph, int II, std::vector<long> &Out) {
  const int N = Graph.numOps();
  const size_t NN = static_cast<size_t>(N);
  constexpr long NoPath = MinDistMatrix::NoPath;
  Out.assign(NN * NN, NoPath);
  const auto At = [&Out, NN](int X, int Y) -> long & {
    return Out[static_cast<size_t>(X) * NN + static_cast<size_t>(Y)];
  };
  for (const DepArc &Arc : Graph.arcs()) {
    const long W = static_cast<long>(Arc.Latency) -
                   static_cast<long>(II) * static_cast<long>(Arc.Omega);
    At(Arc.Src, Arc.Dst) = std::max(At(Arc.Src, Arc.Dst), W);
  }
  for (int X = 0; X < N; ++X)
    At(X, X) = std::max(At(X, X), 0L);
  for (int K = 0; K < N; ++K)
    for (int X = 0; X < N; ++X) {
      const long XK = At(X, K);
      if (XK == NoPath)
        continue;
      for (int Y = 0; Y < N; ++Y)
        if (At(K, Y) != NoPath)
          At(X, Y) = std::max(At(X, Y), XK + At(K, Y));
    }
  for (int X = 0; X < N; ++X)
    if (At(X, X) > 0)
      return false;
  return true;
}

/// Compares \p Fast, just computed at \p II, with the dense reference.
void expectEqualsDense(const MinDistMatrix &Fast, bool FastOk,
                       const DepGraph &Graph, int II,
                       const std::string &Name) {
  std::vector<long> Dense;
  ASSERT_EQ(FastOk, denseMinDist(Graph, II, Dense))
      << Name << " II=" << II << ": feasibility verdicts differ";
  if (!FastOk)
    return;
  const int N = Graph.numOps();
  ASSERT_EQ(Fast.numOps(), N) << Name;
  for (int X = 0; X < N; ++X)
    for (int Y = 0; Y < N; ++Y)
      ASSERT_EQ(Fast.at(X, Y),
                Dense[static_cast<size_t>(X) * static_cast<size_t>(N) +
                      static_cast<size_t>(Y)])
          << Name << " II=" << II << " MinDist(" << X << "," << Y << ")";
}

/// Compares the SCC closure against the dense reference for every II in
/// [max(1, MII-1), MII+3]. Starting below MII exercises return-value parity
/// on positive-cycle rejection; one \p Fast matrix serves every II, as it
/// does on a retry ladder.
void expectMatchesDense(const LoopBody &Body, const MachineModel &Machine) {
  const DepGraph Graph(Body, Machine);
  const MIIBounds Bounds = computeMII(Graph);
  MinDistMatrix Fast;
  for (int II = std::max(1, Bounds.MII - 1); II <= Bounds.MII + 3; ++II) {
    expectEqualsDense(Fast, Fast.compute(Graph, II), Graph, II, Body.Name);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

/// At every rung from MII to MII+3, one ReachLists object rebuilt from the
/// rung's matrix lists, for each x, exactly the y != x it reaches and
/// those reaching it, in ascending order, with the matrix's distances.
void expectReachListsMatchMatrix(const LoopBody &Body,
                                 const MachineModel &Machine) {
  const DepGraph Graph(Body, Machine);
  const int MII = computeMII(Graph).MII;
  MinDistMatrix MinDist;
  ReachLists Reach;
  for (int II = MII; II <= MII + 3; ++II) {
    ASSERT_TRUE(MinDist.compute(Graph, II)) << Body.Name;
    Reach.build(MinDist);
    const int N = MinDist.numOps();
    for (int X = 0; X < N; ++X) {
      std::vector<ReachLists::Entry> Succs, Preds;
      for (int Y = 0; Y < N; ++Y) {
        if (Y == X)
          continue;
        if (MinDist.connected(X, Y))
          Succs.push_back({Y, MinDist.at(X, Y)});
        if (MinDist.connected(Y, X))
          Preds.push_back({Y, MinDist.at(Y, X)});
      }
      const auto Same = [](std::span<const ReachLists::Entry> Got,
                           const std::vector<ReachLists::Entry> &Want) {
        return std::equal(Got.begin(), Got.end(), Want.begin(), Want.end(),
                          [](const ReachLists::Entry &A,
                             const ReachLists::Entry &B) {
                            return A.Op == B.Op && A.Dist == B.Dist;
                          });
      };
      ASSERT_TRUE(Same(Reach.succs(X), Succs))
          << Body.Name << " II=" << II << " succs of " << X;
      ASSERT_TRUE(Same(Reach.preds(X), Preds))
          << Body.Name << " II=" << II << " preds of " << X;
    }
  }
}

TEST(MinDistSccTest, KernelSuiteMatchesDense) {
  const MachineModel Machine = MachineModel::cydra5();
  for (const LoopBody &Body : buildKernelSuite())
    expectMatchesDense(Body, Machine);
}

TEST(MinDistSccTest, RandomLoopsMatchDense) {
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/20,
                       /*Seed=*/0xD1FF, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 200u);
  for (const LoopBody &Body : Suite)
    expectMatchesDense(Body, Machine);
}

TEST(MinDistSccTest, KernelReachListsMatchMatrix) {
  const MachineModel Machine = MachineModel::cydra5();
  for (const LoopBody &Body : buildKernelSuite())
    expectReachListsMatchMatrix(Body, Machine);
}

TEST(MinDistSccTest, RandomLoopReachListsMatchMatrix) {
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/20,
                       /*Seed=*/0xD1FF, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 200u);
  for (const LoopBody &Body : Suite)
    expectReachListsMatchMatrix(Body, Machine);
}

TEST(MinDistSccTest, CacheSurvivesGraphSwitch) {
  // One matrix alternating between different graphs, at different IIs,
  // must give each graph its own relation.
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/4, /*MinOps=*/4, /*MaxOps=*/16,
                       /*Seed=*/0xCAFE, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 4u);
  std::vector<DepGraph> Graphs;
  Graphs.reserve(Suite.size());
  for (const LoopBody &Body : Suite)
    Graphs.emplace_back(Body, Machine);

  MinDistMatrix Fast;
  for (int Round = 0; Round < 2; ++Round) {
    for (const DepGraph &Graph : Graphs) {
      const int II = computeMII(Graph).MII + Round;
      expectEqualsDense(Fast, Fast.compute(Graph, II), Graph, II,
                        Graph.body().Name);
    }
  }
}

TEST(MinDistSccTest, MatrixReusedForGraphRebuiltInPlace) {
  // A graph rebuilt in the same storage, with the same op and arc counts,
  // is still another graph: recomputing at the same II must give the new
  // graph's relation, not the old one's.
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/40, /*MinOps=*/4, /*MaxOps=*/16,
                       /*Seed=*/0xCAFE, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 40u);
  std::vector<size_t> NumArcs;
  std::vector<int> MIIs;
  for (const LoopBody &Body : Suite) {
    const DepGraph Graph(Body, Machine);
    NumArcs.push_back(Graph.arcs().size());
    MIIs.push_back(computeMII(Graph).MII);
  }

  // The first pair of equal size whose relations differ at a common II.
  size_t First = 0, Second = 0;
  int II = 0;
  for (size_t A = 0; A < Suite.size() && Second == 0; ++A)
    for (size_t B = A + 1; B < Suite.size() && Second == 0; ++B) {
      if (Suite[A].numOps() != Suite[B].numOps() || NumArcs[A] != NumArcs[B])
        continue;
      const int Common = std::max(MIIs[A], MIIs[B]);
      std::vector<long> DenseA, DenseB;
      ASSERT_TRUE(denseMinDist(DepGraph(Suite[A], Machine), Common, DenseA));
      ASSERT_TRUE(denseMinDist(DepGraph(Suite[B], Machine), Common, DenseB));
      if (DenseA != DenseB) {
        First = A;
        Second = B;
        II = Common;
      }
    }
  ASSERT_NE(Second, 0u) << "no equal-size pair with different relations";

  std::optional<DepGraph> Graph;
  MinDistMatrix Fast;
  Graph.emplace(Suite[First], Machine);
  ASSERT_TRUE(Fast.compute(*Graph, II));
  Graph.emplace(Suite[Second], Machine);
  expectEqualsDense(Fast, Fast.compute(*Graph, II), *Graph, II,
                    Suite[Second].Name);
}

} // namespace
} // namespace lsms
