//===----------------------------------------------------------------------===//
/// \file Unit tests for the embedded CDCL solver on hand-written CNF —
/// satisfiable and unsatisfiable instances, unit propagation, incremental
/// clause addition, model enumeration via blocking clauses, budget
/// exhaustion, and bit-for-bit determinism — plus basic checks of the SAT
/// modulo-scheduling encoder on the kernel suite.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "cgra/CgraModel.h"
#include "core/FuAssignment.h"
#include "core/Validate.h"
#include "sat/CgraSat.h"
#include "sat/MaxLiveSat.h"
#include "sat/SatScheduler.h"
#include "sat/SatSolver.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace lsms;

namespace {

/// Adds the clause {Ls...} to \p S; convenience for literal lists.
bool add(SatSolver &S, std::initializer_list<Lit> Ls) {
  return S.addClause(std::vector<Lit>(Ls));
}

/// Pigeonhole principle PHP(Pigeons, Holes): unsatisfiable whenever
/// Pigeons > Holes, and known to require genuine conflict-driven search —
/// no polynomial resolution proof exists.
void encodePigeonhole(SatSolver &S, int Pigeons, int Holes) {
  std::vector<std::vector<int>> Var(static_cast<size_t>(Pigeons),
                                    std::vector<int>(static_cast<size_t>(Holes)));
  for (int P = 0; P < Pigeons; ++P)
    for (int H = 0; H < Holes; ++H)
      Var[static_cast<size_t>(P)][static_cast<size_t>(H)] = S.newVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> AtLeastOne;
    for (int H = 0; H < Holes; ++H)
      AtLeastOne.push_back(
          mkLit(Var[static_cast<size_t>(P)][static_cast<size_t>(H)]));
    S.addClause(AtLeastOne);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P = 0; P < Pigeons; ++P)
      for (int Q = P + 1; Q < Pigeons; ++Q)
        add(S, {mkLit(Var[static_cast<size_t>(P)][static_cast<size_t>(H)], true),
                mkLit(Var[static_cast<size_t>(Q)][static_cast<size_t>(H)], true)});
}

} // namespace

TEST(SatSolver, EmptyFormulaIsSat) {
  SatSolver S;
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolver, UnitClauseFixesModel) {
  SatSolver S;
  const int X = S.newVar();
  const int Y = S.newVar();
  ASSERT_TRUE(add(S, {mkLit(X)}));
  ASSERT_TRUE(add(S, {mkLit(Y, true)}));
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_FALSE(S.modelValue(Y));
}

TEST(SatSolver, ContradictoryUnitsAreUnsatAtRoot) {
  SatSolver S;
  const int X = S.newVar();
  ASSERT_TRUE(add(S, {mkLit(X)}));
  EXPECT_FALSE(add(S, {mkLit(X, true)}));
  EXPECT_FALSE(S.okay());
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, UnitPropagationChain) {
  // x0 and a chain x_i -> x_{i+1}: pure propagation, zero decisions needed
  // beyond the first solve-loop pass.
  SatSolver S;
  constexpr int N = 32;
  std::vector<int> X;
  for (int I = 0; I < N; ++I)
    X.push_back(S.newVar());
  ASSERT_TRUE(add(S, {mkLit(X[0])}));
  for (int I = 0; I + 1 < N; ++I)
    ASSERT_TRUE(add(S, {mkLit(X[static_cast<size_t>(I)], true),
                        mkLit(X[static_cast<size_t>(I) + 1])}));
  ASSERT_EQ(S.solve(), SatResult::Sat);
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(S.modelValue(X[static_cast<size_t>(I)])) << "x" << I;
  EXPECT_EQ(S.stats().Conflicts, 0);
}

TEST(SatSolver, TautologyAndDuplicatesAreNormalized) {
  SatSolver S;
  const int X = S.newVar();
  const int Y = S.newVar();
  ASSERT_TRUE(add(S, {mkLit(X), mkLit(X, true)})); // tautology: dropped
  EXPECT_EQ(S.numClauses(), 0);
  ASSERT_TRUE(add(S, {mkLit(Y), mkLit(Y)})); // collapses to unit y
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(Y));
}

TEST(SatSolver, PigeonholeIsUnsat) {
  SatSolver S;
  encodePigeonhole(S, 5, 4);
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0);
}

TEST(SatSolver, SatisfiablePigeonholeFindsInjection) {
  SatSolver S;
  encodePigeonhole(S, 4, 4);
  ASSERT_EQ(S.solve(), SatResult::Sat);
  // The model must place each pigeon in a distinct hole.
  std::vector<int> HoleOf(4, -1);
  for (int P = 0; P < 4; ++P) {
    int Count = 0;
    for (int H = 0; H < 4; ++H)
      if (S.modelValue(P * 4 + H)) {
        HoleOf[static_cast<size_t>(P)] = H;
        ++Count;
      }
    EXPECT_GE(Count, 1) << "pigeon " << P << " unplaced";
  }
  for (int P = 0; P < 4; ++P)
    for (int Q = P + 1; Q < 4; ++Q)
      EXPECT_NE(HoleOf[static_cast<size_t>(P)], HoleOf[static_cast<size_t>(Q)]);
}

TEST(SatSolver, BudgetExhaustionReturnsUnknown) {
  SatSolver S;
  encodePigeonhole(S, 6, 5);
  EXPECT_EQ(S.solve(/*ConflictBudget=*/1), SatResult::Unknown);
  // The instance stays decidable afterwards.
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, BlockingClauseEnumerationCountsModels) {
  // 3 free variables: blocking each model must yield exactly 8 models and
  // then Unsat — exercises incremental clause addition between solves.
  SatSolver S;
  const int A = S.newVar(), B = S.newVar(), C = S.newVar();
  int Models = 0;
  while (S.solve() == SatResult::Sat) {
    ++Models;
    ASSERT_LE(Models, 8);
    std::vector<Lit> Block;
    for (int V : {A, B, C})
      Block.push_back(mkLit(V, S.modelValue(V)));
    if (!S.addClause(Block))
      break;
  }
  EXPECT_EQ(Models, 8);
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(SatSolver, DeterministicAcrossIdenticalRuns) {
  auto run = [](SatSolverStats &Stats, std::vector<bool> &Model) {
    SatSolver S;
    encodePigeonhole(S, 5, 5);
    // Skew activities with an extra constraint web so the heap order is
    // exercised: forbid the diagonal.
    for (int P = 0; P < 5; ++P)
      S.addClause({mkLit(P * 5 + P, true)});
    EXPECT_EQ(S.solve(), SatResult::Sat);
    Stats = S.stats();
    for (int V = 0; V < S.numVars(); ++V)
      Model.push_back(S.modelValue(V));
  };
  SatSolverStats S1, S2;
  std::vector<bool> M1, M2;
  run(S1, M1);
  run(S2, M2);
  EXPECT_EQ(M1, M2);
  EXPECT_EQ(S1.Decisions, S2.Decisions);
  EXPECT_EQ(S1.Conflicts, S2.Conflicts);
  EXPECT_EQ(S1.Propagations, S2.Propagations);
  EXPECT_EQ(S1.Restarts, S2.Restarts);
  EXPECT_EQ(S1.Learned, S2.Learned);
}

TEST(SatSolver, LearnedClauseDeletionKeepsSoundness) {
  // Big enough satisfiable instance to trip restarts and reduceDB while
  // still finishing fast; the verdict must stay correct.
  SatSolver S;
  encodePigeonhole(S, 8, 8);
  EXPECT_EQ(S.solve(), SatResult::Sat);
  SatSolver U;
  encodePigeonhole(U, 9, 8);
  EXPECT_EQ(U.solve(), SatResult::Unsat);
}

//===----------------------------------------------------------------------===//
// Encoder basics (the full cross-engine sweep lives in cross_engine_test).
//===----------------------------------------------------------------------===//

namespace {

/// Runs the SAT engine at a fixed II, returning the status and (on
/// Scheduled) asserting the decoded schedule is validator-clean.
SatScheduleStatus satAt(const DepGraph &Graph, int II, long Budget,
                        SatEngineStats &Stats) {
  MinDistMatrix MinDist;
  if (!MinDist.compute(Graph, II))
    return SatScheduleStatus::Infeasible;
  const std::vector<int> FuInstance =
      assignFunctionalUnits(Graph.body(), Graph.machine());
  std::vector<int> Times;
  const SatScheduleStatus St =
      scheduleAtIISat(Graph, MinDist, FuInstance, Budget, Times, Stats);
  if (St == SatScheduleStatus::Scheduled) {
    Schedule Sched;
    Sched.Success = true;
    Sched.II = II;
    Sched.Times = Times;
    EXPECT_EQ(validateSchedule(Graph, Sched), "")
        << Graph.body().Name << " II=" << II;
  }
  return St;
}

} // namespace

TEST(SatScheduler, KernelSuiteSchedulableAtSomeII) {
  const MachineModel Machine = MachineModel::cydra5();
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, Machine);
    const MIIBounds Bounds = computeMII(Graph);
    bool Scheduled = false;
    for (int II = Bounds.MII; II <= Bounds.MII + 8 && !Scheduled; ++II) {
      SatEngineStats Stats;
      const SatScheduleStatus St = satAt(Graph, II, 1L << 18, Stats);
      ASSERT_NE(St, SatScheduleStatus::Budget) << Body.Name << " II=" << II;
      Scheduled = St == SatScheduleStatus::Scheduled;
    }
    EXPECT_TRUE(Scheduled) << Body.Name;
  }
}

TEST(SatScheduler, BelowRecMIIIsInfeasible) {
  const MachineModel Machine = MachineModel::cydra5();
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph(Body, Machine);
  const MIIBounds Bounds = computeMII(Graph);
  ASSERT_GT(Bounds.RecMII, 1);
  SatEngineStats Stats;
  EXPECT_EQ(satAt(Graph, Bounds.RecMII - 1, 1L << 18, Stats),
            SatScheduleStatus::Infeasible);
}

TEST(SatScheduler, ZeroBudgetGivesUpImmediately) {
  const MachineModel Machine = MachineModel::cydra5();
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, Machine);
  const MIIBounds Bounds = computeMII(Graph);
  SatEngineStats Stats;
  EXPECT_EQ(satAt(Graph, Bounds.MII, /*Budget=*/0, Stats),
            SatScheduleStatus::Budget);
}

TEST(SatScheduler, NegativeBudgetGivesUpBeforeSearch) {
  // One budget rule for every SAT entry point: a budget <= 0 reports the
  // budget outcome without a single decision or conflict.
  const LoopBody Body = buildSampleLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  MinDistMatrix MinDist;
  ASSERT_TRUE(MinDist.compute(Graph, computeMII(Graph).MII));
  const std::vector<int> FuInstance = assignFunctionalUnits(Body, Machine);
  std::vector<int> Times, Pes;
  SatEngineStats Stats;
  EXPECT_EQ(scheduleAtIISat(Graph, MinDist, FuInstance, /*Budget=*/-1,
                            Times, Stats),
            SatScheduleStatus::Budget);
  EXPECT_EQ(Stats.Decisions + Stats.Conflicts, 0);

  const SatMaxLiveResult MaxLive =
      minimizeMaxLiveSat(Graph, MinDist, FuInstance, /*ConflictBudget=*/-1,
                         /*MinAvg=*/0, /*UpperCap=*/1000);
  EXPECT_FALSE(MaxLive.SearchComplete);
  EXPECT_EQ(MaxLive.FamilyMin, -1);
  EXPECT_EQ(MaxLive.Stats.Decisions + MaxLive.Stats.Conflicts, 0);

  const CgraModel Cgra = CgraModel::defaultGrid(4, 4);
  const DepGraph Spatial(Body, Cgra.flatModel());
  MinDistMatrix SpatialDist;
  ASSERT_TRUE(SpatialDist.compute(Spatial, computeMII(Spatial).MII));
  SatEngineStats SpatialStats;
  EXPECT_EQ(mapAtIICgraSat(Spatial, Cgra, SpatialDist, /*Budget=*/-1, Times,
                           Pes, SpatialStats),
            CgraSatStatus::Budget);
  EXPECT_EQ(SpatialStats.Decisions + SpatialStats.Conflicts, 0);
}

TEST(SatScheduler, StatsArePopulated) {
  const MachineModel Machine = MachineModel::cydra5();
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, Machine);
  const MIIBounds Bounds = computeMII(Graph);
  for (int II = Bounds.MII; II <= Bounds.MII + 8; ++II) {
    SatEngineStats Stats;
    if (satAt(Graph, II, 1L << 18, Stats) == SatScheduleStatus::Scheduled) {
      EXPECT_GT(Stats.Variables, 0);
      EXPECT_GT(Stats.Clauses, 0);
      return;
    }
  }
  FAIL() << "sample loop never scheduled";
}
