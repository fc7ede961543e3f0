//===----------------------------------------------------------------------===//
/// \file Unit tests for the embedded CDCL solver on hand-written CNF —
/// satisfiable and unsatisfiable instances, unit propagation, incremental
/// clause addition, model enumeration via blocking clauses, budget
/// exhaustion, bit-for-bit determinism, the inline watch lists and the
/// three ways of passing a clause — plus basic checks of the SAT
/// modulo-scheduling encoder on the kernel suite, a pin of the search
/// counters over the kernels and oracle loops, and the MaxLive walk's two
/// shortcuts: an empty family and the surely-live column loads.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "cgra/CgraModel.h"
#include "cgra/CgraOracle.h"
#include "core/FuAssignment.h"
#include "core/Validate.h"
#include "exact/ExactEngine.h"
#include "ir/IRBuilder.h"
#include "sat/CgraSat.h"
#include "sat/MaxLiveSat.h"
#include "sat/SatScheduler.h"
#include "sat/SatSolver.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

using namespace lsms;

namespace {

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
      for (int Q = P + 1; Q < Pigeons; ++Q) {
        const size_t HU = static_cast<size_t>(H);
        S.addClause({mkLit(Var[static_cast<size_t>(P)][HU], true),
                     mkLit(Var[static_cast<size_t>(Q)][HU], true)});
      }
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
  ASSERT_TRUE(S.addClause({mkLit(X)}));
  ASSERT_TRUE(S.addClause({mkLit(Y, true)}));
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_FALSE(S.modelValue(Y));
}

TEST(SatSolver, ContradictoryUnitsAreUnsatAtRoot) {
  SatSolver S;
  const int X = S.newVar();
  ASSERT_TRUE(S.addClause({mkLit(X)}));
  EXPECT_FALSE(S.addClause({mkLit(X, true)}));
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
  ASSERT_TRUE(S.addClause({mkLit(X[0])}));
  for (int I = 0; I + 1 < N; ++I)
    ASSERT_TRUE(S.addClause({mkLit(X[static_cast<size_t>(I)], true),
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
  ASSERT_TRUE(S.addClause({mkLit(X), mkLit(X, true)})); // tautology: dropped
  EXPECT_EQ(S.numClauses(), 0);
  ASSERT_TRUE(S.addClause({mkLit(Y), mkLit(Y)})); // collapses to unit y
  EXPECT_EQ(S.numClauses(), 0);
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
  // Every negative literal sits in eight binary clauses, more than a watch
  // list keeps inline, so reduceDB rebuilds spilled lists. Rebuilding them
  // in any other order would move these counters.
  const SatSolverStats &St = U.stats();
  EXPECT_EQ(St.Deleted, 5132);
  EXPECT_EQ(St.Decisions, 12534);
  EXPECT_EQ(St.Propagations, 156725);
  EXPECT_EQ(St.Conflicts, 11941);
  EXPECT_EQ(St.Restarts, 62);
  EXPECT_EQ(St.LearnedLiterals, 254062);
}

TEST(SatSolver, RootFactsBetweenSolvesKeepTheSearch) {
  // Facts added between solves, once conflicts have given the variables
  // distinct activities, leave the order heap before the next search.
  // The counters and models below are those of a solver that leaves them
  // in the heap and pops them as it meets them; a different next decision
  // would move them.
  SatSolver S;
  encodePigeonhole(S, 8, 8);
  auto HoleOf = [&S] {
    std::vector<int> Holes;
    for (int V = 0; V < 64; ++V)
      if (S.modelValue(V))
        Holes.push_back(V % 8);
    return Holes;
  };
  ASSERT_EQ(S.solve(), SatResult::Sat);
  for (int P = 0; P < 8; ++P) // no pigeon in its own hole
    ASSERT_TRUE(S.addClause({mkLit(P * 8 + P, true)}));
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_EQ(HoleOf(), (std::vector<int>{1, 5, 3, 6, 0, 2, 7, 4}));
  for (int P = 0; P < 7; ++P) // nor in the next one
    ASSERT_TRUE(S.addClause({mkLit(P * 8 + P + 1, true)}));
  ASSERT_EQ(S.solve(), SatResult::Sat);
  EXPECT_EQ(HoleOf(), (std::vector<int>{5, 3, 1, 0, 6, 7, 2, 4}));
  EXPECT_EQ(S.stats().Decisions, 341);
  EXPECT_EQ(S.stats().Propagations, 4694);
  EXPECT_EQ(S.stats().Conflicts, 275);
}

TEST(WatchList, KeepsIdsInOrderPastTheInlineCapacity) {
  WatchList W;
  for (int Id = 0; Id < 37; ++Id) {
    W.push_back(Id);
    ASSERT_EQ(W.size(), Id + 1);
    for (int J = 0; J <= Id; ++J)
      ASSERT_EQ(W.data()[J], J) << "after " << Id + 1 << " pushes";
  }
  // Truncation keeps the prefix, and later pushes follow it.
  W.truncate(3);
  W.push_back(100);
  ASSERT_EQ(W.size(), 4);
  EXPECT_EQ(W.data()[2], 2);
  EXPECT_EQ(W.data()[3], 100);
  W.clear();
  EXPECT_EQ(W.size(), 0);
  W.push_back(5);
  EXPECT_EQ(W.data()[0], 5);
}

TEST(WatchList, MoveTakesInlineAndSpilledIds) {
  WatchList Short, Long;
  for (int Id = 0; Id < 3; ++Id)
    Short.push_back(Id);
  for (int Id = 0; Id < 9; ++Id)
    Long.push_back(10 * Id);
  WatchList MovedShort(std::move(Short));
  WatchList MovedLong(std::move(Long));
  EXPECT_EQ(Short.size(), 0);
  EXPECT_EQ(Long.size(), 0);
  ASSERT_EQ(MovedShort.size(), 3);
  ASSERT_EQ(MovedLong.size(), 9);
  for (int Id = 0; Id < 3; ++Id)
    EXPECT_EQ(MovedShort.data()[Id], Id);
  for (int Id = 0; Id < 9; ++Id)
    EXPECT_EQ(MovedLong.data()[Id], 10 * Id);
  // A moved-from list is empty and usable again.
  for (int Id = 0; Id < 6; ++Id)
    Long.push_back(Id);
  EXPECT_EQ(Long.data()[5], 5);
}

namespace {

/// True when \p Clauses all hold in \p S's last model.
bool modelSatisfies(const SatSolver &S,
                    const std::vector<std::vector<Lit>> &Clauses) {
  return std::all_of(Clauses.begin(), Clauses.end(), [&](const auto &C) {
    return std::any_of(C.begin(), C.end(), [&](Lit L) {
      return S.modelValue(litVar(L)) != litSign(L);
    });
  });
}

void expectSameSearch(const SatSolver &A, const SatSolver &B) {
  EXPECT_EQ(A.stats().Decisions, B.stats().Decisions);
  EXPECT_EQ(A.stats().Propagations, B.stats().Propagations);
  EXPECT_EQ(A.stats().Conflicts, B.stats().Conflicts);
  EXPECT_EQ(A.stats().Restarts, B.stats().Restarts);
  EXPECT_EQ(A.stats().Learned, B.stats().Learned);
  EXPECT_EQ(A.stats().LearnedLiterals, B.stats().LearnedLiterals);
  EXPECT_EQ(A.stats().Deleted, B.stats().Deleted);
  EXPECT_EQ(A.numClauses(), B.numClauses());
  ASSERT_EQ(A.numVars(), B.numVars());
  for (int V = 0; V < A.numVars(); ++V)
    EXPECT_EQ(A.modelValue(V), B.modelValue(V)) << "var " << V;
}

} // namespace

TEST(SatSolver, WatchListsSurviveVariableGrowth) {
  // PHP(6,6) leaves every negative literal watched by five binary clauses
  // (past the inline capacity) and a few positive ones by one clause each.
  // Growing the variable table afterwards moves all of those lists; the
  // search must then run exactly as when every variable exists up front.
  constexpr int Early = 36, Late = 2000;
  std::vector<std::vector<Lit>> LateClauses;
  for (int V = Early; V + 1 < Early + Late; ++V)
    LateClauses.push_back({mkLit(V, true), mkLit(V + 1)}); // v -> v+1
  for (int V = Early; V < Early + Late; V += 100)
    LateClauses.push_back({mkLit(0, true), mkLit(V, true), mkLit(1)});
  LateClauses.push_back({mkLit(Early)});

  auto Run = [&](SatSolver &S, bool GrowLate) {
    for (int V = 0; V < Early + (GrowLate ? 0 : Late); ++V)
      S.newVar();
    for (int P = 0; P < 6; ++P)
      S.addClause({mkLit(P * 6), mkLit(P * 6 + 1), mkLit(P * 6 + 2),
                   mkLit(P * 6 + 3), mkLit(P * 6 + 4), mkLit(P * 6 + 5)});
    for (int H = 0; H < 6; ++H)
      for (int P = 0; P < 6; ++P)
        for (int Q = P + 1; Q < 6; ++Q)
          S.addClause({mkLit(P * 6 + H, true), mkLit(Q * 6 + H, true)});
    for (int V = 0; V < (GrowLate ? Late : 0); ++V)
      S.newVar();
    for (const std::vector<Lit> &C : LateClauses)
      S.addClause(C);
    EXPECT_EQ(S.solve(), SatResult::Sat);
  };
  SatSolver Grown, Upfront;
  Run(Grown, /*GrowLate=*/true);
  Run(Upfront, /*GrowLate=*/false);
  expectSameSearch(Grown, Upfront);
  EXPECT_TRUE(modelSatisfies(Grown, LateClauses));
  EXPECT_TRUE(Grown.modelValue(Early + Late - 1));
}

TEST(SatSolver, ClauseViewsAreInterchangeable) {
  // One clause stream, including a duplicate literal, a tautology and a
  // clause with a root-false literal, through the three ways of passing
  // literals: the solver must store and search it identically.
  enum class Route { Braced, ArraySpan, Vector };
  std::vector<std::vector<Lit>> Clauses;
  for (int P = 0; P < 5; ++P) {
    std::vector<Lit> AtLeastOne;
    for (int H = 0; H < 5; ++H)
      AtLeastOne.push_back(mkLit(P * 5 + H));
    Clauses.push_back(AtLeastOne);
  }
  for (int H = 0; H < 5; ++H)
    for (int P = 0; P < 5; ++P)
      for (int Q = P + 1; Q < 5; ++Q)
        Clauses.push_back({mkLit(P * 5 + H, true), mkLit(Q * 5 + H, true)});
  Clauses.push_back({mkLit(0, true)});
  Clauses.push_back({mkLit(7), mkLit(7), mkLit(13)});
  Clauses.push_back({mkLit(8), mkLit(8, true)});
  Clauses.push_back({mkLit(0), mkLit(12), mkLit(18)});

  auto Run = [&](SatSolver &S, Route How) {
    for (int V = 0; V < 25; ++V)
      S.newVar();
    for (const std::vector<Lit> &C : Clauses) {
      switch (How) {
      case Route::Braced:
        if (C.size() == 1)
          S.addClause({C[0]});
        else if (C.size() == 2)
          S.addClause({C[0], C[1]});
        else if (C.size() == 3)
          S.addClause({C[0], C[1], C[2]});
        else {
          ASSERT_EQ(C.size(), 5u);
          S.addClause({C[0], C[1], C[2], C[3], C[4]});
        }
        break;
      case Route::ArraySpan: {
        Lit Array[5];
        std::copy(C.begin(), C.end(), Array);
        S.addClause(std::span<const Lit>(Array, C.size()));
        break;
      }
      case Route::Vector:
        S.addClause(C);
        break;
      }
    }
    EXPECT_EQ(S.solve(), SatResult::Sat);
    EXPECT_TRUE(modelSatisfies(S, Clauses));
  };
  SatSolver Braced, ArraySpan, Vector;
  Run(Braced, Route::Braced);
  Run(ArraySpan, Route::ArraySpan);
  Run(Vector, Route::Vector);
  expectSameSearch(Braced, ArraySpan);
  expectSameSearch(Braced, Vector);
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

TEST(SatSearchPin, CountersMatchRecordedSums) {
  // The solver's counters summed over a fixed workload: the flat SAT
  // engine with the MaxLive certification pass on the kernels and 40
  // oracle loops, and the exact CGRA mapper on a 2x2 grid over the
  // kernels at 1,024 conflicts per rung. A change to the solver or an
  // encoder that alters the clause stream or a single decision moves
  // these sums even when every verdict stays the same. The constants are
  // the solver's current behaviour; re-record them only for a change
  // meant to alter the search.
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Kernels = buildKernelSuite();
  std::vector<LoopBody> Loops = Kernels;
  for (LoopBody &Body : buildOracleSuite(40, 3, 20, /*Seed=*/0xCAFE,
                                         /*Jobs=*/1))
    Loops.push_back(std::move(Body));
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Sat;
  Options.MinimizeMaxLive = true;
  ExactEngineStats Sum;
  for (const LoopBody &Body : Loops) {
    const ExactEngineStats S =
        scheduleLoopExact(Body, Machine, Options).EngineStats;
    Sum.Decisions += S.Decisions;
    Sum.Propagations += S.Propagations;
    Sum.Conflicts += S.Conflicts;
    Sum.LearnedClauses += S.LearnedClauses;
    Sum.SatVariables += S.SatVariables;
    Sum.SatClauses += S.SatClauses;
  }
  EXPECT_EQ(Sum.Decisions, 14340);
  EXPECT_EQ(Sum.Propagations, 28061);
  EXPECT_EQ(Sum.Conflicts, 754);
  EXPECT_EQ(Sum.LearnedClauses, 754);
  EXPECT_EQ(Sum.SatVariables, 20258);
  EXPECT_EQ(Sum.SatClauses, 36773);

  const CgraModel Cgra = CgraModel::defaultGrid(2, 2);
  CgraExactOptions CgraOptions;
  CgraOptions.ConflictBudget = 1 << 10;
  SatEngineStats CgraSum;
  for (const LoopBody &Body : Kernels) {
    const DepGraph Graph(Body, Cgra.flatModel());
    const SatEngineStats S = mapLoopCgraExact(Graph, Cgra, CgraOptions).Sat;
    CgraSum.Decisions += S.Decisions;
    CgraSum.Propagations += S.Propagations;
    CgraSum.Conflicts += S.Conflicts;
  }
  EXPECT_EQ(CgraSum.Decisions, 32441);
  EXPECT_EQ(CgraSum.Propagations, 760959);
  EXPECT_EQ(CgraSum.Conflicts, 19797);
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

namespace {

/// t(i) = 2*a(i); b(i) = t(i-3) + a(i): the product is read three
/// iterations after its def, so at II 1 it is live for three cycles of the
/// one column whatever the schedule.
LoopBody buildThreeIterationCarryLoop() {
  LoopBody Body;
  Body.Name = "carry3";
  Body.First = 4;
  Body.Source = "t(i) = 2*a(i); b(i) = t(i-3) + a(i)";
  IRBuilder B(Body);
  const int ArrA = B.newArray();
  const int ArrB = B.newArray();
  const int Aa = B.addressStream("aa", 0);
  const int Ab = B.addressStream("ab", 0);
  const int La = B.emitLoad(ArrA, 0, Use{Aa, 0}, "la");
  const int T = B.emitValue(Opcode::FloatMul,
                            {Use{B.constant(2.0), 0}, Use{La, 0}}, "t");
  B.setSeeds(T, {3.0, 2.0, 1.0});
  const int S = B.emitValue(Opcode::FloatAdd, {Use{T, 3}, Use{La, 0}}, "s");
  B.emitStore(ArrB, 0, Use{Ab, 0}, Use{S, 0}, "st_b");
  B.finish();
  return Body;
}

/// Per II column, the cycles at which some RR value is live in every
/// member of the issue-time family: from its def's Lstart (the def has
/// issued) up to the latest Estart + omega*II among its uses (some use
/// cannot have issued). \p Longest gets the longest such interval.
std::vector<long> surelyLiveLoad(const LoopBody &Body,
                                 const MinDistMatrix &MinDist,
                                 long &Longest) {
  const long II = MinDist.initiationInterval();
  const IssueWindows W = computeIssueWindows(Body, MinDist);
  std::vector<long> UseOpen(static_cast<size_t>(Body.numValues()), -1);
  const auto Record = [&](int ValueId, int User, int Omega) {
    long &Open = UseOpen[static_cast<size_t>(ValueId)];
    if (Body.value(ValueId).Class == RegClass::RR)
      Open = std::max(Open, W.Estart[static_cast<size_t>(User)] + Omega * II);
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      Record(U.Value, Op.Id, U.Omega);
    if (Op.PredValue >= 0)
      Record(Op.PredValue, Op.Id, Op.PredOmega);
  }
  std::vector<long> Load(static_cast<size_t>(II), 0);
  Longest = 0;
  for (const Value &V : Body.Values) {
    const long From = V.Def >= 0 ? W.Lstart[static_cast<size_t>(V.Def)] : 0;
    const long To = UseOpen[static_cast<size_t>(V.Id)];
    Longest = std::max(Longest, To - From);
    for (long Tau = From; Tau < To; ++Tau)
      ++Load[static_cast<size_t>(Tau % II)];
  }
  return Load;
}

} // namespace

TEST(MaxLiveSat, EmptyFamilyStopsAtTheResourceClauses) {
  // Most families of the prove_mix flat loops are empty at their minimal
  // II: the canonical-makespan windows leave no resource-legal placement.
  // The resource clauses then conflict at the root, and the walk builds no
  // liveness literal or counter: its variables are the windows' order and
  // direct literals alone.
  const MachineModel Machine = MachineModel::cydra5();
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Portfolio;
  int Checked = 0;
  for (const LoopBody &Body :
       buildOracleSuite(/*Count=*/20, /*MinOps=*/3, /*MaxOps=*/20,
                        /*Seed=*/0x19930601, /*Jobs=*/1)) {
    const DepGraph Graph(Body, Machine);
    const ExactResult Ex = scheduleLoopExact(Graph, Options);
    ASSERT_TRUE(Ex.Sched.Success) << Body.Name;
    MinDistMatrix MinDist;
    ASSERT_TRUE(MinDist.compute(Graph, Ex.Sched.II));
    const std::vector<int> FuInstance = assignFunctionalUnits(Body, Machine);
    // With no useful cap, "no witness" means no family member at all.
    const SatMaxLiveResult Uncapped = minimizeMaxLiveSat(
        Graph, MinDist, FuInstance, /*ConflictBudget=*/1L << 18,
        /*MinAvg=*/0, /*UpperCap=*/1000);
    ASSERT_TRUE(Uncapped.SearchComplete) << Body.Name;
    if (Uncapped.FamilyMin >= 0)
      continue;
    ++Checked;
    EXPECT_EQ(Uncapped.Stats.Decisions + Uncapped.Stats.Conflicts, 0)
        << Body.Name << ": refuted at the root, before any search";
    const IssueWindows W = computeIssueWindows(Body, MinDist);
    long WindowVars = 0;
    for (const Operation &Op : Body.Ops)
      if (Machine.unitFor(Op.Opc) != FuKind::None) {
        const long Width = W.Lstart[static_cast<size_t>(Op.Id)] -
                           W.Estart[static_cast<size_t>(Op.Id)];
        WindowVars += Width + (Width + 1); // order + direct literals
      }
    EXPECT_EQ(Uncapped.Stats.Variables, WindowVars) << Body.Name;

    const SatMaxLiveResult Capped = minimizeMaxLiveSat(
        Graph, MinDist, FuInstance, /*ConflictBudget=*/1L << 18,
        Ex.MinAvgAtII, Ex.MaxLive);
    EXPECT_TRUE(Capped.SearchComplete) << Body.Name;
    EXPECT_EQ(Capped.FamilyMin, -1) << Body.Name;
    EXPECT_TRUE(Capped.Times.empty()) << Body.Name;
    EXPECT_EQ(Capped.Stats.Variables, WindowVars) << Body.Name;

    // A budget <= 0 still gives up before the root conflict is read.
    const SatMaxLiveResult Unbudgeted = minimizeMaxLiveSat(
        Graph, MinDist, FuInstance, /*ConflictBudget=*/-1, Ex.MinAvgAtII,
        Ex.MaxLive);
    EXPECT_FALSE(Unbudgeted.SearchComplete) << Body.Name;
    EXPECT_EQ(Unbudgeted.FamilyMin, -1) << Body.Name;
    EXPECT_EQ(Unbudgeted.Stats.Decisions + Unbudgeted.Stats.Conflicts, 0)
        << Body.Name;
  }
  EXPECT_GT(Checked, 0) << "no empty family among the first 20 loops";
}

TEST(MaxLiveSat, CapBelowASurelyLiveLoadIsUnsatWithoutSearch) {
  // Surely-live cycles load their column before any search: a cap below
  // the heaviest such load has no witness, and the walk proves it without
  // a decision even though the family is not empty.
  const LoopBody Body = buildThreeIterationCarryLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Sat;
  const ExactResult Ex = scheduleLoopExact(Graph, Options);
  ASSERT_TRUE(Ex.Sched.Success);
  MinDistMatrix MinDist;
  ASSERT_TRUE(MinDist.compute(Graph, Ex.Sched.II));
  const std::vector<int> FuInstance = assignFunctionalUnits(Body, Machine);
  long Longest = 0;
  const std::vector<long> Load = surelyLiveLoad(Body, MinDist, Longest);
  const long Heaviest = *std::max_element(Load.begin(), Load.end());
  ASSERT_GT(Heaviest, 0);

  const SatMaxLiveResult Below = minimizeMaxLiveSat(
      Graph, MinDist, FuInstance, /*ConflictBudget=*/1L << 18,
      /*MinAvg=*/0, /*UpperCap=*/Heaviest - 1);
  EXPECT_TRUE(Below.SearchComplete);
  EXPECT_EQ(Below.FamilyMin, -1);
  EXPECT_EQ(Below.Stats.Decisions + Below.Stats.Conflicts, 0);

  // The family itself is not empty: uncapped, the walk finds a witness.
  const SatMaxLiveResult Uncapped = minimizeMaxLiveSat(
      Graph, MinDist, FuInstance, /*ConflictBudget=*/1L << 18,
      /*MinAvg=*/0, /*UpperCap=*/1000);
  EXPECT_TRUE(Uncapped.SearchComplete);
  EXPECT_GE(Uncapped.FamilyMin, Heaviest);
}

TEST(MaxLiveSat, ValueLoadingAColumnTwiceMatchesBranchAndBound) {
  // A value read three iterations after its def is surely live for longer
  // than II, so it loads some column twice as a constant. The walk's
  // family minimum must still be the one branch-and-bound proves by
  // exhausting the same family.
  const LoopBody Body = buildThreeIterationCarryLoop();
  const MachineModel Machine = MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  ExactOptions Options;
  const ExactResult Ex = scheduleLoopExact(Graph, Options);
  ASSERT_TRUE(Ex.Sched.Success);
  const int II = Ex.Sched.II;
  MinDistMatrix MinDist;
  ASSERT_TRUE(MinDist.compute(Graph, II));
  long Longest = 0;
  surelyLiveLoad(Body, MinDist, Longest);
  ASSERT_GT(Longest, II) << "no value is surely live for more than II";

  const MaxLiveOutcome BnB = minimizeMaxLiveAtII(Graph, II, Options);
  ASSERT_EQ(BnB.Certificate, MaxLiveCertificate::BnBExhausted);
  const SatMaxLiveResult Sat = minimizeMaxLiveSat(
      Graph, MinDist, assignFunctionalUnits(Body, Machine),
      Options.MaxLiveConflictBudget, /*MinAvg=*/0, /*UpperCap=*/1000);
  EXPECT_TRUE(Sat.SearchComplete);
  EXPECT_EQ(Sat.FamilyMin, BnB.MaxLive);
}
