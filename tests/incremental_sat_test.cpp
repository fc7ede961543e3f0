//===----------------------------------------------------------------------===//
/// \file Tests for the incremental solving layer and the portfolio engine:
/// assumption-based solving with activation-literal retraction, learned-
/// clause persistence across solve calls, UNSAT-core (finalConflict)
/// sanity, portfolio verdict/certificate parity against both component
/// engines on the kernel suite and a seeded random sweep, and byte-
/// identical portfolio oracle reports across worker counts.
//===----------------------------------------------------------------------===//

#include "exact/ExactEngine.h"
#include "exact/Oracle.h"
#include "sat/SatSolver.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace lsms;

namespace {

/// True when \p Core (a finalConflict) is a subset of \p Assumed.
bool coreSubsetOfAssumptions(const std::vector<Lit> &Core,
                             const std::vector<Lit> &Assumed) {
  return std::all_of(Core.begin(), Core.end(), [&](Lit L) {
    return std::find_if(Assumed.begin(), Assumed.end(), [&](Lit A) {
             return A.Code == L.Code;
           }) != Assumed.end();
  });
}

} // namespace

TEST(IncrementalSat, AssumptionsDoNotPoisonTheSolver) {
  SatSolver S;
  const int X = S.newVar(), Y = S.newVar();
  S.addClause({mkLit(X), mkLit(Y)});
  // Assuming both false contradicts the clause...
  EXPECT_EQ(S.solveUnderAssumptions({mkLit(X, true), mkLit(Y, true)}),
            SatResult::Unsat);
  // ...but only under those assumptions: the solver stays usable and the
  // formula stays satisfiable.
  EXPECT_TRUE(S.okay());
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(X) || S.modelValue(Y));
}

TEST(IncrementalSat, ActivationLiteralRetractsConstraintGroup) {
  SatSolver S;
  const int X = S.newVar(), Y = S.newVar();
  const int Guard = S.newVar();
  // Group {x, y} guarded by Guard: active under the assumption ~Guard.
  S.addClause({mkLit(Guard), mkLit(X)});
  S.addClause({mkLit(Guard), mkLit(Y)});
  S.addClause({mkLit(X, true), mkLit(Y, true)}); // permanent: not both
  // Active group forces x and y simultaneously: unsat under ~Guard.
  EXPECT_EQ(S.solveUnderAssumptions({mkLit(Guard, true)}), SatResult::Unsat);
  // Retire the group with the permanent unit {Guard}: satisfiable again,
  // for good, because every group clause is satisfied by Guard.
  EXPECT_TRUE(S.addClause({mkLit(Guard)}));
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.okay());
}

TEST(IncrementalSat, LearnedClausesPersistAcrossCalls) {
  // Pigeonhole PHP(5,4) under a fresh guard is hard enough to force real
  // conflict-driven learning; a second identical query must then reuse the
  // learned clauses instead of re-deriving them.
  SatSolver S;
  const int Pigeons = 5, Holes = 4;
  std::vector<std::vector<int>> Var(
      static_cast<size_t>(Pigeons),
      std::vector<int>(static_cast<size_t>(Holes)));
  for (auto &Row : Var)
    for (int &V : Row)
      V = S.newVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> AtLeastOne;
    for (int H = 0; H < Holes; ++H)
      AtLeastOne.push_back(mkLit(Var[static_cast<size_t>(P)][static_cast<size_t>(H)]));
    S.addClause(AtLeastOne);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P = 0; P < Pigeons; ++P)
      for (int Q = P + 1; Q < Pigeons; ++Q) {
        const size_t HU = static_cast<size_t>(H);
        S.addClause({mkLit(Var[static_cast<size_t>(P)][HU], true),
                     mkLit(Var[static_cast<size_t>(Q)][HU], true)});
      }

  const int A = S.newVar(); // an assumption variable unrelated to PHP
  EXPECT_EQ(S.solveUnderAssumptions({mkLit(A)}), SatResult::Unsat);
  const long FirstConflicts = S.stats().Conflicts;
  EXPECT_GT(FirstConflicts, 0);
  EXPECT_GT(S.stats().Learned, 0);
  // PHP is unsat on its own, so okay() must now be false (the conflict is
  // assumption-free) OR the repeat costs far less than the first call.
  if (S.okay()) {
    EXPECT_EQ(S.solveUnderAssumptions({mkLit(A)}), SatResult::Unsat);
    const long SecondConflicts = S.stats().Conflicts - FirstConflicts;
    EXPECT_LT(SecondConflicts, FirstConflicts / 2);
  }
}

TEST(IncrementalSat, FinalConflictIsACoreOverAssumptions) {
  SatSolver S;
  const int X = S.newVar(), Y = S.newVar(), Z = S.newVar();
  S.addClause({mkLit(X, true), mkLit(Y)});  // x -> y
  S.addClause({mkLit(Y, true), mkLit(Z)});  // y -> z
  // Assume x, ~z (contradictory through the chain) and an irrelevant y...
  const std::vector<Lit> Assumed{mkLit(X), mkLit(Z, true)};
  EXPECT_EQ(S.solveUnderAssumptions(Assumed), SatResult::Unsat);
  const std::vector<Lit> Core = S.finalConflict(); // copy: re-solves clobber it
  EXPECT_FALSE(Core.empty());
  EXPECT_TRUE(coreSubsetOfAssumptions(Core, Assumed));
  // The core itself must be unsat: re-solving under it alone still fails.
  EXPECT_EQ(S.solveUnderAssumptions(Core), SatResult::Unsat);
  // Dropping the core's literals makes the query satisfiable.
  std::vector<Lit> Rest;
  for (Lit L : Assumed)
    if (std::find_if(Core.begin(), Core.end(), [&](Lit C) {
          return C.Code == L.Code;
        }) == Core.end())
      Rest.push_back(L);
  EXPECT_EQ(S.solveUnderAssumptions(Rest), SatResult::Sat);
}

TEST(IncrementalSat, AlreadySatisfiedAssumptionsKeepLevelAlignment) {
  SatSolver S;
  const int X = S.newVar(), Y = S.newVar();
  EXPECT_TRUE(S.addClause({mkLit(X)})); // x is a root-level fact
  S.addClause({mkLit(X, true), mkLit(Y, true)});
  // Assuming the already-true x first must not desynchronize the
  // assumption index from the decision level: the contradiction with the
  // second assumption y must still be detected as assumption-unsat.
  EXPECT_EQ(S.solveUnderAssumptions({mkLit(X), mkLit(Y)}), SatResult::Unsat);
  EXPECT_TRUE(S.okay());
  const std::vector<Lit> &Core = S.finalConflict();
  EXPECT_TRUE(coreSubsetOfAssumptions(Core, {mkLit(X), mkLit(Y)}));
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

namespace {

/// Runs scheduleLoopExact with the given engine, MaxLive pass on.
ExactResult runEngine(const DepGraph &Graph, ExactEngineKind Engine) {
  ExactOptions Options;
  Options.Engine = Engine;
  Options.MinimizeMaxLive = true;
  return scheduleLoopExact(Graph, Options);
}

/// Asserts portfolio parity on one loop: feasibility verdict and minimal
/// II must match both component engines exactly (all three are complete
/// decision procedures over the same question), and certified MaxLive
/// values must be mutually consistent.
void expectPortfolioParity(const LoopBody &Body, const MachineModel &Machine) {
  const DepGraph Graph(Body, Machine);
  const ExactResult Bnb = runEngine(Graph, ExactEngineKind::BranchAndBound);
  const ExactResult Sat = runEngine(Graph, ExactEngineKind::Sat);
  const ExactResult Pf = runEngine(Graph, ExactEngineKind::Portfolio);
  for (const ExactResult *Other : {&Bnb, &Sat}) {
    if (Pf.Status == ExactStatus::Timeout ||
        Other->Status == ExactStatus::Timeout)
      continue; // a budget verdict proves nothing
    EXPECT_EQ(Pf.Sched.Success, Other->Sched.Success) << Body.Name;
    if (Pf.Sched.Success && Other->Sched.Success) {
      EXPECT_EQ(Pf.Sched.II, Other->Sched.II) << Body.Name;
    }
    EXPECT_TRUE(certifiedMaxLiveConsistent(Pf.MaxLive, Pf.Certificate,
                                           Other->MaxLive,
                                           Other->Certificate))
        << Body.Name << ": portfolio " << Pf.MaxLive << " ("
        << maxLiveCertificateName(Pf.Certificate) << ") vs "
        << exactEngineName(Other->Engine) << " " << Other->MaxLive << " ("
        << maxLiveCertificateName(Other->Certificate) << ")";
    if (maxLiveCertificatesAgree(Pf.Certificate, Other->Certificate) &&
        Pf.Certificate != MaxLiveCertificate::None) {
      EXPECT_EQ(Pf.MaxLive, Other->MaxLive) << Body.Name;
    }
  }
}

} // namespace

TEST(PortfolioParity, KernelSuite) {
  const MachineModel Machine = MachineModel::cydra5();
  for (const LoopBody &Body : buildKernelSuite())
    expectPortfolioParity(Body, Machine);
}

TEST(PortfolioParity, SeededRandomLoops) {
  const MachineModel Machine = MachineModel::cydra5();
  // 200 loops, sizes small enough that all three engines finish inside
  // their default budgets on every loop (the sweep stays a few seconds).
  const std::vector<LoopBody> Suite =
      buildOracleSuite(200, 3, 14, 0x1993F00D);
  for (const LoopBody &Body : Suite)
    expectPortfolioParity(Body, Machine);
}

TEST(PortfolioParity, OracleReportByteIdenticalAcrossJobs) {
  OracleOptions Options;
  Options.NumLoops = 12;
  Options.Exact.Engine = ExactEngineKind::Portfolio;
  std::string First;
  for (const int Jobs : {1, 4, 16}) {
    Options.Jobs = Jobs;
    const OracleReport Report = runOracle(Options);
    std::ostringstream OS;
    printOracleReport(OS, Report);
    if (First.empty())
      First = OS.str();
    else
      EXPECT_EQ(First, OS.str()) << "jobs=" << Jobs;
  }
  EXPECT_FALSE(First.empty());
}

TEST(PortfolioEngine, StopFlagYieldsTimeoutPromptly) {
  // A pre-set stop token must surface as Timeout (never a wrong verdict)
  // through every engine selection.
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite = buildOracleSuite(1, 12, 14, 7);
  const DepGraph Graph(Suite.front(), Machine);
  std::atomic<bool> Stop{true};
  for (const ExactEngineKind Engine :
       {ExactEngineKind::BranchAndBound, ExactEngineKind::Sat,
        ExactEngineKind::Portfolio}) {
    ExactOptions Options;
    Options.Engine = Engine;
    Options.Stop = &Stop;
    const ExactResult R = scheduleLoopExact(Graph, Options);
    EXPECT_EQ(R.Status, ExactStatus::Timeout) << exactEngineName(Engine);
    EXPECT_FALSE(R.Sched.Success) << exactEngineName(Engine);
  }
  // Clearing the flag restores normal operation on the same input.
  Stop = false;
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Portfolio;
  Options.Stop = &Stop;
  const ExactResult R = scheduleLoopExact(Graph, Options);
  EXPECT_NE(R.Status, ExactStatus::Timeout);
}
