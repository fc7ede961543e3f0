//===----------------------------------------------------------------------===//
/// \file Unit tests for the exact branch-and-bound modulo scheduler and the
/// slack-vs-exact differential-testing oracle.
//===----------------------------------------------------------------------===//

#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "exact/ExactEngine.h"
#include "exact/Oracle.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

std::vector<LoopBody> allKernels() {
  std::vector<LoopBody> Kernels;
  Kernels.push_back(buildSampleLoop());
  Kernels.push_back(buildDaxpyLoop());
  Kernels.push_back(buildDotLoop());
  Kernels.push_back(buildLinearRecurrenceLoop());
  Kernels.push_back(buildPredicatedAbsLoop());
  Kernels.push_back(buildDivideLoop());
  return Kernels;
}

} // namespace

TEST(ExactScheduler, SampleLoopProvenAtMII) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const ExactResult Ex = scheduleLoopExact(Graph);
  EXPECT_EQ(Ex.Status, ExactStatus::Optimal);
  ASSERT_TRUE(Ex.Sched.Success);
  EXPECT_EQ(Ex.Sched.II, 2) << "paper's sample loop is schedulable at MII=2";
  EXPECT_EQ(Ex.Sched.II, Ex.Sched.MII);
  EXPECT_EQ(validateSchedule(Graph, Ex.Sched), "");
}

TEST(ExactScheduler, KernelsProvenOptimalAndNeverWorseThanHeuristic) {
  for (const LoopBody &Body : allKernels()) {
    const DepGraph Graph(Body, machine());
    const ExactResult Ex = scheduleLoopExact(Graph);
    EXPECT_EQ(Ex.Status, ExactStatus::Optimal) << Body.Name;
    ASSERT_TRUE(Ex.Sched.Success) << Body.Name;
    EXPECT_EQ(validateSchedule(Graph, Ex.Sched), "") << Body.Name;

    const Schedule Heur = scheduleLoop(Graph);
    ASSERT_TRUE(Heur.Success) << Body.Name;
    EXPECT_LE(Ex.Sched.II, Heur.II) << Body.Name;
    EXPECT_GE(Ex.Sched.II, Ex.Sched.MII) << Body.Name;
  }
}

TEST(ExactScheduler, SolveAtIIProducesValidatableSchedule) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Heur = scheduleLoop(Graph);
  ASSERT_TRUE(Heur.Success);

  Schedule Sched;
  ExactEngineStats Stats;
  const ExactStatus St =
      solveAtII(Graph, Heur.II, ExactOptions(), Sched.Times, Stats);
  ASSERT_EQ(St, ExactStatus::Optimal);
  Sched.Success = true;
  Sched.II = Heur.II;
  EXPECT_EQ(validateSchedule(Graph, Sched), "");
  EXPECT_GT(Stats.Nodes, 0);
}

TEST(ExactScheduler, InfeasibleBelowRecMII) {
  const LoopBody Body = buildLinearRecurrenceLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Heur = scheduleLoop(Graph);
  ASSERT_GT(Heur.RecMII, 1);
  std::vector<int> Times;
  ExactEngineStats Stats;
  EXPECT_EQ(solveAtII(Graph, Heur.RecMII - 1, ExactOptions(), Times, Stats),
            ExactStatus::Infeasible);
}

TEST(ExactScheduler, ProvesResourceInfeasibilityBelowResMII) {
  // Daxpy has three memory operations on two ports (ResMII = 2) and only
  // trivial recurrences, so II = 1 is resource-infeasible: the search must
  // prove it by exhaustion, not via a MinDist positive cycle.
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Heur = scheduleLoop(Graph);
  ASSERT_EQ(Heur.RecMII, 1);
  ASSERT_GT(Heur.ResMII, 1);
  std::vector<int> Times;
  ExactEngineStats Stats;
  EXPECT_EQ(solveAtII(Graph, 1, ExactOptions(), Times, Stats),
            ExactStatus::Infeasible);
  EXPECT_GT(Stats.Nodes, 0);
}

TEST(ExactScheduler, ZeroNodeBudgetReportsTimeout) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  ExactOptions Options;
  Options.NodeBudget = 0;
  const ExactResult Ex = scheduleLoopExact(Graph, Options);
  EXPECT_EQ(Ex.Status, ExactStatus::Timeout);
  EXPECT_FALSE(Ex.Sched.Success);
}

TEST(ExactScheduler, MaxLivePassStaysLegalAndRespectsBounds) {
  for (const LoopBody &Body : allKernels()) {
    const DepGraph Graph(Body, machine());
    ExactOptions Plain;
    const ExactResult A = scheduleLoopExact(Graph, Plain);
    ExactOptions Minimizing;
    Minimizing.MinimizeMaxLive = true;
    Minimizing.MaxLiveNodeBudget = 1L << 14;
    const ExactResult B = scheduleLoopExact(Graph, Minimizing);
    ASSERT_TRUE(A.Sched.Success && B.Sched.Success) << Body.Name;
    EXPECT_EQ(A.Sched.II, B.Sched.II) << Body.Name;
    EXPECT_EQ(validateSchedule(Graph, B.Sched), "") << Body.Name;
    EXPECT_LE(B.MaxLive, A.MaxLive) << Body.Name;
    EXPECT_GE(B.MaxLive, B.MinAvgAtII)
        << Body.Name << ": MinAvg must lower-bound MaxLive";
  }
}

TEST(ExactScheduler, Deterministic) {
  const LoopBody Body = buildDaxpyLoop();
  const DepGraph Graph(Body, machine());
  const ExactResult A = scheduleLoopExact(Graph);
  const ExactResult B = scheduleLoopExact(Graph);
  ASSERT_TRUE(A.Sched.Success && B.Sched.Success);
  EXPECT_EQ(A.Sched.II, B.Sched.II);
  EXPECT_EQ(A.Sched.Times, B.Sched.Times);
  EXPECT_EQ(A.NodesExplored, B.NodesExplored);
}

// The acceptance sweep: 50 seeded random loops of at most 20 machine
// operations. The exact scheduler must prove the minimal II on every one,
// and both schedulers' outputs must pass independent validation.
TEST(Oracle, FiftyRandomLoopsProvenMinimal) {
  OracleOptions Options;
  Options.Exact.MaxLiveNodeBudget = 1L << 14; // keep the test tier fast
  const OracleReport Report = runOracle(Options);
  ASSERT_EQ(static_cast<int>(Report.Cases.size()), Options.NumLoops);
  EXPECT_EQ(Report.ExactScheduled, Options.NumLoops);
  EXPECT_EQ(Report.ProvenOptimalII, Options.NumLoops)
      << "every loop's minimal II must be proven, not just found";
  EXPECT_EQ(Report.ValidationFailures, 0);
  for (const OracleCase &Case : Report.Cases) {
    EXPECT_LE(Case.Ops, Options.MaxOps) << Case.Name;
    EXPECT_GE(Case.ExactII, Case.MII) << Case.Name;
    if (Case.HeurSuccess) {
      EXPECT_TRUE(Case.IIGapValid) << Case.Name;
      EXPECT_GE(Case.IIGap, 0)
          << Case.Name << ": heuristic cannot beat a proven optimum";
    }
    if (Case.ExactMaxLive >= 0) {
      EXPECT_GE(Case.ExactMaxLive, Case.MinAvg) << Case.Name;
    }
  }
}

// Pins the gap-aggregation rule: the MaxLive gap is only meaningful when
// both schedulers landed on the SAME II — pressure counts lifetimes
// folded over II columns, so values at different IIs measure different
// quantities and must never enter the same histogram.
TEST(Oracle, MaxLiveGapInvalidAtDifferentIIs) {
  OracleCase Case;
  Case.HeurSuccess = true;
  Case.HeurII = 4;
  Case.HeurMaxLive = 10;
  Case.Status = ExactStatus::Optimal;
  Case.ExactII = 3; // exact beat the heuristic by one II
  Case.ExactMaxLive = 12;
  finalizeOracleGaps(Case);
  EXPECT_TRUE(Case.IIGapValid);
  EXPECT_EQ(Case.IIGap, 1);
  EXPECT_FALSE(Case.MaxLiveGapValid)
      << "pressure at II=4 vs II=3 is incomparable";
  EXPECT_EQ(Case.MaxLiveGap, 0) << "invalid gap must not carry a value";

  // Same II: the gap becomes valid and carries the difference.
  Case.ExactII = 4;
  finalizeOracleGaps(Case);
  EXPECT_TRUE(Case.IIGapValid);
  EXPECT_EQ(Case.IIGap, 0);
  EXPECT_TRUE(Case.MaxLiveGapValid);
  EXPECT_EQ(Case.MaxLiveGap, -2);

  // Same II but one side never computed a pressure: invalid again.
  Case.ExactMaxLive = -1;
  finalizeOracleGaps(Case);
  EXPECT_FALSE(Case.MaxLiveGapValid);
  EXPECT_EQ(Case.MaxLiveGap, 0);

  // One scheduler failed outright: neither gap is valid.
  Case.ExactMaxLive = 12;
  Case.Status = ExactStatus::Timeout;
  finalizeOracleGaps(Case);
  EXPECT_FALSE(Case.IIGapValid);
  EXPECT_FALSE(Case.MaxLiveGapValid);
}

// The failure rule: a schedule its validator rejects, or a heuristic II
// below an II the exact engine proved minimal, is a failure, listed at the
// end of the printed report. A merely feasible exact II proves nothing
// about the minimum, so undercutting it is not.
TEST(Oracle, FailureRuleCountsAndListsFailures) {
  OracleCase Below;
  Below.Name = "below";
  Below.HeurSuccess = true;
  Below.HeurII = 3;
  Below.Status = ExactStatus::Optimal;
  Below.ExactII = 4;
  OracleCase Unproven = Below;
  Unproven.Name = "unproven";
  Unproven.Status = ExactStatus::Feasible;
  OracleCase Invalid = Unproven;
  Invalid.Name = "invalid";
  Invalid.ExactError = "op 2 starts early";

  const OracleReport Report =
      aggregateOracleCases(OracleOptions(), {Below, Unproven, Invalid});
  EXPECT_EQ(Report.failures(), 2);
  EXPECT_EQ(Report.ValidationFailures, 1);
  std::ostringstream OS;
  printOracleReport(OS, Report);
  EXPECT_TRUE(OS.str().ends_with(
      "\n  below: heuristic II 3 below proven-minimal II 4\n"
      "  invalid: exact schedule invalid: op 2 starts early\n"))
      << OS.str();
}

// A negative MaxLive gap (the heuristic beat an exact value budgeted out
// before certifying) must count below zero, not in the zero bucket.
TEST(Oracle, MaxLiveGapsCountAtTheirSign) {
  std::vector<OracleCase> Cases;
  for (const long Gap : {-2L, 0L, 1L}) {
    OracleCase Case;
    Case.Name = "gap" + std::to_string(Gap);
    Case.HeurSuccess = true;
    Case.HeurII = Case.ExactII = 3;
    Case.Status = ExactStatus::Optimal;
    Case.ExactMaxLive = 10;
    Case.HeurMaxLive = 10 + Gap;
    finalizeOracleGaps(Case);
    Cases.push_back(Case);
  }
  std::ostringstream OS;
  printOracleReport(OS, aggregateOracleCases(OracleOptions(), Cases));
  EXPECT_NE(OS.str().find("max 1\n  loops below 0: 1, at 0: 1, above 0: 1\n"),
            std::string::npos)
      << OS.str();
}

TEST(Oracle, CertifiedCountsAggregateByKind) {
  OracleOptions Options;
  Options.NumLoops = 12;
  Options.MaxOps = 14;
  const OracleReport Report = runOracle(Options);
  int MinAvgCount = 0, FamilyCount = 0;
  for (const OracleCase &Case : Report.Cases) {
    EXPECT_EQ(Case.MaxLiveProven,
              Case.Certificate != MaxLiveCertificate::None)
        << Case.Name;
    if (Case.Certificate == MaxLiveCertificate::MinAvgMet) {
      ++MinAvgCount;
      EXPECT_EQ(Case.ExactMaxLive, Case.MinAvg) << Case.Name;
    } else if (Case.Certificate != MaxLiveCertificate::None) {
      ++FamilyCount;
    }
  }
  EXPECT_EQ(Report.CertMinAvg, MinAvgCount);
  EXPECT_EQ(Report.CertFamily, FamilyCount);
  EXPECT_EQ(Report.MaxLiveCertified, MinAvgCount + FamilyCount);
  EXPECT_GT(Report.MaxLiveCertified, 0)
      << "the sweep must certify at least one loop";
}

TEST(Oracle, DeterministicAcrossRuns) {
  OracleOptions Options;
  Options.NumLoops = 6;
  Options.Exact.MaxLiveNodeBudget = 1L << 12;
  const OracleReport A = runOracle(Options);
  const OracleReport B = runOracle(Options);
  ASSERT_EQ(A.Cases.size(), B.Cases.size());
  for (size_t I = 0; I < A.Cases.size(); ++I) {
    EXPECT_EQ(A.Cases[I].Name, B.Cases[I].Name);
    EXPECT_EQ(A.Cases[I].ExactII, B.Cases[I].ExactII);
    EXPECT_EQ(A.Cases[I].ExactMaxLive, B.Cases[I].ExactMaxLive);
    EXPECT_EQ(A.Cases[I].Nodes, B.Cases[I].Nodes);
    EXPECT_EQ(A.Cases[I].HeurII, B.Cases[I].HeurII);
  }
}

TEST(Oracle, SuiteRespectsSizeBounds) {
  const std::vector<LoopBody> Suite = buildOracleSuite(12, 3, 20, 42);
  ASSERT_EQ(Suite.size(), 12u);
  for (const LoopBody &Body : Suite) {
    EXPECT_GE(Body.numMachineOps(), 3);
    EXPECT_LE(Body.numMachineOps(), 20);
    EXPECT_EQ(Body.verify(), "");
  }
}

TEST(ExactScheduler, HeuristicStatsExposedForHarness) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Heur = scheduleLoop(Graph);
  ASSERT_TRUE(Heur.Success);
  EXPECT_GE(Heur.Stats.AttemptsTried, 1);
  EXPECT_GE(Heur.Stats.EjectionsLastAttempt, 0);
  EXPECT_LE(Heur.Stats.EjectionsLastAttempt, Heur.Stats.Ejections);
}
