//===----------------------------------------------------------------------===//
/// \file Differential tests between the two exact engines. Branch-and-bound
/// and the SAT encoding are independent complete decision procedures for
/// the same fixed-II schedulability question, so on every loop and every II
/// their verdicts must agree exactly (whenever neither hits its budget),
/// and every schedule the SAT engine decodes must be validator-clean. The
/// sweeps mirror the MinDist differential tests: kernel suite plus 200
/// seeded random loops, II in [max(1, MII-1), MII+3].
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "core/Validate.h"
#include "exact/ExactEngine.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

/// Runs one engine at a fixed II; on success asserts the schedule is legal
/// and returns it through \p Times.
ExactStatus runEngine(const DepGraph &Graph, int II, ExactEngineKind Engine,
                      std::vector<int> &Times) {
  ExactOptions Options;
  Options.Engine = Engine;
  ExactEngineStats Stats;
  const ExactStatus St = solveAtII(Graph, II, Options, Times, Stats);
  if (St == ExactStatus::Optimal) {
    Schedule Sched;
    Sched.Success = true;
    Sched.II = II;
    Sched.Times = Times;
    EXPECT_EQ(validateSchedule(Graph, Sched), "")
        << Graph.body().Name << " II=" << II << " engine="
        << exactEngineName(Engine);
  }
  return St;
}

/// Sweeps II over [max(1, MII-1), MII+3] and checks verdict parity.
/// Starting below MII exercises Infeasible agreement (including the
/// positive-cycle rejection below RecMII, which both engines share).
void expectEnginesAgree(const LoopBody &Body) {
  const DepGraph Graph(Body, machine());
  const MIIBounds Bounds = computeMII(Graph);
  for (int II = std::max(1, Bounds.MII - 1); II <= Bounds.MII + 3; ++II) {
    std::vector<int> BnbTimes, SatTimes;
    const ExactStatus Bnb =
        runEngine(Graph, II, ExactEngineKind::BranchAndBound, BnbTimes);
    const ExactStatus Sat =
        runEngine(Graph, II, ExactEngineKind::Sat, SatTimes);
    if (Bnb == ExactStatus::Timeout || Sat == ExactStatus::Timeout)
      continue; // a budgeted engine proves nothing either way
    ASSERT_EQ(Bnb, Sat) << Body.Name << " II=" << II
                        << ": bnb=" << exactStatusName(Bnb)
                        << " sat=" << exactStatusName(Sat);
  }
}

/// Sweeps II over [MII, MII+2] and checks that whenever BOTH engines
/// certify a minimized MaxLive, the two proofs are mutually consistent:
/// certificates of the same claim (two family proofs, or MinAvg met on
/// both sides) must name the same value, and a MinAvg-met global value —
/// which may come from outside the family — can only sit at or below a
/// certified family minimum. Any violation means one engine's proof is
/// wrong. Uncertified outcomes (budget, or only an out-of-family
/// incumbent) are skipped: they make no minimality claim.
void expectCertifiedMaxLiveAgrees(const LoopBody &Body) {
  const DepGraph Graph(Body, machine());
  const MIIBounds Bounds = computeMII(Graph);
  for (int II = Bounds.MII; II <= Bounds.MII + 2; ++II) {
    ExactOptions Bnb;
    ExactOptions Sat;
    Sat.Engine = ExactEngineKind::Sat;
    const MaxLiveOutcome B = minimizeMaxLiveAtII(Graph, II, Bnb);
    const MaxLiveOutcome S = minimizeMaxLiveAtII(Graph, II, Sat);
    if (B.Status == ExactStatus::Timeout || S.Status == ExactStatus::Timeout)
      continue;
    ASSERT_EQ(B.Status, S.Status)
        << Body.Name << " II=" << II << ": bnb=" << exactStatusName(B.Status)
        << " sat=" << exactStatusName(S.Status);
    ASSERT_TRUE(certifiedMaxLiveConsistent(B.MaxLive, B.Certificate,
                                           S.MaxLive, S.Certificate))
        << Body.Name << " II=" << II << ": bnb " << B.MaxLive << " ("
        << maxLiveCertificateName(B.Certificate) << ") vs sat " << S.MaxLive
        << " (" << maxLiveCertificateName(S.Certificate) << ")";
    // Same-kind certificates are the strongest case: both name the same
    // minimum, so the values must be equal outright.
    if (maxLiveCertificatesAgree(B.Certificate, S.Certificate) &&
        B.Certificate != MaxLiveCertificate::None) {
      ASSERT_EQ(B.MaxLive, S.MaxLive)
          << Body.Name << " II=" << II << ": bnb "
          << maxLiveCertificateName(B.Certificate) << " vs sat "
          << maxLiveCertificateName(S.Certificate);
    }
  }
}

} // namespace

TEST(CrossEngine, KernelSuiteVerdictParity) {
  for (const LoopBody &Body : buildKernelSuite())
    expectEnginesAgree(Body);
}

TEST(CrossEngine, RandomLoopsVerdictParity) {
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/20,
                       /*Seed=*/0xD1FF, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 200u);
  for (const LoopBody &Body : Suite)
    expectEnginesAgree(Body);
}

TEST(CrossEngine, LadderAgreesOnMinimalII) {
  // Full scheduleLoopExact with either engine must find the same minimal II
  // (when neither run times out anywhere on the ladder).
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, machine());
    ExactOptions Bnb;
    ExactOptions Sat;
    Sat.Engine = ExactEngineKind::Sat;
    const ExactResult RB = scheduleLoopExact(Graph, Bnb);
    const ExactResult RS = scheduleLoopExact(Graph, Sat);
    EXPECT_EQ(RS.Engine, ExactEngineKind::Sat);
    if (RB.Status == ExactStatus::Timeout || RB.Status == ExactStatus::Feasible ||
        RS.Status == ExactStatus::Timeout || RS.Status == ExactStatus::Feasible)
      continue;
    ASSERT_EQ(RB.Status, RS.Status) << Body.Name;
    if (RB.Status == ExactStatus::Optimal) {
      EXPECT_EQ(RB.Sched.II, RS.Sched.II) << Body.Name;
    }
  }
}

TEST(CrossEngine, KernelSuiteCertifiedMaxLiveParity) {
  for (const LoopBody &Body : buildKernelSuite())
    expectCertifiedMaxLiveAgrees(Body);
}

TEST(CrossEngine, RandomLoopsCertifiedMaxLiveParity) {
  // A smaller, smaller-bodied sweep than the verdict-parity one: each loop
  // runs two full minimization passes per II here, not just feasibility.
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/60, /*MinOps=*/3, /*MaxOps=*/12,
                       /*Seed=*/0xCE27, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 60u);
  for (const LoopBody &Body : Suite)
    expectCertifiedMaxLiveAgrees(Body);
}

TEST(CrossEngine, SatEngineReportsCdclEffort) {
  // The unified stats must carry the SAT counters through the neutral API.
  const LoopBody Body = buildKernelSuite().front();
  const DepGraph Graph(Body, machine());
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Sat;
  const ExactResult R = scheduleLoopExact(Graph, Options);
  ASSERT_TRUE(R.Status == ExactStatus::Optimal ||
              R.Status == ExactStatus::Feasible);
  EXPECT_GT(R.EngineStats.SatVariables, 0);
  EXPECT_GT(R.EngineStats.SatClauses, 0);
  EXPECT_GE(R.EngineStats.Decisions, 0);
  EXPECT_EQ(R.NodesExplored, R.EngineStats.Conflicts);
}

TEST(CrossEngine, EngineNamesRoundTrip) {
  EXPECT_STREQ(exactEngineName(ExactEngineKind::BranchAndBound), "bnb");
  EXPECT_STREQ(exactEngineName(ExactEngineKind::Sat), "sat");
  ExactEngineKind E = ExactEngineKind::BranchAndBound;
  EXPECT_TRUE(parseExactEngine("sat", E));
  EXPECT_EQ(E, ExactEngineKind::Sat);
  EXPECT_TRUE(parseExactEngine("bnb", E));
  EXPECT_EQ(E, ExactEngineKind::BranchAndBound);
  EXPECT_FALSE(parseExactEngine("ilp", E));
  EXPECT_EQ(E, ExactEngineKind::BranchAndBound);
}
