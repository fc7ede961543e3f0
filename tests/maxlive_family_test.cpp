//===----------------------------------------------------------------------===//
/// \file Randomized property harness for exact MaxLive certification over
/// issue-time families. The family of a loop at a feasible II is every
/// dependence- and resource-feasible schedule whose real operations issue
/// inside their static [Estart, Lstart] windows (canonical makespan); both
/// exact engines claim their certified MaxLive is minimal over exactly
/// that space, so the harness holds them to the properties that claim
/// implies: the family minimum never exceeds a canonical earliest-times
/// schedule's pressure, certified values never drop below the MinAvg
/// bound, the two engines' certified values and certificate kinds agree,
/// and every witness schedule is validator-clean. Suite kernels plus 200
/// seeded random loops, and a pin of the pass's outcomes over the kernels
/// and the prove_mix flat loops.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "core/FuAssignment.h"
#include "core/Validate.h"
#include "exact/ExactEngine.h"
#include "sat/MaxLiveSat.h"
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

/// Reduced budgets keep the 200-loop sweep inside test-tier runtime. A
/// budgeted run degrades to "no certificate" (which the harness skips),
/// never to a wrong one, so tightening budgets cannot hide a violation.
ExactOptions testOptions(ExactEngineKind Engine) {
  ExactOptions O;
  O.Engine = Engine;
  O.NodeBudget = 1L << 14;
  O.SatConflictBudget = 1L << 14;
  O.MaxLiveNodeBudget = 1L << 14;
  O.MaxLiveConflictBudget = 1L << 14;
  return O;
}

void expectValidatorClean(const DepGraph &Graph, int II,
                          const std::vector<int> &Times, const char *What) {
  Schedule S;
  S.Success = true;
  S.II = II;
  S.Times = Times;
  EXPECT_EQ(validateSchedule(Graph, S), "")
      << Graph.body().Name << " II=" << II << " (" << What << ")";
}

/// Checks every family property one loop exposes. Returns true when both
/// engines certified (so callers can assert coverage over a sweep).
bool checkFamilyProperties(const LoopBody &Body) {
  const DepGraph Graph(Body, machine());

  // Canonical reference: the exact feasibility schedule with no pressure
  // pass — a canonical earliest-times leaf of the residue search.
  const ExactResult Canonical =
      scheduleLoopExact(Graph, testOptions(ExactEngineKind::BranchAndBound));
  if (!Canonical.Sched.Success)
    return false; // infeasible under the cap, or budgeted out
  const int II = Canonical.Sched.II;
  const long CanonicalMaxLive = Canonical.MaxLive;
  expectValidatorClean(Graph, II, Canonical.Sched.Times, "canonical");

  const MaxLiveOutcome B = minimizeMaxLiveAtII(
      Graph, II, testOptions(ExactEngineKind::BranchAndBound));
  const MaxLiveOutcome S =
      minimizeMaxLiveAtII(Graph, II, testOptions(ExactEngineKind::Sat));

  for (const MaxLiveOutcome *O : {&B, &S}) {
    if (O->Times.empty())
      continue;
    expectValidatorClean(Graph, II, O->Times,
                         O == &B ? "bnb witness" : "sat witness");
    // No schedule at this II beats the paper's schedule-independent
    // bound, certified or not.
    EXPECT_GE(O->MaxLive, O->MinAvg) << Body.Name << " II=" << II;
    // A MinAvg certificate is exactly the claim of meeting the bound.
    if (O->Certificate == MaxLiveCertificate::MinAvgMet) {
      EXPECT_EQ(O->MaxLive, O->MinAvg) << Body.Name << " II=" << II;
    }
  }

  // Family minimization is seeded with the canonical schedule, so its
  // best-found pressure can only improve on it.
  if (!B.Times.empty()) {
    EXPECT_LE(B.MaxLive, CanonicalMaxLive) << Body.Name << " II=" << II;
  }

  // Both engines' proofs must be mutually consistent: same-kind
  // certificates name the same minimum; a MinAvg-met global value (which
  // may come from outside the family) sits at or below a certified
  // family minimum.
  EXPECT_TRUE(certifiedMaxLiveConsistent(B.MaxLive, B.Certificate,
                                         S.MaxLive, S.Certificate))
      << Body.Name << " II=" << II << ": bnb " << B.MaxLive << " ("
      << maxLiveCertificateName(B.Certificate) << ") vs sat " << S.MaxLive
      << " (" << maxLiveCertificateName(S.Certificate) << ")";
  if (maxLiveCertificatesAgree(B.Certificate, S.Certificate) &&
      B.Certificate != MaxLiveCertificate::None) {
    EXPECT_EQ(B.MaxLive, S.MaxLive)
        << Body.Name << " II=" << II << ": bnb "
        << maxLiveCertificateName(B.Certificate) << " vs sat "
        << maxLiveCertificateName(S.Certificate);
  }
  return B.Certificate != MaxLiveCertificate::None &&
         S.Certificate != MaxLiveCertificate::None;
}

} // namespace

TEST(IssueWindows, PseudoOpsPinTheWindowFrame) {
  // Start is pinned at cycle 0 and Stop at the canonical makespan Cap;
  // every real operation's window sits inside [0, Cap].
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, machine());
    const MIIBounds Bounds = computeMII(Graph);
    MinDistMatrix MinDist;
    ASSERT_TRUE(MinDist.compute(Graph, Bounds.MII)) << Body.Name;
    const IssueWindows W = computeIssueWindows(Body, MinDist);
    const int Start = Body.startOp(), Stop = Body.stopOp();
    EXPECT_EQ(W.Estart[static_cast<size_t>(Start)], 0) << Body.Name;
    EXPECT_EQ(W.Lstart[static_cast<size_t>(Start)], 0) << Body.Name;
    EXPECT_EQ(W.Estart[static_cast<size_t>(Stop)], W.Cap) << Body.Name;
    EXPECT_EQ(W.Lstart[static_cast<size_t>(Stop)], W.Cap) << Body.Name;
    for (int X = 0; X < Body.numOps(); ++X) {
      EXPECT_GE(W.Estart[static_cast<size_t>(X)], 0) << Body.Name;
      EXPECT_LE(W.Lstart[static_cast<size_t>(X)], W.Cap) << Body.Name;
      EXPECT_LE(W.Estart[static_cast<size_t>(X)],
                W.Lstart[static_cast<size_t>(X)])
          << Body.Name << " op " << X << ": empty window at a feasible II";
    }
  }
}

TEST(IssueWindows, CertifiedScheduleStaysInsideItsWindows) {
  // A family certificate is only meaningful if the witness actually lies
  // in the family: every real op inside its window at the certified II.
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, machine());
    const MaxLiveOutcome B = minimizeMaxLiveAtII(
        Graph, computeMII(Graph).MII,
        testOptions(ExactEngineKind::BranchAndBound));
    if (B.Certificate == MaxLiveCertificate::None || B.Times.empty())
      continue;
    MinDistMatrix MinDist;
    ASSERT_TRUE(MinDist.compute(Graph, computeMII(Graph).MII));
    const IssueWindows W = computeIssueWindows(Body, MinDist);
    for (int X = 0; X < Body.numOps(); ++X) {
      if (machine().unitFor(Body.op(X).Opc) == FuKind::None)
        continue;
      EXPECT_GE(B.Times[static_cast<size_t>(X)],
                W.Estart[static_cast<size_t>(X)])
          << Body.Name << " op " << X;
      EXPECT_LE(B.Times[static_cast<size_t>(X)],
                W.Lstart[static_cast<size_t>(X)])
          << Body.Name << " op " << X;
    }
  }
}

TEST(MaxLiveFamily, KernelSuiteProperties) {
  int Certified = 0;
  for (const LoopBody &Body : buildKernelSuite())
    Certified += checkFamilyProperties(Body) ? 1 : 0;
  // The kernels are small; the harness must actually exercise the
  // certified path on them, not skip everything.
  EXPECT_GT(Certified, 0);
}

TEST(MaxLiveFamily, TwoHundredRandomLoopsProperties) {
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/14,
                       /*Seed=*/0xFA311E5, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 200u);
  int Certified = 0;
  for (const LoopBody &Body : Suite)
    Certified += checkFamilyProperties(Body) ? 1 : 0;
  // Coverage floor: a majority of the sweep must reach double
  // certification, or the harness is silently skipping its own subject.
  EXPECT_GE(Certified, 50) << "only " << Certified
                           << "/200 loops were certified by both engines";
}

TEST(MaxLiveFamily, CertificateNamesRoundTrip) {
  EXPECT_STREQ(maxLiveCertificateName(MaxLiveCertificate::None), "none");
  EXPECT_STREQ(maxLiveCertificateName(MaxLiveCertificate::MinAvgMet),
               "minavg");
  EXPECT_STREQ(maxLiveCertificateName(MaxLiveCertificate::BnBExhausted),
               "bnb-exhausted");
  EXPECT_STREQ(maxLiveCertificateName(MaxLiveCertificate::SatUnsatBelow),
               "sat-unsat-below");
}

TEST(MaxLiveFamily, CertificateAgreementIsEngineBlind) {
  using C = MaxLiveCertificate;
  EXPECT_TRUE(maxLiveCertificatesAgree(C::MinAvgMet, C::MinAvgMet));
  EXPECT_TRUE(maxLiveCertificatesAgree(C::BnBExhausted, C::SatUnsatBelow));
  EXPECT_TRUE(maxLiveCertificatesAgree(C::SatUnsatBelow, C::BnBExhausted));
  EXPECT_TRUE(maxLiveCertificatesAgree(C::None, C::None));
  EXPECT_FALSE(maxLiveCertificatesAgree(C::MinAvgMet, C::BnBExhausted));
  EXPECT_FALSE(maxLiveCertificatesAgree(C::None, C::SatUnsatBelow));
}

TEST(MaxLiveFamily, DeterministicAcrossRuns) {
  // The certification path feeds golden reports, so it must be a pure
  // function of the loop: same outcome, witness, and effort both times.
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const int II = computeMII(Graph).MII;
  for (const ExactEngineKind Engine :
       {ExactEngineKind::BranchAndBound, ExactEngineKind::Sat}) {
    const MaxLiveOutcome A = minimizeMaxLiveAtII(Graph, II,
                                                 testOptions(Engine));
    const MaxLiveOutcome B = minimizeMaxLiveAtII(Graph, II,
                                                 testOptions(Engine));
    EXPECT_EQ(A.Status, B.Status);
    EXPECT_EQ(A.MaxLive, B.MaxLive);
    EXPECT_EQ(A.Certificate, B.Certificate);
    EXPECT_EQ(A.Times, B.Times);
    EXPECT_EQ(A.Stats.primary(Engine), B.Stats.primary(Engine));
  }
}

namespace {

/// What the MaxLive pass decided over a set of loops: sums of the
/// outcomes, a count per certificate kind, and an order-sensitive FNV-1a
/// hash of each loop's (II, MaxLive, MinAvg, certificate, status), or of
/// a direct SAT walk's (FamilyMin, SearchComplete).
struct OutcomeDigest {
  long Loops = 0, MaxLive = 0, MinAvg = 0, FamilyMin = 0, Complete = 0;
  long Certificates[4] = {};
  uint64_t Hash = 0xcbf29ce484222325ULL;

  void mix(uint64_t Word) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xffu;
      Hash *= 0x100000001b3ULL;
    }
  }

  void add(int II, const MaxLiveOutcome &O) {
    ++Loops;
    MaxLive += O.MaxLive;
    MinAvg += O.MinAvg;
    ++Certificates[static_cast<size_t>(O.Certificate)];
    for (const long Word : {static_cast<long>(II), O.MaxLive, O.MinAvg,
                            static_cast<long>(O.Certificate),
                            static_cast<long>(O.Status)})
      mix(static_cast<uint64_t>(Word));
  }
  void add(const SatMaxLiveResult &R) {
    ++Loops;
    FamilyMin += R.FamilyMin;
    Complete += R.SearchComplete;
    mix(static_cast<uint64_t>(R.FamilyMin));
    mix(R.SearchComplete);
  }

  std::string str() const {
    std::ostringstream OS;
    OS << "loops " << Loops << " maxlive " << MaxLive << " minavg "
       << MinAvg << " familymin " << FamilyMin << " complete " << Complete
       << " certificates " << Certificates[0] << '/' << Certificates[1]
       << '/' << Certificates[2] << '/' << Certificates[3] << " hash "
       << std::hex << Hash;
    return OS.str();
  }
};

} // namespace

TEST(MaxLivePin, OutcomesMatchRecorded) {
  // The MaxLive pass as the prove_mix workload runs it, over the kernels
  // and that workload's 1,000 flat oracle loops at default budgets: the
  // portfolio finds the minimal II, then minimizeMaxLiveAtII certifies
  // the pressure there. The SAT walk is also run on its own, capped at the
  // seed schedule's MaxLive and at MinAvg. An encoding change that keeps
  // the formula's meaning keeps these constants even when the solver's
  // search moves; re-record them only for a change meant to alter a
  // certified value.
  std::vector<LoopBody> Loops = buildKernelSuite();
  ASSERT_EQ(Loops.size(), 43u);
  for (LoopBody &Body : buildOracleSuite(/*Count=*/1000, /*MinOps=*/3,
                                         /*MaxOps=*/20, /*Seed=*/0x19930601,
                                         /*Jobs=*/1))
    Loops.push_back(std::move(Body));
  ExactOptions Options;
  Options.Engine = ExactEngineKind::Portfolio;
  Options.MinimizeMaxLive = false;
  OutcomeDigest Pass, AtSeed, AtMinAvg;
  for (const LoopBody &Body : Loops) {
    const DepGraph Graph(Body, machine());
    const ExactResult Ex = scheduleLoopExact(Graph, Options);
    if (!Ex.Sched.Success)
      continue;
    const int II = Ex.Sched.II;
    Pass.add(II, minimizeMaxLiveAtII(Graph, II, Options));
    MinDistMatrix MinDist;
    ASSERT_TRUE(MinDist.compute(Graph, II)) << Body.Name;
    const std::vector<int> FuInstance =
        assignFunctionalUnits(Body, machine());
    for (auto [Digest, Cap] : {std::pair{&AtSeed, Ex.MaxLive},
                               std::pair{&AtMinAvg, Ex.MinAvgAtII}})
      Digest->add(minimizeMaxLiveSat(Graph, MinDist, FuInstance,
                                     Options.MaxLiveConflictBudget,
                                     Ex.MinAvgAtII, Cap));
  }
  EXPECT_EQ(Pass.str(),
            "loops 1043 maxlive 22182 minavg 17375 familymin 0 complete 0 "
            "certificates 609/267/0/167 hash 93f206e386cad76e");
  EXPECT_EQ(AtSeed.str(),
            "loops 1043 maxlive 0 minavg 0 familymin 5576 complete 1043 "
            "certificates 0/0/0/0 hash db79b3ca4e80a823");
  EXPECT_EQ(AtMinAvg.str(),
            "loops 1043 maxlive 0 minavg 0 familymin 2846 complete 1043 "
            "certificates 0/0/0/0 hash 4392174972799c1e");
}
