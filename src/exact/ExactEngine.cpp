#include "exact/ExactEngine.h"

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "core/FuAssignment.h"
#include "exact/BranchAndBound.h"
#include "sat/MaxLiveSat.h"
#include "sat/SatScheduler.h"

#include <cassert>
#include <cstring>
#include <memory>

using namespace lsms;

const char *lsms::exactStatusName(ExactStatus Status) {
  switch (Status) {
  case ExactStatus::Optimal:
    return "optimal";
  case ExactStatus::Feasible:
    return "feasible";
  case ExactStatus::Infeasible:
    return "infeasible";
  case ExactStatus::Timeout:
    return "timeout";
  }
  return "?";
}

const char *lsms::exactEngineName(ExactEngineKind Engine) {
  switch (Engine) {
  case ExactEngineKind::BranchAndBound:
    return "bnb";
  case ExactEngineKind::Sat:
    return "sat";
  case ExactEngineKind::Portfolio:
    return "portfolio";
  }
  return "?";
}

bool lsms::parseExactEngine(const char *Name, ExactEngineKind &Engine) {
  for (const ExactEngineKind Kind :
       {ExactEngineKind::BranchAndBound, ExactEngineKind::Sat,
        ExactEngineKind::Portfolio}) {
    if (std::strcmp(Name, exactEngineName(Kind)) == 0) {
      Engine = Kind;
      return true;
    }
  }
  return false;
}

const char *lsms::maxLiveCertificateName(MaxLiveCertificate Certificate) {
  switch (Certificate) {
  case MaxLiveCertificate::None:
    return "none";
  case MaxLiveCertificate::MinAvgMet:
    return "minavg";
  case MaxLiveCertificate::BnBExhausted:
    return "bnb-exhausted";
  case MaxLiveCertificate::SatUnsatBelow:
    return "sat-unsat-below";
  }
  return "?";
}

bool lsms::maxLiveCertificatesAgree(MaxLiveCertificate A,
                                    MaxLiveCertificate B) {
  if (A == B)
    return true;
  // The two family-minimality proofs are engine-specific spellings of the
  // same claim.
  auto IsFamily = [](MaxLiveCertificate C) {
    return C == MaxLiveCertificate::BnBExhausted ||
           C == MaxLiveCertificate::SatUnsatBelow;
  };
  return IsFamily(A) && IsFamily(B);
}

bool lsms::certifiedMaxLiveConsistent(long MaxLiveA, MaxLiveCertificate A,
                                      long MaxLiveB, MaxLiveCertificate B) {
  if (A == MaxLiveCertificate::None || B == MaxLiveCertificate::None)
    return true; // no claim, nothing to contradict
  const bool FamA = A != MaxLiveCertificate::MinAvgMet;
  const bool FamB = B != MaxLiveCertificate::MinAvgMet;
  if (FamA == FamB)
    return MaxLiveA == MaxLiveB; // same space, same minimum
  // Mixed: a MinAvg-met (global) value can only sit at or below the
  // certified family minimum.
  return FamA ? MaxLiveB <= MaxLiveA : MaxLiveA <= MaxLiveB;
}

namespace {

/// Folds one SAT engine call's counter deltas into the unified stats.
void accumulateSat(ExactEngineStats &Stats, const SatEngineStats &Sat) {
  Stats.Conflicts += Sat.Conflicts;
  Stats.Propagations += Sat.Propagations;
  Stats.Decisions += Sat.Decisions;
  Stats.Restarts += Sat.Restarts;
  Stats.LearnedClauses += Sat.Learned;
  Stats.Refinements += Sat.Refinements;
  Stats.SatVariables = Sat.Variables;
  Stats.SatClauses = Sat.Clauses;
}

/// State shared across one II ladder: the functional-unit assignment is
/// computed once, and the SAT engine keeps a persistent incremental
/// SatIILadder so the pairwise at-most-one core and every learned clause
/// survive from rung to rung (assumption-based solving retires only the
/// rung-specific guarded clauses).
struct LadderContext {
  explicit LadderContext(const DepGraph &Graph)
      : FuInstance(assignFunctionalUnits(Graph.body(), Graph.machine())) {}

  SatIILadder &ladder(const DepGraph &Graph) {
    if (!Ladder)
      Ladder.reset(new SatIILadder(Graph, FuInstance));
    return *Ladder;
  }

  std::vector<int> FuInstance;
  std::unique_ptr<SatIILadder> Ladder; ///< created on first SAT use
};

/// Runs the engine-selected MaxLive-minimization pass at the II of
/// \p MinDist, seeded with the legal schedule in \p Times (pressure
/// \p MaxLive). Updates both in place with the best found and reports the
/// certificate earned: MinAvgMet when the final value meets the paper's
/// bound, a family certificate when the engine proved the family minimum,
/// None when the budget ran out or only an out-of-family incumbent
/// reached the value. Returns Optimal when the engine's search completed,
/// Timeout otherwise.
ExactStatus runMaxLivePass(const DepGraph &Graph, const MinDistMatrix &MinDist,
                           const ExactOptions &Options,
                           const std::vector<int> &FuInstance,
                           std::vector<int> &Times, long &MaxLive, long MinAvg,
                           ExactEngineStats &Stats,
                           MaxLiveCertificate &Certificate) {
  Certificate = MaxLiveCertificate::None;
  if (MaxLive <= MinAvg) {
    // The seed already meets the schedule-independent lower bound; no
    // search can improve on it at this II.
    Certificate = MaxLiveCertificate::MinAvgMet;
    return ExactStatus::Optimal;
  }

  const auto RunBnB = [&]() {
    bool FamilyCertified = false;
    const ExactStatus St = minimizeMaxLiveBranchAndBound(
        Graph, MinDist, FuInstance, Options.MaxLiveNodeBudget, Times, MaxLive,
        Stats.Nodes, FamilyCertified, Options.Stop);
    if (St != ExactStatus::Optimal)
      return ExactStatus::Timeout;
    if (MaxLive <= MinAvg)
      Certificate = MaxLiveCertificate::MinAvgMet;
    else if (FamilyCertified)
      Certificate = MaxLiveCertificate::BnBExhausted;
    return ExactStatus::Optimal;
  };

  if (Options.Engine == ExactEngineKind::BranchAndBound)
    return RunBnB();

  // SAT cardinality walk, warm-started from the incumbent's pressure (for
  // the portfolio that incumbent may come from the other engine — this is
  // the bnb-to-sat half of the fact sharing).
  const SatMaxLiveResult R = minimizeMaxLiveSat(
      Graph, MinDist, FuInstance, Options.MaxLiveConflictBudget, MinAvg,
      MaxLive, Options.Stop);
  accumulateSat(Stats, R.Stats);
  if (R.FamilyMin >= 0 && R.FamilyMin < MaxLive) {
    MaxLive = R.FamilyMin;
    Times = R.Times;
  }
  if (!R.SearchComplete) {
    if (Options.Engine != ExactEngineKind::Portfolio)
      return ExactStatus::Timeout;
    // Portfolio fallback: hand branch-and-bound the best SAT witness as
    // its incumbent (the sat-to-bnb half of the fact sharing) and let it
    // finish the family proof.
    return RunBnB();
  }
  // Search complete: every family member with pressure below the seed was
  // either found (and is now MaxLive) or refuted. Certify only when the
  // reported value is itself achieved inside the family (FamilyMin ==
  // MaxLive after the update above); a seed that no family member matches
  // stays an uncertified best-effort value.
  if (R.FamilyMin >= 0 && R.FamilyMin <= MaxLive)
    Certificate = MaxLive <= MinAvg ? MaxLiveCertificate::MinAvgMet
                                    : MaxLiveCertificate::SatUnsatBelow;
  return ExactStatus::Optimal;
}

/// The fixed-II decision procedure behind solveAtII. It computes the
/// MinDist relation at \p II into \p MinDist; \p Ctx carries the
/// functional-unit assignment and the incremental SAT ladder across rungs.
ExactStatus solveAtIIImpl(const DepGraph &Graph, int II,
                          const ExactOptions &Options, MinDistMatrix &MinDist,
                          std::vector<int> &TimesOut, ExactEngineStats &Stats,
                          LadderContext &Ctx) {
  // Shared pre-checks: both engines assume a positive-cycle-free MinDist
  // relation and a reservation that fits, so verdicts can only differ if
  // one of the complete decision procedures is wrong.
  if (II <= 0)
    return ExactStatus::Infeasible;
  if (!MinDist.compute(Graph, II))
    return ExactStatus::Infeasible; // II below RecMII: positive cycle
  const LoopBody &Body = Graph.body();
  const MachineModel &Machine = Graph.machine();
  for (const Operation &Op : Body.Ops)
    if (Machine.reservationCycles(Op.Opc) > II)
      return ExactStatus::Infeasible; // non-pipelined op cannot fit

  const auto RunBnB = [&]() {
    return solveAtIIBranchAndBound(Graph, MinDist, Ctx.FuInstance,
                                   Options.NodeBudget, TimesOut, Stats.Nodes,
                                   Options.Stop);
  };
  const auto RunSat = [&]() {
    SatIILadder &Ladder = Ctx.ladder(Graph);
    Ladder.setStopFlag(Options.Stop);
    SatEngineStats Sat;
    const SatScheduleStatus St =
        Ladder.solveAtII(MinDist, Options.SatConflictBudget, TimesOut, Sat);
    accumulateSat(Stats, Sat);
    switch (St) {
    case SatScheduleStatus::Scheduled:
      return ExactStatus::Optimal;
    case SatScheduleStatus::Infeasible:
      return ExactStatus::Infeasible;
    case SatScheduleStatus::Budget:
      return ExactStatus::Timeout;
    }
    return ExactStatus::Timeout;
  };

  switch (Options.Engine) {
  case ExactEngineKind::BranchAndBound:
    return RunBnB();
  case ExactEngineKind::Sat:
    return RunSat();
  case ExactEngineKind::Portfolio: {
    // Branch-and-bound first (fastest on shallow residue spaces), the SAT
    // engine only when its node budget gave out. Both stages answer the
    // identical decision question, so the hand-off cannot change verdicts.
    const ExactStatus St = RunBnB();
    return St == ExactStatus::Timeout ? RunSat() : St;
  }
  }
  return ExactStatus::Timeout;
}

} // namespace

ExactStatus lsms::solveAtII(const DepGraph &Graph, int II,
                            const ExactOptions &Options,
                            std::vector<int> &TimesOut,
                            ExactEngineStats &Stats) {
  MinDistMatrix MinDist;
  LadderContext Ctx(Graph); // one-shot: same verdicts, no reuse
  return solveAtIIImpl(Graph, II, Options, MinDist, TimesOut, Stats, Ctx);
}

ExactResult lsms::scheduleLoopExact(const DepGraph &Graph,
                                    const ExactOptions &Options) {
  ExactResult Result;
  Result.Engine = Options.Engine;
  Schedule &Sched = Result.Sched;
  Sched.ResMII = computeResMII(Graph.body(), Graph.machine());
  Sched.RecMII = computeRecMII(Graph);
  Sched.MII = std::max(Sched.ResMII, Sched.RecMII);

  const int MaxII = Options.IICap.maxII(Sched.MII);
  bool LowerProven = true;
  bool AnyTimeout = false;
  bool Found = false;
  // Each rung recomputes the MinDist relation into one matrix, which keeps
  // the relation at the II the search stops on: MinAvg (and the MaxLive
  // pass) read it there. The context persists the functional-unit
  // assignment and the incremental SAT ladder, so SAT rungs share one
  // clause core and keep every learned clause.
  MinDistMatrix MinDist;
  LadderContext Ctx(Graph);
  for (int II = Sched.MII; II <= MaxII; ++II) {
    if (Options.hasDeadline() &&
        std::chrono::steady_clock::now() >= Options.Deadline) {
      LowerProven = false;
      AnyTimeout = true;
      break;
    }
    ++Result.IIAttempts;
    Sched.II = II;
    const ExactStatus St =
        solveAtIIImpl(Graph, II, Options, MinDist, Sched.Times,
                      Result.EngineStats, Ctx);
    if (St == ExactStatus::Optimal) {
      Found = true;
      break;
    }
    if (St == ExactStatus::Timeout) {
      LowerProven = false;
      AnyTimeout = true;
    }
  }
  Result.NodesExplored = Result.EngineStats.primary(Options.Engine);

  if (!Found) {
    Result.Status =
        AnyTimeout ? ExactStatus::Timeout : ExactStatus::Infeasible;
    return Result;
  }

  Sched.Success = true;
  Result.Status = LowerProven ? ExactStatus::Optimal : ExactStatus::Feasible;
  Result.MaxLive =
      computePressure(Graph.body(), Sched.Times, Sched.II, RegClass::RR)
          .MaxLive;

  // The matrix still holds the relation at the II the search broke on.
  assert(MinDist.initiationInterval() == Sched.II &&
         "feasible II lost its MinDist matrix");
  Result.MinAvgAtII = computeMinAvg(Graph, MinDist);

  if (Options.MinimizeMaxLive) {
    // The pressure-minimization pass runs on the same engine selection
    // that decided feasibility: branch-and-bound enumerates the issue-time
    // family under incumbent pruning, the SAT engine probes "MaxLive <= k"
    // cardinality encodings downward, and the portfolio stages SAT first
    // with a branch-and-bound finisher. Either way the certificate claims
    // the same family minimum.
    runMaxLivePass(Graph, MinDist, Options, Ctx.FuInstance, Sched.Times,
                   Result.MaxLive, Result.MinAvgAtII, Result.EngineStats,
                   Result.Certificate);
    Result.NodesExplored = Result.EngineStats.primary(Options.Engine);
    Result.MaxLiveProven = Result.Certificate != MaxLiveCertificate::None;
  }
  return Result;
}

MaxLiveOutcome lsms::minimizeMaxLiveAtII(const DepGraph &Graph, int II,
                                         const ExactOptions &Options) {
  MinDistMatrix MinDist;
  MaxLiveOutcome Out;
  std::vector<int> Times;
  LadderContext Ctx(Graph);
  const ExactStatus St =
      solveAtIIImpl(Graph, II, Options, MinDist, Times, Out.Stats, Ctx);
  if (St != ExactStatus::Optimal) {
    // At a fixed II the ladder statuses collapse to Infeasible/Timeout.
    Out.Status = St;
    return Out;
  }
  Out.MinAvg = computeMinAvg(Graph, MinDist);
  Out.MaxLive =
      computePressure(Graph.body(), Times, II, RegClass::RR).MaxLive;
  Out.Status = runMaxLivePass(Graph, MinDist, Options, Ctx.FuInstance, Times,
                              Out.MaxLive, Out.MinAvg, Out.Stats,
                              Out.Certificate);
  Out.Times = std::move(Times);
  return Out;
}

ExactResult lsms::scheduleLoopExact(const LoopBody &Body,
                                    const MachineModel &Machine,
                                    const ExactOptions &Options) {
  const DepGraph Graph(Body, Machine);
  return scheduleLoopExact(Graph, Options);
}
