#include "sat/SatScheduler.h"

#include <cassert>

using namespace lsms;

SatIILadder::SatIILadder(const DepGraph &Graph,
                         const std::vector<int> &FuInstance)
    : Graph(Graph), FuInstance(FuInstance),
      Closure(Graph.body(), Graph.machine()) {}

void SatIILadder::growColumns(int NewColumns) {
  // One variable block per residue column; at-most-one against every
  // earlier column is II-independent (an operation occupies exactly one
  // residue whatever the II), so these clauses are permanent and shared by
  // every rung — the quadratic part of the exactly-one encoding is paid
  // once per loop instead of once per rung.
  while (static_cast<int>(ColBase.size()) < NewColumns) {
    const int Col = static_cast<int>(ColBase.size());
    ColBase.push_back(Solver.numVars());
    for (size_t S = 0; S < Closure.Ops.Real.size(); ++S)
      Solver.newVar();
    for (size_t S = 0; S < Closure.Ops.Real.size(); ++S)
      for (int B = 0; B < Col; ++B)
        Solver.addClause({~placedAt(static_cast<int>(S), B),
                          ~placedAt(static_cast<int>(S), Col)});
  }
}

void SatIILadder::encodeRung(Lit Guard, const MinDistMatrix &MinDist) {
  const int II = MinDist.initiationInterval();
  const std::vector<int> &Real = Closure.Ops.Real;

  // At-least-one over [0, II) — II-dependent, so guarded.
  for (size_t S = 0; S < Real.size(); ++S) {
    ClauseBuf.assign(1, Guard);
    for (int R = 0; R < II; ++R)
      ClauseBuf.push_back(placedAt(static_cast<int>(S), R));
    Solver.addClause(ClauseBuf);
  }

  // Modulo-resource conflicts are pairwise over operations sharing a
  // functional-unit instance. Residues an operation cannot occupy even
  // alone are excluded for this rung.
  ResourceProbe Probe(Graph.body(), Graph.machine(), FuInstance, II);
  for (size_t SU = 0; SU < Real.size(); ++SU) {
    const int SlotU = static_cast<int>(SU);
    for (int A = 0; A < II; ++A)
      if (!Probe.fitsAlone(Real[SU], A))
        Solver.addClause({Guard, ~placedAt(SlotU, A)});
    for (size_t SV = SU + 1; SV < Real.size(); ++SV)
      Probe.forEachConflict(Real[SU], Real[SV], [&](int A, int B) {
        Solver.addClause({Guard, ~placedAt(SlotU, A),
                          ~placedAt(static_cast<int>(SV), B)});
      });
  }

  // Pairwise dependence legality; positive cycles longer than two are
  // handled lazily.
  forEachTwoCycle(MinDist, Real, [&](size_t SU, int A, size_t SV, int B) {
    Solver.addClause({Guard, ~placedAt(static_cast<int>(SU), A),
                      ~placedAt(static_cast<int>(SV), B)});
  });
}

SatScheduleStatus SatIILadder::solveAtII(const MinDistMatrix &MinDist,
                                         long ConflictBudget,
                                         std::vector<int> &TimesOut,
                                         SatEngineStats &Stats) {
  const int II = MinDist.initiationInterval();
  assert(II > 0 && MinDist.numOps() == Graph.numOps() &&
         "MinDist must hold the relation at the candidate II");
  assert(II >= LastII && "ladder rungs must be non-decreasing");

  const SolverDelta Delta(Solver);
  if (Delta.conflictsLeft(ConflictBudget) <= 0)
    return SatScheduleStatus::Budget;

  // Retire the previous rung: its activation literal becomes a permanent
  // fact, satisfying the whole group (and every learned clause guarded by
  // it) without touching the shared at-most-one core.
  if (ActiveGuard.Code >= 0 && II != LastII) {
    Solver.addClause({ActiveGuard});
    ActiveGuard = Lit{};
  }
  if (!Solver.okay()) {
    Delta.addTo(Stats);
    return SatScheduleStatus::Infeasible;
  }
  if (ActiveGuard.Code < 0) {
    growColumns(II);
    ActiveGuard = mkLit(Solver.newVar());
    encodeRung(ActiveGuard, MinDist);
    LastII = II;
  }

  SatScheduleStatus Status = SatScheduleStatus::Budget;
  for (;;) {
    const long Left = Delta.conflictsLeft(ConflictBudget);
    const SatResult R = Left <= 0 ? SatResult::Unknown
                                  : Solver.solveUnderAssumptions(
                                        {~ActiveGuard}, Left);
    if (R == SatResult::Unknown)
      break;
    if (R == SatResult::Unsat) {
      Status = SatScheduleStatus::Infeasible;
      // Retire immediately: nothing below this II will be asked again.
      if (Solver.okay())
        Solver.addClause({ActiveGuard});
      ActiveGuard = Lit{};
      break;
    }
    Closure.readModel(Solver, II, [&](size_t S, int Res) {
      return ColBase[static_cast<size_t>(Res)] + static_cast<int>(S);
    });
    Closure.load(MinDist);
    if (Closure.close()) {
      Closure.decode(TimesOut);
      Status = SatScheduleStatus::Scheduled;
      break;
    }
    // Block the cycle's strongly connected residues; the cut's weights
    // are this rung's, so it carries the rung guard.
    ClauseBuf.assign(1, ActiveGuard);
    for (size_t U = 0; U < Closure.Ops.Real.size(); ++U)
      if (Closure.onCycle(U))
        ClauseBuf.push_back(~placedAt(static_cast<int>(U), Closure.Rho[U]));
    Solver.addClause(ClauseBuf);
    ++Stats.Refinements;
  }

  Delta.addTo(Stats);
  return Status;
}

SatScheduleStatus lsms::scheduleAtIISat(const DepGraph &Graph,
                                        const MinDistMatrix &MinDist,
                                        const std::vector<int> &FuInstance,
                                        long ConflictBudget,
                                        std::vector<int> &TimesOut,
                                        SatEngineStats &Stats) {
  SatIILadder Ladder(Graph, FuInstance);
  return Ladder.solveAtII(MinDist, ConflictBudget, TimesOut, Stats);
}
