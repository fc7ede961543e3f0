//===----------------------------------------------------------------------===//
///
/// \file
/// SAT backend for exact modulo scheduling: encodes the fixed-II
/// schedulability question the branch-and-bound engine answers by search
/// as a Boolean satisfiability problem and decides it with the embedded
/// CDCL solver (SatSolver.h), giving an independent decision procedure the
/// two engines can be cross-checked on.
///
/// The encoding follows the residue-space theorem the branch-and-bound
/// solver is built on: at a fixed II, a schedule exists iff there is an
/// assignment of issue-cycle residues rho(op) in [0, II) such that (a) the
/// modulo reservation table accepts every residue under the pre-scheduling
/// functional-unit assignment and (b) the dependence-constraint graph,
/// with each placed-pair bound MinDist(x,y) tightened to the smallest
/// congruent value, has no positive cycle. One Boolean per (operation,
/// residue) with exactly-one constraints captures the assignment; resource
/// conflicts and pairwise two-cycle dependence violations become binary
/// clauses up front; longer positive cycles (which pairwise clauses cannot
/// express) are excluded by lazy refinement — each candidate model is
/// checked with a max-plus closure, and any positive cycle found is
/// returned to the solver as a blocking clause over the participating
/// (operation, residue) pairs. The loop terminates because each cut
/// removes at least one point of the finite residue space, so the verdict
/// is exact: Scheduled models decode to validator-clean schedules and
/// Infeasible proves no schedule exists at this II.
///
/// The encoding is *incremental across the II = MII, MII+1, ... ladder*
/// (SatIILadder): one persistent solver per loop. At-most-one clauses over
/// residue columns are valid at every rung (an operation has one residue
/// regardless of II), so they — and all learned clauses — are shared;
/// residue columns are grown lazily as the ladder climbs. Everything that
/// depends on the concrete II (at-least-one over [0, II), resource
/// conflicts, dependence-difference clauses, lazy cycle cuts) is guarded
/// by a per-rung activation literal a_II: clauses carry a_II, the rung is
/// decided by solving under the assumption ¬a_II, and a finished rung is
/// permanently retired with the unit clause {a_II}, which also satisfies
/// every learned clause that depended on the rung.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SAT_SATSCHEDULER_H
#define LSMS_SAT_SATSCHEDULER_H

#include "graph/MinDist.h"
#include "ir/DepGraph.h"
#include "sat/ResidueSpace.h"
#include "sat/SatSolver.h"

#include <atomic>
#include <vector>

namespace lsms {

/// Engine-level verdict for one fixed-II SAT attempt. The engine-neutral
/// dispatch (exact/ExactEngine.h) maps these onto ExactStatus.
enum class SatScheduleStatus : uint8_t {
  Scheduled,  ///< model found and decoded; TimesOut passes validateSchedule
  Infeasible, ///< formula (plus sound cuts) proven unsatisfiable
  Budget,     ///< conflict budget exhausted first
};

/// Persistent incremental SAT context for one loop's II ladder. Rungs must
/// be visited in non-decreasing II order; each solveAtII call retires the
/// previous rung's activation group and encodes only what the new II adds.
/// Deterministic for a fixed call sequence (unless a stop flag is set).
class SatIILadder {
public:
  SatIILadder(const DepGraph &Graph, const std::vector<int> &FuInstance);

  /// Decides schedulability at the II of \p MinDist (which must already
  /// hold the relation at that II). Semantics match scheduleAtIISat.
  SatScheduleStatus solveAtII(const MinDistMatrix &MinDist,
                              long ConflictBudget,
                              std::vector<int> &TimesOut,
                              SatEngineStats &Stats);

  /// Cooperative cancellation (see SatSolver::setStopFlag); a cancelled
  /// call reports Budget.
  void setStopFlag(const std::atomic<bool> *Flag) {
    Solver.setStopFlag(Flag);
  }

private:
  Lit placedAt(int Slot, int Rho) const {
    return mkLit(ColBase[static_cast<size_t>(Rho)] + Slot);
  }
  void growColumns(int NewColumns);
  void encodeRung(Lit Guard, const MinDistMatrix &MinDist);

  const DepGraph &Graph;
  const std::vector<int> FuInstance;
  TightenedClosure Closure; ///< over the decoded residues of each model

  SatSolver Solver;
  std::vector<int> ColBase; ///< residue column -> base variable index
  Lit ActiveGuard{};        ///< current rung's activation literal
  int LastII = 0;
  std::vector<Lit> ClauseBuf; ///< at-least-one clauses and cycle cuts
};

/// Decides schedulability of \p Graph at the fixed II of \p MinDist (which
/// must already hold the relation at that II) for the pre-scheduling
/// functional-unit assignment \p FuInstance. On Scheduled, \p TimesOut
/// holds canonical earliest issue times consistent with the model's
/// residues. \p ConflictBudget bounds total CDCL conflicts across
/// refinement rounds; <= 0 gives up before any search (mirroring the
/// branch-and-bound node budget). Deterministic. One-shot convenience
/// wrapper over SatIILadder; ladder callers reuse the context instead.
SatScheduleStatus scheduleAtIISat(const DepGraph &Graph,
                                  const MinDistMatrix &MinDist,
                                  const std::vector<int> &FuInstance,
                                  long ConflictBudget,
                                  std::vector<int> &TimesOut,
                                  SatEngineStats &Stats);

} // namespace lsms

#endif // LSMS_SAT_SATSCHEDULER_H
