//===----------------------------------------------------------------------===//
///
/// \file
/// The branch-and-bound exact engine behind the engine-neutral API
/// (ExactEngine.h). For a fixed II the solver branches over issue-cycle
/// residues modulo II — the only part of an issue time the modulo resource
/// table can see — and checks dependence feasibility with an incremental
/// positive-cycle test on the MinDist relation tightened to the chosen
/// residues. The residue space is finite, so the search is complete: at a
/// fixed II it either produces a legal schedule, proves that none exists
/// (for the deterministic pre-scheduling functional-unit assignment shared
/// with the heuristic and the validator), or gives up when the node budget
/// is exhausted.
///
/// A secondary objective mode re-runs the search at the optimal II to
/// minimize MaxLive, branching in order of lifetime contribution and
/// bounding with the paper's MinAvg machinery (Section 3.2). Each leaf is
/// evaluated over its whole *issue-time family*: starting from the
/// canonical earliest times of the residue assignment, every combination
/// of per-op shifts by multiples of II that stays inside the static
/// [Estart, Lstart] windows (computeIssueWindows) and the leaf's tightened
/// constraint matrix is enumerated, so the leaf contributes the minimum
/// MaxLive of its family rather than the earliest-time value. Exhausting
/// the search therefore proves that no schedule of canonical makespan
/// beats the best pressure found; meeting the MinAvg lower bound proves
/// it globally optimal.
///
/// These entry points assume the shared pre-checks already ran (the
/// dispatch in ExactEngine.cpp rejects II < RecMII via MinDist and
/// non-pipelined reservations longer than II before selecting an engine).
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_EXACT_BRANCHANDBOUND_H
#define LSMS_EXACT_BRANCHANDBOUND_H

#include "exact/ExactEngine.h"

#include <atomic>
#include <vector>

namespace lsms {

/// Decides schedulability at the fixed II of \p MinDist (which must
/// already hold the relation at that II) for the functional-unit
/// assignment \p FuInstance. Returns Optimal (\p TimesOut filled),
/// Infeasible, or Timeout; \p Nodes is incremented by the candidate
/// residues evaluated. Deterministic. A set \p Stop flag (a caller's
/// cooperative cancellation, ExactOptions::Stop) surfaces as Timeout.
ExactStatus solveAtIIBranchAndBound(const DepGraph &Graph,
                                    const MinDistMatrix &MinDist,
                                    const std::vector<int> &FuInstance,
                                    long NodeBudget,
                                    std::vector<int> &TimesOut, long &Nodes,
                                    const std::atomic<bool> *Stop = nullptr);

/// Minimizes MaxLive at the II of \p MinDist, seeded with the legal
/// schedule in \p TimesInOut. Returns Optimal when the search space was
/// exhausted (or the MinAvg bound was met), Timeout when the node budget
/// ran out first; \p TimesInOut and \p MaxLiveInOut hold the best found
/// either way. On Optimal, \p FamilyCertifiedOut reports whether the best
/// pressure is additionally the proven minimum over the issue-time family
/// (a member achieving it was found and the exhausted search excluded
/// anything smaller); it stays false when the incumbent — which may issue
/// past the canonical makespan — beat every family member.
ExactStatus minimizeMaxLiveBranchAndBound(
    const DepGraph &Graph, const MinDistMatrix &MinDist,
    const std::vector<int> &FuInstance, long NodeBudget,
    std::vector<int> &TimesInOut, long &MaxLiveInOut, long &Nodes,
    bool &FamilyCertifiedOut, const std::atomic<bool> *Stop = nullptr);

} // namespace lsms

#endif // LSMS_EXACT_BRANCHANDBOUND_H
