//===----------------------------------------------------------------------===//
///
/// \file
/// SAT certification path for exact MaxLive minimization over issue-time
/// families. Where the branch-and-bound pass (exact/BranchAndBound.h)
/// proves the family minimum by exhausting the residue search, this module
/// proves the same bound by unsatisfiability: "some family schedule has
/// MaxLive <= k" is encoded as CNF and k is searched downward, so the
/// final UNSAT answer is an engine-independent certificate that no
/// schedule of canonical makespan beats the reported pressure.
///
/// The encoding is time-indexed rather than residue-indexed. Every real
/// operation gets order literals O(x,t) = "x issues at or before t" over
/// its static [Estart, Lstart] window (computeIssueWindows — the same
/// family definition the branch-and-bound engine enumerates), chained so
/// a model picks exactly one issue time; direct literals channel to the
/// order chain for the modulo-resource conflicts, which depend only on
/// residues and are probed pairwise against the reservation table.
/// Dependence bounds t_y - t_x >= MinDist(x,y) become one binary clause
/// per (pair, time). A root conflict among these clauses means the family
/// is empty: the encoding stops there, and the first probe answers UNSAT
/// with no pressure encoding built. Otherwise register pressure enters
/// through liveness literals B(v,tau) — value v live at absolute cycle
/// tau — forced true whenever the def has issued by tau and some use ends
/// after tau; wrapping lifetimes longer than II are counted exactly because
/// every absolute cycle of the lifetime contributes to its column
/// tau mod II. A cycle where v is live in every family member (the def's
/// window has closed and some use's window has not opened) gets no
/// literal: it adds one to its column's fixed load F[c]. A sequential
/// counter per column caps the remaining literals at k - F[c] (a column
/// with F[c] > k refutes the cap without a search), and k is tightened
/// monotonically (each model's true pressure jumps k below it), so one
/// incremental solver instance carries all probes down to the UNSAT
/// floor.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SAT_MAXLIVESAT_H
#define LSMS_SAT_MAXLIVESAT_H

#include "graph/MinDist.h"
#include "ir/DepGraph.h"
#include "sat/SatScheduler.h"

#include <atomic>
#include <vector>

namespace lsms {

/// Result of one SAT MaxLive-certification run.
struct SatMaxLiveResult {
  /// True when the downward search ran to completion (final probe UNSAT
  /// or the MinAvg floor reached) within the conflict budget. Only then
  /// is FamilyMin a proven family minimum.
  bool SearchComplete = false;

  /// Minimal MaxLive over the issue-time family when SearchComplete and a
  /// member at or below the caller's cap exists; -1 when the search
  /// proved no family member has MaxLive <= cap (including the empty
  /// family). When the budget ran out, the best witness value found so
  /// far (-1 if none) without any minimality claim.
  long FamilyMin = -1;

  /// Witness schedule achieving FamilyMin (validator-clean; empty when
  /// FamilyMin is -1). Pseudo-ops are placed at their earliest consistent
  /// cycles.
  std::vector<int> Times;

  /// CDCL + encoder statistics, cumulative over all probes.
  SatEngineStats Stats;
};

/// Searches for the minimal family MaxLive at the II of \p MinDist (which
/// must already hold the relation at that II), considering only values
/// k <= \p UpperCap — the caller's incumbent pressure; anything above it
/// cannot improve the reported schedule, so the search is cut there.
/// \p MinAvg is the paper's lower bound at this II: a witness meeting it
/// is accepted without a further probe. \p ConflictBudget bounds total
/// CDCL conflicts across probes; <= 0 gives up before any search.
/// Deterministic unless \p Stop is set (a cancelled run reports
/// best-so-far with no completeness claim).
SatMaxLiveResult minimizeMaxLiveSat(const DepGraph &Graph,
                                    const MinDistMatrix &MinDist,
                                    const std::vector<int> &FuInstance,
                                    long ConflictBudget, long MinAvg,
                                    long UpperCap,
                                    const std::atomic<bool> *Stop = nullptr);

} // namespace lsms

#endif // LSMS_SAT_MAXLIVESAT_H
