//===----------------------------------------------------------------------===//
///
/// \file
/// SAT backend for exact spatial modulo scheduling: extends the flat
/// (operation, residue) encoding of SatScheduler.h with *placement* — one
/// selector per (operation, residue, PE) triple — so a model decides both
/// when and where every operation executes on a CgraModel grid.
///
/// The clause families mirror the residue-space theorem, spatialized:
/// exactly-one residue per operation (shared with the flat encoding),
/// channeling between residue columns and (residue, PE) selectors with
/// at-most-one PE per operation, per-PE modulo-resource exclusivity
/// (pairwise over operations sharing a capable PE, reservation cycles
/// included), and pairwise dependence legality — the flat two-cycle test
/// over MinDist plus, for register-flow arcs inside a recurrence, the
/// hop-strengthened test per (PE, PE) pair, since a value crossing the
/// grid adds hop latency to its dependence. Longer positive cycles and
/// route-capacity overflows (bounded remote transfers per PE per cycle)
/// cannot be expressed pairwise; both are excluded by lazy CEGAR
/// refinement: each candidate model is checked with a hop-augmented
/// max-plus closure and a route count, and every violation becomes a
/// blocking clause over the participating selectors. Each cut removes at
/// least one point of the finite (residue x PE) space, so the verdict is
/// exact: Mapped models decode to validateMapping-clean mappings and
/// Infeasible proves no mapping exists at this II.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SAT_CGRASAT_H
#define LSMS_SAT_CGRASAT_H

#include "cgra/CgraModel.h"
#include "graph/MinDist.h"
#include "ir/DepGraph.h"
#include "sat/SatScheduler.h"

#include <vector>

namespace lsms {

/// Verdict for one fixed-II spatial SAT attempt.
enum class CgraSatStatus : uint8_t {
  Mapped,     ///< model found; (TimesOut, PesOut) passes validateMapping
  Infeasible, ///< no mapping exists at this II
  Budget,     ///< conflict budget exhausted first
};

/// Decides spatial mappability of \p Graph (built over Cgra.flatModel())
/// onto \p Cgra at the fixed II of \p MinDist, which must already hold the
/// relation at that II. On Mapped, \p TimesOut holds canonical earliest
/// issue times and \p PesOut the PE per op (-1 for ops taking no PE slot).
/// \p ConflictBudget bounds CDCL conflicts across refinement rounds; <= 0
/// gives up before any search. Deterministic; one fresh solver per call
/// (the spatial ladder is not yet incremental across rungs).
CgraSatStatus mapAtIICgraSat(const DepGraph &Graph, const CgraModel &Cgra,
                             const MinDistMatrix &MinDist, long ConflictBudget,
                             std::vector<int> &TimesOut,
                             std::vector<int> &PesOut, SatEngineStats &Stats);

} // namespace lsms

#endif // LSMS_SAT_CGRASAT_H
