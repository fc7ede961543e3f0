//===----------------------------------------------------------------------===//
///
/// \file
/// The spatial differential harness: the placement-aware slack heuristic
/// (CgraMapper.h) and the exact SAT mapper (sat/CgraSat.h) run side by
/// side on the kernel suite plus seeded random loops, every mapping is
/// re-checked by validateMapping, and the II gap is aggregated — the same
/// heuristic-vs-exact oracle pattern as exact/Oracle.h, pointed at the
/// CGRA target. mapLoopCgraExact is the exact II ladder: SAT decides each
/// II = MII, MII+1, ... in turn, so a Mapped verdict with no earlier
/// budgeted rung certifies the minimal spatial II.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CGRA_CGRAORACLE_H
#define LSMS_CGRA_CGRAORACLE_H

#include "cgra/CgraMapper.h"
#include "exact/Oracle.h"
#include "sat/CgraSat.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

struct CgraExactOptions {
  /// CDCL conflict budget per II rung (refinement rounds included);
  /// <= 0 gives up before any search.
  long ConflictBudget = 1L << 16;
};

struct CgraExactResult {
  ExactStatus Status = ExactStatus::Timeout;
  /// Valid (Success == true) when Status is Optimal or Feasible.
  CgraMapping Map;
  int Attempts = 0; ///< II rungs tried
  SatEngineStats Sat;
};

/// Exact spatial minimal-II search: the SAT mapper on the II ladder from
/// the flat MII upward in steps of 1 (exactness requires visiting every
/// II), capped at IICapPolicy().maxII(MII). Optimal means every smaller II
/// was proven infeasible; Feasible means some earlier rung exhausted its
/// budget first. Deterministic.
CgraExactResult mapLoopCgraExact(const DepGraph &Graph, const CgraModel &Cgra,
                                 const CgraExactOptions &Options =
                                     CgraExactOptions());

/// Configuration of one spatial differential sweep.
struct CgraOracleOptions {
  uint64_t Seed = 0x19930601;
  int NumLoops = 100;
  int MinOps = 3;
  int MaxOps = 12;
  /// The target grid (defaults to the heterogeneous 4x4 reference grid).
  CgraModel Cgra = CgraModel::defaultGrid(4, 4);
  /// Prepend the hand-written kernel suite to the random loops.
  bool IncludeKernels = true;
  CgraExactOptions Exact;
  /// Worker threads (0 = LSMS_JOBS / hardware); results merge in loop
  /// order, so reports are byte-identical at every job count.
  int Jobs = 0;
};

/// One loop's spatial differential result.
struct CgraOracleCase {
  std::string Name;
  int Ops = 0;
  int FlatMII = 0; ///< flat-machine lower bound

  bool HeurSuccess = false;
  int HeurII = 0;

  ExactStatus Status = ExactStatus::Timeout;
  int ExactII = 0;

  bool IIGapValid = false; ///< both mappers produced a mapping
  int IIGap = 0;           ///< HeurII - ExactII
  /// The grid constraints bind: minimal spatial II proven strictly above
  /// the flat-machine MII.
  bool AboveFlatMII = false;

  std::string HeurError;  ///< validateMapping output (empty = legal)
  std::string ExactError; ///< validateMapping output (empty = legal)
  /// Cross-mapper contradiction: the heuristic beat a proven-optimal II,
  /// or mapped a loop SAT proved unmappable (empty = consistent).
  std::string ParityError;
};

/// Aggregated sweep results.
struct CgraOracleReport {
  CgraOracleOptions Config;
  std::vector<CgraOracleCase> Cases;

  int HeurMapped = 0;
  int ExactMapped = 0;      ///< status Optimal or Feasible
  int CertifiedOptimal = 0; ///< status Optimal
  int HeurAtExactII = 0;    ///< heuristic matched the exact II
  int AboveFlatMII = 0;     ///< certified spatial II > flat MII
  int Timeouts = 0;
  int Infeasible = 0;
  int ValidationFailures = 0;
  int ParityViolations = 0;
  OracleFailures Failures;

  int failures() const { return static_cast<int>(Failures.Lines.size()); }
};

/// Runs one loop through both mappers and the validator. Pure; safe to
/// fan out across threads.
CgraOracleCase runCgraOracleCase(const LoopBody &Body,
                                 const CgraOracleOptions &Options);

/// Runs the sweep. Deterministic: depends only on \p Options.
CgraOracleReport runCgraOracle(const CgraOracleOptions &Options =
                                   CgraOracleOptions());

/// Prints the per-loop table, the summary counters and the failures (no
/// timings).
void printCgraOracleReport(std::ostream &OS, const CgraOracleReport &Report);

} // namespace lsms

#endif // LSMS_CGRA_CGRAORACLE_H
