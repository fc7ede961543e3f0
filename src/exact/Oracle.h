//===----------------------------------------------------------------------===//
///
/// \file
/// Differential-testing oracle for the slack heuristic: runs the paper's
/// bidirectional slack scheduler and the exact branch-and-bound scheduler
/// side by side on Table 2-calibrated random loops (seeded, deterministic),
/// validates every returned schedule with validateSchedule, and aggregates
/// the II and MaxLive gaps. This separates heuristic slack (heuristic vs
/// exact optimum) from bound slack (exact optimum vs MII / MinAvg), which
/// the schedule-independent bounds alone cannot do.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_EXACT_ORACLE_H
#define LSMS_EXACT_ORACLE_H

#include "core/SchedulerOptions.h"
#include "exact/ExactEngine.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

/// Configuration of one oracle sweep.
struct OracleOptions {
  uint64_t Seed = 0x19930601;
  int NumLoops = 50;
  /// Loop-body size range in machine operations; exact scheduling is
  /// tractable well beyond 20 ops but the sweep defaults stay small so the
  /// suite runs as a test tier.
  int MinOps = 3;
  int MaxOps = 20;
  SchedulerOptions Heuristic = SchedulerOptions::slack();
  ExactOptions Exact;
  /// Run the exact MaxLive-minimization pass at the optimal II so the
  /// pressure gap can be reported next to the II gap.
  bool MinimizeMaxLive = true;
  /// Worker threads for the per-loop sweep. Positive = that many; 0 (the
  /// default) defers to LSMS_JOBS, else the hardware. Results are merged
  /// in loop-index order, so the report is byte-identical for every job
  /// count; 1 runs the plain sequential path.
  int Jobs = 0;
};

/// One loop's differential result.
struct OracleCase {
  uint64_t Seed = 0;        ///< generator seed of this loop
  std::string Name;
  int Ops = 0;              ///< machine operations
  int MII = 0, ResMII = 0, RecMII = 0;

  bool HeurSuccess = false;
  int HeurII = 0;
  long HeurMaxLive = -1;
  long HeurEjections = 0;   ///< total ejections across attempts
  long HeurAttempts = 0;    ///< II values the heuristic tried

  ExactStatus Status = ExactStatus::Timeout;
  int ExactII = 0;          ///< valid when Status is Optimal/Feasible
  long ExactMaxLive = -1;
  bool MaxLiveProven = false;
  /// Proof backing ExactMaxLive (None when only best-effort).
  MaxLiveCertificate Certificate = MaxLiveCertificate::None;
  long MinAvg = 0;          ///< the paper's bound at ExactII
  long Nodes = 0;           ///< branch-and-bound nodes consumed

  bool IIGapValid = false;      ///< both schedulers produced a schedule
  int IIGap = 0;                ///< HeurII - ExactII
  bool MaxLiveGapValid = false; ///< additionally, at the same II
  long MaxLiveGap = 0;          ///< HeurMaxLive - ExactMaxLive

  std::string HeurError;  ///< validateSchedule output (empty = legal)
  std::string ExactError; ///< validateSchedule output (empty = legal)
};

/// Derives the gap fields of \p Case from its scheduler outcomes. The
/// MaxLive gap is only valid when both schedulers succeeded AND landed on
/// the same II (pressure at different IIs is incomparable: a longer II
/// stretches lifetimes over more columns) AND both pressures were
/// computed; the II gap only needs both to have scheduled. Factored out
/// of the sweep so the aggregation rule itself is unit-testable.
void finalizeOracleGaps(OracleCase &Case);

/// Aggregated sweep results.
struct OracleReport {
  OracleOptions Config;
  std::vector<OracleCase> Cases;

  int HeurScheduled = 0;
  int ExactScheduled = 0;
  int ProvenOptimalII = 0;  ///< exact status Optimal
  int HeurAtExactII = 0;    ///< heuristic matched the proven/best exact II
  int HeurAtMII = 0;
  int ExactAtMII = 0;
  int MaxLiveCertified = 0; ///< cases whose ExactMaxLive carries a proof
  int CertMinAvg = 0;       ///< ... via the MinAvg bound (globally minimal)
  int CertFamily = 0;       ///< ... via a family-minimality proof
  int Timeouts = 0;
  int ValidationFailures = 0;
};

/// Runs the sweep. Deterministic: depends only on \p Options.
OracleReport runOracle(const OracleOptions &Options = OracleOptions());

/// Prints the per-loop table, the II-gap and MaxLive-gap histograms, and
/// the summary counters. Deterministic (no timings).
void printOracleReport(std::ostream &OS, const OracleReport &Report);

} // namespace lsms

#endif // LSMS_EXACT_ORACLE_H
