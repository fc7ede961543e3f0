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
/// The header also holds what this flat sweep shares with the CGRA
/// (cgra/CgraOracle.h) and irregular (spec/SpecOracle.h) sweeps: the
/// parallel case runner and the one failure rule.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_EXACT_ORACLE_H
#define LSMS_EXACT_ORACLE_H

#include "exact/ExactEngine.h"
#include "support/ParallelFor.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

/// Runs \p RunCase on every loop of \p Suite on resolveJobs(Jobs) workers.
/// Each case lands in its loop's slot, so the cases come back in suite
/// order and every report aggregated from them is byte-identical at every
/// job count.
template <typename RunFn>
auto runOracleCases(const std::vector<LoopBody> &Suite, int Jobs,
                    RunFn &&RunCase) {
  std::vector<decltype(RunCase(Suite.front()))> Cases(Suite.size());
  parallelFor(resolveJobs(Jobs), static_cast<int>(Suite.size()), [&](int I) {
    Cases[static_cast<size_t>(I)] = RunCase(Suite[static_cast<size_t>(I)]);
  });
  return Cases;
}

/// The differential sweeps' one failure rule. A loop fails when a
/// validator rejects one of its schedules or mappings, or when a heuristic
/// lands below an II the exact engine proved minimal. A CGRA loop also
/// fails when the heuristic maps a loop SAT proved unmappable, and an
/// irregular loop when a replay diverges from its trace or its speculative
/// II exceeds its conservative II. Each report collects its failures in
/// loop order, counts them with failures() and lists them at the end of
/// its printed form.
struct OracleFailures {
  std::vector<std::string> Lines; ///< "<loop>: <what>", in loop order

  /// Records \p What against \p Loop unless it is empty.
  void add(const std::string &Loop, const std::string &What);
  /// Records the validator's rejection \p Error of \p Subject, if any.
  void invalid(const std::string &Loop, const char *Subject,
               const std::string &Error);
  /// Prints one indented line per failure.
  void print(std::ostream &OS) const;
};

/// The comparison half of the failure rule: "<Who> II <HeurII> below
/// proven-minimal II <ExactII>" when a heuristic that succeeded undercuts
/// an exact II with status Optimal, else "".
std::string belowProvenII(const char *Who, bool HeurSuccess, int HeurII,
                          ExactStatus Status, int ExactII);

/// The smallest loop body, in machine operations, the flat sweep draws.
inline constexpr int OracleMinOps = 3;

/// Configuration of one oracle sweep. The heuristic side is always
/// SchedulerOptions::slack(), and the exact side always runs its
/// MaxLive-minimization pass at the optimal II, so the pressure gap can be
/// reported next to the II gap.
struct OracleOptions {
  uint64_t Seed = 0x19930601;
  int NumLoops = 50;
  /// Largest loop body in machine operations (the smallest is
  /// OracleMinOps); exact scheduling is tractable well beyond 20 ops but
  /// the sweep defaults stay small so the suite runs as a test tier.
  int MaxOps = 20;
  ExactOptions Exact;
  /// Worker threads for the per-loop sweep. Positive = that many; 0 (the
  /// default) defers to LSMS_JOBS, else the hardware. Results are merged
  /// in loop-index order, so the report is byte-identical for every job
  /// count; 1 runs the plain sequential path.
  int Jobs = 0;
};

/// One loop's differential result.
struct OracleCase {
  std::string Name;
  int Ops = 0;              ///< machine operations
  int MII = 0;

  bool HeurSuccess = false;
  int HeurII = 0;
  long HeurMaxLive = -1;
  long HeurEjections = 0;   ///< total ejections across attempts

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
  OracleFailures Failures;

  int failures() const { return static_cast<int>(Failures.Lines.size()); }
};

/// Runs the sweep. Deterministic: depends only on \p Options.
OracleReport runOracle(const OracleOptions &Options = OracleOptions());

/// Aggregates \p Cases into a report and applies the failure rule
/// (exposed so tests can aggregate hand-built cases).
OracleReport aggregateOracleCases(const OracleOptions &Options,
                                  std::vector<OracleCase> Cases);

/// Prints the per-loop table, the summary counters, the II-gap histogram,
/// the MaxLive-gap counts below, at and above zero, and the failures.
/// Deterministic (no timings).
void printOracleReport(std::ostream &OS, const OracleReport &Report);

} // namespace lsms

#endif // LSMS_EXACT_ORACLE_H
