//===----------------------------------------------------------------------===//
///
/// \file
/// The speculation sweep: lowers every irregular loop both conservatively
/// and speculatively, schedules both lowerings with the slack heuristic
/// and an exact engine, replays the speculative schedule against a
/// concrete memory trace, and aggregates the conservative/speculative II
/// gap together with assumption-violation rates.
///
/// The speculative lowering's arcs are a subset of the conservative ones,
/// so every conservative schedule is also legal for the speculative body.
/// The sweep exploits that: when the heuristic does worse on the
/// speculative body (or fails), the conservative schedule is adopted for
/// it — making "speculative II <= conservative II" a structural guarantee
/// rather than a property of the heuristic.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SPEC_SPECORACLE_H
#define LSMS_SPEC_SPECORACLE_H

#include "exact/Oracle.h"
#include "spec/Speculation.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lsms {

class LoopBody;

/// Configuration of one speculation sweep. The heuristic side is always
/// SchedulerOptions::slack(), and the replay runs IrregularWindow
/// iterations (workloads/RandomLoop.h), the window the generator's
/// collision estimates assume.
struct IrregularOptions {
  uint64_t Seed = 0x19930601;
  int NumLoops = 40;
  int MaxOps = 48;
  ExactOptions Exact;
  /// No tool sets it, but the benchmark harness lowers with it.
  SpecOptions Spec;
  /// Worker threads (0 = LSMS_JOBS / hardware). Results merge in loop
  /// order: the report is byte-identical for every job count.
  int Jobs = 0;

  IrregularOptions() { Exact.Engine = ExactEngineKind::Portfolio; }
};

/// One loop's conservative-vs-speculative result.
struct IrregularCase {
  std::string Name;
  int Ops = 0;
  bool IsWhile = false;
  int MayAliasArcs = 0; ///< may-alias arcs in the conservative body
  int ControlArcs = 0;  ///< control-fence arcs in the conservative body
  int DroppedArcs = 0;  ///< arcs the speculative lowering omitted
  int NumAssumptions = 0;

  bool ConsSuccess = false;
  bool SpecSuccess = false;
  int ConsII = 0, SpecII = 0;
  int SpecMII = 0;
  /// The heuristic's speculative schedule was replaced by the conservative
  /// one (which is always legal for the speculative body) because it
  /// failed or landed on a higher II.
  bool AdoptedCons = false;
  bool IIGapValid = false;
  int IIGap = 0; ///< ConsII - SpecII (>= 0 by construction)

  ExactStatus ConsStatus = ExactStatus::Timeout;
  ExactStatus SpecStatus = ExactStatus::Timeout;
  int ConsExactII = 0, SpecExactII = 0;
  /// Both exact runs proved their II minimal: the gap is certified.
  bool CertifiedGapValid = false;
  int CertifiedGap = 0; ///< ConsExactII - SpecExactII

  // Replay of the speculative schedule against the default trace.
  bool Replayed = false;
  int AssumptionsHeld = 0;
  bool AllHeld = false;
  long Violations = 0; ///< summed over assumptions
  long MisspeculatedStores = 0;
  long ActualTrip = 0; ///< iterations the reference actually executed
  /// The conservative schedule reproduced the reference trace (must always
  /// hold) and the speculative one did where its assumptions held.
  bool ConsTraceOk = false;
  bool SpecTraceOk = false;
  /// Strict heuristic II gap, every assumption held, and the speculative
  /// pipelined execution matched the reference: a demonstrated win.
  bool SpecWin = false;

  std::string ConsError;  ///< validateSchedule output (empty = legal)
  std::string SpecError;  ///< validateSchedule output (empty = legal)
  std::string TraceError; ///< unexpected execution mismatch (empty = ok)
};

/// Aggregated sweep results.
struct IrregularReport {
  IrregularOptions Config;
  std::vector<IrregularCase> Cases;

  int ConsScheduled = 0;
  int SpecScheduled = 0;
  int Adopted = 0;
  int Comparable = 0;        ///< both lowerings scheduled (valid II gap)
  int SpecAtOrBelowCons = 0; ///< must equal Comparable (structural)
  int StrictGaps = 0;
  int CertifiedStrictGaps = 0;
  int WhileLoops = 0;
  int LoopsWithAssumptions = 0;
  int AllHeldLoops = 0;
  int ViolatedLoops = 0;
  int SpecWins = 0;
  long TotalViolations = 0;
  long TotalMisspeculatedStores = 0;
  int ValidationFailures = 0;
  int TraceFailures = 0;
  OracleFailures Failures;

  int failures() const { return static_cast<int>(Failures.Lines.size()); }
};

/// Runs both lowerings of one body through the heuristic + exact engines
/// and the replay harness. Pure: depends only on its arguments.
IrregularCase runIrregularCase(const LoopBody &Body,
                               const IrregularOptions &Options);

/// Runs the sweep over buildIrregularSuite(NumLoops, MaxOps, Seed).
/// Deterministic: depends only on \p Options.
IrregularReport runIrregularSweep(const IrregularOptions &Options = {});

/// Aggregates \p Cases into a report and applies the failure rule (exposed
/// so tests can aggregate their own cases).
IrregularReport aggregateIrregularCases(const IrregularOptions &Options,
                                        std::vector<IrregularCase> Cases);

/// Prints the per-loop table, the summary counters and the failures.
/// Deterministic (no timings), so the output can serve as a golden
/// regression reference.
void printIrregularReport(std::ostream &OS, const IrregularReport &Report);

} // namespace lsms

#endif // LSMS_SPEC_SPECORACLE_H
