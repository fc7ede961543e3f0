//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-neutral exact-scheduling API. Two complete decision
/// procedures answer the fixed-II schedulability question behind it:
///
///  - BranchAndBound (exact/BranchAndBound.h): residue-space search with
///    an incremental positive-cycle test (the original engine);
///  - Sat (sat/SatScheduler.h): a CNF encoding over (operation, residue)
///    Booleans decided by the embedded CDCL solver with lazy
///    positive-cycle refinement.
///
/// Both engines share the same pre-checks (MinDist positive-cycle
/// rejection, non-pipelined reservation fit) and the same deterministic
/// pre-scheduling functional-unit assignment, so they must agree verdict
/// for verdict — the differential oracle and the cross-engine tests hold
/// them to that. solveAtII dispatches on ExactOptions::Engine;
/// scheduleLoopExact iterates the II ladder (in steps of 1 — exactness
/// requires visiting every II) with whichever engine is selected.
///
/// A third selection, Portfolio, combines them: branch-and-bound decides
/// feasibility first (it is fastest on the kernel suite's shallow
/// residue spaces) with the SAT engine as the fallback when its node
/// budget runs out, and the MaxLive pass runs SAT-first (the incremental
/// cardinality walk, warm-started from the incumbent schedule's pressure)
/// with branch-and-bound as the fallback, seeded with the best SAT
/// witness. Facts flow both ways across the engines — incumbents tighten
/// SAT upper bounds, SAT witnesses seed branch-and-bound incumbents — and
/// the staged dispatch is deterministic: both stages are deterministic
/// and the hand-off depends only on their verdicts, never on wall-clock.
/// ExactOptions::Stop arms cooperative cancellation for racing callers.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_EXACT_EXACTENGINE_H
#define LSMS_EXACT_EXACTENGINE_H

#include "core/IICapPolicy.h"
#include "core/Schedule.h"
#include "graph/MinDist.h"
#include "ir/DepGraph.h"

#include <atomic>
#include <chrono>
#include <vector>

namespace lsms {

/// Outcome of an exact scheduling run.
enum class ExactStatus : uint8_t {
  Optimal,    ///< schedule found and every smaller II proven infeasible
  Feasible,   ///< schedule found; some smaller II attempt hit the budget
  Infeasible, ///< no schedule exists for any II up to the cap
  Timeout,    ///< budget exhausted before a schedule was found
};

/// Returns "optimal", "feasible", "infeasible", or "timeout".
const char *exactStatusName(ExactStatus Status);

/// The exact decision procedures available behind solveAtII.
enum class ExactEngineKind : uint8_t {
  BranchAndBound, ///< residue-space branch-and-bound (the default)
  Sat,            ///< CDCL SAT over (operation, residue) Booleans
  Portfolio,      ///< staged bnb/sat combination with fact sharing
};

/// How a minimized MaxLive was proven. MinAvgMet certifies global
/// optimality at the II (the paper's schedule-independent bound is met);
/// the other two certify minimality over the *issue-time family* — every
/// dependence- and resource-feasible placement inside the static
/// [Estart, Lstart] windows of canonical makespan (computeIssueWindows) —
/// via an exhausted branch-and-bound enumeration or a SAT cardinality
/// proof that "MaxLive <= reported - 1" is unsatisfiable. The two family
/// certificates are engine-specific spellings of the same fact, so
/// cross-engine parity compares them as equivalent.
enum class MaxLiveCertificate : uint8_t {
  None,          ///< best-effort value only (budget ran out, or only an
                 ///< out-of-family incumbent reached it)
  MinAvgMet,     ///< MaxLive == MinAvg: globally minimal at this II
  BnBExhausted,  ///< family minimum by exhausted branch-and-bound search
  SatUnsatBelow, ///< family minimum by SAT UNSAT below the reported value
};

/// Returns "none", "minavg", "bnb-exhausted", or "sat-unsat-below".
const char *maxLiveCertificateName(MaxLiveCertificate Certificate);

/// True when two certificates make the same claim: equal, or the two
/// engine-specific family-minimality spellings of each other. MinAvgMet
/// and a family certificate are NOT the same claim (global vs family
/// minimality) — use certifiedMaxLiveConsistent to cross-check those.
bool maxLiveCertificatesAgree(MaxLiveCertificate A, MaxLiveCertificate B);

/// Cross-engine consistency of two certified outcomes for the same loop
/// and II. Two certificates of the same claim must name the same value
/// (family certificates both name the family minimum; MinAvgMet on both
/// sides names MinAvg). A MinAvgMet value may come from a schedule
/// OUTSIDE the issue-time family — the branch-and-bound engine's
/// incumbents can issue past the canonical makespan — so against a
/// family certificate it is only bounded: global minimum <= family
/// minimum. Outcomes without a certificate make no claim and are
/// vacuously consistent. Returns false exactly when the two proofs
/// contradict each other, i.e. at least one engine is wrong.
bool certifiedMaxLiveConsistent(long MaxLiveA, MaxLiveCertificate A,
                                long MaxLiveB, MaxLiveCertificate B);

/// Returns "bnb", "sat", or "portfolio" (the --engine spellings).
const char *exactEngineName(ExactEngineKind Engine);

/// Parses an --engine spelling ("bnb", "sat", or "portfolio"). Returns
/// false on an unknown name, leaving \p Engine untouched.
bool parseExactEngine(const char *Name, ExactEngineKind &Engine);

/// Knobs for the exact scheduler, engine selection included.
struct ExactOptions {
  /// Which decision procedure solveAtII dispatches to.
  ExactEngineKind Engine = ExactEngineKind::BranchAndBound;

  /// Branch-and-bound node budget per II attempt (a node is one candidate
  /// residue evaluated). Exhausting it turns the attempt into Timeout
  /// instead of hanging on large loop bodies.
  long NodeBudget = 1L << 18;

  /// CDCL conflict budget per II attempt for the SAT engine, counted
  /// across lazy refinement rounds; <= 0 gives up before any search.
  long SatConflictBudget = 1L << 18;

  /// Node budget for the secondary MaxLive-minimization pass when the
  /// branch-and-bound engine runs it (a node is one candidate residue or
  /// one family placement evaluated).
  long MaxLiveNodeBudget = 1L << 18;

  /// CDCL conflict budget for the SAT MaxLive-certification pass, counted
  /// across the downward cardinality probes; <= 0 gives up before any search.
  long MaxLiveConflictBudget = 1L << 18;

  /// II cap shared with SchedulerOptions: the ladder gives up beyond
  /// IICap.maxII(MII).
  IICapPolicy IICap;

  /// After the minimal II is found, re-run the search at that II to
  /// minimize MaxLive (RR register pressure).
  bool MinimizeMaxLive = false;

  /// Optional wall-clock deadline for the II ladder (used by the scheduling
  /// service): when set to a non-default time point, scheduleLoopExact
  /// checks it before every II attempt and reports Timeout once it has
  /// passed. The check happens only between attempts, so one attempt may
  /// overrun the deadline by its node/conflict-budgeted search time. The
  /// default (epoch) time point means "no deadline". Note that a deadline
  /// makes the result wall-clock dependent; callers that rely on the
  /// repo's byte-identical-reports guarantee must leave it unset.
  std::chrono::steady_clock::time_point Deadline{};

  /// True when a deadline is armed.
  bool hasDeadline() const {
    return Deadline != std::chrono::steady_clock::time_point{};
  }

  /// Optional cooperative cancellation token, polled by both engines on
  /// their hot loops. A set flag makes the current attempt report Timeout
  /// promptly. Unlike Deadline this is caller-driven, so determinism is
  /// exactly as deterministic as the caller's trigger; leave null for the
  /// byte-identical-reports guarantee.
  const std::atomic<bool> *Stop = nullptr;
};

/// Per-engine search statistics, unified so callers can report effort
/// without knowing which engine ran. Branch-and-bound fills Nodes; the
/// SAT engine fills the CDCL counters.
struct ExactEngineStats {
  long Nodes = 0;         ///< B&B candidate residues evaluated
  long Conflicts = 0;     ///< SAT: CDCL conflicts
  long Propagations = 0;  ///< SAT: literals enqueued by unit propagation
  long Decisions = 0;     ///< SAT: CDCL decisions
  long Restarts = 0;      ///< SAT: CDCL restarts
  long LearnedClauses = 0;///< SAT: clauses learned
  long Refinements = 0;   ///< SAT: lazy positive-cycle cuts added
  long SatVariables = 0;  ///< SAT: Booleans in the last encoding
  long SatClauses = 0;    ///< SAT: problem clauses in the last encoding

  /// The engine's primary effort metric: nodes for branch-and-bound,
  /// conflicts for SAT, their sum for the portfolio (both stages spend).
  long primary(ExactEngineKind Engine) const {
    switch (Engine) {
    case ExactEngineKind::BranchAndBound:
      return Nodes;
    case ExactEngineKind::Sat:
      return Conflicts;
    case ExactEngineKind::Portfolio:
      return Nodes + Conflicts;
    }
    return Nodes + Conflicts;
  }

  void accumulate(const ExactEngineStats &Other) {
    Nodes += Other.Nodes;
    Conflicts += Other.Conflicts;
    Propagations += Other.Propagations;
    Decisions += Other.Decisions;
    Restarts += Other.Restarts;
    LearnedClauses += Other.LearnedClauses;
    Refinements += Other.Refinements;
    SatVariables = Other.SatVariables;
    SatClauses = Other.SatClauses;
  }
};

/// Result of scheduleLoopExact.
struct ExactResult {
  ExactStatus Status = ExactStatus::Timeout;

  /// The engine that produced this result.
  ExactEngineKind Engine = ExactEngineKind::BranchAndBound;

  /// On Optimal/Feasible: a legal schedule (passes validateSchedule) at
  /// the best II found. On failure: Success=false, II = last II attempted.
  Schedule Sched;

  /// Primary search effort over all II attempts: branch-and-bound nodes,
  /// or CDCL conflicts for the SAT engine (plus the MaxLive pass's nodes
  /// when enabled — that pass is always branch-and-bound).
  long NodesExplored = 0;

  /// Detailed per-engine counters behind NodesExplored.
  ExactEngineStats EngineStats;

  /// Number of II values attempted.
  int IIAttempts = 0;

  /// MaxLive (RR pressure) of Sched; -1 when no schedule was found. With
  /// MinimizeMaxLive set, the best pressure the search found at Sched.II.
  long MaxLive = -1;

  /// True when MaxLive carries a certificate: globally minimal at Sched.II
  /// (MinAvg met) or minimal over the issue-time family (exhausted
  /// branch-and-bound or SAT unsatisfiability below it). Always equal to
  /// (Certificate != MaxLiveCertificate::None).
  bool MaxLiveProven = false;

  /// Which proof backs MaxLiveProven.
  MaxLiveCertificate Certificate = MaxLiveCertificate::None;

  /// The paper's MinAvg lower bound at Sched.II (0 when unscheduled).
  long MinAvgAtII = 0;
};

/// Result of one fixed-II MaxLive-minimization run (minimizeMaxLiveAtII).
struct MaxLiveOutcome {
  /// Feasibility verdict at the II: Optimal (schedule found, pressure pass
  /// ran), Infeasible, or Timeout (either the feasibility search or the
  /// minimization pass ran out of budget before finishing — MaxLive still
  /// holds the best found when Times is non-empty).
  ExactStatus Status = ExactStatus::Timeout;

  /// Best MaxLive found; -1 when no schedule exists / was found.
  long MaxLive = -1;

  /// The paper's MinAvg lower bound at this II.
  long MinAvg = 0;

  /// Proof backing MaxLive (None when the budget ran out or only an
  /// out-of-family incumbent achieved it).
  MaxLiveCertificate Certificate = MaxLiveCertificate::None;

  /// Schedule achieving MaxLive (validator-clean when non-empty).
  std::vector<int> Times;

  /// Engine counters accumulated over feasibility and minimization.
  ExactEngineStats Stats;
};

/// Minimizes MaxLive at the fixed \p II with the engine selected by
/// \p Options (branch-and-bound family search, or the SAT cardinality
/// certification path), independent of the II ladder. Both engines reason
/// over the same issue-time family, so on completion their minimized
/// values and certificate claims must agree — the cross-engine tests hold
/// them to that. Deterministic.
MaxLiveOutcome minimizeMaxLiveAtII(const DepGraph &Graph, int II,
                                   const ExactOptions &Options);

/// Decides schedulability of \p Graph at the fixed \p II with the engine
/// selected by \p Options. Returns Optimal (schedulable; \p TimesOut
/// filled with a legal schedule), Infeasible (proven unschedulable at this
/// II), or Timeout. Accumulates every engine counter into \p Stats.
/// Deterministic for either engine.
ExactStatus solveAtII(const DepGraph &Graph, int II,
                      const ExactOptions &Options, std::vector<int> &TimesOut,
                      ExactEngineStats &Stats);

/// Finds the provably minimal initiation interval of \p Graph by iterating
/// solveAtII upward from MII (in steps of 1 — unlike the heuristic's
/// geometric escalation, exactness requires visiting every II).
/// Deterministic: the same input always yields the same result.
ExactResult scheduleLoopExact(const DepGraph &Graph,
                              const ExactOptions &Options = ExactOptions());

/// Convenience overload building the dependence graph internally.
ExactResult scheduleLoopExact(const LoopBody &Body,
                              const MachineModel &Machine,
                              const ExactOptions &Options = ExactOptions());

} // namespace lsms

#endif // LSMS_EXACT_EXACTENGINE_H
