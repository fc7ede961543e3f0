//===----------------------------------------------------------------------===//
///
/// \file
/// The switches of the modulo-scheduling framework that the paper's
/// evaluation turns: the Cydrome differences of Section 8 (static
/// priority, unidirectional placement, recurrences first), the
/// bidirectional ablation of Section 5 and footnote 6's II increment; the
/// presets below set the first three. The defaults are the paper's
/// bidirectional slack scheduler. The rules the paper fixes are constants
/// in ModuloScheduler.cpp, not switches: the Section 4.3 priority
/// refinements (slack halved on a critical resource, halved again for a
/// divider) and the Section 4.4 ejection budget.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CORE_SCHEDULEROPTIONS_H
#define LSMS_CORE_SCHEDULEROPTIONS_H

#include "core/IICapPolicy.h"

namespace lsms {

struct SchedulerOptions {
  /// Use the dynamic priority scheme (recompute slack from live
  /// Estart/Lstart bounds each central-loop iteration, Section 4.3). When
  /// false, priorities are the operations' initial slack values, as in
  /// Cydrome's scheduler.
  bool DynamicPriority = true;

  /// Use the bidirectional early/late placement heuristic of Section 5.2.
  /// When false, operations are always placed as early as possible (the
  /// unidirectional legacy strategy the paper criticizes).
  bool Bidirectional = true;

  /// Place every operation that lies on a non-trivial recurrence circuit
  /// before any other operation (Cydrome's policy; Section 8).
  bool RecurrencesFirst = false;

  /// Percentage for the II escalation step: II += max(floor(Pct/100*II),1).
  /// The paper uses 4; 0 yields the increment-by-1 ablation (footnote 6).
  int IIIncrementPct = 4;

  /// Hard cap on II attempts beyond which the loop is reported unschedul-
  /// able (the paper's Cydrome scheduler failed on 14 loops): II is allowed
  /// to grow to IICap.maxII(MII) before giving up. Shared policy type with
  /// ExactOptions so the heuristic, exact, and oracle paths cap alike. The
  /// service sets it from a request's max_ii.
  IICapPolicy IICap;

  /// Straight-line mode (used by scheduleStraightLine): when positive,
  /// Lstart(Stop) is pinned to Estart(Stop) plus an additive pad instead
  /// of the II-rounded rule, and failed attempts grow the pad by this step
  /// at a fixed II rather than escalating II (escalation is meaningless
  /// for basic blocks).
  int AcyclicPadStep = 0;

  /// The paper's slack scheduler (Sections 4-5).
  static SchedulerOptions slack() { return SchedulerOptions(); }

  /// Cydrome's scheduler as characterized in Section 8.
  static SchedulerOptions cydrome() {
    SchedulerOptions O;
    O.DynamicPriority = false;
    O.Bidirectional = false;
    O.RecurrencesFirst = true;
    return O;
  }

  /// Slack scheduling without lifetime sensitivity (ablation: "without
  /// them, the slack scheduler generates nearly the same register pressure
  /// as Cydrome's scheduler", Section 7).
  static SchedulerOptions unidirectionalSlack() {
    SchedulerOptions O;
    O.Bidirectional = false;
    return O;
  }
};

} // namespace lsms

#endif // LSMS_CORE_SCHEDULEROPTIONS_H
