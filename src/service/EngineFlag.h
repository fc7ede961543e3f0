//===----------------------------------------------------------------------===//
///
/// \file
/// The one --engine flag grammar shared by every CLI tool (gap_report,
/// perf_report, scheduler_comparison, schedule_service, schedule_server),
/// so the spellings, the "both" sweep selector, and the exact-budget
/// knobs cannot drift between tools:
///
///   --engine bnb|sat|portfolio        an exact engine (every tool)
///   --engine slack                    the heuristic (service tools only)
///   --engine both                     every exact engine (sweep tools)
///   --node-budget=N                   ExactOptions::NodeBudget
///   --sat-conflict-budget=N           ExactOptions::SatConflictBudget
///   --maxlive-node-budget=N           ExactOptions::MaxLiveNodeBudget
///   --maxlive-conflict-budget=N       ExactOptions::MaxLiveConflictBudget
///
/// Every budget caps one attempt; N <= 0 gives up before any search. N
/// must be a whole decimal integer: "1M" or "" is refused, not read as 1
/// or 0.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SERVICE_ENGINEFLAG_H
#define LSMS_SERVICE_ENGINEFLAG_H

#include "exact/ExactEngine.h"
#include "service/Protocol.h"
#include "support/ParseInteger.h"

#include <string>
#include <string_view>
#include <utility>

namespace lsms {

/// The result of parsing one --engine value. Exactly one interpretation
/// holds: All (the "both" sweep), or a single engine readable through
/// whichever of the two enum views the tool consumes (for the exact
/// spellings the views agree; "slack" is service-only and leaves Exact at
/// its default).
struct EngineSelection {
  bool All = false;
  ServiceEngine Service = ServiceEngine::Slack;
  ExactEngineKind Exact = ExactEngineKind::BranchAndBound;
};

/// The choices string for usage text, matching what parseEngineSelection
/// accepts with the same permission flags.
inline const char *engineFlagChoices(bool AllowSlack, bool AllowAll) {
  if (AllowSlack && AllowAll)
    return "slack|bnb|sat|portfolio|both";
  if (AllowSlack)
    return "slack|bnb|sat|portfolio";
  if (AllowAll)
    return "bnb|sat|portfolio|both";
  return "bnb|sat|portfolio";
}

/// Parses an --engine value. \p AllowSlack admits "slack" (tools with a
/// heuristic path); \p AllowAll admits "both" (sweep tools that run every
/// exact engine). On failure returns false with a caller-printable
/// message in \p Err.
inline bool parseEngineSelection(const std::string &Name, bool AllowSlack,
                                 bool AllowAll, EngineSelection &Out,
                                 std::string &Err) {
  Out = EngineSelection();
  if (Name == "both") {
    if (!AllowAll) {
      Err = "engine 'both' is not valid here (choose one of " +
            std::string(engineFlagChoices(AllowSlack, false)) + ")";
      return false;
    }
    Out.All = true;
    return true;
  }
  if (Name == "slack") {
    if (!AllowSlack) {
      Err = "engine 'slack' is not valid here (choose one of " +
            std::string(engineFlagChoices(false, AllowAll)) + ")";
      return false;
    }
    Out.Service = ServiceEngine::Slack;
    return true;
  }
  if (!parseServiceEngine(Name, Out.Service) ||
      !parseExactEngine(Name.c_str(), Out.Exact)) {
    Err = "unknown engine '" + Name + "' (choose one of " +
          std::string(engineFlagChoices(AllowSlack, AllowAll)) + ")";
    return false;
  }
  return true;
}

/// Applies one exact-budget flag of the form --<knob>=N to \p Options.
/// Returns false, leaving \p Options untouched, when \p Arg is not a
/// budget flag or N is not a whole decimal integer in range; the caller
/// then treats \p Arg as it treats any flag it does not know.
inline bool applyExactBudgetFlag(const std::string &Arg,
                                 ExactOptions &Options) {
  static constexpr std::pair<std::string_view, long ExactOptions::*>
      Knobs[] = {
          {"--node-budget=", &ExactOptions::NodeBudget},
          {"--sat-conflict-budget=", &ExactOptions::SatConflictBudget},
          {"--maxlive-node-budget=", &ExactOptions::MaxLiveNodeBudget},
          {"--maxlive-conflict-budget=", &ExactOptions::MaxLiveConflictBudget},
      };
  for (const auto &[Prefix, Field] : Knobs)
    if (Arg.rfind(Prefix, 0) == 0)
      return parseWholeInteger(std::string_view(Arg).substr(Prefix.size()),
                               Options.*Field);
  return false;
}

} // namespace lsms

#endif // LSMS_SERVICE_ENGINEFLAG_H
