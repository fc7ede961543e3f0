//===----------------------------------------------------------------------===//
///
/// \file
/// The one --engine flag grammar shared by every CLI tool (exact_gap,
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
/// Every budget caps one attempt; N <= 0 gives up before any search.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SERVICE_ENGINEFLAG_H
#define LSMS_SERVICE_ENGINEFLAG_H

#include "exact/ExactEngine.h"
#include "service/Protocol.h"

#include <cstdlib>
#include <string>

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
/// Returns false when \p Arg is not a budget flag (the caller keeps
/// parsing); unparseable values fall back to strtol semantics (0).
inline bool applyExactBudgetFlag(const std::string &Arg,
                                 ExactOptions &Options) {
  const auto valueOf = [&](size_t Prefix) {
    return std::strtol(Arg.c_str() + Prefix, nullptr, 10);
  };
  if (Arg.rfind("--node-budget=", 0) == 0) {
    Options.NodeBudget = valueOf(14);
    return true;
  }
  if (Arg.rfind("--sat-conflict-budget=", 0) == 0) {
    Options.SatConflictBudget = valueOf(22);
    return true;
  }
  if (Arg.rfind("--maxlive-node-budget=", 0) == 0) {
    Options.MaxLiveNodeBudget = valueOf(22);
    return true;
  }
  if (Arg.rfind("--maxlive-conflict-budget=", 0) == 0) {
    Options.MaxLiveConflictBudget = valueOf(26);
    return true;
  }
  return false;
}

} // namespace lsms

#endif // LSMS_SERVICE_ENGINEFLAG_H
