//===----------------------------------------------------------------------===//
/// \file schedule_service — the scheduling service as a command-line
/// filter: reads JSONL requests from a file (or stdin with "-"), answers
/// them as one batch on --jobs threads, and writes one JSONL response per
/// request, in request order, to stdout. The response stream is
/// byte-identical at every --jobs value (see DESIGN.md, "Scheduling
/// service").
///
/// Request lines look like
///   {"kernel": "hydro1", "engine": "bnb"}
///   {"source": "loop i = 1, n\n  x[i] = x[i-1] * 0.5\nend", "max_ii": 8}
/// with optional "id", "name", "deadline_ms", "emit_times" fields; blank
/// lines and '#' comments are skipped.
///
/// Usage:
///   schedule_service [--jobs=N] [--cache-capacity=N]
///                    [--engine=slack|bnb|sat|portfolio]
///                    [--node-budget=N] [--sat-conflict-budget=N]
///                    [--maxlive-node-budget=N]
///                    [--maxlive-conflict-budget=N]
///                    [--metrics] <requests.jsonl | ->
///   Every N is a whole decimal integer (--jobs >= 0, --cache-capacity
///   >= 1); anything else prints the usage line and exits 2.
//===----------------------------------------------------------------------===//

#include "service/EngineFlag.h"
#include "service/SchedulingService.h"

#include <fstream>
#include <iostream>

using namespace lsms;

namespace {

void usage() {
  std::cerr << "usage: schedule_service [--jobs=N] [--cache-capacity=N]\n"
               "                        [--engine="
            << engineFlagChoices(true, false)
            << "]\n"
               "                        [--node-budget=N]\n"
               "                        [--sat-conflict-budget=N]\n"
               "                        [--maxlive-node-budget=N]\n"
               "                        [--maxlive-conflict-budget=N]\n"
               "                        [--metrics] <requests.jsonl | ->\n"
               "Reads JSONL scheduling requests, writes JSONL responses in\n"
               "request order. --engine sets the default for requests that\n"
               "do not name one. --metrics prints cache and latency\n"
               "statistics to stderr afterwards.\n";
}

} // namespace

int main(int Argc, char **Argv) {
  ServiceConfig Config;
  bool PrintMetrics = false;
  std::string DefaultEngine;
  std::string Path;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const std::string_view View(Arg);
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseWholeInteger(View.substr(7), Config.Jobs) || Config.Jobs < 0) {
        usage();
        return 2;
      }
    } else if (Arg.rfind("--cache-capacity=", 0) == 0) {
      if (!parseWholeInteger(View.substr(17), Config.CacheCapacity) ||
          Config.CacheCapacity < 1) {
        usage();
        return 2;
      }
    } else if (Arg.rfind("--engine=", 0) == 0) {
      DefaultEngine = Arg.substr(9);
    } else if (applyExactBudgetFlag(Arg, Config.Exact)) {
      // parsed an exact-budget knob
    } else if (Arg == "--metrics") {
      PrintMetrics = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  ServiceEngine Engine = ServiceEngine::Slack;
  if (!DefaultEngine.empty()) {
    EngineSelection Sel;
    std::string EngineErr;
    if (!parseEngineSelection(DefaultEngine, /*AllowSlack=*/true,
                              /*AllowAll=*/false, Sel, EngineErr)) {
      std::cerr << "schedule_service: " << EngineErr << "\n";
      return 2;
    }
    Engine = Sel.Service;
  }

  SchedulingService Service(Config);
  int Failures = 0;
  if (Path == "-") {
    Failures = Service.processJsonl(std::cin, std::cout, Engine);
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "schedule_service: cannot open '" << Path << "'\n";
      return 2;
    }
    Failures = Service.processJsonl(In, std::cout, Engine);
  }

  if (PrintMetrics)
    std::cerr << Service.metricsJson();
  return Failures ? 1 : 0;
}
