//===----------------------------------------------------------------------===//
/// \file Differential sweep of the placement-aware slack mapper against the
/// exact SAT spatial mapper on a CGRA grid: per-loop II table, certified
/// optimal counts, and the spatial-vs-flat MII gap on the kernel suite plus
/// seeded random loops. Deterministic from a fixed seed.
///
/// Usage: cgra_gap [--loops N] [--grid RxC] [--seed S] [--jobs N]
///                 [--min-ops N] [--max-ops N] [--no-kernels]
///                 [--conflict-budget N]
///
/// --conflict-budget caps the CDCL conflicts of each II rung; N <= 0 gives
/// up before any search.
///
/// Exits nonzero when any mapping fails validation or the two mappers
/// contradict each other (heuristic II below a proven-optimal II, or a
/// heuristic mapping for a loop SAT proved unmappable).
//===----------------------------------------------------------------------===//

#include "cgra/CgraOracle.h"

#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace lsms;

int main(int Argc, char **Argv) {
  CgraOracleOptions Options;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--loops") == 0 && I + 1 < Argc) {
      Options.NumLoops = std::atoi(Argv[++I]);
      continue;
    }
    if (std::strcmp(Argv[I], "--grid") == 0 && I + 1 < Argc) {
      std::string Err;
      if (!CgraModel::parseGridArg(Argv[++I], Options.Cgra, Err)) {
        std::cerr << "cgra_gap: " << Err << "\n";
        return 1;
      }
      continue;
    }
    if (std::strcmp(Argv[I], "--seed") == 0 && I + 1 < Argc) {
      Options.Seed = std::strtoull(Argv[++I], nullptr, 0);
      continue;
    }
    if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      Options.Jobs = std::atoi(Argv[++I]);
      continue;
    }
    if (std::strcmp(Argv[I], "--min-ops") == 0 && I + 1 < Argc) {
      Options.MinOps = std::atoi(Argv[++I]);
      continue;
    }
    if (std::strcmp(Argv[I], "--max-ops") == 0 && I + 1 < Argc) {
      Options.MaxOps = std::atoi(Argv[++I]);
      continue;
    }
    if (std::strcmp(Argv[I], "--no-kernels") == 0) {
      Options.IncludeKernels = false;
      continue;
    }
    if (std::strcmp(Argv[I], "--conflict-budget") == 0 && I + 1 < Argc) {
      Options.Exact.ConflictBudget = std::atol(Argv[++I]);
      continue;
    }
    std::cerr << "usage: cgra_gap [--loops N] [--grid RxC] [--seed S] "
                 "[--jobs N] [--min-ops N] [--max-ops N] [--no-kernels] "
                 "[--conflict-budget N]\n";
    return 1;
  }
  if (Options.NumLoops < 0 || Options.MaxOps < Options.MinOps) {
    std::cerr << "cgra_gap: bad loop-count or op-range arguments\n";
    return 1;
  }

  const CgraOracleReport Report = runCgraOracle(Options);
  std::cout << "Placement-aware slack mapper vs exact SAT spatial mapper ("
            << Report.Cases.size() << " loops, grid "
            << Options.Cgra.rows() << "x" << Options.Cgra.cols() << ", seed "
            << Options.Seed << ")\n\n";
  printCgraOracleReport(std::cout, Report);

  return Report.ValidationFailures == 0 && Report.ParityViolations == 0 ? 0
                                                                        : 1;
}
