//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the benchmark harnesses: per-scheduler outcomes
/// (II, MaxLive, MinAvg, ICR usage, statistics) and the suite-size
/// argument parser.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_BENCH_SUITEMETRICS_H
#define LSMS_BENCH_SUITEMETRICS_H

#include "core/ModuloScheduler.h"
#include "ir/LoopBody.h"

namespace lsms {

/// One scheduler's outcome on one loop.
struct SchedOutcome {
  bool Success = false;
  int II = 0;  ///< achieved II (last attempted II for failures)
  int MII = 0;
  long MaxLive = 0;
  long MinAvgAtII = 0;
  long MinAvgPerValueCeilAtII = 0;
  long IcrUsage = 0; ///< ICR MaxLive plus the kernel's stage predicates
  int Stages = 0;
  long ScheduleLength = 0;
  ScheduleStats Stats;
};

/// Schedules one loop and derives the pressure metrics.
SchedOutcome runScheduler(const LoopBody &Body, const MachineModel &Machine,
                          const SchedulerOptions &Options);

/// Parses argv as "[suite_size]" and returns the suite size, or \p Default
/// when it is absent. With a non-null \p Jobs, "--jobs N" is accepted too
/// and N stored there (0, the default, means LSMS_JOBS or the hardware;
/// feed it to resolveJobs()). Anything else -- a size that is not a
/// positive integer, a second size, a flag without its value, or any other
/// flag -- prints a usage line and exits with status 1.
int suiteSizeFromArgs(int Argc, char **Argv, int Default = 1525,
                      int *Jobs = nullptr);

} // namespace lsms

#endif // LSMS_BENCH_SUITEMETRICS_H
