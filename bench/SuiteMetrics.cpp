#include "SuiteMetrics.h"

#include "bounds/Lifetimes.h"
#include "graph/MinDist.h"
#include "service/EngineFlag.h"

#include <cstdlib>
#include <cstring>
#include <iostream>

using namespace lsms;

SchedOutcome lsms::runScheduler(const LoopBody &Body,
                                const MachineModel &Machine,
                                const SchedulerOptions &Options) {
  SchedOutcome O;
  const DepGraph Graph(Body, Machine);
  const Schedule Sched = scheduleLoop(Graph, Options);
  O.Success = Sched.Success;
  O.II = Sched.II;
  O.MII = Sched.MII;
  O.Stats = Sched.Stats;
  if (!Sched.Success)
    return O;

  O.ScheduleLength = Sched.length();
  O.Stages = static_cast<int>((O.ScheduleLength + Sched.II - 1) / Sched.II);

  const PressureInfo RR =
      computePressure(Body, Sched.Times, Sched.II, RegClass::RR);
  O.MaxLive = RR.MaxLive;
  const PressureInfo ICR =
      computePressure(Body, Sched.Times, Sched.II, RegClass::ICR);
  // Kernel-only code keeps one rotating stage predicate per stage in the
  // ICR file on top of the if-conversion predicates.
  O.IcrUsage = ICR.MaxLive + O.Stages;

  MinDistMatrix MinDist;
  if (MinDist.compute(Graph, Sched.II)) {
    O.MinAvgAtII = computeMinAvg(Graph, MinDist);
    O.MinAvgPerValueCeilAtII = computeMinAvgPerValueCeil(Graph, MinDist);
  }
  return O;
}

int lsms::suiteSizeFromArgs(int Argc, char **Argv, int Default, int *Jobs) {
  int Size = 0;
  bool Ok = true;
  for (int I = 1; I < Argc && Ok; ++I) {
    if (Jobs && std::strcmp(Argv[I], "--jobs") == 0)
      Ok = I + 1 < Argc && parseWholeInteger(Argv[++I], *Jobs) &&
           *Jobs >= 0;
    else
      Ok = Size == 0 && parseWholeInteger(Argv[I], Size) && Size > 0;
  }
  if (!Ok) {
    const char *Slash = std::strrchr(Argv[0], '/');
    std::cerr << "usage: " << (Slash ? Slash + 1 : Argv[0])
              << " [suite_size]" << (Jobs ? " [--jobs N]" : "") << "\n";
    std::exit(1);
  }
  return Size > 0 ? Size : Default;
}
