//===----------------------------------------------------------------------===//
/// \file Google-benchmark micro-benchmarks for the scheduler's component
/// costs: dependence-graph construction, RecMII (min-ratio cycle),
/// MinDist, and end-to-end scheduling, by loop size.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "core/ModuloScheduler.h"
#include "graph/MinDist.h"
#include "graph/MinRatioCycle.h"
#include "workloads/RandomLoop.h"

#include <benchmark/benchmark.h>

using namespace lsms;

namespace {

LoopBody loopOfSize(int TargetOps) {
  RandomLoopConfig Config;
  Config.TargetOps = TargetOps;
  Config.RecurrenceProb = 1.0; // keep RecMII interesting
  return generateRandomLoop(/*Seed=*/42 + TargetOps, Config);
}

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

void BM_DepGraphBuild(benchmark::State &State) {
  const LoopBody Body = loopOfSize(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    DepGraph Graph(Body, machine());
    benchmark::DoNotOptimize(Graph.arcs().size());
  }
  State.SetLabel(std::to_string(Body.numMachineOps()) + " ops");
}
BENCHMARK(BM_DepGraphBuild)->Arg(16)->Arg(64)->Arg(256);

void BM_RecMIIByRatio(benchmark::State &State) {
  const LoopBody Body = loopOfSize(static_cast<int>(State.range(0)));
  const DepGraph Graph(Body, machine());
  for (auto _ : State)
    benchmark::DoNotOptimize(computeRecMIIByRatio(Graph));
}
BENCHMARK(BM_RecMIIByRatio)->Arg(16)->Arg(64)->Arg(256);

void BM_MinDist(benchmark::State &State) {
  const LoopBody Body = loopOfSize(static_cast<int>(State.range(0)));
  const DepGraph Graph(Body, machine());
  const MIIBounds Bounds = computeMII(Graph);
  for (auto _ : State) {
    MinDistMatrix M;
    benchmark::DoNotOptimize(M.compute(Graph, Bounds.MII));
  }
}
BENCHMARK(BM_MinDist)->Arg(16)->Arg(64)->Arg(256);

void BM_ScheduleSlack(benchmark::State &State) {
  const LoopBody Body = loopOfSize(static_cast<int>(State.range(0)));
  const DepGraph Graph(Body, machine());
  for (auto _ : State) {
    const Schedule Sched = scheduleLoop(Graph);
    benchmark::DoNotOptimize(Sched.II);
  }
}
BENCHMARK(BM_ScheduleSlack)->Arg(16)->Arg(64)->Arg(256);

void BM_ScheduleCydrome(benchmark::State &State) {
  const LoopBody Body = loopOfSize(static_cast<int>(State.range(0)));
  const DepGraph Graph(Body, machine());
  for (auto _ : State) {
    const Schedule Sched = scheduleLoop(Graph, SchedulerOptions::cydrome());
    benchmark::DoNotOptimize(Sched.II);
  }
}
BENCHMARK(BM_ScheduleCydrome)->Arg(16)->Arg(64)->Arg(256);

} // namespace

BENCHMARK_MAIN();
