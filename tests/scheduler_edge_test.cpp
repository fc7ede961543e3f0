//===----------------------------------------------------------------------===//
/// \file Edge-case and option-sweep tests for the scheduling framework:
/// forced backtracking, the priority toggle, and machine-model variations
/// must all still yield valid schedules.
//===----------------------------------------------------------------------===//

#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "ir/IRBuilder.h"
#include "vliwsim/Execution.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"

#include <gtest/gtest.h>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

/// A loop engineered to make the scheduler work for its MII: a recurrence
/// whose circuit leaves zero slack plus adder traffic competing for the
/// same cycles.
LoopBody buildTightLoop() {
  LoopBody Body;
  Body.Name = "tight";
  IRBuilder B(Body);
  const int C = B.constant(1.0);
  // Recurrence x -> y -> x over omega 1: latency 2, RecMII 2.
  const int X = B.declareValue(RegClass::RR, "x");
  const int Y = B.emitValue(Opcode::FloatAdd, {Use{X, 1}, Use{C, 0}}, "y");
  B.defineValue(X, Opcode::FloatSub, {Use{Y, 0}, Use{C, 0}});
  B.setSeeds(X, {1.0});
  B.markLiveOut(X);
  // Two more adder ops -> ResMII 4 on the single adder.
  const int U = B.emitValue(Opcode::FloatAdd, {Use{X, 1}, Use{C, 0}}, "u");
  const int V = B.emitValue(Opcode::FloatSub, {Use{U, 0}, Use{Y, 1}}, "v");
  B.markLiveOut(V);
  B.finish();
  return Body;
}

} // namespace

TEST(SchedulerEdge, TightLoopSchedulesValidly) {
  const LoopBody Body = buildTightLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Sched = scheduleLoop(Graph);
  ASSERT_TRUE(Sched.Success);
  EXPECT_EQ(validateSchedule(Graph, Sched), "");
  EXPECT_EQ(Sched.ResMII, 4);
  EXPECT_EQ(Sched.RecMII, 2);
}

TEST(SchedulerEdge, HeuristicTogglesStayValid) {
  for (const bool Dynamic : {false, true}) {
    SchedulerOptions Options = SchedulerOptions::slack();
    Options.DynamicPriority = Dynamic;
    for (const LoopBody &Body :
         {buildSampleLoop(), buildDivideLoop(), buildDotLoop()}) {
      const DepGraph Graph(Body, machine());
      const Schedule Sched = scheduleLoop(Graph, Options);
      ASSERT_TRUE(Sched.Success) << Body.Name;
      EXPECT_EQ(validateSchedule(Graph, Sched), "") << Body.Name;
    }
  }
}

TEST(SchedulerEdge, BacktrackingIsExercisedSomewhere) {
  // Over a pile of random loops, at least some must need step 3 (the
  // paper: 636 of 1,525 loops backtracked).
  long Ejections = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    const LoopBody Body = generateRandomLoop(Seed + 40000);
    const Schedule Sched = scheduleLoop(Body, machine());
    if (Sched.Success)
      Ejections += Sched.Stats.Ejections;
  }
  EXPECT_GT(Ejections, 0);
}

class MachineSweep : public ::testing::TestWithParam<int> {};

TEST_P(MachineSweep, ValidAcrossMachineVariants) {
  MachineModel M = MachineModel::cydra5();
  switch (GetParam() % 5) {
  case 0:
    M.setUnitCount(FuKind::Adder, 2);
    break;
  case 1:
    M.setUnitCount(FuKind::MemoryPort, 1);
    break;
  case 2:
    M.setLatency(Opcode::Load, 3);
    break;
  case 3:
    M.setLatency(Opcode::FloatAdd, 4);
    M.setLatency(Opcode::FloatSub, 4);
    break;
  case 4:
    M.setUnitCount(FuKind::Multiplier, 2);
    M.setLatency(Opcode::FloatMul, 5);
    break;
  }
  const LoopBody Body =
      generateRandomLoop(static_cast<uint64_t>(GetParam()) + 12000);
  const DepGraph Graph(Body, M);
  const Schedule Sched = scheduleLoop(Graph);
  if (!Sched.Success)
    return;
  ASSERT_EQ(validateSchedule(Graph, Sched), "") << Body.Source;
  // Functional equivalence holds on any machine variant.
  const ExecutionResult Ref = runReference(Body, 16);
  const ExecutionResult Pipe = runPipelined(Body, Sched, 16);
  ASSERT_EQ(compareExecutions(Ref, Pipe), "") << Body.Source;
}

INSTANTIATE_TEST_SUITE_P(Variants, MachineSweep, ::testing::Range(0, 25));

TEST(SchedulerEdge, StopIsScheduleLengthUnderAllPolicies) {
  for (const SchedulerOptions &Options :
       {SchedulerOptions::slack(), SchedulerOptions::cydrome(),
        SchedulerOptions::unidirectionalSlack()}) {
    const LoopBody Body = buildDaxpyLoop();
    const Schedule Sched = scheduleLoop(Body, machine(), Options);
    ASSERT_TRUE(Sched.Success);
    int MaxEnd = 0;
    for (const Operation &Op : Body.Ops)
      MaxEnd = std::max(MaxEnd, Sched.Times[static_cast<size_t>(Op.Id)] +
                                    machine().latency(Op.Opc));
    EXPECT_EQ(Sched.length(), MaxEnd);
  }
}

TEST(SchedulerEdge, MinimalLoopBodies) {
  // Smallest interesting bodies: a single store; a single self-recurrent
  // accumulator.
  {
    LoopBody Body;
    IRBuilder B(Body);
    const int Arr = B.newArray();
    const int C = B.constant(2.0);
    const int A = B.addressStream("a", 0);
    B.emitStore(Arr, 0, Use{A, 0}, Use{C, 0}, "st");
    B.finish();
    const Schedule Sched = scheduleLoop(Body, machine());
    ASSERT_TRUE(Sched.Success);
    EXPECT_EQ(Sched.II, Sched.MII);
  }
  {
    LoopBody Body;
    IRBuilder B(Body);
    const int C = B.constant(1.0);
    const int S = B.declareValue(RegClass::RR, "s");
    B.defineValue(S, Opcode::FloatAdd, {Use{S, 1}, Use{C, 0}});
    B.setSeeds(S, {0.0});
    B.markLiveOut(S);
    B.finish();
    const Schedule Sched = scheduleLoop(Body, machine());
    ASSERT_TRUE(Sched.Success);
    EXPECT_EQ(Sched.II, 1);
  }
}
