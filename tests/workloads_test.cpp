//===----------------------------------------------------------------------===//
/// \file Tests for the kernel suite and the random loop generator,
/// including property-style sweeps: every generated loop must verify,
/// schedule, validate, and execute equivalently to the reference.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "vliwsim/Execution.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

} // namespace

TEST(KernelSuite, AllKernelsCompileAndVerify) {
  const std::vector<LoopBody> Suite = buildKernelSuite();
  EXPECT_GE(Suite.size(), 25u);
  for (const LoopBody &Body : Suite)
    EXPECT_EQ(Body.verify(), "") << Body.Name;
}

TEST(KernelSuite, ClassMixIsRepresented) {
  const std::vector<LoopBody> Suite = buildKernelSuite();
  int Conditionals = 0, Recurrences = 0;
  for (const LoopBody &Body : Suite) {
    if (Body.HasConditional)
      ++Conditionals;
    const DepGraph Graph(Body, machine());
    bool HasRec = false;
    for (int Op = 0; Op < Graph.numOps(); ++Op)
      HasRec |= Graph.onRecurrence(Op);
    Recurrences += HasRec ? 1 : 0;
  }
  EXPECT_GE(Conditionals, 4);
  EXPECT_GE(Recurrences, 6);
}

TEST(KernelSuite, AllKernelsScheduleAndExecute) {
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, machine());
    const Schedule Sched = scheduleLoop(Graph);
    ASSERT_TRUE(Sched.Success) << Body.Name;
    EXPECT_EQ(validateSchedule(Graph, Sched), "") << Body.Name;
    const ExecutionResult Ref = runReference(Body, 30);
    const ExecutionResult Pipe = runPipelined(Body, Sched, 30);
    EXPECT_EQ(compareExecutions(Ref, Pipe), "") << Body.Name;
  }
}

TEST(RandomLoop, GenerationIsDeterministic) {
  const LoopBody A = generateRandomLoop(7);
  const LoopBody B = generateRandomLoop(7);
  EXPECT_EQ(A.Source, B.Source);
  EXPECT_EQ(A.numOps(), B.numOps());
}

TEST(RandomLoop, DistinctSeedsProduceDistinctLoops) {
  int Distinct = 0;
  const LoopBody A = generateRandomLoop(1);
  for (uint64_t Seed = 2; Seed < 8; ++Seed)
    Distinct += generateRandomLoop(Seed).Source != A.Source ? 1 : 0;
  EXPECT_GE(Distinct, 5);
}

TEST(RandomLoop, SizesSpanTable2Range) {
  Rng R(99);
  int Small = 0, Large = 0;
  for (int I = 0; I < 200; ++I) {
    const RandomLoopConfig C = drawTable2Config(R);
    Small += C.TargetOps <= 12 ? 1 : 0;
    Large += C.TargetOps >= 60 ? 1 : 0;
  }
  EXPECT_GT(Small, 10);
  EXPECT_GT(Large, 10);
}

// Property sweep: random loops across seeds must verify, schedule at some
// II, pass the independent validator, and execute equivalently.
class RandomLoopProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLoopProperty, ScheduleValidateExecute) {
  const uint64_t Seed = static_cast<uint64_t>(GetParam());
  const LoopBody Body = generateRandomLoop(Seed);
  ASSERT_EQ(Body.verify(), "") << Body.Source;

  const DepGraph Graph(Body, machine());
  for (const SchedulerOptions &Options :
       {SchedulerOptions::slack(), SchedulerOptions::cydrome(),
        SchedulerOptions::unidirectionalSlack()}) {
    const Schedule Sched = scheduleLoop(Graph, Options);
    if (!Sched.Success)
      continue; // rare; Table 4 shows the baseline can fail
    ASSERT_EQ(validateSchedule(Graph, Sched), "") << Body.Source;
    const ExecutionResult Ref = runReference(Body, 24);
    ASSERT_EQ(Ref.Error, "") << Body.Source;
    const ExecutionResult Pipe = runPipelined(Body, Sched, 24);
    ASSERT_EQ(Pipe.Error, "") << Body.Source;
    ASSERT_EQ(compareExecutions(Ref, Pipe), "") << Body.Source;
  }

  // The slack scheduler itself is expected to succeed on generated loops.
  const Schedule Slack = scheduleLoop(Graph);
  EXPECT_TRUE(Slack.Success) << Body.Source;
  EXPECT_GE(Slack.II, Slack.MII);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoopProperty,
                         ::testing::Range(1, 121));

// Property sweep: MII really is a lower bound — no schedule ever beats it,
// and achieved IIs respect both component bounds.
class MIIBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(MIIBoundProperty, AchievedIINeverBelowBounds) {
  const LoopBody Body = generateRandomLoop(
      static_cast<uint64_t>(GetParam()) + 5000);
  const DepGraph Graph(Body, machine());
  const MIIBounds Bounds = computeMII(Graph);
  EXPECT_EQ(Bounds.MII, std::max(Bounds.ResMII, Bounds.RecMII));
  const Schedule Sched = scheduleLoop(Graph);
  if (Sched.Success) {
    EXPECT_GE(Sched.II, Bounds.MII);
    EXPECT_EQ(Sched.MII, Bounds.MII);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MIIBoundProperty, ::testing::Range(1, 41));
