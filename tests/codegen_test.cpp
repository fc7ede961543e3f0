//===----------------------------------------------------------------------===//
/// \file Tests for kernel-only code generation and the machine-level
/// simulator: the emitted VLIW code, run on concrete rotating register
/// files with stage predicates, must reproduce the sequential reference's
/// memory image and live-outs exactly.
//===----------------------------------------------------------------------===//

#include "codegen/KernelCodeGen.h"
#include "core/ModuloScheduler.h"
#include "frontend/LoopCompiler.h"
#include "vliwsim/MachineSim.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

void checkMachineEquivalence(const LoopBody &Body, long Iterations = 30) {
  const Schedule Sched = scheduleLoop(Body, machine());
  ASSERT_TRUE(Sched.Success) << Body.Name;

  KernelCode Code;
  ASSERT_EQ(generateKernelCode(Body, Sched, Code), "") << Body.Name;
  EXPECT_EQ(Code.II, Sched.II);
  EXPECT_GE(Code.StageCount, 1);

  const ExecutionResult Ref = runReference(Body, Iterations);
  ASSERT_EQ(Ref.Error, "") << Body.Name;
  ExecutionResult Mach = runKernelCode(Body, Code, Iterations);
  ASSERT_EQ(Mach.Error, "") << Body.Name;

  // Dead live-outs have no register to read back; drop them from the
  // reference side before comparing.
  ExecutionResult RefAligned = Ref;
  for (auto It = RefAligned.LiveOuts.begin();
       It != RefAligned.LiveOuts.end();) {
    if (!Mach.LiveOuts.count(It->first))
      It = RefAligned.LiveOuts.erase(It);
    else
      ++It;
  }
  EXPECT_EQ(compareExecutions(RefAligned, Mach), "") << Body.Name;
}

} // namespace

TEST(KernelCodeGen, SampleLoopCodeShape) {
  const LoopBody Body = buildSampleLoop();
  const Schedule Sched = scheduleLoop(Body, machine());
  ASSERT_TRUE(Sched.Success);
  KernelCode Code;
  ASSERT_EQ(generateKernelCode(Body, Sched, Code), "");
  EXPECT_EQ(Code.II, 2);
  // All machine ops are slotted, one brtop included.
  EXPECT_EQ(Code.Ops.size(), static_cast<size_t>(Body.numMachineOps()));
  // Each op's cycle is within the kernel.
  for (const KernelOp &Op : Code.Ops) {
    EXPECT_GE(Op.Cycle, 0);
    EXPECT_LT(Op.Cycle, Code.II);
    EXPECT_GE(Op.Stage, 0);
    EXPECT_LT(Op.Stage, Code.StageCount);
  }
}

TEST(KernelCodeGen, ListingPrints) {
  const LoopBody Body = buildSampleLoop();
  const Schedule Sched = scheduleLoop(Body, machine());
  KernelCode Code;
  ASSERT_EQ(generateKernelCode(Body, Sched, Code), "");
  std::ostringstream OS;
  Code.print(OS, Body);
  const std::string Out = OS.str();
  EXPECT_NE(Out.find("kernel II=2"), std::string::npos);
  EXPECT_NE(Out.find("fadd"), std::string::npos);
  EXPECT_NE(Out.find("rr"), std::string::npos);
}

TEST(KernelCodeGen, FailsOnFailedSchedule) {
  const LoopBody Body = buildSampleLoop();
  Schedule Bad;
  KernelCode Code;
  EXPECT_NE(generateKernelCode(Body, Bad, Code), "");
}

TEST(MachineSim, SampleLoopMatchesReference) {
  checkMachineEquivalence(buildSampleLoop(), 40);
}

TEST(MachineSim, AllHandKernelsMatchReference) {
  checkMachineEquivalence(buildDaxpyLoop());
  checkMachineEquivalence(buildDotLoop());
  checkMachineEquivalence(buildLinearRecurrenceLoop());
  checkMachineEquivalence(buildPredicatedAbsLoop());
  checkMachineEquivalence(buildDivideLoop(), 12);
}

TEST(MachineSim, SuiteKernelsMatchReference) {
  for (const LoopBody &Body : buildKernelSuite())
    checkMachineEquivalence(Body, 25);
}

TEST(MachineSim, DeepPipelineLongRun) {
  LoopBody Body;
  ASSERT_EQ(compileLoop("loop i = 1, n\n  y[i] = x[i]*2 + 1\nend\n", "deep",
                        Body),
            "");
  checkMachineEquivalence(Body, 150);
}

TEST(MachineSim, SingleIteration) {
  // N smaller than the stage count: most kernel iterations run fully
  // squashed by stage predicates.
  checkMachineEquivalence(buildDaxpyLoop(), 1);
}

TEST(MachineSim, SeedLandsInItsVirtualDefinitionCycle) {
  // Suite loop rand582932290. At II 2 with an RR file of 3, instance -2 of
  // r0 (virtual definition at cycle -2) and instance -1 of r0's address
  // stream (virtual definition at exactly cycle 0) share a physical
  // register. Their lifetimes [-2, 0) and [0, 2) are disjoint because
  // cycle 0's reads see the state before its writes, so iteration 0's
  // multiply must read r0's seed, not the address seed written at cycle 0.
  LoopBody Body;
  ASSERT_EQ(compileLoop("param p0 = 0.25\n"
                        "param p1 = 0.75\n"
                        "loop i = 2, n\n"
                        "  r0[i] = r0[i-2] * p1 + p1\n"
                        "end\n",
                        "rand582932290", Body),
            "");
  const Schedule Sched = scheduleLoop(Body, machine());
  ASSERT_TRUE(Sched.Success);
  KernelCode Code;
  ASSERT_EQ(generateKernelCode(Body, Sched, Code), "");
  EXPECT_EQ(Code.II, 2);
  EXPECT_EQ(Code.RRSize, 3);
  checkMachineEquivalence(Body, 40);
}

TEST(MachineSim, PaperSuiteMatchesReference) {
  // Every loop of the 1,525-loop paper suite, slack-scheduled, against the
  // sequential reference over lsmsc's default 40 iterations.
  const std::vector<LoopBody> Suite = buildFullSuite();
  ASSERT_EQ(Suite.size(), 1525u);
  for (const LoopBody &Body : Suite)
    checkMachineEquivalence(Body, 40);
}

class MachineSimProperty : public ::testing::TestWithParam<int> {};

TEST_P(MachineSimProperty, RandomLoopsMatchReference) {
  RandomLoopConfig Config;
  Config.TargetOps = 20 + (GetParam() % 5) * 10;
  const LoopBody Body =
      generateRandomLoop(static_cast<uint64_t>(GetParam()) + 7700, Config);
  const Schedule Sched = scheduleLoop(Body, machine());
  if (!Sched.Success)
    return;
  checkMachineEquivalence(Body, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineSimProperty, ::testing::Range(1, 41));
