//===----------------------------------------------------------------------===//
/// \file End-to-end functional validation: the pipelined execution of every
/// schedule must produce bit-identical memory and live-outs to the
/// sequential reference interpreter. Same-cycle stores commit in
/// (iteration, op) order, and both executors' results over the kernels and
/// an irregular suite are pinned to recorded sums.
//===----------------------------------------------------------------------===//

#include "core/ModuloScheduler.h"
#include "frontend/LoopCompiler.h"
#include "ir/IRBuilder.h"
#include "spec/Speculation.h"
#include "vliwsim/Execution.h"
#include "workloads/Kernels.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

void checkEquivalence(const LoopBody &Body, long Iterations = 40) {
  const DepGraph Graph(Body, machine());
  const Schedule Sched = scheduleLoop(Graph);
  ASSERT_TRUE(Sched.Success) << Body.Name;

  const ExecutionResult Ref = runReference(Body, Iterations);
  ASSERT_EQ(Ref.Error, "") << Body.Name;
  const ExecutionResult Pipe = runPipelined(Body, Sched, Iterations);
  ASSERT_EQ(Pipe.Error, "") << Body.Name;
  EXPECT_EQ(compareExecutions(Ref, Pipe), "") << Body.Name;
}

LoopBody compileOrDie(const std::string &Src, const std::string &Name) {
  LoopBody Body;
  const std::string Err = compileLoop(Src, Name, Body);
  EXPECT_EQ(Err, "") << Src;
  return Body;
}

/// Sums over a set of executions plus one order-sensitive FNV-1a hash of
/// every written cell and live-out, taken over the doubles' bit patterns
/// (so -0.0 and each NaN payload count).
struct ExecutionDigest {
  long ActualTrip = 0;
  long MisspeculatedStores = 0;
  long WrittenCells = 0;
  long FailedRuns = 0;
  uint64_t Hash = 0xcbf29ce484222325ULL;

  void mix(uint64_t Word) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xffu;
      Hash *= 0x100000001b3ULL;
    }
  }

  void add(const ExecutionResult &R) {
    ActualTrip += R.ActualTrip;
    MisspeculatedStores += R.MisspeculatedStores;
    if (!R.Error.empty())
      ++FailedRuns;
    for (size_t Array = 0; Array < R.Arrays.size(); ++Array) {
      mix(Array);
      WrittenCells += static_cast<long>(R.Arrays[Array].size());
      for (const auto &[Index, D] : R.Arrays[Array]) {
        mix(static_cast<uint64_t>(Index));
        mix(std::bit_cast<uint64_t>(D));
      }
    }
    for (const auto &[Id, D] : R.LiveOuts) {
      mix(static_cast<uint64_t>(Id));
      mix(std::bit_cast<uint64_t>(D));
    }
  }
};

} // namespace

TEST(Reference, DotProductComputesExpectedValue) {
  const LoopBody Body = buildDotLoop();
  const ExecutionResult R = runReference(Body, 10);
  ASSERT_EQ(R.Error, "");
  // s = sum of x(i)*y(i) over 10 iterations with the default memory init.
  double Expected = 0;
  for (long I = 1; I <= 10; ++I)
    Expected += defaultMemoryInit(0, I) * defaultMemoryInit(1, I);
  int S = -1;
  for (const Value &V : Body.Values)
    if (V.Name == "s")
      S = V.Id;
  ASSERT_GE(S, 0);
  ASSERT_TRUE(R.LiveOuts.count(S));
  EXPECT_DOUBLE_EQ(R.LiveOuts.at(S), Expected);
}

TEST(Reference, SampleLoopRecurrenceValues) {
  // x(i) = x(i-1) + y(i-2) with seeds x(1)=1, x(2)=2, y(1)=10, y(2)=20.
  const LoopBody Body = buildSampleLoop();
  const ExecutionResult R = runReference(Body, 3);
  ASSERT_EQ(R.Error, "");
  // i=3: x(3) = x(2)+y(1) = 2+10 = 12; y(3) = y(2)+x(1) = 20+1 = 21.
  // i=4: x(4) = x(3)+y(2) = 12+20 = 32; y(4) = y(3)+x(2) = 21+2 = 23.
  // i=5: x(5) = x(4)+y(3) = 32+21 = 53; y(5) = y(4)+x(3) = 23+12 = 35.
  ASSERT_EQ(R.Arrays.size(), 2u);
  EXPECT_DOUBLE_EQ(R.Arrays[0].at(3), 12);
  EXPECT_DOUBLE_EQ(R.Arrays[0].at(4), 32);
  EXPECT_DOUBLE_EQ(R.Arrays[0].at(5), 53);
  EXPECT_DOUBLE_EQ(R.Arrays[1].at(3), 21);
  EXPECT_DOUBLE_EQ(R.Arrays[1].at(4), 23);
  EXPECT_DOUBLE_EQ(R.Arrays[1].at(5), 35);
}

TEST(Reference, PredicatedAbs) {
  LoopBody Body = buildPredicatedAbsLoop();
  const auto Init = [](int Array, long Index) {
    (void)Array;
    return Index % 2 == 0 ? -2.0 : 3.0;
  };
  const ExecutionResult R = runReference(Body, 6, Init);
  ASSERT_EQ(R.Error, "");
  for (long I = 1; I <= 6; ++I)
    EXPECT_DOUBLE_EQ(R.Arrays[1].at(I), I % 2 == 0 ? 2.0 : 3.0) << I;
}

TEST(PipelinedExecution, MatchesReferenceOnHandKernels) {
  checkEquivalence(buildSampleLoop());
  checkEquivalence(buildDaxpyLoop());
  checkEquivalence(buildDotLoop());
  checkEquivalence(buildLinearRecurrenceLoop());
  checkEquivalence(buildPredicatedAbsLoop());
  checkEquivalence(buildDivideLoop());
}

TEST(PipelinedExecution, MatchesReferenceUnderCydromeScheduler) {
  const LoopBody Body = buildSampleLoop();
  const DepGraph Graph(Body, machine());
  const Schedule Sched = scheduleLoop(Graph, SchedulerOptions::cydrome());
  ASSERT_TRUE(Sched.Success);
  const ExecutionResult Ref = runReference(Body, 25);
  const ExecutionResult Pipe = runPipelined(Body, Sched, 25);
  EXPECT_EQ(compareExecutions(Ref, Pipe), "");
}

TEST(PipelinedExecution, DslLoopsMatchReference) {
  const char *Sources[] = {
      // Livermore-like hydro fragment.
      "param q = 0.5\nparam r = 0.25\nparam t = 2\n"
      "loop i = 1, n\n  x[i] = q + y[i]*(r*z[i+10] + t*z[i+11])\nend\n",
      // First-order recurrence.
      "loop i = 2, n\n  x[i] = x[i-1]*0.5 + y[i]\nend\n",
      // Conditional with else and scalar reduction.
      "param s = 0\n"
      "loop i = 1, n\n"
      "  if (x[i] > 2) then\n    s = s + x[i]\n    y[i] = 1\n"
      "  else\n    y[i] = 0 - 1\n  end\nend\n",
      // Read-before-write anti-dependence.
      "loop i = 1, n\n  y[i] = x[i] + 1\n  x[i] = y[i] * 0.5\nend\n",
      // Stencil with cross-iteration elimination and genuine loads.
      "loop i = 3, n\n  a[i] = a[i-1] + a[i-2] + b[i]\nend\n",
      // sqrt / divide on the non-pipelined divider.
      "loop i = 1, n\n  y[i] = sqrt(x[i]) / (x[i] + 2)\nend\n",
      // Induction variable used as data.
      "loop i = 1, n\n  x[i] = i * y[i]\nend\n",
  };
  int Index = 0;
  for (const char *Src : Sources) {
    const LoopBody Body =
        compileOrDie(Src, "dsl" + std::to_string(Index++));
    checkEquivalence(Body);
  }
}

TEST(PipelinedExecution, LongPipelineManyIterations) {
  // Deep software pipeline (load latency 13 at II 1-2): many iterations in
  // flight at once; equivalence must still hold.
  const LoopBody Body = compileOrDie(
      "loop i = 1, n\n  y[i] = x[i] * 2 + 1\nend\n", "deep");
  checkEquivalence(Body, 200);
}

TEST(PipelinedExecution, FailedScheduleReportsError) {
  Schedule Bad;
  const LoopBody Body = buildDaxpyLoop();
  const ExecutionResult R = runPipelined(Body, Bad, 4);
  EXPECT_NE(R.Error, "");
}

TEST(PipelinedExecution, SameCycleStoresCommitInIterationThenOpOrder) {
  // No scheduler puts two stores to one cell in the same cycle (an output
  // dependence orders them), but a speculative schedule that dropped that
  // arc can. Within a cycle the pipelined executor issues, and so commits,
  // in (iteration, op) order: the order the sequential reference writes
  // in, so the same store wins in both executions. This hand-built
  // schedule does both at II 1: st1 of iteration j and st0 of iteration
  // j + 1 write a[j + 1] in one cycle (iteration order decides), and st2
  // and st3 of one iteration write b[j] in one cycle (op order decides).
  LoopBody Body;
  Body.Name = "same_cycle_stores";
  IRBuilder B(Body);
  const int A = B.newArray("a");
  const int Bv = B.newArray("b");
  const int Addr = B.addressStream("addr", 0);
  const int One =
      B.emitValue(Opcode::Copy, {Use{B.invariant("one", 1.0), 0}}, "one_r");
  const int Two =
      B.emitValue(Opcode::Copy, {Use{B.invariant("two", 2.0), 0}}, "two_r");
  const int St0 = B.emitStore(A, 0, Use{Addr, 0}, Use{One, 0}, "st0");
  const int St1 = B.emitStore(A, 1, Use{Addr, 0}, Use{Two, 0}, "st1");
  const int St2 = B.emitStore(Bv, 0, Use{Addr, 0}, Use{One, 0}, "st2");
  const int St3 = B.emitStore(Bv, 0, Use{Addr, 0}, Use{Two, 0}, "st3");
  B.finish();

  Schedule Sched;
  Sched.Success = true;
  Sched.II = 1;
  Sched.Times.assign(static_cast<size_t>(Body.numOps()), 0);
  Sched.Times[static_cast<size_t>(St0)] = 1;
  Sched.Times[static_cast<size_t>(St1)] = 2;
  Sched.Times[static_cast<size_t>(St2)] = 1;
  Sched.Times[static_cast<size_t>(St3)] = 1;
  Sched.Times[static_cast<size_t>(Body.stopOp())] = 3;

  const long Iterations = 8;
  const ExecutionResult Ref = runReference(Body, Iterations);
  const ExecutionResult Pipe = runPipelined(Body, Sched, Iterations);
  ASSERT_EQ(Ref.Error, "");
  ASSERT_EQ(Pipe.Error, "");
  EXPECT_EQ(compareExecutions(Ref, Pipe), "");
  for (long I = Body.First; I < Body.First + Iterations; ++I) {
    EXPECT_EQ(Pipe.Arrays[static_cast<size_t>(A)].at(I), 1.0) << "a[" << I << "]";
    EXPECT_EQ(Pipe.Arrays[static_cast<size_t>(Bv)].at(I), 2.0) << "b[" << I << "]";
  }
  EXPECT_EQ(Pipe.Arrays[static_cast<size_t>(A)].at(Body.First + Iterations),
            2.0);
}

TEST(ExecutionPin, ResultsMatchRecordedSums) {
  // Reference and pipelined executions, 64 iterations each, of the slack
  // schedules of the kernels and of both lowerings of 100 irregular loops
  // (the speculative schedule replayed on the conservative body, as the
  // speculation sweep does), folded into sums and one hash. A change to
  // the executors that moves a single misspeculated or squashed store, a
  // trip count or a cell's bits moves these constants even when every
  // comparison against the reference still passes. The constants are the
  // executors' current behaviour; re-record them only for a change meant
  // to alter execution semantics.
  constexpr long Iterations = 64;
  const SchedulerOptions Slack = SchedulerOptions::slack();
  ExecutionDigest Kernels, Cons, Spec;

  const std::vector<LoopBody> KernelSuite = buildKernelSuite();
  ASSERT_EQ(KernelSuite.size(), 43u);
  for (const LoopBody &Body : KernelSuite) {
    const Schedule S = scheduleLoop(DepGraph(Body, machine()), Slack);
    Kernels.add(runReference(Body, Iterations));
    Kernels.add(runPipelined(Body, S, Iterations));
  }

  for (const LoopBody &Body : buildIrregularSuite(100, 48, 0x19930601)) {
    const Lowering C = lowerConservative(Body);
    const Lowering P = lowerSpeculative(Body);
    const Schedule ConsS = scheduleLoop(DepGraph(C.Body, machine()), Slack);
    const Schedule SpecS = scheduleLoop(DepGraph(P.Body, machine()), Slack);
    const ExecutionResult Ref = runReference(C.Body, Iterations);
    Cons.add(Ref);
    Cons.add(runPipelined(C.Body, ConsS, Iterations));
    Spec.add(Ref);
    Spec.add(runPipelined(C.Body, SpecS, Iterations));
  }

  EXPECT_EQ(Kernels.ActualTrip, 5504);
  EXPECT_EQ(Kernels.MisspeculatedStores, 0);
  EXPECT_EQ(Kernels.WrittenCells, 6170);
  EXPECT_EQ(Kernels.FailedRuns, 0);
  EXPECT_EQ(Kernels.Hash, 0x3AEB1DE6DE313D01ULL);
  EXPECT_EQ(Cons.ActualTrip, 10218);
  EXPECT_EQ(Cons.MisspeculatedStores, 0);
  EXPECT_EQ(Cons.WrittenCells, 14548);
  EXPECT_EQ(Cons.FailedRuns, 0);
  EXPECT_EQ(Cons.Hash, 0xDFD5E9E2CB432CC9ULL);
  EXPECT_EQ(Spec.ActualTrip, 10218);
  EXPECT_EQ(Spec.MisspeculatedStores, 7);
  EXPECT_EQ(Spec.WrittenCells, 14555);
  EXPECT_EQ(Spec.FailedRuns, 0);
  EXPECT_EQ(Spec.Hash, 0xAD51DD79C0B1B6ADULL);
}

TEST(CompareExecutions, DetectsDifferences) {
  ExecutionResult A, B;
  A.Arrays.resize(1);
  B.Arrays.resize(1);
  A.Arrays[0][3] = 1.0;
  B.Arrays[0][3] = 2.0;
  EXPECT_NE(compareExecutions(A, B), "");
  B.Arrays[0][3] = 1.0;
  EXPECT_EQ(compareExecutions(A, B), "");
  B.Arrays[0][4] = 9.0;
  EXPECT_NE(compareExecutions(A, B), "");
}

TEST(CompareExecutions, NanEqualsNan) {
  ExecutionResult A, B;
  A.Arrays.resize(1);
  B.Arrays.resize(1);
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  A.Arrays[0][0] = NaN;
  B.Arrays[0][0] = NaN;
  EXPECT_EQ(compareExecutions(A, B), "");
}
