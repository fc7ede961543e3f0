//===----------------------------------------------------------------------===//
/// \file Tests for the rotating register allocator: conflict-freedom
/// (verified by occupancy simulation) and nearness to the MaxLive bound.
//===----------------------------------------------------------------------===//

#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "exact/ExactEngine.h"
#include "ir/IRBuilder.h"
#include "regalloc/RotatingAllocator.h"
#include "workloads/Kernels.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsms;

namespace {

/// The allocator's first-fit as it first shipped: every candidate color is
/// checked against every earlier range, pair by pair. The library marks
/// forbidden colors in one pass instead; the two must agree exactly.
namespace pairwise {

struct Range {
  int Value = -1;
  long Start = 0;
  long Length = 0;
};

bool colorsConflict(const Range &V, const Range &W, int Cv, int Cw, int Size,
                    int II) {
  const long Delta = V.Start - W.Start;
  const long LoNum = -V.Length - Delta; // exclusive
  const long HiNum = W.Length - Delta;  // exclusive
  long MLo = LoNum >= 0 ? LoNum / II + 1 : -((-LoNum) / II);
  while (MLo * II <= LoNum)
    ++MLo;
  while ((MLo - 1) * II > LoNum)
    --MLo;
  const bool SameValue = V.Value == W.Value;
  const long D = (((Cv - Cw) % Size) + Size) % Size;
  for (long M = MLo; M * II < HiNum; ++M) {
    if (SameValue && M == 0)
      continue;
    if (((M % Size) + Size) % Size == D)
      return true;
  }
  return false;
}

bool colorRanges(const std::vector<Range> &Ranges, int Size, int II,
                 std::vector<int> &Color) {
  Color.assign(Ranges.size(), -1);
  for (size_t I = 0; I < Ranges.size(); ++I) {
    int Chosen = -1;
    for (int C = 0; C < Size && Chosen < 0; ++C) {
      bool Free = !colorsConflict(Ranges[I], Ranges[I], C, C, Size, II);
      for (size_t J = 0; J < I && Free; ++J)
        if (colorsConflict(Ranges[I], Ranges[J], C, Color[J], Size, II))
          Free = false;
      if (Free)
        Chosen = C;
    }
    if (Chosen < 0)
      return false;
    Color[I] = Chosen;
  }
  return true;
}

AllocationResult allocate(const LoopBody &Body, const std::vector<int> &Times,
                          int II, RegClass Class,
                          const std::vector<ExtraRange> &Extra = {}) {
  AllocationResult Result;
  Result.Color.assign(static_cast<size_t>(Body.numValues()), -1);
  Result.ExtraColor.assign(Extra.size(), -1);
  const PressureInfo Info = computePressure(Body, Times, II, Class);
  Result.MaxLive = Info.MaxLive;

  std::vector<Range> Ranges;
  for (const Value &V : Body.Values)
    if (V.Class == Class && Info.Length[static_cast<size_t>(V.Id)] > 0)
      Ranges.push_back({V.Id, Times[static_cast<size_t>(V.Def)],
                        Info.Length[static_cast<size_t>(V.Id)]});
  for (size_t E = 0; E < Extra.size(); ++E)
    Ranges.push_back(
        {-2 - static_cast<int>(E), Extra[E].Start, Extra[E].Length});
  if (Ranges.empty()) {
    Result.Success = true;
    return Result;
  }

  // Start time, longest first, end time: the three orderings, tried in
  // this order at each file size from MaxLive up.
  const auto ByStart = [](const Range &A, const Range &B) {
    return A.Start != B.Start ? A.Start < B.Start : A.Length > B.Length;
  };
  const auto ByLength = [](const Range &A, const Range &B) {
    return A.Length != B.Length ? A.Length > B.Length : A.Start < B.Start;
  };
  const auto ByEnd = [](const Range &A, const Range &B) {
    return A.Start + A.Length < B.Start + B.Length;
  };
  for (int Size = std::max<long>(1, Result.MaxLive); Size <= 4096; ++Size) {
    for (int Order = 0; Order < 3; ++Order) {
      std::vector<Range> Ordered = Ranges;
      if (Order == 0)
        std::stable_sort(Ordered.begin(), Ordered.end(), ByStart);
      else if (Order == 1)
        std::stable_sort(Ordered.begin(), Ordered.end(), ByLength);
      else
        std::stable_sort(Ordered.begin(), Ordered.end(), ByEnd);
      std::vector<int> Color;
      if (!colorRanges(Ordered, Size, II, Color))
        continue;
      Result.Success = true;
      Result.FileSize = Size;
      for (size_t I = 0; I < Ordered.size(); ++I) {
        if (Ordered[I].Value >= 0)
          Result.Color[static_cast<size_t>(Ordered[I].Value)] = Color[I];
        else
          Result.ExtraColor[static_cast<size_t>(-2 - Ordered[I].Value)] =
              Color[I];
      }
      return Result;
    }
  }
  return Result;
}

} // namespace pairwise

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

AllocationResult allocateFor(const LoopBody &Body, RegClass Class,
                             Schedule *SchedOut = nullptr) {
  const Schedule Sched = scheduleLoop(Body, machine());
  EXPECT_TRUE(Sched.Success) << Body.Name;
  if (SchedOut)
    *SchedOut = Sched;
  return allocateRotating(Body, Sched.Times, Sched.II, Class);
}

} // namespace

TEST(RotatingAllocator, SampleLoopWithinOneOfMaxLive) {
  const LoopBody Body = buildSampleLoop();
  Schedule Sched;
  const AllocationResult Alloc = allocateFor(Body, RegClass::RR, &Sched);
  ASSERT_TRUE(Alloc.Success);
  EXPECT_EQ(validateAllocation(Body, Sched.Times, Sched.II, RegClass::RR,
                               Alloc),
            "");
  EXPECT_LE(Alloc.FileSize, Alloc.MaxLive + 1);
  EXPECT_GE(Alloc.FileSize, Alloc.MaxLive);
}

TEST(RotatingAllocator, AllKernelsAllocateCloseToMaxLive) {
  for (const LoopBody &Body : buildKernelSuite()) {
    Schedule Sched;
    const AllocationResult Alloc = allocateFor(Body, RegClass::RR, &Sched);
    ASSERT_TRUE(Alloc.Success) << Body.Name;
    EXPECT_EQ(validateAllocation(Body, Sched.Times, Sched.II, RegClass::RR,
                                 Alloc),
              "")
        << Body.Name;
    // Rau et al. [18]: end-fit/best-fit strategies stay within MaxLive+1..5.
    EXPECT_LE(Alloc.FileSize, Alloc.MaxLive + 5) << Body.Name;
  }
}

// On a schedule whose MaxLive carries a minimality certificate, the
// paper's buffer rule holds tight: the greedy rotating allocator needs at
// most certified-MaxLive + 1 registers. One regression case per suite
// kernel, so a future pressure or allocator change that loosens the bound
// names the kernel it broke.
TEST(RotatingAllocator, CertifiedKernelsWithinOneOfCertifiedMaxLive) {
  int Certified = 0;
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, machine());
    ExactOptions Options;
    Options.MinimizeMaxLive = true;
    const ExactResult Ex = scheduleLoopExact(Graph, Options);
    ASSERT_TRUE(Ex.Sched.Success) << Body.Name;
    if (!Ex.MaxLiveProven)
      continue; // only a certified value backs the buffer rule
    ++Certified;
    const AllocationResult Alloc =
        allocateRotating(Body, Ex.Sched.Times, Ex.Sched.II, RegClass::RR);
    ASSERT_TRUE(Alloc.Success) << Body.Name;
    EXPECT_EQ(validateAllocation(Body, Ex.Sched.Times, Ex.Sched.II,
                                 RegClass::RR, Alloc),
              "")
        << Body.Name;
    EXPECT_EQ(Alloc.MaxLive, Ex.MaxLive) << Body.Name
        << ": allocator and certifier disagree on the pressure itself";
    EXPECT_LE(Alloc.FileSize, Ex.MaxLive + 1)
        << Body.Name << " (certificate: "
        << maxLiveCertificateName(Ex.Certificate) << ")";
  }
  EXPECT_GT(Certified, 0)
      << "no kernel certified: the regression net is empty";
}

TEST(RotatingAllocator, IcrPredicatesAllocate) {
  const LoopBody Body = buildPredicatedAbsLoop();
  Schedule Sched;
  const AllocationResult Alloc = allocateFor(Body, RegClass::ICR, &Sched);
  ASSERT_TRUE(Alloc.Success);
  EXPECT_EQ(validateAllocation(Body, Sched.Times, Sched.II, RegClass::ICR,
                               Alloc),
            "");
}

TEST(RotatingAllocator, EmptyClassYieldsEmptyAllocation) {
  const LoopBody Body = buildDaxpyLoop(); // no ICR values at all
  Schedule Sched;
  const AllocationResult Alloc = allocateFor(Body, RegClass::ICR, &Sched);
  EXPECT_TRUE(Alloc.Success);
  EXPECT_EQ(Alloc.FileSize, 0);
}

TEST(RotatingAllocator, LongLifetimeNeedsMultipleRegisters) {
  // A single value with lifetime > II needs ceil(LT/II) rotating
  // registers even though only one value exists.
  LoopBody Body;
  {
    IRBuilder B(Body);
    const int X = B.declareValue(RegClass::RR, "x");
    B.defineValue(X, Opcode::FloatAdd, {Use{X, 1}, Use{X, 4}});
    B.setSeeds(X, {1, 2, 3, 4});
    B.finish();
  }
  const Schedule Sched = scheduleLoop(Body, machine());
  ASSERT_TRUE(Sched.Success);
  const AllocationResult Alloc =
      allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR);
  ASSERT_TRUE(Alloc.Success);
  // Lifetime = 4*II (the omega-4 self use): four instances live at once.
  EXPECT_GE(Alloc.FileSize, 4);
  EXPECT_EQ(validateAllocation(Body, Sched.Times, Sched.II, RegClass::RR,
                               Alloc),
            "");
}

class RandomAllocProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomAllocProperty, ConflictFreeAndNearBound) {
  RandomLoopConfig Config;
  Config.TargetOps = 24;
  const LoopBody Body =
      generateRandomLoop(static_cast<uint64_t>(GetParam()) + 900, Config);
  const Schedule Sched = scheduleLoop(Body, machine());
  if (!Sched.Success)
    return;
  const AllocationResult Alloc =
      allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR);
  ASSERT_TRUE(Alloc.Success) << Body.Source;
  ASSERT_EQ(validateAllocation(Body, Sched.Times, Sched.II, RegClass::RR,
                               Alloc),
            "")
      << Body.Source;
  EXPECT_GE(Alloc.FileSize, Alloc.MaxLive) << Body.Source;
  EXPECT_LE(Alloc.FileSize, Alloc.MaxLive + 5) << Body.Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAllocProperty,
                         ::testing::Range(1, 41));

// The one-pass first fit reproduces the pairwise reference's file size and
// every color over the paper suite and 200 random loops: for RR, for ICR
// with the kernel's stage-predicate chain co-allocated (as
// generateKernelCode allocates them), and for RR with the chain as an
// extra range. Capped at 3 registers, RR succeeds exactly when the
// reference needs 3 or fewer, with the same colors.
TEST(RotatingAllocator, MatchesPairwiseFirstFitReference) {
  std::vector<LoopBody> Loops = buildFullSuite();
  ASSERT_EQ(Loops.size(), 1525u);
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    Loops.push_back(generateRandomLoop(Seed));
  const auto ExpectSame = [](const AllocationResult &Got,
                             const AllocationResult &Want) {
    ASSERT_EQ(Got.Success, Want.Success);
    EXPECT_EQ(Got.FileSize, Want.FileSize);
    EXPECT_EQ(Got.Color, Want.Color);
    EXPECT_EQ(Got.ExtraColor, Want.ExtraColor);
    EXPECT_EQ(Got.MaxLive, Want.MaxLive);
  };
  int Compared = 0, FitInThree = 0;
  for (const LoopBody &Body : Loops) {
    SCOPED_TRACE(Body.Name);
    const Schedule Sched = scheduleLoop(Body, machine());
    if (!Sched.Success)
      continue;
    const int StageCount =
        std::max(1, (Sched.length() + Sched.II - 1) / Sched.II);
    const std::vector<ExtraRange> StageChain = {
        {-1, static_cast<long>(StageCount) * Sched.II + 1}};
    const AllocationResult RRRef =
        pairwise::allocate(Body, Sched.Times, Sched.II, RegClass::RR);
    ExpectSame(allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR),
               RRRef);
    ExpectSame(allocateRotating(Body, Sched.Times, Sched.II, RegClass::ICR,
                                4096, StageChain),
               pairwise::allocate(Body, Sched.Times, Sched.II, RegClass::ICR,
                                  StageChain));
    ExpectSame(allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR,
                                4096, StageChain),
               pairwise::allocate(Body, Sched.Times, Sched.II, RegClass::RR,
                                  StageChain));

    const AllocationResult Capped =
        allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR, 3);
    const bool Fits = RRRef.Success && RRRef.FileSize <= 3;
    ASSERT_EQ(Capped.Success, Fits);
    if (Fits) {
      ExpectSame(Capped, RRRef);
      ++FitInThree;
    }
    ++Compared;
  }
  EXPECT_EQ(Compared, static_cast<int>(Loops.size()));
  EXPECT_GT(FitInThree, 0);
  EXPECT_LT(FitInThree, Compared);
}
