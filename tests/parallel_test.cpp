//===----------------------------------------------------------------------===//
/// \file Tests for the parallel-for primitive and the determinism policy
/// it exists to uphold (DESIGN.md "Parallelism & determinism"): every sweep
/// that fans out across workers must produce byte-identical reports at any
/// job count, because results live in per-index slots and are aggregated in
/// input order.
//===----------------------------------------------------------------------===//

#include "exact/Oracle.h"
#include "support/ParallelFor.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

namespace lsms {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int Jobs : {1, 2, 3, 8}) {
    for (const int N : {0, 1, 2, 7, 64}) {
      std::vector<std::atomic<int>> Hits(static_cast<size_t>(N));
      parallelFor(Jobs, N, [&](int I) {
        ++Hits[static_cast<size_t>(I)];
      });
      for (int I = 0; I < N; ++I)
        EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1)
            << "Jobs=" << Jobs << " N=" << N << " I=" << I;
    }
  }
}

TEST(ParallelForTest, SequentialPathRunsInOrder) {
  // Jobs <= 1 must run inline in index order (callers rely on this for the
  // exact sequential code path).
  std::vector<int> Order;
  parallelFor(1, 5, [&](int I) { Order.push_back(I); });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
  Order.clear();
  parallelFor(0, 3, [&](int I) { Order.push_back(I); });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2}));
}

TEST(ParallelForTest, JobsClampedToWorkAvailable) {
  // More workers than items must still cover everything exactly once.
  std::vector<std::atomic<int>> Hits(3);
  parallelFor(16, 3, [&](int I) { ++Hits[static_cast<size_t>(I)]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1);
}

TEST(ParallelForTest, SlowIndexDoesNotHoldBackTheRest) {
  // Workers claim indices from a shared counter, so while index 0 is busy
  // the other worker runs every remaining index. Under static sharding
  // (worker W owning I = W mod 2) index 2 would wait behind index 0.
  constexpr int N = 16;
  std::atomic<int> Done{0};
  bool RestFinishedFirst = false;
  parallelFor(2, N, [&](int I) {
    if (I != 0) {
      ++Done;
      return;
    }
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Done.load() < N - 1 && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
    RestFinishedFirst = Done.load() == N - 1;
  });
  EXPECT_TRUE(RestFinishedFirst);
}

TEST(ParallelForTest, ResolveJobsPrecedence) {
  // An explicit request wins; otherwise LSMS_JOBS; otherwise hardware.
  EXPECT_EQ(resolveJobs(3), 3);
  ASSERT_EQ(setenv("LSMS_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(resolveJobs(0), 5);
  EXPECT_EQ(resolveJobs(2), 2);
  ASSERT_EQ(unsetenv("LSMS_JOBS"), 0);
  EXPECT_EQ(resolveJobs(0), hardwareJobs());
  EXPECT_GE(hardwareJobs(), 1);
}

TEST(ParallelDeterminismTest, OracleSuiteIdenticalAcrossJobCounts) {
  const std::vector<LoopBody> Seq =
      buildOracleSuite(/*Count=*/24, /*MinOps=*/3, /*MaxOps=*/16,
                       /*Seed=*/0xBEEF, /*Jobs=*/1);
  for (const int Jobs : {2, hardwareJobs()}) {
    const std::vector<LoopBody> Par =
        buildOracleSuite(24, 3, 16, 0xBEEF, Jobs);
    ASSERT_EQ(Par.size(), Seq.size()) << "Jobs=" << Jobs;
    for (size_t I = 0; I < Seq.size(); ++I) {
      EXPECT_EQ(Par[I].Name, Seq[I].Name) << "Jobs=" << Jobs;
      EXPECT_EQ(Par[I].numMachineOps(), Seq[I].numMachineOps())
          << "Jobs=" << Jobs << " loop " << I;
    }
  }
}

TEST(ParallelDeterminismTest, OracleReportByteIdenticalAcrossJobCounts) {
  OracleOptions Options;
  Options.NumLoops = 12;
  Options.Seed = 0x5EED;

  auto Render = [&Options](int Jobs) {
    Options.Jobs = Jobs;
    const OracleReport Report = runOracle(Options);
    std::ostringstream OS;
    printOracleReport(OS, Report);
    return OS.str();
  };

  const std::string Seq = Render(1);
  EXPECT_FALSE(Seq.empty());
  EXPECT_EQ(Render(2), Seq);
  EXPECT_EQ(Render(hardwareJobs()), Seq);
}

} // namespace
} // namespace lsms
