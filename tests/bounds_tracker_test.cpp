//===----------------------------------------------------------------------===//
/// \file Cross-check of the incremental Estart/Lstart tracker against the
/// Section 4.1 formulas and the Section 4.2 Lstart(Stop) rule, evaluated
/// in full after every refresh. Seeded place/eject sequences, which
/// place and eject Stop and push Estart(Stop) past Lstart(Stop), drive the
/// tracker on the suite kernels and 200 oracle loops. Stop moves are
/// ordinary events for the tracker, so the sequences must also place Stop
/// at and below Lstart(Stop), and eject it, in steps that reset nothing.
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "core/BoundsTracker.h"
#include "graph/MinDist.h"
#include "support/Rng.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsms;

namespace {

const MachineModel &machine() {
  static MachineModel M = MachineModel::cydra5();
  return M;
}

/// One attempt's configuration of the Lstart(Stop) rule.
struct StopRule {
  int II = 1;
  int ResMII = 1;
  long StopPad = -1; ///< >= 0: straight-line mode

  long cap(long EstartStop) const {
    if (StopPad >= 0)
      return EstartStop + StopPad;
    return ResMII == 1 ? EstartStop : ((EstartStop + II - 1) / II) * II;
  }
};

/// Estart/Lstart of unplaced \p X by the formulas, over every placed op.
void referenceBounds(const MinDistMatrix &MinDist, int Stop,
                     const std::vector<int> &Times, long LstartStop, int X,
                     long &E, long &L) {
  const auto Placed = [&](int Y) {
    return Times[static_cast<size_t>(Y)] >= 0;
  };
  E = 0;
  L = BoundsTracker::Unbounded;
  if (X == Stop)
    L = LstartStop;
  else if (!Placed(Stop) && MinDist.connected(X, Stop))
    L = LstartStop - MinDist.at(X, Stop);
  for (int Y = 0; Y < static_cast<int>(Times.size()); ++Y) {
    if (!Placed(Y))
      continue;
    const long Ty = Times[static_cast<size_t>(Y)];
    if (MinDist.connected(Y, X))
      E = std::max(E, Ty + MinDist.at(Y, X));
    if (MinDist.connected(X, Y))
      L = std::min(L, Ty - MinDist.at(X, Y));
  }
}

/// Event counts over a whole run, to show the sequences reach every path.
struct Coverage {
  long StopPlaced = 0;
  long StopEjected = 0;
  long StopCapResets = 0;
  long PlacedThenEjected = 0; ///< both between the same two refreshes
  long EjectedThenPlaced = 0;
  /// Steps that reset no Lstart(Stop) and placed Stop at or below it, at
  /// exactly it (the tie that keeps each base as its supplier), or
  /// ejected Stop.
  long StopPlacedNoReset = 0;
  long StopPlacedAtCapNoReset = 0;
  long StopEjectedNoReset = 0;
};

/// Drives one tracker through a seeded sequence of steps. A step is up to
/// four events in any order, each ejecting a placed op or placing an
/// unplaced one (Stop with a raised chance), then a refresh after which
/// every bound is compared.
void crossCheck(const LoopBody &Body, const MinDistMatrix &MinDist,
                const StopRule &Rule, uint64_t Seed, Coverage &Cov) {
  const int N = Body.numOps();
  const int Start = Body.startOp(), Stop = Body.stopOp();
  std::vector<int> Times(static_cast<size_t>(N), -1);
  Times[static_cast<size_t>(Start)] = 0;
  ReachLists Reach;
  Reach.build(MinDist);
  BoundsTracker Tracker(MinDist, Reach, Start, Stop, Rule.II, Rule.ResMII,
                        Rule.StopPad, Times);
  Tracker.start();

  // Bounds each placed op had when it was placed; Start keeps its
  // initial ones.
  std::vector<long> FrozenE(static_cast<size_t>(N), 0);
  std::vector<long> FrozenL(static_cast<size_t>(N), BoundsTracker::Unbounded);
  long RefLstartStop = Rule.cap(MinDist.at(Start, Stop));

  Rng R(Seed);
  const int Steps = 3 * N;
  for (int Step = 0; Step <= Steps; ++Step) {
    // How Stop moved in this step, against the Lstart(Stop) it was
    // placed under.
    bool StopPlacedBelow = false, StopPlacedAt = false, StopEjected = false;
    if (Step > 0) {
      std::vector<char> PlacedNow(static_cast<size_t>(N), 0);
      std::vector<char> EjectedNow(static_cast<size_t>(N), 0);
      const int Events = static_cast<int>(R.nextInRange(0, 4));
      for (int K = 0; K < Events; ++K) {
        std::vector<int> Placed, Unplaced;
        for (int X = 0; X < N; ++X)
          if (X != Start)
            (Times[static_cast<size_t>(X)] >= 0 ? Placed : Unplaced)
                .push_back(X);
        if (!Placed.empty() && (Unplaced.empty() || R.nextBool(0.4))) {
          const int Y = Placed[R.nextBelow(Placed.size())];
          Times[static_cast<size_t>(Y)] = -1;
          Tracker.ejected(Y);
          Cov.StopEjected += Y == Stop;
          StopEjected |= Y == Stop;
          Cov.PlacedThenEjected += PlacedNow[static_cast<size_t>(Y)];
          EjectedNow[static_cast<size_t>(Y)] = 1;
          continue;
        }
        const bool PickStop = Times[static_cast<size_t>(Stop)] < 0 &&
                              R.nextBool(0.2);
        const int X =
            PickStop ? Stop : Unplaced[R.nextBelow(Unplaced.size())];
        // Around Estart, sometimes well past Lstart, so Estart(Stop)
        // overtakes Lstart(Stop).
        const long T = std::max<long>(
            0, Tracker.estart(X) +
                   R.nextInRange(-2, R.nextBool(0.1) ? 4L * Rule.II
                                                     : Rule.II));
        FrozenE[static_cast<size_t>(X)] = Tracker.estart(X);
        FrozenL[static_cast<size_t>(X)] = Tracker.lstart(X);
        Times[static_cast<size_t>(X)] = static_cast<int>(T);
        Tracker.placed(X);
        Cov.StopPlaced += X == Stop;
        if (X == Stop) {
          StopPlacedBelow = T <= Tracker.lstartStop();
          StopPlacedAt = T == Tracker.lstartStop();
        }
        Cov.EjectedThenPlaced += EjectedNow[static_cast<size_t>(X)];
        PlacedNow[static_cast<size_t>(X)] = 1;
      }
      Tracker.refresh();
    }

    long EstartStop = 0;
    for (int Y = 0; Y < N; ++Y)
      if (Times[static_cast<size_t>(Y)] >= 0 && MinDist.connected(Y, Stop))
        EstartStop = std::max(EstartStop, Times[static_cast<size_t>(Y)] +
                                              MinDist.at(Y, Stop));
    if (EstartStop > RefLstartStop) {
      RefLstartStop = Rule.cap(EstartStop);
      Cov.StopCapResets += Step > 0;
    } else {
      Cov.StopPlacedNoReset += StopPlacedBelow;
      Cov.StopPlacedAtCapNoReset += StopPlacedAt;
      Cov.StopEjectedNoReset += StopEjected;
    }
    ASSERT_EQ(Tracker.lstartStop(), RefLstartStop)
        << Body.Name << " step " << Step;

    for (int X = 0; X < N; ++X) {
      long E, L;
      if (Times[static_cast<size_t>(X)] >= 0) {
        E = FrozenE[static_cast<size_t>(X)];
        L = FrozenL[static_cast<size_t>(X)];
      } else {
        referenceBounds(MinDist, Stop, Times, RefLstartStop, X, E, L);
      }
      ASSERT_EQ(Tracker.estart(X), E)
          << Body.Name << " step " << Step << " op " << X;
      ASSERT_EQ(Tracker.lstart(X), L)
          << Body.Name << " step " << Step << " op " << X;
    }
  }
}

/// Every rule variant on \p Body: the paper's rule at MII and MII+2, with
/// and without resource contention, and straight-line pads 0 and 3.
void crossCheckLoop(const LoopBody &Body, uint64_t Seed, Coverage &Cov) {
  const DepGraph Graph(Body, machine());
  const int ResMII = computeResMII(Body, machine());
  const int MII = std::max(ResMII, computeRecMII(Graph));
  MinDistMatrix MinDist;
  for (const int II : {MII, MII + 2}) {
    ASSERT_TRUE(MinDist.compute(Graph, II)) << Body.Name;
    for (const StopRule Rule :
         {StopRule{II, ResMII, -1}, StopRule{II, 1, -1},
          StopRule{II, ResMII, 0}, StopRule{II, ResMII, 3}}) {
      crossCheck(Body, MinDist, Rule, Seed++, Cov);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

/// Cross-checks every loop of \p Suite and asserts the sequences reached
/// every path the tracker has.
void crossCheckSuite(const std::vector<LoopBody> &Suite, uint64_t Seed) {
  Coverage Cov;
  for (const LoopBody &Body : Suite) {
    crossCheckLoop(Body, Seed, Cov);
    if (::testing::Test::HasFatalFailure())
      return;
    Seed += 100;
  }
  EXPECT_GT(Cov.StopPlaced, 0);
  EXPECT_GT(Cov.StopEjected, 0);
  EXPECT_GT(Cov.StopCapResets, 0);
  EXPECT_GT(Cov.PlacedThenEjected, 0);
  EXPECT_GT(Cov.EjectedThenPlaced, 0);
  EXPECT_GT(Cov.StopPlacedNoReset, 0);
  EXPECT_GT(Cov.StopPlacedAtCapNoReset, 0);
  EXPECT_GT(Cov.StopEjectedNoReset, 0);
}

} // namespace

TEST(BoundsTracker, MatchesFormulasOnKernels) {
  crossCheckSuite(buildKernelSuite(), /*Seed=*/1);
}

TEST(BoundsTracker, MatchesFormulasOnOracleLoops) {
  const std::vector<LoopBody> Suite =
      buildOracleSuite(/*Count=*/200, /*MinOps=*/3, /*MaxOps=*/20,
                       /*Seed=*/0xB0D5, /*Jobs=*/1);
  ASSERT_EQ(Suite.size(), 200u);
  crossCheckSuite(Suite, /*Seed=*/7);
}
