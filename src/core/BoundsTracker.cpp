#include "core/BoundsTracker.h"

#include <algorithm>

using namespace lsms;

BoundsTracker::BoundsTracker(const MinDistMatrix &MinDist,
                             const ReachLists &Reach, int StartOp, int StopOp,
                             int II, int ResMII, long StopPad,
                             const std::vector<int> &Times)
    : MinDist(MinDist), Reach(Reach), StartOp(StartOp), StopOp(StopOp),
      II(II), ResMII(ResMII), StopPad(StopPad), Times(Times) {}

long BoundsTracker::stopCapFor(long EstartStop) const {
  if (StopPad >= 0)
    return EstartStop + StopPad;
  return ResMII == 1 ? EstartStop : ((EstartStop + II - 1) / II) * II;
}

void BoundsTracker::start() {
  const size_t N = Times.size();
  Estart.assign(N, 0);
  Lstart.assign(N, Unbounded);
  EstartFrom.assign(N, -1);
  LstartFrom.assign(N, -1);
  Placed.clear();
  Ejected.clear();
  LstartStop = stopCapFor(MinDist.at(StartOp, StopOp));
  long EstartStop = 0;
  for (int Y = 0; Y < static_cast<int>(N); ++Y)
    EstartStop = std::max(EstartStop, stopReach(Y));
  raiseStopCap(EstartStop);
  recomputeUnplaced();
}

void BoundsTracker::placed(int X) { Placed.push_back(X); }

void BoundsTracker::ejected(int X) { Ejected.push_back(X); }

long BoundsTracker::stopReach(int Y) const {
  if (!isPlaced(Y) || !MinDist.connected(Y, StopOp))
    return 0;
  return Times[static_cast<size_t>(Y)] + MinDist.at(Y, StopOp);
}

bool BoundsTracker::raiseStopCap(long EstartStop) {
  if (EstartStop <= LstartStop)
    return false;
  LstartStop = stopCapFor(EstartStop);
  return true;
}

void BoundsTracker::refresh() {
  // Reset rule for Lstart(Stop): only when Estart(Stop) over the placed
  // set is pushed beyond it (Section 4.2). Every op placed before the last
  // refresh reaches Stop by Lstart(Stop) already, so only the new
  // placements can push it. A new Lstart(Stop) changes every base.
  long EstartStop = 0;
  for (const int P : Placed)
    EstartStop = std::max(EstartStop, stopReach(P));
  if (raiseStopCap(EstartStop)) {
    recomputeUnplaced();
  } else {
    // An ejected op, and every unplaced op in its lists whose bound it
    // supplied, is evaluated afresh over the current placements.
    const auto Recompute = [this](int X) {
      if (!isPlaced(X))
        recompute(X);
    };
    for (const int E : Ejected) {
      Recompute(E);
      for (const ReachLists::Entry &S : Reach.succs(E))
        if (EstartFrom[static_cast<size_t>(S.Op)] == E)
          Recompute(S.Op);
      for (const ReachLists::Entry &P : Reach.preds(E))
        if (LstartFrom[static_cast<size_t>(P.Op)] == E)
          Recompute(P.Op);
    }

    // Every other unplaced op's suppliers are still placed where they
    // were, so its bounds over the old placed set hold over the
    // survivors; the new placements can only tighten them. A recomputed
    // op already counts every placement, so relaxing it changes nothing.
    for (const int P : Placed) {
      if (!isPlaced(P))
        continue;
      const long Tp = Times[static_cast<size_t>(P)];
      for (const ReachLists::Entry &S : Reach.succs(P)) {
        const size_t X = static_cast<size_t>(S.Op);
        if (!isPlaced(S.Op) && Tp + S.Dist > Estart[X]) {
          Estart[X] = Tp + S.Dist;
          EstartFrom[X] = P;
        }
      }
      for (const ReachLists::Entry &Pr : Reach.preds(P)) {
        const size_t X = static_cast<size_t>(Pr.Op);
        if (!isPlaced(Pr.Op) && Tp - Pr.Dist < Lstart[X]) {
          Lstart[X] = Tp - Pr.Dist;
          LstartFrom[X] = P;
        }
      }
    }
  }
  Ejected.clear();
  Placed.clear();
}

void BoundsTracker::recomputeUnplaced() {
  for (int X = 0; X < static_cast<int>(Times.size()); ++X)
    if (!isPlaced(X))
      recompute(X);
}

void BoundsTracker::recompute(int X) {
  long E = 0; // Start at cycle 0 reaches everything with MinDist >= 0
  int EFrom = -1;
  for (const ReachLists::Entry &P : Reach.preds(X)) {
    if (isPlaced(P.Op) && Times[static_cast<size_t>(P.Op)] + P.Dist > E) {
      E = Times[static_cast<size_t>(P.Op)] + P.Dist;
      EFrom = P.Op;
    }
  }
  long L = Unbounded;
  if (X == StopOp)
    L = LstartStop;
  else if (!isPlaced(StopOp) && MinDist.connected(X, StopOp))
    L = LstartStop - MinDist.at(X, StopOp);
  int LFrom = -1;
  for (const ReachLists::Entry &S : Reach.succs(X)) {
    if (isPlaced(S.Op) && Times[static_cast<size_t>(S.Op)] - S.Dist < L) {
      L = Times[static_cast<size_t>(S.Op)] - S.Dist;
      LFrom = S.Op;
    }
  }
  Estart[static_cast<size_t>(X)] = E;
  Lstart[static_cast<size_t>(X)] = L;
  EstartFrom[static_cast<size_t>(X)] = EFrom;
  LstartFrom[static_cast<size_t>(X)] = LFrom;
}
