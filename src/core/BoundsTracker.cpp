#include "core/BoundsTracker.h"

#include <algorithm>

using namespace lsms;

BoundsTracker::BoundsTracker(const MinDistMatrix &MinDist, int StartOp,
                             int StopOp, int II, int ResMII, long StopPad,
                             const std::vector<int> &Times)
    : MinDist(MinDist), StartOp(StartOp), StopOp(StopOp), II(II),
      ResMII(ResMII), StopPad(StopPad), Times(Times) {}

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
  WasEjected.assign(N, 0);
  Placed.clear();
  Ejected.clear();
  LstartStop = stopCapFor(MinDist.at(StartOp, StopOp));
  long EstartStop = 0;
  for (int Y = 0; Y < static_cast<int>(N); ++Y)
    EstartStop = std::max(EstartStop, stopReach(Y));
  raiseStopCap(EstartStop);
  for (int X = 0; X < static_cast<int>(N); ++X)
    if (!isPlaced(X))
      recompute(X);
}

void BoundsTracker::placed(int X) { Placed.push_back(X); }

void BoundsTracker::ejected(int X) {
  Ejected.push_back(X);
  WasEjected[static_cast<size_t>(X)] = 1;
}

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
  const int N = static_cast<int>(Times.size());

  // Reset rule for Lstart(Stop): only when Estart(Stop) over the placed
  // set is pushed beyond it (Section 4.2). Every op placed before the last
  // refresh reaches Stop by Lstart(Stop) already, so only the new
  // placements can push it. A moved Stop or a new Lstart(Stop) changes
  // every Lstart base.
  long EstartStop = 0;
  for (const int P : Placed)
    EstartStop = std::max(EstartStop, stopReach(P));
  const bool Full =
      raiseStopCap(EstartStop) || WasEjected[static_cast<size_t>(StopOp)] ||
      std::find(Placed.begin(), Placed.end(), StopOp) != Placed.end();

  for (int X = 0; X < N; ++X) {
    if (isPlaced(X))
      continue;
    const int EFrom = EstartFrom[static_cast<size_t>(X)];
    const int LFrom = LstartFrom[static_cast<size_t>(X)];
    if (Full || WasEjected[static_cast<size_t>(X)] ||
        (EFrom >= 0 && WasEjected[static_cast<size_t>(EFrom)]) ||
        (LFrom >= 0 && WasEjected[static_cast<size_t>(LFrom)])) {
      recompute(X);
      continue;
    }
    // X's suppliers are all still placed where they were, so its bounds
    // over the old placed set hold over the survivors; the new
    // placements can only tighten them.
    for (const int P : Placed)
      if (isPlaced(P))
        relax(X, P);
  }

  for (const int E : Ejected)
    WasEjected[static_cast<size_t>(E)] = 0;
  Ejected.clear();
  Placed.clear();
}

void BoundsTracker::recompute(int X) {
  const int N = static_cast<int>(Times.size());
  long E = 0; // Start at cycle 0 reaches everything with MinDist >= 0
  int EFrom = -1;
  long L = Unbounded;
  if (X == StopOp)
    L = LstartStop;
  else if (!isPlaced(StopOp) && MinDist.connected(X, StopOp))
    L = LstartStop - MinDist.at(X, StopOp);
  int LFrom = -1;
  for (int Y = 0; Y < N; ++Y) {
    if (!isPlaced(Y))
      continue;
    const long Ty = Times[static_cast<size_t>(Y)];
    if (MinDist.connected(Y, X) && Ty + MinDist.at(Y, X) > E) {
      E = Ty + MinDist.at(Y, X);
      EFrom = Y;
    }
    if (MinDist.connected(X, Y) && Ty - MinDist.at(X, Y) < L) {
      L = Ty - MinDist.at(X, Y);
      LFrom = Y;
    }
  }
  Estart[static_cast<size_t>(X)] = E;
  Lstart[static_cast<size_t>(X)] = L;
  EstartFrom[static_cast<size_t>(X)] = EFrom;
  LstartFrom[static_cast<size_t>(X)] = LFrom;
}

void BoundsTracker::relax(int X, int P) {
  const long Tp = Times[static_cast<size_t>(P)];
  if (MinDist.connected(P, X) &&
      Tp + MinDist.at(P, X) > Estart[static_cast<size_t>(X)]) {
    Estart[static_cast<size_t>(X)] = Tp + MinDist.at(P, X);
    EstartFrom[static_cast<size_t>(X)] = P;
  }
  if (MinDist.connected(X, P) &&
      Tp - MinDist.at(X, P) < Lstart[static_cast<size_t>(X)]) {
    Lstart[static_cast<size_t>(X)] = Tp - MinDist.at(X, P);
    LstartFrom[static_cast<size_t>(X)] = P;
  }
}
