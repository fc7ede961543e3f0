#include "sat/ResidueSpace.h"

#include <cassert>

using namespace lsms;

void lsms::placePseudoOps(const LoopBody &Body, const MinDistMatrix &MinDist,
                          const MachineOps &Ops, std::vector<int> &Times) {
  const int Start = Body.startOp();
  Times[static_cast<size_t>(Start)] = 0;
  for (int X = 0; X < Body.numOps(); ++X) {
    if (X == Start || Ops.Slot[static_cast<size_t>(X)] >= 0)
      continue;
    long TX = std::max(0L, MinDist.at(Start, X));
    for (const int Y : Ops.Real)
      if (MinDist.connected(Y, X))
        TX = std::max(TX, Times[static_cast<size_t>(Y)] + MinDist.at(Y, X));
    Times[static_cast<size_t>(X)] = static_cast<int>(TX);
  }
}

void TightenedClosure::load(const MinDistMatrix &Relation) {
  MinDist = &Relation;
  II = Relation.initiationInterval();
  R = Ops.Real.size();
  T.assign(R * R, MinDistMatrix::NoPath);
  for (size_t I = 0; I < R; ++I) {
    for (size_t J = 0; J < R; ++J)
      if (J != I && Relation.connected(Ops.Real[I], Ops.Real[J]))
        T[I * R + J] = tighten(Relation.at(Ops.Real[I], Ops.Real[J]),
                               Rho[J] - Rho[I], II);
    T[I * R + I] = 0;
  }
}

bool TightenedClosure::close() {
  for (size_t K = 0; K < R; ++K) {
    for (size_t I = 0; I < R; ++I) {
      const long IK = T[I * R + K];
      if (!isPath(IK))
        continue;
      for (size_t J = 0; J < R; ++J) {
        const long KJ = T[K * R + J];
        if (!isPath(KJ))
          continue;
        long &Cell = T[I * R + J];
        const long Via = satAdd(IK, KJ);
        if (Via > Cell)
          Cell = Via;
      }
    }
    for (size_t I = 0; I < R; ++I) {
      if (T[I * R + I] > 0) {
        CycleSlot = static_cast<int>(I);
        return false;
      }
    }
  }
  CycleSlot = -1;
  return true;
}

void TightenedClosure::decode(std::vector<int> &TimesOut) {
  const int Start = Body.startOp();
  std::vector<long> Base(R, 0); // tightened bound from Start per slot
  for (size_t I = 0; I < R; ++I)
    Base[I] = tighten(std::max(0L, MinDist->at(Start, Ops.Real[I])), Rho[I],
                      II);
  TimesOut.assign(static_cast<size_t>(Body.numOps()), 0);
  for (size_t J = 0; J < R; ++J) {
    long TJ = Base[J];
    for (size_t I = 0; I < R; ++I)
      if (isPath(T[I * R + J]))
        TJ = std::max(TJ, Base[I] + T[I * R + J]);
    assert(TJ % II == Rho[J] && "decoded time lost its residue");
    TimesOut[static_cast<size_t>(Ops.Real[J])] = static_cast<int>(TJ);
  }
  placePseudoOps(Body, *MinDist, Ops, TimesOut);
}
