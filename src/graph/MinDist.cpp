#include "graph/MinDist.h"

#include <algorithm>

using namespace lsms;

bool MinDistMatrix::compute(const DepGraph &Graph, int NewII) {
  N = Graph.numOps();
  II = NewII;
  const std::vector<DepArc> &Arcs = Graph.arcs();
  ArcW.resize(Arcs.size());
  for (size_t I = 0; I < Arcs.size(); ++I)
    ArcW[I] = static_cast<long>(Arcs[I].Latency) -
              static_cast<long>(II) * static_cast<long>(Arcs[I].Omega);

  const size_t NN = static_cast<size_t>(N);
  Matrix.assign(NN * NN, NoPath);

  // Phase 1: close every component. A path between two operations of one
  // SCC can never leave the SCC (each intermediate both reaches and is
  // reached by the endpoints), so max-plus Floyd-Warshall over the members
  // alone is the full intra-component closure. Positive cycles are
  // intra-SCC by definition, so this phase also owns the II < RecMII
  // rejection.
  for (int C = 0; C < Graph.numComponents(); ++C) {
    const std::span<const int> Members = Graph.members(C);
    const size_t SS = Members.size();
    if (SS == 1) {
      for (int I : Graph.intraArcs(C))
        if (ArcW[static_cast<size_t>(I)] > 0)
          return false; // positive self-arc cycle
      const size_t V = static_cast<size_t>(Members[0]);
      Matrix[V * NN + V] = 0;
      continue;
    }

    Local.assign(SS * SS, NoPath);
    for (int ArcIdx : Graph.intraArcs(C)) {
      const DepArc &Arc = Graph.arc(ArcIdx);
      long &Cell =
          Local[static_cast<size_t>(Graph.memberIndex(Arc.Src)) * SS +
                static_cast<size_t>(Graph.memberIndex(Arc.Dst))];
      Cell = std::max(Cell, ArcW[static_cast<size_t>(ArcIdx)]);
    }
    for (size_t X = 0; X < SS; ++X)
      Local[X * SS + X] = std::max(Local[X * SS + X], 0L);
    for (size_t K = 0; K < SS; ++K) {
      for (size_t X = 0; X < SS; ++X) {
        const long XK = Local[X * SS + K];
        if (XK == NoPath)
          continue;
        const long *RowK = &Local[K * SS];
        long *RowX = &Local[X * SS];
        for (size_t Y = 0; Y < SS; ++Y) {
          if (RowK[Y] == NoPath)
            continue;
          RowX[Y] = std::max(RowX[Y], XK + RowK[Y]);
        }
      }
    }
    for (size_t X = 0; X < SS; ++X)
      if (Local[X * SS + X] > 0)
        return false; // positive recurrence cycle: II < RecMII
    for (size_t X = 0; X < SS; ++X) {
      long *Row = &Matrix[static_cast<size_t>(Members[X]) * NN];
      for (size_t Y = 0; Y < SS; ++Y)
        Row[Members[Y]] = Local[X * SS + Y];
    }
  }

  // Phase 2: cross-component distances, one row at a time. Components are
  // numbered in reverse topological order (an arc between components goes
  // from the higher id to the lower), so scanning ids downward from the
  // source's component is one topological DAG pass: by the time component
  // C is reached, every row entry an arc entering C can extend is final.
  // A path into C enters it exactly once, so "best entry value per member,
  // then close through the intra-component matrix" is exact.
  for (int X = 0; X < N; ++X) {
    long *Row = &Matrix[static_cast<size_t>(X) * NN];
    for (int C = Graph.component(X) - 1; C >= 0; --C) {
      const std::span<const int> Members = Graph.members(C);
      const size_t SS = Members.size();
      Gather.assign(SS, NoPath);
      bool Any = false;
      for (int ArcIdx : Graph.enteringArcs(C)) {
        const DepArc &Arc = Graph.arc(ArcIdx);
        const long DX = Row[Arc.Src];
        if (DX == NoPath)
          continue;
        long &Cell = Gather[static_cast<size_t>(Graph.memberIndex(Arc.Dst))];
        Cell = std::max(Cell, DX + ArcW[static_cast<size_t>(ArcIdx)]);
        Any = true;
      }
      if (!Any)
        continue;
      if (SS == 1) {
        Row[Members[0]] = Gather[0];
        continue;
      }
      for (size_t E = 0; E < SS; ++E) {
        const long Entry = Gather[E];
        if (Entry == NoPath)
          continue;
        const long *Intra = &Matrix[static_cast<size_t>(Members[E]) * NN];
        for (const int GY : Members) {
          const long Closed = Intra[GY];
          if (Closed == NoPath)
            continue;
          Row[GY] = std::max(Row[GY], Entry + Closed);
        }
      }
    }
  }
  return true;
}

void MinDistMatrix::estarts(int StartOp, std::vector<long> &Out) const {
  Out.assign(static_cast<size_t>(N), 0);
  const long *Row = &Matrix[static_cast<size_t>(StartOp) *
                            static_cast<size_t>(N)];
  for (int X = 0; X < N; ++X) {
    const long D = Row[X];
    if (D != NoPath && D > 0)
      Out[static_cast<size_t>(X)] = D;
  }
}

void MinDistMatrix::lstarts(int StopOp, long Cap,
                            std::vector<long> &Out) const {
  Out.assign(static_cast<size_t>(N), Cap);
  for (int X = 0; X < N; ++X) {
    const long D = Matrix[static_cast<size_t>(X) * static_cast<size_t>(N) +
                          static_cast<size_t>(StopOp)];
    if (D != NoPath)
      Out[static_cast<size_t>(X)] = Cap - D;
  }
}

void ReachLists::build(const MinDistMatrix &MinDist) {
  const int N = MinDist.numOps();
  const size_t NN = static_cast<size_t>(N);
  SuccStart.assign(NN + 1, 0);
  PredStart.assign(NN + 1, 0);
  Succs.clear();
  // About one ordered pair in seven is connected over the paper's suite,
  // so room for a quarter of all pairs rarely needs a second allocation.
  Succs.reserve(NN * NN / 4 + NN);
  for (int X = 0; X < N; ++X) {
    for (int Y = 0; Y < N; ++Y) {
      if (Y == X || !MinDist.connected(X, Y))
        continue;
      Succs.push_back({Y, MinDist.at(X, Y)});
      ++PredStart[static_cast<size_t>(Y) + 1];
    }
    SuccStart[static_cast<size_t>(X) + 1] = Succs.size();
  }
  // PredStart[y] becomes y's first slot and serves as its fill cursor;
  // sources are visited in ascending order, so each pred list comes out
  // sorted. Each cursor ends at the next op's first slot, so shifting the
  // cursors up by one op restores the starts.
  for (size_t Y = 0; Y + 1 < NN; ++Y)
    PredStart[Y + 1] += PredStart[Y];
  Preds.resize(Succs.size());
  for (int X = 0; X < N; ++X)
    for (const Entry &E : succs(X))
      Preds[PredStart[static_cast<size_t>(E.Op)]++] = {X, E.Dist};
  std::copy_backward(PredStart.begin(), PredStart.end() - 1,
                     PredStart.end());
  PredStart[0] = 0;
}
