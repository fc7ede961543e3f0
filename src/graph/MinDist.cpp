#include "graph/MinDist.h"

#include <algorithm>
#include <cassert>

using namespace lsms;

void MinDistMatrix::buildStructure(const DepGraph &Graph) {
  N = Graph.numOps();
  const std::vector<DepArc> &Arcs = Graph.arcs();
  OmegaArcs.clear();
  for (size_t I = 0; I < Arcs.size(); ++I)
    if (Arcs[I].Omega > 0)
      OmegaArcs.push_back(static_cast<int>(I));

  // Components without intra omega arcs have II-independent local
  // closures; reserve a cache slot for every multi-op one so the ladder's
  // later rungs can skip their Floyd-Warshall entirely.
  const int NumComps = Graph.numComponents();
  BlockStart.assign(static_cast<size_t>(NumComps) + 1, 0);
  for (int C = 0; C < NumComps; ++C) {
    const size_t S = Graph.members(C).size();
    const bool OmegaFree = std::ranges::none_of(
        Graph.intraArcs(C), [&Graph](int A) { return Graph.arc(A).Omega > 0; });
    BlockStart[static_cast<size_t>(C) + 1] =
        BlockStart[static_cast<size_t>(C)] + (OmegaFree && S > 1 ? S * S : 0);
  }
  BlockCache.assign(BlockStart.back(), NoPath);
  BlocksValid = false;

  CachedGraph = &Graph;
  CachedNumArcs = Arcs.size();
  WeightsII = -1; // weights belong to the old graph
  MatrixII = -1;
}

void MinDistMatrix::refreshWeights(const DepGraph &Graph, int NewII) {
  const std::vector<DepArc> &Arcs = Graph.arcs();
  if (WeightsII < 0) {
    ArcW.assign(Arcs.size(), 0);
    for (size_t I = 0; I < Arcs.size(); ++I)
      ArcW[I] = static_cast<long>(Arcs[I].Latency) -
                static_cast<long>(NewII) * static_cast<long>(Arcs[I].Omega);
  } else if (WeightsII != NewII) {
    // Only omega-carrying arcs depend on II.
    for (int I : OmegaArcs) {
      const DepArc &Arc = Arcs[static_cast<size_t>(I)];
      ArcW[static_cast<size_t>(I)] =
          static_cast<long>(Arc.Latency) -
          static_cast<long>(NewII) * static_cast<long>(Arc.Omega);
    }
  }
  WeightsII = NewII;
}

bool MinDistMatrix::compute(const DepGraph &Graph, int NewII) {
  if (CachedGraph != &Graph || N != Graph.numOps() ||
      CachedNumArcs != Graph.arcs().size())
    buildStructure(Graph);

  // Ladder fast path: no omega arcs means no arc weight depends on II, so
  // a matrix already closed for this graph is the answer at every II.
  if (MatrixII >= 0 && OmegaArcs.empty()) {
    II = NewII;
    WeightsII = NewII;
    return true;
  }
  MatrixII = -1;

  refreshWeights(Graph, NewII);
  II = NewII;

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

    // Intra-omega-free components close to the same block at every II;
    // reuse the cached closure from an earlier rung when available. Such
    // a multi-op component is exactly one with a cache slot.
    const bool Cacheable = BlockStart[static_cast<size_t>(C) + 1] >
                           BlockStart[static_cast<size_t>(C)];
    if (Cacheable && BlocksValid) {
      const long *Block = &BlockCache[BlockStart[static_cast<size_t>(C)]];
      for (size_t X = 0; X < SS; ++X) {
        long *Row = &Matrix[static_cast<size_t>(Members[X]) * NN];
        for (size_t Y = 0; Y < SS; ++Y)
          Row[Members[Y]] = Block[X * SS + Y];
      }
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
    if (Cacheable)
      std::copy(Local.begin(), Local.end(),
                BlockCache.begin() +
                    static_cast<long>(BlockStart[static_cast<size_t>(C)]));
    for (size_t X = 0; X < SS; ++X) {
      long *Row = &Matrix[static_cast<size_t>(Members[X]) * NN];
      for (size_t Y = 0; Y < SS; ++Y)
        Row[Members[Y]] = Local[X * SS + Y];
    }
  }
  // Every intra-omega-free block is now closed and cached (either copied
  // from the cache or just stored into it); later rungs may reuse them.
  BlocksValid = true;

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
  MatrixII = NewII;
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
