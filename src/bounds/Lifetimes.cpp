#include "bounds/Lifetimes.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace lsms;

PressureInfo lsms::computePressure(const LoopBody &Body,
                                   const std::vector<int> &Times, int II,
                                   RegClass Class) {
  assert(II > 0 && "bad initiation interval");
  assert(Times.size() == static_cast<size_t>(Body.numOps()) &&
         "times must cover every operation");

  PressureInfo Info;
  Info.Length.assign(static_cast<size_t>(Body.numValues()), 0);
  Info.LiveVector.assign(static_cast<size_t>(II), 0);

  // Gather latest-use end per value in one pass over use sites.
  std::vector<long> End(static_cast<size_t>(Body.numValues()), LONG_MIN);
  auto Record = [&](int ValueId, int UserOp, int Omega) {
    const Value &V = Body.value(ValueId);
    if (V.Class != Class)
      return;
    const long UseEnd = static_cast<long>(Times[static_cast<size_t>(UserOp)]) +
                        static_cast<long>(Omega) * II;
    End[static_cast<size_t>(ValueId)] =
        std::max(End[static_cast<size_t>(ValueId)], UseEnd);
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      Record(U.Value, Op.Id, U.Omega);
    if (Op.PredValue >= 0)
      Record(Op.PredValue, Op.Id, Op.PredOmega);
  }

  long TotalLength = 0;
  for (const Value &V : Body.Values) {
    if (V.Class != Class || End[static_cast<size_t>(V.Id)] == LONG_MIN)
      continue;
    const long DefTime = Times[static_cast<size_t>(V.Def)];
    const long Length = End[static_cast<size_t>(V.Id)] - DefTime;
    assert(Length >= 0 && "use precedes definition in schedule");
    Info.Length[static_cast<size_t>(V.Id)] = Length;
    TotalLength += Length;
    // Wrap the lifetime around the II columns (Figure 4).
    const long Whole = Length / II;
    const long Rem = Length % II;
    for (int C = 0; C < II; ++C)
      Info.LiveVector[static_cast<size_t>(C)] += Whole;
    for (long K = 0; K < Rem; ++K) {
      const long Col = (DefTime + K) % II;
      ++Info.LiveVector[static_cast<size_t>((Col + II) % II)];
    }
  }

  Info.MaxLive = 0;
  for (long L : Info.LiveVector)
    Info.MaxLive = std::max(Info.MaxLive, L);
  Info.AvgLive = static_cast<double>(TotalLength) / II;
  return Info;
}

long lsms::computeMaxLive(const LoopBody &Body,
                          const std::vector<int> &Times, int II,
                          RegClass Class, PressureScratch &Scratch) {
  assert(II > 0 && "bad initiation interval");
  assert(Times.size() == static_cast<size_t>(Body.numOps()) &&
         "times must cover every operation");

  std::vector<long> &End = Scratch.End;
  std::vector<long> &Live = Scratch.Live;
  End.assign(static_cast<size_t>(Body.numValues()), LONG_MIN);
  Live.assign(static_cast<size_t>(II), 0);

  auto Record = [&](int ValueId, int UserOp, int Omega) {
    if (Body.value(ValueId).Class != Class)
      return;
    const long UseEnd = static_cast<long>(Times[static_cast<size_t>(UserOp)]) +
                        static_cast<long>(Omega) * II;
    End[static_cast<size_t>(ValueId)] =
        std::max(End[static_cast<size_t>(ValueId)], UseEnd);
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      Record(U.Value, Op.Id, U.Omega);
    if (Op.PredValue >= 0)
      Record(Op.PredValue, Op.Id, Op.PredOmega);
  }

  long WholeSum = 0; // full-II wraps contribute to every column equally
  for (const Value &V : Body.Values) {
    if (V.Class != Class || End[static_cast<size_t>(V.Id)] == LONG_MIN)
      continue;
    const long DefTime = Times[static_cast<size_t>(V.Def)];
    const long Length = End[static_cast<size_t>(V.Id)] - DefTime;
    assert(Length >= 0 && "use precedes definition in schedule");
    WholeSum += Length / II;
    const long Rem = Length % II;
    for (long K = 0; K < Rem; ++K) {
      const long Col = (DefTime + K) % II;
      ++Live[static_cast<size_t>((Col + II) % II)];
    }
  }

  long MaxLive = 0;
  for (long L : Live)
    MaxLive = std::max(MaxLive, L);
  return MaxLive + WholeSum;
}

long lsms::computeMinLT(const DepGraph &Graph, const MinDistMatrix &MinDist,
                        int ValueId) {
  // Every flow arc of a value leaves its defining operation.
  const int Def = Graph.body().value(ValueId).Def;
  if (Def < 0)
    return 0;
  const long II = MinDist.initiationInterval();
  long MinLT = 0;
  for (const int ArcIdx : Graph.succArcs(Def)) {
    const DepArc &Arc = Graph.arc(ArcIdx);
    if (Arc.Kind != DepKind::Flow || Arc.Value != ValueId)
      continue;
    assert(MinDist.connected(Arc.Src, Arc.Dst) && "flow arc implies a path");
    MinLT = std::max(MinLT, static_cast<long>(Arc.Omega) * II +
                                MinDist.at(Arc.Src, Arc.Dst));
  }
  return MinLT;
}

long lsms::computeMinAvg(const DepGraph &Graph,
                         const MinDistMatrix &MinDist) {
  const long II = MinDist.initiationInterval();
  long MinLTSum = 0;
  for (const Value &V : Graph.body().Values) {
    if (V.Class != RegClass::RR)
      continue;
    MinLTSum += computeMinLT(Graph, MinDist, V.Id);
  }
  return (MinLTSum + II - 1) / II;
}

long lsms::computeMinAvgPerValueCeil(const DepGraph &Graph,
                                     const MinDistMatrix &MinDist) {
  const long II = MinDist.initiationInterval();
  long MinAvg = 0;
  for (const Value &V : Graph.body().Values) {
    if (V.Class != RegClass::RR)
      continue;
    const long MinLT = computeMinLT(Graph, MinDist, V.Id);
    MinAvg += (MinLT + II - 1) / II;
  }
  return MinAvg;
}

IssueWindows lsms::computeIssueWindows(const LoopBody &Body,
                                       const MinDistMatrix &MinDist) {
  assert(MinDist.initiationInterval() > 0 &&
         MinDist.numOps() == Body.numOps() &&
         "MinDist must hold the relation at the candidate II");
  IssueWindows W;
  const int Start = Body.startOp(), Stop = Body.stopOp();
  W.Cap = std::max(0L, MinDist.at(Start, Stop));
  MinDist.estarts(Start, W.Estart);
  MinDist.lstarts(Stop, W.Cap, W.Lstart);
  // Start is pinned at cycle 0, so a bound back into it caps the window
  // directly. (The IR never produces such arcs today; kept for soundness.)
  for (int X = 0; X < Body.numOps(); ++X)
    if (X != Start && MinDist.connected(X, Start))
      W.Lstart[static_cast<size_t>(X)] =
          std::min(W.Lstart[static_cast<size_t>(X)], -MinDist.at(X, Start));
  // Lstart >= Estart by the triangle inequality whenever a nonnegative-
  // time schedule exists at this II; an empty window simply yields an
  // empty family.
  return W;
}

int lsms::countGprs(const LoopBody &Body) {
  int Count = 0;
  for (const Value &V : Body.Values)
    if (V.Class == RegClass::GPR)
      ++Count;
  return Count;
}
