#include "graph/MinRatioCycle.h"

#include "graph/Scc.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

using namespace lsms;

namespace {

/// True when \p Arcs, the intra arcs of one strongly connected component
/// of \p Size operations, admit a positive cycle under the weights
/// latency - II*omega. Longest-path relaxation from every member at once
/// (\p Dist is indexed by op id): without a positive cycle it settles
/// within Size - 1 passes.
bool hasPositiveCycle(std::span<const DepArc> Arcs, int Size, long II,
                      std::vector<long> &Dist) {
  for (const DepArc &Arc : Arcs)
    Dist[static_cast<size_t>(Arc.Src)] = Dist[static_cast<size_t>(Arc.Dst)] =
        0;
  for (int Pass = 0; Pass < Size; ++Pass) {
    bool Changed = false;
    for (const DepArc &Arc : Arcs) {
      const long W = static_cast<long>(Arc.Latency) -
                     II * static_cast<long>(Arc.Omega);
      if (Dist[static_cast<size_t>(Arc.Src)] + W >
          Dist[static_cast<size_t>(Arc.Dst)]) {
        Dist[static_cast<size_t>(Arc.Dst)] =
            Dist[static_cast<size_t>(Arc.Src)] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

} // namespace

int lsms::computeRecMIIByRatio(const DepGraph &Graph) {
  const SccInfo Sccs = computeSccs(Graph);
  const size_t NumComps = static_cast<size_t>(Sccs.NumComponents);
  const auto CompOf = [&Sccs](int Op) {
    return Sccs.Component[static_cast<size_t>(Op)];
  };

  // Intra arcs grouped by component, in arc order.
  std::vector<size_t> Begin(NumComps + 1, 0);
  for (const DepArc &Arc : Graph.arcs())
    if (CompOf(Arc.Src) == CompOf(Arc.Dst))
      ++Begin[static_cast<size_t>(CompOf(Arc.Src)) + 1];
  for (size_t C = 0; C < NumComps; ++C)
    Begin[C + 1] += Begin[C];
  std::vector<DepArc> Intra(Begin.back());
  {
    std::vector<size_t> Fill(Begin.begin(), Begin.end() - 1);
    for (const DepArc &Arc : Graph.arcs())
      if (CompOf(Arc.Src) == CompOf(Arc.Dst))
        Intra[Fill[static_cast<size_t>(CompOf(Arc.Src))]++] = Arc;
  }

  std::vector<long> Dist(static_cast<size_t>(Graph.numOps()), 0);
  long Best = 0;
  for (size_t C = 0; C < NumComps; ++C) {
    const std::span<const DepArc> Arcs(Intra.data() + Begin[C],
                                       Intra.data() + Begin[C + 1]);
    const int Size = Sccs.Size[C];
    if (Arcs.empty() || !hasPositiveCycle(Arcs, Size, Best, Dist))
      continue;
    // The component's total latency is a safe upper bound on any of its
    // circuits' RecMII contribution (omegas are >= 1 on every cycle).
    long Hi = 1;
    for (const DepArc &Arc : Arcs)
      Hi += std::max(0, Arc.Latency);
    assert(!hasPositiveCycle(Arcs, Size, Hi, Dist) &&
           "graph has a zero-omega cycle");
    long Lo = Best + 1;
    while (Lo < Hi) {
      const long Mid = Lo + (Hi - Lo) / 2;
      if (hasPositiveCycle(Arcs, Size, Mid, Dist))
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    Best = Lo;
  }
  return static_cast<int>(Best);
}
