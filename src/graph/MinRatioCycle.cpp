#include "graph/MinRatioCycle.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

using namespace lsms;

namespace {

/// True when \p Arcs, the ids of the intra arcs of one strongly connected
/// component of \p Size operations, admit a positive cycle under the weights
/// latency - II*omega. Longest-path relaxation from every member at once
/// (\p Dist is indexed by op id): without a positive cycle it settles
/// within Size - 1 passes.
bool hasPositiveCycle(const DepGraph &Graph, std::span<const int> Arcs,
                      int Size, long II, std::vector<long> &Dist) {
  for (int I : Arcs)
    Dist[static_cast<size_t>(Graph.arc(I).Src)] =
        Dist[static_cast<size_t>(Graph.arc(I).Dst)] = 0;
  for (int Pass = 0; Pass < Size; ++Pass) {
    bool Changed = false;
    for (int I : Arcs) {
      const DepArc &Arc = Graph.arc(I);
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
  std::vector<long> Dist(static_cast<size_t>(Graph.numOps()), 0);
  long Best = 0;
  for (int C = 0; C < Graph.numComponents(); ++C) {
    const std::span<const int> Arcs = Graph.intraArcs(C);
    const int Size = static_cast<int>(Graph.members(C).size());
    if (Arcs.empty() || !hasPositiveCycle(Graph, Arcs, Size, Best, Dist))
      continue;
    // The component's total latency is a safe upper bound on any of its
    // circuits' RecMII contribution (omegas are >= 1 on every cycle).
    long Hi = 1;
    for (int I : Arcs)
      Hi += std::max(0, Graph.arc(I).Latency);
    assert(!hasPositiveCycle(Graph, Arcs, Size, Hi, Dist) &&
           "graph has a zero-omega cycle");
    long Lo = Best + 1;
    while (Lo < Hi) {
      const long Mid = Lo + (Hi - Lo) / 2;
      if (hasPositiveCycle(Graph, Arcs, Size, Mid, Dist))
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    Best = Lo;
  }
  return static_cast<int>(Best);
}
