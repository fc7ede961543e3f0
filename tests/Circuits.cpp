#include "Circuits.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <set>
#include <span>

using namespace lsms;

namespace {

/// Johnson-style enumeration restricted to one SCC at a time.
class JohnsonEnumerator {
public:
  JohnsonEnumerator(const DepGraph &Graph, size_t MaxCircuits,
                    CircuitScan &Out)
      : Graph(Graph), MaxCircuits(MaxCircuits), Out(Out) {
    const int N = Graph.numOps();
    Blocked.assign(static_cast<size_t>(N), false);
    BlockMap.assign(static_cast<size_t>(N), {});
    InScope.assign(static_cast<size_t>(N), false);
  }

  void run() {
    // Self-loop circuits first (trivial recurrences; they matter for
    // RecMII even though they impose no scheduling constraint beyond it).
    for (const DepArc &Arc : Graph.arcs())
      if (Arc.Src == Arc.Dst)
        SelfLoopNodes.insert(Arc.Src);
    for (int Node : SelfLoopNodes) {
      if (Out.Circuits.size() >= MaxCircuits) {
        Out.Truncated = true;
        return;
      }
      emit({Node});
    }

    // Multi-node circuits, one SCC at a time.
    for (int Comp = 0; Comp < Graph.numComponents(); ++Comp) {
      const std::span<const int> Members = Graph.members(Comp);
      if (Members.size() < 2)
        continue;
      for (int Root : Members) {
        if (Out.Truncated)
          return;
        // Scope: members >= Root (Johnson's "least vertex" rule).
        for (int M : Members) {
          InScope[static_cast<size_t>(M)] = M >= Root;
          Blocked[static_cast<size_t>(M)] = false;
          BlockMap[static_cast<size_t>(M)].clear();
        }
        RootNode = Root;
        Path.clear();
        circuit(Root);
      }
    }
  }

private:
  bool circuit(int Node) {
    if (Out.Truncated)
      return true;
    bool Found = false;
    Path.push_back(Node);
    Blocked[static_cast<size_t>(Node)] = true;
    for (int ArcIdx : Graph.succArcs(Node)) {
      const DepArc &Arc = Graph.arc(ArcIdx);
      const int To = Arc.Dst;
      if (To == Node || !InScope[static_cast<size_t>(To)])
        continue;
      if (To == RootNode) {
        emit(Path);
        Found = true;
        if (Out.Circuits.size() >= MaxCircuits) {
          Out.Truncated = true;
          break;
        }
      } else if (!Blocked[static_cast<size_t>(To)]) {
        if (circuit(To))
          Found = true;
        if (Out.Truncated)
          break;
      }
    }
    if (Found) {
      unblock(Node);
    } else {
      for (int ArcIdx : Graph.succArcs(Node)) {
        const int To = Graph.arc(ArcIdx).Dst;
        if (To == Node || !InScope[static_cast<size_t>(To)])
          continue;
        auto &Map = BlockMap[static_cast<size_t>(To)];
        if (std::find(Map.begin(), Map.end(), Node) == Map.end())
          Map.push_back(Node);
      }
    }
    Path.pop_back();
    return Found;
  }

  void unblock(int Node) {
    Blocked[static_cast<size_t>(Node)] = false;
    auto Map = std::move(BlockMap[static_cast<size_t>(Node)]);
    BlockMap[static_cast<size_t>(Node)].clear();
    for (int Other : Map)
      if (Blocked[static_cast<size_t>(Other)])
        unblock(Other);
  }

  void emit(const std::vector<int> &Nodes) {
    Circuit C;
    C.Nodes = Nodes;
    const int II = circuitRecMII(Graph, Nodes);
    // Record the binding latency/omega at that II for reporting: choose
    // per-hop arcs maximizing latency - II*omega.
    int Lat = 0, Om = 0;
    const size_t N = Nodes.size();
    for (size_t I = 0; I < N; ++I) {
      const int From = Nodes[I];
      const int To = Nodes[(I + 1) % N];
      int BestLat = 0, BestOm = 0;
      long BestKey = LONG_MIN;
      for (int ArcIdx : Graph.succArcs(From)) {
        const DepArc &Arc = Graph.arc(ArcIdx);
        if (Arc.Dst != To)
          continue;
        if (N == 1 && Arc.Src != Arc.Dst)
          continue;
        const long Key =
            static_cast<long>(Arc.Latency) - static_cast<long>(II) * Arc.Omega;
        if (Key > BestKey) {
          BestKey = Key;
          BestLat = Arc.Latency;
          BestOm = Arc.Omega;
        }
      }
      Lat += BestLat;
      Om += BestOm;
    }
    C.Latency = Lat;
    C.Omega = Om;
    Out.Circuits.push_back(std::move(C));
  }

  const DepGraph &Graph;
  size_t MaxCircuits;
  CircuitScan &Out;
  std::vector<bool> Blocked;
  std::vector<std::vector<int>> BlockMap;
  std::vector<bool> InScope;
  std::set<int> SelfLoopNodes;
  std::vector<int> Path;
  int RootNode = -1;
};

} // namespace

CircuitScan lsms::findElementaryCircuits(const DepGraph &Graph,
                                         size_t MaxCircuits) {
  CircuitScan Scan;
  JohnsonEnumerator(Graph, MaxCircuits, Scan).run();
  return Scan;
}

int lsms::circuitRecMII(const DepGraph &Graph, const std::vector<int> &Nodes) {
  assert(!Nodes.empty() && "empty circuit");
  const size_t N = Nodes.size();
  // Feasibility of an II: sum over hops of max_arc(latency - II*omega) <= 0.
  auto Feasible = [&](long II) {
    long Total = 0;
    for (size_t I = 0; I < N; ++I) {
      const int From = Nodes[I];
      const int To = Nodes[(I + 1) % N];
      long Best = LONG_MIN;
      for (int ArcIdx : Graph.succArcs(From)) {
        const DepArc &Arc = Graph.arc(ArcIdx);
        if (Arc.Dst != To)
          continue;
        Best = std::max(Best, static_cast<long>(Arc.Latency) -
                                  II * static_cast<long>(Arc.Omega));
      }
      assert(Best != LONG_MIN && "circuit hop without an arc");
      Total += Best;
    }
    return Total <= 0;
  };

  long Lo = 0, Hi = 1;
  while (!Feasible(Hi))
    Hi *= 2;
  while (Lo < Hi) {
    const long Mid = Lo + (Hi - Lo) / 2;
    if (Feasible(Mid))
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return static_cast<int>(Lo);
}
