#include "ir/DepGraph.h"

#include <algorithm>

using namespace lsms;

namespace {

/// Counting sort of the ids 0 .. Count-1 into \p NumBuckets buckets by
/// \p BucketOf, in flat CSR form: bucket B is Items[Start[B] ..
/// Start[B + 1]). Ids stay ascending within each bucket.
template <typename BucketFn>
void countingSort(int Count, int NumBuckets, BucketFn BucketOf,
                  std::vector<int> &Start, std::vector<int> &Items) {
  Start.assign(static_cast<size_t>(NumBuckets) + 2, 0);
  for (int I = 0; I < Count; ++I)
    ++Start[static_cast<size_t>(BucketOf(I)) + 2];
  for (size_t B = 2; B < Start.size(); ++B)
    Start[B] += Start[B - 1];
  Items.resize(static_cast<size_t>(Count));
  // Start[B + 1] is bucket B's fill cursor; it ends at bucket B + 1's
  // first slot, which leaves Start[0 .. NumBuckets] as the offsets.
  for (int I = 0; I < Count; ++I)
    Items[static_cast<size_t>(
        Start[static_cast<size_t>(BucketOf(I)) + 1]++)] = I;
  Start.pop_back();
}

} // namespace

DepGraph::DepGraph(const LoopBody &Body, const MachineModel &Machine)
    : TheBody(Body), Machine(Machine) {
  const int N = Body.numOps();
  // At most a Start and a Stop arc per op, a flow arc per use, and the
  // memory and extra arcs.
  size_t MaxArcs = 2 * static_cast<size_t>(N) + Body.MemDeps.size();
  for (const Operation &Op : Body.Ops)
    MaxArcs += Op.Operands.size() + (Op.PredValue >= 0);
  Arcs.reserve(MaxArcs);

  const int Start = Body.startOp();
  const int Stop = Body.stopOp();

  // Start precedes everything; everything precedes Stop, arriving after its
  // own latency so that time(Stop) is the schedule length.
  for (const Operation &Op : Body.Ops) {
    if (Op.Id != Start)
      Arcs.push_back({Start, Op.Id, 0, 0, DepKind::Extra, -1});
    if (Op.Id != Stop)
      Arcs.push_back(
          {Op.Id, Stop, Machine.latency(Op.Opc), 0, DepKind::Extra, -1});
  }

  // Register flow dependences from operand and predicate uses. Loop
  // invariants (GPR) impose no scheduling constraint beyond the Start arc.
  for (const Operation &Op : Body.Ops) {
    auto AddFlow = [this, &Body, &Machine, &Op](const Use &U) {
      const Value &V = Body.value(U.Value);
      if (V.Class == RegClass::GPR)
        return;
      Arcs.push_back({V.Def, Op.Id, Machine.latency(Body.op(V.Def).Opc),
                      U.Omega, DepKind::Flow, U.Value});
    };
    for (const Use &U : Op.Operands)
      AddFlow(U);
    if (Op.PredValue >= 0)
      AddFlow(Use{Op.PredValue, Op.PredOmega});
  }

  // Memory and extra precedence arcs.
  for (const MemDep &D : Body.MemDeps)
    Arcs.push_back({D.Src, D.Dst, D.Latency, D.Omega, D.Kind, -1});

  // Each op's out-arcs and in-arcs, ascending ids.
  const int NumArcs = static_cast<int>(Arcs.size());
  countingSort(
      NumArcs, N, [this](int I) { return arc(I).Src; }, SuccStart, SuccArcs);
  countingSort(
      NumArcs, N, [this](int I) { return arc(I).Dst; }, PredStart, PredArcs);

  condense();
}

void DepGraph::condense() {
  // Tarjan's algorithm (iterative). Components are numbered as their roots
  // finish, which is reverse topological order of the condensation (Start
  // and Stop take part but never lie on a cycle).
  const int N = numOps();
  Comp.assign(static_cast<size_t>(N), -1);
  int NumComps = 0;

  std::vector<int> Index(static_cast<size_t>(N), -1);
  std::vector<int> LowLink(static_cast<size_t>(N), 0);
  std::vector<int> Stack; // visited ops not yet in a component
  int NextIndex = 0;

  struct Frame {
    int Node;
    size_t ArcPos;
  };
  std::vector<Frame> Dfs;

  for (int Root = 0; Root < N; ++Root) {
    if (Index[static_cast<size_t>(Root)] != -1)
      continue;
    Dfs.push_back({Root, 0});
    Index[static_cast<size_t>(Root)] = LowLink[static_cast<size_t>(Root)] =
        NextIndex++;
    Stack.push_back(Root);

    while (!Dfs.empty()) {
      Frame &F = Dfs.back();
      const std::span<const int> Succ = succArcs(F.Node);
      if (F.ArcPos < Succ.size()) {
        const int To = arc(Succ[F.ArcPos++]).Dst;
        if (Index[static_cast<size_t>(To)] == -1) {
          Index[static_cast<size_t>(To)] = LowLink[static_cast<size_t>(To)] =
              NextIndex++;
          Stack.push_back(To);
          Dfs.push_back({To, 0});
        } else if (Comp[static_cast<size_t>(To)] == -1) { // on the stack
          LowLink[static_cast<size_t>(F.Node)] =
              std::min(LowLink[static_cast<size_t>(F.Node)],
                       Index[static_cast<size_t>(To)]);
        }
        continue;
      }

      const int Node = F.Node;
      Dfs.pop_back();
      if (!Dfs.empty())
        LowLink[static_cast<size_t>(Dfs.back().Node)] =
            std::min(LowLink[static_cast<size_t>(Dfs.back().Node)],
                     LowLink[static_cast<size_t>(Node)]);

      if (LowLink[static_cast<size_t>(Node)] !=
          Index[static_cast<size_t>(Node)])
        continue;

      // Node is the root of a component: pop it off the stack.
      const int C = NumComps++;
      for (;;) {
        const int Member = Stack.back();
        Stack.pop_back();
        Comp[static_cast<size_t>(Member)] = C;
        if (Member == Node)
          break;
      }
    }
  }

  countingSort(
      N, NumComps, [this](int Op) { return component(Op); }, MemberStart,
      Members);
  MemberIndex.assign(static_cast<size_t>(N), 0);
  for (int C = 0; C < NumComps; ++C)
    for (size_t I = 0; I < members(C).size(); ++I)
      MemberIndex[static_cast<size_t>(members(C)[I])] = static_cast<int>(I);

  // Every arc lands in its destination component's buckets: the intra one
  // when it also starts there, else the entering one.
  countingSort(
      static_cast<int>(Arcs.size()), 2 * NumComps,
      [this](int I) {
        const int Dst = component(arc(I).Dst);
        return 2 * Dst + (component(arc(I).Src) != Dst);
      },
      ArcStart, CompArcs);
}
