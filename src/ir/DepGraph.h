//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence graph the scheduler works on: loop-body operations plus
/// arcs labeled with (latency, omega). Register flow dependences are derived
/// from operand lists (latency = producer latency); memory and extra arcs
/// come from the LoopBody; Start/Stop arcs make Estart/Lstart well defined
/// for every operation (Section 4.1).
///
/// The graph condenses itself once, on construction, into its strongly
/// connected components. Every circuit lies inside one component, so RecMII
/// (Section 3.1), the MinDist relation (Section 4.1) and the recurrence
/// ops of Section 4's priority rule all read the same condensation.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_IR_DEPGRAPH_H
#define LSMS_IR_DEPGRAPH_H

#include "ir/LoopBody.h"
#include "machine/MachineModel.h"

#include <span>
#include <vector>

namespace lsms {

/// One dependence arc: Dst must issue at least Latency cycles after Src's
/// instance Omega iterations earlier; i.e. in any schedule with initiation
/// interval II, time(Dst) >= time(Src) + Latency - Omega*II.
struct DepArc {
  int Src = -1;
  int Dst = -1;
  int Latency = 0;
  int Omega = 0;
  DepKind Kind = DepKind::Flow;
  int Value = -1; ///< carried value for register flow arcs, else -1
};

/// Immutable dependence graph over a LoopBody.
class DepGraph {
public:
  DepGraph(const LoopBody &Body, const MachineModel &Machine);

  const LoopBody &body() const { return TheBody; }
  const MachineModel &machine() const { return Machine; }

  int numOps() const { return static_cast<int>(SuccStart.size()) - 1; }
  const std::vector<DepArc> &arcs() const { return Arcs; }

  /// Ids of the arcs leaving \p Op, ascending.
  std::span<const int> succArcs(int Op) const {
    return bucket(SuccStart, SuccArcs, Op);
  }
  /// Ids of the arcs entering \p Op, ascending.
  std::span<const int> predArcs(int Op) const {
    return bucket(PredStart, PredArcs, Op);
  }

  const DepArc &arc(int Index) const {
    return Arcs[static_cast<size_t>(Index)];
  }

  /// Latency of the operation's result (0 for pseudo-ops).
  int latency(int Op) const {
    return Machine.latency(TheBody.op(Op).Opc);
  }

  // -- Strongly connected components. They are numbered in reverse
  // topological order of the condensation: an arc between two components
  // goes from the higher id to the lower.

  int numComponents() const {
    return static_cast<int>(MemberStart.size()) - 1;
  }
  /// Component id of \p Op.
  int component(int Op) const { return Comp[static_cast<size_t>(Op)]; }
  /// Operations of component \p C, ascending ids.
  std::span<const int> members(int C) const {
    return bucket(MemberStart, Members, C);
  }
  /// Position of \p Op within members(component(Op)).
  int memberIndex(int Op) const {
    return MemberIndex[static_cast<size_t>(Op)];
  }
  /// Ids of the arcs with both endpoints in component \p C, ascending.
  std::span<const int> intraArcs(int C) const {
    return bucket(ArcStart, CompArcs, 2 * C);
  }
  /// Ids of the arcs entering component \p C from another component,
  /// ascending.
  std::span<const int> enteringArcs(int C) const {
    return bucket(ArcStart, CompArcs, 2 * C + 1);
  }
  /// True when \p Op lies on a non-trivial recurrence circuit: its
  /// component has two or more operations (a dependence arc from an
  /// operation to itself is a trivial circuit, Section 4).
  bool onRecurrence(int Op) const { return members(component(Op)).size() > 1; }

private:
  void condense();

  static std::span<const int> bucket(const std::vector<int> &Start,
                                     const std::vector<int> &Items, int C) {
    return {Items.data() + Start[static_cast<size_t>(C)],
            Items.data() + Start[static_cast<size_t>(C) + 1]};
  }

  const LoopBody &TheBody;
  const MachineModel &Machine;
  std::vector<DepArc> Arcs;

  // Adjacency and the condensation, as flat CSR buckets: Start[B] ..
  // Start[B + 1] delimits bucket B. Op X's out-arcs are bucket X of
  // SuccArcs and its in-arcs bucket X of PredArcs. Component C's members
  // are bucket C of Members; its intra arcs bucket 2C and its entering
  // arcs bucket 2C + 1 of CompArcs.
  std::vector<int> SuccStart, SuccArcs;
  std::vector<int> PredStart, PredArcs;
  std::vector<int> Comp;        ///< component id per op
  std::vector<int> MemberIndex; ///< position of each op in its bucket
  std::vector<int> MemberStart, Members;
  std::vector<int> ArcStart, CompArcs;
};

} // namespace lsms

#endif // LSMS_IR_DEPGRAPH_H
