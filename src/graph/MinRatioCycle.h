//===----------------------------------------------------------------------===//
///
/// \file
/// RecMII via the minimum cost-to-time ratio cycle formulation (Section
/// 3.1, citing Lawler [11]): viewing each dependence arc as having cost
/// -latency and time omega, RecMII = ceil(-R) where R is the minimum ratio.
/// Implemented as an integer binary search on II with a positive-cycle test
/// (Bellman-Ford) at each step, which handles parallel arcs exactly and is
/// robust when circuit enumeration would blow up. Every circuit lies inside
/// one strongly connected component, so the test runs per component over
/// its intra arcs only, and a component is searched only when it has a
/// positive cycle at the largest bound the components before it gave.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_GRAPH_MINRATIOCYCLE_H
#define LSMS_GRAPH_MINRATIOCYCLE_H

#include "ir/DepGraph.h"

namespace lsms {

/// Returns the smallest II >= 0 such that no dependence circuit has total
/// latency exceeding II times its total omega. Asserts that the graph has
/// no zero-omega positive-latency cycle (the IR verifier guarantees this).
int computeRecMIIByRatio(const DepGraph &Graph);

} // namespace lsms

#endif // LSMS_GRAPH_MINRATIOCYCLE_H
