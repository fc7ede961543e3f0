//===----------------------------------------------------------------------===//
///
/// \file
/// Elementary-circuit enumeration (Johnson's algorithm; the paper cites
/// Tiernan [21] for the same job). RecMII can be computed by scanning each
/// elementary recurrence circuit; although there can be exponentially many,
/// "most loop bodies have very few" (Section 3.1). The library computes
/// RecMII with the min cost-to-time ratio search (graph/MinRatioCycle.h);
/// this enumeration is the tests' independent reference for it.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_TESTS_CIRCUITS_H
#define LSMS_TESTS_CIRCUITS_H

#include "ir/DepGraph.h"

#include <vector>

namespace lsms {

/// An elementary circuit, as the ordered list of operations it visits
/// (each exactly once; Nodes.front() is the least-numbered member).
struct Circuit {
  std::vector<int> Nodes;
  /// Total latency and omega of the circuit when, at each hop, the arc that
  /// binds tightest for RecMII is chosen (see circuitRecMII).
  int Latency = 0;
  int Omega = 0;
};

/// Result of circuit enumeration.
struct CircuitScan {
  std::vector<Circuit> Circuits;
  /// True when enumeration stopped early because MaxCircuits was reached.
  bool Truncated = false;
};

/// Enumerates elementary circuits of the dependence graph (including
/// single-node self-loop circuits), visiting at most \p MaxCircuits.
CircuitScan findElementaryCircuits(const DepGraph &Graph,
                                   size_t MaxCircuits = 20000);

/// Minimum II imposed by one circuit: the smallest integer II such that,
/// for the best per-hop arc choice, total latency <= II * total omega.
int circuitRecMII(const DepGraph &Graph, const std::vector<int> &Nodes);

} // namespace lsms

#endif // LSMS_TESTS_CIRCUITS_H
