//===----------------------------------------------------------------------===//
///
/// \file
/// The minimum distance relation of Section 4.1: MinDist(x,y) is the
/// minimum number of cycles (possibly negative) by which x must precede y
/// in any feasible schedule at a given II, or -infinity when no dependence
/// path connects them. An all-pairs longest-paths problem over arc weights
/// latency - omega*II (all cycles non-positive once II >= RecMII).
///
/// compute() exploits the structure of dependence graphs: cycles live
/// entirely inside strongly connected components, so max-plus
/// Floyd-Warshall only runs inside each recurrence component and
/// cross-component distances propagate with a single topological-order
/// pass over the condensation DAG, which the DepGraph holds. The relation
/// depends on the graph and II alone: each compute() rebuilds it from its
/// arguments, and the matrix keeps nothing between calls but its buffers.
///
/// ReachLists holds the same relation sparsely, for one II: per operation,
/// the operations it reaches and those that reach it. Only a minority of
/// operation pairs are joined by any dependence path, and a scan that only
/// needs the connected ones walks a list instead of a matrix row.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_GRAPH_MINDIST_H
#define LSMS_GRAPH_MINDIST_H

#include "ir/DepGraph.h"

#include <climits>
#include <span>
#include <vector>

namespace lsms {

/// Dense MinDist matrix for one (graph, II) pair.
class MinDistMatrix {
public:
  /// Sentinel for "no path" (a very negative value safe to add once).
  static constexpr long NoPath = LONG_MIN / 4;

  /// Computes the relation; returns false (leaving the matrix unusable)
  /// when II admits a positive cycle, i.e. II < RecMII. SCC-decomposed.
  bool compute(const DepGraph &Graph, int II);

  int initiationInterval() const { return II; }
  int numOps() const { return N; }

  /// MinDist(x,y); NoPath when unconnected.
  long at(int X, int Y) const {
    return Matrix[static_cast<size_t>(X) * static_cast<size_t>(N) +
                  static_cast<size_t>(Y)];
  }

  /// True when a dependence path leads from x to y.
  bool connected(int X, int Y) const { return at(X, Y) != NoPath; }

  /// Static Estart of every operation in the empty schedule:
  /// MinDist(\p StartOp, x), clamped at 0 (Section 4.1). The out-parameter
  /// form reuses \p Out's storage; hot callers should hold one buffer and
  /// pass it to every query.
  void estarts(int StartOp, std::vector<long> &Out) const;

  /// Static Lstart of every operation when \p StopOp must issue no later
  /// than \p Cap: Cap - MinDist(x, StopOp); operations with no path to
  /// Stop get Cap itself.
  void lstarts(int StopOp, long Cap, std::vector<long> &Out) const;

private:
  int N = 0;
  int II = 0;
  std::vector<long> Matrix;

  // Scratch, rewritten by every compute().
  std::vector<long> ArcW;   ///< latency - II*omega, per arc id
  std::vector<long> Local;  ///< per-component Floyd-Warshall scratch
  std::vector<long> Gather; ///< per-component entry-value scratch
};

/// The connected pairs of one MinDistMatrix, as adjacency lists: for every
/// operation x, the operations y != x with a dependence path x -> y
/// (succs) and those with a path y -> x (preds), each in ascending id order
/// with MinDist(x,y) or MinDist(y,x) at the matrix's II. Whether a path
/// exists does not depend on II; the distances do.
class ReachLists {
public:
  struct Entry {
    int Op;
    long Dist;
  };

  /// Rebuilds the lists from \p MinDist: one pass over the matrix for the
  /// succs, one over the succs for the preds.
  void build(const MinDistMatrix &MinDist);

  /// Operations \p X reaches, with MinDist(X, y).
  std::span<const Entry> succs(int X) const {
    return {Succs.data() + SuccStart[static_cast<size_t>(X)],
            Succs.data() + SuccStart[static_cast<size_t>(X) + 1]};
  }
  /// Operations that reach \p X, with MinDist(y, X).
  std::span<const Entry> preds(int X) const {
    return {Preds.data() + PredStart[static_cast<size_t>(X)],
            Preds.data() + PredStart[static_cast<size_t>(X) + 1]};
  }

private:
  std::vector<size_t> SuccStart, PredStart; ///< CSR offsets per op
  std::vector<Entry> Succs, Preds;
};

} // namespace lsms

#endif // LSMS_GRAPH_MINDIST_H
