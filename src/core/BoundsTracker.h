//===----------------------------------------------------------------------===//
///
/// \file
/// Estart/Lstart maintenance for one scheduling attempt at a fixed II
/// (Sections 4.1, 4.2 and 4.4).
///
/// Over the set P of placed operations, an unplaced operation x has
///   Estart(x) = max(0, max over y in P of t_y + MinDist(y,x))
///   Lstart(x) = min(base(x), min over y in P of t_y - MinDist(x,y))
/// with base(Stop) = Lstart(Stop), base(x) = Lstart(Stop) - MinDist(x,Stop)
/// while Stop is unplaced and reachable from x, and unbounded otherwise.
/// Lstart(Stop) starts at the empty schedule's cap and is reset only when
/// Estart(Stop) over the placed set pushes past it.
///
/// Evaluating those formulas for every unplaced operation after every
/// central-loop step costs O(placed * unplaced) per step, the cost
/// Section 4.4 names. The tracker keeps them current incrementally, and
/// only ever visits operation pairs that a dependence path joins (the
/// attempt's ReachLists):
///  - placing p at cycle t relaxes the Estart of every unplaced operation
///    p reaches and the Lstart of every one that reaches p, and records p
///    as the supplier of each bound it tightens;
///  - ejecting p recomputes p and only those unplaced operations in its
///    lists whose Estart or Lstart p supplied;
///  - Stop moves are ordinary events. Placing Stop at t <= Lstart(Stop)
///    turns each base Lstart(Stop) - MinDist(x,Stop) into the no-larger
///    t - MinDist(x,Stop), which the relaxation applies (at t equal to
///    Lstart(Stop) the base stays the supplier, with the same value);
///    placing it later pushes Estart(Stop) past Lstart(Stop) and resets
///    it. Ejecting Stop restores bases no smaller than t - MinDist(x,Stop),
///    hence no smaller than any bound Stop did not supply;
///  - only the new placements can push Estart(Stop) past Lstart(Stop):
///    every earlier one reaches Stop by Lstart(Stop) already. A reset
///    changes every base and recomputes every unplaced operation.
///
/// A placed operation keeps the bounds it had when it was placed; the
/// Section 5.2 stretchability test reads Estart of placed definitions.
/// Events are buffered and applied by refresh(), so every bound the
/// scheduler reads between two refreshes is exactly what the formulas
/// gave at the first of them.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_CORE_BOUNDSTRACKER_H
#define LSMS_CORE_BOUNDSTRACKER_H

#include "graph/MinDist.h"

#include <climits>
#include <vector>

namespace lsms {

class BoundsTracker {
public:
  /// Lstart of an operation that no placed operation and no Stop bound
  /// constrain.
  static constexpr long Unbounded = LONG_MAX / 4;

  /// \p Reach lists the connected pairs of \p MinDist. \p Times is the
  /// attempt's placement vector (-1 when unplaced, Start held at 0); the
  /// tracker reads all three and must not outlive them. \p StopPad >= 0
  /// selects straight-line mode's Lstart(Stop) = Estart(Stop) + pad.
  BoundsTracker(const MinDistMatrix &MinDist, const ReachLists &Reach,
                int StartOp, int StopOp, int II, int ResMII, long StopPad,
                const std::vector<int> &Times);

  /// Sets Lstart(Stop) from the empty schedule and computes every
  /// unplaced operation's bounds from the current placements.
  void start();

  /// Records that \p X was just placed or ejected (Times already updated).
  /// The bounds catch up at the next refresh().
  void placed(int X);
  void ejected(int X);

  /// Applies the reset rule for Lstart(Stop) and brings every unplaced
  /// operation's bounds up to date with Times.
  void refresh();

  long estart(int X) const { return Estart[static_cast<size_t>(X)]; }
  long lstart(int X) const { return Lstart[static_cast<size_t>(X)]; }
  long lstartStop() const { return LstartStop; }

private:
  /// Lstart(Stop) for a given Estart(Stop) (Section 4.2): meet the
  /// critical path exactly when there is no resource contention,
  /// otherwise round up to a whole number of stages for extra slack and
  /// less backtracking; in straight-line mode, Estart(Stop) plus the pad.
  long stopCapFor(long EstartStop) const;
  bool isPlaced(int X) const { return Times[static_cast<size_t>(X)] >= 0; }
  /// t_y + MinDist(y,Stop) for placed \p Y connected to Stop, else 0.
  long stopReach(int Y) const;
  /// Applies the reset rule to \p EstartStop; true when Lstart(Stop)
  /// moved.
  bool raiseStopCap(long EstartStop);
  /// Evaluates \p X's bounds over its lists.
  void recompute(int X);
  void recomputeUnplaced();

  const MinDistMatrix &MinDist;
  const ReachLists &Reach;
  const int StartOp, StopOp, II, ResMII;
  const long StopPad;
  const std::vector<int> &Times;

  std::vector<long> Estart, Lstart;
  /// Placed operation whose placement sets each bound; -1 for the base.
  std::vector<int> EstartFrom, LstartFrom;
  long LstartStop = 0;

  /// Events since the last refresh, in order.
  std::vector<int> Placed;
  std::vector<int> Ejected;
};

} // namespace lsms

#endif // LSMS_CORE_BOUNDSTRACKER_H
