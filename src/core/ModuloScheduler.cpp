#include "core/ModuloScheduler.h"

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "core/BoundsTracker.h"
#include "core/FuAssignment.h"
#include "graph/MinDist.h"
#include "machine/ModuloResourceTable.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <climits>
#include <vector>

using namespace lsms;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

constexpr int NeverPlaced = INT_MIN / 2;

/// Ejections allowed per II attempt, per operation (at least 8
/// operations' worth), before step 6 starts over at a larger II
/// (Section 4.4).
constexpr long EjectionBudgetPerOp = 16;

/// Machine operations grouped by the functional-unit instance they are
/// assigned to: the only operations that can hold each other's slots.
struct UnitInstances {
  std::vector<int> Of;                   ///< per op; -1 for pseudo-ops
  std::vector<std::vector<int>> Members; ///< per instance, ascending ids
};

UnitInstances groupByInstance(const LoopBody &Body,
                              const MachineModel &Machine,
                              const std::vector<int> &FuInstance) {
  std::array<int, NumFuKinds> First{};
  int Count = 0;
  for (unsigned K = 0; K < NumFuKinds; ++K) {
    First[K] = Count;
    Count += Machine.unitCount(static_cast<FuKind>(K));
  }
  UnitInstances Units;
  Units.Of.assign(static_cast<size_t>(Body.numOps()), -1);
  Units.Members.resize(static_cast<size_t>(Count));
  for (const Operation &Op : Body.Ops) {
    const FuKind Kind = Machine.unitFor(Op.Opc);
    if (Kind == FuKind::None)
      continue;
    const int Unit = First[static_cast<unsigned>(Kind)] +
                     FuInstance[static_cast<size_t>(Op.Id)];
    Units.Of[static_cast<size_t>(Op.Id)] = Unit;
    Units.Members[static_cast<size_t>(Unit)].push_back(Op.Id);
  }
  return Units;
}

/// One scheduling attempt at a fixed II.
class AttemptScheduler {
public:
  AttemptScheduler(const DepGraph &Graph, const SchedulerOptions &Options,
                   const MinDistMatrix &MinDist, const ReachLists &Reach,
                   int II, int ResMII, const std::vector<int> &FuInstance,
                   const UnitInstances &Units, ScheduleStats &Stats,
                   long StopPad = -1)
      : Graph(Graph), Body(Graph.body()), Machine(Graph.machine()),
        Options(Options), MinDist(MinDist), Reach(Reach), II(II),
        ResMII(ResMII), FuInstance(FuInstance), Units(Units), Stats(Stats),
        Mrt(Machine, II),
        Bounds(MinDist, Reach, Body.startOp(), Body.stopOp(), II, ResMII,
               StopPad, Times) {}

  /// Runs the central loop; on success fills \p Times.
  bool run(std::vector<int> &TimesOut);

private:
  // -- Step 1: operation choice (Section 4.3) ----------------------------
  int chooseOperation();

  // -- Step 2: issue-cycle search (Section 5.2) --------------------------
  bool placeEarlyHeuristic(int X) const;
  bool findIssueCycle(int X, long &CycleOut) const;

  // -- Step 3: forced placement with ejection (Section 4.4) --------------
  bool forcePlace(int X);

  // -- Placement bookkeeping ---------------------------------------------
  /// \p X's slack divided by 2^SlackShift[X], truncated toward zero as
  /// integer division truncates.
  long scaledSlack(int X) const;
  void place(int X, int Cycle);
  void eject(int Y);
  bool resourceConflict(int X, int CycleX, int Y, int CycleY) const;
  bool isPlaced(int X) const { return Times[static_cast<size_t>(X)] >= 0 ||
                                      X == Body.startOp(); }

  const DepGraph &Graph;
  const LoopBody &Body;
  const MachineModel &Machine;
  const SchedulerOptions &Options;
  const MinDistMatrix &MinDist;
  const ReachLists &Reach;
  const int II;
  const int ResMII;
  const std::vector<int> &FuInstance;
  const UnitInstances &Units;
  ScheduleStats &Stats;

  ModuloResourceTable Mrt;
  std::vector<int> Times;    ///< -1 when unplaced (Start held at 0)
  std::vector<int> LastTime; ///< last placement, NeverPlaced initially
  /// Estart/Lstart (Sections 4.1, 4.2), brought up to date after every
  /// central-loop step.
  BoundsTracker Bounds;
  std::vector<long> StaticPriority;
  /// Per op, for the choice of Section 4.3: 1 when RecurrencesFirst puts
  /// it after the recurrence ops, else 0; and how many times its slack is
  /// halved, once on a critical resource, once for a divider (halving
  /// twice with truncation is one division by 4).
  std::vector<char> Tier;
  std::vector<char> SlackShift;
  /// The unplaced operations other than Start, in no particular order,
  /// and each operation's position in that list (-1 when placed).
  std::vector<int> Unplaced;
  std::vector<int> UnplacedPos;
  std::vector<long> MinLT; ///< per value, at this II
  /// Per op: another operation reads its result (Section 5.2's outputs).
  std::vector<bool> ResultReadElsewhere;
  long EjectionsThisAttempt = 0;
};

bool AttemptScheduler::run(std::vector<int> &TimesOut) {
  const int N = Body.numOps();
  Times.assign(static_cast<size_t>(N), -1);
  LastTime.assign(static_cast<size_t>(N), NeverPlaced);

  const std::vector<bool> Critical = markCriticalOps(Body, Machine, II);
  Tier.assign(static_cast<size_t>(N), 0);
  SlackShift.assign(static_cast<size_t>(N), 0);
  for (int X = 0; X < N; ++X) {
    const size_t I = static_cast<size_t>(X);
    Tier[I] = Options.RecurrencesFirst && !Graph.onRecurrence(X);
    // Section 4.3: slack is halved on a critical resource (>= 0.90*II
    // usage) and halved again for a divider.
    if (ResMII > 1 && Critical[I])
      ++SlackShift[I];
    if (isDividerOp(Body.op(X).Opc))
      ++SlackShift[I];
  }

  MinLT.assign(static_cast<size_t>(Body.numValues()), 0);
  for (const Value &V : Body.Values)
    if (V.Class != RegClass::GPR)
      MinLT[static_cast<size_t>(V.Id)] = computeMinLT(Graph, MinDist, V.Id);

  // An op's result value names it as Def, so a read by any other op marks
  // the defining op.
  ResultReadElsewhere.assign(static_cast<size_t>(N), false);
  for (const Operation &Op : Body.Ops) {
    const auto Mark = [&](int ValueId) {
      const int Def = Body.value(ValueId).Def;
      if (Def >= 0 && Def != Op.Id)
        ResultReadElsewhere[static_cast<size_t>(Def)] = true;
    };
    for (const Use &U : Op.Operands)
      Mark(U.Value);
    if (Op.PredValue >= 0)
      Mark(Op.PredValue);
  }

  // Start is fixed at cycle 0 (Section 4.1); the tracker sets Lstart(Stop)
  // from the empty schedule (Section 4.2).
  Times[static_cast<size_t>(Body.startOp())] = 0;
  Unplaced.clear();
  UnplacedPos.assign(static_cast<size_t>(N), -1);
  for (int X = 0; X < N; ++X) {
    if (X == Body.startOp())
      continue;
    UnplacedPos[static_cast<size_t>(X)] = static_cast<int>(Unplaced.size());
    Unplaced.push_back(X);
  }
  Bounds.start();

  if (!Options.DynamicPriority) {
    // Cydrome's static priority: the operation's slack in the empty
    // schedule, with the same halving refinements.
    StaticPriority.assign(static_cast<size_t>(N), 0);
    for (int X = 0; X < N; ++X)
      StaticPriority[static_cast<size_t>(X)] = scaledSlack(X);
  }

  const long Budget = EjectionBudgetPerOp * std::max(N, 8);

  while (!Unplaced.empty()) {
    ++Stats.CentralLoopIterations;

    const int X = chooseOperation();
    assert(X >= 0 && "no unplaced operation found");

    long Cycle;
    if (findIssueCycle(X, Cycle)) {
      place(X, static_cast<int>(Cycle));
    } else {
      const auto T0 = Clock::now();
      ++Stats.ForcedPlacements;
      if (!forcePlace(X)) {
        Stats.SecondsBacktracking += secondsSince(T0);
        return false; // irreconcilable brtop conflict: try a larger II
      }
      Stats.SecondsBacktracking += secondsSince(T0);
      if (EjectionsThisAttempt > Budget)
        return false; // step 6: start over at a larger II
    }

    Bounds.refresh();
  }

  TimesOut = Times;
  TimesOut[static_cast<size_t>(Body.startOp())] = 0;
  return true;
}

long AttemptScheduler::scaledSlack(int X) const {
  const long Slack = Bounds.lstart(X) - Bounds.estart(X);
  const int Shift = SlackShift[static_cast<size_t>(X)];
  return Slack >= 0 ? Slack >> Shift : -((-Slack) >> Shift);
}

int AttemptScheduler::chooseOperation() {
  // The least (tier, priority, Lstart), ties to the smallest op id: what an
  // ascending scan keeping the first minimum finds.
  int Best = -1;
  long BestTier = LONG_MAX, BestPrio = LONG_MAX, BestLstart = LONG_MAX;
  for (const int X : Unplaced) {
    const long T = Tier[static_cast<size_t>(X)];
    const long L = Bounds.lstart(X);
    const long Prio = Options.DynamicPriority
                          ? scaledSlack(X)
                          : StaticPriority[static_cast<size_t>(X)];
    if (T != BestTier ? T < BestTier
        : Prio != BestPrio ? Prio < BestPrio
        : L != BestLstart ? L < BestLstart
                          : X < Best) {
      Best = X;
      BestTier = T;
      BestPrio = Prio;
      BestLstart = L;
    }
  }
  return Best;
}

bool AttemptScheduler::placeEarlyHeuristic(int X) const {
  if (!Options.Bidirectional)
    return true;

  const Operation &Op = Body.op(X);

  // Count stretchable inputs: RR flow operands, ignoring loop invariants,
  // duplicate inputs, and self-recurrences (Section 5.2). An input cannot
  // be stretched by this operation when some other use already pins the
  // lifetime at least as far: Estart(def) + MinLT(v) >= omega*II +
  // Lstart(x).
  int NumIn = 0;
  // Whether an operand before position \p Pos already reads \p ValueId;
  // the predicate counts as the position after the last operand.
  const auto ReadEarlier = [&Op](int ValueId, size_t Pos) {
    for (size_t I = 0; I < Pos; ++I)
      if (Op.Operands[I].Value == ValueId)
        return true;
    return false;
  };
  const auto CountInput = [&](const Use &U, size_t Pos) {
    const Value &V = Body.value(U.Value);
    if (V.Class != RegClass::RR || V.Def == X || ReadEarlier(U.Value, Pos))
      return;
    const long Pinned =
        Bounds.estart(V.Def) + MinLT[static_cast<size_t>(U.Value)];
    const long Reach = static_cast<long>(U.Omega) * II + Bounds.lstart(X);
    if (Pinned < Reach)
      ++NumIn;
  };
  for (size_t I = 0; I < Op.Operands.size(); ++I)
    CountInput(Op.Operands[I], I);
  if (Op.PredValue >= 0)
    CountInput(Use{Op.PredValue, Op.PredOmega}, Op.Operands.size());

  // Outputs: in SSA form, placing the operation early stretches its result
  // lifetime; a self-recurrence-only result has fixed length and does not
  // count.
  const int NumOut = Op.Result >= 0 &&
                             Body.value(Op.Result).Class == RegClass::RR &&
                             ResultReadElsewhere[static_cast<size_t>(X)]
                         ? 1
                         : 0;

  // No stretchable flow dependences either way: place early to minimize
  // the overall schedule length.
  if (NumIn == 0 && NumOut == 0)
    return true;
  if (NumIn != NumOut)
    return NumIn > NumOut;

  // Tie: place near whichever adjacent group (immediate predecessors or
  // successors) has the larger fraction already placed — it is less likely
  // to be ejected later.
  long PredPlaced = 0, PredTotal = 0, SuccPlaced = 0, SuccTotal = 0;
  for (int ArcIdx : Graph.predArcs(X)) {
    const int Y = Graph.arc(ArcIdx).Src;
    if (Y == X || Y == Body.startOp() || Y == Body.stopOp())
      continue;
    ++PredTotal;
    if (isPlaced(Y))
      ++PredPlaced;
  }
  for (int ArcIdx : Graph.succArcs(X)) {
    const int Y = Graph.arc(ArcIdx).Dst;
    if (Y == X || Y == Body.startOp() || Y == Body.stopOp())
      continue;
    ++SuccTotal;
    if (isPlaced(Y))
      ++SuccPlaced;
  }
  // Compare PredPlaced/PredTotal with SuccPlaced/SuccTotal; an empty group
  // counts as fraction zero.
  const long Lhs = PredPlaced * std::max(SuccTotal, 1L);
  const long Rhs = SuccPlaced * std::max(PredTotal, 1L);
  if (Lhs != Rhs)
    return Lhs > Rhs;

  // Final tie: early if and only if no predecessor or successor is placed.
  return PredPlaced + SuccPlaced == 0;
}

bool AttemptScheduler::findIssueCycle(int X, long &CycleOut) const {
  const long EstartX = Bounds.estart(X);
  const long LstartX = Bounds.lstart(X);
  if (EstartX > LstartX)
    return false;

  const Operation &Op = Body.op(X);
  const FuKind Kind = Machine.unitFor(Op.Opc);
  const int Instance = FuInstance[static_cast<size_t>(X)];

  // Due to the modulo constraint at most II consecutive cycles need to be
  // scanned, but the window must anchor at the end the heuristic favors:
  // [Estart, Estart+II-1] scanning up for an early placement,
  // [Lstart-II+1, Lstart] scanning down for a late one (Section 5.2).
  const bool Early = placeEarlyHeuristic(X);
  long Lo, Hi;
  if (Early) {
    Lo = EstartX;
    Hi = std::min(LstartX, EstartX + II - 1);
  } else {
    Hi = LstartX;
    Lo = std::max(EstartX, LstartX - II + 1);
  }
  for (long Step = 0; Step <= Hi - Lo; ++Step) {
    const long T = Early ? Lo + Step : Hi - Step;
    if (Mrt.canPlace(Op.Opc, Kind, Instance, static_cast<int>(T))) {
      CycleOut = T;
      return true;
    }
  }
  return false;
}

bool AttemptScheduler::forcePlace(int X) {
  const Operation &Op = Body.op(X);
  const FuKind Kind = Machine.unitFor(Op.Opc);
  const int Instance = FuInstance[static_cast<size_t>(X)];
  const int BrTop = Body.brTopOp();

  if (Machine.reservationCycles(Op.Opc) > II)
    return false; // can never hold this op at this II (non-pipelined)

  long F = std::max(Bounds.estart(X),
                    static_cast<long>(LastTime[static_cast<size_t>(X)]) + 1);

  // brtop cannot be ejected: search successive cycles until the forced slot
  // does not conflict with it (Section 4.4). All offsets repeat mod II.
  bool Ok = false;
  for (int Offset = 0; Offset < II; ++Offset) {
    const long Cand = F + Offset;
    const bool BrTopPlaced = BrTop >= 0 && isPlaced(BrTop) && BrTop != X;
    if (BrTopPlaced) {
      if (resourceConflict(X, static_cast<int>(Cand), BrTop,
                           Times[static_cast<size_t>(BrTop)]))
        continue;
      if (MinDist.connected(X, BrTop) &&
          Cand + MinDist.at(X, BrTop) > Times[static_cast<size_t>(BrTop)])
        continue;
    }
    F = Cand;
    Ok = true;
    break;
  }
  if (!Ok)
    return false;

  // Eject every placed operation that conflicts with x at cycle F, either
  // on resources or through the (transitive) dependence relation. Only the
  // ops on x's unit instance can hold its slots. A dependence can only be
  // violated by an op x reaches: F >= Estart(x), which is at least
  // t_y + MinDist(y,x) for every placed y that reaches x.
  const auto Ejectable = [&](int Y) {
    return isPlaced(Y) && Y != Body.startOp() && Y != BrTop && Y != X;
  };
  if (Units.Of[static_cast<size_t>(X)] >= 0)
    for (const int Y :
         Units.Members[static_cast<size_t>(Units.Of[static_cast<size_t>(X)])])
      if (Ejectable(Y) && resourceConflict(X, static_cast<int>(F), Y,
                                           Times[static_cast<size_t>(Y)]))
        eject(Y);
  for (const ReachLists::Entry &S : Reach.succs(X))
    if (Ejectable(S.Op) && F + S.Dist > Times[static_cast<size_t>(S.Op)])
      eject(S.Op);

  assert(Mrt.canPlace(Op.Opc, Kind, Instance, static_cast<int>(F)) &&
         "forced slot still blocked after ejection");
  (void)Kind;
  (void)Instance;
  place(X, static_cast<int>(F));
  return true;
}

bool AttemptScheduler::resourceConflict(int X, int CycleX, int Y,
                                        int CycleY) const {
  const int Unit = Units.Of[static_cast<size_t>(X)];
  return Unit >= 0 && Unit == Units.Of[static_cast<size_t>(Y)] &&
         moduloReservationsOverlap(
             II, CycleX, Machine.reservationCycles(Body.op(X).Opc), CycleY,
             Machine.reservationCycles(Body.op(Y).Opc));
}

void AttemptScheduler::place(int X, int Cycle) {
  const Operation &Op = Body.op(X);
  Mrt.place(Op.Opc, Machine.unitFor(Op.Opc),
            FuInstance[static_cast<size_t>(X)], Cycle);
  Times[static_cast<size_t>(X)] = Cycle;
  LastTime[static_cast<size_t>(X)] = Cycle;
  const int Pos = UnplacedPos[static_cast<size_t>(X)];
  const int Last = Unplaced.back();
  Unplaced[static_cast<size_t>(Pos)] = Last;
  UnplacedPos[static_cast<size_t>(Last)] = Pos;
  Unplaced.pop_back();
  UnplacedPos[static_cast<size_t>(X)] = -1;
  Bounds.placed(X);
  ++Stats.Placements;
}

void AttemptScheduler::eject(int Y) {
  const Operation &Op = Body.op(Y);
  Mrt.remove(Op.Opc, Machine.unitFor(Op.Opc),
             FuInstance[static_cast<size_t>(Y)],
             Times[static_cast<size_t>(Y)]);
  Times[static_cast<size_t>(Y)] = -1;
  UnplacedPos[static_cast<size_t>(Y)] = static_cast<int>(Unplaced.size());
  Unplaced.push_back(Y);
  Bounds.ejected(Y);
  ++EjectionsThisAttempt;
  ++Stats.Ejections;
  Stats.Backtracked = true;
}

} // namespace

Schedule lsms::scheduleLoop(const DepGraph &Graph,
                            const SchedulerOptions &Options) {
  const auto TotalT0 = Clock::now();
  Schedule Result;

  Result.ResMII = computeResMII(Graph.body(), Graph.machine());
  {
    const auto T0 = Clock::now();
    Result.RecMII = computeRecMII(Graph);
    Result.Stats.SecondsRecMII += secondsSince(T0);
  }
  Result.MII = std::max(Result.ResMII, Result.RecMII);

  const std::vector<int> FuInstance =
      assignFunctionalUnits(Graph.body(), Graph.machine());
  const UnitInstances Units =
      groupByInstance(Graph.body(), Graph.machine(), FuInstance);

  const int MaxII = Options.IICap.maxII(Result.MII);

  int II = Result.MII;
  long StopPad = Options.AcyclicPadStep > 0 ? 0 : -1;
  // The relation and its reach lists, once per II tried: straight-line
  // mode's retries at one II share them.
  MinDistMatrix MinDist;
  ReachLists Reach;
  const auto BuildRelation = [&]() {
    const auto T0 = Clock::now();
    const bool Valid = MinDist.compute(Graph, II);
    assert(Valid && "II below RecMII");
    (void)Valid;
    Reach.build(MinDist);
    Result.Stats.SecondsMinDist += secondsSince(T0);
  };
  BuildRelation();
  for (;;) {
    Result.II = II;
    ++Result.Stats.AttemptsTried;
    const long EjectionsBefore = Result.Stats.Ejections;

    AttemptScheduler Attempt(Graph, Options, MinDist, Reach, II,
                             Result.ResMII, FuInstance, Units, Result.Stats,
                             StopPad);
    if (Attempt.run(Result.Times)) {
      Result.Success = true;
      Result.Stats.EjectionsLastAttempt =
          Result.Stats.Ejections - EjectionsBefore;
      break;
    }

    ++Result.Stats.IIRestarts;
    if (Options.AcyclicPadStep > 0) {
      // Straight-line mode: growing II is meaningless for a basic block;
      // loosen the Lstart(Stop) cap instead.
      StopPad += Options.AcyclicPadStep;
      if (StopPad > 8L * II)
        break;
      continue;
    }
    const int Increment =
        std::max(II * Options.IIIncrementPct / 100, 1);
    II += Increment;
    if (II > MaxII)
      break; // report failure with the last II attempted
    BuildRelation();
  }

  Result.Stats.SecondsTotal += secondsSince(TotalT0);
  return Result;
}

Schedule lsms::scheduleLoop(const LoopBody &Body, const MachineModel &Machine,
                            const SchedulerOptions &Options) {
  const DepGraph Graph(Body, Machine);
  return scheduleLoop(Graph, Options);
}
