#include "exact/BranchAndBound.h"

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "machine/ModuloResourceTable.h"
#include "sat/ResidueSpace.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <tuple>

using namespace lsms;

namespace {

constexpr long NoPath = MinDistMatrix::NoPath;

/// Branch-and-bound search over issue-cycle residues at a fixed II.
///
/// State per search node: residues of the placed prefix, the modulo
/// resource table, and the matrix T of longest tightened-constraint paths
/// between placed operations (time-valued; transitively closed). Placing
/// an operation is feasible iff its residue finds a free resource slot and
/// the tightened constraint graph stays free of positive cycles — the
/// exact condition for integer issue times with those residues to exist.
/// Start participates as a pre-placed operation at residue 0, so T(Start,x)
/// is the canonical earliest issue time of x, used both for candidate
/// ordering and to materialize the schedule at leaves.
class ExactSolver {
public:
  ExactSolver(const DepGraph &Graph, const MinDistMatrix &MinDist,
              const std::vector<int> &FuInstance, long NodeBudget,
              const std::atomic<bool> *Stop)
      : Graph(Graph), Body(Graph.body()), Machine(Graph.machine()),
        MinDist(MinDist), FuInstance(FuInstance), NodeBudget(NodeBudget),
        Stop(Stop), II(MinDist.initiationInterval()), N(Body.numOps()),
        Ops(Body, Machine), Mrt(Machine, II) {}

  /// Decides schedulability; fills \p TimesOut on success.
  ExactStatus solve(std::vector<int> &TimesOut, long &Nodes);

  /// Minimizes MaxLive at this II, seeded with the legal schedule in
  /// \p TimesInOut. Returns Optimal when the search space was exhausted
  /// (or the MinAvg bound was met), Timeout when the node budget ran out
  /// first; \p TimesInOut and \p MaxLiveInOut hold the best found either
  /// way. \p FamilyCertified reports minimality over the issue-time
  /// family (see minimizeMaxLiveBranchAndBound).
  ExactStatus minimize(std::vector<int> &TimesInOut, long &MaxLiveInOut,
                       long &Nodes, bool &FamilyCertified);

private:
  enum class Mode : uint8_t { Feasibility, Pressure };

  void buildOrder(Mode M);
  bool dfs(size_t Depth);
  bool tryPlace(int V, int Rho, size_t Depth);
  void leafTimes(const std::vector<long> &T, std::vector<int> &TimesOut) const;
  long pressureLowerBound(const std::vector<long> &T) const;
  void familyDfs(size_t Idx, const std::vector<long> &T);
  void evaluateFamilyMember();
  long offerIncumbent(const std::vector<int> &Times);

  const DepGraph &Graph;
  const LoopBody &Body;
  const MachineModel &Machine;
  const MinDistMatrix &MinDist;
  const std::vector<int> &FuInstance;
  const long NodeBudget;
  const std::atomic<bool> *Stop; ///< cooperative cancellation, may be null
  const int II;
  const int N;
  const MachineOps Ops; ///< real ops ascending: family branch order

  ModuloResourceTable Mrt;
  Mode SearchMode = Mode::Feasibility;
  std::vector<long> EstartBuf, LstartBuf; ///< static-window scratch
  std::vector<int> Order;     ///< real operations, in branch order
  std::vector<int> Rho;       ///< residue per op; -1 unplaced
  std::vector<int> Placed;    ///< Start + placed prefix
  std::vector<std::vector<long>> TStack; ///< T matrix per depth
  long NodesUsed = 0;
  bool TimedOut = false;

  // Pressure mode state.
  bool StopSearch = false;
  long BestMaxLive = LONG_MAX;
  long GlobalMinAvg = 0;
  std::vector<int> BestTimes;
  std::vector<int> FoundTimes; ///< feasibility-mode result
  /// Flow-arc indices per RR value, for the MinAvg-style bound.
  std::vector<std::vector<int>> FlowArcsOf;
  /// Best pressure over issue-time-family members (LONG_MAX when no
  /// member was evaluated). BestMaxLive can beat it only through an
  /// incumbent or canonical leaf issuing past the canonical makespan.
  long FamilyBest = LONG_MAX;
  std::vector<long> FamTime;   ///< per-op issue time of the member prefix
  std::vector<int> MemberBuf;  ///< materialized member, pseudo-ops derived
  std::vector<int> LeafBuf;    ///< pressure-leaf canonical times scratch
  PressureScratch Pressure;    ///< computeMaxLive buffers, reused per leaf
  // tryPlace scratch: all uses finish before the recursive dfs call, so
  // one set of buffers serves every depth.
  std::vector<long> InBuf, OutBuf, ABuf, BBuf;

  /// True when every real op of \p Times issues inside its static
  /// [Estart, Lstart] window (canonical leaf times never precede Estart).
  bool inWindows(const std::vector<int> &Times) const {
    for (const int X : Ops.Real)
      if (Times[static_cast<size_t>(X)] < EstartBuf[static_cast<size_t>(X)] ||
          Times[static_cast<size_t>(X)] > LstartBuf[static_cast<size_t>(X)])
        return false;
    return true;
  }

  /// True once the external stop token fires; folded into TimedOut so
  /// both report the budget-style "no claim" verdict.
  bool stopRequested() {
    if (Stop && Stop->load(std::memory_order_relaxed)) {
      TimedOut = true;
      return true;
    }
    return false;
  }
};

void ExactSolver::buildOrder(Mode M) {
  SearchMode = M;
  Order = Ops.Real;

  // Static windows at this II: slack against the critical path. Most
  // constrained first keeps the tree narrow near the root. The shared
  // computeIssueWindows definition is what makes the family evaluated
  // here the same space the SAT certification path encodes.
  const int Start = Body.startOp();
  IssueWindows Windows = computeIssueWindows(Body, MinDist);
  EstartBuf = std::move(Windows.Estart);
  LstartBuf = std::move(Windows.Lstart);
  const std::vector<long> &Estart = EstartBuf;
  const std::vector<long> &Lstart = LstartBuf;
  std::vector<long> Slack(static_cast<size_t>(N), 0);
  std::vector<long> LifeLB(static_cast<size_t>(N), 0);
  for (int X : Order) {
    Slack[static_cast<size_t>(X)] =
        Lstart[static_cast<size_t>(X)] - Estart[static_cast<size_t>(X)];
    const int Result = Body.op(X).Result;
    if (M == Mode::Pressure && Result >= 0 &&
        Body.value(Result).Class == RegClass::RR)
      LifeLB[static_cast<size_t>(X)] = computeMinLT(Graph, MinDist, Result);
  }
  std::sort(Order.begin(), Order.end(), [&](int A, int B) {
    // Pressure mode branches in order of lifetime contribution so the
    // MinAvg-style bound bites early; feasibility mode by tightness alone.
    return std::make_tuple(-LifeLB[static_cast<size_t>(A)],
                           Slack[static_cast<size_t>(A)], A) <
           std::make_tuple(-LifeLB[static_cast<size_t>(B)],
                           Slack[static_cast<size_t>(B)], B);
  });

  Rho.assign(static_cast<size_t>(N), -1);
  Rho[static_cast<size_t>(Start)] = 0;
  Placed.assign(1, Start);
  Mrt.clear();
  TStack.assign(Order.size() + 1,
                std::vector<long>(static_cast<size_t>(N) *
                                      static_cast<size_t>(N),
                                  NoPath));
  TStack[0][static_cast<size_t>(Start) * N + Start] = 0;
  NodesUsed = 0;
  TimedOut = false;
  StopSearch = false;

  if (M == Mode::Pressure) {
    FlowArcsOf.assign(static_cast<size_t>(Body.numValues()), {});
    const auto &Arcs = Graph.arcs();
    for (int I = 0; I < static_cast<int>(Arcs.size()); ++I) {
      const DepArc &Arc = Arcs[static_cast<size_t>(I)];
      if (Arc.Kind == DepKind::Flow && Arc.Value >= 0 &&
          Body.value(Arc.Value).Class == RegClass::RR)
        FlowArcsOf[static_cast<size_t>(Arc.Value)].push_back(I);
    }
    GlobalMinAvg = computeMinAvg(Graph, MinDist);
    FamTime.assign(static_cast<size_t>(N), 0);
    FamilyBest = LONG_MAX;
  }
}

/// Canonical earliest issue times of a complete residue assignment:
/// placed operations at their longest tightened path from Start, the
/// pseudo-operations by placePseudoOps.
void ExactSolver::leafTimes(const std::vector<long> &T,
                            std::vector<int> &TimesOut) const {
  TimesOut.assign(static_cast<size_t>(N), 0);
  for (const int X : Ops.Real) {
    const long TX = T[static_cast<size_t>(Body.startOp()) * N + X];
    assert(isPath(TX) && TX >= 0 && "placed op unreachable from Start");
    TimesOut[static_cast<size_t>(X)] = static_cast<int>(TX);
  }
  placePseudoOps(Body, MinDist, Ops, TimesOut);
}

/// ceil(sum of per-value lifetime lower bounds / II) — the paper's MinAvg
/// bound, sharpened for placed def/use pairs by the tightened path matrix.
long ExactSolver::pressureLowerBound(const std::vector<long> &T) const {
  long Sum = 0;
  for (const Value &V : Body.Values) {
    if (V.Class != RegClass::RR ||
        FlowArcsOf[static_cast<size_t>(V.Id)].empty())
      continue;
    long LT = 0;
    for (int ArcIdx : FlowArcsOf[static_cast<size_t>(V.Id)]) {
      const DepArc &Arc = Graph.arc(ArcIdx);
      long Dist = MinDist.at(Arc.Src, Arc.Dst);
      if (Rho[static_cast<size_t>(Arc.Src)] >= 0 &&
          Rho[static_cast<size_t>(Arc.Dst)] >= 0) {
        const long Closed = T[static_cast<size_t>(Arc.Src) * N + Arc.Dst];
        if (isPath(Closed))
          Dist = std::max(Dist, Closed);
      }
      LT = std::max(LT, static_cast<long>(Arc.Omega) * II + Dist);
    }
    Sum += LT;
  }
  return (Sum + II - 1) / II;
}

/// Enumerates the leaf family over Ops.Real[Idx..]: candidate times for an
/// op are its canonical leaf time (pre-loaded in FamTime) plus multiples
/// of II up to its static Lstart, checked pairwise against the assigned
/// prefix through the closed tightened matrix \p T — which carries
/// exactly the constraints this residue class implies, so no member is
/// excluded and every complete assignment is dependence-feasible (shifts
/// by II preserve residues, so the resource table stays satisfied too).
/// Every candidate time costs one node from the shared budget.
void ExactSolver::familyDfs(size_t Idx, const std::vector<long> &T) {
  if (TimedOut || StopSearch || stopRequested())
    return;
  if (Idx == Ops.Real.size()) {
    evaluateFamilyMember();
    return;
  }
  const int X = Ops.Real[Idx];
  const long Base = FamTime[static_cast<size_t>(X)];
  for (long TX = Base; TX <= LstartBuf[static_cast<size_t>(X)]; TX += II) {
    if (TimedOut || StopSearch)
      break;
    if (++NodesUsed > NodeBudget) {
      TimedOut = true;
      break;
    }
    // Pairwise screen against the assigned prefix. A "too late" violation
    // (some earlier op forces X at or before an already-passed time) only
    // worsens as TX grows, so it ends this level; a "too early" one is
    // cured by a later candidate.
    bool TooLate = false, TooEarly = false;
    for (size_t J = 0; J < Idx && !TooLate && !TooEarly; ++J) {
      const int Y = Ops.Real[J];
      const long TY = FamTime[static_cast<size_t>(Y)];
      const long XY = T[static_cast<size_t>(X) * N + Y];
      const long YX = T[static_cast<size_t>(Y) * N + X];
      if (isPath(XY) && TY - TX < XY)
        TooLate = true;
      else if (isPath(YX) && TX - TY < YX)
        TooEarly = true;
    }
    if (TooLate)
      break;
    if (TooEarly)
      continue;
    FamTime[static_cast<size_t>(X)] = TX;
    familyDfs(Idx + 1, T);
  }
  FamTime[static_cast<size_t>(X)] = Base; // restore for sibling branches
}

/// Scores one complete family member: pseudo-operations are re-derived by
/// placePseudoOps from the shifted real ops (they carry no operands, so
/// they cannot change RR pressure), then the member competes for both the
/// incumbent and the family minimum.
void ExactSolver::evaluateFamilyMember() {
  MemberBuf.assign(static_cast<size_t>(N), 0);
  for (const int X : Ops.Real)
    MemberBuf[static_cast<size_t>(X)] =
        static_cast<int>(FamTime[static_cast<size_t>(X)]);
  placePseudoOps(Body, MinDist, Ops, MemberBuf);
  FamilyBest = std::min(FamilyBest, offerIncumbent(MemberBuf));
}

/// Scores a complete schedule and keeps it when it beats the incumbent.
/// Returns its MaxLive.
long ExactSolver::offerIncumbent(const std::vector<int> &Times) {
  const long MaxLive = computeMaxLive(Body, Times, II, RegClass::RR, Pressure);
  if (MaxLive < BestMaxLive) {
    BestMaxLive = MaxLive;
    BestTimes = Times;
    if (BestMaxLive <= GlobalMinAvg)
      StopSearch = true; // met the paper's lower bound: proven optimal
  }
  return MaxLive;
}

bool ExactSolver::tryPlace(int V, int Rho_, size_t Depth) {
  const std::vector<long> &T = TStack[Depth];
  std::vector<long> &TN = TStack[Depth + 1];

  // Incremental feasibility: direct tightened constraints between V and
  // every placed op, closed through the existing matrix. A positive cycle
  // (necessarily a multiple of II) means no integer times realize these
  // residues.
  std::vector<long> &In = InBuf, &Out = OutBuf, &A = ABuf, &B = BBuf;
  In.assign(static_cast<size_t>(N), NoPath);
  Out.assign(static_cast<size_t>(N), NoPath);
  A.assign(static_cast<size_t>(N), NoPath);
  B.assign(static_cast<size_t>(N), NoPath);
  for (int X : Placed) {
    if (MinDist.connected(X, V))
      A[static_cast<size_t>(X)] =
          tighten(MinDist.at(X, V),
                  Rho_ - Rho[static_cast<size_t>(X)], II);
    if (MinDist.connected(V, X))
      B[static_cast<size_t>(X)] =
          tighten(MinDist.at(V, X),
                  Rho[static_cast<size_t>(X)] - Rho_, II);
  }
  for (int X : Placed) {
    long InX = A[static_cast<size_t>(X)];
    long OutX = B[static_cast<size_t>(X)];
    for (int W : Placed) {
      const long XW = T[static_cast<size_t>(X) * N + W];
      const long WX = T[static_cast<size_t>(W) * N + X];
      if (isPath(XW) && isPath(A[static_cast<size_t>(W)]))
        InX = std::max(InX, XW + A[static_cast<size_t>(W)]);
      if (isPath(WX) && isPath(B[static_cast<size_t>(W)]))
        OutX = std::max(OutX, B[static_cast<size_t>(W)] + WX);
    }
    In[static_cast<size_t>(X)] = InX;
    Out[static_cast<size_t>(X)] = OutX;
    if (isPath(InX) && isPath(OutX) && InX + OutX > 0)
      return false; // positive cycle through V
  }

  // Commit: vertex-incremental transitive closure.
  TN = T;
  for (int X : Placed) {
    const long InX = In[static_cast<size_t>(X)];
    TN[static_cast<size_t>(X) * N + V] = InX;
    TN[static_cast<size_t>(V) * N + X] = Out[static_cast<size_t>(X)];
    if (!isPath(InX))
      continue;
    for (int Y : Placed) {
      const long OutY = Out[static_cast<size_t>(Y)];
      if (!isPath(OutY))
        continue;
      long &Cell = TN[static_cast<size_t>(X) * N + Y];
      Cell = std::max(Cell, InX + OutY);
    }
  }
  TN[static_cast<size_t>(V) * N + V] = 0;

  const Operation &Op = Body.op(V);
  Mrt.place(Op.Opc, Machine.unitFor(Op.Opc), FuInstance[static_cast<size_t>(V)],
            Rho_);
  Rho[static_cast<size_t>(V)] = Rho_;
  Placed.push_back(V);

  bool Found = false;
  if (SearchMode != Mode::Pressure ||
      pressureLowerBound(TN) < BestMaxLive)
    Found = dfs(Depth + 1);

  Placed.pop_back();
  Rho[static_cast<size_t>(V)] = -1;
  Mrt.remove(Op.Opc, Machine.unitFor(Op.Opc),
             FuInstance[static_cast<size_t>(V)], Rho_);
  return Found;
}

bool ExactSolver::dfs(size_t Depth) {
  if (TimedOut || StopSearch || stopRequested())
    return false;

  if (Depth == Order.size()) {
    if (SearchMode == Mode::Feasibility) {
      leafTimes(TStack[Depth], FoundTimes);
      return true;
    }
    // A pressure-mode leaf is a whole issue-time family: every combination
    // of per-op shifts by multiples of II from the canonical earliest times
    // that stays inside the static windows and the leaf's closed tightened
    // matrix. familyDfs enumerates it, canonical member first. A residue
    // assignment whose canonical times overrun some Lstart has an empty
    // family; its canonical leaf is still evaluated so the incumbent stays
    // at least as good as the earliest-time search found.
    std::vector<int> &Times = LeafBuf;
    leafTimes(TStack[Depth], Times);
    if (!inWindows(Times)) {
      offerIncumbent(Times);
      return false;
    }
    for (const int X : Ops.Real)
      FamTime[static_cast<size_t>(X)] = Times[static_cast<size_t>(X)];
    familyDfs(0, TStack[Depth]);
    return false;
  }

  const int V = Order[Depth];
  const Operation &Op = Body.op(V);
  const FuKind Kind = Machine.unitFor(Op.Opc);
  const int Instance = FuInstance[static_cast<size_t>(V)];
  const std::vector<long> &T = TStack[Depth];
  const int Start = Body.startOp();

  // Candidate residues, scanned from the dynamic earliest start so the
  // first solutions found resemble earliest-issue schedules.
  long Estart = std::max(0L, MinDist.at(Start, V));
  for (int X : Placed) {
    if (!MinDist.connected(X, V))
      continue;
    const long TX = T[static_cast<size_t>(Start) * N + X];
    if (isPath(TX))
      Estart = std::max(Estart, TX + MinDist.at(X, V));
  }

  for (int J = 0; J < II; ++J) {
    if (TimedOut || StopSearch)
      return false;
    if (++NodesUsed > NodeBudget) {
      TimedOut = true;
      return false;
    }
    const int Rho_ = static_cast<int>((Estart + J) % II);
    if (!Mrt.canPlace(Op.Opc, Kind, Instance, Rho_))
      continue;
    if (tryPlace(V, Rho_, Depth) && SearchMode == Mode::Feasibility)
      return true;
  }
  return false;
}

ExactStatus ExactSolver::solve(std::vector<int> &TimesOut, long &Nodes) {
  buildOrder(Mode::Feasibility);
  const bool Found = dfs(0);
  Nodes += NodesUsed;
  if (Found) {
    TimesOut = FoundTimes;
    return ExactStatus::Optimal;
  }
  return TimedOut ? ExactStatus::Timeout : ExactStatus::Infeasible;
}

ExactStatus ExactSolver::minimize(std::vector<int> &TimesInOut,
                                  long &MaxLiveInOut, long &Nodes,
                                  bool &FamilyCertified) {
  buildOrder(Mode::Pressure);
  BestTimes = TimesInOut;
  BestMaxLive = MaxLiveInOut;
  FamilyCertified = false;
  if (BestMaxLive <= GlobalMinAvg) {
    Nodes += NodesUsed;
    return ExactStatus::Optimal; // incumbent already meets the bound
  }
  // A seed inside the issue windows is itself a family member achieving
  // MaxLiveInOut: it is a legal schedule (dependence- and resource-
  // feasible) and the window check adds canonical makespan. Record it so
  // exhaustion can certify a tie with the seed, not just a strict
  // improvement — without this, a search whose bound prunes every
  // tying residue class would exhaust uncertified.
  if (TimesInOut.size() == static_cast<size_t>(N) &&
      TimesInOut[static_cast<size_t>(Body.startOp())] == 0 &&
      inWindows(TimesInOut))
    FamilyBest = BestMaxLive;
  dfs(0);
  Nodes += NodesUsed;
  TimesInOut = BestTimes;
  MaxLiveInOut = BestMaxLive;
  if (TimedOut)
    return ExactStatus::Timeout;
  // Exhaustion proves no family member beats BestMaxLive (pruned subtrees
  // were bounded at or above it). When a member achieving it was found,
  // BestMaxLive is therefore the family minimum; otherwise only the
  // incumbent — possibly issuing past the canonical makespan — reached
  // it, and the family minimum is merely known to be no smaller.
  FamilyCertified = FamilyBest <= BestMaxLive;
  return ExactStatus::Optimal;
}

} // namespace

ExactStatus lsms::solveAtIIBranchAndBound(const DepGraph &Graph,
                                          const MinDistMatrix &MinDist,
                                          const std::vector<int> &FuInstance,
                                          long NodeBudget,
                                          std::vector<int> &TimesOut,
                                          long &Nodes,
                                          const std::atomic<bool> *Stop) {
  assert(MinDist.initiationInterval() > 0 &&
         MinDist.numOps() == Graph.numOps() &&
         "MinDist must hold the relation at the candidate II");
  ExactSolver Solver(Graph, MinDist, FuInstance, NodeBudget, Stop);
  return Solver.solve(TimesOut, Nodes);
}

ExactStatus lsms::minimizeMaxLiveBranchAndBound(
    const DepGraph &Graph, const MinDistMatrix &MinDist,
    const std::vector<int> &FuInstance, long NodeBudget,
    std::vector<int> &TimesInOut, long &MaxLiveInOut, long &Nodes,
    bool &FamilyCertifiedOut, const std::atomic<bool> *Stop) {
  ExactSolver Solver(Graph, MinDist, FuInstance, NodeBudget, Stop);
  return Solver.minimize(TimesInOut, MaxLiveInOut, Nodes,
                         FamilyCertifiedOut);
}
