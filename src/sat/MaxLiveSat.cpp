#include "sat/MaxLiveSat.h"

#include "bounds/Lifetimes.h"
#include "sat/SatSolver.h"

#include <algorithm>
#include <cassert>

using namespace lsms;

namespace {

/// Builds the time-indexed encoding once and drives the downward probe
/// loop on a single incremental solver instance.
class MaxLiveEncoder {
public:
  MaxLiveEncoder(const DepGraph &Graph, const MinDistMatrix &MinDist,
                 const std::vector<int> &FuInstance)
      : Body(Graph.body()), Machine(Graph.machine()),
        MinDist(MinDist), FuInstance(FuInstance),
        II(MinDist.initiationInterval()), Ops(Body, Machine),
        Real(Ops.Real), Slot(Ops.Slot) {}

  MaxLiveEncoder(const MaxLiveEncoder &) = delete; // members alias Ops
  SatMaxLiveResult run(long ConflictBudget, long MinAvg, long UpperCap,
                       const std::atomic<bool> *Stop);

private:
  /// Order-literal lookup with window boundaries folded in: "t_x <= T" is
  /// constant true at or above Lstart, constant false below Estart.
  /// Returns +1/-1 for the constants, 0 with \p L set otherwise.
  int orderLit(size_t S, long T, Lit &L) const {
    const int X = Real[S];
    if (T >= Lstart[static_cast<size_t>(X)])
      return 1;
    if (T < Estart[static_cast<size_t>(X)])
      return -1;
    L = mkLit(OBase[S] + static_cast<int>(T - Estart[static_cast<size_t>(X)]));
    return 0;
  }

  void buildWindows();
  void encodeChainsAndDirects();
  void encodeDependences();
  void encodeResources();
  void collectLifetimes();
  void encodeLiveness();
  void encodeCounters(long Width);
  bool capAssumptions(long K, std::vector<Lit> &Assumptions) const;
  long decode(std::vector<int> &TimesOut) const;

  const LoopBody &Body;
  const MachineModel &Machine;
  const MinDistMatrix &MinDist;
  const std::vector<int> &FuInstance;
  const int II;
  const MachineOps Ops;
  const std::vector<int> &Real; ///< Ops.Real
  const std::vector<int> &Slot; ///< Ops.Slot

  SatSolver Solver;
  std::vector<long> Estart, Lstart; ///< shared issue windows, per op id
  std::vector<int> OBase;           ///< first order var per slot
  std::vector<int> DBase;           ///< first direct (time) var per slot

  /// One lifetime literal family per RR value with uses: live at absolute
  /// cycles [DefEstart, End). Cycles in [SureLo, SureHi) are live in every
  /// family member — the def's window has closed and some use's window
  /// has not opened — so they get no literal and load their column as a
  /// constant instead.
  struct ValueSpan {
    int ValueId = 0;
    int Def = 0;       ///< defining op (real)
    long Lo = 0;       ///< Estart of the def
    long End = 0;      ///< exclusive upper bound on the lifetime end
    long SureLo = 0;   ///< surely-live cycles [SureLo, SureHi); may be empty
    long SureHi = 0;
    int BBase = 0;     ///< first liveness var; one per other cycle in [Lo, End)

    bool surelyLive(long Tau) const { return Tau >= SureLo && Tau < SureHi; }
    /// The liveness literal of a cycle that is not surely live.
    Lit live(long Tau) const {
      const long Skipped = Tau >= SureHi ? SureHi - SureLo : 0;
      return mkLit(BBase + static_cast<int>(Tau - Lo - Skipped));
    }
  };
  std::vector<ValueSpan> Spans;
  /// Surely-live cycles per II column: a load every family member carries.
  std::vector<long> Fixed;
  /// RR use sites per value id: (user op, omega).
  std::vector<std::vector<std::pair<int, int>>> UsesOf;

  /// Sequential-counter outputs per column: CapVar[c][j-1] is the var for
  /// "at least j liveness literals of column c are true". Empty when the
  /// family is empty: no counter is built.
  std::vector<std::vector<int>> CapVar;
};

void MaxLiveEncoder::buildWindows() {
  const IssueWindows W = computeIssueWindows(Body, MinDist);
  Estart = W.Estart;
  Lstart = W.Lstart;
  OBase.resize(Real.size());
  DBase.resize(Real.size());
  for (size_t S = 0; S < Real.size(); ++S) {
    const int X = Real[S];
    const long E = Estart[static_cast<size_t>(X)];
    const long L = Lstart[static_cast<size_t>(X)];
    OBase[S] = Solver.numVars();
    for (long T = E; T < L; ++T)
      Solver.newVar();
    DBase[S] = Solver.numVars();
    for (long T = E; T <= L; ++T)
      Solver.newVar();
    if (L < E) {
      // Empty window: the family is empty. Force a root conflict so every
      // probe answers Unsat.
      Solver.addClause({});
    }
  }
}

void MaxLiveEncoder::encodeChainsAndDirects() {
  for (size_t S = 0; S < Real.size(); ++S) {
    const int X = Real[S];
    const long E = Estart[static_cast<size_t>(X)];
    const long L = Lstart[static_cast<size_t>(X)];
    // Monotone chain: t_x <= T implies t_x <= T+1.
    for (long T = E; T + 1 < L; ++T)
      Solver.addClause({~mkLit(OBase[S] + static_cast<int>(T - E)),
                        mkLit(OBase[S] + static_cast<int>(T + 1 - E))});
    // Channel the direct literal D(x,T) <-> (t_x <= T) & !(t_x <= T-1).
    for (long T = E; T <= L; ++T) {
      const Lit D = mkLit(DBase[S] + static_cast<int>(T - E));
      Lit OT, OP;
      const int CT = orderLit(S, T, OT);     // t_x <= T
      const int CP = orderLit(S, T - 1, OP); // t_x <= T-1
      assert(CT >= 0 && CP <= 0 && "window bounds violated");
      Lit Def[3] = {D};
      size_t N = 1;
      if (CT == 0) {
        Solver.addClause({~D, OT});
        Def[N++] = ~OT;
      }
      if (CP == 0) {
        Solver.addClause({~D, ~OP});
        Def[N++] = OP;
      }
      // D | !(t<=T) | (t<=T-1)
      Solver.addClause(std::span<const Lit>(Def, N));
    }
  }
}

void MaxLiveEncoder::encodeDependences() {
  // Every connected ordered pair of real ops contributes t_y - t_x >=
  // MinDist(x,y), as "t_y <= T implies t_x <= T - C" over the window of y.
  // (Unlike the residue-space feasibility encoding, one-directional
  // bounds matter here: the windows stop an op from sliding by whole IIs.)
  for (size_t SX = 0; SX < Real.size(); ++SX) {
    const int X = Real[SX];
    for (size_t SY = 0; SY < Real.size(); ++SY) {
      const int Y = Real[SY];
      if (SX == SY || !MinDist.connected(X, Y))
        continue;
      const long C = MinDist.at(X, Y);
      for (long T = Estart[static_cast<size_t>(Y)];
           T <= Lstart[static_cast<size_t>(Y)]; ++T) {
        Lit OY, OX;
        const int CY = orderLit(SY, T, OY);
        if (CY < 0)
          continue; // antecedent constant false
        const int CX = orderLit(SX, T - C, OX);
        if (CX > 0)
          continue; // consequent constant true
        Lit Clause[2];
        size_t N = 0;
        if (CY == 0)
          Clause[N++] = ~OY;
        if (CX == 0)
          Clause[N++] = OX;
        // An empty clause is a root conflict; the solver records it.
        Solver.addClause(std::span<const Lit>(Clause, N));
      }
    }
  }
}

void MaxLiveEncoder::encodeResources() {
  // Modulo-resource conflicts depend only on residues: probe them once and
  // forbid colliding time pairs on shared functional-unit instances via
  // the direct literals.
  ResourceProbe Probe(Body, Machine, FuInstance, II);
  // II x II conflict bitmap per same-instance pair, cleared after use.
  std::vector<char> Conflict(static_cast<size_t>(II) * II, 0);
  for (size_t SU = 0; SU < Real.size(); ++SU) {
    const long EU = Estart[static_cast<size_t>(Real[SU])];
    const long LU = Lstart[static_cast<size_t>(Real[SU])];
    for (long A = EU; A <= LU; ++A)
      if (!Probe.fitsAlone(Real[SU], static_cast<int>(A % II)))
        Solver.addClause({~mkLit(DBase[SU] + static_cast<int>(A - EU))});
    for (size_t SV = SU + 1; SV < Real.size(); ++SV) {
      if (!Probe.forEachConflict(Real[SU], Real[SV], [&](int A, int B) {
            Conflict[static_cast<size_t>(A) * II + B] = 1;
          }))
        continue;
      // One binary clause per colliding absolute-time pair in the windows.
      const long EV = Estart[static_cast<size_t>(Real[SV])];
      const long LV = Lstart[static_cast<size_t>(Real[SV])];
      for (long A = EU; A <= LU; ++A)
        for (long B = EV; B <= LV; ++B)
          if (Conflict[static_cast<size_t>(A % II) * II + (B % II)])
            Solver.addClause({~mkLit(DBase[SU] + static_cast<int>(A - EU)),
                              ~mkLit(DBase[SV] + static_cast<int>(B - EV))});
      std::fill(Conflict.begin(), Conflict.end(), 0);
    }
  }
}

void MaxLiveEncoder::collectLifetimes() {
  // Mirror computePressure's use collection exactly: operand uses plus
  // predicate uses, filtered to the RR class.
  UsesOf.assign(static_cast<size_t>(Body.numValues()), {});
  auto Record = [&](int ValueId, int UserOp, int Omega) {
    if (Body.value(ValueId).Class == RegClass::RR)
      UsesOf[static_cast<size_t>(ValueId)].push_back({UserOp, Omega});
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      Record(U.Value, Op.Id, U.Omega);
    if (Op.PredValue >= 0)
      Record(Op.PredValue, Op.Id, Op.PredOmega);
  }

  Spans.clear();
  Fixed.assign(static_cast<size_t>(II), 0);
  for (const Value &V : Body.Values) {
    if (V.Class != RegClass::RR ||
        UsesOf[static_cast<size_t>(V.Id)].empty())
      continue;
    assert(V.Def >= 0 && Slot[static_cast<size_t>(V.Def)] >= 0 &&
           "RR values are defined by real operations");
    ValueSpan Span;
    Span.ValueId = V.Id;
    Span.Def = V.Def;
    Span.Lo = Estart[static_cast<size_t>(V.Def)];
    Span.End = Span.Lo;
    long UseOpen = Span.Lo; // latest cycle some use's window opens at
    for (const auto &[User, Omega] : UsesOf[static_cast<size_t>(V.Id)]) {
      assert(Slot[static_cast<size_t>(User)] >= 0 &&
             "RR values are used by real operations");
      const long Shift = static_cast<long>(Omega) * II;
      Span.End = std::max(Span.End, Lstart[static_cast<size_t>(User)] + Shift);
      UseOpen = std::max(UseOpen, Estart[static_cast<size_t>(User)] + Shift);
    }
    // Live at tau whatever the schedule: the def has issued (tau >= its
    // Lstart) and some use cannot have (tau < its Estart + omega*II).
    Span.SureLo = std::max(Span.Lo, Lstart[static_cast<size_t>(V.Def)]);
    Span.SureHi = std::max(Span.SureLo, std::min(Span.End, UseOpen));
    Span.BBase = Solver.numVars();
    for (long Tau = Span.Lo; Tau < Span.End; ++Tau) {
      if (Span.surelyLive(Tau))
        ++Fixed[static_cast<size_t>(Tau % II)];
      else
        Solver.newVar();
    }
    Spans.push_back(Span);
  }
}

void MaxLiveEncoder::encodeLiveness() {
  // B(v,tau) is forced true when the def has issued by tau and some use
  // keeps the value alive past tau:
  //   (t_def <= tau) & !(t_use <= tau - omega*II)  ->  B(v,tau).
  // The literals are one-directional (never forced false), which is sound
  // for an upper-bound cap: spurious liveness only over-counts. Surely-live
  // cycles have no literal: there the clause would be the unit B(v,tau),
  // and the column's fixed load counts it instead.
  for (const ValueSpan &Span : Spans) {
    const size_t SD = static_cast<size_t>(Slot[static_cast<size_t>(Span.Def)]);
    for (const auto &[User, Omega] : UsesOf[static_cast<size_t>(Span.ValueId)]) {
      const size_t SU = static_cast<size_t>(Slot[static_cast<size_t>(User)]);
      const long UseEndMax =
          Lstart[static_cast<size_t>(User)] + static_cast<long>(Omega) * II;
      for (long Tau = Span.Lo; Tau < UseEndMax; ++Tau) {
        if (Span.surelyLive(Tau))
          continue;
        Lit Clause[3];
        size_t N = 0;
        Lit OD, OU;
        const int CD = orderLit(SD, Tau, OD); // def issued by tau
        if (CD < 0)
          continue; // def cannot have issued yet: not live through v's def
        if (CD == 0)
          Clause[N++] = ~OD;
        const int CU = orderLit(SU, Tau - static_cast<long>(Omega) * II, OU);
        if (CU > 0)
          continue; // use surely over by tau: clause satisfied
        if (CU == 0)
          Clause[N++] = OU;
        Clause[N++] = Span.live(Tau);
        Solver.addClause(std::span<const Lit>(Clause, N));
      }
    }
  }
}

void MaxLiveEncoder::encodeCounters(long Width) {
  // Sequential counter per II column over that column's liveness
  // literals, in (value, cycle) order. S(i,j) = "at least j of the first
  // i+1 literals are true"; only the >= direction is clausified, which is
  // all a monotone at-most-k cap needs. The column's fixed load already
  // uses up that much of the width.
  CapVar.assign(static_cast<size_t>(II), {});
  std::vector<Lit> Ls;
  for (int Col = 0; Col < II; ++Col) {
    Ls.clear();
    for (const ValueSpan &Span : Spans)
      for (long Tau = Span.Lo; Tau < Span.End; ++Tau)
        if (Tau % II == Col && !Span.surelyLive(Tau))
          Ls.push_back(Span.live(Tau));
    const long M = static_cast<long>(Ls.size());
    const long W = std::min(M, Width - Fixed[static_cast<size_t>(Col)]);
    if (W <= 0)
      continue;
    std::vector<int> Prev, Cur;
    for (long I = 0; I < M; ++I) {
      const long JMax = std::min(I + 1, W);
      Cur.assign(static_cast<size_t>(JMax), 0);
      for (long J = 1; J <= JMax; ++J)
        Cur[static_cast<size_t>(J - 1)] = Solver.newVar();
      // L_i -> S(i,1)
      Solver.addClause({~Ls[static_cast<size_t>(I)],
                        mkLit(Cur[0])});
      for (long J = 1; J <= JMax; ++J) {
        if (I > 0 && J <= static_cast<long>(Prev.size()))
          // S(i-1,j) -> S(i,j)
          Solver.addClause({~mkLit(Prev[static_cast<size_t>(J - 1)]),
                            mkLit(Cur[static_cast<size_t>(J - 1)])});
        if (J >= 2)
          // L_i & S(i-1,j-1) -> S(i,j)
          Solver.addClause({~Ls[static_cast<size_t>(I)],
                            ~mkLit(Prev[static_cast<size_t>(J - 2)]),
                            mkLit(Cur[static_cast<size_t>(J - 1)])});
      }
      std::swap(Prev, Cur);
    }
    CapVar[static_cast<size_t>(Col)] = Prev; // outputs of the last stage
  }
}

/// At-most-K as assumptions rather than permanent units: blocking "at
/// least K+1-Fixed[c] more in column c" at the counter output is enough
/// because that many true literals force the output through the
/// >=-direction clauses. Every probe of the k-walk then reuses one solver
/// state — learned clauses never depend on the cap and survive each
/// tightening. Returns false when some column's fixed load alone exceeds
/// K: no family member meets the cap, and no search is needed to say so.
bool MaxLiveEncoder::capAssumptions(long K,
                                    std::vector<Lit> &Assumptions) const {
  Assumptions.clear();
  for (size_t Col = 0; Col < CapVar.size(); ++Col) {
    const long Free = K - Fixed[Col];
    if (Free < 0)
      return false;
    const std::vector<int> &Out = CapVar[Col];
    if (Free + 1 <= static_cast<long>(Out.size()))
      Assumptions.push_back(~mkLit(Out[static_cast<size_t>(Free)]));
  }
  return true;
}

/// Reads issue times out of the model (smallest T whose order literal is
/// true, Lstart when none), derives pseudo-ops at their earliest
/// consistent cycles, and returns the schedule's true MaxLive.
long MaxLiveEncoder::decode(std::vector<int> &TimesOut) const {
  TimesOut.assign(static_cast<size_t>(Body.numOps()), 0);
  for (size_t S = 0; S < Real.size(); ++S) {
    const int X = Real[S];
    const long E = Estart[static_cast<size_t>(X)];
    long T = Lstart[static_cast<size_t>(X)];
    for (long U = E; U < Lstart[static_cast<size_t>(X)]; ++U)
      if (Solver.modelValue(OBase[S] + static_cast<int>(U - E))) {
        T = U;
        break;
      }
    TimesOut[static_cast<size_t>(X)] = static_cast<int>(T);
  }
  placePseudoOps(Body, MinDist, Ops, TimesOut);
  return computePressure(Body, TimesOut, II, RegClass::RR).MaxLive;
}

SatMaxLiveResult MaxLiveEncoder::run(long ConflictBudget, long MinAvg,
                                     long UpperCap,
                                     const std::atomic<bool> *Stop) {
  SatMaxLiveResult Result;
  const SolverDelta Delta(Solver);
  Solver.setStopFlag(Stop);
  buildWindows();
  encodeChainsAndDirects();
  encodeDependences();
  encodeResources();
  if (Solver.okay()) {
    // A root conflict means the family is empty: every probe answers Unsat
    // without reading the pressure encoding, so none is built.
    collectLifetimes();
    encodeLiveness();
    encodeCounters(/*Width=*/std::max(0L, UpperCap) + 1);
  }

  long BestVal = -1;
  std::vector<int> BestTimes;
  std::vector<Lit> Assumptions;
  long K = UpperCap;
  for (;;) {
    if (K < MinAvg) {
      // Nothing below the global MinAvg bound exists; the current witness
      // (necessarily at MinAvg) is the family minimum.
      Result.SearchComplete = true;
      break;
    }
    const long Left = Delta.conflictsLeft(ConflictBudget);
    const SatResult R =
        Left <= 0                         ? SatResult::Unknown
        : !capAssumptions(K, Assumptions) ? SatResult::Unsat
                                          : Solver.solveUnderAssumptions(
                                                Assumptions, Left);
    if (R == SatResult::Unknown)
      break; // budget exhausted: report best-so-far, no claim
    if (R == SatResult::Unsat) {
      Result.SearchComplete = true;
      break;
    }
    std::vector<int> Times;
    const long Val = decode(Times);
    assert(Val <= K && "cardinality cap admitted a hotter schedule");
    BestVal = Val;
    BestTimes = std::move(Times);
    K = Val - 1;
  }

  Result.FamilyMin = BestVal;
  Result.Times = std::move(BestTimes);
  Delta.addTo(Result.Stats);
  return Result;
}

} // namespace

SatMaxLiveResult lsms::minimizeMaxLiveSat(const DepGraph &Graph,
                                          const MinDistMatrix &MinDist,
                                          const std::vector<int> &FuInstance,
                                          long ConflictBudget, long MinAvg,
                                          long UpperCap,
                                          const std::atomic<bool> *Stop) {
  assert(MinDist.initiationInterval() > 0 &&
         MinDist.numOps() == Graph.numOps() &&
         "MinDist must hold the relation at the candidate II");
  MaxLiveEncoder Encoder(Graph, MinDist, FuInstance);
  return Encoder.run(ConflictBudget, MinAvg, UpperCap, Stop);
}
