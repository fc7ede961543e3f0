#include "sat/CgraSat.h"

#include "cgra/CgraMapper.h"
#include "machine/ModuloResourceTable.h"
#include "sat/SatSolver.h"

#include <algorithm>
#include <cassert>

using namespace lsms;

namespace {

/// Per-arc clause-count gate for the up-front hop-strengthened pairwise
/// encoding; recurrence arcs beyond it fall back to lazy cuts alone.
constexpr long EagerHopClauseCap = 50000;

/// One fixed-II spatial encoding + CEGAR loop.
class CgraSatAttempt {
public:
  CgraSatAttempt(const DepGraph &Graph, const CgraModel &Cgra,
                 const MinDistMatrix &MinDist)
      : Graph(Graph), Cgra(Cgra), Body(Graph.body()), M(Cgra.machine()),
        MinDist(MinDist), II(MinDist.initiationInterval()), Closure(Body, M) {
    Allowed.assign(Real.size(), {});
    PeIndex.assign(Real.size(),
                   std::vector<int>(static_cast<size_t>(Cgra.numPes()), -1));
    for (size_t S = 0; S < Real.size(); ++S) {
      const Opcode Opc = Body.op(Real[S]).Opc;
      if (!fuKindNeedsPe(M.unitFor(Opc)))
        continue;
      for (int Pe = 0; Pe < Cgra.numPes(); ++Pe)
        if (Cgra.capableOf(Pe, Opc)) {
          PeIndex[S][static_cast<size_t>(Pe)] =
              static_cast<int>(Allowed[S].size());
          Allowed[S].push_back(Pe);
        }
    }
  }

  CgraSatAttempt(const CgraSatAttempt &) = delete; // members alias Closure
  CgraSatStatus run(long ConflictBudget, std::vector<int> &TimesOut,
                    std::vector<int> &PesOut, SatEngineStats &Stats);

private:
  bool placeable(size_t S) const { return !Allowed[S].empty(); }
  Lit rVar(size_t S, int R) const {
    return mkLit(RBase[S] + R);
  }
  Lit sVar(size_t S, int R, int K) const {
    return mkLit(SBase[S] + R * static_cast<int>(Allowed[S].size()) + K);
  }

  bool encode();
  void decode();
  bool routeCut(std::vector<Lit> &Cut) const;

  const DepGraph &Graph;
  const CgraModel &Cgra;
  const LoopBody &Body;
  const MachineModel &M;
  const MinDistMatrix &MinDist;
  const int II;

  TightenedClosure Closure; ///< hop-augmented, over decoded residues
  const std::vector<int> &Real = Closure.Ops.Real;
  const std::vector<int> &Slot = Closure.Ops.Slot;
  std::vector<int> &Rho = Closure.Rho; ///< decoded residue per slot
  SatSolver Solver;
  std::vector<std::vector<int>> Allowed; ///< capable PEs per slot (empty =
                                         ///< no PE slot needed, e.g. brtop)
  std::vector<std::vector<int>> PeIndex; ///< PE id -> index in Allowed
  std::vector<int> RBase; ///< residue-column base var per slot
  std::vector<int> SBase; ///< selector base var per placeable slot

  std::vector<int> Pe; ///< decoded PE per slot (-1 when not placeable)
  std::vector<Lit> ClauseBuf; ///< at-least-one, pick-one and cut clauses
};

bool CgraSatAttempt::encode() {
  RBase.assign(Real.size(), 0);
  SBase.assign(Real.size(), 0);
  for (size_t S = 0; S < Real.size(); ++S) {
    RBase[S] = Solver.numVars();
    for (int R = 0; R < II; ++R)
      Solver.newVar();
    SBase[S] = Solver.numVars();
    for (size_t V = 0; V < Allowed[S].size() * static_cast<size_t>(II); ++V)
      Solver.newVar();
  }

  // Exactly one residue per operation.
  for (size_t S = 0; S < Real.size(); ++S) {
    ClauseBuf.clear();
    for (int R = 0; R < II; ++R)
      ClauseBuf.push_back(rVar(S, R));
    Solver.addClause(ClauseBuf);
    for (int A = 0; A < II; ++A)
      for (int B = A + 1; B < II; ++B)
        Solver.addClause({~rVar(S, A), ~rVar(S, B)});
  }

  // Channeling: a residue commits to exactly one capable PE.
  for (size_t S = 0; S < Real.size(); ++S) {
    if (!placeable(S))
      continue;
    const int A = static_cast<int>(Allowed[S].size());
    for (int R = 0; R < II; ++R) {
      ClauseBuf.assign(1, ~rVar(S, R));
      for (int K = 0; K < A; ++K)
        ClauseBuf.push_back(sVar(S, R, K));
      Solver.addClause(ClauseBuf);
      for (int K = 0; K < A; ++K)
        Solver.addClause({~sVar(S, R, K), rVar(S, R)});
      for (int K1 = 0; K1 < A; ++K1)
        for (int K2 = K1 + 1; K2 < A; ++K2)
          Solver.addClause({~sVar(S, R, K1), ~sVar(S, R, K2)});
    }
  }

  // Per-PE modulo exclusivity: two ops sharing a PE must not overlap their
  // reservation intervals mod II.
  for (size_t SU = 0; SU < Real.size(); ++SU) {
    if (!placeable(SU))
      continue;
    const int ResU = M.reservationCycles(Body.op(Real[SU]).Opc);
    for (size_t SV = SU + 1; SV < Real.size(); ++SV) {
      if (!placeable(SV))
        continue;
      const int ResV = M.reservationCycles(Body.op(Real[SV]).Opc);
      for (const int P : Allowed[SU]) {
        const int KV = PeIndex[SV][static_cast<size_t>(P)];
        if (KV < 0)
          continue;
        const int KU = PeIndex[SU][static_cast<size_t>(P)];
        for (int A = 0; A < II; ++A)
          for (int B = 0; B < II; ++B)
            if (moduloReservationsOverlap(II, A, ResU, B, ResV))
              Solver.addClause({~sVar(SU, A, KU), ~sVar(SV, B, KV)});
      }
    }
  }

  // Flat pairwise dependence legality over residue columns (hop-free lower
  // bounds; valid for every placement).
  forEachTwoCycle(MinDist, Real, [&](size_t SU, int A, size_t SV, int B) {
    Solver.addClause({~rVar(SU, A), ~rVar(SV, B)});
  });

  // Hop-strengthened pairwise legality for register-flow arcs inside a
  // recurrence: landing producer and consumer on distant PEs adds hop
  // latency to the arc, which can close an otherwise-slack two-cycle.
  // Bounded per arc; larger products rely on the lazy cuts below.
  for (const DepArc &Arc : Graph.arcs()) {
    if (Arc.Value < 0 || Arc.Src == Arc.Dst)
      continue;
    const int SX = Slot[static_cast<size_t>(Arc.Src)];
    const int SY = Slot[static_cast<size_t>(Arc.Dst)];
    if (SX < 0 || SY < 0)
      continue;
    const size_t SXU = static_cast<size_t>(SX);
    const size_t SYU = static_cast<size_t>(SY);
    if (!placeable(SXU) || !placeable(SYU))
      continue;
    if (!MinDist.connected(Arc.Src, Arc.Dst) ||
        !MinDist.connected(Arc.Dst, Arc.Src))
      continue;
    const long Pairs = static_cast<long>(Allowed[SXU].size()) *
                       static_cast<long>(Allowed[SYU].size());
    if (Pairs * II * II > EagerHopClauseCap)
      continue;
    const long CXY = MinDist.at(Arc.Src, Arc.Dst);
    const long CYX = MinDist.at(Arc.Dst, Arc.Src);
    for (size_t KX = 0; KX < Allowed[SXU].size(); ++KX) {
      for (size_t KY = 0; KY < Allowed[SYU].size(); ++KY) {
        const int PX = Allowed[SXU][KX];
        const int PY = Allowed[SYU][KY];
        if (PX == PY)
          continue;
        const long Hopped =
            std::max(CXY, static_cast<long>(Arc.Latency) +
                              Cgra.hopDelay(PX, PY) -
                              static_cast<long>(Arc.Omega) * II);
        forEachTwoCycle(Hopped, CYX, II, [&](int A, int B) {
          Solver.addClause({~sVar(SXU, A, static_cast<int>(KX)),
                            ~sVar(SYU, B, static_cast<int>(KY))});
        });
      }
    }
  }
  return Solver.okay();
}

void CgraSatAttempt::decode() {
  Closure.readModel(Solver, II,
                    [&](size_t S, int R) { return litVar(rVar(S, R)); });
  Pe.assign(Real.size(), -1);
  for (size_t S = 0; S < Real.size(); ++S) {
    if (!placeable(S))
      continue;
    for (size_t K = 0; K < Allowed[S].size(); ++K)
      if (Solver.modelValue(litVar(sVar(S, Rho[S], static_cast<int>(K))))) {
        assert(Pe[S] < 0 && "at-most-one PE violated");
        Pe[S] = Allowed[S][K];
      }
    assert(Pe[S] >= 0 && "placeable operation left without a PE");
  }
}

/// Checks route capacity on the decoded residues (departure cycles depend
/// only on residues, not absolute times). On overflow builds the blocking
/// clause: every transfer feeding the overflowing (PE, residue) slot pins
/// its producer's selector and one witness consumer's selector per
/// destination; with all of them held the slot provably overflows again,
/// so excluding the combination is sound. Returns true when clean.
bool CgraSatAttempt::routeCut(std::vector<Lit> &Cut) const {
  std::vector<int> Times(static_cast<size_t>(Graph.numOps()), -1);
  std::vector<int> Pes(static_cast<size_t>(Graph.numOps()), -1);
  for (size_t S = 0; S < Real.size(); ++S) {
    Times[static_cast<size_t>(Real[S])] = Rho[S];
    Pes[static_cast<size_t>(Real[S])] = Pe[S];
  }
  std::vector<int> Counts;
  int OverPe = -1, OverR = -1;
  if (countRouteUse(Graph, Cgra, Times, Pes, II, Counts, &OverPe, &OverR))
    return true;

  Cut.clear();
  std::vector<char> Seen(static_cast<size_t>(Cgra.numPes()));
  for (size_t SX = 0; SX < Real.size(); ++SX) {
    const int X = Real[SX];
    if (Pe[SX] != OverPe ||
        (Rho[SX] + Graph.latency(X)) % II != OverR)
      continue;
    // One witness consumer per distinct destination PE of this producer.
    std::fill(Seen.begin(), Seen.end(), 0);
    bool Sends = false;
    for (const int ArcId : Graph.succArcs(X)) {
      const DepArc &Arc = Graph.arc(ArcId);
      const int SY = Slot[static_cast<size_t>(Arc.Dst)];
      if (Arc.Value < 0 || SY < 0)
        continue;
      const int Q = Pe[static_cast<size_t>(SY)];
      if (Q < 0 || Q == OverPe || Seen[static_cast<size_t>(Q)])
        continue;
      Seen[static_cast<size_t>(Q)] = 1;
      Sends = true;
      Cut.push_back(~sVar(static_cast<size_t>(SY),
                          Rho[static_cast<size_t>(SY)],
                          PeIndex[static_cast<size_t>(SY)]
                                 [static_cast<size_t>(Q)]));
    }
    if (Sends)
      Cut.push_back(~sVar(SX, Rho[SX],
                          PeIndex[SX][static_cast<size_t>(OverPe)]));
  }
  assert(!Cut.empty() && "route overflow without contributing transfers");
  return false;
}

CgraSatStatus CgraSatAttempt::run(long ConflictBudget,
                                  std::vector<int> &TimesOut,
                                  std::vector<int> &PesOut,
                                  SatEngineStats &Stats) {
  // Structural pre-checks shared with the heuristic mapper: a capability
  // hole or a reservation wrapping past II is infeasible at every
  // placement, no search needed.
  for (size_t S = 0; S < Real.size(); ++S) {
    const Opcode Opc = Body.op(Real[S]).Opc;
    if (!fuKindNeedsPe(M.unitFor(Opc)))
      continue;
    if (Allowed[S].empty())
      return CgraSatStatus::Infeasible;
    if (M.reservationCycles(Opc) > II)
      return CgraSatStatus::Infeasible;
  }
  const SolverDelta Delta(Solver);
  if (Delta.conflictsLeft(ConflictBudget) <= 0)
    return CgraSatStatus::Budget;

  if (!encode()) {
    Delta.addTo(Stats);
    return CgraSatStatus::Infeasible;
  }

  CgraSatStatus Status = CgraSatStatus::Budget;
  for (;;) {
    const long Left = Delta.conflictsLeft(ConflictBudget);
    const SatResult R = Left <= 0 ? SatResult::Unknown : Solver.solve(Left);
    if (R == SatResult::Unknown)
      break;
    if (R == SatResult::Unsat) {
      Status = CgraSatStatus::Infeasible;
      break;
    }
    decode();
    // The tightened closure of the decoded residues, with the hop-charged
    // register-flow arcs of the decoded placement overlaid.
    Closure.load(MinDist);
    for (const DepArc &Arc : Graph.arcs()) {
      const int SX = Slot[static_cast<size_t>(Arc.Src)];
      const int SY = Slot[static_cast<size_t>(Arc.Dst)];
      if (SX < 0 || SY < 0 || SX == SY)
        continue;
      const int Hop = arcHopDelay(Cgra, Arc, Pe[static_cast<size_t>(SX)],
                                  Pe[static_cast<size_t>(SY)]);
      if (Hop != 0)
        Closure.raise(SX, SY,
                      static_cast<long>(Arc.Latency) + Hop -
                          static_cast<long>(Arc.Omega) * II);
    }
    ClauseBuf.clear();
    if (!Closure.close()) {
      // Every slot on the cycle keeps its (residue, PE) choice only if at
      // least one of them moves: hop overlays, like the tightened MinDist
      // entries, are functions of exactly those residues and PEs.
      for (size_t U = 0; U < Real.size(); ++U) {
        if (!Closure.onCycle(U))
          continue;
        if (placeable(U))
          ClauseBuf.push_back(~sVar(U, Rho[U],
                                    PeIndex[U][static_cast<size_t>(Pe[U])]));
        else
          ClauseBuf.push_back(~rVar(U, Rho[U]));
      }
    } else if (routeCut(ClauseBuf)) {
      Closure.decode(TimesOut);
      PesOut.assign(static_cast<size_t>(Graph.numOps()), -1);
      for (size_t S = 0; S < Real.size(); ++S)
        PesOut[static_cast<size_t>(Real[S])] = Pe[S];
      Status = CgraSatStatus::Mapped;
      break;
    }
    Solver.addClause(ClauseBuf);
    ++Stats.Refinements;
  }
  Delta.addTo(Stats);
  return Status;
}

} // namespace

CgraSatStatus lsms::mapAtIICgraSat(const DepGraph &Graph,
                                   const CgraModel &Cgra,
                                   const MinDistMatrix &MinDist,
                                   long ConflictBudget,
                                   std::vector<int> &TimesOut,
                                   std::vector<int> &PesOut,
                                   SatEngineStats &Stats) {
  assert(MinDist.initiationInterval() > 0 &&
         MinDist.numOps() == Graph.numOps() &&
         "MinDist must hold the relation at the candidate II");
  CgraSatAttempt Attempt(Graph, Cgra, MinDist);
  return Attempt.run(ConflictBudget, TimesOut, PesOut, Stats);
}
