//===----------------------------------------------------------------------===//
///
/// \file
/// The residue space every exact engine decides over: Huff's MinDist
/// relation (Section 4.1) tightened to issue-cycle residues modulo II. At a
/// fixed II a schedule exists iff some residue per real operation passes
/// the modulo reservation table and leaves the tightened constraint graph
/// free of positive cycles. Branch-and-bound, the flat and CGRA SAT
/// encoders and the MaxLive cardinality encoder share the pieces here.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SAT_RESIDUESPACE_H
#define LSMS_SAT_RESIDUESPACE_H

#include "graph/MinDist.h"
#include "ir/LoopBody.h"
#include "machine/ModuloResourceTable.h"
#include "sat/SatSolver.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <vector>

namespace lsms {

/// True when \p W is a path weight rather than MinDistMatrix::NoPath.
inline bool isPath(long W) { return W > MinDistMatrix::NoPath / 2; }

/// Smallest value >= C congruent to D modulo II. This is the tightening
/// step: once both endpoints' residues are fixed, a dependence constraint
/// t_y - t_x >= C can only be met at values congruent to
/// rho_y - rho_x (mod II), so it sharpens to tighten(C, rho_y - rho_x).
inline long tighten(long C, long D, long II) {
  return C + (((D - C) % II + II) % II);
}

/// Saturating max-plus addition: closure entries can grow while a positive
/// cycle is being detected, and any weight beyond every simple path's
/// reach already implies such a cycle, so clamping is sound.
inline long satAdd(long A, long B) {
  constexpr long Cap = LONG_MAX / 4;
  const long S = A + B;
  return S > Cap ? Cap : S;
}

/// Calls Forbid(A, B) for every residue pair of a mutually connected pair
/// u, v with bounds \p CUV (u to v) and \p CVU (v to u) whose tightened
/// bounds close a positive two-cycle, in (D = B - A, A) order. The test
/// depends only on the residue difference, so each failing D forbids II
/// pairs.
template <typename ForbidFn>
void forEachTwoCycle(long CUV, long CVU, int II, ForbidFn Forbid) {
  for (int D = 0; D < II; ++D)
    if (tighten(CUV, D, II) + tighten(CVU, -D, II) > 0)
      for (int A = 0; A < II; ++A)
        Forbid(A, (A + D) % II);
}

/// Calls Forbid(SU, A, SV, B) for every two-cycle residue pair of real
/// slots SU < SV. Only mutually connected pairs (the same MinDist
/// recurrence component) constrain residues: for a one-directional bound
/// the later operation can always slide by whole IIs, so every residue
/// pair admits integer times. Longer positive cycles are left to
/// TightenedClosure.
template <typename ForbidFn>
void forEachTwoCycle(const MinDistMatrix &MinDist,
                     const std::vector<int> &Real, ForbidFn Forbid) {
  for (size_t SU = 0; SU < Real.size(); ++SU) {
    for (size_t SV = SU + 1; SV < Real.size(); ++SV) {
      const int U = Real[SU];
      const int V = Real[SV];
      if (MinDist.connected(U, V) && MinDist.connected(V, U))
        forEachTwoCycle(MinDist.at(U, V), MinDist.at(V, U),
                        MinDist.initiationInterval(),
                        [&](int A, int B) { Forbid(SU, A, SV, B); });
    }
  }
}

/// CDCL + encoder statistics for one engine call. Calls on a solver that
/// outlives them (the incremental II ladder) report per-call deltas, so
/// accumulating attempts never double-counts shared work.
struct SatEngineStats {
  long Variables = 0;
  long Clauses = 0; ///< problem clauses added this attempt (incl. cuts)
  long Decisions = 0;
  long Propagations = 0;
  long Conflicts = 0;
  long Restarts = 0;
  long Learned = 0;
  long Refinements = 0; ///< lazy positive-cycle cuts added
};

/// One engine call's share of a solver's work, read against the counters
/// at construction.
class SolverDelta {
public:
  explicit SolverDelta(const SatSolver &Solver)
      : Solver(Solver), Before(Solver.stats()), Vars(Solver.numVars()),
        Clauses(Solver.numClauses()) {}

  /// Conflicts the call may still spend under \p Budget; it stops once
  /// this is <= 0, so a budget <= 0 gives up before any search — the one
  /// rule of every SAT entry point, as for branch-and-bound node budgets.
  long conflictsLeft(long Budget) const {
    return Budget - (Solver.stats().Conflicts - Before.Conflicts);
  }

  /// Adds the call's new variables, clauses and CDCL counters to \p Stats.
  void addTo(SatEngineStats &Stats) const {
    const SatSolverStats &Now = Solver.stats();
    Stats.Variables += Solver.numVars() - Vars;
    Stats.Clauses += Solver.numClauses() - Clauses;
    Stats.Decisions += Now.Decisions - Before.Decisions;
    Stats.Propagations += Now.Propagations - Before.Propagations;
    Stats.Conflicts += Now.Conflicts - Before.Conflicts;
    Stats.Restarts += Now.Restarts - Before.Restarts;
    Stats.Learned += Now.Learned - Before.Learned;
  }

private:
  const SatSolver &Solver;
  const SatSolverStats Before;
  const int Vars;
  const int Clauses;
};

/// The machine-op index: operations a functional unit executes. Pseudo-
/// operations (Start, Stop) take no unit and no residue.
struct MachineOps {
  MachineOps(const LoopBody &Body, const MachineModel &Machine)
      : Slot(static_cast<size_t>(Body.numOps()), -1) {
    for (int X = 0; X < Body.numOps(); ++X) {
      if (Machine.unitFor(Body.op(X).Opc) == FuKind::None)
        continue;
      Slot[static_cast<size_t>(X)] = static_cast<int>(Real.size());
      Real.push_back(X);
    }
  }

  std::vector<int> Real; ///< op ids with a functional unit, ascending
  std::vector<int> Slot; ///< op id -> index in Real, -1 for pseudo-ops
};

/// Sets Start to 0 and every other pseudo-operation in \p Times to the
/// earliest cycle consistent with the real operations' times there; MinDist
/// maximality shows this satisfies the remaining constraints.
void placePseudoOps(const LoopBody &Body, const MinDistMatrix &MinDist,
                    const MachineOps &Ops, std::vector<int> &Times);

/// Modulo-resource conflicts under the pre-scheduling functional-unit
/// assignment, probed against the reservation table itself — the single
/// source of truth, multi-cycle non-pipelined reservations included.
class ResourceProbe {
public:
  ResourceProbe(const LoopBody &Body, const MachineModel &Machine,
                const std::vector<int> &FuInstance, int II)
      : Body(Body), Machine(Machine), FuInstance(FuInstance),
        Mrt(Machine, II) {}

  /// False when op \p X cannot occupy residue \p A even alone (a
  /// non-pipelined reservation wrapping onto itself).
  bool fitsAlone(int X, int A) const {
    const Opcode Opc = Body.op(X).Opc;
    return Mrt.canPlace(Opc, Machine.unitFor(Opc),
                        FuInstance[static_cast<size_t>(X)], A);
  }

  /// Calls Conflict(A, B), in (A, B) order, for every residue pair at
  /// which op \p U at A leaves no room for op \p V at B. Returns false for
  /// ops on different functional-unit instances, which never conflict.
  template <typename ConflictFn>
  bool forEachConflict(int U, int V, ConflictFn Conflict) {
    const Opcode OpcU = Body.op(U).Opc;
    const Opcode OpcV = Body.op(V).Opc;
    const FuKind Kind = Machine.unitFor(OpcU);
    const int Inst = FuInstance[static_cast<size_t>(U)];
    if (Kind != Machine.unitFor(OpcV) ||
        Inst != FuInstance[static_cast<size_t>(V)])
      return false;
    for (int A = 0; A < Mrt.initiationInterval(); ++A) {
      if (!Mrt.canPlace(OpcU, Kind, Inst, A))
        continue;
      Mrt.place(OpcU, Kind, Inst, A);
      for (int B = 0; B < Mrt.initiationInterval(); ++B)
        if (!Mrt.canPlace(OpcV, Kind, Inst, B))
          Conflict(A, B);
      Mrt.remove(OpcU, Kind, Inst, A);
    }
    return true;
  }

private:
  const LoopBody &Body;
  const MachineModel &Machine;
  const std::vector<int> &FuInstance;
  ModuloResourceTable Mrt;
};

/// The tightened constraint graph of one decoded residue assignment
/// (Rho, read off a model): each connected pair of real slots
/// carries tighten(MinDist(x, y), rho_y - rho_x), the caller may raise
/// further arcs (the CGRA hop overlay), and close() runs max-plus
/// Floyd-Warshall. Buffers persist across models.
class TightenedClosure {
public:
  TightenedClosure(const LoopBody &Body, const MachineModel &Machine)
      : Ops(Body, Machine), Body(Body) {}

  const MachineOps Ops; ///< the real slots the closure ranges over
  std::vector<int> Rho; ///< one residue per real slot

  /// Reads Rho off \p Solver's model, where VarOf(S, R) is real slot S's
  /// variable for residue R; exactly one of them is true per slot.
  template <typename VarFn>
  void readModel(const SatSolver &Solver, int II, VarFn VarOf) {
    Rho.assign(Ops.Real.size(), -1);
    for (size_t S = 0; S < Ops.Real.size(); ++S) {
      for (int Res = 0; Res < II; ++Res) {
        if (Solver.modelValue(VarOf(S, Res))) {
          assert(Rho[S] < 0 && "exactly-one residue violated");
          Rho[S] = Res;
        }
      }
      assert(Rho[S] >= 0 && "operation left without a residue");
    }
  }

  /// Loads the direct bounds at the II of \p Relation, which must outlive
  /// decode().
  void load(const MinDistMatrix &Relation);

  /// Adds a dependence bound \p C from real slot \p I to \p J, tightened
  /// like the MinDist bounds (the caller's extra arcs).
  void raise(size_t I, size_t J, long C) {
    T[I * R + J] = std::max(T[I * R + J], tighten(C, Rho[J] - Rho[I], II));
  }

  /// False as soon as some diagonal goes positive: no integer issue times
  /// realize these residues.
  bool close();

  /// After close() failed: whether slot \p U is mutually connected with
  /// the slot whose diagonal went positive. The cycle's arcs run inside
  /// that strongly connected set and their weights depend only on those
  /// slots' choices, so blocking exactly these choices is a sound cut; it
  /// excludes the current model, so each refinement shrinks the finite
  /// residue space.
  bool onCycle(size_t U) const {
    const size_t V = static_cast<size_t>(CycleSlot);
    return U == V || (isPath(T[V * R + U]) && isPath(T[U * R + V]));
  }

  /// After close() succeeded: canonical earliest issue times, as a
  /// branch-and-bound leaf with these residues materializes them. Real
  /// operations take their longest tightened path from Start, whose
  /// outgoing bounds are clamped at zero (pinning t(Start) = 0 and every
  /// time non-negative); pseudo-operations follow placePseudoOps.
  void decode(std::vector<int> &TimesOut);

private:
  const LoopBody &Body;
  const MinDistMatrix *MinDist = nullptr;
  size_t R = 0;
  long II = 1;
  std::vector<long> T; ///< the closure over real slots, row-major
  int CycleSlot = -1;
};

} // namespace lsms

#endif // LSMS_SAT_RESIDUESPACE_H
