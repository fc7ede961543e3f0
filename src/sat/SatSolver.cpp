#include "sat/SatSolver.h"

#include <algorithm>
#include <cassert>

using namespace lsms;

namespace {

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
long luby(long I) {
  // Find the finite subsequence containing index I (the smallest full
  // sequence of length 2^Seq - 1 covering it), then recurse into it.
  long Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) >> 1;
    --Seq;
    I %= Size;
  }
  return 1L << Seq;
}

constexpr long RestartBase = 64;
constexpr double VarDecay = 1.0 / 0.95;
constexpr double ClauseDecay = 1.0 / 0.999;
constexpr double RescaleLimit = 1e100;

} // namespace

const char *lsms::satResultName(SatResult Result) {
  switch (Result) {
  case SatResult::Sat:
    return "sat";
  case SatResult::Unsat:
    return "unsat";
  case SatResult::Unknown:
    return "unknown";
  }
  return "?";
}

SatSolver::SatSolver() = default;

int SatSolver::newVar() {
  const int V = numVars();
  Watches.emplace_back();
  Watches.emplace_back();
  Assigns.push_back(0);
  VarReason.push_back(NoReason);
  VarLevel.push_back(0);
  Activity.push_back(0);
  Polarity.push_back(0);
  Seen.push_back(0);
  // A fresh variable has activity 0, which no variable undercuts, and the
  // largest index, so it belongs at the end of the heap: percolating it up
  // would not move it.
  HeapIndex.push_back(static_cast<int>(Heap.size()));
  Heap.push_back(V);
  return V;
}

// -- order heap -------------------------------------------------------------

bool SatSolver::heapLess(int A, int B) const {
  const double ActA = Activity[static_cast<size_t>(A)];
  const double ActB = Activity[static_cast<size_t>(B)];
  if (ActA != ActB)
    return ActA > ActB;
  return A < B; // deterministic tie-break
}

void SatSolver::heapPercolateUp(int Pos) {
  const int V = Heap[static_cast<size_t>(Pos)];
  while (Pos > 0) {
    const int Parent = (Pos - 1) / 2;
    if (!heapLess(V, Heap[static_cast<size_t>(Parent)]))
      break;
    Heap[static_cast<size_t>(Pos)] = Heap[static_cast<size_t>(Parent)];
    HeapIndex[static_cast<size_t>(Heap[static_cast<size_t>(Pos)])] = Pos;
    Pos = Parent;
  }
  Heap[static_cast<size_t>(Pos)] = V;
  HeapIndex[static_cast<size_t>(V)] = Pos;
}

void SatSolver::heapPercolateDown(int Pos) {
  const int V = Heap[static_cast<size_t>(Pos)];
  const int Size = static_cast<int>(Heap.size());
  for (;;) {
    int Child = 2 * Pos + 1;
    if (Child >= Size)
      break;
    if (Child + 1 < Size &&
        heapLess(Heap[static_cast<size_t>(Child + 1)],
                 Heap[static_cast<size_t>(Child)]))
      ++Child;
    if (!heapLess(Heap[static_cast<size_t>(Child)], V))
      break;
    Heap[static_cast<size_t>(Pos)] = Heap[static_cast<size_t>(Child)];
    HeapIndex[static_cast<size_t>(Heap[static_cast<size_t>(Pos)])] = Pos;
    Pos = Child;
  }
  Heap[static_cast<size_t>(Pos)] = V;
  HeapIndex[static_cast<size_t>(V)] = Pos;
}

void SatSolver::heapInsert(int Var) {
  if (heapInHeap(Var))
    return;
  Heap.push_back(Var);
  HeapIndex[static_cast<size_t>(Var)] = static_cast<int>(Heap.size()) - 1;
  heapPercolateUp(static_cast<int>(Heap.size()) - 1);
}

void SatSolver::heapDropAssigned() {
  // Root facts are never unassigned, so once out of the heap they stay out.
  // The (activity, index) order is strict, so the rebuilt heap yields the
  // same first unassigned variable as popping the facts one at a time.
  size_t Kept = 0;
  for (const int V : Heap) {
    if (value(V) == 0)
      Heap[Kept++] = V;
    else
      HeapIndex[static_cast<size_t>(V)] = -1;
  }
  Heap.resize(Kept);
  for (size_t I = 0; I < Kept; ++I)
    HeapIndex[static_cast<size_t>(Heap[I])] = static_cast<int>(I);
  for (size_t I = Kept / 2; I > 0; --I)
    heapPercolateDown(static_cast<int>(I - 1));
}

int SatSolver::heapPopMax() {
  const int V = Heap[0];
  HeapIndex[static_cast<size_t>(V)] = -1;
  const int Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapIndex[static_cast<size_t>(Last)] = 0;
    heapPercolateDown(0);
  }
  return V;
}

// -- activities -------------------------------------------------------------

void SatSolver::bumpVar(int Var) {
  double &Act = Activity[static_cast<size_t>(Var)];
  Act += VarInc;
  if (Act > RescaleLimit) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (heapInHeap(Var))
    heapPercolateUp(HeapIndex[static_cast<size_t>(Var)]);
}

void SatSolver::decayVarActivity() { VarInc *= VarDecay; }

void SatSolver::bumpClause(Clause &C) {
  C.Act += ClaInc;
  if (C.Act > RescaleLimit) {
    for (int Id : LearntIds)
      Clauses[static_cast<size_t>(Id)].Act *= 1e-100;
    ClaInc *= 1e-100;
  }
}

void SatSolver::decayClauseActivity() { ClaInc *= ClauseDecay; }

// -- trail ------------------------------------------------------------------

void SatSolver::uncheckedEnqueue(Lit P, int Reason) {
  const int V = litVar(P);
  assert(value(V) == 0 && "enqueue of an assigned variable");
  Assigns[static_cast<size_t>(V)] = litSign(P) ? -1 : 1;
  // Root-level facts need no reason; recording none keeps reduceDB free to
  // delete any learned clause while the solver sits at level 0.
  VarReason[static_cast<size_t>(V)] =
      decisionLevel() == 0 ? NoReason : Reason;
  VarLevel[static_cast<size_t>(V)] = decisionLevel();
  Trail.push_back(P);
}

void SatSolver::cancelUntil(int Level) {
  if (decisionLevel() <= Level)
    return;
  const size_t Bound =
      static_cast<size_t>(TrailLim[static_cast<size_t>(Level)]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    const Lit P = Trail[I - 1];
    const int V = litVar(P);
    Polarity[static_cast<size_t>(V)] = litSign(P) ? 1 : 0; // phase saving
    Assigns[static_cast<size_t>(V)] = 0;
    VarReason[static_cast<size_t>(V)] = NoReason;
    heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(static_cast<size_t>(Level));
  QHead = Trail.size();
}

// -- clause management ------------------------------------------------------

void SatSolver::attachClause(int Id) {
  const Clause &C = Clauses[static_cast<size_t>(Id)];
  assert(C.Size >= 2 && "attach of a short clause");
  const Lit *Ls = lits(C);
  Watches[static_cast<size_t>(Ls[0].Code)].push_back(Id);
  Watches[static_cast<size_t>(Ls[1].Code)].push_back(Id);
}

int SatSolver::addClauseRecord(std::span<const Lit> Lits, bool Learnt) {
  const int Id = static_cast<int>(Clauses.size());
  Clause C;
  C.Off = static_cast<int>(LitPool.size());
  C.Size = static_cast<int>(Lits.size());
  C.Learnt = Learnt;
  LitPool.insert(LitPool.end(), Lits.begin(), Lits.end());
  Clauses.push_back(C);
  attachClause(Id);
  if (Learnt)
    LearntIds.push_back(Id);
  else
    ++NumProblemClauses;
  return Id;
}

bool SatSolver::addClause(std::span<const Lit> Lits) {
  if (!Ok)
    return false;
  assert(decisionLevel() == 0 && "clauses are added at the root level");

  // Normalize in place in AddBuf: sort, merge duplicates, detect
  // tautologies, drop literals already false at the root, succeed early on
  // literals already true. The kept prefix [0, N) never overtakes the read
  // position.
  AddBuf.assign(Lits.begin(), Lits.end());
  std::sort(AddBuf.begin(), AddBuf.end());
  size_t N = 0;
  for (const Lit L : AddBuf) {
    assert(litVar(L) >= 0 && litVar(L) < numVars() && "unknown variable");
    if (N > 0 && AddBuf[N - 1] == L)
      continue;
    if (N > 0 && AddBuf[N - 1] == ~L)
      return true; // tautology
    if (value(L) > 0 && VarLevel[static_cast<size_t>(litVar(L))] == 0)
      return true; // already satisfied
    if (value(L) < 0 && VarLevel[static_cast<size_t>(litVar(L))] == 0)
      continue; // already falsified
    AddBuf[N++] = L;
  }

  if (N == 0) {
    Ok = false;
    return false;
  }
  if (N == 1) {
    const Lit Unit = AddBuf[0];
    if (value(Unit) < 0) {
      Ok = false;
      return false;
    }
    if (value(Unit) == 0)
      uncheckedEnqueue(Unit, NoReason);
    if (propagate() != NoReason)
      Ok = false;
    return Ok;
  }
  addClauseRecord(std::span<const Lit>(AddBuf.data(), N), /*Learnt=*/false);
  return true;
}

void SatSolver::rebuildWatches() {
  for (WatchList &W : Watches)
    W.clear();
  for (int Id = 0; Id < static_cast<int>(Clauses.size()); ++Id)
    if (!Clauses[static_cast<size_t>(Id)].Dead)
      attachClause(Id);
}

void SatSolver::reduceDB() {
  assert(decisionLevel() == 0 && "reduceDB runs between restarts");
  // Keep binary clauses unconditionally; drop the low-activity half of the
  // rest (ties to the older clause id, keeping the run deterministic).
  std::vector<int> Candidates;
  Candidates.reserve(LearntIds.size());
  for (int Id : LearntIds)
    if (Clauses[static_cast<size_t>(Id)].Size > 2)
      Candidates.push_back(Id);
  if (Candidates.empty())
    return;
  std::sort(Candidates.begin(), Candidates.end(), [&](int A, int B) {
    const Clause &CA = Clauses[static_cast<size_t>(A)];
    const Clause &CB = Clauses[static_cast<size_t>(B)];
    if (CA.Act != CB.Act)
      return CA.Act < CB.Act;
    return A < B;
  });
  const size_t Drop = Candidates.size() / 2;
  for (size_t I = 0; I < Drop; ++I) {
    Clause &C = Clauses[static_cast<size_t>(Candidates[I])];
    C.Dead = true;
    ++Stats.Deleted;
  }
  LearntIds.erase(std::remove_if(LearntIds.begin(), LearntIds.end(),
                                 [&](int Id) {
                                   return Clauses[static_cast<size_t>(Id)]
                                       .Dead;
                                 }),
                  LearntIds.end());

  // Compact the literal arena in place: clause ids were assigned in pool
  // order, so a single forward pass moves every surviving span left.
  size_t WritePos = 0;
  for (Clause &C : Clauses) {
    if (C.Dead) {
      C.Size = 0;
      continue;
    }
    const size_t Off = static_cast<size_t>(C.Off);
    const size_t Size = static_cast<size_t>(C.Size);
    if (Off != WritePos)
      std::copy(LitPool.begin() + static_cast<long>(Off),
                LitPool.begin() + static_cast<long>(Off + Size),
                LitPool.begin() + static_cast<long>(WritePos));
    C.Off = static_cast<int>(WritePos);
    WritePos += Size;
  }
  LitPool.resize(WritePos);
  rebuildWatches();
}

// -- propagation ------------------------------------------------------------

int SatSolver::propagate() {
  while (QHead < Trail.size()) {
    const Lit P = Trail[QHead++]; // P just became true; ~P is false
    // Moved watches go to lists of non-false literals, never to this one,
    // so its buffer and length stay put during the walk.
    WatchList &WL = Watches[static_cast<size_t>((~P).Code)];
    int *const Ids = WL.data();
    const int Size = WL.size();
    int Keep = 0;
    for (int I = 0; I < Size; ++I) {
      const int Id = Ids[I];
      Clause &C = Clauses[static_cast<size_t>(Id)];
      Lit *Ls = lits(C);
      // Move the false watch to slot 1.
      if (Ls[0] == ~P)
        std::swap(Ls[0], Ls[1]);
      assert(Ls[1] == ~P && "watch list out of sync");
      if (value(Ls[0]) > 0) {
        Ids[Keep++] = Id; // clause already satisfied by the other watch
        continue;
      }
      bool Moved = false;
      for (int K = 2; K < C.Size; ++K) {
        if (value(Ls[K]) >= 0) {
          std::swap(Ls[1], Ls[K]);
          Watches[static_cast<size_t>(Ls[1].Code)].push_back(Id);
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // Unit or conflicting.
      Ids[Keep++] = Id;
      if (value(Ls[0]) < 0) {
        for (int J = I + 1; J < Size; ++J)
          Ids[Keep++] = Ids[J];
        WL.truncate(Keep);
        QHead = Trail.size();
        return Id;
      }
      uncheckedEnqueue(Ls[0], Id);
      ++Stats.Propagations;
    }
    WL.truncate(Keep);
  }
  return NoReason;
}

// -- conflict analysis ------------------------------------------------------

int SatSolver::analyze(int Confl) {
  LearntLits.assign(1, Lit{}); // slot 0 is the asserting literal
  ToClear.clear();
  int PathCount = 0;
  Lit P{};
  int Index = static_cast<int>(Trail.size()) - 1;

  do {
    assert(Confl != NoReason && "no reason on the conflict path");
    Clause &C = Clauses[static_cast<size_t>(Confl)];
    if (C.Learnt)
      bumpClause(C);
    const Lit *Ls = lits(C);
    for (int J = (P.Code < 0 ? 0 : 1); J < C.Size; ++J) {
      const Lit Q = Ls[J];
      const int V = litVar(Q);
      if (Seen[static_cast<size_t>(V)] ||
          VarLevel[static_cast<size_t>(V)] == 0)
        continue;
      bumpVar(V);
      Seen[static_cast<size_t>(V)] = 1;
      ToClear.push_back(V);
      if (VarLevel[static_cast<size_t>(V)] >= decisionLevel())
        ++PathCount;
      else
        LearntLits.push_back(Q);
    }
    while (!Seen[static_cast<size_t>(litVar(Trail[static_cast<size_t>(
        Index)]))])
      --Index;
    P = Trail[static_cast<size_t>(Index)];
    --Index;
    Confl = VarReason[static_cast<size_t>(litVar(P))];
    Seen[static_cast<size_t>(litVar(P))] = 0;
    --PathCount;
  } while (PathCount > 0);
  LearntLits[0] = ~P;

  // Backjump to the second-highest decision level in the learned clause,
  // moving that literal into the other watch slot.
  int BtLevel = 0;
  if (LearntLits.size() > 1) {
    size_t MaxIdx = 1;
    for (size_t J = 2; J < LearntLits.size(); ++J)
      if (VarLevel[static_cast<size_t>(litVar(LearntLits[J]))] >
          VarLevel[static_cast<size_t>(litVar(LearntLits[MaxIdx]))])
        MaxIdx = J;
    std::swap(LearntLits[1], LearntLits[MaxIdx]);
    BtLevel = VarLevel[static_cast<size_t>(litVar(LearntLits[1]))];
  }

  for (int V : ToClear)
    Seen[static_cast<size_t>(V)] = 0;
  return BtLevel;
}

void SatSolver::analyzeFinal(Lit P) {
  // P is an assumption found false under the current trail. Walk the
  // implication graph backwards from ~P; every assumption decision reached
  // joins the core. Literals below level 1 are facts and never contribute.
  FinalConflictLits.assign(1, P);
  if (VarLevel[static_cast<size_t>(litVar(P))] == 0 || decisionLevel() == 0)
    return;
  Seen[static_cast<size_t>(litVar(P))] = 1;
  const size_t Bound = static_cast<size_t>(TrailLim[0]);
  for (size_t I = Trail.size(); I > Bound; --I) {
    const Lit Q = Trail[I - 1];
    const int V = litVar(Q);
    if (!Seen[static_cast<size_t>(V)])
      continue;
    const int Reason = VarReason[static_cast<size_t>(V)];
    if (Reason == NoReason) {
      assert(VarLevel[static_cast<size_t>(V)] > 0 &&
             "decision below the first assumption level");
      FinalConflictLits.push_back(Q);
    } else {
      const Clause &C = Clauses[static_cast<size_t>(Reason)];
      const Lit *Ls = lits(C);
      for (int J = 1; J < C.Size; ++J) {
        const int W = litVar(Ls[J]);
        if (VarLevel[static_cast<size_t>(W)] > 0)
          Seen[static_cast<size_t>(W)] = 1;
      }
    }
    Seen[static_cast<size_t>(V)] = 0;
  }
  Seen[static_cast<size_t>(litVar(P))] = 0;
}

Lit SatSolver::pickBranchLit() {
  while (!Heap.empty()) {
    const int V = heapPopMax();
    if (value(V) == 0)
      return mkLit(V, Polarity[static_cast<size_t>(V)] == 0);
  }
  return Lit{};
}

// -- main search ------------------------------------------------------------

SatResult SatSolver::solve(long ConflictBudget) {
  return solveUnderAssumptions({}, ConflictBudget);
}

SatResult SatSolver::solveUnderAssumptions(
    const std::vector<Lit> &Assumptions, long ConflictBudget) {
  if (!Ok) {
    FinalConflictLits.clear();
    return SatResult::Unsat;
  }
  // Copy before clearing the previous core: callers may legitimately pass
  // finalConflict() itself back in (e.g. to re-probe a derived core).
  Assumps = Assumptions;
  FinalConflictLits.clear();
  const SatResult Result = search(ConflictBudget);
  Assumps.clear();
  cancelUntil(0);
  return Result;
}

SatResult SatSolver::search(long ConflictBudget) {
  cancelUntil(0);
  if (propagate() != NoReason) {
    Ok = false;
    return SatResult::Unsat;
  }
  if (Trail.size() != RootTrailDropped) {
    heapDropAssigned();
    RootTrailDropped = Trail.size();
  }

  const long BudgetStart = Stats.Conflicts;
  long RestartIndex = 0;
  long RestartLimit = RestartBase * luby(RestartIndex);
  long ConflictsThisRestart = 0;

  for (;;) {
    if (StopFlag && StopFlag->load(std::memory_order_relaxed))
      return SatResult::Unknown;

    const int Confl = propagate();
    if (Confl != NoReason) {
      ++Stats.Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0) {
        Ok = false;
        return SatResult::Unsat;
      }
      cancelUntil(analyze(Confl));
      ++Stats.Learned;
      Stats.LearnedLiterals += static_cast<long>(LearntLits.size());
      if (LearntLits.size() == 1) {
        uncheckedEnqueue(LearntLits[0], NoReason);
      } else {
        const int Id = addClauseRecord(LearntLits, /*Learnt=*/true);
        bumpClause(Clauses[static_cast<size_t>(Id)]);
        uncheckedEnqueue(LearntLits[0], Id);
      }
      decayVarActivity();
      decayClauseActivity();
      if (ConflictBudget >= 0 &&
          Stats.Conflicts - BudgetStart >= ConflictBudget)
        return SatResult::Unknown;
      continue;
    }

    if (ConflictsThisRestart >= RestartLimit) {
      ++Stats.Restarts;
      ++RestartIndex;
      RestartLimit = RestartBase * luby(RestartIndex);
      ConflictsThisRestart = 0;
      cancelUntil(0);
      if (LearntIds.size() > MaxLearnts) {
        reduceDB();
        MaxLearnts += MaxLearnts / 2;
      }
      continue;
    }

    // Re-establish any assumptions popped by backjumping or restarts
    // before making free decisions. An already-true assumption gets an
    // empty decision level to keep level numbering aligned with the
    // assumption index; a false one yields the final conflict.
    Lit Next{};
    while (decisionLevel() < static_cast<int>(Assumps.size())) {
      const Lit P = Assumps[static_cast<size_t>(decisionLevel())];
      if (value(P) > 0) {
        TrailLim.push_back(static_cast<int>(Trail.size()));
      } else if (value(P) < 0) {
        analyzeFinal(P);
        return SatResult::Unsat;
      } else {
        Next = P;
        break;
      }
    }

    if (Next.Code < 0)
      Next = pickBranchLit();
    if (Next.Code < 0) {
      // Every variable is assigned: a model.
      Model.assign(Assigns.begin(), Assigns.end());
      return SatResult::Sat;
    }
    ++Stats.Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    uncheckedEnqueue(Next, NoReason);
  }
}
