//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained CDCL SAT solver in the MiniSat lineage: two
/// watched literals per clause, first-UIP conflict-clause learning,
/// VSIDS-style variable activities with a deterministic order heap, Luby
/// restarts, phase saving, and activity-driven learned-clause deletion.
///
/// The solver exists to serve as the decision core of the SAT modulo-
/// scheduling engine (SatScheduler.h), so it is deliberately deterministic:
/// no randomness anywhere, all ties broken by variable/clause index, and
/// the same clause stream always yields the same model, the same conflict
/// count, and the same learned clauses. Clauses may be added between
/// solve() calls (the scheduling encoder adds lazy positive-cycle cuts and
/// re-solves); learned clauses persist across calls.
///
/// Incremental interface: solveUnderAssumptions() decides satisfiability
/// under a conjunction of assumption literals without committing them as
/// facts. Assumptions act as pseudo-decisions, so every learned clause is
/// implied by the clause database alone (an assumption can never be a
/// resolution pivot — its reason is empty) and persists soundly across
/// calls with different assumptions. This is what makes activation-literal
/// constraint groups work: a group clause (a ∨ C) is switched on by
/// assuming ¬a, switched off by simply not assuming it, and permanently
/// retired with the unit clause {a}.
///
/// Building a solver costs its clauses and little else: clause literals
/// live in a single arena (LitPool) that reduceDB compacts in place,
/// addClause reads its literals through a view and normalizes them in a
/// member buffer, each literal's watch list keeps its first few clause ids
/// inline (WatchList), and the search's learned-clause and analysis
/// buffers are members reused across conflicts.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SAT_SATSOLVER_H
#define LSMS_SAT_SATSOLVER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace lsms {

/// A propositional literal: variable index plus sign, encoded as
/// 2*var + (negated ? 1 : 0). Invalid literals have Code < 0.
struct Lit {
  int Code = -1;

  friend bool operator==(Lit A, Lit B) { return A.Code == B.Code; }
  friend bool operator!=(Lit A, Lit B) { return A.Code != B.Code; }
  friend bool operator<(Lit A, Lit B) { return A.Code < B.Code; }
};

/// Builds the literal for \p Var (non-negative), negated when \p Neg.
inline Lit mkLit(int Var, bool Neg = false) {
  return Lit{2 * Var + (Neg ? 1 : 0)};
}

/// Negation.
inline Lit operator~(Lit L) { return Lit{L.Code ^ 1}; }

inline int litVar(Lit L) { return L.Code >> 1; }
inline bool litSign(Lit L) { return (L.Code & 1) != 0; }

/// Outcome of a solve() call.
enum class SatResult : uint8_t {
  Sat,     ///< a model was found (query it with modelValue)
  Unsat,   ///< unsatisfiable (outright, or under the given assumptions)
  Unknown, ///< the conflict budget ran out or the stop flag was raised
};

/// Returns "sat", "unsat", or "unknown".
const char *satResultName(SatResult Result);

/// Search statistics, cumulative over the solver's lifetime.
struct SatSolverStats {
  long Decisions = 0;
  long Propagations = 0; ///< literals enqueued by unit propagation
  long Conflicts = 0;
  long Restarts = 0;
  long Learned = 0;        ///< learned clauses (incl. learned units)
  long LearnedLiterals = 0;
  long Deleted = 0;        ///< learned clauses removed by reduceDB
};

/// The clause ids watching one literal, in attach order. The first
/// InlineIds live inside the object, which is the size of a
/// std::vector<int>; a longer list moves to one heap buffer that doubles
/// as it grows. Lists only grow at the end and shrink by truncation,
/// exactly like the vector they replace, so watch order is unchanged.
class WatchList {
public:
  WatchList() = default;
  WatchList(WatchList &&Other) noexcept
      : Size(Other.Size), Capacity(Other.Capacity) {
    std::memcpy(&Store, &Other.Store, sizeof(Store));
    Other.Size = 0;
    Other.Capacity = InlineIds;
  }
  WatchList(const WatchList &) = delete;
  WatchList &operator=(const WatchList &) = delete;
  WatchList &operator=(WatchList &&) = delete;
  ~WatchList() {
    if (spilled())
      std::free(Store.Heap);
  }

  int size() const { return Size; }
  int *data() { return spilled() ? Store.Heap : Store.Inline; }

  void push_back(int Id) {
    if (Size == Capacity)
      grow();
    data()[Size++] = Id;
  }
  /// Keeps the first \p N ids (N <= size()).
  void truncate(int N) { Size = N; }
  void clear() { Size = 0; }

private:
  static constexpr int InlineIds = 4;
  bool spilled() const { return Capacity > InlineIds; }
  void grow() {
    const int NewCapacity = 2 * Capacity;
    const size_t Bytes = sizeof(int) * static_cast<size_t>(NewCapacity);
    void *Buffer = spilled() ? std::realloc(Store.Heap, Bytes)
                             : std::malloc(Bytes);
    if (!Buffer)
      throw std::bad_alloc();
    if (!spilled())
      std::memcpy(Buffer, Store.Inline, sizeof(Store.Inline));
    Store.Heap = static_cast<int *>(Buffer);
    Capacity = NewCapacity;
  }

  union {
    int Inline[InlineIds];
    int *Heap;
  } Store{};
  int Size = 0;
  int Capacity = InlineIds;
};

static_assert(sizeof(WatchList) == sizeof(std::vector<int>),
              "a watch list is the size of the vector it replaces");

class SatSolver {
public:
  SatSolver();

  /// Creates a fresh variable and returns its index.
  int newVar();
  int numVars() const { return static_cast<int>(Activity.size()); }

  /// Adds a clause over existing variables. Returns false when the clause
  /// set is already unsatisfiable at the root level (further addClause /
  /// solve calls then keep reporting failure). Duplicate literals are
  /// merged and tautologies are dropped. The literals are read, not kept:
  /// normalization works in a member buffer, so adding a clause allocates
  /// nothing beyond the growth of the clause arena and the watch lists.
  bool addClause(std::span<const Lit> Lits);
  bool addClause(std::initializer_list<Lit> Lits) {
    return addClause(std::span<const Lit>(Lits.begin(), Lits.size()));
  }

  /// Number of problem (non-learned) clauses currently alive.
  int numClauses() const { return NumProblemClauses; }

  /// True until a root-level contradiction has been derived. Stays true
  /// when a solveUnderAssumptions() call returns Unsat only because of its
  /// assumptions — the solver remains usable with other assumptions.
  bool okay() const { return Ok; }

  /// Decides satisfiability. \p ConflictBudget < 0 means unlimited;
  /// otherwise the call gives up with Unknown once it has spent that many
  /// conflicts. Deterministic: depends only on the clause stream and the
  /// budgets of prior calls.
  SatResult solve(long ConflictBudget = -1);

  /// Decides satisfiability of the clause set conjoined with the given
  /// assumption literals. Assumptions are pseudo-decisions: they are not
  /// asserted as facts, learned clauses never depend on them, and the
  /// solver state remains valid for later calls with different
  /// assumptions. On Unsat caused by the assumptions, finalConflict()
  /// holds an unsatisfiable core of them; on outright Unsat okay() turns
  /// false and the core is empty.
  SatResult solveUnderAssumptions(const std::vector<Lit> &Assumptions,
                                  long ConflictBudget = -1);

  /// After solveUnderAssumptions() == Unsat: the subset of the passed
  /// assumptions (same polarity) whose conjunction is contradicted by the
  /// clause set. Empty when the clause set is unsatisfiable outright.
  const std::vector<Lit> &finalConflict() const { return FinalConflictLits; }

  /// Installs a cooperative cancellation flag (nullptr to clear). The
  /// search polls it once per decision/conflict and returns Unknown when
  /// it is set. Results then depend on wall-clock timing, so deterministic
  /// callers leave it unset; the portfolio race mode uses it for
  /// first-finisher-wins cancellation.
  void setStopFlag(const std::atomic<bool> *Flag) { StopFlag = Flag; }

  /// Value of \p Var in the last model (valid only after solve() == Sat).
  bool modelValue(int Var) const {
    return Model[static_cast<size_t>(Var)] > 0;
  }

  const SatSolverStats &stats() const { return Stats; }

private:
  /// One clause: a span [Off, Off+Size) of LitPool. Watched literals are
  /// the first two literals of the span.
  struct Clause {
    int Off = 0;
    int Size = 0;
    double Act = 0;
    bool Learnt = false;
    bool Dead = false;
  };

  static constexpr int NoReason = -1;

  Lit *lits(Clause &C) { return LitPool.data() + C.Off; }
  const Lit *lits(const Clause &C) const { return LitPool.data() + C.Off; }

  // -- assignment / trail ---------------------------------------------------
  int8_t value(int Var) const { return Assigns[static_cast<size_t>(Var)]; }
  int8_t value(Lit L) const {
    const int8_t V = Assigns[static_cast<size_t>(litVar(L))];
    return litSign(L) ? static_cast<int8_t>(-V) : V;
  }
  int decisionLevel() const { return static_cast<int>(TrailLim.size()); }
  void uncheckedEnqueue(Lit P, int Reason);
  void cancelUntil(int Level);

  // -- search ---------------------------------------------------------------
  SatResult search(long ConflictBudget);
  int propagate(); ///< returns conflicting clause id or NoReason
  int analyze(int Confl); ///< fills LearntLits, returns the backjump level
  void analyzeFinal(Lit P); ///< assumption core for failed assumption P
  Lit pickBranchLit();
  void attachClause(int Id);
  int addClauseRecord(std::span<const Lit> Lits, bool Learnt);
  void reduceDB();
  void rebuildWatches();

  // -- activities -----------------------------------------------------------
  void bumpVar(int Var);
  void decayVarActivity();
  void bumpClause(Clause &C);
  void decayClauseActivity();

  // -- order heap (max-heap on activity, ties to the smaller index) --------
  bool heapLess(int A, int B) const;
  void heapPercolateUp(int Pos);
  void heapPercolateDown(int Pos);
  void heapInsert(int Var);
  int heapPopMax();
  bool heapInHeap(int Var) const {
    return HeapIndex[static_cast<size_t>(Var)] >= 0;
  }
  void heapDropAssigned();

  bool Ok = true;
  std::vector<Clause> Clauses;
  std::vector<Lit> LitPool; ///< clause-literal arena, compacted by reduceDB
  std::vector<int> LearntIds;
  int NumProblemClauses = 0;
  std::vector<WatchList> Watches; ///< per literal code

  std::vector<int8_t> Assigns; ///< per var: 1 true, -1 false, 0 unassigned
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;
  std::vector<int> VarReason;
  std::vector<int> VarLevel;

  std::vector<double> Activity;
  double VarInc = 1.0;
  double ClaInc = 1.0;
  std::vector<char> Polarity; ///< saved phase; initial false

  std::vector<int> Heap;      ///< variable indices, heap-ordered
  std::vector<int> HeapIndex; ///< position in Heap, -1 when absent
  /// Root trail length when search() last dropped root facts from Heap.
  size_t RootTrailDropped = 0;

  std::vector<Lit> AddBuf;     ///< addClause normalization scratch
  std::vector<Lit> LearntLits; ///< analyze: the clause being learned
  std::vector<char> Seen;      ///< analyze scratch, all zero between calls
  std::vector<int> ToClear;    ///< analyze: variables whose Seen is set
  std::vector<int8_t> Model;

  std::vector<Lit> Assumps; ///< active assumptions during search()
  std::vector<Lit> FinalConflictLits;
  const std::atomic<bool> *StopFlag = nullptr;

  size_t MaxLearnts = 4096; ///< reduceDB threshold, grows geometrically

  SatSolverStats Stats;
};

} // namespace lsms

#endif // LSMS_SAT_SATSOLVER_H
