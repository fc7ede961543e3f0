#include "vliwsim/Replay.h"

#include <algorithm>

using namespace lsms;

TracedReference::TracedReference(const LoopBody &Body, long Iterations,
                                 const MemoryInit &Init)
    : Body(Body), Iterations(Iterations), Init(Init) {
  std::vector<MemTraceEntry> Trace;
  Result = runReferenceTraced(Body, Iterations, Init, Trace);

  // Group the trace by op (a counting pass), then sort each op's indices.
  IndexBegin.assign(static_cast<size_t>(Body.numOps()) + 1, 0);
  for (const MemTraceEntry &E : Trace)
    ++IndexBegin[static_cast<size_t>(E.Op) + 1];
  for (size_t Op = 1; Op < IndexBegin.size(); ++Op)
    IndexBegin[Op] += IndexBegin[Op - 1];
  Indices.resize(Trace.size());
  std::vector<size_t> Next(IndexBegin.begin(), IndexBegin.end() - 1);
  for (const MemTraceEntry &E : Trace)
    Indices[Next[static_cast<size_t>(E.Op)]++] = E.Index;
  for (size_t Op = 0; Op + 1 < IndexBegin.size(); ++Op)
    std::sort(Indices.begin() + static_cast<long>(IndexBegin[Op]),
              Indices.begin() + static_cast<long>(IndexBegin[Op + 1]));
}

std::span<const long> TracedReference::indices(int Op) const {
  const size_t Begin = IndexBegin[static_cast<size_t>(Op)];
  return std::span<const long>(Indices).subspan(
      Begin, IndexBegin[static_cast<size_t>(Op) + 1] - Begin);
}

namespace {

/// Number of (a, b) pairs with A[a] == B[b], for ascending \p A and \p B.
long countCollisions(std::span<const long> A, std::span<const long> B) {
  long Collisions = 0;
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J]) {
      ++I;
    } else if (B[J] < A[I]) {
      ++J;
    } else {
      const long Index = A[I];
      long RunA = 0, RunB = 0;
      for (; I < A.size() && A[I] == Index; ++I)
        ++RunA;
      for (; J < B.size() && B[J] == Index; ++J)
        ++RunB;
      Collisions += RunA * RunB;
    }
  }
  return Collisions;
}

} // namespace

ReplayResult lsms::replaySchedule(const TracedReference &Ref,
                                  const Schedule &Sched,
                                  const std::vector<Assumption> &Assumptions) {
  ReplayResult R;
  const ExecutionResult &Reference = Ref.result();
  // Only arcs differ between lowerings, and the pipelined executor reads
  // timing from the schedule, not from arcs — so the conservative body
  // replays the speculative schedule faithfully.
  R.Pipelined =
      runPipelined(Ref.body(), Sched, Ref.iterations(), Ref.init());

  R.Outcomes.reserve(Assumptions.size());
  for (const Assumption &A : Assumptions) {
    AssumptionOutcome O;
    O.Text = A.Text;
    switch (A.Kind) {
    case AssumptionKind::NoAlias:
      // Disjoint address sets over the whole executed window: for every
      // pair of executed instances, the two accesses touch different
      // elements. Held implies any interleaving of the two ops is safe, so
      // dropping their ordering arcs was sound on this trace.
      O.Violations = countCollisions(Ref.indices(A.SrcOp),
                                     Ref.indices(A.DstOp));
      O.Held = O.Violations == 0;
      break;
    case AssumptionKind::NoEarlyExit:
      O.Violations = Ref.iterations() - Reference.ActualTrip;
      O.Held = Reference.Error.empty() && O.Violations == 0;
      break;
    }
    R.AllHeld = R.AllHeld && O.Held;
    R.Outcomes.push_back(std::move(O));
  }

  if (Reference.ActualTrip != R.Pipelined.ActualTrip) {
    R.Mismatch = "executed trip counts differ: " +
                 std::to_string(Reference.ActualTrip) + " vs " +
                 std::to_string(R.Pipelined.ActualTrip);
    return R;
  }
  R.Mismatch = compareExecutions(Reference, R.Pipelined);
  return R;
}
