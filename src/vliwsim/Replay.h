//===----------------------------------------------------------------------===//
///
/// \file
/// Speculative-schedule replay: executes a mapped schedule against a
/// concrete memory trace and reports whether each speculation assumption
/// held, making misspeculation observable rather than hypothetical.
///
/// The ground truth is the sequential reference execution of the
/// *conservative* body (identical ops — only arcs differ between
/// lowerings, and arcs do not change dataflow semantics), traced once into
/// a TracedReference that every replay of a schedule of that body reads.
/// NoAlias assumptions are checked by address-set disjointness over the
/// executed window; NoEarlyExit by whether the exit fired inside the
/// window. When every assumption holds, the speculative pipelined
/// execution must match the reference bit for bit; when one is violated,
/// the mismatch (or the misspeculated stores the simulator counts) is the
/// observable evidence.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_VLIWSIM_REPLAY_H
#define LSMS_VLIWSIM_REPLAY_H

#include "spec/Speculation.h"
#include "vliwsim/Execution.h"

#include <span>
#include <string>
#include <vector>

namespace lsms {

/// The sequential reference execution of a conservative body over one
/// window and one initial memory, with its memory trace grouped by op.
/// Built once per body; every replay of a schedule of the body reads it.
class TracedReference {
public:
  /// Runs \p Body sequentially for \p Iterations from the memory \p Init
  /// supplies. \p Body must outlive the reference.
  TracedReference(const LoopBody &Body, long Iterations,
                  const MemoryInit &Init = defaultMemoryInit);

  const LoopBody &body() const { return Body; }
  long iterations() const { return Iterations; }
  const MemoryInit &init() const { return Init; }

  /// The reference execution's observable outcome.
  const ExecutionResult &result() const { return Result; }

  /// The element indices \p Op accessed, ascending, one per executed
  /// access (predicated-off accesses never executed and are not listed).
  std::span<const long> indices(int Op) const;

private:
  const LoopBody &Body;
  long Iterations;
  MemoryInit Init;
  ExecutionResult Result;
  /// Indices of op k at [IndexBegin[k], IndexBegin[k + 1]).
  std::vector<long> Indices;
  std::vector<size_t> IndexBegin;
};

/// Verdict for one assumption after replaying a concrete trace.
struct AssumptionOutcome {
  bool Held = false;
  /// NoAlias: number of (i, j) iteration pairs where the two accesses hit
  /// the same element. NoEarlyExit: iterations cut off by the exit.
  long Violations = 0;
  std::string Text; ///< copied from the assumption, for reports
};

struct ReplayResult {
  /// Pipelined execution of the (speculative) schedule.
  ExecutionResult Pipelined;
  std::vector<AssumptionOutcome> Outcomes; ///< parallel to Assumptions
  bool AllHeld = true;
  /// Empty when the pipelined execution matches the reference; otherwise
  /// the first observed difference. A mismatch with AllHeld would be a
  /// scheduler bug; with a violated assumption it is expected
  /// misspeculation.
  std::string Mismatch;
};

/// Replays \p Sched (a schedule of the conservative body of \p Ref or of
/// its speculative lowering) over \p Ref's window and initial memory, and
/// checks \p Assumptions against \p Ref's trace.
ReplayResult replaySchedule(const TracedReference &Ref, const Schedule &Sched,
                            const std::vector<Assumption> &Assumptions);

} // namespace lsms

#endif // LSMS_VLIWSIM_REPLAY_H
