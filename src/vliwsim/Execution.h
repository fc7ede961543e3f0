//===----------------------------------------------------------------------===//
///
/// \file
/// Functional execution of loop bodies, used to validate schedules
/// end-to-end:
///
///  - runReference executes the loop sequentially, iteration by iteration,
///    in (omega-0) dependence order — the semantics the source program
///    defines;
///  - runPipelined executes a modulo schedule the way the VLIW would:
///    iteration j's operation issues at time(op) + (j - First) * II,
///    operations overlap across iterations, loads sample memory at issue,
///    and stores commit one cycle later.
///
/// A correct schedule must make both executions produce bit-identical
/// memory and live-out values: the dataflow is identical, only the timing
/// differs.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_VLIWSIM_EXECUTION_H
#define LSMS_VLIWSIM_EXECUTION_H

#include "core/Schedule.h"
#include "ir/LoopBody.h"
#include "machine/MachineModel.h"

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace lsms {

/// Supplies the initial contents of memory: InitialArray[Array][Index].
using MemoryInit = std::function<double(int Array, long Index)>;

/// Deterministic pseudo-random initial memory in [1, 3) — away from zero so
/// speculated divides stay finite.
double defaultMemoryInit(int Array, long Index);

/// The observable outcome of executing a loop.
struct ExecutionResult {
  /// Per array: the cells the loop wrote (untouched cells keep their
  /// initial contents and are not listed).
  std::vector<std::map<long, double>> Arrays;
  /// Final instances of live-out values (value id -> value).
  std::map<int, double> LiveOuts;
  /// Non-empty when execution failed (e.g. an operation read a value
  /// instance that was never computed).
  std::string Error;
  /// Iterations actually executed: equals the requested window for counted
  /// loops; for while-loops the first iteration whose exit value is false
  /// is the last executed (do-while semantics).
  long ActualTrip = 0;
  /// Pipelined execution only: stores from iterations past the exit that
  /// issued before the exit test resolved and therefore committed anyway.
  /// Always 0 when the schedule honors the conservative control fences.
  long MisspeculatedStores = 0;
};

/// One executed memory access (reference order): used by the speculation
/// replay to check NoAlias assumptions against a concrete trace.
struct MemTraceEntry {
  int Op = -1;
  long Index = 0; ///< element index within the op's array
};

/// Executes \p Body sequentially for \p Iterations iterations starting at
/// Body.First. While-loops stop at the first false exit value.
ExecutionResult runReference(const LoopBody &Body, long Iterations,
                             const MemoryInit &Init = defaultMemoryInit);

/// runReference that additionally records every executed memory access
/// (predicated-off accesses are not executed and not recorded).
ExecutionResult runReferenceTraced(const LoopBody &Body, long Iterations,
                                   const MemoryInit &Init,
                                   std::vector<MemTraceEntry> &TraceOut);

/// Executes \p Sched's overlapped pipeline for \p Iterations iterations.
/// \p Sched must be a successful schedule of \p Body. Within a cycle,
/// operations issue in (iteration, op) order, and stores commit one cycle
/// later in that same order. For while-loops the exit test resolves one
/// cycle after its compare issues; stores of later iterations that issue
/// at or after that cycle are squashed, earlier ones commit and are
/// counted as misspeculated.
ExecutionResult runPipelined(const LoopBody &Body, const Schedule &Sched,
                             long Iterations,
                             const MemoryInit &Init = defaultMemoryInit);

/// Compares two executions; returns an empty string when identical
/// (NaN compares equal to NaN) or a description of the first difference.
std::string compareExecutions(const ExecutionResult &A,
                              const ExecutionResult &B);

/// Evaluates a pure (non-memory, non-pseudo) opcode on operand values:
/// the single source of operation semantics shared by the interpreters
/// and the machine-code simulator.
double evaluateOpcode(Opcode Opc, std::span<const double> Operands);

} // namespace lsms

#endif // LSMS_VLIWSIM_EXECUTION_H
