//===----------------------------------------------------------------------===//
///
/// \file
/// The loop intermediate representation: a branch-free (if-converted) loop
/// body in dynamic-single-assignment form (Section 5.1). Every value has a
/// unique defining operation per iteration; uses name the value together
/// with an omega — the number of iterations separating the use from the
/// definition it reads. Memory ordering constraints that do not flow
/// through registers are recorded as explicit dependence arcs.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_IR_LOOPBODY_H
#define LSMS_IR_LOOPBODY_H

#include "machine/Opcode.h"

#include <cassert>
#include <string>
#include <vector>

namespace lsms {

/// The machine's register files (Section 2.3): RR holds rotating loop
/// variants (addresses, ints, floats), GPR holds loop invariants, ICR holds
/// rotating predicates.
enum class RegClass : uint8_t { RR, GPR, ICR };

/// Returns "RR", "GPR", or "ICR".
const char *regClassName(RegClass Class);

/// A use of a value: reads the instance defined \p Omega iterations before
/// the using operation's iteration. Omega 0 reads the same iteration's
/// definition.
struct Use {
  int Value = -1;
  int Omega = 0;
};

inline bool operator==(const Use &A, const Use &B) {
  return A.Value == B.Value && A.Omega == B.Omega;
}

/// An SSA value. Values defined by the Start pseudo-operation are loop
/// inputs: GPR values are loop invariants (including literal constants);
/// RR/ICR values defined inside the loop may additionally carry seeds — the
/// instances "defined" by the iterations that precede the first one, needed
/// when a use's omega reaches before the loop begins.
struct Value {
  int Id = -1;
  RegClass Class = RegClass::RR;
  int Def = -1; ///< defining operation
  std::string Name;
  bool LiveOut = false; ///< read after the loop completes (e.g. accumulator)
  double Init = 0;      ///< initial value for Start-defined values
  /// Seeds[K] is the instance for iteration First-1-K (i.e. omega K+1 before
  /// the first iteration). Missing seeds default to 0.
  std::vector<double> Seeds;
  /// When >= 0, pre-loop instances come from the initial contents of this
  /// array instead: the instance for iteration J (J < First) is
  /// InitialArray[SeedArrayId][J*SeedElemStride + SeedElemOffset]. Used
  /// when load/store elimination turns memory reads into cross-iteration
  /// register flow.
  int SeedArrayId = -1;
  int SeedElemOffset = 0;
  int SeedElemStride = 1;
};

/// One operation of the loop body.
struct Operation {
  int Id = -1;
  Opcode Opc = Opcode::Start;
  std::vector<Use> Operands;
  int Result = -1; ///< defined value, or -1 (stores, brtop, pseudo-ops)
  /// Guarding predicate for predicated execution (Section 2.2); -1 means
  /// always execute. PredOmega gives the iteration distance of the read.
  int PredValue = -1;
  int PredOmega = 0;
  /// For loads/stores: the accessed array and the affine subscript
  /// iter*ElemStride + ElemOffset (a[i + ElemOffset] in the common
  /// stride-1 case; unrolled loops use larger strides). Used by dependence
  /// analysis and by the simulators.
  int ArrayId = -1;
  int ElemOffset = 0;
  int ElemStride = 1;
  /// For loads/stores with a data-dependent subscript: the element index is
  /// the rounded value of operand 0 instead of the affine form above
  /// (pointer chases, histograms). Dependence analysis must treat such
  /// accesses as may-alias against every access of the same array.
  bool Indirect = false;
  std::string Name;
};

/// Non-register dependence arcs (memory ordering and any extra precedence
/// constraints). Register flow dependences are implied by operand lists.
enum class DepKind : uint8_t { Flow, Anti, Output, Extra };

/// Returns "flow", "anti", "output", or "extra".
const char *depKindName(DepKind Kind);

/// How certain the dependence analyzer is that the arc is real.
///  - Exact: distance proven; the arc must always be honored.
///  - MayAlias: the two accesses *may* touch the same location (indirect
///    subscripts, unresolvable affine distances). The recorded omega is the
///    worst-case (conservative) distance; Prob estimates how likely the
///    accesses are to actually collide (< 0 when unknown). Speculative
///    lowering may drop the whole AliasGroup and emit a NoAlias assumption.
///  - Control: ordering induced by a while-style exit condition — stores of
///    iteration j+1 must not commit before iteration j's exit test resolves.
///    Speculative lowering may drop these and emit a NoEarlyExit assumption.
enum class ArcConfidence : uint8_t { Exact, MayAlias, Control };

/// Returns "exact", "mayalias", or "control".
const char *arcConfidenceName(ArcConfidence Conf);

struct MemDep {
  int Src = -1;
  int Dst = -1;
  DepKind Kind = DepKind::Flow;
  int Latency = 0;
  int Omega = 0;
  /// Certainty of the arc. Exact arcs are unconditional; MayAlias/Control
  /// arcs are conservative and may be speculatively omitted (src/spec).
  ArcConfidence Conf = ArcConfidence::Exact;
  /// For MayAlias arcs: estimated probability that the accesses collide
  /// within one conservative window. Negative means unknown. Exact arcs
  /// keep the default 1.
  double Prob = 1.0;
  /// Groups the paired arcs of one may-alias site (forward + reverse
  /// serialization arcs share a group). Speculation drops whole groups and
  /// emits one assumption per group. -1 for ungrouped (Exact) arcs.
  int AliasGroup = -1;
};

/// A branch-free loop body eligible for modulo scheduling.
///
/// Invariants (checked by verify()):
///  - operation 0 is Start, operation 1 is Stop, exactly one BrTop exists;
///  - each value has exactly one defining operation;
///  - operand counts and register classes match the opcode;
///  - every use's omega is non-negative and intra-iteration uses (omega 0)
///    never form a cycle.
class LoopBody {
public:
  LoopBody();

  /// Identification / provenance.
  std::string Name;
  std::string Source; ///< original DSL text when built by the front end

  /// Iteration space: the loop runs for iterations First..Last of the
  /// counter (defaults support DO i = 3, n style kernels).
  long First = 1;

  /// Number of distinct arrays referenced by loads/stores.
  int NumArrays = 0;

  /// Optional array names (parallel to array ids; may be shorter when the
  /// builder did not name them).
  std::vector<std::string> ArrayNames;

  /// Classification used by Tables 3/4: loops whose source contained a
  /// conditional (if-converted into predicated operations).
  bool HasConditional = false;

  /// Number of basic blocks in the source before if-conversion (Table 2
  /// metric; 1 for straight-line bodies).
  int SourceBasicBlocks = 1;

  /// While-style exit condition: the ICR value whose instance for iteration
  /// j decides whether iteration j+1 runs (do-while semantics — the first
  /// iteration whose exit value is false is the *last* executed). -1 for
  /// counted DO loops. The brtop trip count then acts as an upper bound on
  /// the iteration window.
  int ExitValue = -1;

  bool isWhileLoop() const { return ExitValue >= 0; }

  std::vector<Operation> Ops;
  std::vector<Value> Values;
  std::vector<MemDep> MemDeps;

  int startOp() const { return 0; }
  int stopOp() const { return 1; }
  /// The unique brtop operation, or -1 before it is created.
  int brTopOp() const { return BrTop; }

  const Operation &op(int Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Ops.size());
    return Ops[static_cast<size_t>(Id)];
  }
  Operation &op(int Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Ops.size());
    return Ops[static_cast<size_t>(Id)];
  }
  const Value &value(int Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Values.size());
    return Values[static_cast<size_t>(Id)];
  }
  Value &value(int Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Values.size());
    return Values[static_cast<size_t>(Id)];
  }

  int numOps() const { return static_cast<int>(Ops.size()); }
  int numValues() const { return static_cast<int>(Values.size()); }

  /// Number of real machine operations (excludes Start/Stop).
  int numMachineOps() const { return numOps() - 2; }

  /// Creates a new value of \p Class defined by \p Def.
  int addValue(RegClass Class, int Def, std::string Name);

  /// Creates a new operation and returns its id.
  int addOperation(Opcode Opc, std::vector<Use> Operands, std::string Name);

  /// Records the unique brtop operation id.
  void setBrTop(int Op) {
    assert(BrTop < 0 && "brtop already set");
    BrTop = Op;
  }

  /// All uses of \p ValueId across operations (operand and predicate
  /// positions).
  struct UseSite {
    int Op;
    int Omega;
  };
  std::vector<UseSite> usesOf(int ValueId) const;

  /// Expected operand count for \p Opc, or -1 when variable.
  static int operandArity(Opcode Opc);

  /// Checks structural invariants; returns an empty string on success or a
  /// description of the first violation.
  std::string verify() const;

  /// The order in which one iteration runs its operations sequentially: a
  /// topological order of the omega-0 operand, predicate and memory
  /// dependences that always takes the lowest-id ready operation next. It
  /// holds fewer than numOps() operations exactly when those dependences
  /// close a cycle (verify() rejects such a body). Requires every value's
  /// Def to name an operation.
  std::vector<int> sequentialOrder() const;

  /// Pretty-prints the loop body.
  void print(std::ostream &OS) const;

private:
  int BrTop = -1;
};

} // namespace lsms

#endif // LSMS_IR_LOOPBODY_H
