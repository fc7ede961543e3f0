//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative vs speculative lowering of loop bodies with irregular
/// (may-alias / while-exit) dependence arcs.
///
/// The front end always emits *conservative* bodies: every may-alias site
/// is serialized at its worst-case distance and every store is fenced
/// behind the previous iteration's exit test. Those arcs are ordinary
/// MemDeps — they flow through DepGraph/MinDist untouched, so every
/// scheduler and engine sees them as plain constraints.
///
/// lowerSpeculative() produces a second body with low-confidence arcs
/// *removed*, paired with a machine-checkable Assumption list describing
/// exactly what runtime disambiguation would justify each omission. The
/// simulator (vliwsim/Replay) replays a mapped schedule against a concrete
/// memory trace and reports whether each assumption held, making
/// misspeculation observable.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SPEC_SPECULATION_H
#define LSMS_SPEC_SPECULATION_H

#include "ir/LoopBody.h"

#include <string>
#include <vector>

namespace lsms {

enum class AssumptionKind : uint8_t {
  /// The two memory accesses of a dropped may-alias group never touch the
  /// same element within the executed window.
  NoAlias,
  /// The while-exit condition never fires inside the executed window (the
  /// loop runs its full trip count), so no store needed the control fence.
  NoEarlyExit,
};

/// Returns "noalias" or "noearlyexit".
const char *assumptionKindName(AssumptionKind Kind);

/// One machine-checkable speculation record: which arcs were dropped and
/// what runtime disambiguation would validate the omission.
struct Assumption {
  AssumptionKind Kind = AssumptionKind::NoAlias;
  /// NoAlias: the two operations of the dropped alias group (program-order
  /// first/second). Unused (-1) for NoEarlyExit.
  int SrcOp = -1;
  int DstOp = -1;
  /// The alias group the dropped arcs carried (-1 for NoEarlyExit).
  int AliasGroup = -1;
  /// Collision-probability estimate the decision was based on (< 0 when
  /// the front end had none).
  double Prob = -1.0;
  /// Human-readable description for reports.
  std::string Text;
};

/// What the speculative lowering may drop. Every caller keeps the
/// defaults, but the struct stays a parameter: the benchmark harness
/// lowers with IrregularOptions::Spec.
struct SpecOptions {
  /// Drop a may-alias group when its stamped collision probability is
  /// known and at most this threshold.
  double DropProbAtMost = 0.75;
  /// Also drop groups whose probability is unknown (< 0). Off by default:
  /// unknown-probability affine pairs are usually real dependences.
  bool SpeculateUnknown = false;
  /// Drop while-exit control fences (NoEarlyExit assumption).
  bool SpeculateControl = true;
};

/// Result of a lowering: a plain LoopBody (arcs only differ) plus the
/// assumptions backing any omissions.
struct Lowering {
  LoopBody Body;
  std::vector<Assumption> Assumptions;
  int MayAliasArcs = 0; ///< may-alias arcs in the input body
  int ControlArcs = 0;  ///< control-fence arcs in the input body
  int DroppedArcs = 0;  ///< arcs omitted by this lowering
};

/// Materializes every arc at its worst-case distance: the body is copied
/// verbatim (the front end already emits conservative arcs) and no
/// assumptions are made.
Lowering lowerConservative(const LoopBody &Body);

/// Omits low-probability may-alias groups and (optionally) control fences,
/// recording one Assumption per omission. The result still verifies and
/// schedules like any other body; its MinDist is pointwise at most the
/// conservative one, so the speculative II never exceeds the conservative
/// II for exact engines.
Lowering lowerSpeculative(const LoopBody &Body, const SpecOptions &Opts = {});

} // namespace lsms

#endif // LSMS_SPEC_SPECULATION_H
