#include "codegen/KernelCodeGen.h"

#include "regalloc/RotatingAllocator.h"

#include <algorithm>
#include <ostream>
#include <sstream>

using namespace lsms;

namespace {

RegRef rotatingRef(RegRef::File File, int Color, int Omega, int Stage) {
  RegRef Ref;
  Ref.WhichFile = File;
  Ref.Rotating = true;
  Ref.Spec = Color + Omega + Stage;
  return Ref;
}

} // namespace

std::string lsms::generateKernelCode(const LoopBody &Body,
                                     const Schedule &Sched, KernelCode &Out) {
  if (!Sched.Success)
    return "cannot generate code for a failed schedule";
  // Irregular bodies stop at the scheduling/replay layers: the kernel
  // specifier encodes affine address streams and a counted trip, neither
  // of which covers data-dependent subscripts or a while-exit.
  if (Body.isWhileLoop())
    return "cannot generate kernel code for a while-loop";
  for (const Operation &Op : Body.Ops)
    if (Op.Indirect)
      return "cannot generate kernel code for data-dependent subscripts";

  Out = KernelCode();
  Out.II = Sched.II;
  const int Span = Sched.length();
  Out.StageCount = std::max(1, (Span + Sched.II - 1) / Sched.II);

  // Rotating allocations. The stage-predicate chain is one logical value
  // defined at cycle 0 each iteration and live for StageCount * II cycles;
  // it is co-allocated with the if-conversion predicates.
  const AllocationResult RR =
      allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR);
  if (!RR.Success)
    return "rotating register allocation failed";
  // The chain instance for source iteration j is published by brtop at the
  // end of the previous kernel iteration (cycle j*II - 1), before any of
  // iteration j's reads — hence the -1 start.
  const std::vector<ExtraRange> StageChain = {
      {-1, static_cast<long>(Out.StageCount) * Sched.II + 1}};
  const AllocationResult ICR = allocateRotating(
      Body, Sched.Times, Sched.II, RegClass::ICR, 4096, StageChain);
  if (!ICR.Success)
    return "rotating predicate allocation failed";

  Out.RRSize = std::max(RR.FileSize, 1);
  Out.ICRSize = ICR.FileSize;
  Out.StagePredColor = ICR.ExtraColor.at(0);
  Out.RRColor = RR.Color;
  Out.ICRColor = ICR.Color;

  // GPR assignment: one register per loop input, in value order.
  Out.GprIndex.assign(static_cast<size_t>(Body.numValues()), -1);
  for (const Value &V : Body.Values) {
    if (V.Class != RegClass::GPR)
      continue;
    Out.GprIndex[static_cast<size_t>(V.Id)] = Out.GprCount++;
    Out.GprInit.push_back(V.Init);
  }

  auto MakeSrc = [&](const Use &U, int Stage) -> RegRef {
    const Value &V = Body.value(U.Value);
    if (V.Class == RegClass::GPR) {
      RegRef Ref;
      Ref.WhichFile = RegRef::File::GPR;
      Ref.Spec = Out.GprIndex[static_cast<size_t>(U.Value)];
      return Ref;
    }
    const bool Pred = V.Class == RegClass::ICR;
    const int Color = (Pred ? ICR : RR).Color[static_cast<size_t>(U.Value)];
    if (Color < 0) {
      // The value was never read in the loop (dead); it has no register.
      // Uses of such values cannot occur — guarded by the IR.
      RegRef Ref;
      Ref.WhichFile = RegRef::File::None;
      return Ref;
    }
    return rotatingRef(Pred ? RegRef::File::ICR : RegRef::File::RR, Color,
                       U.Omega, Stage);
  };

  Out.Ops.reserve(static_cast<size_t>(Body.numMachineOps()));
  for (const Operation &Op : Body.Ops) {
    if (isPseudo(Op.Opc))
      continue;
    KernelOp K;
    K.Opc = Op.Opc;
    const int Time = Sched.Times[static_cast<size_t>(Op.Id)];
    K.Stage = Time / Sched.II;
    K.Cycle = Time % Sched.II;
    K.OrigOp = Op.Id;
    K.ArrayId = Op.ArrayId;
    K.ElemOffset = Op.ElemOffset;
    K.ElemStride = Op.ElemStride;
    K.StagePredSpec = Out.StagePredColor + K.Stage;

    K.Srcs.reserve(Op.Operands.size());
    for (const Use &U : Op.Operands)
      K.Srcs.push_back(MakeSrc(U, K.Stage));
    if (Op.PredValue >= 0)
      K.UserPred = MakeSrc(Use{Op.PredValue, Op.PredOmega}, K.Stage);

    if (Op.Result >= 0) {
      const Value &V = Body.value(Op.Result);
      const bool Pred = V.Class == RegClass::ICR;
      const int Color =
          (Pred ? ICR : RR).Color[static_cast<size_t>(Op.Result)];
      if (Color >= 0)
        K.Dst = rotatingRef(Pred ? RegRef::File::ICR : RegRef::File::RR,
                            Color, /*Omega=*/0, K.Stage);
    }
    Out.Ops.push_back(std::move(K));
  }

  std::stable_sort(Out.Ops.begin(), Out.Ops.end(),
                   [](const KernelOp &A, const KernelOp &B) {
                     return A.Cycle < B.Cycle;
                   });
  return std::string();
}

void KernelCode::print(std::ostream &OS, const LoopBody &Body) const {
  OS << "kernel II=" << II << " stages=" << StageCount << " RR[" << RRSize
     << "] ICR[" << ICRSize << "] GPR[" << GprCount << "]\n";
  for (int Cycle = 0; Cycle < II; ++Cycle) {
    OS << "  c" << Cycle << ":";
    bool Any = false;
    for (const KernelOp &Op : Ops) {
      if (Op.Cycle != Cycle)
        continue;
      Any = true;
      OS << "  " << opcodeName(Op.Opc) << "[s" << Op.Stage << "]";
      auto PrintRef = [&OS](const RegRef &Ref) {
        switch (Ref.WhichFile) {
        case RegRef::File::None:
          OS << " _";
          break;
        case RegRef::File::RR:
          OS << " rr" << Ref.Spec;
          break;
        case RegRef::File::GPR:
          OS << " g" << Ref.Spec;
          break;
        case RegRef::File::ICR:
          OS << " p" << Ref.Spec;
          break;
        }
      };
      if (Op.Dst.WhichFile != RegRef::File::None) {
        PrintRef(Op.Dst);
        OS << " =";
      }
      for (const RegRef &Src : Op.Srcs)
        PrintRef(Src);
      if (Op.ArrayId >= 0)
        OS << " @" << (static_cast<size_t>(Op.ArrayId) <
                               Body.ArrayNames.size()
                           ? Body.ArrayNames[static_cast<size_t>(Op.ArrayId)]
                           : std::to_string(Op.ArrayId))
           << "[i" << (Op.ElemOffset >= 0 ? "+" : "") << Op.ElemOffset
           << "]";
      if (Op.UserPred.WhichFile != RegRef::File::None) {
        OS << " if";
        PrintRef(Op.UserPred);
      }
    }
    if (!Any)
      OS << "  (no-op)";
    OS << '\n';
  }
}
