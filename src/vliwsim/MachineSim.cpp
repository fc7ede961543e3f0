#include "vliwsim/MachineSim.h"

#include "support/Compiler.h"

#include <cassert>
#include <map>
#include <vector>

using namespace lsms;

namespace {

/// Physical register addressed by \p Spec in kernel iteration \p K of a
/// rotating file of \p Size registers (the ICP decrements once per
/// iteration).
int physReg(int Spec, long K, int Size) {
  assert(Size > 0 && "empty rotating file");
  const long P = (Spec - K) % Size;
  return static_cast<int>(P < 0 ? P + Size : P);
}

} // namespace

namespace {

/// Shared implementation: kernel-only predicated execution (stage
/// predicates read from the rotating ICR file) or the prologue/epilogue
/// schema (stage eligibility decided by the explicit code copy being
/// executed, modeled by filtering on the kernel iteration index).
ExecutionResult runKernelImpl(const LoopBody &Body, const KernelCode &Code,
                              long Iterations, const MemoryInit &Init,
                              bool ExplicitStageFilter) {
  ExecutionResult Result;
  Result.Arrays.assign(static_cast<size_t>(Body.NumArrays), {});
  if (Code.II <= 0) {
    Result.Error = "invalid kernel";
    return Result;
  }

  std::vector<double> RR(static_cast<size_t>(Code.RRSize), 0.0);
  std::vector<double> ICRF(static_cast<size_t>(std::max(Code.ICRSize, 1)),
                           0.0);
  std::vector<double> GPR = Code.GprInit;

  auto MemoryAt = [&Result, &Init](int Array, long Index) {
    const auto &Cells = Result.Arrays[static_cast<size_t>(Array)];
    const auto It = Cells.find(Index);
    return It != Cells.end() ? It->second : Init(Array, Index);
  };

  // Rotating seeds: instance j = -d of a value with color C lives in
  // physical register (C + d) mod size. The register may be legitimately
  // occupied by another lifetime until the seed's *virtual definition
  // time* T (def cycle minus d*II) — the allocation only guarantees the
  // register from then on — so each seed lands in the write phase of
  // cycle T, like the definition it stands for. A seed with T < 0 is
  // preloaded; one with T >= 0 waits for cycle T, whose reads still see
  // the lifetime that ends there.
  struct SeedInject {
    long Time;
    int Phys;
    double Datum;
  };
  std::vector<SeedInject> Seeds;
  {
    std::vector<int> DefTime(static_cast<size_t>(Body.numValues()), 0);
    for (const KernelOp &Op : Code.Ops)
      if (Op.OrigOp >= 0 && Body.op(Op.OrigOp).Result >= 0)
        DefTime[static_cast<size_t>(Body.op(Op.OrigOp).Result)] =
            Op.Stage * Code.II + Op.Cycle;
    for (const Value &V : Body.Values) {
      if (V.Class != RegClass::RR ||
          Code.RRColor[static_cast<size_t>(V.Id)] < 0)
        continue;
      int MaxOmega = 0;
      for (const LoopBody::UseSite &Site : Body.usesOf(V.Id))
        MaxOmega = std::max(MaxOmega, Site.Omega);
      for (int D = 1; D <= MaxOmega && D < Code.RRSize; ++D) {
        double Seed = 0.0;
        if (V.SeedArrayId >= 0)
          Seed = Init(V.SeedArrayId,
                      (Body.First - D) * V.SeedElemStride +
                          V.SeedElemOffset);
        else if (static_cast<size_t>(D - 1) < V.Seeds.size())
          Seed = V.Seeds[static_cast<size_t>(D - 1)];
        const long T = DefTime[static_cast<size_t>(V.Id)] -
                       static_cast<long>(D) * Code.II;
        const int Phys =
            physReg(Code.RRColor[static_cast<size_t>(V.Id)] + D, 0,
                    Code.RRSize);
        Seeds.push_back({T, Phys, Seed});
      }
    }
    std::stable_sort(Seeds.begin(), Seeds.end(),
                     [](const SeedInject &A, const SeedInject &B) {
                       return A.Time < B.Time;
                     });
  }
  size_t NextSeed = 0;
  // Seeds whose virtual definition precedes the loop are preloaded.
  while (NextSeed < Seeds.size() && Seeds[NextSeed].Time < 0) {
    RR[static_cast<size_t>(Seeds[NextSeed].Phys)] = Seeds[NextSeed].Datum;
    ++NextSeed;
  }

  struct Commit {
    long Time;
    int Array;
    long Index;
    double Datum;
  };
  std::vector<Commit> Commits;
  size_t NextCommit = 0;

  struct WriteBack {
    RegRef Dst;
    double Datum;
  };

  const long KernelIterations = Iterations + Code.StageCount - 1;
  for (long K = 0; K < KernelIterations; ++K) {
    // brtop's effect at the top of each kernel iteration: rotate (implicit
    // in physReg) and publish the stage predicate for source iteration K.
    // The prologue/epilogue schema has no stage predicates to publish.
    if (!ExplicitStageFilter && Code.ICRSize > 0)
      ICRF[static_cast<size_t>(
          physReg(Code.StagePredColor, K, Code.ICRSize))] =
          K < Iterations ? 1.0 : 0.0;

    for (int Cycle = 0; Cycle < Code.II; ++Cycle) {
      const long Now = K * Code.II + Cycle;
      while (NextCommit < Commits.size() && Commits[NextCommit].Time <= Now) {
        const Commit &C = Commits[NextCommit++];
        Result.Arrays[static_cast<size_t>(C.Array)][C.Index] = C.Datum;
      }

      auto ReadRef = [&](const RegRef &Ref) -> double {
        switch (Ref.WhichFile) {
        case RegRef::File::RR:
          return RR[static_cast<size_t>(physReg(Ref.Spec, K, Code.RRSize))];
        case RegRef::File::GPR:
          return GPR[static_cast<size_t>(Ref.Spec)];
        case RegRef::File::ICR:
          return ICRF[static_cast<size_t>(
              physReg(Ref.Spec, K, Code.ICRSize))];
        case RegRef::File::None:
          break;
        }
        LSMS_UNREACHABLE("read of an unassigned register reference");
      };

      // Register semantics: all reads of a cycle observe the register
      // state before any of the cycle's writes (a lifetime may end exactly
      // where the next one begins).
      std::vector<WriteBack> Writes;
      for (const KernelOp &Op : Code.Ops) {
        if (Op.Cycle != Cycle)
          continue;
        // Stage eligibility: squash iterations outside [0, N) — through the
        // rotating stage predicate (kernel-only code) or because the
        // prologue/epilogue copy simply does not contain the operation.
        if (ExplicitStageFilter) {
          const long J = K - Op.Stage;
          if (J < 0 || J >= Iterations)
            continue;
        } else if (Code.ICRSize > 0 &&
                   ICRF[static_cast<size_t>(physReg(
                       Op.StagePredSpec, K, Code.ICRSize))] == 0.0) {
          continue;
        }
        if (Op.UserPred.WhichFile != RegRef::File::None &&
            ReadRef(Op.UserPred) == 0.0)
          continue;

        const long SourceIter = Body.First + (K - Op.Stage);
        double ResultValue = 0.0;
        bool HasResult = Op.Dst.WhichFile != RegRef::File::None;
        switch (Op.Opc) {
        case Opcode::BrTop:
          continue; // modeled at the top of the iteration
        case Opcode::Load:
          ResultValue = MemoryAt(Op.ArrayId, SourceIter * Op.ElemStride +
                                                 Op.ElemOffset);
          break;
        case Opcode::Store:
          Commits.push_back({Now + 1, Op.ArrayId,
                             SourceIter * Op.ElemStride + Op.ElemOffset,
                             ReadRef(Op.Srcs[1])});
          continue;
        default: {
          std::vector<double> Operands;
          Operands.reserve(Op.Srcs.size());
          for (const RegRef &Src : Op.Srcs)
            Operands.push_back(ReadRef(Src));
          ResultValue = evaluateOpcode(Op.Opc, Operands);
          break;
        }
        }
        if (HasResult) {
          Writes.push_back({Op.Dst, ResultValue});
          // Live-outs are captured as their final instance is produced:
          // post-loop code must copy them out before the drain reuses the
          // rotating register (their allocated lifetime ends at the last
          // in-loop use).
          if (K - Op.Stage == Iterations - 1 && Op.OrigOp >= 0) {
            const int ValueId = Body.op(Op.OrigOp).Result;
            if (ValueId >= 0 && Body.value(ValueId).LiveOut)
              Result.LiveOuts[ValueId] = ResultValue;
          }
        }
      }

      for (const WriteBack &W : Writes) {
        if (W.Dst.WhichFile == RegRef::File::RR)
          RR[static_cast<size_t>(physReg(W.Dst.Spec, K, Code.RRSize))] =
              W.Datum;
        else if (W.Dst.WhichFile == RegRef::File::ICR)
          ICRF[static_cast<size_t>(physReg(W.Dst.Spec, K, Code.ICRSize))] =
              W.Datum;
      }

      // Seed injections act like definitions of pre-loop instances: they
      // land in the write phase of their virtual definition cycle.
      while (NextSeed < Seeds.size() && Seeds[NextSeed].Time <= Now) {
        RR[static_cast<size_t>(Seeds[NextSeed].Phys)] =
            Seeds[NextSeed].Datum;
        ++NextSeed;
      }
    }
  }
  while (NextCommit < Commits.size()) {
    const Commit &C = Commits[NextCommit++];
    Result.Arrays[static_cast<size_t>(C.Array)][C.Index] = C.Datum;
  }

  // The kernel simulators execute counted windows only (code generation
  // rejects while-loops), so the executed trip equals the request.
  Result.ActualTrip = Iterations;
  return Result;
}

} // namespace

ExecutionResult lsms::runKernelCode(const LoopBody &Body,
                                    const KernelCode &Code, long Iterations,
                                    const MemoryInit &Init) {
  return runKernelImpl(Body, Code, Iterations, Init,
                       /*ExplicitStageFilter=*/false);
}

ExecutionResult lsms::runSchemaCode(const LoopBody &Body,
                                    const KernelCode &Code, long Iterations,
                                    const MemoryInit &Init) {
  return runKernelImpl(Body, Code, Iterations, Init,
                       /*ExplicitStageFilter=*/true);
}
