#include "core/AcyclicScheduler.h"

#include "core/ModuloScheduler.h"

#include <algorithm>
#include <climits>
#include <vector>

using namespace lsms;

long lsms::straightLineMaxLive(const LoopBody &Body,
                               const std::vector<int> &Times,
                               RegClass Class) {
  struct Interval {
    long Start;
    long End;
  };
  std::vector<Interval> Intervals;

  std::vector<long> SameIterEnd(static_cast<size_t>(Body.numValues()),
                                LONG_MIN);
  std::vector<long> LiveInEnd(static_cast<size_t>(Body.numValues()),
                              LONG_MIN);
  auto Record = [&](int ValueId, int UserOp, int Omega) {
    if (Body.value(ValueId).Class != Class)
      return;
    const long T = Times[static_cast<size_t>(UserOp)];
    if (Omega == 0)
      SameIterEnd[static_cast<size_t>(ValueId)] =
          std::max(SameIterEnd[static_cast<size_t>(ValueId)], T);
    else
      LiveInEnd[static_cast<size_t>(ValueId)] =
          std::max(LiveInEnd[static_cast<size_t>(ValueId)], T);
  };
  for (const Operation &Op : Body.Ops) {
    for (const Use &U : Op.Operands)
      Record(U.Value, Op.Id, U.Omega);
    if (Op.PredValue >= 0)
      Record(Op.PredValue, Op.Id, Op.PredOmega);
  }

  for (const Value &V : Body.Values) {
    if (V.Class != Class)
      continue;
    if (SameIterEnd[static_cast<size_t>(V.Id)] != LONG_MIN)
      Intervals.push_back({Times[static_cast<size_t>(V.Def)],
                           SameIterEnd[static_cast<size_t>(V.Id)]});
    if (LiveInEnd[static_cast<size_t>(V.Id)] != LONG_MIN)
      Intervals.push_back({0, LiveInEnd[static_cast<size_t>(V.Id)]});
  }

  // Sweep: +1 at start, -1 after end.
  std::vector<std::pair<long, int>> Events;
  Events.reserve(2 * Intervals.size());
  for (const Interval &I : Intervals) {
    Events.push_back({I.Start, +1});
    Events.push_back({I.End + 1, -1});
  }
  std::sort(Events.begin(), Events.end());
  long Live = 0, MaxLive = 0;
  for (const auto &[Time, Delta] : Events) {
    (void)Time;
    Live += Delta;
    MaxLive = std::max(MaxLive, Live);
  }
  return MaxLive;
}

AcyclicSchedule
lsms::scheduleStraightLine(const DepGraph &Graph,
                           const SchedulerOptions &Options) {
  AcyclicSchedule Result;
  const LoopBody &Body = Graph.body();
  const MachineModel &Machine = Graph.machine();

  // An II no schedule can need: every op serialized on its unit plus the
  // longest latency chain.
  long BigII = 1;
  for (const Operation &Op : Body.Ops)
    BigII += Machine.reservationCycles(Op.Opc) + Machine.latency(Op.Opc);

  SchedulerOptions Acyclic = Options;
  // Straight-line mode: keep Lstart(Stop) near the critical path and relax
  // it additively when resource contention forces a longer block.
  Acyclic.AcyclicPadStep =
      std::max(4, Body.numMachineOps() / 4);

  // Straight-line mode tries one II, the MII. A self arc on brtop with
  // latency BigII and omega 1 lifts it to BigII, where iterations never
  // overlap, and constrains nothing else.
  LoopBody Padded = Body;
  Padded.MemDeps.push_back(
      {Padded.brTopOp(), Padded.brTopOp(), DepKind::Extra,
       static_cast<int>(BigII), 1});
  const DepGraph PaddedGraph(Padded, Machine);
  const Schedule Sched = scheduleLoop(PaddedGraph, Acyclic);
  if (!Sched.Success)
    return Result;

  // The block floats freely inside the huge II window; normalize so the
  // earliest machine operation issues at cycle 0 (pressure and length are
  // shift-invariant, live-in intervals anchor at block entry).
  int MinTime = INT_MAX, MaxEnd = 0;
  for (const Operation &Op : Body.Ops) {
    if (isPseudo(Op.Opc))
      continue;
    const int T = Sched.Times[static_cast<size_t>(Op.Id)];
    MinTime = std::min(MinTime, T);
    MaxEnd = std::max(MaxEnd, T + Machine.latency(Op.Opc));
  }
  if (MinTime == INT_MAX)
    MinTime = 0;

  Result.Success = true;
  Result.Times = Sched.Times;
  for (const Operation &Op : Body.Ops)
    if (!isPseudo(Op.Opc))
      Result.Times[static_cast<size_t>(Op.Id)] -= MinTime;
  Result.Times[static_cast<size_t>(Body.startOp())] = 0;
  Result.Length = MaxEnd - MinTime;
  Result.Times[static_cast<size_t>(Body.stopOp())] = Result.Length;
  Result.MaxLive = straightLineMaxLive(Body, Result.Times);
  return Result;
}
