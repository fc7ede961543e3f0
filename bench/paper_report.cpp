//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's evaluation in one run: Tables 1-4 (with the
/// Section 7 headline numbers), Figures 5-8, the Section 6 compile-time
/// measurements, the Section 5.2 and footnote-6 ablations, then the
/// Section 7 latency sweep, this repository's extensions around Sections
/// 2.3 and 3.1 and Rau et al. [18, 19] (rotating-register allocation,
/// unrolling for fractional MII, modulo variable expansion, code-generation
/// schemas) and the Section 8 straight-line experiment.
///
/// The suite is built once. Every loop is analysed once and scheduled once
/// under each configuration: bidirectional slack (the paper's scheduler),
/// the Cydrome-style baseline, unidirectional slack (Section 5.2's
/// heuristics off), slack with II escalation by 1 (footnote 6), slack at
/// load latencies 1, 5 and 26, both straight-line policies, and slack on
/// the body unrolled twice when the loop is recurrence-bound. The slack
/// task also allocates registers and plans code for its own schedule, so
/// every section that reads a slack schedule reads that one. Workers fill
/// per-loop slots and every section reads them in suite order, so the
/// report is byte-identical at every job count apart from the host-timing
/// values (the Section 6 time rows and time ratio, and the time columns of
/// the II-increment and latency ablations).
///
/// Usage: paper_report [suite_size] [--jobs N]
///
//===----------------------------------------------------------------------===//

#include "bounds/Bounds.h"
#include "bounds/Lifetimes.h"
#include "codegen/KernelCodeGen.h"
#include "codegen/ModuloVariableExpansion.h"
#include "codegen/Schema.h"
#include "core/AcyclicScheduler.h"
#include "core/ModuloScheduler.h"
#include "frontend/LoopCompiler.h"
#include "graph/MinDist.h"
#include "ir/Unroll.h"
#include "machine/MachineModel.h"
#include "regalloc/RotatingAllocator.h"
#include "support/Histogram.h"
#include "support/ParallelFor.h"
#include "support/ParseInteger.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace lsms;

namespace {

/// Schedule-independent per-loop metrics (Table 2).
struct LoopAnalysis {
  int Ops = 0;            ///< machine operations (incl. brtop)
  int BasicBlocks = 1;    ///< source basic blocks before if-conversion
  int CriticalOps = 0;    ///< critical operations at MII
  int RecurrenceOps = 0;  ///< operations on non-trivial recurrence circuits
  int DivOps = 0;         ///< div/mod/sqrt operations
  int ResMII = 1;
  int RecMII = 1;
  int MII = 1;
  long MinAvgAtMII = 0;
  int Gprs = 0;
  bool HasConditional = false;
  bool HasRecurrence = false;
};

/// One scheduler's outcome on one loop.
struct SchedOutcome {
  bool Success = false;
  int II = 0;  ///< achieved II (last attempted II for failures)
  int MII = 0;
  long MaxLive = 0;
  long MinAvgAtII = 0;
  long MinAvgPerValueCeilAtII = 0;
  long IcrUsage = 0; ///< ICR MaxLive plus the kernel's stage predicates
  ScheduleStats Stats;
};

/// Everything the report needs about one loop.
struct LoopResults {
  LoopAnalysis Analysis;
  SchedOutcome Slack;          ///< bidirectional slack (load latency 13)
  SchedOutcome Cydrome;        ///< Cydrome-style baseline
  SchedOutcome Unidirectional; ///< slack without the Section 5.2 heuristics
  SchedOutcome SlackByOne;     ///< slack escalating II by 1 (footnote 6)
  SchedOutcome SlackLoad1;     ///< slack at load latency 1
  SchedOutcome SlackLoad5;     ///< slack at load latency 5
  SchedOutcome SlackLoad26;    ///< slack at load latency 26
  // Measured on the slack schedule; unsuccessful when it failed.
  AllocationResult Alloc;          ///< rotating RR allocation
  std::optional<int> KernelRRSize; ///< kernel-only code's RR file size
  MveInfo Mve;                     ///< modulo variable expansion plan
  SchemaInfo Schema;               ///< prologue/kernel/epilogue plan
  /// II of the body unrolled x2; 0 unless the loop is recurrence-bound and
  /// the unrolled body schedules.
  int UnrolledII = 0;
  AcyclicSchedule StraightBi;  ///< the body as straight-line code,
  AcyclicSchedule StraightUni; ///< under each policy
};

using Results = std::vector<LoopResults>;
using OutcomeOf = SchedOutcome LoopResults::*;

/// The pressure metrics of \p Sched, a schedule of \p Graph.
SchedOutcome measureOutcome(const DepGraph &Graph, const Schedule &Sched) {
  SchedOutcome O;
  O.Success = Sched.Success;
  O.II = Sched.II;
  O.MII = Sched.MII;
  O.Stats = Sched.Stats;
  if (!Sched.Success)
    return O;

  const LoopBody &Body = Graph.body();
  const PressureInfo RR =
      computePressure(Body, Sched.Times, Sched.II, RegClass::RR);
  O.MaxLive = RR.MaxLive;
  const PressureInfo ICR =
      computePressure(Body, Sched.Times, Sched.II, RegClass::ICR);
  // Kernel-only code keeps one rotating stage predicate per stage in the
  // ICR file on top of the if-conversion predicates.
  const long Stages = (Sched.length() + Sched.II - 1) / Sched.II;
  O.IcrUsage = ICR.MaxLive + Stages;

  MinDistMatrix MinDist;
  if (MinDist.compute(Graph, Sched.II)) {
    O.MinAvgAtII = computeMinAvg(Graph, MinDist);
    O.MinAvgPerValueCeilAtII = computeMinAvgPerValueCeil(Graph, MinDist);
  }
  return O;
}

/// Allocates, generates and plans code for the slack schedule \p Sched of
/// \p Body: what the allocation, MVE and schema sections read.
void measureCode(const LoopBody &Body, const Schedule &Sched,
                 LoopResults &L) {
  if (!Sched.Success)
    return;
  L.Alloc = allocateRotating(Body, Sched.Times, Sched.II, RegClass::RR);
  KernelCode Code;
  if (generateKernelCode(Body, Sched, Code).empty())
    L.KernelRRSize = Code.RRSize;
  L.Mve = planMve(Body, Sched);
  L.Schema = planSchema(Body, Sched);
}

/// Schedules \p Graph's body unrolled x2 when the loop is recurrence-bound
/// (only those can gain) and returns the II, or 0.
int unrolledII(const DepGraph &Graph) {
  const MIIBounds Bounds = computeMII(Graph);
  if (Bounds.RecMII <= Bounds.ResMII)
    return 0;
  const Schedule Unrolled =
      scheduleLoop(unrollLoop(Graph.body(), 2), Graph.machine());
  return Unrolled.Success ? Unrolled.II : 0;
}

/// Computes the Table 2 metrics of one loop.
LoopAnalysis analyzeLoop(const DepGraph &Graph) {
  const LoopBody &Body = Graph.body();
  LoopAnalysis A;
  A.Ops = Body.numMachineOps();
  A.BasicBlocks = Body.SourceBasicBlocks;
  A.HasConditional = Body.HasConditional;
  A.Gprs = countGprs(Body);

  const MIIBounds Bounds = computeMII(Graph);
  A.ResMII = Bounds.ResMII;
  A.RecMII = Bounds.RecMII;
  A.MII = Bounds.MII;

  const auto Critical = markCriticalOps(Body, Graph.machine(), A.MII);
  for (const Operation &Op : Body.Ops) {
    if (isPseudo(Op.Opc))
      continue;
    if (Critical[static_cast<size_t>(Op.Id)])
      ++A.CriticalOps;
    if (Graph.onRecurrence(Op.Id))
      ++A.RecurrenceOps;
    if (isDividerOp(Op.Opc))
      ++A.DivOps;
  }
  A.HasRecurrence = A.RecurrenceOps > 0;

  MinDistMatrix MinDist;
  if (MinDist.compute(Graph, A.MII))
    A.MinAvgAtMII = computeMinAvg(Graph, MinDist);
  return A;
}

std::string suiteLoops(const Results &R) {
  return std::to_string(R.size()) + " loops";
}

/// 100 * Part / Whole to one decimal; a fraction when \p Whole is 1.
std::string percent(double Part, double Whole = 1) {
  return formatNumber(100.0 * Part / Whole, 1);
}

/// Table 1: functional unit latencies (an echo of the machine model).
void printTable1(std::ostream &OS) {
  const MachineModel M = MachineModel::cydra5();
  OS << "Table 1: Functional Unit Latencies\n";
  TextTable T;
  T.setHeader({"Pipeline", "No.", "Operations", "Latency"});
  auto Count = [&M](FuKind Kind) {
    return std::to_string(M.unitCount(Kind));
  };
  auto Lat = [&M](Opcode Op) { return std::to_string(M.latency(Op)); };
  T.addRow({"Memory Port", Count(FuKind::MemoryPort), "load",
            Lat(Opcode::Load)});
  T.addRow({"", "", "store", Lat(Opcode::Store)});
  T.addRow({"Address ALU", Count(FuKind::AddressAlu), "addr add/sub/mult",
            Lat(Opcode::AddrAdd)});
  T.addRow({"Adder", Count(FuKind::Adder), "int add/sub/logical",
            Lat(Opcode::IntAdd)});
  T.addRow({"", "", "float add/sub", Lat(Opcode::FloatAdd)});
  T.addRow({"Multiplier", Count(FuKind::Multiplier), "int/float multiply",
            Lat(Opcode::IntMul)});
  T.addRow({"Divider", Count(FuKind::Divider), "int/float div/mod",
            Lat(Opcode::IntDiv)});
  T.addRow({"", "", "float sqrt", Lat(Opcode::FloatSqrt)});
  T.addRow({"Branch Unit", Count(FuKind::Branch), "brtop",
            Lat(Opcode::BrTop)});
  T.print(OS);
  OS << "\nDivider is not pipelined (reserves the unit for its full "
        "latency); all other units are fully pipelined.\n";
}

/// Table 2: Min / 50% / 90% / Max of the loop-complexity metrics.
void printTable2(std::ostream &OS, const Results &R) {
  OS << "Table 2: Measurements from all " << R.size() << " Loops\n";
  TextTable T;
  T.setHeader({"Metric", "Min", "50%", "90%", "Max"});
  auto Row = [&](const char *Name, auto LoopAnalysis::*Field) {
    std::vector<double> V;
    for (const LoopResults &L : R)
      V.push_back(static_cast<double>(L.Analysis.*Field));
    const QuantileSummary S = summarize(V);
    T.addRow({Name, formatNumber(S.Min), formatNumber(S.Median),
              formatNumber(S.Pct90), formatNumber(S.Max)});
  };
  Row("# Basic Blocks", &LoopAnalysis::BasicBlocks);
  Row("# Operations", &LoopAnalysis::Ops);
  Row("# Critical Ops at MII", &LoopAnalysis::CriticalOps);
  Row("# Ops on Recurrences", &LoopAnalysis::RecurrenceOps);
  Row("# Div/Mod/Sqrt Ops", &LoopAnalysis::DivOps);
  Row("RecMII", &LoopAnalysis::RecMII);
  Row("ResMII", &LoopAnalysis::ResMII);
  Row("MII", &LoopAnalysis::MII);
  Row("MinAvg at MII", &LoopAnalysis::MinAvgAtMII);
  Row("# GPRs", &LoopAnalysis::Gprs);
  T.print(OS);

  OS << "\nPaper's reference values (1,525 FORTRAN loops): "
        "# Operations 4 / 18 / 80 / 406.\n";
}

/// Tables 3 and 4: per-class optimality, total II vs total MII, and the
/// II > MII tail distribution of one scheduler.
void printPerformanceTable(std::ostream &OS, const std::string &Title,
                           const Results &R, OutcomeOf Which) {
  struct ClassAgg {
    long Opt = 0;
    long All = 0;
    long SumII = 0;
    long SumMII = 0;
    long Failures = 0;
  };
  ClassAgg Classes[4], Total;
  const char *ClassNames[4] = {"Has Conditional", "Has Recurrence",
                               "Has Both", "Has Neither"};

  std::vector<double> TailII, TailMII, TailDiff, TailRatio;
  for (const LoopResults &L : R) {
    const LoopAnalysis &A = L.Analysis;
    const SchedOutcome &O = L.*Which;
    const int ClassIndex = A.HasConditional ? (A.HasRecurrence ? 2 : 0)
                                            : (A.HasRecurrence ? 1 : 3);

    for (ClassAgg *Agg : {&Classes[ClassIndex], &Total}) {
      ++Agg->All;
      // Failures are represented by the last II attempted (the paper's
      // footnote 8).
      Agg->SumII += O.II;
      Agg->SumMII += O.MII;
      if (O.Success && O.II == O.MII)
        ++Agg->Opt;
      if (!O.Success)
        ++Agg->Failures;
    }
    if (!O.Success || O.II > O.MII) {
      TailII.push_back(O.II);
      TailMII.push_back(O.MII);
      TailDiff.push_back(O.II - O.MII);
      TailRatio.push_back(static_cast<double>(O.II) / O.MII);
    }
  }

  OS << Title << '\n';
  TextTable T;
  T.setHeader({"Loop Class", "Opt", "All", "%", "Sum II", "Sum MII",
               "Ratio"});
  auto AddRow = [&T](const char *Name, const ClassAgg &Agg) {
    if (Agg.All == 0) {
      T.addRow({Name, "0", "0", "-", "0", "0", "-"});
      return;
    }
    T.addRow({Name, std::to_string(Agg.Opt), std::to_string(Agg.All),
              percent(Agg.Opt, Agg.All), std::to_string(Agg.SumII),
              std::to_string(Agg.SumMII),
              formatNumber(static_cast<double>(Agg.SumII) /
                               static_cast<double>(Agg.SumMII),
                           3)});
  };
  for (int C = 0; C < 4; ++C)
    AddRow(ClassNames[C], Classes[C]);
  T.addSeparator();
  AddRow("All Loops", Total);
  T.print(OS);

  if (Total.Failures > 0)
    OS << "(failed to pipeline " << Total.Failures
       << " loops; each counted at the last II attempted)\n";

  OS << "\nFor the " << TailII.size() << " loops with II > MII:\n";
  if (!TailII.empty()) {
    TextTable Tail;
    Tail.setHeader({"Metric", "Min", "50%", "90%", "Max"});
    auto Row = [&Tail](const char *Name, const std::vector<double> &V,
                       int Decimals) {
      const QuantileSummary S = summarize(V);
      Tail.addRow({Name, formatNumber(S.Min, Decimals),
                   formatNumber(S.Median, Decimals),
                   formatNumber(S.Pct90, Decimals),
                   formatNumber(S.Max, Decimals)});
    };
    Row("II", TailII, 0);
    Row("MII", TailMII, 0);
    Row("II - MII", TailDiff, 0);
    Row("II / MII", TailRatio, 2);
    Tail.print(OS);
  }

  const double OptPct =
      Total.All ? 100.0 * static_cast<double>(Total.Opt) /
                      static_cast<double>(Total.All)
                : 0.0;
  const double TimeRatio =
      Total.SumMII
          ? static_cast<double>(Total.SumII) /
                static_cast<double>(Total.SumMII)
          : 0.0;
  OS << "\nHeadline: " << formatNumber(OptPct, 1)
     << "% of loops at II = MII; overall execution time "
     << formatNumber(TimeRatio, 3) << "x the absolute minimum\n";
}

/// Table 3 and the Section 7 headline: bidirectional slack performance and
/// its total-II speedup over the Cydrome-style scheduler.
void printTable3(std::ostream &OS, const Results &R) {
  printPerformanceTable(
      OS, "Table 3: Slack Scheduling Performance (" + suiteLoops(R) + ")", R,
      &LoopResults::Slack);
  long SlackII = 0, CydromeII = 0;
  for (const LoopResults &L : R) {
    SlackII += L.Slack.II;
    CydromeII += L.Cydrome.II;
  }
  OS << "\nSpeedup over Cydrome's scheduler (total II ratio): "
     << formatNumber(static_cast<double>(CydromeII) /
                         static_cast<double>(SlackII),
                     3)
     << "x (paper: 1.11x)\n";
}

/// Table 4: the Cydrome-style scheduler (static initial-slack priority,
/// recurrence operations first, unidirectional early placement; Section 8).
void printTable4(std::ostream &OS, const Results &R) {
  printPerformanceTable(
      OS, "Table 4: Cydrome's Scheduling Performance (" + suiteLoops(R) + ")",
      R, &LoopResults::Cydrome);
}

/// Figure 5: MaxLive - MinAvg, register pressure above the schedule-
/// independent lower bound (paper: 46% at 0 and 93% within 10 for the new
/// scheduler).
void printFig5(std::ostream &OS, const Results &R) {
  Histogram New(1, 30), Old(1, 30);
  // Secondary reading of MinAvg (per-value ceilings, Section 3.2's literal
  // formula); values below the bound clamp to 0.
  Histogram NewCeil(1, 30), OldCeil(1, 30);
  for (const LoopResults &L : R) {
    const SchedOutcome &A = L.Slack;
    const SchedOutcome &B = L.Cydrome;
    if (A.Success) {
      New.add(A.MaxLive - A.MinAvgAtII);
      NewCeil.add(std::max(0L, A.MaxLive - A.MinAvgPerValueCeilAtII));
    }
    if (B.Success) {
      Old.add(B.MaxLive - B.MinAvgAtII);
      OldCeil.add(std::max(0L, B.MaxLive - B.MinAvgPerValueCeilAtII));
    }
  }

  printComparison(OS, "Figure 5: MaxLive - MinAvg (" + suiteLoops(R) + ")",
                  New, "New Scheduler (bidirectional slack)", Old,
                  "Old Scheduler (Cydrome-style)", "MaxLive-MinAvg");

  OS << "\nNew scheduler: " << percent(New.fractionAtOrBelow(0))
     << "% of loops achieve MinAvg exactly (paper: 46%); "
     << percent(New.fractionAtOrBelow(10)) << "% within 10 RRs (paper: 93%)\n";
  OS << "Old scheduler: " << percent(Old.fractionAtOrBelow(0))
     << "% at MinAvg; " << percent(Old.fractionAtOrBelow(10))
     << "% within 10 RRs\n";

  OS << "\nUnder the per-value-ceiling reading of MinAvg "
        "(Section 3.2's literal formula, gap clamped at 0):\n"
     << "  new: " << percent(NewCeil.fractionAtOrBelow(0)) << "% at bound, "
     << percent(NewCeil.fractionAtOrBelow(10)) << "% within 10; old: "
     << percent(OldCeil.fractionAtOrBelow(0)) << "% at bound, "
     << percent(OldCeil.fractionAtOrBelow(10)) << "% within 10\n";
}

/// Figure 6: MaxLive, rotating register pressure (paper: 92% within 32 RRs
/// and only 5 loops above 64 for the new scheduler).
void printFig6(std::ostream &OS, const Results &R) {
  Histogram New(8, 96), Old(8, 96);
  long Above64New = 0, Above64Old = 0;
  for (const LoopResults &L : R) {
    if (L.Slack.Success) {
      New.add(L.Slack.MaxLive);
      Above64New += L.Slack.MaxLive > 64 ? 1 : 0;
    }
    if (L.Cydrome.Success) {
      Old.add(L.Cydrome.MaxLive);
      Above64Old += L.Cydrome.MaxLive > 64 ? 1 : 0;
    }
  }

  printComparison(OS, "Figure 6: MaxLive (" + suiteLoops(R) + ")", New,
                  "New Scheduler (bidirectional slack)", Old,
                  "Old Scheduler (Cydrome-style)", "MaxLive (RRs)");

  OS << "\nNew scheduler: " << percent(New.fractionAtOrBelow(32))
     << "% of loops use <= 32 RRs (paper: 92%); " << Above64New
     << " loops above 64 RRs (paper: 5)\n";
  OS << "Old scheduler: " << percent(Old.fractionAtOrBelow(32))
     << "% within 32 RRs; " << Above64Old << " loops above 64\n";
}

/// Figure 7: loop-invariant (GPR) usage and GPRs + MaxLive (paper: 97% of
/// loops within 16 GPRs and 82% with RRs + GPRs <= 32).
void printFig7(std::ostream &OS, const Results &R) {
  Histogram Gprs(4, 48);
  Histogram CombinedNew(8, 96), CombinedOld(8, 96);
  long Above64 = 0;
  for (const LoopResults &L : R) {
    const int G = L.Analysis.Gprs;
    Gprs.add(G);
    if (L.Slack.Success) {
      CombinedNew.add(G + L.Slack.MaxLive);
      Above64 += G + L.Slack.MaxLive > 64 ? 1 : 0;
    }
    if (L.Cydrome.Success)
      CombinedOld.add(G + L.Cydrome.MaxLive);
  }

  OS << "Figure 7: GPRs and GPRs + MaxLive (" << suiteLoops(R) << ")\n";
  OS << "--- GPRs (either scheduler) ---\n";
  Gprs.print(OS, "GPRs");
  OS << "--- (New Scheduler) GPRs + MaxLive ---\n";
  CombinedNew.print(OS, "GPRs+MaxLive");
  OS << "--- (Old Scheduler) GPRs + MaxLive ---\n";
  CombinedOld.print(OS, "GPRs+MaxLive");

  OS << "\n" << percent(Gprs.fractionAtOrBelow(16))
     << "% of loops use <= 16 GPRs (paper: 97%); "
     << percent(CombinedNew.fractionAtOrBelow(32))
     << "% keep RRs + GPRs <= 32 (paper: 82%); " << Above64
     << " loops above 64 combined (paper: 16)\n";
}

/// Figure 8: ICR predicate usage, if-conversion plus stage predicates
/// (paper: one loop above 32, similar pressure under both schedulers).
void printFig8(std::ostream &OS, const Results &R) {
  Histogram New(4, 48), Old(4, 48);
  long Above32 = 0;
  for (const LoopResults &L : R) {
    if (L.Slack.Success) {
      New.add(L.Slack.IcrUsage);
      Above32 += L.Slack.IcrUsage > 32 ? 1 : 0;
    }
    if (L.Cydrome.Success)
      Old.add(L.Cydrome.IcrUsage);
  }

  printComparison(OS, "Figure 8: ICR Predicate Usage (" + suiteLoops(R) + ")",
                  New, "New Scheduler", Old, "Old Scheduler",
                  "ICR predicates");

  OS << "\nNew scheduler: " << Above32
     << " loops above 32 ICR predicates (paper: 1); "
     << percent(New.fractionAtOrBelow(16)) << "% within 16\n";
}

/// One scheduler's statistics summed over the suite, and the number of
/// loops it scheduled without backtracking.
std::pair<ScheduleStats, long> sumStats(const Results &R, OutcomeOf Which) {
  ScheduleStats Sum;
  long NoBacktracking = 0;
  for (const LoopResults &L : R) {
    Sum.accumulate((L.*Which).Stats);
    NoBacktracking += (L.*Which).Stats.Backtracked ? 0 : 1;
  }
  return {Sum, NoBacktracking};
}

/// Section 6: scheduling time (summed per-loop host measurements, so it
/// does not depend on the job count), backtracking statistics, the time
/// split, and the Cydrome-style comparison (paper: 6.5x slower, 3.7x more
/// backtracking).
void printSection6(std::ostream &OS, const Results &R) {
  const auto [Slack, SlackNoBacktracking] = sumStats(R, &LoopResults::Slack);
  const auto [Cydrome, CydromeNoBacktracking] =
      sumStats(R, &LoopResults::Cydrome);

  OS << "Section 6: Compilation Time (" << suiteLoops(R)
     << ", host machine)\n";
  TextTable T;
  T.setHeader({"Metric", "Slack Scheduler", "Cydrome-style"});
  auto Row = [&T](const char *Name, const std::string &A,
                  const std::string &B) { T.addRow({Name, A, B}); };
  Row("scheduling wall time (s)", formatNumber(Slack.SecondsTotal, 2),
      formatNumber(Cydrome.SecondsTotal, 2));
  Row("loops w/o backtracking", std::to_string(SlackNoBacktracking),
      std::to_string(CydromeNoBacktracking));
  auto Count = [&](const char *Name, long ScheduleStats::*Stat) {
    Row(Name, std::to_string(Slack.*Stat), std::to_string(Cydrome.*Stat));
  };
  Count("central-loop iterations", &ScheduleStats::CentralLoopIterations);
  Count("operations placed", &ScheduleStats::Placements);
  Count("step-3 forced placements", &ScheduleStats::ForcedPlacements);
  Count("operations ejected", &ScheduleStats::Ejections);
  Count("step-6 II restarts", &ScheduleStats::IIRestarts);
  auto Pct = [](const ScheduleStats &S, double ScheduleStats::*Part) {
    return S.SecondsTotal > 0 ? percent(S.*Part, S.SecondsTotal) + "%" : "-";
  };
  auto Share = [&](const char *Name, double ScheduleStats::*Part) {
    Row(Name, Pct(Slack, Part), Pct(Cydrome, Part));
  };
  Share("time in backtracking", &ScheduleStats::SecondsBacktracking);
  Share("time computing RecMII", &ScheduleStats::SecondsRecMII);
  Share("time computing MinDist", &ScheduleStats::SecondsMinDist);
  T.print(OS);

  OS << "\nCydrome-style vs slack: time ratio "
     << formatNumber(
            Cydrome.SecondsTotal / std::max(Slack.SecondsTotal, 1e-9), 2)
     << "x (paper: 6.5x), ejection ratio "
     << formatNumber(static_cast<double>(Cydrome.Ejections) /
                         std::max<long>(Slack.Ejections, 1),
                     2)
     << "x (paper: 3.7x)\n"
     << "(Paper reference: 3.96 minutes for 1,525 loops on an HP "
        "9000/730; 65% of time in backtracking, 6% RecMII, 10% "
        "MinDist.)\n";
}

/// Section 5.2 ablation: "without [the bidirectional heuristics], the
/// slack scheduler generates nearly the same register pressure as
/// Cydrome's scheduler."
void printBidirectionalAblation(std::ostream &OS, const Results &R) {
  const std::pair<const char *, OutcomeOf> Configs[] = {
      {"bidirectional slack", &LoopResults::Slack},
      {"unidirectional slack", &LoopResults::Unidirectional},
      {"cydrome-style", &LoopResults::Cydrome},
  };

  TextTable T;
  T.setHeader({"Scheduler", "opt II %", "total MaxLive", "mean gap",
               "gap=0 %", "gap<=10 %"});
  for (const auto &[Name, Which] : Configs) {
    long Opt = 0, Done = 0, TotalMaxLive = 0;
    std::vector<double> Gaps;
    long GapZero = 0, GapTen = 0;
    for (const LoopResults &L : R) {
      const SchedOutcome &O = L.*Which;
      if (!O.Success)
        continue;
      ++Done;
      Opt += O.II == O.MII ? 1 : 0;
      TotalMaxLive += O.MaxLive;
      const long Gap = O.MaxLive - O.MinAvgAtII;
      Gaps.push_back(static_cast<double>(Gap));
      GapZero += Gap <= 0 ? 1 : 0;
      GapTen += Gap <= 10 ? 1 : 0;
    }
    const QuantileSummary S = summarize(Gaps);
    T.addRow({Name, percent(Opt, Done), std::to_string(TotalMaxLive),
              formatNumber(S.Mean, 2), percent(GapZero, Done),
              percent(GapTen, Done)});
  }

  OS << "Ablation: lifetime-sensitive bidirectional placement ("
     << suiteLoops(R) << ")\n";
  T.print(OS);
  OS << "\nExpected shape: unidirectional slack pressure ~= "
        "cydrome-style pressure >> bidirectional slack pressure.\n";
}

/// Footnote-6 ablation: incrementing II by 1 instead of
/// max(floor(0.04*II), 1) lowered the paper's total II by 45 at the
/// expense of 29% more scheduler time.
void printIIIncrementAblation(std::ostream &OS, const Results &R) {
  const std::pair<const char *, OutcomeOf> Configs[] = {
      {"max(4% of II, 1)", &LoopResults::Slack},
      {"always 1", &LoopResults::SlackByOne},
  };

  TextTable T;
  T.setHeader({"II increment", "total II", "II restarts", "sched time (s)",
               "opt %"});
  for (const auto &[Name, Which] : Configs) {
    long TotalII = 0, Opt = 0, Done = 0;
    for (const LoopResults &L : R) {
      const SchedOutcome &O = L.*Which;
      TotalII += O.II;
      if (O.Success) {
        ++Done;
        Opt += O.II == O.MII ? 1 : 0;
      }
    }
    const ScheduleStats Stats = sumStats(R, Which).first;
    T.addRow({Name, std::to_string(TotalII), std::to_string(Stats.IIRestarts),
              formatNumber(Stats.SecondsTotal, 2), percent(Opt, Done)});
  }

  OS << "Ablation: II escalation step (footnote 6, " << suiteLoops(R)
     << ")\n";
  T.print(OS);
  OS << "\nPaper: increment-by-1 lowered total II by 45 for 29% "
        "more scheduler time.\n";
}

/// Section 7 latency robustness: "other experiments with different
/// latencies for the functional units give very similar performance
/// results and compilation times". The load-13 row is the slack pass.
void printLatencyAblation(std::ostream &OS, const Results &R) {
  const std::pair<int, OutcomeOf> Configs[] = {
      {1, &LoopResults::SlackLoad1},
      {5, &LoopResults::SlackLoad5},
      {13, &LoopResults::Slack},
      {26, &LoopResults::SlackLoad26},
  };

  TextTable T;
  T.setHeader({"load latency", "opt II %", "II/MII", "gap=0 %",
               "gap<=10 %", "sched time (s)"});
  for (const auto &[LoadLatency, Which] : Configs) {
    long Opt = 0, Done = 0, SumII = 0, SumMII = 0, GapZero = 0, GapTen = 0;
    double Seconds = 0;
    for (const LoopResults &L : R) {
      const SchedOutcome &O = L.*Which;
      Seconds += O.Stats.SecondsTotal;
      SumII += O.II;
      SumMII += O.MII;
      if (!O.Success)
        continue;
      ++Done;
      Opt += O.II == O.MII ? 1 : 0;
      const long Gap = O.MaxLive - O.MinAvgAtII;
      GapZero += Gap <= 0 ? 1 : 0;
      GapTen += Gap <= 10 ? 1 : 0;
    }
    T.addRow({std::to_string(LoadLatency), percent(Opt, Done),
              formatNumber(static_cast<double>(SumII) /
                               static_cast<double>(SumMII),
                           3),
              percent(GapZero, Done), percent(GapTen, Done),
              formatNumber(Seconds, 2)});
  }

  OS << "Latency robustness: slack scheduler across load latencies ("
     << suiteLoops(R) << ")\n";
  T.print(OS);
  OS << "\nExpected shape: near-optimal II percentage and pressure gaps "
        "stay flat across latencies.\n";
}

/// Rotating-register allocation quality: the paper approximates register
/// pressure by MaxLive because Rau et al. [18] report allocators that
/// almost always achieve it (never worse than MaxLive+1 with end-fit and
/// adjacency ordering).
void printAllocationQuality(std::ostream &OS, const Results &R) {
  Histogram Excess(1, 8);
  long Done = 0, AtBound = 0, WithinOne = 0;
  for (const LoopResults &L : R) {
    if (!L.Alloc.Success)
      continue;
    ++Done;
    const long Over = L.Alloc.FileSize - L.Alloc.MaxLive;
    Excess.add(Over);
    AtBound += Over == 0 ? 1 : 0;
    WithinOne += Over <= 1 ? 1 : 0;
  }

  OS << "Rotating register allocation: registers used above MaxLive ("
     << Done << " loops)\n";
  Excess.print(OS, "regs above MaxLive");
  OS << "\n" << percent(AtBound, Done)
     << "% of loops allocate at exactly MaxLive; " << percent(WithinOne, Done)
     << "% within MaxLive+1 (Rau et al. [18]: end-fit never needed more "
        "than MaxLive+1)\n";
}

/// Unrolling for fractional MII (Section 3.1: "if a loop had an exact
/// minimum II of 3/2, the compiler could unroll the loop once and attempt
/// to schedule for an II of 3"; the paper's compiler did not, this
/// repository does): II per source iteration of the recurrence-bound
/// loops unrolled x2, then a synthetic family with known fractional
/// minimum II, scheduled here.
void printUnrolling(std::ostream &OS, const Results &R) {
  long Considered = 0, Improved = 0;
  double SumPlain = 0, SumUnrolled = 0;
  for (const LoopResults &L : R) {
    if (!L.Slack.Success || L.UnrolledII == 0)
      continue;
    ++Considered;
    const double PerIterPlain = L.Slack.II;
    const double PerIterUnrolled = L.UnrolledII / 2.0;
    SumPlain += PerIterPlain;
    SumUnrolled += PerIterUnrolled;
    if (PerIterUnrolled < PerIterPlain)
      ++Improved;
  }
  OS << "Unrolling for fractional MII (recurrence-bound loops of a "
     << R.size() << "-loop suite)\n";
  OS << "  " << Considered << " recurrence-bound loops; " << Improved
     << " improve when unrolled x2; cycles per source iteration "
     << formatNumber(SumPlain, 1) << " -> " << formatNumber(SumUnrolled, 1)
     << " ("
     << formatNumber(100.0 * (1.0 - SumUnrolled / std::max(SumPlain, 1.0)),
                     1)
     << "% fewer)\n\n";

  // The paper's 3/2 example generalized: recurrence latency L over omega 2
  // has exact minimum L/2, but an un-unrolled schedule pays ceil(L/2).
  const struct {
    const char *Name;
    const char *Source;
  } Fractional[] = {
      {"mul-add over omega 2 (exact 3/2)",
       "param a = 0.5\nparam b = 1\nloop i = 3, n\n"
       "  x[i] = a*x[i-2] + b\nend\n"},
      {"mul-mul-add over omega 2 (exact 5/2)",
       "param a = 0.5\nparam b = 1\nloop i = 3, n\n"
       "  x[i] = a*(b*x[i-2]) + x[i-2]*a\nend\n"},
      {"mul-add over omega 3 (exact 4/3... via extra add)",
       "param a = 0.5\nparam b = 1\nloop i = 4, n\n"
       "  x[i] = a*x[i-3] + b + x[i-3]\nend\n"},
  };
  const MachineModel Machine = MachineModel::cydra5();
  TextTable Frac;
  Frac.setHeader({"loop", "MII", "II", "II/iter unrolled x2",
                  "II/iter unrolled x3"});
  for (const auto &F : Fractional) {
    LoopBody Body;
    if (!compileLoop(F.Source, F.Name, Body).empty())
      continue;
    const Schedule Plain = scheduleLoop(Body, Machine);
    std::vector<std::string> Row = {F.Name, std::to_string(Plain.MII),
                                    std::to_string(Plain.II)};
    for (int Factor : {2, 3}) {
      const Schedule S = scheduleLoop(unrollLoop(Body, Factor), Machine);
      Row.push_back(S.Success ? formatNumber(
                                    static_cast<double>(S.II) / Factor, 2)
                              : "fail");
    }
    Frac.addRow(Row);
  }
  OS << "Synthetic fractional-MII family:\n";
  Frac.print(OS);
}

/// Rotating register files vs modulo variable expansion (Section 2.3):
/// the code expansion and extra registers the rotating file avoids.
void printMve(std::ostream &OS, const Results &R) {
  long Loops = 0;
  long RotRegs = 0, MveRegs = 0;
  long RotOps = 0, MveOps = 0;
  std::vector<double> ExpansionFactors;
  for (const LoopResults &L : R) {
    if (!L.KernelRRSize || !L.Mve.Success)
      continue;
    ++Loops;
    RotRegs += *L.KernelRRSize;
    MveRegs += L.Mve.TotalRegisters;
    RotOps += L.Analysis.Ops;
    MveOps += L.Mve.ExpandedKernelOps;
    ExpansionFactors.push_back(L.Mve.UnrollFactor);
  }
  const QuantileSummary Exp = summarize(ExpansionFactors);
  OS << "Rotating register files vs modulo variable expansion (" << Loops
     << " loops)\n";
  TextTable T;
  T.setHeader({"", "rotating file", "modulo variable expansion"});
  T.addRow({"total registers", std::to_string(RotRegs),
            std::to_string(MveRegs)});
  T.addRow({"total kernel ops", std::to_string(RotOps),
            std::to_string(MveOps)});
  T.print(OS);
  OS << "\nkernel unroll factor: min " << formatNumber(Exp.Min) << ", median "
     << formatNumber(Exp.Median) << ", 90% " << formatNumber(Exp.Pct90)
     << ", max " << formatNumber(Exp.Max) << " — code expands "
     << formatNumber(static_cast<double>(MveOps) /
                         static_cast<double>(std::max(RotOps, 1L)),
                     2)
     << "x without rotating files (the paper's motivation for the Cydra's "
        "rotating file, Section 2.3)\n";
}

/// Code-generation schemas (Rau et al. [19], cited in Sections 2.2-2.3):
/// the code a machine without brtop and stage predicates pays for explicit
/// prologue and epilogue copies, alone and stacked with modulo variable
/// expansion.
void printSchemas(std::ostream &OS, const Results &R) {
  long Loops = 0;
  long KernelOnlyOps = 0, SchemaOps = 0, SchemaMveOps = 0;
  std::vector<double> Stages, Expansion;
  for (const LoopResults &L : R) {
    const SchemaInfo &Schema = L.Schema;
    if (!Schema.Success || !L.Mve.Success)
      continue;
    ++Loops;
    KernelOnlyOps += Schema.KernelOps;
    SchemaOps += Schema.totalOps();
    // A fully conventional machine needs the schema AND modulo variable
    // expansion of the kernel.
    SchemaMveOps += Schema.PrologueOps + Schema.EpilogueOps +
                    static_cast<long>(L.Mve.UnrollFactor) * Schema.KernelOps;
    Stages.push_back(Schema.StageCount);
    Expansion.push_back(static_cast<double>(Schema.totalOps()) /
                        static_cast<double>(Schema.KernelOps));
  }

  OS << "Code-generation schemas (Rau et al. [19]) over " << Loops
     << " loops\n";
  TextTable T;
  T.setHeader({"scheme", "total ops emitted", "vs kernel-only"});
  auto Ratio = [&](long Ops) {
    return formatNumber(static_cast<double>(Ops) /
                            static_cast<double>(std::max(KernelOnlyOps, 1L)),
                        2) +
           "x";
  };
  T.addRow({"kernel-only (brtop + stage predicates + rotating files)",
            std::to_string(KernelOnlyOps), "1x"});
  T.addRow({"prologue/kernel/epilogue (no predicated brtop)",
            std::to_string(SchemaOps), Ratio(SchemaOps)});
  T.addRow({"schema + modulo variable expansion (conventional machine)",
            std::to_string(SchemaMveOps), Ratio(SchemaMveOps)});
  T.print(OS);

  const QuantileSummary S = summarize(Stages);
  const QuantileSummary E = summarize(Expansion);
  OS << "\nstages: median " << formatNumber(S.Median) << ", 90% "
     << formatNumber(S.Pct90) << ", max " << formatNumber(S.Max)
     << "; per-loop schema expansion: median " << formatNumber(E.Median, 2)
     << "x, max " << formatNumber(E.Max, 2)
     << "x\n(The paper adopts kernel-only code precisely because the "
        "alternatives expand code this much.)\n";
}

/// Section 8's future work: bidirectional slack scheduling on
/// straight-line code, the context where Integrated Prepass Scheduling was
/// studied [8, 3]. Each suite loop body is scheduled as a basic block.
void printStraightLine(std::ostream &OS, const Results &R) {
  struct Totals {
    long Length = 0;
    long MaxLive = 0;
    long Blocks = 0;
    long PressureWins = 0;
  };
  Totals Bi, Uni;
  long Ties = 0;
  for (const LoopResults &L : R) {
    const AcyclicSchedule &A = L.StraightBi;
    const AcyclicSchedule &B = L.StraightUni;
    if (!A.Success || !B.Success)
      continue;
    ++Bi.Blocks;
    ++Uni.Blocks;
    Bi.Length += A.Length;
    Uni.Length += B.Length;
    Bi.MaxLive += A.MaxLive;
    Uni.MaxLive += B.MaxLive;
    if (A.MaxLive < B.MaxLive)
      ++Bi.PressureWins;
    else if (B.MaxLive < A.MaxLive)
      ++Uni.PressureWins;
    else
      ++Ties;
  }

  OS << "Straight-line slack scheduling (" << Bi.Blocks
     << " basic blocks)\n";
  TextTable T;
  T.setHeader({"policy", "total length", "total MaxLive", "pressure wins"});
  T.addRow({"bidirectional", std::to_string(Bi.Length),
            std::to_string(Bi.MaxLive), std::to_string(Bi.PressureWins)});
  T.addRow({"unidirectional", std::to_string(Uni.Length),
            std::to_string(Uni.MaxLive), std::to_string(Uni.PressureWins)});
  T.print(OS);
  OS << "(" << Ties << " ties)\n\n"
     << "Expected shape: comparable schedule lengths, markedly lower "
        "pressure for the bidirectional policy — supporting the paper's "
        "conjecture that slack scheduling integrates lifetime sensitivity "
        "where IPS merely switches heuristics.\n";
}

/// Reads "[suite_size] [--jobs N]": a positive suite size (default 1,525)
/// and N >= 0 stored in \p Jobs (0 means LSMS_JOBS or the hardware). Any
/// other command line prints the usage line and exits with status 1.
int suiteSizeFromArgs(int Argc, char **Argv, int &Jobs) {
  int Size = 0;
  bool Ok = true;
  for (int I = 1; I < Argc && Ok; ++I) {
    if (std::strcmp(Argv[I], "--jobs") == 0)
      Ok = I + 1 < Argc && parseWholeInteger(Argv[++I], Jobs) && Jobs >= 0;
    else
      Ok = Size == 0 && parseWholeInteger(Argv[I], Size) && Size > 0;
  }
  if (!Ok) {
    std::cerr << "usage: paper_report [suite_size] [--jobs N]\n";
    std::exit(1);
  }
  return Size > 0 ? Size : 1525;
}

} // namespace

int main(int Argc, char **Argv) {
  int Jobs = 0;
  const int N = suiteSizeFromArgs(Argc, Argv, Jobs);
  const MachineModel Machine = MachineModel::cydra5();
  const std::vector<LoopBody> Suite = buildFullSuite(N);

  SchedulerOptions ByOne = SchedulerOptions::slack();
  ByOne.IIIncrementPct = 0; // max(0, 1) = +1 per restart
  const struct {
    OutcomeOf Which;
    MachineModel Machine;
    SchedulerOptions Options;
  } Passes[] = {
      {&LoopResults::Slack, Machine, SchedulerOptions::slack()},
      {&LoopResults::Cydrome, Machine, SchedulerOptions::cydrome()},
      {&LoopResults::Unidirectional, Machine,
       SchedulerOptions::unidirectionalSlack()},
      {&LoopResults::SlackByOne, Machine, ByOne},
      {&LoopResults::SlackLoad1, MachineModel::withLoadLatency(1),
       SchedulerOptions::slack()},
      {&LoopResults::SlackLoad5, MachineModel::withLoadLatency(5),
       SchedulerOptions::slack()},
      {&LoopResults::SlackLoad26, MachineModel::withLoadLatency(26),
       SchedulerOptions::slack()},
  };
  // One index per (loop, task), the tasks being each scheduler pass, the
  // analysis, the x2-unrolled pass and the two straight-line policies, so
  // a loop that is slow under one task does not hold its other tasks on
  // the same worker.
  constexpr int NumPasses = static_cast<int>(std::size(Passes));
  constexpr int Tasks = NumPasses + 4;
  Results R(Suite.size());
  parallelFor(resolveJobs(Jobs), static_cast<int>(Suite.size()) * Tasks,
              [&](int I) {
    const LoopBody &Body = Suite[static_cast<size_t>(I / Tasks)];
    LoopResults &L = R[static_cast<size_t>(I / Tasks)];
    const int Task = I % Tasks;
    if (Task < NumPasses) {
      const auto &[Which, PassMachine, Options] = Passes[Task];
      const DepGraph Graph(Body, PassMachine);
      const Schedule Sched = scheduleLoop(Graph, Options);
      L.*Which = measureOutcome(Graph, Sched);
      if (Which == &LoopResults::Slack)
        measureCode(Body, Sched, L);
      return;
    }
    const DepGraph Graph(Body, Machine);
    switch (Task - NumPasses) {
    case 0:
      L.Analysis = analyzeLoop(Graph);
      break;
    case 1:
      L.UnrolledII = unrolledII(Graph);
      break;
    case 2:
      L.StraightBi = scheduleStraightLine(Graph, SchedulerOptions::slack());
      break;
    default:
      L.StraightUni =
          scheduleStraightLine(Graph, SchedulerOptions::unidirectionalSlack());
      break;
    }
  });

  std::ostream &OS = std::cout;
  printTable1(OS);
  for (void (*Section)(std::ostream &, const Results &) :
       {printTable2, printTable3, printTable4, printFig5, printFig6,
        printFig7, printFig8, printSection6, printBidirectionalAblation,
        printIIIncrementAblation, printLatencyAblation,
        printAllocationQuality, printUnrolling, printMve, printSchemas,
        printStraightLine}) {
    OS << '\n';
    Section(OS, R);
  }
  return 0;
}
