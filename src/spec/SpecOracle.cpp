#include "spec/SpecOracle.h"

#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "ir/DepGraph.h"
#include "support/Table.h"
#include "vliwsim/Replay.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <ostream>

using namespace lsms;

IrregularCase lsms::runIrregularCase(const LoopBody &Body,
                                     const IrregularOptions &Options) {
  const MachineModel Machine = MachineModel::cydra5();
  IrregularCase Case;
  Case.Name = Body.Name;
  Case.Ops = Body.numMachineOps();
  Case.IsWhile = Body.isWhileLoop();

  const Lowering Cons = lowerConservative(Body);
  const Lowering Spec = lowerSpeculative(Body, Options.Spec);
  Case.MayAliasArcs = Cons.MayAliasArcs;
  Case.ControlArcs = Cons.ControlArcs;
  Case.DroppedArcs = Spec.DroppedArcs;
  Case.NumAssumptions = static_cast<int>(Spec.Assumptions.size());

  const DepGraph ConsG(Cons.Body, Machine);
  const DepGraph SpecG(Spec.Body, Machine);

  const Schedule ConsS = scheduleLoop(ConsG, SchedulerOptions::slack());
  Schedule SpecS = scheduleLoop(SpecG, SchedulerOptions::slack());
  Case.SpecMII = SpecS.MII;
  Case.ConsSuccess = ConsS.Success;
  if (ConsS.Success) {
    Case.ConsII = ConsS.II;
    Case.ConsError = validateSchedule(ConsG, ConsS);
  }

  // The speculative arcs are a subset of the conservative ones, so the
  // conservative schedule is legal for the speculative body too. Adopting
  // it whenever the heuristic did worse makes SpecII <= ConsII structural.
  if (ConsS.Success && (!SpecS.Success || SpecS.II > ConsS.II)) {
    const int MII = SpecS.MII, ResMII = SpecS.ResMII, RecMII = SpecS.RecMII;
    SpecS = ConsS;
    SpecS.MII = MII;
    SpecS.ResMII = ResMII;
    SpecS.RecMII = RecMII;
    Case.AdoptedCons = true;
  }
  Case.SpecSuccess = SpecS.Success;
  if (SpecS.Success) {
    Case.SpecII = SpecS.II;
    Case.SpecError = validateSchedule(SpecG, SpecS);
  }
  Case.IIGapValid = Case.ConsSuccess && Case.SpecSuccess;
  Case.IIGap = Case.IIGapValid ? Case.ConsII - Case.SpecII : 0;

  const ExactResult ConsX = scheduleLoopExact(ConsG, Options.Exact);
  const ExactResult SpecX = scheduleLoopExact(SpecG, Options.Exact);
  Case.ConsStatus = ConsX.Status;
  Case.SpecStatus = SpecX.Status;
  if (ConsX.Sched.Success) {
    Case.ConsExactII = ConsX.Sched.II;
    if (Case.ConsError.empty())
      Case.ConsError = validateSchedule(ConsG, ConsX.Sched);
  }
  if (SpecX.Sched.Success) {
    Case.SpecExactII = SpecX.Sched.II;
    if (Case.SpecError.empty())
      Case.SpecError = validateSchedule(SpecG, SpecX.Sched);
  }
  Case.CertifiedGapValid = ConsX.Status == ExactStatus::Optimal &&
                           SpecX.Status == ExactStatus::Optimal;
  Case.CertifiedGap =
      Case.CertifiedGapValid ? Case.ConsExactII - Case.SpecExactII : 0;

  // Replay both schedules against the default concrete trace of the
  // conservative body, traced once for both. The conservative schedule
  // must reproduce the reference unconditionally; the speculative one must
  // whenever every assumption held.
  const TracedReference Ref(Cons.Body, IrregularWindow);
  if (SpecS.Success) {
    Case.Replayed = true;
    const ReplayResult RR = replaySchedule(Ref, SpecS, Spec.Assumptions);
    Case.AllHeld = RR.AllHeld;
    for (const AssumptionOutcome &O : RR.Outcomes) {
      if (O.Held)
        ++Case.AssumptionsHeld;
      Case.Violations += O.Violations;
    }
    Case.MisspeculatedStores = RR.Pipelined.MisspeculatedStores;
    Case.ActualTrip = Ref.result().ActualTrip;
    Case.SpecTraceOk = RR.Mismatch.empty();
    if (RR.AllHeld && !RR.Mismatch.empty())
      Case.TraceError =
          "speculative schedule diverged with all assumptions held: " +
          RR.Mismatch;
  }
  if (ConsS.Success) {
    const ReplayResult CR = replaySchedule(Ref, ConsS, {});
    Case.ConsTraceOk = CR.Mismatch.empty();
    if (!Case.ConsTraceOk && Case.TraceError.empty())
      Case.TraceError =
          "conservative schedule diverged from reference: " + CR.Mismatch;
  }

  Case.SpecWin = Case.IIGapValid && Case.IIGap > 0 && Case.Replayed &&
                 Case.AllHeld && Case.SpecTraceOk && Case.DroppedArcs > 0;
  return Case;
}

IrregularReport
lsms::aggregateIrregularCases(const IrregularOptions &Options,
                              std::vector<IrregularCase> Cases) {
  IrregularReport Report;
  Report.Config = Options;
  Report.Cases = std::move(Cases);
  for (const IrregularCase &Case : Report.Cases) {
    if (Case.ConsSuccess)
      ++Report.ConsScheduled;
    if (Case.SpecSuccess)
      ++Report.SpecScheduled;
    if (Case.AdoptedCons)
      ++Report.Adopted;
    if (Case.IIGapValid) {
      ++Report.Comparable;
      if (Case.IIGap >= 0)
        ++Report.SpecAtOrBelowCons;
    }
    if (Case.IIGapValid && Case.IIGap > 0)
      ++Report.StrictGaps;
    if (Case.CertifiedGapValid && Case.CertifiedGap > 0)
      ++Report.CertifiedStrictGaps;
    if (Case.IsWhile)
      ++Report.WhileLoops;
    if (Case.NumAssumptions > 0)
      ++Report.LoopsWithAssumptions;
    if (Case.Replayed && Case.NumAssumptions > 0) {
      if (Case.AllHeld)
        ++Report.AllHeldLoops;
      else
        ++Report.ViolatedLoops;
    }
    if (Case.SpecWin)
      ++Report.SpecWins;
    Report.TotalViolations += Case.Violations;
    Report.TotalMisspeculatedStores += Case.MisspeculatedStores;
    if (!Case.ConsError.empty() || !Case.SpecError.empty())
      ++Report.ValidationFailures;
    if (!Case.TraceError.empty())
      ++Report.TraceFailures;
    Report.Failures.invalid(Case.Name, "conservative schedule",
                            Case.ConsError);
    Report.Failures.invalid(Case.Name, "speculative schedule",
                            Case.SpecError);
    Report.Failures.add(Case.Name, belowProvenII("conservative heuristic",
                                                 Case.ConsSuccess, Case.ConsII,
                                                 Case.ConsStatus,
                                                 Case.ConsExactII));
    Report.Failures.add(Case.Name, belowProvenII("speculative heuristic",
                                                 Case.SpecSuccess, Case.SpecII,
                                                 Case.SpecStatus,
                                                 Case.SpecExactII));
    Report.Failures.add(Case.Name, Case.TraceError);
    if (Case.IIGapValid && Case.IIGap < 0)
      Report.Failures.add(Case.Name,
                          "speculative II " + std::to_string(Case.SpecII) +
                              " exceeds conservative II " +
                              std::to_string(Case.ConsII));
  }
  return Report;
}

IrregularReport lsms::runIrregularSweep(const IrregularOptions &Options) {
  const std::vector<LoopBody> Suite = buildIrregularSuite(
      Options.NumLoops, Options.MaxOps, Options.Seed, Options.Jobs);
  return aggregateIrregularCases(
      Options, runOracleCases(Suite, Options.Jobs, [&](const LoopBody &B) {
        return runIrregularCase(B, Options);
      }));
}

void lsms::printIrregularReport(std::ostream &OS,
                                const IrregularReport &Report) {
  TextTable T;
  T.setHeader({"loop", "ops", "w", "ma", "drop", "cII", "sII", "dII", "xcII",
               "xsII", "cert", "asm", "viol", "mst", "win"});
  for (const IrregularCase &Case : Report.Cases) {
    std::string Asm = "-";
    if (Case.NumAssumptions > 0 && Case.Replayed)
      Asm = std::to_string(Case.AssumptionsHeld) + "/" +
            std::to_string(Case.NumAssumptions);
    T.addRow({Case.Name, std::to_string(Case.Ops), Case.IsWhile ? "y" : "-",
              std::to_string(Case.MayAliasArcs),
              std::to_string(Case.DroppedArcs),
              Case.ConsSuccess ? std::to_string(Case.ConsII) : "-",
              Case.SpecSuccess ? std::to_string(Case.SpecII) : "-",
              Case.IIGapValid ? std::to_string(Case.IIGap) : "-",
              Case.ConsStatus == ExactStatus::Optimal ||
                      Case.ConsStatus == ExactStatus::Feasible
                  ? std::to_string(Case.ConsExactII)
                  : "-",
              Case.SpecStatus == ExactStatus::Optimal ||
                      Case.SpecStatus == ExactStatus::Feasible
                  ? std::to_string(Case.SpecExactII)
                  : "-",
              Case.CertifiedGapValid ? std::to_string(Case.CertifiedGap)
                                     : "-",
              Asm, std::to_string(Case.Violations),
              std::to_string(Case.MisspeculatedStores),
              Case.SpecWin ? "win" : "-"});
  }
  T.print(OS);

  OS << "\nSummary over " << Report.Cases.size() << " loops (seed "
     << Report.Config.Seed << ", <= " << Report.Config.MaxOps << " ops, "
     << IrregularWindow << "-iteration replay window):\n"
     << "  conservative scheduled:  " << Report.ConsScheduled << "\n"
     << "  speculative scheduled:   " << Report.SpecScheduled
     << " (adopted the conservative schedule on " << Report.Adopted << ")\n"
     << "  spec II <= cons II:      " << Report.SpecAtOrBelowCons << " of "
     << Report.Comparable << " comparable (structural)\n"
     << "  strict II gaps:          " << Report.StrictGaps
     << " (certified by the exact engine: " << Report.CertifiedStrictGaps
     << ")\n"
     << "  while loops:             " << Report.WhileLoops << "\n"
     << "  loops with assumptions:  " << Report.LoopsWithAssumptions
     << " (all held: " << Report.AllHeldLoops << ", violated: "
     << Report.ViolatedLoops << ")\n"
     << "  held-assumption wins:    " << Report.SpecWins << "\n"
     << "  assumption violations:   " << Report.TotalViolations
     << " (misspeculated stores: " << Report.TotalMisspeculatedStores
     << ")\n"
     << "  validation failures:     " << Report.ValidationFailures << "\n"
     << "  trace failures:          " << Report.TraceFailures << "\n";
  Report.Failures.print(OS);
}
