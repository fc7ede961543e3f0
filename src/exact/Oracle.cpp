#include "exact/Oracle.h"

#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "support/Histogram.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Suite.h"

#include <ostream>

using namespace lsms;

namespace {

/// Runs both schedulers on one loop. Pure: touches nothing but its
/// arguments, so the sweep can fan out across workers.
OracleCase runOracleCase(const LoopBody &Body, const MachineModel &Machine,
                         const ExactOptions &Exact) {
  const DepGraph Graph(Body, Machine);
  OracleCase Case;
  Case.Name = Body.Name;
  Case.Ops = Body.numMachineOps();

  const Schedule Heur = scheduleLoop(Graph, SchedulerOptions::slack());
  Case.MII = Heur.MII;
  Case.HeurSuccess = Heur.Success;
  Case.HeurEjections = Heur.Stats.Ejections;
  if (Heur.Success) {
    Case.HeurII = Heur.II;
    Case.HeurMaxLive =
        computePressure(Body, Heur.Times, Heur.II, RegClass::RR).MaxLive;
    Case.HeurError = validateSchedule(Graph, Heur);
  }

  const ExactResult Ex = scheduleLoopExact(Graph, Exact);
  Case.Status = Ex.Status;
  Case.Nodes = Ex.NodesExplored;
  if (Ex.Sched.Success) {
    Case.ExactII = Ex.Sched.II;
    Case.ExactMaxLive = Ex.MaxLive;
    Case.MaxLiveProven = Ex.MaxLiveProven;
    Case.Certificate = Ex.Certificate;
    Case.MinAvg = Ex.MinAvgAtII;
    Case.ExactError = validateSchedule(Graph, Ex.Sched);
  }

  finalizeOracleGaps(Case);
  return Case;
}

/// Short certificate spelling for the per-loop table column.
const char *certColumn(MaxLiveCertificate Certificate) {
  switch (Certificate) {
  case MaxLiveCertificate::None:
    return "-";
  case MaxLiveCertificate::MinAvgMet:
    return "minavg";
  case MaxLiveCertificate::BnBExhausted:
    return "bnb";
  case MaxLiveCertificate::SatUnsatBelow:
    return "sat";
  }
  return "?";
}

} // namespace

void OracleFailures::add(const std::string &Loop, const std::string &What) {
  if (!What.empty())
    Lines.push_back(Loop + ": " + What);
}

void OracleFailures::invalid(const std::string &Loop, const char *Subject,
                             const std::string &Error) {
  if (!Error.empty())
    add(Loop, std::string(Subject) + " invalid: " + Error);
}

void OracleFailures::print(std::ostream &OS) const {
  for (const std::string &Line : Lines)
    OS << "  " << Line << "\n";
}

std::string lsms::belowProvenII(const char *Who, bool HeurSuccess,
                                int HeurII, ExactStatus Status, int ExactII) {
  if (!HeurSuccess || Status != ExactStatus::Optimal || HeurII >= ExactII)
    return "";
  return std::string(Who) + " II " + std::to_string(HeurII) +
         " below proven-minimal II " + std::to_string(ExactII);
}

void lsms::finalizeOracleGaps(OracleCase &Case) {
  const bool ExactSuccess = Case.Status == ExactStatus::Optimal ||
                            Case.Status == ExactStatus::Feasible;
  Case.IIGapValid = Case.HeurSuccess && ExactSuccess;
  Case.IIGap = Case.IIGapValid ? Case.HeurII - Case.ExactII : 0;
  // Pressure at different IIs is incomparable — MaxLive counts lifetimes
  // folded over II columns, so a larger II changes the quantity itself,
  // not just the schedule. Aggregate the gap only at equal II, and only
  // when both sides actually computed a pressure.
  Case.MaxLiveGapValid = Case.IIGapValid && Case.IIGap == 0 &&
                         Case.HeurMaxLive >= 0 && Case.ExactMaxLive >= 0;
  Case.MaxLiveGap =
      Case.MaxLiveGapValid ? Case.HeurMaxLive - Case.ExactMaxLive : 0;
}

OracleReport lsms::runOracle(const OracleOptions &Options) {
  const std::vector<LoopBody> Suite =
      buildOracleSuite(Options.NumLoops, OracleMinOps, Options.MaxOps,
                       Options.Seed, Options.Jobs);

  ExactOptions Exact = Options.Exact;
  Exact.MinimizeMaxLive = true;

  // DepGraph keeps a reference to the machine, so it must outlive the loop.
  const MachineModel Machine = MachineModel::cydra5();
  return aggregateOracleCases(
      Options, runOracleCases(Suite, Options.Jobs, [&](const LoopBody &Body) {
        return runOracleCase(Body, Machine, Exact);
      }));
}

OracleReport lsms::aggregateOracleCases(const OracleOptions &Options,
                                        std::vector<OracleCase> Cases) {
  OracleReport Report;
  Report.Config = Options;
  Report.Cases = std::move(Cases);
  for (const OracleCase &Case : Report.Cases) {
    const bool ExactSuccess = Case.Status == ExactStatus::Optimal ||
                              Case.Status == ExactStatus::Feasible;
    if (Case.HeurSuccess) {
      ++Report.HeurScheduled;
      if (Case.HeurII == Case.MII)
        ++Report.HeurAtMII;
    }
    if (ExactSuccess) {
      ++Report.ExactScheduled;
      if (Case.Status == ExactStatus::Optimal)
        ++Report.ProvenOptimalII;
      if (Case.ExactII == Case.MII)
        ++Report.ExactAtMII;
    } else if (Case.Status == ExactStatus::Timeout) {
      ++Report.Timeouts;
    }
    if (Case.IIGapValid && Case.IIGap == 0)
      ++Report.HeurAtExactII;
    if (Case.Certificate != MaxLiveCertificate::None) {
      ++Report.MaxLiveCertified;
      if (Case.Certificate == MaxLiveCertificate::MinAvgMet)
        ++Report.CertMinAvg;
      else
        ++Report.CertFamily;
    }
    if (!Case.HeurError.empty() || !Case.ExactError.empty())
      ++Report.ValidationFailures;
    Report.Failures.invalid(Case.Name, "heuristic schedule", Case.HeurError);
    Report.Failures.invalid(Case.Name, "exact schedule", Case.ExactError);
    Report.Failures.add(Case.Name,
                        belowProvenII("heuristic", Case.HeurSuccess,
                                      Case.HeurII, Case.Status, Case.ExactII));
  }
  return Report;
}

void lsms::printOracleReport(std::ostream &OS, const OracleReport &Report) {
  TextTable T;
  T.setHeader({"loop", "ops", "MII", "II slk", "II ex", "status", "dII",
               "ML slk", "ML ex", "MinAvg", "cert", "dML", "ej", "nodes"});
  Histogram IIGaps(1, 4);
  std::vector<double> IIGapSamples, MaxLiveGapSamples;
  for (const OracleCase &Case : Report.Cases) {
    T.addRow({Case.Name, std::to_string(Case.Ops), std::to_string(Case.MII),
              Case.HeurSuccess ? std::to_string(Case.HeurII) : "-",
              Case.Status == ExactStatus::Optimal ||
                      Case.Status == ExactStatus::Feasible
                  ? std::to_string(Case.ExactII)
                  : "-",
              exactStatusName(Case.Status),
              Case.IIGapValid ? std::to_string(Case.IIGap) : "-",
              Case.HeurMaxLive >= 0 ? std::to_string(Case.HeurMaxLive) : "-",
              Case.ExactMaxLive >= 0 ? std::to_string(Case.ExactMaxLive)
                                     : "-",
              std::to_string(Case.MinAvg), certColumn(Case.Certificate),
              Case.MaxLiveGapValid ? std::to_string(Case.MaxLiveGap) : "-",
              std::to_string(Case.HeurEjections),
              std::to_string(Case.Nodes)});
    if (Case.IIGapValid) {
      IIGaps.add(Case.IIGap);
      IIGapSamples.push_back(Case.IIGap);
    }
    if (Case.MaxLiveGapValid) {
      MaxLiveGapSamples.push_back(static_cast<double>(Case.MaxLiveGap));
    }
  }
  T.print(OS);

  OS << "\nSummary over " << Report.Cases.size() << " loops (seed "
     << Report.Config.Seed << ", " << OracleMinOps << "-"
     << Report.Config.MaxOps << " ops):\n"
     << "  heuristic scheduled:   " << Report.HeurScheduled << "\n"
     << "  exact scheduled:       " << Report.ExactScheduled << " ("
     << Report.ProvenOptimalII << " with proven-minimal II, "
     << Report.Timeouts << " timeouts)\n"
     << "  heuristic at MII:      " << Report.HeurAtMII << "\n"
     << "  exact minimum at MII:  " << Report.ExactAtMII
     << " (the remainder is bound slack, not heuristic slack)\n"
     << "  heuristic at exact II: " << Report.HeurAtExactII << "\n"
     << "  MaxLive certified:     " << Report.MaxLiveCertified << " ("
     << Report.CertMinAvg << " at the MinAvg bound, " << Report.CertFamily
     << " family-minimal)\n"
     << "  validation failures:   " << Report.ValidationFailures << "\n";

  if (!IIGapSamples.empty()) {
    const QuantileSummary S = summarize(IIGapSamples);
    OS << "\nII gap (heuristic - exact): mean " << formatNumber(S.Mean)
       << ", median " << formatNumber(S.Median) << ", max "
       << formatNumber(S.Max) << "\n";
    IIGaps.print(OS, "II gap");
  }
  if (!MaxLiveGapSamples.empty()) {
    const QuantileSummary S = summarize(MaxLiveGapSamples);
    OS << "\nMaxLive gap at equal II (heuristic - exact): mean "
       << formatNumber(S.Mean) << ", median " << formatNumber(S.Median)
       << ", max " << formatNumber(S.Max) << "\n";
    // Each loop counts at its own sign. Histogram takes non-negative
    // samples, and a negative gap (the heuristic beat an exact value that
    // was budgeted out before certifying) would fall into its 0 bucket.
    int BySign[3] = {0, 0, 0}; // below, at, above zero
    for (const double Gap : MaxLiveGapSamples)
      ++BySign[Gap < 0 ? 0 : Gap == 0 ? 1 : 2];
    OS << "  loops below 0: " << BySign[0] << ", at 0: " << BySign[1]
       << ", above 0: " << BySign[2] << "\n";
  }
  Report.Failures.print(OS);
}
