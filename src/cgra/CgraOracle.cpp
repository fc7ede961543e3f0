#include "cgra/CgraOracle.h"

#include "bounds/Bounds.h"
#include "support/Table.h"
#include "workloads/Suite.h"

#include <ostream>

using namespace lsms;

CgraExactResult lsms::mapLoopCgraExact(const DepGraph &Graph,
                                       const CgraModel &Cgra,
                                       const CgraExactOptions &Options) {
  CgraExactResult Res;
  const MIIBounds Bounds = computeMII(Graph);
  Res.Map.MII = Bounds.MII;
  const int MaxII = Options.IICap.maxII(Bounds.MII);

  MinDistMatrix MD;
  std::vector<int> Times, Pes;
  bool SawBudget = false;
  for (int II = Bounds.MII; II <= MaxII; ++II) {
    ++Res.Attempts;
    if (!MD.compute(Graph, II))
      continue; // II < RecMII: infeasible at this rung by the cycle test
    const CgraSatStatus S = mapAtIICgraSat(Graph, Cgra, MD,
                                           Options.ConflictBudget, Times,
                                           Pes, Res.Sat);
    if (S == CgraSatStatus::Mapped) {
      Res.Status = SawBudget ? ExactStatus::Feasible : ExactStatus::Optimal;
      Res.Map.Success = true;
      Res.Map.II = II;
      Res.Map.Times = Times;
      Res.Map.Pes = Pes;
      return Res;
    }
    if (S == CgraSatStatus::Budget)
      SawBudget = true;
  }
  Res.Status = SawBudget ? ExactStatus::Timeout : ExactStatus::Infeasible;
  return Res;
}

CgraOracleCase lsms::runCgraOracleCase(const LoopBody &Body,
                                       const CgraOracleOptions &Options) {
  CgraOracleCase Case;
  Case.Name = Body.Name;
  Case.Ops = Body.numMachineOps();

  const DepGraph Graph(Body, Options.Cgra.flatModel());

  const CgraMapping Heur =
      mapLoopCgra(Graph, Options.Cgra, Options.Heuristic);
  Case.FlatMII = Heur.MII;
  Case.HeurSuccess = Heur.Success;
  Case.HeurII = Heur.II;
  if (Heur.Success)
    Case.HeurError = validateMapping(Graph, Options.Cgra, Heur);

  const CgraExactResult Exact =
      mapLoopCgraExact(Graph, Options.Cgra, Options.Exact);
  Case.Status = Exact.Status;
  Case.ExactII = Exact.Map.II;
  if (Exact.Map.Success)
    Case.ExactError = validateMapping(Graph, Options.Cgra, Exact.Map);

  if (Case.HeurSuccess && Exact.Map.Success) {
    Case.IIGapValid = true;
    Case.IIGap = Case.HeurII - Case.ExactII;
  }
  Case.AboveFlatMII =
      Case.Status == ExactStatus::Optimal && Case.ExactII > Case.FlatMII;

  Case.ParityError = belowProvenII("heuristic", Case.HeurSuccess,
                                   Case.HeurII, Case.Status, Case.ExactII);
  if (Case.Status == ExactStatus::Infeasible && Case.HeurSuccess &&
      Case.HeurError.empty())
    Case.ParityError = "heuristic mapped at II " +
                       std::to_string(Case.HeurII) +
                       " a loop SAT proved unmappable";
  return Case;
}

CgraOracleReport lsms::runCgraOracle(const CgraOracleOptions &Options) {
  CgraOracleReport Report;
  Report.Config = Options;

  std::vector<LoopBody> Loops;
  if (Options.IncludeKernels)
    Loops = buildKernelSuite();
  std::vector<LoopBody> Random = buildOracleSuite(
      Options.NumLoops, Options.MinOps, Options.MaxOps, Options.Seed,
      Options.Jobs);
  for (LoopBody &Body : Random)
    Loops.push_back(std::move(Body));

  Report.Cases = runOracleCases(Loops, Options.Jobs, [&](const LoopBody &B) {
    return runCgraOracleCase(B, Options);
  });
  for (const CgraOracleCase &Case : Report.Cases) {
    if (Case.HeurSuccess)
      ++Report.HeurMapped;
    if (Case.Status == ExactStatus::Optimal ||
        Case.Status == ExactStatus::Feasible)
      ++Report.ExactMapped;
    if (Case.Status == ExactStatus::Optimal)
      ++Report.CertifiedOptimal;
    if (Case.IIGapValid && Case.IIGap == 0)
      ++Report.HeurAtExactII;
    if (Case.AboveFlatMII)
      ++Report.AboveFlatMII;
    if (Case.Status == ExactStatus::Timeout)
      ++Report.Timeouts;
    if (Case.Status == ExactStatus::Infeasible)
      ++Report.Infeasible;
    if (!Case.HeurError.empty() || !Case.ExactError.empty())
      ++Report.ValidationFailures;
    if (!Case.ParityError.empty())
      ++Report.ParityViolations;
    Report.Failures.invalid(Case.Name, "heuristic mapping", Case.HeurError);
    Report.Failures.invalid(Case.Name, "exact mapping", Case.ExactError);
    Report.Failures.add(Case.Name, Case.ParityError);
  }
  return Report;
}

void lsms::printCgraOracleReport(std::ostream &OS,
                                 const CgraOracleReport &Report) {
  TextTable Table;
  Table.setHeader({"loop", "ops", "flatMII", "heur II", "exact II", "status",
                   "gap", ">MII"});
  for (const CgraOracleCase &Case : Report.Cases) {
    std::vector<std::string> Row;
    Row.push_back(Case.Name);
    Row.push_back(std::to_string(Case.Ops));
    Row.push_back(std::to_string(Case.FlatMII));
    Row.push_back(Case.HeurSuccess ? std::to_string(Case.HeurII) : "-");
    Row.push_back((Case.Status == ExactStatus::Optimal ||
                   Case.Status == ExactStatus::Feasible)
                      ? std::to_string(Case.ExactII)
                      : "-");
    Row.push_back(exactStatusName(Case.Status));
    Row.push_back(Case.IIGapValid ? std::to_string(Case.IIGap) : "-");
    Row.push_back(Case.AboveFlatMII ? "*" : "");
    Table.addRow(std::move(Row));
  }
  Table.print(OS);

  OS << "\nGrid: " << Report.Config.Cgra.describe() << "\n";
  OS << "Loops: " << Report.Cases.size() << "  heuristic mapped: "
     << Report.HeurMapped << "  exact mapped: " << Report.ExactMapped
     << "  certified optimal: " << Report.CertifiedOptimal << "\n";
  OS << "Heuristic at exact II: " << Report.HeurAtExactII
     << "  spatial II above flat MII: " << Report.AboveFlatMII
     << "  timeouts: " << Report.Timeouts << "  infeasible: "
     << Report.Infeasible << "\n";
  OS << "Validation failures: " << Report.ValidationFailures
     << "  parity violations: " << Report.ParityViolations << "\n";
  Report.Failures.print(OS);
}
