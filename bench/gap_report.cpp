//===----------------------------------------------------------------------===//
/// \file The differential sweeps in one binary. Each family runs a
/// heuristic beside an exact engine on seeded loops and prints a
/// deterministic report, byte-identical at every --jobs count, so the
/// output can serve as a regression reference:
///
///   flat       the slack scheduler vs an exact modulo scheduler on Table
///              2-calibrated random loops: the per-loop table, the II-gap
///              histogram and the MaxLive gap by sign (exact/Oracle.h)
///   cgra       the placement-aware slack mapper vs the exact SAT spatial
///              mapper on a CGRA grid, over the kernel suite plus seeded
///              loops (cgra/CgraOracle.h)
///   irregular  conservative vs speculative lowering of irregular loops,
///              each scheduled by the slack heuristic and an exact engine,
///              the speculative schedule replayed against a concrete trace
///              (spec/SpecOracle.h)
///
/// Usage: gap_report flat|cgra|irregular [--loops N] [--max-ops N]
///                   [--seed S] [--jobs N] [family flags]
///   flat       [--engine bnb|sat|portfolio|both] [exact budgets]
///   cgra       [--grid RxC] [--min-ops N] [--no-kernels]
///              [--conflict-budget N]
///   irregular  [--engine bnb|sat|portfolio] [exact budgets]
///
/// The exact budgets are --node-budget=N and its siblings
/// (service/EngineFlag.h); --conflict-budget caps the CDCL conflicts of
/// each CGRA II rung, N <= 0 giving up before any search. --engine both
/// runs the flat sweep once per engine and reports any verdict, II or
/// certified-MaxLive disagreement between them (there must be none: they
/// decide the same question). --jobs 0, the default, defers to LSMS_JOBS,
/// else the hardware, and --jobs is at most 256 (MaxJobs). Every number
/// must be a whole decimal integer in range (a seed may also be written in
/// 0x hex or 0 octal); anything else prints the usage line and exits 1.
/// Otherwise the exit status is nonzero iff a report counts a failure
/// (OracleFailures) or the engines disagree.
//===----------------------------------------------------------------------===//

#include "cgra/CgraOracle.h"
#include "exact/Oracle.h"
#include "service/EngineFlag.h"
#include "spec/SpecOracle.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

using namespace lsms;

namespace {

int usage() {
  std::cerr << "usage: gap_report flat|cgra|irregular [--loops N] "
               "[--max-ops N] [--seed S] [--jobs N]\n"
               "  flat       [--engine bnb|sat|portfolio|both] "
               "[--node-budget=N] [--sat-conflict-budget=N]\n"
               "             [--maxlive-node-budget=N] "
               "[--maxlive-conflict-budget=N]\n"
               "  cgra       [--grid RxC] [--min-ops N] [--no-kernels] "
               "[--conflict-budget N]\n"
               "  irregular  [--engine bnb|sat|portfolio] and the flat "
               "budgets\n";
  return 1;
}

/// Reads a seed as strtoull(S, nullptr, 0) does (decimal, 0x hex or 0
/// octal), but whole: no sign, no blanks, nothing after the digits.
bool parseSeed(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long Value = std::strtoull(S, &End, 0);
  if (!std::isdigit(static_cast<unsigned char>(*S)) || errno != 0 || *End)
    return false;
  Out = Value;
  return true;
}

/// Compares two engines' sweeps case by case; returns the number of
/// disagreements printed. Timeout on either side proves nothing and is
/// skipped (budgets, not verdicts, differ there). Beyond the feasibility
/// verdict and the minimal II, certified MaxLive values must be mutually
/// consistent: same-kind certificates name the same minimum (family or
/// MinAvg), and a MinAvg-met global value can only sit at or below a
/// certified family minimum, so any violation means one engine's proof
/// is wrong.
int reportDisagreements(std::ostream &OS, const OracleReport &First,
                        const OracleReport &Second) {
  const char *NameB = exactEngineName(First.Config.Exact.Engine);
  const char *NameS = exactEngineName(Second.Config.Exact.Engine);
  int Disagreements = 0;
  for (size_t I = 0; I < First.Cases.size() && I < Second.Cases.size();
       ++I) {
    const OracleCase &B = First.Cases[I];
    const OracleCase &S = Second.Cases[I];
    if (B.Status == ExactStatus::Timeout || S.Status == ExactStatus::Timeout)
      continue;
    const bool BFound = B.Status == ExactStatus::Optimal ||
                        B.Status == ExactStatus::Feasible;
    const bool SFound = S.Status == ExactStatus::Optimal ||
                        S.Status == ExactStatus::Feasible;
    if (BFound != SFound || (BFound && B.ExactII != S.ExactII)) {
      OS << "  " << B.Name << ": " << NameB << " "
         << exactStatusName(B.Status) << " II=" << B.ExactII << " vs "
         << NameS << " " << exactStatusName(S.Status) << " II=" << S.ExactII
         << "\n";
      ++Disagreements;
      continue;
    }
    const bool SameKind =
        maxLiveCertificatesAgree(B.Certificate, S.Certificate) &&
        B.Certificate != MaxLiveCertificate::None;
    if (!certifiedMaxLiveConsistent(B.ExactMaxLive, B.Certificate,
                                    S.ExactMaxLive, S.Certificate) ||
        (SameKind && B.ExactMaxLive != S.ExactMaxLive)) {
      OS << "  " << B.Name << ": certified MaxLive inconsistent: " << NameB
         << " " << B.ExactMaxLive << " ("
         << maxLiveCertificateName(B.Certificate) << ") vs " << NameS << " "
         << S.ExactMaxLive << " (" << maxLiveCertificateName(S.Certificate)
         << ")\n";
      ++Disagreements;
    }
  }
  return Disagreements;
}

/// The flat sweep on its engine, or with \p Both on every engine followed
/// by the cross-engine check. Returns the exit status.
int runFlat(OracleOptions Options, bool Both) {
  std::vector<ExactEngineKind> Engines = {Options.Exact.Engine};
  if (Both)
    Engines = {ExactEngineKind::BranchAndBound, ExactEngineKind::Sat,
               ExactEngineKind::Portfolio};
  std::vector<OracleReport> Reports;
  int Failures = 0;
  for (const ExactEngineKind Engine : Engines) {
    Options.Exact.Engine = Engine;
    Reports.push_back(runOracle(Options));
    Failures += Reports.back().failures();
  }
  std::cout << "Slack heuristic vs exact modulo scheduler ("
            << Reports[0].Cases.size() << " random loops, <= "
            << Options.MaxOps << " ops, seed " << Options.Seed;
  // The default engine's header is part of the golden regression surface;
  // only non-default runs announce themselves.
  if (Both || Engines[0] != ExactEngineKind::BranchAndBound)
    std::cout << ", engine " << exactEngineName(Engines[0]);
  std::cout << ")\n\n";
  printOracleReport(std::cout, Reports[0]);
  if (!Both)
    return Failures == 0 ? 0 : 1;

  std::cout << "\nCross-engine check (bnb vs sat vs portfolio, "
            << Reports[1].Cases.size() << " loops):\n";
  const int Disagreements =
      reportDisagreements(std::cout, Reports[0], Reports[1]) +
      reportDisagreements(std::cout, Reports[0], Reports[2]) +
      reportDisagreements(std::cout, Reports[1], Reports[2]);
  std::cout << (Disagreements == 0
                    ? "  engines agree on every non-timeout verdict\n"
                    : "")
            << "  disagreements: " << Disagreements << "\n";
  // The bnb report listed its own failures; list the other engines' here.
  for (size_t K = 1; K < Reports.size(); ++K)
    for (const std::string &Line : Reports[K].Failures.Lines)
      std::cout << "  " << exactEngineName(Engines[K]) << " " << Line
                << "\n";
  return Disagreements == 0 && Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Family = Argc > 1 ? Argv[1] : "";
  OracleOptions Flat;
  CgraOracleOptions Cgra;
  IrregularOptions Irregular;
  // The shared flags write the selected family's options. Exact stays null
  // for cgra, whose exact side is the SAT mapper with its own budget.
  int *Loops = nullptr, *MaxOps = nullptr, *Jobs = nullptr;
  uint64_t *Seed = nullptr;
  ExactOptions *Exact = nullptr;
  const auto share = [&](auto &Options) {
    Loops = &Options.NumLoops;
    MaxOps = &Options.MaxOps;
    Jobs = &Options.Jobs;
    Seed = &Options.Seed;
  };
  if (Family == "flat") {
    share(Flat);
    Exact = &Flat.Exact;
  } else if (Family == "cgra") {
    share(Cgra);
  } else if (Family == "irregular") {
    share(Irregular);
    Exact = &Irregular.Exact;
  } else {
    return usage();
  }

  bool Both = false;
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    // A flag that takes a value reads the next argument ("" if none).
    const char *Value = I + 1 < Argc ? Argv[I + 1] : "";
    bool TakesValue = true, Ok = false;
    std::string Err;
    if (Arg == "--loops") {
      Ok = parseWholeInteger(Value, *Loops);
    } else if (Arg == "--max-ops") {
      Ok = parseWholeInteger(Value, *MaxOps);
    } else if (Arg == "--jobs") {
      Ok = parseWholeInteger(Value, *Jobs) && *Jobs >= 0 && *Jobs <= MaxJobs;
    } else if (Arg == "--seed") {
      Ok = parseSeed(Value, *Seed);
    } else if (Exact && Arg == "--engine") {
      EngineSelection Sel;
      Ok = parseEngineSelection(Value, /*AllowSlack=*/false,
                                /*AllowAll=*/Family == "flat", Sel, Err);
      Both = Sel.All;
      if (Ok && !Sel.All)
        Exact->Engine = Sel.Exact;
    } else if (!Exact && Arg == "--grid") {
      Ok = CgraModel::parseGridArg(Value, Cgra.Cgra, Err);
    } else if (!Exact && Arg == "--min-ops") {
      Ok = parseWholeInteger(Value, Cgra.MinOps);
    } else if (!Exact && Arg == "--conflict-budget") {
      Ok = parseWholeInteger(Value, Cgra.Exact.ConflictBudget);
    } else {
      TakesValue = false;
      Ok = Exact ? applyExactBudgetFlag(Arg, *Exact) : Arg == "--no-kernels";
      if (Ok && !Exact)
        Cgra.IncludeKernels = false;
    }
    if (!Ok) {
      if (!Err.empty())
        std::cerr << "gap_report: " << Err << "\n";
      return usage();
    }
    I += TakesValue;
  }
  // The loop counts and op ranges each family's sweep accepts.
  const int MinMaxOps = Family == "flat"   ? OracleMinOps
                        : Family == "cgra" ? Cgra.MinOps
                                           : 1;
  if (*Loops < (Family == "cgra" ? 0 : 1) || *MaxOps < MinMaxOps)
    return usage();

  if (Family == "flat")
    return runFlat(Flat, Both);
  if (Family == "cgra") {
    const CgraOracleReport Report = runCgraOracle(Cgra);
    std::cout << "Placement-aware slack mapper vs exact SAT spatial mapper ("
              << Report.Cases.size() << " loops, grid " << Cgra.Cgra.rows()
              << "x" << Cgra.Cgra.cols() << ", seed " << Cgra.Seed
              << ")\n\n";
    printCgraOracleReport(std::cout, Report);
    return Report.failures() == 0 ? 0 : 1;
  }
  const IrregularReport Report = runIrregularSweep(Irregular);
  std::cout << "Conservative vs speculative scheduling on irregular loops ("
            << Report.Cases.size() << " loops, <= " << Irregular.MaxOps
            << " ops, seed " << Irregular.Seed;
  if (Irregular.Exact.Engine != ExactEngineKind::Portfolio)
    std::cout << ", engine " << exactEngineName(Irregular.Exact.Engine);
  std::cout << ")\n\n";
  printIrregularReport(std::cout, Report);
  return Report.failures() == 0 ? 0 : 1;
}
