//===----------------------------------------------------------------------===//
/// \file Compares the paper's bidirectional slack scheduler against the
/// Cydrome-style baseline and the unidirectional ablation on the
/// hand-written kernel suite: achieved II and register pressure per loop.
/// The "II ex" yardstick column comes from an exact engine selected with
/// --engine {bnb,sat,portfolio,both}; both runs all three engines side by
/// side and reports any disagreement on the proven-minimal II (there must
/// be none).
//===----------------------------------------------------------------------===//

#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "exact/ExactEngine.h"
#include "service/EngineFlag.h"
#include "support/Table.h"
#include "workloads/Suite.h"

#include <cstring>
#include <iostream>

using namespace lsms;

namespace {

struct Row {
  int II = 0;
  long MaxLive = 0;
};

Row runOne(const LoopBody &Body, const MachineModel &Machine,
           const SchedulerOptions &Options) {
  Row R;
  const Schedule Sched = scheduleLoop(Body, Machine, Options);
  if (!Sched.Success)
    return R;
  R.II = Sched.II;
  R.MaxLive =
      computePressure(Body, Sched.Times, Sched.II, RegClass::RR).MaxLive;
  return R;
}

std::string exactIIString(const ExactResult &Exact) {
  return Exact.Sched.Success ? std::to_string(Exact.Sched.II)
                             : std::string(exactStatusName(Exact.Status));
}

} // namespace

int main(int Argc, char **Argv) {
  ExactOptions ExactConfig;
  bool Both = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--engine") == 0 && I + 1 < Argc) {
      EngineSelection Sel;
      std::string EngineErr;
      if (!parseEngineSelection(Argv[++I], /*AllowSlack=*/false,
                                /*AllowAll=*/true, Sel, EngineErr)) {
        std::cerr << "scheduler_comparison: " << EngineErr << "\n";
        return 1;
      }
      Both = Sel.All;
      if (!Sel.All)
        ExactConfig.Engine = Sel.Exact;
      continue;
    }
    if (applyExactBudgetFlag(Argv[I], ExactConfig))
      continue;
    std::cerr << "usage: scheduler_comparison "
                 "[--engine bnb|sat|portfolio|both]\n"
                 "       [--node-budget=N] [--sat-conflict-budget=N]\n"
                 "       [--maxlive-node-budget=N] "
                 "[--maxlive-conflict-budget=N]\n";
    return 1;
  }

  const MachineModel Machine = MachineModel::cydra5();

  TextTable T;
  T.setHeader({"kernel", "ops", "MII", "II ex", "II slk", "II cyd", "RR slk",
               "RR uni", "RR cyd"});
  long TotalSlack = 0, TotalUni = 0, TotalCydrome = 0;
  int Disagreements = 0;
  for (const LoopBody &Body : buildKernelSuite()) {
    const DepGraph Graph(Body, Machine);
    const Schedule Probe = scheduleLoop(Graph);
    // The exact scheduler proves the minimal II, giving the heuristics an
    // absolute yardstick instead of just MII.
    const ExactResult Exact = scheduleLoopExact(Graph, ExactConfig);
    std::string ExactII = exactIIString(Exact);
    if (Both) {
      for (const ExactEngineKind Other :
           {ExactEngineKind::Sat, ExactEngineKind::Portfolio}) {
        ExactOptions OtherConfig = ExactConfig;
        OtherConfig.Engine = Other;
        const ExactResult R = scheduleLoopExact(Graph, OtherConfig);
        if (exactIIString(R) != ExactII) {
          std::cerr << Body.Name << ": engines disagree: bnb " << ExactII
                    << " vs " << exactEngineName(Other) << " "
                    << exactIIString(R) << "\n";
          ++Disagreements;
          ExactII += "!";
        }
      }
    }
    const Row Slack = runOne(Body, Machine, SchedulerOptions::slack());
    const Row Uni =
        runOne(Body, Machine, SchedulerOptions::unidirectionalSlack());
    const Row Cyd = runOne(Body, Machine, SchedulerOptions::cydrome());
    TotalSlack += Slack.MaxLive;
    TotalUni += Uni.MaxLive;
    TotalCydrome += Cyd.MaxLive;
    T.addRow({Body.Name, std::to_string(Body.numMachineOps()),
              std::to_string(Probe.MII), ExactII, std::to_string(Slack.II),
              std::to_string(Cyd.II), std::to_string(Slack.MaxLive),
              std::to_string(Uni.MaxLive), std::to_string(Cyd.MaxLive)});
  }
  T.addSeparator();
  T.addRow({"total", "", "", "", "", "", std::to_string(TotalSlack),
            std::to_string(TotalUni), std::to_string(TotalCydrome)});

  std::cout << "Scheduler comparison on the kernel suite\n"
            << "(ex = proven-minimal II from the exact scheduler, slk = "
               "bidirectional slack,\n uni = unidirectional slack ablation, "
               "cyd = Cydrome-style baseline)\n\n";
  T.print(std::cout);
  std::cout << "\nThe paper's claim: the bidirectional heuristics are what "
               "cut register pressure;\nwithout them slack scheduling "
               "behaves like Cydrome's scheduler.\n";
  if (Both)
    std::cout << "\nCross-engine check (bnb vs sat vs portfolio): "
              << (Disagreements == 0 ? "engines agree on every kernel"
                                     : "DISAGREEMENTS FOUND")
              << "\n";
  return Disagreements == 0 ? 0 : 1;
}
