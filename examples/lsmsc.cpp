//===----------------------------------------------------------------------===//
/// \file lsmsc — a command-line driver for the whole pipeline: reads a
/// loop-DSL program from a file (or stdin with "-"), compiles, modulo
/// schedules, and optionally prints the IR, the schedule, the kernel code,
/// and a simulation report.
///
/// Usage:
///   lsmsc [options] <file.loop | ->
///     --scheduler=slack|cydrome|unidirectional
///     --load-latency=N     override the machine's load latency (N >= 1)
///     --iterations=N       simulate N iterations (default 40; 0 disables;
///                          at most 10,000: both simulators hold every value
///                          instance of every iteration)
///     --print-ir --print-schedule --print-kernel   (all on by default)
///     --quiet              only print the summary line
//===----------------------------------------------------------------------===//

#include "bounds/Lifetimes.h"
#include "codegen/KernelCodeGen.h"
#include "core/ModuloScheduler.h"
#include "core/SchedulePrinter.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "support/ParseInteger.h"
#include "vliwsim/MachineSim.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

using namespace lsms;

namespace {

void usage() {
  std::cerr
      << "usage: lsmsc [--scheduler=slack|cydrome|unidirectional]\n"
         "             [--load-latency=N] [--iterations=N] [--quiet]\n"
         "             <file.loop | ->\n"
         "       --iterations=N: N at most 10,000 (default 40; 0 skips the\n"
         "       simulation)\n";
}

/// Both simulators hold every value instance of every iteration.
constexpr long MaxIterations = 10000;

} // namespace

int main(int Argc, char **Argv) {
  SchedulerOptions Options = SchedulerOptions::slack();
  std::string SchedName = "slack";
  int LoadLatency = -1;
  long Iterations = 40;
  bool Quiet = false;
  std::string Path;

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.rfind("--scheduler=", 0) == 0) {
      SchedName = Arg.substr(12);
      if (SchedName == "slack") {
        Options = SchedulerOptions::slack();
      } else if (SchedName == "cydrome") {
        Options = SchedulerOptions::cydrome();
      } else if (SchedName == "unidirectional") {
        Options = SchedulerOptions::unidirectionalSlack();
      } else {
        usage();
        return 2;
      }
    } else if (Arg.rfind("--load-latency=", 0) == 0) {
      if (!parseWholeInteger(std::string_view(Arg).substr(15), LoadLatency) ||
          LoadLatency < 1) {
        usage();
        return 2;
      }
    } else if (Arg.rfind("--iterations=", 0) == 0) {
      if (!parseWholeInteger(std::string_view(Arg).substr(13), Iterations) ||
          Iterations < 0 || Iterations > MaxIterations) {
        usage();
        return 2;
      }
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      usage();
      return 2;
    } else {
      Path = Arg;
    }
  }
  if (Path.empty()) {
    usage();
    return 2;
  }

  std::string Source;
  if (Path == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Source = Buffer.str();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "error: cannot open " << Path << '\n';
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  }

  LoopBody Body;
  if (const std::string Err = compileLoop(Source, Path, Body);
      !Err.empty()) {
    std::cerr << "error: " << Err << '\n';
    return 1;
  }
  if (!Quiet) {
    std::cout << "=== IR ===\n";
    Body.print(std::cout);
  }

  const MachineModel Machine = LoadLatency > 0
                                   ? MachineModel::withLoadLatency(LoadLatency)
                                   : MachineModel::cydra5();
  const DepGraph Graph(Body, Machine);
  const Schedule Sched = scheduleLoop(Graph, Options);
  if (!Sched.Success) {
    std::cerr << "error: could not pipeline this loop (last II attempted "
              << Sched.II << ")\n";
    return 1;
  }
  const std::string Valid = validateSchedule(Graph, Sched);
  if (!Valid.empty()) {
    std::cerr << "internal error: invalid schedule: " << Valid << '\n';
    return 1;
  }

  const PressureInfo Pressure =
      computePressure(Body, Sched.Times, Sched.II, RegClass::RR);

  KernelCode Code;
  if (const std::string Err = generateKernelCode(Body, Sched, Code);
      !Err.empty()) {
    std::cerr << "error: " << Err << '\n';
    return 1;
  }
  if (!Quiet) {
    std::cout << "\n=== Modulo reservation table ===\n";
    printReservationTable(std::cout, Body, Machine, Sched);
    std::cout << "\n=== Kernel (" << SchedName << " scheduler) ===\n";
    Code.print(std::cout, Body);
  }

  std::string SimNote = "simulation skipped";
  if (Iterations > 0) {
    const ExecutionResult Ref = runReference(Body, Iterations);
    ExecutionResult Mach = runKernelCode(Body, Code, Iterations);
    ExecutionResult RefAligned = Ref;
    for (auto It = RefAligned.LiveOuts.begin();
         It != RefAligned.LiveOuts.end();)
      It = Mach.LiveOuts.count(It->first) ? std::next(It)
                                          : RefAligned.LiveOuts.erase(It);
    const std::string Diff = compareExecutions(RefAligned, Mach);
    SimNote = Diff.empty()
                  ? "simulated " + std::to_string(Iterations) +
                        " iterations: machine == reference"
                  : "SIMULATION MISMATCH: " + Diff;
  }

  std::cout << "\n" << Body.Name << ": " << Body.numMachineOps()
            << " ops, MII=" << Sched.MII << " (Res " << Sched.ResMII
            << ", Rec " << Sched.RecMII << "), II=" << Sched.II
            << ", stages=" << Code.StageCount
            << ", MaxLive=" << Pressure.MaxLive << ", RR=" << Code.RRSize
            << ", ICR=" << Code.ICRSize << ", GPR=" << Code.GprCount << "; "
            << SimNote << '\n';
  return 0;
}
