//===----------------------------------------------------------------------===//
///
/// \file
/// paper_suite: the paper's own yardstick. The 43 DSL kernels plus
/// Table-2-calibrated random loops, 1,525 in all, generated exactly as
/// buildFullSuite does but kept as DSL text. One op compiles one loop on
/// one thread: compileLoop, DepGraph, scheduleLoop (slack),
/// validateSchedule, generateKernelCode. The quality bounds and the
/// simulation check run per loop outside the timed op.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bounds/Lifetimes.h"
#include "codegen/KernelCodeGen.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "graph/MinDist.h"
#include "vliwsim/MachineSim.h"
#include "workloads/RandomLoop.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <optional>
#include <sstream>

using namespace lsms;
using namespace perfbench;

namespace {

/// buildFullSuite's default seed: the suite the paper tables use.
constexpr uint64_t PaperSeed = 19930601;

/// Loops of the paper suite whose kernel code does not match the
/// reference interpreter today (codegen defect, to be fixed separately).
const char *const KnownMismatches[] = {
    "rand582932290",  "rand591932317",  "rand867933145",  "rand920933304",
    "rand967933445",  "rand1101933847", "rand1302934450", "rand1459934921"};

/// Fixed trip count of the simulation check (lsmsc's default).
constexpr long CheckIterations = 40;

struct PaperSource {
  std::string Name;
  std::string Source;
};

/// The suite as DSL text: the same configs and per-loop seeds as
/// buildFullSuite(Total, Seed), so the bodies it compiles are identical.
std::vector<PaperSource> buildSources(int Total, uint64_t Seed) {
  std::vector<PaperSource> Out;
  Out.reserve(static_cast<size_t>(Total));
  for (const NamedKernel &K : kernelSources())
    Out.push_back({K.Name, K.Source});
  Rng R(Seed);
  uint64_t Next = 0;
  while (static_cast<int>(Out.size()) < Total) {
    const RandomLoopConfig Config = drawTable2Config(R);
    const uint64_t LoopSeed = Seed + 1000003ULL * ++Next;
    Rng G(LoopSeed);
    Out.push_back(
        {"rand" + std::to_string(LoopSeed), generateRandomLoopSource(G, Config)});
  }
  return Out;
}

/// The outputs of one op.
struct Compiled {
  LoopBody Body;
  Schedule Sched;
  KernelCode Code;
  std::string Failure; ///< "" when the loop reached kernel code
};

/// The timed op: DSL text to validated kernel code.
void compileOne(const PaperSource &Src, const MachineModel &Machine,
                Tracer &T, Compiled &Out) {
  const Scope OpSpan(T, Layer::Op);
  std::string Err;
  {
    const Scope S(T, Layer::FrontendCompile);
    Err = compileLoop(Src.Source, Src.Name, Out.Body);
  }
  if (!Err.empty()) {
    Out.Failure = "compile error: " + Err;
    return;
  }
  std::optional<DepGraph> Graph;
  {
    const Scope S(T, Layer::IrDepGraph);
    Graph.emplace(Out.Body, Machine);
  }
  {
    const Scope S(T, Layer::CoreSchedule);
    Out.Sched = scheduleLoop(*Graph, SchedulerOptions::slack());
  }
  if (!Out.Sched.Success) {
    Out.Failure = "unscheduled";
    return;
  }
  {
    const Scope S(T, Layer::CoreValidate);
    Err = validateSchedule(*Graph, Out.Sched);
  }
  if (!Err.empty()) {
    Out.Failure = "validator: " + Err;
    return;
  }
  {
    const Scope S(T, Layer::CodegenKernel);
    Err = generateKernelCode(Out.Body, Out.Sched, Out.Code);
  }
  if (!Err.empty())
    Out.Failure = "codegen: " + Err;
}

/// Compiles every loop once, in \p Order; appends per-op times to
/// \p Timing and leaves each loop's time in \p Us (by suite index).
void runRound(const std::vector<PaperSource> &Sources,
              const std::vector<size_t> &Order, const MachineModel &Machine,
              Tracer &T, std::vector<Compiled> &Out, std::vector<double> &Us,
              OpTiming &Timing) {
  Out.clear();
  Out.resize(Sources.size());
  Us.assign(Sources.size(), 0);
  const double Cpu0 = processCpuSeconds();
  const auto Wall0 = Clock::now();
  for (const size_t I : Order) {
    const auto T0 = Clock::now();
    compileOne(Sources[I], Machine, T, Out[I]);
    Us[I] = microsBetween(T0, Clock::now());
    Timing.OpUs.push_back(Us[I]);
  }
  Timing.addRound(secondsBetween(Wall0, Clock::now()),
                  processCpuSeconds() - Cpu0);
}

/// What a round produced, for the run-to-run determinism check.
std::vector<long> fingerprint(const std::vector<Compiled> &Round) {
  std::vector<long> F;
  for (const Compiled &C : Round) {
    F.push_back(C.Failure.empty() ? C.Sched.II : -1);
    F.push_back(C.Code.RRSize);
    F.push_back(C.Code.StageCount);
  }
  return F;
}

/// Simulates \p C's kernel code against the reference interpreter,
/// dropping live-outs the kernel never materialises (as lsmsc does).
std::string simulationDiff(const Compiled &C) {
  const ExecutionResult Ref = runReference(C.Body, CheckIterations);
  const ExecutionResult Mach = runKernelCode(C.Body, C.Code, CheckIterations);
  ExecutionResult RefAligned = Ref;
  for (auto It = RefAligned.LiveOuts.begin();
       It != RefAligned.LiveOuts.end();)
    It = Mach.LiveOuts.count(It->first) ? std::next(It)
                                        : RefAligned.LiveOuts.erase(It);
  return compareExecutions(RefAligned, Mach);
}

} // namespace

Report perfbench::runPaperSuite(const Options &Opts) {
  Report R;
  const int Total = Opts.Smoke ? 120 : 1525;
  const MachineModel Machine = MachineModel::cydra5();

  // Set-up: generate the suite's DSL text. Half the SetupRepeats builds run
  // here and half after the timed phase; each yields the same suite.
  std::vector<PaperSource> Sources;
  std::vector<double> SetupS;
  const auto setUp = [&] {
    const auto T0 = Clock::now();
    Sources = buildSources(Total, PaperSeed);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  };
  for (int Rep = 0; Rep < SetupRepeats / 2; ++Rep)
    setUp();
  const std::vector<size_t> Order = seededOrder(Sources.size(), Opts.Seed);

  // Rounds until the seconds are spent; the first is untraced and its
  // outputs are the ones checked. A traced run alternates traced and
  // untraced rounds, so drift in the host's speed hits both sides of
  // trace.overhead alike.
  Tracer Off(false), On(true);
  std::vector<Compiled> First, Round;
  std::vector<double> FirstUs, RoundUs;
  OpTiming Untraced, Traced;
  runRound(Sources, Order, Machine, Off, First, FirstUs, Untraced);
  const std::vector<long> Expected = fingerprint(First);
  int Rounds = 1;
  while (Untraced.WallSeconds + Traced.WallSeconds < Opts.Seconds ||
         (Opts.Trace && Traced.OpUs.empty())) {
    const bool TraceThis = Opts.Trace && Rounds % 2 == 1;
    runRound(Sources, Order, Machine, TraceThis ? On : Off, Round, RoundUs,
             TraceThis ? Traced : Untraced);
    ++Rounds;
    if (fingerprint(Round) != Expected) {
      R.Correct = false;
      R.note("nondeterminism: round " + std::to_string(Rounds) +
             " compiled differently from round 1");
    }
  }
  R.note("rounds: " + std::to_string(Rounds) + " of " +
         std::to_string(Total) + " loops");
  while (SetupS.size() < size_t(SetupRepeats))
    setUp();
  R.Values["setup_s"] = median(SetupS);

  // Checks of the first round, outside every timed op.
  Quality Q;
  GeoMean RegsOverMaxLive;
  long CentralIterations = 0, Ejections = 0, Placements = 0, PlacedOps = 0;
  long Mismatches = 0;
  double CheckSeconds = 0;
  std::vector<std::string> Failing;
  std::ostringstream Rows;
  Rows << "name\tops\tmii\tii\tmaxlive\tminavg\tus\tfailure\n";
  R.Attempted = Total;
  for (size_t I = 0; I < First.size(); ++I) {
    Compiled &C = First[I];
    long MaxLive = -1, MinAvg = -1;
    if (C.Sched.Success) {
      CentralIterations += C.Sched.Stats.CentralLoopIterations;
      Ejections += C.Sched.Stats.Ejections;
      Placements += C.Sched.Stats.Placements;
      PlacedOps += C.Body.numMachineOps();
      Q.IIOverMII.add(double(C.Sched.II) / double(C.Sched.MII));
    }
    Q.DecidedOf += 1;
    if (C.Sched.Success && C.Sched.II == C.Sched.MII)
      ++Q.Decided;
    if (C.Failure.empty()) {
      const DepGraph Graph(C.Body, Machine);
      MaxLive = computePressure(C.Body, C.Sched.Times, C.Sched.II,
                                RegClass::RR)
                    .MaxLive;
      MinDistMatrix MinDist;
      MinAvg = MinDist.compute(Graph, C.Sched.II)
                   ? computeMinAvg(Graph, MinDist)
                   : -1;
      Q.CertifiedOf += 1;
      if (MaxLive == MinAvg)
        ++Q.Certified;
      if (MinAvg > 0)
        Q.MaxLiveOverMinAvg.add(double(MaxLive) / double(MinAvg));
      if (MaxLive > 0)
        RegsOverMaxLive.add(double(C.Code.RRSize) / double(MaxLive));
      const auto T0 = Clock::now();
      const std::string Diff = simulationDiff(C);
      CheckSeconds += secondsBetween(T0, Clock::now());
      if (!Diff.empty()) {
        C.Failure = "simulation mismatch: " + Diff;
        ++Mismatches;
      }
    }
    if (!C.Failure.empty()) {
      ++R.Failed;
      Failing.push_back(Sources[I].Name);
      R.note("failed " + Failing.back() + ": " + C.Failure);
    }
    std::string Failure = C.Failure;
    std::replace(Failure.begin(), Failure.end(), '\t', ' ');
    std::replace(Failure.begin(), Failure.end(), '\n', ' ');
    Rows << Sources[I].Name << '\t' << C.Body.numMachineOps() << '\t'
         << C.Sched.MII << '\t' << C.Sched.II << '\t' << MaxLive << '\t'
         << MinAvg << '\t' << FirstUs[I] << '\t' << Failure << '\n';
  }
  writeFile(Opts.OutDir + "/paper_suite_rows.tsv", Rows.str());

  if (!Opts.Smoke) {
    std::vector<std::string> Known(std::begin(KnownMismatches),
                                   std::end(KnownMismatches));
    std::sort(Known.begin(), Known.end());
    std::sort(Failing.begin(), Failing.end());
    R.note(Failing == Known
               ? "failing loops are exactly the 8 known codegen mismatches"
               : "failing loops differ from the 8 known codegen mismatches");
  }

  if (!Opts.Trace) {
    R.addTiming(Untraced, peakRssMb());
    R.addQuality(Q);
    return R;
  }

  addLayerTimes(R, On, On.ops());
  const double Ops = double(Total);
  R.Values["core.central_iterations"] = double(CentralIterations) / Ops;
  R.Values["core.ejections"] = double(Ejections) / Ops;
  R.Values["core.placement_yield"] =
      Placements ? double(PlacedOps) / double(Placements) : 0;
  R.Values["regalloc.regs_over_maxlive"] = RegsOverMaxLive.value();
  R.Values["vliwsim.mismatches"] = double(Mismatches);
  R.Values["vliwsim.check_us"] = CheckSeconds * 1e6 / Ops;
  R.Values["trace.overhead"] =
      (Traced.WallSeconds / double(Traced.OpUs.size())) /
      (Untraced.WallSeconds / double(Untraced.OpUs.size()));
  On.write(Opts.OutDir + "/paper_suite_spans.tsv");
  return R;
}
