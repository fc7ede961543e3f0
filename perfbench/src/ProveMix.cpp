//===----------------------------------------------------------------------===//
///
/// \file
/// prove_mix: what a verifier sees. One thread runs the three differential
/// case kinds in a fixed 4:1:1 interleave:
///  - flat loops (buildOracleSuite, <= 20 ops): slack scheduleLoop vs the
///    portfolio scheduleLoopExact, then minimizeMaxLiveAtII at its II;
///  - CGRA loops (<= 12 ops) on defaultGrid(4, 4): mapLoopCgra vs
///    mapLoopCgraExact;
///  - irregular loops (buildIrregularSuite): runIrregularCase, which
///    lowers, schedules, validates and replays both lowerings.
/// One op gives one case its verdict; every schedule or mapping is checked
/// by the library's validators and cross-checked against the other engine.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cgra/CgraOracle.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "spec/SpecOracle.h"
#include "workloads/Suite.h"

#include <optional>
#include <sstream>

using namespace lsms;
using namespace perfbench;

namespace {

enum class Kind : uint8_t { Flat, Cgra, Irregular };

struct Case {
  Kind K = Kind::Flat;
  const LoopBody *Body = nullptr;
};

/// The case suites of one seed.
struct Suites {
  std::vector<LoopBody> Flat, Cgra, Irregular;
  std::vector<Case> Order;
};

/// The oracle sweeps' default seed.
constexpr uint64_t OracleSeed = 0x19930601;

Suites buildSuites(uint64_t OrderSeed, bool Smoke) {
  const int Unit = Smoke ? 10 : 250;
  Suites S;
  // Jobs = 1: every suite is built on this thread.
  S.Flat = buildOracleSuite(4 * Unit, 3, 20, OracleSeed, /*Jobs=*/1);
  S.Cgra = buildOracleSuite(Unit, 3, 12, OracleSeed ^ 0xC6A4A7935BD1E995ULL,
                            /*Jobs=*/1);
  S.Irregular = buildIrregularSuite(Unit, 48, OracleSeed, /*Jobs=*/1);
  for (int I = 0; I < Unit; ++I) {
    for (int F = 0; F < 4; ++F)
      S.Order.push_back({Kind::Flat, &S.Flat[size_t(4 * I + F)]});
    S.Order.push_back({Kind::Cgra, &S.Cgra[size_t(I)]});
    S.Order.push_back({Kind::Irregular, &S.Irregular[size_t(I)]});
  }
  std::vector<Case> Shuffled;
  for (const size_t I : seededOrder(S.Order.size(), OrderSeed))
    Shuffled.push_back(S.Order[I]);
  S.Order = std::move(Shuffled);
  return S;
}

bool decidedStatus(ExactStatus S) {
  return S == ExactStatus::Optimal || S == ExactStatus::Infeasible;
}

/// One case's verdict and the numbers the metrics need.
struct Verdict {
  std::string Failure; ///< "" when every check passed
  bool Scheduled = false;
  int II = 0, MII = 0;
  bool Decided = false;
  bool HasMaxLive = false;
  long MaxLive = -1, MinAvg = 0;
  bool Certified = false;
  // Engine work, summed over the calls of this case.
  long CentralIterations = 0, Ejections = 0, Placements = 0, PlacedOps = 0;
  long Nodes = 0, IIAttempts = 0, Timeouts = 0;
  long Conflicts = 0, Propagations = 0, CgraConflicts = 0;

  /// Everything a repeat of this case must reproduce.
  std::string fingerprint() const {
    std::ostringstream OS;
    OS << Failure << '|' << II << '|' << MII << '|' << Decided << '|'
       << MaxLive << '|' << MinAvg << '|' << Certified << '|' << Nodes
       << '|' << Conflicts << '|' << CgraConflicts;
    return OS.str();
  }
};

class Runner {
public:
  explicit Runner(Tracer &T) : T(T) {
    Exact.Engine = ExactEngineKind::Portfolio;
    Exact.MinimizeMaxLive = false;
  }

  Verdict run(const Case &C) {
    const Scope OpSpan(T, Layer::Op);
    switch (C.K) {
    case Kind::Flat:
      return flat(*C.Body);
    case Kind::Cgra:
      return cgra(*C.Body);
    case Kind::Irregular:
      return irregular(*C.Body);
    }
    return Verdict();
  }

private:
  Verdict flat(const LoopBody &Body) {
    Verdict V;
    std::optional<DepGraph> Graph;
    {
      const Scope S(T, Layer::IrDepGraph);
      Graph.emplace(Body, Machine);
    }
    Schedule Heur;
    {
      const Scope S(T, Layer::CoreSchedule);
      Heur = scheduleLoop(*Graph, SchedulerOptions::slack());
    }
    V.CentralIterations = Heur.Stats.CentralLoopIterations;
    V.Ejections = Heur.Stats.Ejections;
    V.Placements = Heur.Stats.Placements;
    if (Heur.Success) {
      V.PlacedOps = Body.numMachineOps();
      const Scope S(T, Layer::CoreValidate);
      const std::string Err = validateSchedule(*Graph, Heur);
      if (!Err.empty())
        V.Failure = "slack validator: " + Err;
    } else {
      V.Failure = "slack unscheduled";
    }
    ExactResult Ex;
    {
      const Scope S(T, Layer::ExactSchedule);
      Ex = scheduleLoopExact(*Graph, Exact);
    }
    V.Nodes = Ex.EngineStats.Nodes;
    V.Conflicts = Ex.EngineStats.Conflicts;
    V.Propagations = Ex.EngineStats.Propagations;
    V.IIAttempts = Ex.IIAttempts;
    V.Timeouts = Ex.Status == ExactStatus::Timeout;
    V.MII = Ex.Sched.MII;
    V.Decided = decidedStatus(Ex.Status);
    if (Ex.Sched.Success) {
      const Scope S(T, Layer::CoreValidate);
      const std::string Err = validateSchedule(*Graph, Ex.Sched);
      if (!Err.empty() && V.Failure.empty())
        V.Failure = "exact validator: " + Err;
    }
    if (Ex.Status == ExactStatus::Optimal && Heur.Success &&
        Heur.II < Ex.Sched.II && V.Failure.empty())
      V.Failure = "parity: slack II below the proven-optimal II";
    V.Scheduled = Ex.Sched.Success || Heur.Success;
    V.II = Ex.Sched.Success ? Ex.Sched.II : Heur.II;
    if (!Ex.Sched.Success)
      return V;

    MaxLiveOutcome M;
    {
      const Scope S(T, Layer::ExactMaxLive);
      M = minimizeMaxLiveAtII(*Graph, Ex.Sched.II, Exact);
    }
    V.Nodes += M.Stats.Nodes;
    V.Conflicts += M.Stats.Conflicts;
    V.Propagations += M.Stats.Propagations;
    if (M.Times.empty()) {
      if (V.Failure.empty())
        V.Failure = "maxlive pass lost the schedule at a feasible II";
      return V;
    }
    Schedule Min = Ex.Sched;
    Min.Times = M.Times;
    {
      const Scope S(T, Layer::CoreValidate);
      const std::string Err = validateSchedule(*Graph, Min);
      if (!Err.empty() && V.Failure.empty())
        V.Failure = "maxlive validator: " + Err;
    }
    if ((M.MaxLive > Ex.MaxLive || M.MaxLive < M.MinAvg) && V.Failure.empty())
      V.Failure = "maxlive outside [MinAvg, first schedule's MaxLive]";
    V.HasMaxLive = true;
    V.MaxLive = M.MaxLive;
    V.MinAvg = M.MinAvg;
    V.Certified =
        M.Certificate != MaxLiveCertificate::None || M.MaxLive == M.MinAvg;
    return V;
  }

  Verdict cgra(const LoopBody &Body) {
    Verdict V;
    std::optional<DepGraph> Graph;
    {
      const Scope S(T, Layer::IrDepGraph);
      Graph.emplace(Body, Flat);
    }
    CgraMapping Heur;
    {
      const Scope S(T, Layer::CgraMap);
      Heur = mapLoopCgra(*Graph, Grid);
    }
    if (Heur.Success) {
      const Scope S(T, Layer::CgraValidate);
      const std::string Err = validateMapping(*Graph, Grid, Heur);
      if (!Err.empty())
        V.Failure = "cgra heuristic validator: " + Err;
    }
    CgraExactResult Ex;
    {
      const Scope S(T, Layer::CgraExact);
      Ex = mapLoopCgraExact(*Graph, Grid);
    }
    V.CgraConflicts = Ex.Sat.Conflicts;
    V.Timeouts = Ex.Status == ExactStatus::Timeout;
    if (Ex.Map.Success) {
      const Scope S(T, Layer::CgraValidate);
      const std::string Err = validateMapping(*Graph, Grid, Ex.Map);
      if (!Err.empty() && V.Failure.empty())
        V.Failure = "cgra exact validator: " + Err;
    }
    if (V.Failure.empty() && Heur.Success) {
      if (Ex.Status == ExactStatus::Optimal && Heur.II < Ex.Map.II)
        V.Failure = "cgra parity: heuristic II below the proven-optimal II";
      else if (Ex.Status == ExactStatus::Infeasible)
        V.Failure = "cgra parity: heuristic mapped a loop SAT proved "
                    "unmappable";
    }
    V.MII = Heur.MII;
    V.Decided = decidedStatus(Ex.Status);
    V.Scheduled = Ex.Map.Success || Heur.Success;
    V.II = Ex.Map.Success ? Ex.Map.II : Heur.II;
    return V;
  }

  Verdict irregular(const LoopBody &Body) {
    Verdict V;
    // runIrregularCase lowers the body itself; a traced round also times
    // the two lowerings on their own, so spec.lower_us can be told apart
    // from the rest of the case. Untraced rounds do only what a sweep does.
    if (T.enabled()) {
      const Scope S(T, Layer::SpecLower);
      lowerConservative(Body);
      lowerSpeculative(Body, Irregular.Spec);
    }
    IrregularCase C;
    {
      const Scope S(T, Layer::SpecCase);
      C = runIrregularCase(Body, Irregular);
    }
    if (!C.ConsError.empty())
      V.Failure = "conservative validator: " + C.ConsError;
    else if (!C.SpecError.empty())
      V.Failure = "speculative validator: " + C.SpecError;
    else if (!C.TraceError.empty())
      V.Failure = "trace: " + C.TraceError;
    V.Scheduled = C.SpecSuccess;
    V.II = C.SpecII;
    V.MII = C.SpecMII;
    V.Decided = decidedStatus(C.SpecStatus);
    V.Timeouts = C.SpecStatus == ExactStatus::Timeout;
    return V;
  }

  Tracer &T;
  const MachineModel Machine = MachineModel::cydra5();
  const CgraModel Grid = CgraModel::defaultGrid(4, 4);
  const MachineModel Flat = Grid.flatModel();
  ExactOptions Exact;
  const IrregularOptions Irregular;
};

/// Runs every case once; appends per-op times to \p Timing and returns the
/// verdicts.
std::vector<Verdict> runRound(const std::vector<Case> &Order, Runner &Run,
                              OpTiming &Timing) {
  std::vector<Verdict> Out;
  Out.reserve(Order.size());
  const double Cpu0 = processCpuSeconds();
  const auto Wall0 = Clock::now();
  for (const Case &C : Order) {
    const auto T0 = Clock::now();
    Out.push_back(Run.run(C));
    Timing.OpUs.push_back(microsBetween(T0, Clock::now()));
  }
  Timing.addRound(secondsBetween(Wall0, Clock::now()),
                  processCpuSeconds() - Cpu0);
  return Out;
}

bool sameVerdicts(const std::vector<Verdict> &A,
                  const std::vector<Verdict> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].fingerprint() != B[I].fingerprint())
      return false;
  return true;
}

} // namespace

Report perfbench::runProveMix(const Options &Opts) {
  Report R;

  // Set-up: build the three case suites. Half the SetupRepeats builds run
  // here and half after the timed phase; each yields the same cases.
  Suites S;
  std::vector<double> SetupS;
  const auto setUp = [&] {
    const auto T0 = Clock::now();
    S = buildSuites(Opts.Seed, Opts.Smoke);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  };
  for (int Rep = 0; Rep < SetupRepeats / 2; ++Rep)
    setUp();

  Tracer Off(false), On(true);
  Runner Untraced(Off), Traced(On);
  OpTiming UntracedTiming, TracedTiming;
  // One untimed warm-up round (a sweep pays its cold caches once); its
  // verdicts are the ones checked and the ones every later round repeats.
  // A traced run then alternates untraced and traced rounds, so drift in
  // the host's speed hits both sides of trace.overhead alike.
  OpTiming WarmUp;
  const std::vector<Verdict> First = runRound(S.Order, Untraced, WarmUp);
  int Rounds = 0;
  do {
    const bool TraceThis = Opts.Trace && Rounds % 2 == 1;
    ++Rounds;
    const std::vector<Verdict> Again =
        TraceThis ? runRound(S.Order, Traced, TracedTiming)
                  : runRound(S.Order, Untraced, UntracedTiming);
    if (!sameVerdicts(Again, First)) {
      R.Correct = false;
      R.note("nondeterminism: timed round " + std::to_string(Rounds) +
             " gave different verdicts from the warm-up round");
    }
  } while (UntracedTiming.WallSeconds + TracedTiming.WallSeconds <
               Opts.Seconds ||
           (Opts.Trace && TracedTiming.OpUs.empty()));
  R.note("rounds: 1 warm-up + " + std::to_string(Rounds) + " timed, of " +
         std::to_string(S.Order.size()) + " cases");
  while (SetupS.size() < size_t(SetupRepeats))
    setUp();
  R.Values["setup_s"] = median(SetupS);

  // Verdicts and quality of the warm-up round.
  Quality Q;
  long CentralIterations = 0, Ejections = 0, Placements = 0, PlacedOps = 0;
  long Nodes = 0, IIAttempts = 0, Timeouts = 0, Conflicts = 0,
       Propagations = 0, CgraConflicts = 0;
  const char *KindNames[] = {"flat", "cgra", "irregular"};
  R.Attempted = static_cast<long>(First.size());
  for (size_t I = 0; I < First.size(); ++I) {
    const Verdict &V = First[I];
    if (!V.Failure.empty()) {
      ++R.Failed;
      R.note(std::string("failed ") + KindNames[int(S.Order[I].K)] + " " +
             S.Order[I].Body->Name + ": " + V.Failure);
    }
    if (V.Scheduled && V.MII > 0)
      Q.IIOverMII.add(double(V.II) / double(V.MII));
    ++Q.DecidedOf;
    Q.Decided += V.Decided;
    if (V.HasMaxLive) {
      ++Q.CertifiedOf;
      Q.Certified += V.Certified;
      if (V.MinAvg > 0)
        Q.MaxLiveOverMinAvg.add(double(V.MaxLive) / double(V.MinAvg));
    }
    CentralIterations += V.CentralIterations;
    Ejections += V.Ejections;
    Placements += V.Placements;
    PlacedOps += V.PlacedOps;
    Nodes += V.Nodes;
    IIAttempts += V.IIAttempts;
    Timeouts += V.Timeouts;
    Conflicts += V.Conflicts;
    Propagations += V.Propagations;
    CgraConflicts += V.CgraConflicts;
  }

  if (!Opts.Trace) {
    R.addTiming(UntracedTiming, peakRssMb());
    R.addQuality(Q);
    return R;
  }

  addLayerTimes(R, On, On.ops());
  const double Ops = double(First.size());
  R.Values["core.central_iterations"] = double(CentralIterations) / Ops;
  R.Values["core.ejections"] = double(Ejections) / Ops;
  R.Values["core.placement_yield"] =
      Placements ? double(PlacedOps) / double(Placements) : 0;
  R.Values["exact.bnb_nodes"] = double(Nodes) / Ops;
  R.Values["exact.ii_attempts"] = double(IIAttempts) / Ops;
  R.Values["exact.timeouts"] = double(Timeouts);
  R.Values["sat.conflicts"] = double(Conflicts) / Ops;
  R.Values["sat.propagations"] = double(Propagations) / Ops;
  R.Values["cgra.sat_conflicts"] = double(CgraConflicts) / Ops;
  R.Values["trace.overhead"] =
      (TracedTiming.WallSeconds / double(TracedTiming.OpUs.size())) /
      (UntracedTiming.WallSeconds / double(UntracedTiming.OpUs.size()));
  On.write(Opts.OutDir + "/prove_mix_spans.tsv");
  return R;
}
