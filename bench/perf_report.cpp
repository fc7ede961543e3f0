//===----------------------------------------------------------------------===//
/// \file Scheduling-throughput record for the perf trajectory: runs the
/// three differential sweeps (gap_report's flat, cgra and irregular
/// families) at jobs=1 and jobs=N, and emits their jobs-1 times and counts
/// as JSON (checked in at the repo root as BENCH_schedule.json so later PRs
/// have a baseline to regress against). Every differential sweep must
/// print the same report bytes at both job counts and count no failure
/// (OracleFailures), and must keep its floors in a full run:
///
///   flat       the oracle sweep (50 loops, portfolio engine) certifies at
///              least 23 loops' MaxLive;
///   cgra       the kernel suite plus 100 seeded loops on the 4x4 grid:
///              at least one loop certifies a spatial II strictly above
///              the flat MII, and the SAT ladder certifies at least 140 of
///              the 143 loops optimal;
///   irregular  both lowerings schedule on every loop, with at least 10
///              strict II gaps and at least 1 held-assumption win.
///
/// The report also drives the socket front end at scale: an open-arrival
/// (Poisson) tail-latency section over >= 1000 concurrent connections
/// against the sharded epoll server, and an overload section that pushes
/// exact requests through a deliberately tiny admission queue and checks
/// the tier ladder answers (degraded or cached) instead of shedding.
///
/// Usage: perf_report [--smoke] [--jobs N] [--out FILE]
///   --smoke     small sizes for the `perf` CTest tier (throughput numbers
///               are then NOT representative; the JSON is tagged "smoke")
///   --jobs N    the job count whose reports and service responses must
///               match the jobs-1 bytes. Default: 4 in full mode, the
///               hardware in smoke mode
///   --out F     write the JSON to F instead of stdout
///   Exact budgets (--node-budget=N etc., see service/EngineFlag.h) apply
///   to the flat oracle sweep.
//===----------------------------------------------------------------------===//

#include "NetBenchCommon.h"
#include "ServiceBenchCommon.h"
#include "cgra/CgraOracle.h"
#include "exact/Oracle.h"
#include "spec/SpecOracle.h"
#include "net/EpollServer.h"
#include "service/EngineFlag.h"
#include "support/ParallelFor.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

using namespace lsms;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct SectionResult {
  int Loops = 0;
  double Jobs1Seconds = 0;
  bool Identical = true; ///< same report bytes at both job counts
};

std::string formatDouble(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

/// Runs one differential sweep at jobs 1 and at \p JobsN, timing the
/// jobs-1 run and comparing their printed reports into \p Section, and
/// returns the jobs-N report. Only the jobs-1 time is recorded: these
/// sweeps take tens of milliseconds, so a jobs-N time measures the host's
/// state rather than parallel scaling.
template <typename Options, typename RunFn, typename PrintFn>
auto runSweep(Options Opts, int JobsN, RunFn Run, PrintFn Print,
              SectionResult &Section) {
  std::string Bytes[2];
  decltype(Run(Opts)) Report;
  for (int K = 0; K < 2; ++K) {
    Opts.Jobs = K == 0 ? 1 : JobsN;
    const auto T0 = Clock::now();
    Report = Run(Opts);
    if (K == 0)
      Section.Jobs1Seconds = secondsSince(T0);
    std::ostringstream OS;
    Print(OS, Report);
    Bytes[K] = OS.str();
  }
  Section.Loops = static_cast<int>(Report.Cases.size());
  Section.Identical = Bytes[0] == Bytes[1];
  return Report;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int JobsN = 0;
  const char *OutPath = nullptr;
  ExactOptions BaseExact;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc &&
               parseWholeInteger(Argv[I + 1], JobsN) && JobsN >= 0) {
      ++I;
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (applyExactBudgetFlag(Argv[I], BaseExact)) {
      // parsed an exact-budget knob
    } else {
      std::cerr << "usage: perf_report [--smoke] [--jobs N] [--out FILE]\n"
                   "       [--node-budget=N] [--sat-conflict-budget=N]\n"
                   "       [--maxlive-node-budget=N] "
                   "[--maxlive-conflict-budget=N]\n";
      return 1;
    }
  }
  // Full mode pins the second job count (default 4) so the byte-identity
  // gates compare against real threads even on single-core builders.
  // Smoke mode keeps the hardware default.
  if (JobsN <= 0 && !Smoke)
    JobsN = 4;
  JobsN = resolveJobs(JobsN);

  const int OracleLoops = Smoke ? 8 : 50;
  const uint64_t Seed = 0x19930601;

  // -- Flat oracle sweep: the full differential run (both schedulers +
  // MaxLive minimization + validation), gap_report's flat family. Its
  // exact side runs on the portfolio engine: feasibility by
  // branch-and-bound with a SAT fallback, MaxLive certification SAT-first
  // -- the configuration the certified ratchet is measured against. -------
  SectionResult Oracle;
  OracleOptions FlatOptions;
  FlatOptions.NumLoops = OracleLoops;
  FlatOptions.Exact = BaseExact;
  FlatOptions.Exact.Engine = ExactEngineKind::Portfolio;
  const OracleReport FlatReport =
      runSweep(FlatOptions, JobsN, runOracle, printOracleReport, Oracle);

  // -- CGRA spatial sweep: the placement-aware slack mapper vs the exact
  // SAT spatial mapper (gap_report's cgra family). Smoke shrinks to a 2x2
  // grid over random loops only; full runs the kernel suite plus 100
  // seeded loops on the heterogeneous 4x4 reference grid. -----------------
  SectionResult CgraSection;
  CgraOracleOptions CgraOptions;
  if (Smoke) {
    CgraOptions.NumLoops = 8;
    CgraOptions.Cgra = CgraModel::defaultGrid(2, 2);
    CgraOptions.IncludeKernels = false;
  }
  const CgraOracleReport CgraReport =
      runSweep(CgraOptions, JobsN, runCgraOracle, printCgraOracleReport,
               CgraSection);

  // -- Irregular loops: conservative vs speculative scheduling over the
  // while-exit / may-alias suite (gap_report's irregular family), with the
  // speculative schedules replayed against a concrete trace. Smoke shrinks
  // the sweep; the failure and byte-identity gates apply in both modes. ---
  SectionResult IrregularSection;
  IrregularOptions IrrOptions;
  if (Smoke)
    IrrOptions.NumLoops = 8;
  const IrregularReport IrrReport =
      runSweep(IrrOptions, JobsN, runIrregularSweep, printIrregularReport,
               IrregularSection);

  // -- Scheduling service: cold vs warm (cache-hit) throughput over the
  // deterministic corpus on one worker, plus the byte-identity check
  // across worker counts. -------------------------------------------------
  ServiceBenchResult Service;
  bool ServiceByteIdentical = true;
  {
    const std::vector<std::string> Corpus =
        serviceBenchCorpus(Smoke ? 8 : 75, Seed);
    Service = runServiceBench(Corpus, ServiceEngine::Slack, Smoke ? 3 : 10);
    const std::vector<std::string> Streams =
        serviceResponsesAtJobs(Corpus, ServiceEngine::Slack, {1, 2, JobsN});
    for (size_t I = 1; I < Streams.size(); ++I)
      ServiceByteIdentical = ServiceByteIdentical && Streams[I] == Streams[0];
  }
  const bool ServiceWarmFastEnough = Service.warmSpeedup() >= 10.0;

  // -- Socket front end + persistent store: exact (bnb) cold compute over
  // the wire into a fresh store, then a full restart — a new service on
  // the same store path — answering the same corpus from the recovered
  // index. The gate: the warm restart must serve >= 10x the cold
  // request rate. ---------------------------------------------------------
  struct ServerBenchNumbers {
    double ColdSeconds = 0, WarmSeconds = 0;
    long ColdRequests = 0, WarmRequests = 0;
    long RecoveredRecords = 0;
    int64_t WarmP50Us = 0, WarmP99Us = 0, WarmP999Us = 0;
    long Errors = 0, Shed = 0;
    int Connections = 0, WarmPasses = 0;
    std::string Error;
  } Server;
  {
    const std::vector<std::string> NetCorpus =
        serviceBenchCorpus(Smoke ? 4 : 24, Seed + 1);
    Server.Connections = Smoke ? 2 : 4;
    Server.WarmPasses = 3;
    const std::string StorePath = "perf_report_store.lsr";
    std::remove(StorePath.c_str());

    const auto phase = [&](int Passes, double &Seconds, long &Requests,
                           bool WarmStats) {
      ServiceConfig SC;
      SC.Jobs = JobsN;
      SC.StorePath = StorePath;
      // Budget-bound the exact engine (instead of a wall deadline) so the
      // cold phase is expensive but bounded AND deterministic — budget
      // degradation is part of the engines' contract, so every response,
      // degraded or not, is cache-eligible and store-persisted, and the
      // warm restart never recomputes.
      SC.Exact.NodeBudget = 1L << 14;
      SC.Exact.MaxLiveNodeBudget = 1L << 14;
      SchedulingService Svc(SC);
      if (WarmStats)
        Server.RecoveredRecords = Svc.storeStats().RecoveredRecords;
      EpollServer Front(Svc);
      std::string Err;
      if (!Front.start(Err)) {
        Server.Error = Err;
        return false;
      }
      std::thread IO([&Front] { Front.serve(); });
      NetLoadConfig LC;
      LC.Port = Front.port();
      LC.Connections = Server.Connections;
      LC.Engine = "bnb";
      LC.Corpus = NetCorpus;
      LC.DisjointSlices = true;
      LC.PipelineDepth = 16;
      const size_t Slice =
          (NetCorpus.size() + static_cast<size_t>(LC.Connections) - 1) /
          static_cast<size_t>(LC.Connections);
      LC.RequestsPerConnection = static_cast<int>(Slice) * Passes;
      const NetLoadResult R = runNetLoad(LC);
      Front.requestStop();
      IO.join();
      if (!R.ok()) {
        Server.Error = R.Error;
        return false;
      }
      Seconds = R.Seconds;
      Requests = R.Received;
      Server.Errors += R.Errors;
      Server.Shed += R.Shed;
      if (WarmStats) {
        Server.WarmP50Us = R.P50Us;
        Server.WarmP99Us = R.P99Us;
        Server.WarmP999Us = R.P999Us;
      }
      return true;
    };
    if (phase(1, Server.ColdSeconds, Server.ColdRequests, false))
      phase(Server.WarmPasses, Server.WarmSeconds, Server.WarmRequests,
            true);
    std::remove(StorePath.c_str());
  }
  const double ServerColdRps =
      Server.ColdSeconds > 0 ? Server.ColdRequests / Server.ColdSeconds : 0;
  const double ServerWarmRps =
      Server.WarmSeconds > 0 ? Server.WarmRequests / Server.WarmSeconds : 0;
  const double ServerRestartSpeedup =
      ServerColdRps > 0 ? ServerWarmRps / ServerColdRps : 0;
  const bool ServerWarmFastEnough =
      Server.Error.empty() && Server.Errors == 0 && Server.Shed == 0 &&
      Server.RecoveredRecords > 0 && ServerRestartSpeedup >= 10.0;

  // -- Open-arrival tail latency: Poisson arrivals over a large pool of
  // persistent connections against the 4-way SO_REUSEPORT-sharded front
  // end. Latency is charged from the scheduled arrival (no coordinated
  // omission); the full-mode gate bounds slack-engine p99 and requires a
  // clean (no errors, nothing shed) run at >= 1000 connections. ----------
  struct OpenBenchNumbers {
    OpenLoadResult Tail;
    OpenLoadResult Overload;
    int TailConns = 0, OverloadConns = 0;
    double TailTargetRps = 0, OverloadTargetRps = 0;
    int IoShards = 4;
  } Open;
  {
    const std::vector<std::string> OpenCorpus =
        serviceBenchCorpus(Smoke ? 8 : 32, Seed + 2);
    ServiceConfig SC;
    SC.Jobs = JobsN;
    SchedulingService Svc(SC);
    ServerConfig NC;
    NC.IoShards = Open.IoShards;
    EpollServer Front(Svc, NC);
    std::string Err;
    if (!Front.start(Err)) {
      Open.Tail.Error = Err;
    } else {
      std::thread IO([&Front] { Front.serve(); });
      OpenLoadConfig OC;
      OC.Port = Front.port();
      OC.Connections = Smoke ? 128 : 1000;
      OC.TargetRps = Smoke ? 400 : 2000;
      OC.TotalRequests = Smoke ? 800 : 10000;
      OC.Seed = Seed + 2;
      OC.Engine = "slack";
      OC.Corpus = OpenCorpus;
      Open.TailConns = OC.Connections;
      Open.TailTargetRps = OC.TargetRps;
      Open.Tail = runOpenLoad(OC);
      Front.requestStop();
      IO.join();
    }
  }
  const bool OpenTailOk = Open.Tail.Error.empty() &&
                          Open.Tail.Errors == 0 && Open.Tail.Shed == 0 &&
                          (Smoke || Open.Tail.P99Us <= 250000);

  // -- Overload ladder under open arrival: a deliberately starved server
  // (one worker, tiny admission queue, budget-bound exact engine) takes a
  // bnb-engine Poisson burst far above its compute capacity. A slack warm
  // pass first populates the cache so the cached rung has answers; the
  // gate then demands >= 90% of requests get answered (degraded or
  // cached) rather than shed, with the cached rung demonstrably used. ----
  {
    const std::vector<std::string> OverCorpus =
        serviceBenchCorpus(Smoke ? 8 : 32, Seed + 3);
    ServiceConfig SC;
    SC.Jobs = 1;
    SC.Exact.NodeBudget = 1L << 14;
    SC.Exact.MaxLiveNodeBudget = 1L << 14;
    SchedulingService Svc(SC);
    ServerConfig NC;
    NC.IoShards = 2;
    NC.MaxQueueDepth = 4;
    NC.SlackQueueDepth = 8;
    NC.CachedFallback = true;
    EpollServer Front(Svc, NC);
    std::string Err;
    if (!Front.start(Err)) {
      Open.Overload.Error = Err;
    } else {
      std::thread IO([&Front] { Front.serve(); });
      // Warm pass: strict lockstep on one connection so nothing queues —
      // every corpus loop gets a slack answer into the cache.
      NetLoadConfig WC;
      WC.Port = Front.port();
      WC.Connections = 1;
      WC.PipelineDepth = 1;
      WC.Engine = "slack";
      WC.Corpus = OverCorpus;
      WC.RequestsPerConnection = static_cast<int>(OverCorpus.size());
      const NetLoadResult Warm = runNetLoad(WC);
      if (!Warm.ok() || Warm.Errors > 0) {
        Open.Overload.Error =
            Warm.Error.empty() ? "overload warm pass saw errors"
                               : Warm.Error;
      } else {
        OpenLoadConfig OC;
        OC.Port = Front.port();
        OC.Connections = Smoke ? 64 : 256;
        OC.TargetRps = Smoke ? 300 : 1500;
        OC.TotalRequests = Smoke ? 600 : 6000;
        OC.Seed = Seed + 3;
        OC.Engine = "bnb";
        OC.Corpus = OverCorpus;
        Open.OverloadConns = OC.Connections;
        Open.OverloadTargetRps = OC.TargetRps;
        Open.Overload = runOpenLoad(OC);
      }
      Front.requestStop();
      IO.join();
    }
  }
  // Which rung answers an overload request depends on host timing, so
  // only the gate is recorded: >= 90% answered, the cached rung among them.
  const bool OverloadAnswers =
      Open.Overload.Error.empty() && Open.Overload.Errors == 0 &&
      (Smoke || (Open.Overload.answeredFraction() >= 0.9 &&
                 Open.Overload.TierCached > 0));

  const double OracleRate =
      Oracle.Jobs1Seconds > 0 ? Oracle.Loops / Oracle.Jobs1Seconds : 0;
  std::ostringstream JSON;
  JSON << "{\n"
       << "  \"bench\": \"perf_report\",\n"
       << "  \"mode\": \"" << (Smoke ? "smoke" : "full") << "\",\n"
       << "  \"hardware_concurrency\": " << hardwareJobs() << ",\n"
       << "  \"jobs\": " << JobsN << ",\n"
       << "  \"oracle_report_byte_identical_across_jobs\": "
       << (Oracle.Identical ? "true" : "false") << ",\n"
       << "  \"cgra_report_byte_identical_across_jobs\": "
       << (CgraSection.Identical ? "true" : "false") << ",\n"
       << "  \"irregular_report_byte_identical_across_jobs\": "
       << (IrregularSection.Identical ? "true" : "false") << ",\n"
       << "  \"oracle_maxlive_certified\": " << FlatReport.MaxLiveCertified
       << ",\n"
       << "  \"oracle_sweep_loops_per_sec\": " << formatDouble(OracleRate, 1)
       << ",\n"
       << "  \"oracle_maxlive_cert_minavg\": " << FlatReport.CertMinAvg
       << ",\n"
       << "  \"oracle_maxlive_cert_family\": " << FlatReport.CertFamily
       << ",\n"
       << "  \"service_responses_byte_identical_across_jobs\": "
       << (ServiceByteIdentical ? "true" : "false") << ",\n"
       << "  \"sections\": {\n";
  JSON << "    \"oracle_sweep\": {\n"
       << "      \"loops\": " << Oracle.Loops << ",\n"
       << "      \"seq_seconds\": " << formatDouble(Oracle.Jobs1Seconds, 3)
       << ",\n"
       << "      \"seq_loops_per_sec\": " << formatDouble(OracleRate, 1)
       << "\n"
       << "    },\n"
       << "    \"cgra\": {\n"
       << "      \"grid\": \"" << CgraReport.Config.Cgra.rows() << "x"
       << CgraReport.Config.Cgra.cols() << "\",\n"
       << "      \"loops\": " << CgraSection.Loops << ",\n"
       << "      \"seq_seconds\": "
       << formatDouble(CgraSection.Jobs1Seconds, 3) << ",\n"
       << "      \"heur_mapped\": " << CgraReport.HeurMapped << ",\n"
       << "      \"exact_optimal\": " << CgraReport.CertifiedOptimal
       << ",\n"
       << "      \"heur_at_exact\": " << CgraReport.HeurAtExactII << ",\n"
       << "      \"spatial_above_flat_mii\": " << CgraReport.AboveFlatMII
       << ",\n"
       << "      \"timeouts\": " << CgraReport.Timeouts << ",\n"
       << "      \"validation_failures\": "
       << CgraReport.ValidationFailures << ",\n"
       << "      \"parity_failures\": " << CgraReport.ParityViolations
       << "\n"
       << "    },\n"
       << "    \"irregular\": {\n"
       << "      \"loops\": " << IrregularSection.Loops << ",\n"
       << "      \"seq_seconds\": "
       << formatDouble(IrregularSection.Jobs1Seconds, 3) << ",\n"
       << "      \"cons_scheduled\": " << IrrReport.ConsScheduled << ",\n"
       << "      \"spec_scheduled\": " << IrrReport.SpecScheduled << ",\n"
       << "      \"comparable\": " << IrrReport.Comparable << ",\n"
       << "      \"spec_at_or_below_cons\": " << IrrReport.SpecAtOrBelowCons
       << ",\n"
       << "      \"strict_gaps\": " << IrrReport.StrictGaps << ",\n"
       << "      \"certified_strict_gaps\": "
       << IrrReport.CertifiedStrictGaps << ",\n"
       << "      \"spec_wins\": " << IrrReport.SpecWins << ",\n"
       << "      \"assumption_violations\": " << IrrReport.TotalViolations
       << ",\n"
       << "      \"misspeculated_stores\": "
       << IrrReport.TotalMisspeculatedStores << ",\n"
       << "      \"validation_failures\": " << IrrReport.ValidationFailures
       << ",\n"
       << "      \"trace_failures\": " << IrrReport.TraceFailures << "\n"
       << "    },\n"
       << "    \"service\": {\n"
       << "      \"workers\": 1,\n"
       << "      \"loops\": " << Service.CorpusLoops << ",\n"
       << "      \"warm_passes\": " << Service.WarmPasses << ",\n"
       << "      \"cold_seconds\": " << formatDouble(Service.ColdSeconds, 4)
       << ",\n"
       << "      \"cold_loops_per_sec\": "
       << formatDouble(Service.coldLoopsPerSec(), 1) << ",\n"
       << "      \"warm_seconds\": " << formatDouble(Service.WarmSeconds, 4)
       << ",\n"
       << "      \"warm_loops_per_sec\": "
       << formatDouble(Service.warmLoopsPerSec(), 1) << ",\n"
       << "      \"warm_speedup\": "
       << formatDouble(Service.warmSpeedup(), 1) << ",\n"
       << "      \"cache_hit_rate\": " << formatDouble(Service.HitRate, 4)
       << ",\n"
       << "      \"request_p50_us\": " << Service.P50Us << ",\n"
       << "      \"request_p99_us\": " << Service.P99Us << ",\n"
       << "      \"errors\": " << Service.Errors << "\n"
       << "    },\n"
       << "    \"server\": {\n"
       << "      \"connections\": " << Server.Connections << ",\n"
       << "      \"cold_requests\": " << Server.ColdRequests << ",\n"
       << "      \"cold_seconds\": " << formatDouble(Server.ColdSeconds, 4)
       << ",\n"
       << "      \"cold_rps\": " << formatDouble(ServerColdRps, 1) << ",\n"
       << "      \"warm_passes\": " << Server.WarmPasses << ",\n"
       << "      \"warm_requests\": " << Server.WarmRequests << ",\n"
       << "      \"warm_seconds\": " << formatDouble(Server.WarmSeconds, 4)
       << ",\n"
       << "      \"warm_rps\": " << formatDouble(ServerWarmRps, 1) << ",\n"
       << "      \"restart_speedup\": "
       << formatDouble(ServerRestartSpeedup, 1) << ",\n"
       << "      \"recovered_records\": " << Server.RecoveredRecords << ",\n"
       << "      \"warm_p50_us\": " << Server.WarmP50Us << ",\n"
       << "      \"warm_p99_us\": " << Server.WarmP99Us << ",\n"
       << "      \"warm_p999_us\": " << Server.WarmP999Us << ",\n"
       << "      \"errors\": " << Server.Errors << ",\n"
       << "      \"shed\": " << Server.Shed << ",\n"
       << "      \"warm_store_10x\": "
       << (ServerWarmFastEnough ? "true" : "false") << "\n"
       << "    },\n"
       << "    \"server_open\": {\n"
       << "      \"io_shards\": " << Open.IoShards << ",\n"
       << "      \"connections\": " << Open.TailConns << ",\n"
       << "      \"target_rps\": " << formatDouble(Open.TailTargetRps, 1)
       << ",\n"
       << "      \"sent\": " << Open.Tail.Sent << ",\n"
       << "      \"received\": " << Open.Tail.Received << ",\n"
       << "      \"seconds\": " << formatDouble(Open.Tail.Seconds, 3)
       << ",\n"
       << "      \"achieved_rps\": " << formatDouble(Open.Tail.rps(), 1)
       << ",\n"
       << "      \"p50_us\": " << Open.Tail.P50Us << ",\n"
       << "      \"p99_us\": " << Open.Tail.P99Us << ",\n"
       << "      \"p999_us\": " << Open.Tail.P999Us << ",\n"
       << "      \"max_us\": " << Open.Tail.MaxUs << ",\n"
       << "      \"errors\": " << Open.Tail.Errors << ",\n"
       << "      \"shed\": " << Open.Tail.Shed << ",\n"
       << "      \"p99_under_250ms\": " << (OpenTailOk ? "true" : "false")
       << "\n"
       << "    },\n"
       << "    \"server_overload\": {\n"
       << "      \"connections\": " << Open.OverloadConns << ",\n"
       << "      \"target_rps\": "
       << formatDouble(Open.OverloadTargetRps, 1) << ",\n"
       << "      \"sent\": " << Open.Overload.Sent << ",\n"
       << "      \"received\": " << Open.Overload.Received << ",\n"
       << "      \"shed\": " << Open.Overload.Shed << ",\n"
       << "      \"errors\": " << Open.Overload.Errors << ",\n"
       << "      \"answered_fraction\": "
       << formatDouble(Open.Overload.answeredFraction(), 4) << ",\n"
       << "      \"p99_us\": " << Open.Overload.P99Us << ",\n"
       << "      \"answered_90pct\": "
       << (OverloadAnswers ? "true" : "false") << "\n"
       << "    }\n"
       << "  }\n"
       << "}\n";

  if (OutPath) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "perf_report: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JSON.str();
    std::cout << "wrote " << OutPath << "\n";
  } else {
    std::cout << JSON.str();
  }
  // The differential sweeps' gates: the same report bytes at both job
  // counts, no failure, and -- in full mode -- each family's floors (see
  // the file comment). Smoke sweeps too few loops for the floors.
  const bool FlatOk = Oracle.Identical && FlatReport.failures() == 0 &&
                      (Smoke || FlatReport.MaxLiveCertified >= 23);
  const bool CgraOk =
      CgraSection.Identical && CgraReport.failures() == 0 &&
      (Smoke || (CgraReport.AboveFlatMII >= 1 &&
                 CgraReport.CertifiedOptimal >= 140));
  const bool IrregularOk =
      IrregularSection.Identical && IrrReport.failures() == 0 &&
      IrrReport.Comparable == IrregularSection.Loops &&
      (Smoke || (IrrReport.StrictGaps >= 10 && IrrReport.SpecWins >= 1));
  if (!FlatOk)
    std::cerr << "perf_report: FAIL oracle sweep (certified "
              << FlatReport.MaxLiveCertified << ", floor 23; failures "
              << FlatReport.failures() << "; byte_identical="
              << (Oracle.Identical ? "true" : "false") << ")\n";
  if (!CgraOk)
    std::cerr << "perf_report: FAIL cgra sweep (certified "
              << CgraReport.CertifiedOptimal << " of " << CgraSection.Loops
              << " loops, floor 140; above-flat-MII "
              << CgraReport.AboveFlatMII << "; failures "
              << CgraReport.failures() << "; byte_identical="
              << (CgraSection.Identical ? "true" : "false") << ")\n";
  if (!IrregularOk)
    std::cerr << "perf_report: FAIL irregular sweep (comparable "
              << IrrReport.Comparable << " of " << IrregularSection.Loops
              << " loops; strict gaps " << IrrReport.StrictGaps
              << " (floor 10), wins " << IrrReport.SpecWins
              << " (floor 1); failures " << IrrReport.failures()
              << "; byte_identical="
              << (IrregularSection.Identical ? "true" : "false") << ")\n";
  if (!ServiceByteIdentical)
    std::cerr << "perf_report: FAIL service responses differ across jobs\n";
  if (!ServiceWarmFastEnough)
    std::cerr << "perf_report: FAIL service warm speedup "
              << formatDouble(Service.warmSpeedup(), 1) << "x < 10x\n";
  if (!ServerWarmFastEnough) {
    if (!Server.Error.empty())
      std::cerr << "perf_report: FAIL server bench: " << Server.Error
                << "\n";
    else
      std::cerr << "perf_report: FAIL warm-store restart "
                << formatDouble(ServerRestartSpeedup, 1)
                << "x < 10x over cold exact (errors=" << Server.Errors
                << " shed=" << Server.Shed
                << " recovered=" << Server.RecoveredRecords << ")\n";
  }
  if (!OpenTailOk) {
    if (!Open.Tail.Error.empty())
      std::cerr << "perf_report: FAIL open-arrival bench: "
                << Open.Tail.Error << "\n";
    else
      std::cerr << "perf_report: FAIL open-arrival tail p99 "
                << Open.Tail.P99Us << "us > 250ms (errors="
                << Open.Tail.Errors << " shed=" << Open.Tail.Shed
                << ")\n";
  }
  if (!OverloadAnswers) {
    if (!Open.Overload.Error.empty())
      std::cerr << "perf_report: FAIL overload bench: "
                << Open.Overload.Error << "\n";
    else
      std::cerr << "perf_report: FAIL overload ladder answered "
                << formatDouble(Open.Overload.answeredFraction() * 100, 1)
                << "% < 90% (tier_cached=" << Open.Overload.TierCached
                << " shed=" << Open.Overload.Shed << ")\n";
  }
  return FlatOk && CgraOk && IrregularOk && ServiceByteIdentical &&
                 ServiceWarmFastEnough && ServerWarmFastEnough &&
                 OpenTailOk && OverloadAnswers && Service.Errors == 0
             ? 0
             : 1;
}
