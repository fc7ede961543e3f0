#include "ServiceBenchCommon.h"

#include "frontend/LoopCompiler.h"
#include "service/Json.h"
#include "support/Rng.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace lsms;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Random expression over the generator's fixed vocabulary: read-only
/// arrays u/v/w, recurrence reads of the destination array, params q/r/t,
/// and small constants. Depth-bounded so sources stay kernel-sized.
std::string randomExpr(Rng &R, const std::string &Dest, int MaxRecur,
                       int Depth) {
  if (Depth <= 0 || R.nextBool(0.35)) {
    switch (R.nextBelow(5)) {
    case 0:
      return std::string(1, "uvw"[R.nextBelow(3)]) + "[i+" +
             std::to_string(R.nextInRange(0, 6)) + "]";
    case 1:
      return Dest + "[i-" + std::to_string(R.nextInRange(1, MaxRecur)) + "]";
    case 2:
      return std::string(1, "qrt"[R.nextBelow(3)]);
    case 3:
      return std::to_string(R.nextInRange(1, 9)) + "." +
             std::to_string(R.nextInRange(0, 9)) +
             std::to_string(R.nextInRange(1, 9));
    default:
      return std::string(1, "uvw"[R.nextBelow(3)]) + "[i]";
    }
  }
  const char *Ops[] = {" + ", " - ", " * ", " * ", " / "};
  const std::string Lhs = randomExpr(R, Dest, MaxRecur, Depth - 1);
  const std::string Rhs = randomExpr(R, Dest, MaxRecur, Depth - 1);
  if (R.nextBool(0.12))
    return "sqrt(" + Lhs + " * " + Lhs + " + " + Rhs + " * " + Rhs + ")";
  return "(" + Lhs + Ops[R.nextBelow(5)] + Rhs + ")";
}

std::string randomDslAttempt(uint64_t Seed) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "param q = 0." << R.nextInRange(1, 9) << "\n"
     << "param r = " << R.nextInRange(1, 3) << "." << R.nextInRange(0, 9)
     << "\n"
     << "param t = 2\n";
  const int MaxRecur = static_cast<int>(R.nextInRange(1, 3));
  OS << "loop i = " << (MaxRecur + 1) << ", n\n";
  const int Stmts = static_cast<int>(R.nextInRange(1, 3));
  const char *Dests[] = {"x", "y", "z"};
  for (int S = 0; S < Stmts; ++S) {
    const std::string Dest = Dests[S];
    const std::string Value =
        randomExpr(R, Dest, MaxRecur, static_cast<int>(R.nextInRange(1, 3)));
    if (R.nextBool(0.25)) {
      OS << "  if (" << randomExpr(R, Dest, MaxRecur, 1) << " < "
         << randomExpr(R, Dest, MaxRecur, 1) << ") then\n"
         << "    " << Dest << "[i] = " << Value << "\n"
         << "  else\n"
         << "    " << Dest << "[i] = " << Dest << "[i-1]\n"
         << "  end\n";
    } else {
      OS << "  " << Dest << "[i] = " << Value << "\n";
    }
  }
  OS << "end\n";
  return OS.str();
}

/// One cold/warm pair on a fresh service: a timed cold pass, then warm
/// passes until at least \p MinWarmPasses of them have run and they have
/// lasted at least MinWarmSeconds.
ServiceBenchResult runPair(const std::vector<ServiceRequest> &Requests,
                           int MinWarmPasses) {
  constexpr double MinWarmSeconds = 0.010;
  SchedulingService Service;
  ServiceBenchResult Result;
  Result.CorpusLoops = static_cast<int>(Requests.size());

  const auto pass = [&] {
    for (size_t I = 0; I < Requests.size(); ++I)
      if (!Service.handle(Requests[I], static_cast<int>(I)).Ok)
        ++Result.Errors;
  };
  const auto Cold0 = Clock::now();
  pass();
  Result.ColdSeconds = secondsSince(Cold0);

  const auto Warm0 = Clock::now();
  do {
    pass();
    ++Result.WarmPasses;
    Result.WarmSeconds = secondsSince(Warm0);
  } while (Result.WarmPasses < MinWarmPasses ||
           Result.WarmSeconds < MinWarmSeconds);

  // Combined over both tiers: warm repeats hit the request-level front
  // cache, so the schedule-level cache alone would undercount warm hits.
  const CacheStats Sched = Service.cacheStats();
  const CacheStats FrontStats = Service.frontCacheStats();
  Result.Hits = Sched.Hits + FrontStats.Hits;
  Result.Misses = Sched.Misses + FrontStats.Misses;
  const long Total = Result.Hits + Result.Misses;
  Result.HitRate =
      Total ? static_cast<double>(Result.Hits) / static_cast<double>(Total)
            : 0.0;
  Result.P50Us = Service.metrics().percentile("request_latency_us", 0.50);
  Result.P99Us = Service.metrics().percentile("request_latency_us", 0.99);
  return Result;
}

} // namespace

std::string lsms::randomDslSource(uint64_t Seed) {
  // Redraw (deterministically) until the program compiles; in practice the
  // vocabulary above nearly always compiles on the first attempt.
  for (uint64_t Attempt = 0;; ++Attempt) {
    const std::string Source =
        randomDslAttempt(Seed + 0x9e3779b97f4a7c15ULL * Attempt);
    LoopBody Body;
    if (compileLoop(Source, "random", Body).empty())
      return Source;
  }
}

std::vector<std::string> lsms::serviceBenchCorpus(int RandomCount,
                                                  uint64_t Seed) {
  std::vector<std::string> Corpus;
  for (const NamedKernel &K : kernelSources())
    Corpus.push_back(K.Source);
  for (int I = 0; I < RandomCount; ++I)
    Corpus.push_back(randomDslSource(Seed + static_cast<uint64_t>(I)));
  return Corpus;
}

ServiceBenchResult
lsms::runServiceBench(const std::vector<std::string> &Corpus,
                      ServiceEngine Engine, int WarmPasses) {
  constexpr int Pairs = 5;
  std::vector<ServiceRequest> Requests;
  Requests.reserve(Corpus.size());
  for (size_t I = 0; I < Corpus.size(); ++I) {
    ServiceRequest Req;
    Req.Name = "c" + std::to_string(I);
    Req.Source = Corpus[I];
    Req.Engine = Engine;
    Requests.push_back(std::move(Req));
  }

  std::vector<ServiceBenchResult> Runs;
  int Errors = 0;
  for (int P = 0; P < Pairs; ++P) {
    Runs.push_back(runPair(Requests, WarmPasses));
    Errors += Runs.back().Errors;
  }
  std::sort(Runs.begin(), Runs.end(),
            [](const ServiceBenchResult &A, const ServiceBenchResult &B) {
              return A.warmSpeedup() < B.warmSpeedup();
            });
  ServiceBenchResult Median = Runs[Pairs / 2];
  Median.Errors = Errors;
  return Median;
}

std::vector<std::string>
lsms::serviceResponsesAtJobs(const std::vector<std::string> &Corpus,
                             ServiceEngine Engine,
                             const std::vector<int> &JobCounts) {
  std::ostringstream Input;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (size_t I = 0; I < Corpus.size(); ++I)
      Input << "{\"name\": " << jsonQuote("c" + std::to_string(I))
            << ", \"source\": " << jsonQuote(Corpus[I]) << ", \"engine\": \""
            << serviceEngineName(Engine) << "\"}\n";
  const std::string Requests = Input.str();

  std::vector<std::string> Streams;
  for (const int Jobs : JobCounts) {
    ServiceConfig Config;
    Config.Jobs = Jobs;
    SchedulingService Service(Config);
    std::istringstream In(Requests);
    std::ostringstream Out;
    Service.processJsonl(In, Out);
    Streams.push_back(Out.str());
  }
  return Streams;
}
