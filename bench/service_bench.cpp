//===----------------------------------------------------------------------===//
/// \file Scheduling-service benchmark: cold vs warm throughput, cache hit
/// rate, and request-latency percentiles over the deterministic corpus
/// (suite kernels + seeded random DSL loops), plus the byte-identity check
/// across worker counts. Exit status enforces the service's contracts:
/// warm (cache-hit) throughput on a one-worker service must be >= 10x
/// cold, and the response stream must be byte-identical at 1, 2 and
/// --jobs N workers (default: the hardware count).
///
/// Usage: service_bench [--smoke] [--jobs N] [--loops N] [--repeats R]
///                      [--engine slack|bnb|sat] [--out FILE]
//===----------------------------------------------------------------------===//

#include "ServiceBenchCommon.h"

#include "support/ParallelFor.h"
#include "support/ParseInteger.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace lsms;

namespace {

/// True when Argv[I] is \p Flag followed by a whole count >= 0, which is
/// stored in \p Out.
bool countFlag(int Argc, char **Argv, int I, const char *Flag, int &Out) {
  return std::strcmp(Argv[I], Flag) == 0 && I + 1 < Argc &&
         parseWholeInteger(Argv[I + 1], Out) && Out >= 0;
}

std::string formatDouble(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int JobsN = 0;
  int RandomLoops = -1;
  int Repeats = -1;
  ServiceEngine Engine = ServiceEngine::Slack;
  const char *OutPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (countFlag(Argc, Argv, I, "--jobs", JobsN) ||
               countFlag(Argc, Argv, I, "--loops", RandomLoops) ||
               countFlag(Argc, Argv, I, "--repeats", Repeats)) {
      ++I;
    } else if (std::strcmp(Argv[I], "--engine") == 0 && I + 1 < Argc) {
      if (!parseServiceEngine(Argv[++I], Engine)) {
        std::cerr << "service_bench: unknown engine '" << Argv[I] << "'\n";
        return 1;
      }
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::cerr << "usage: service_bench [--smoke] [--jobs N] [--loops N] "
                   "[--repeats R] [--engine slack|bnb|sat] [--out FILE]\n";
      return 1;
    }
  }
  JobsN = resolveJobs(JobsN);
  if (RandomLoops < 0)
    RandomLoops = Smoke ? 8 : 75;
  if (Repeats < 0)
    Repeats = Smoke ? 3 : 10;
  const uint64_t Seed = 0x19930601;

  const std::vector<std::string> Corpus =
      serviceBenchCorpus(RandomLoops, Seed);

  const ServiceBenchResult R = runServiceBench(Corpus, Engine, Repeats);

  // Determinism: identical response bytes at 1, 2, and JobsN workers.
  std::vector<int> JobCounts = {1, 2, JobsN};
  const std::vector<std::string> Streams =
      serviceResponsesAtJobs(Corpus, Engine, JobCounts);
  bool ByteIdentical = true;
  for (size_t I = 1; I < Streams.size(); ++I)
    ByteIdentical = ByteIdentical && Streams[I] == Streams[0];

  const bool WarmFastEnough = R.warmSpeedup() >= 10.0;
  const bool NoErrors = R.Errors == 0;

  std::ostringstream JSON;
  JSON << "{\n"
       << "  \"bench\": \"service_bench\",\n"
       << "  \"mode\": \"" << (Smoke ? "smoke" : "full") << "\",\n"
       << "  \"engine\": \"" << serviceEngineName(Engine) << "\",\n"
       << "  \"jobs\": " << JobsN << ",\n"
       << "  \"corpus_loops\": " << R.CorpusLoops << ",\n"
       << "  \"warm_passes\": " << R.WarmPasses << ",\n"
       << "  \"cold_seconds\": " << formatDouble(R.ColdSeconds, 4) << ",\n"
       << "  \"cold_loops_per_sec\": " << formatDouble(R.coldLoopsPerSec(), 1)
       << ",\n"
       << "  \"warm_seconds\": " << formatDouble(R.WarmSeconds, 4) << ",\n"
       << "  \"warm_loops_per_sec\": " << formatDouble(R.warmLoopsPerSec(), 1)
       << ",\n"
       << "  \"warm_speedup\": " << formatDouble(R.warmSpeedup(), 1) << ",\n"
       << "  \"cache_hit_rate\": " << formatDouble(R.HitRate, 4) << ",\n"
       << "  \"request_p50_us\": " << R.P50Us << ",\n"
       << "  \"request_p99_us\": " << R.P99Us << ",\n"
       << "  \"errors\": " << R.Errors << ",\n"
       << "  \"responses_byte_identical_across_jobs\": "
       << (ByteIdentical ? "true" : "false") << ",\n"
       << "  \"warm_speedup_at_least_10x\": "
       << (WarmFastEnough ? "true" : "false") << "\n"
       << "}\n";

  if (OutPath) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "service_bench: cannot write " << OutPath << "\n";
      return 1;
    }
    Out << JSON.str();
    std::cout << "wrote " << OutPath << "\n";
  } else {
    std::cout << JSON.str();
  }
  if (!ByteIdentical)
    std::cerr << "service_bench: FAIL responses differ across job counts\n";
  if (!WarmFastEnough)
    std::cerr << "service_bench: FAIL warm speedup "
              << formatDouble(R.warmSpeedup(), 1) << "x < 10x\n";
  if (!NoErrors)
    std::cerr << "service_bench: FAIL " << R.Errors << " error responses\n";
  return ByteIdentical && WarmFastEnough && NoErrors ? 0 : 1;
}
