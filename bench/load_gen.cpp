//===----------------------------------------------------------------------===//
/// \file load_gen — load generator for a running schedule_server, in two
/// modes:
///
///  - closed loop (default): N connections, each pipelining JSONL
///    requests built from the deterministic bench corpus, reporting
///    throughput and latency percentiles (and shed counts, which makes
///    it double as an overload probe).
///  - open arrival (--open): requests arrive on a Poisson process at
///    --rps across --connections persistent connections; latency is
///    measured from the scheduled arrival (no coordinated omission) and
///    responses are classified per degradation tier.
///
/// Usage:
///   load_gen --port=P [--host=A] [--connections=N] [--requests=N]
///            [--pipeline=N] [--engine=slack|bnb|sat|portfolio]
///            [--corpus=N] [--seed=S] [--passes=N] [--disjoint] [--json]
///            [--open --rps=R [--threads=N]]
///   --requests    total request lines across all connections (default:
///                 one pass over the corpus per connection, times --passes;
///                 in open mode: total arrivals, default 10000)
///   --pipeline    in-flight lines per connection (closed loop, default 8)
///   --corpus      random sources appended to the suite kernels (default 16)
///   --disjoint    give each connection a disjoint corpus slice (closed)
///   --open        open-arrival mode (Poisson arrivals at --rps)
///   --rps         target aggregate arrival rate (open mode, required)
///   --threads     client event-loop threads (open mode, default: auto)
///   --json        machine-readable result on stdout
/// Closed mode runs one thread per connection, so --connections there, and
/// --threads, are at most 256 (MaxJobs).
//===----------------------------------------------------------------------===//

#include "NetBenchCommon.h"
#include "ServiceBenchCommon.h"
#include "support/ParallelFor.h"
#include "support/ParseInteger.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string_view>
#include <utility>

using namespace lsms;

namespace {

int runOpenMode(const OpenLoadConfig &Config, bool Json) {
  const OpenLoadResult R = runOpenLoad(Config);
  if (!R.ok()) {
    std::cerr << "load_gen: " << R.Error << "\n";
    return 1;
  }
  char Rps[32], Secs[32], Answered[32];
  std::snprintf(Rps, sizeof(Rps), "%.1f", R.rps());
  std::snprintf(Secs, sizeof(Secs), "%.3f", R.Seconds);
  std::snprintf(Answered, sizeof(Answered), "%.4f", R.answeredFraction());
  if (Json) {
    std::cout << "{\"mode\":\"open\",\"connections\":" << Config.Connections
              << ",\"target_rps\":" << Config.TargetRps
              << ",\"sent\":" << R.Sent << ",\"received\":" << R.Received
              << ",\"errors\":" << R.Errors << ",\"shed\":" << R.Shed
              << ",\"tier_exact\":" << R.TierExact
              << ",\"tier_slack\":" << R.TierSlack
              << ",\"tier_cached\":" << R.TierCached
              << ",\"answered_fraction\":" << Answered
              << ",\"seconds\":" << Secs << ",\"rps\":" << Rps
              << ",\"p50_us\":" << R.P50Us << ",\"p99_us\":" << R.P99Us
              << ",\"p999_us\":" << R.P999Us << ",\"max_us\":" << R.MaxUs
              << "}\n";
  } else {
    std::cout << "load_gen (open): " << R.Received << " responses ("
              << R.Errors << " errors, " << R.Shed << " shed; tiers "
              << R.TierExact << " exact / " << R.TierSlack << " slack / "
              << R.TierCached << " cached) over " << Config.Connections
              << " connections in " << Secs << "s  [" << Rps
              << " req/s of " << Config.TargetRps << " offered, "
              << Answered << " answered]\n"
              << "latency: p50=" << R.P50Us << "us p99=" << R.P99Us
              << "us p999=" << R.P999Us << "us max=" << R.MaxUs << "us\n";
  }
  return R.Errors == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  NetLoadConfig Config;
  int CorpusRandom = 16;
  uint64_t Seed = 0x19930601;
  int Passes = 1;
  long TotalRequests = -1;
  bool Json = false;
  bool Open = false;
  double TargetRps = 0;
  int ClientThreads = 0;

  bool Ok = true;
  for (int I = 1; I < Argc && Ok; ++I) {
    const std::string_view Arg = Argv[I];
    // Reads --<flag>=N into Dst, refusing N < Min; false when Arg is
    // another flag.
    const auto intArg = [&](std::string_view Prefix, auto &Dst, long Min) {
      if (!Arg.starts_with(Prefix))
        return false;
      Ok = parseWholeInteger(Arg.substr(Prefix.size()), Dst) &&
           std::cmp_greater_equal(Dst, Min);
      return true;
    };
    if (Arg.starts_with("--host=")) {
      Config.Host = Arg.substr(7);
    } else if (Arg.starts_with("--engine=")) {
      Config.Engine = Arg.substr(9);
    } else if (Arg.starts_with("--rps=")) {
      const std::string_view Text = Arg.substr(6);
      const char *Last = Text.data() + Text.size();
      const auto [Ptr, Ec] = std::from_chars(Text.data(), Last, TargetRps);
      Ok = Ec == std::errc() && Ptr == Last && std::isfinite(TargetRps) &&
           TargetRps > 0;
    } else if (intArg("--port=", Config.Port, 1) ||
               intArg("--connections=", Config.Connections, 1) ||
               intArg("--requests=", TotalRequests, 0) ||
               intArg("--pipeline=", Config.PipelineDepth, 1) ||
               intArg("--corpus=", CorpusRandom, 0) ||
               intArg("--seed=", Seed, 0) || intArg("--passes=", Passes, 0) ||
               intArg("--threads=", ClientThreads, 0)) {
      // parsed
    } else if (Arg == "--disjoint") {
      Config.DisjointSlices = true;
    } else if (Arg == "--open") {
      Open = true;
    } else if (Arg == "--json") {
      Json = true;
    } else {
      Ok = false;
    }
  }
  // Closed mode runs one thread per connection; open mode runs --threads
  // event loops over its connections.
  if ((!Open && Config.Connections > MaxJobs) || ClientThreads > MaxJobs)
    Ok = false;
  if (!Ok) {
    std::cerr << "usage: load_gen --port=P [--host=A] [--connections=N]\n"
                 "                [--requests=N] [--pipeline=N]\n"
                 "                [--engine=slack|bnb|sat|portfolio]\n"
                 "                [--corpus=N] [--seed=S] [--passes=N]\n"
                 "                [--disjoint] [--json]\n"
                 "                [--open --rps=R [--threads=N]]\n";
    return 2;
  }
  if (Config.Port == 0) {
    std::cerr << "load_gen: --port is required\n";
    return 2;
  }

  Config.Corpus = serviceBenchCorpus(CorpusRandom, Seed);

  if (Open) {
    if (TargetRps <= 0) {
      std::cerr << "load_gen: --open requires --rps=R > 0\n";
      return 2;
    }
    OpenLoadConfig OC;
    OC.Host = Config.Host;
    OC.Port = Config.Port;
    OC.Connections = Config.Connections;
    OC.TargetRps = TargetRps;
    OC.TotalRequests = TotalRequests > 0 ? TotalRequests : 10000;
    OC.ClientThreads = ClientThreads;
    OC.Seed = Seed;
    OC.Engine = Config.Engine;
    OC.Corpus = Config.Corpus;
    return runOpenMode(OC, Json);
  }

  if (TotalRequests > 0) {
    Config.RequestsPerConnection = static_cast<int>(
        (TotalRequests + Config.Connections - 1) / Config.Connections);
  } else {
    const size_t SliceSize =
        Config.DisjointSlices
            ? (Config.Corpus.size() +
               static_cast<size_t>(Config.Connections) - 1) /
                  static_cast<size_t>(Config.Connections)
            : Config.Corpus.size();
    Config.RequestsPerConnection =
        static_cast<int>(SliceSize) * std::max(1, Passes);
  }

  const NetLoadResult R = runNetLoad(Config);
  if (!R.ok()) {
    std::cerr << "load_gen: " << R.Error << "\n";
    return 1;
  }
  char Rps[32], Secs[32];
  std::snprintf(Rps, sizeof(Rps), "%.1f", R.rps());
  std::snprintf(Secs, sizeof(Secs), "%.3f", R.Seconds);
  if (Json) {
    std::cout << "{\"mode\":\"closed\",\"connections\":"
              << Config.Connections << ",\"sent\":" << R.Sent
              << ",\"received\":" << R.Received << ",\"errors\":" << R.Errors
              << ",\"shed\":" << R.Shed << ",\"seconds\":" << Secs
              << ",\"rps\":" << Rps << ",\"p50_us\":" << R.P50Us
              << ",\"p99_us\":" << R.P99Us << ",\"p999_us\":" << R.P999Us
              << ",\"max_us\":" << R.MaxUs << "}\n";
  } else {
    std::cout << "load_gen: " << R.Received << " responses ("
              << R.Errors << " errors, " << R.Shed << " shed) over "
              << Config.Connections << " connections in " << Secs << "s  ["
              << Rps << " req/s]\n"
              << "latency: p50=" << R.P50Us << "us p99=" << R.P99Us
              << "us p999=" << R.P999Us << "us max=" << R.MaxUs << "us\n";
  }
  return R.Errors == 0 ? 0 : 1;
}
