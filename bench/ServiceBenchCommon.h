//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness for the scheduling-service benchmarks: a deterministic
/// request corpus (every suite kernel plus seeded random DSL sources) and
/// a cold/warm throughput measurement over a SchedulingService, reused by
/// the service section of bench/perf_report, bench/load_gen, the DSL
/// round-trip test and perfbench's serve_mix.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_BENCH_SERVICEBENCHCOMMON_H
#define LSMS_BENCH_SERVICEBENCHCOMMON_H

#include "service/SchedulingService.h"

#include <string>
#include <vector>

namespace lsms {

/// Deterministic DSL corpus: the named suite kernels followed by
/// \p RandomCount seeded random loop programs (each verified to compile).
/// The same (RandomCount, Seed) always produces byte-identical sources.
std::vector<std::string> serviceBenchCorpus(int RandomCount, uint64_t Seed);

/// One seeded random loop-DSL program (exposed for the generator tests).
std::string randomDslSource(uint64_t Seed);

/// Cold/warm measurement: one pair of a cold pass and warm passes over a
/// fresh service instance.
struct ServiceBenchResult {
  int CorpusLoops = 0;   ///< distinct requests in the corpus
  int WarmPasses = 0;    ///< corpus repetitions measured as warm
  double ColdSeconds = 0; ///< first pass (every request a cache miss)
  double WarmSeconds = 0; ///< WarmPasses subsequent passes (cache hits)
  double coldLoopsPerSec() const {
    return ColdSeconds > 0 ? CorpusLoops / ColdSeconds : 0;
  }
  double warmLoopsPerSec() const {
    return WarmSeconds > 0
               ? static_cast<double>(CorpusLoops) * WarmPasses / WarmSeconds
               : 0;
  }
  double warmSpeedup() const {
    const double Cold = coldLoopsPerSec(), Warm = warmLoopsPerSec();
    return Cold > 0 ? Warm / Cold : 0;
  }
  double HitRate = 0;   ///< cache hit rate over the pair
  long Hits = 0, Misses = 0;
  int64_t P50Us = 0, P99Us = 0; ///< request latency percentiles
  int Errors = 0;               ///< non-Ok responses (should be 0)
};

/// Runs the corpus through five fresh SchedulingService instances, calling
/// handle() in a loop on the caller's thread. Each times one cold pass,
/// then warm passes until at least \p WarmPasses of them have run and they
/// have lasted at least 10 ms, so the warm side is never a ~1 ms phase.
/// One thread keeps hand-off between threads, which dominates a ~0.15 ms
/// warm pass at hardware width, out of the ratio; serviceResponsesAtJobs
/// covers wider job counts. Returns the pair with the median warm speedup;
/// Errors counts every pair. Every request uses \p Engine.
ServiceBenchResult runServiceBench(const std::vector<std::string> &Corpus,
                                   ServiceEngine Engine, int WarmPasses);

/// Streams the corpus (cold pass + one warm pass) through processJsonl on
/// a fresh service at each job count and returns the response streams,
/// index-aligned with \p JobCounts. Byte-comparing them asserts the
/// service's determinism guarantee.
std::vector<std::string>
serviceResponsesAtJobs(const std::vector<std::string> &Corpus,
                       ServiceEngine Engine,
                       const std::vector<int> &JobCounts);

} // namespace lsms

#endif // LSMS_BENCH_SERVICEBENCHCOMMON_H
