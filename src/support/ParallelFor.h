//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic parallel-for for the embarrassingly parallel sweeps
/// (oracle runs, suite scheduling, bench harnesses).
///
/// Policy (see DESIGN.md, "Parallelism & determinism"): workers claim the
/// next unclaimed index from a shared atomic counter, so a few slow indices
/// never pin the rest of a fixed shard behind them. Which worker runs an
/// index therefore depends on timing, and nothing else may: workers
/// communicate only through disjoint result slots indexed by the loop
/// index, and callers merge/aggregate sequentially in input order after
/// the join. Any randomness must be seeded per loop index, never drawn
/// from a stream shared across workers, and bodies keep no per-thread
/// state. Under this discipline every result, report, and table is
/// byte-identical for all job counts, and Jobs=1 executes the plain
/// sequential loop on the caller's thread.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SUPPORT_PARALLELFOR_H
#define LSMS_SUPPORT_PARALLELFOR_H

#include "support/ParseInteger.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace lsms {

/// The largest thread count a tool accepts from outside the program: every
/// --jobs-style flag refuses a larger value, and resolveJobs ignores a
/// larger LSMS_JOBS. It lies far above the core counts this code runs on;
/// hardwareJobs() is not capped.
inline constexpr int MaxJobs = 256;

/// Worker threads the host supports (always >= 1).
inline int hardwareJobs() {
  const unsigned H = std::thread::hardware_concurrency();
  return H == 0 ? 1 : static_cast<int>(H);
}

/// Resolves a job-count request: a positive \p Requested wins; otherwise
/// the LSMS_JOBS environment variable decides when it is a whole decimal
/// integer in [1, MaxJobs]; otherwise (unset, 0, malformed like "4x",
/// negative or above MaxJobs) hardwareJobs() applies.
inline int resolveJobs(int Requested) {
  if (Requested > 0)
    return Requested;
  int V = 0;
  if (const char *Env = std::getenv("LSMS_JOBS");
      Env && parseWholeInteger(Env, V) && V >= 1 && V <= MaxJobs)
    return V;
  return hardwareJobs();
}

/// Runs Body(I) for every I in [0, N) on at most \p Jobs threads, each
/// claiming indices in increasing order from a shared counter as described
/// above. \p Body is invoked concurrently for distinct indices and must
/// only touch per-index state. Jobs <= 1 (or N <= 1) is the exact
/// sequential path: no threads are created and Body runs in index order on
/// the caller.
template <typename Fn> void parallelFor(int Jobs, int N, Fn &&Body) {
  const int Workers = std::max(1, std::min(Jobs, N));
  if (Workers <= 1) {
    for (int I = 0; I < N; ++I)
      Body(I);
    return;
  }
  std::atomic<int> Next{0};
  std::vector<std::jthread> Pool;
  Pool.reserve(static_cast<size_t>(Workers));
  for (int W = 0; W < Workers; ++W)
    Pool.emplace_back([&Next, N, &Body] {
      for (int I = Next++; I < N; I = Next++)
        Body(I);
    });
  // ~jthread joins every worker before the pool (declared after Next) goes
  // out of scope.
}

} // namespace lsms

#endif // LSMS_SUPPORT_PARALLELFOR_H
