//===----------------------------------------------------------------------===//
///
/// \file
/// Random loop synthesis. The paper evaluates on 1,525 FORTRAN DO loops
/// from the Lawrence Livermore Loops, SPEC89, and the Perfect Club; those
/// sources (and Cydrome's front end) are not available, so the suite is
/// substituted with random programs in the loop DSL, drawn so the resulting
/// bodies match Table 2's distributions of operation counts, recurrence
/// membership, conditional frequency, and divider usage.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_WORKLOADS_RANDOMLOOP_H
#define LSMS_WORKLOADS_RANDOMLOOP_H

#include "ir/LoopBody.h"
#include "support/Rng.h"

#include <string>

namespace lsms {

/// Knobs for one random loop. The Table 2 rates the generator does not
/// let a caller change (conditionals in 30% of loops, divide or sqrt at
/// 4% of expression nodes, omegas up to 3) are constants in RandomLoop.cpp.
struct RandomLoopConfig {
  /// Approximate number of machine operations to aim for (the generator
  /// adds statements until the estimate is reached).
  int TargetOps = 18;
  /// Probability that the loop carries a non-trivial recurrence.
  double RecurrenceProb = 0.37;
};

/// Draws a config whose TargetOps follow the heavy-tailed size
/// distribution of the paper's Table 2 (median ~18 ops, 90th percentile
/// ~80, maximum ~400).
RandomLoopConfig drawTable2Config(Rng &R);

/// Generates DSL source for one random loop.
std::string generateRandomLoopSource(Rng &R, const RandomLoopConfig &Config);

/// Generates and compiles one random loop (asserts the generated source
/// compiles — the generator emits only valid programs).
LoopBody generateRandomLoop(uint64_t Seed, const RandomLoopConfig &Config);

/// Convenience: Table 2-calibrated loop from a seed alone.
LoopBody generateRandomLoop(uint64_t Seed);

/// The iteration window of irregular loops: the generator's stamped
/// collision-probability estimates assume it, and the speculation sweep
/// replays this many iterations.
inline constexpr long IrregularWindow = 64;

/// Knobs for one irregular loop (while-exits, data-dependent subscripts).
/// Each loop gets one irregular core pattern (a histogram update, a
/// store/load pair on provably disjoint regions of one array, or a pointer
/// chase) and, with probability 1/2, a while-style exit clause.
struct IrregularLoopConfig {
  /// Approximate number of affine filler operations added on top of the
  /// irregular core pattern.
  int TargetOps = 10;
};

/// Generated irregular source plus the generator's seeded collision
/// estimates, one per array with data-dependent accesses. Estimates model
/// cross-iteration collisions only — the replay harness additionally counts
/// same-iteration collisions, so a low stamped probability can still be
/// violated (that is the point: misspeculation must be observable).
struct IrregularSource {
  std::string Source;
  /// Array name -> estimated probability that two data-dependent accesses
  /// of the array collide within IrregularWindow iterations.
  std::vector<std::pair<std::string, double>> ArrayAliasProb;
  bool HasWhile = false;
};

/// Generates DSL source for one irregular loop.
IrregularSource generateIrregularLoopSource(Rng &R,
                                            const IrregularLoopConfig &Config);

/// Generates, compiles, and stamps one irregular loop: every may-alias
/// group whose operations touch an array listed in ArrayAliasProb gets that
/// array's estimate as its MemDep::Prob (other groups keep Prob unknown).
LoopBody generateIrregularLoop(uint64_t Seed, const IrregularLoopConfig &Config);

/// Irregular loop from a seed alone (default config).
LoopBody generateIrregularLoop(uint64_t Seed);

} // namespace lsms

#endif // LSMS_WORKLOADS_RANDOMLOOP_H
