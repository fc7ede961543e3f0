//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each runs a fixed corpus of ops, ordered by the
/// seed, until the requested seconds have passed, checks every output,
/// and fills a Report: the end-to-end metrics when untraced, the per-layer
/// metrics when traced. Quality and count metrics come from one fixed set
/// of ops (the first round, or serve_mix's scored prefix), so they repeat
/// exactly for a fixed seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Bench.h"
#include "Trace.h"

namespace perfbench {

/// Compiles the 1,525-loop paper suite, DSL text to kernel code.
Report runPaperSuite(const Options &Opts);

/// Drives schedule_server over one socket with a seeded request mix.
Report runServeMix(const Options &Opts);

/// Runs the flat, CGRA and irregular differential cases.
Report runProveMix(const Options &Opts);

/// Adds "<layer>_us" (mean self microseconds per op) for every layer, plus
/// trace.coverage, from \p T.
void addLayerTimes(Report &R, const Tracer &T, long Ops);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
