//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the benchmark workloads: clocks, process CPU and
/// memory readings, order statistics, and the Report every workload fills
/// (end-to-end metrics from an untraced run, per-layer metrics from a
/// traced one).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// User + system CPU seconds of this process.
double processCpuSeconds();

/// User + system CPU seconds of process \p Pid (from /proc/<pid>/stat);
/// negative when it cannot be read.
double pidCpuSeconds(pid_t Pid);

/// Peak resident set size (VmHWM) of \p Pid in MB, or of this process
/// when \p Pid is 0; negative when it cannot be read.
double peakRssMb(pid_t Pid = 0);

/// Set-up is timed this many times per run and its median reported. The
/// host's speed shifts in stretches of seconds, and repeats made back to
/// back all land in one stretch; so where set-up is cheap, half the
/// repeats run before the timed phase and half after it.
constexpr int SetupRepeats = 8;

/// Nearest-rank quantile of \p Samples (sorted in place); 0 when empty.
double quantile(std::vector<double> &Samples, double Fraction);

/// Median of a copy of \p Samples (the mean of the middle two when their
/// number is even); 0 when empty.
double median(std::vector<double> Samples);

/// A seeded permutation of 0 .. N-1.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// Geometric mean of positive ratios.
class GeoMean {
public:
  void add(double Ratio);
  double value() const;

private:
  double LogSum = 0;
  long N = 0;
};

/// Command-line options shared by every workload.
struct Options {
  std::string Workload;
  /// Orders the ops of every round (and draws serve_mix's request mix);
  /// the loops themselves are a fixed corpus per workload.
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs for the smoke test (seconds, not minutes).
  bool Smoke = false;
  /// schedule_server binary (serve_mix).
  std::string ServerPath;
  /// Where spans, per-op rows and serve_mix's store files go.
  std::string OutDir = ".bench_out";
};

/// Per-op wall times of one timed phase, plus its totals. The timing
/// metrics pool every op of the phase. The host switches between a fast
/// and a slow state for seconds at a time; a median over rounds jumps
/// between the two, while the pooled figures move with the share of the
/// phase spent in each.
struct OpTiming {
  std::vector<double> OpUs;
  double WallSeconds = 0;
  double CpuSeconds = 0;
  /// Wall and CPU seconds of each round, for the notes: a round slowed by
  /// the host shows there, and a descheduled one as wall > CPU.
  std::vector<double> RoundWall, RoundCpu;

  /// Closes a round made of the ops recorded since the previous one.
  void addRound(double Wall, double Cpu) {
    WallSeconds += Wall;
    CpuSeconds += Cpu;
    RoundWall.push_back(Wall);
    RoundCpu.push_back(Cpu);
  }
};

/// Quality of the schedules one run produced, counted per op.
struct Quality {
  GeoMean IIOverMII;
  GeoMean MaxLiveOverMinAvg;
  long Decided = 0;     ///< ops whose minimal II is known
  long DecidedOf = 0;   ///< ops the decided share is taken over
  long Certified = 0;   ///< ops whose MaxLive is certified minimal
  long CertifiedOf = 0; ///< ops with a MaxLive to certify
};

/// What one workload run reports.
struct Report {
  /// False when the run could not check its outputs (a crash, a missing
  /// response, a nondeterministic repeat); wrong outputs count in Failed.
  bool Correct = true;
  long Attempted = 0;
  long Failed = 0;
  /// Values by metric name; units live in the metric tables (main.cpp).
  std::map<std::string, double> Values;
  /// Human-readable lines printed above the JSON result.
  std::vector<std::string> Notes;

  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Adds throughput, latency, CPU and memory metrics from \p T.
  void addTiming(const OpTiming &T, double PeakRssMb);
  /// Adds ii_over_mii, maxlive_over_minavg, decided and certified shares.
  void addQuality(const Quality &Q);
};

/// Writes \p Text to \p Path, creating missing directories; false on error.
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
