//===----------------------------------------------------------------------===//
/// \file perfbench — the repository benchmark.
///
/// Usage:
///   perfbench --workload paper_suite|serve_mix|prove_mix --seed N
///             --seconds S --trace 0|1 [--smoke] [--server PATH]
///             [--out-dir DIR]
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
/// The last stdout line is one JSON object: correct, attempted, failed and
/// metrics ({"name": {"value": v, "unit": u}}). Lines above it are a
/// human-readable table, the host, and the failures found.
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "service/Json.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unistd.h>

using namespace perfbench;
using lsms::jsonQuote;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// BENCHMARK.json's end_to_end list, in order.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"cpu_us_per_op", "us"},
    {"ii_over_mii", "ratio"},
    {"maxlive_over_minavg", "ratio"},
    {"decided_share", "fraction"},
    {"certified_share", "fraction"},
    {"peak_rss_mb", "MB"},
};

/// BENCHMARK.json's per_layer list, in order. A workload that never calls
/// a layer reports 0 for it.
const MetricDef PerLayer[] = {
    {"frontend.compile_us", "us"},
    {"ir.depgraph_us", "us"},
    {"core.schedule_us", "us"},
    {"core.central_iterations", "count/op"},
    {"core.ejections", "count/op"},
    {"core.placement_yield", "ratio"},
    {"core.validate_us", "us"},
    {"codegen.kernel_us", "us"},
    {"regalloc.regs_over_maxlive", "ratio"},
    {"vliwsim.mismatches", "count"},
    {"vliwsim.check_us", "us"},
    {"service.handle_us", "us"},
    {"service.loopkey_us", "us"},
    {"service.render_us", "us"},
    {"service.front_hit_ratio", "ratio"},
    {"service.sched_hit_ratio", "ratio"},
    {"service.degraded_share", "fraction"},
    {"service.latency_samples_held", "count"},
    {"store.open_ms", "ms"},
    {"store.hits", "count/op"},
    {"store.writes", "count/op"},
    {"net.overhead_us", "us"},
    {"exact.schedule_us", "us"},
    {"exact.maxlive_us", "us"},
    {"exact.bnb_nodes", "count/op"},
    {"exact.ii_attempts", "count/op"},
    {"exact.timeouts", "count"},
    {"sat.conflicts", "count/op"},
    {"sat.propagations", "count/op"},
    {"cgra.map_us", "us"},
    {"cgra.exact_us", "us"},
    {"cgra.sat_conflicts", "count/op"},
    {"spec.lower_us", "us"},
    {"spec.case_us", "us"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "ratio"},
};

void usage() {
  std::cerr << "usage: perfbench --workload paper_suite|serve_mix|prove_mix\n"
               "                 --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--server PATH] [--out-dir DIR]\n";
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      const size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The host and build a result was measured on.
std::string hostJson() {
  std::ostringstream OS;
  OS << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << jsonQuote(cpuModel())
     << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << jsonQuote(compilerName()) << "}";
  return OS.str();
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const bool HasValue = I + 1 < Argc;
    if (Arg == "--smoke") {
      Opts.Smoke = true;
    } else if (!HasValue) {
      return false;
    } else if (Arg == "--workload") {
      Opts.Workload = Argv[++I];
    } else if (Arg == "--seed") {
      char *End = nullptr;
      Opts.Seed = std::strtoull(Argv[++I], &End, 10);
      HaveSeed = *End == '\0';
    } else if (Arg == "--seconds") {
      char *End = nullptr;
      Opts.Seconds = std::strtod(Argv[++I], &End);
      HaveSeconds = *End == '\0' && Opts.Seconds > 0;
    } else if (Arg == "--trace") {
      const std::string V = Argv[++I];
      Opts.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
    } else if (Arg == "--server") {
      Opts.ServerPath = Argv[++I];
    } else if (Arg == "--out-dir") {
      Opts.OutDir = Argv[++I];
    } else {
      return false;
    }
  }
  return HaveSeed && HaveSeconds && HaveTrace &&
         (Opts.Workload == "paper_suite" || Opts.Workload == "serve_mix" ||
          Opts.Workload == "prove_mix");
}

} // namespace

void perfbench::addLayerTimes(Report &R, const Tracer &T, long Ops) {
  const auto Self = T.selfSeconds();
  for (size_t L = 1; L < size_t(Layer::Count); ++L)
    R.Values[std::string(layerName(Layer(L))) + "_us"] =
        Ops ? Self[L] * 1e6 / double(Ops) : 0;
  R.Values["trace.coverage"] = T.coverage();
}

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 2;
  }
  std::error_code Err;
  std::filesystem::create_directories(Opts.OutDir, Err);
  if (Err) {
    std::cerr << "perfbench: cannot create " << Opts.OutDir << "\n";
    return 1;
  }

  const auto Wall0 = Clock::now();
  const double Cpu0 = processCpuSeconds();
  Report R;
  if (Opts.Workload == "paper_suite")
    R = runPaperSuite(Opts);
  else if (Opts.Workload == "serve_mix")
    R = runServeMix(Opts);
  else
    R = runProveMix(Opts);
  const double RunWall = secondsBetween(Wall0, Clock::now());
  const double RunCpu = processCpuSeconds() - Cpu0;
  R.Values["failed_share"] =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 0;

  for (const std::string &Line : R.Notes)
    std::cout << "# " << Line << "\n";
  std::cout << "# host: " << hostJson() << "\n"
            << "# run: workload " << Opts.Workload << ", seed " << Opts.Seed
            << ", trace " << Opts.Trace << ", wall " << RunWall
            << " s, cpu " << RunCpu << " s\n"
            << "# attempted = " << R.Attempted << " count\n"
            << "# failed = " << R.Failed << " count\n"
            << "# failed_share = " << R.Values["failed_share"]
            << " fraction\n";

  std::ostringstream Metrics;
  Metrics.precision(12);
  bool FirstMetric = true;
  const auto emit = [&](const MetricDef &M) {
    double V = R.Values.count(M.Name) ? R.Values[M.Name] : 0;
    if (!std::isfinite(V)) {
      R.Correct = false;
      V = 0;
    }
    std::cout << "# " << M.Name << " = " << V << " " << M.Unit << "\n";
    Metrics << (FirstMetric ? "" : ", ") << jsonQuote(M.Name)
            << ": {\"value\": " << V << ", \"unit\": " << jsonQuote(M.Unit)
            << "}";
    FirstMetric = false;
  };
  if (Opts.Trace) {
    for (const MetricDef &M : PerLayer)
      emit(M);
  } else {
    for (const MetricDef &M : EndToEnd) {
      if (!R.Values.count(M.Name)) {
        R.Correct = false;
        R.note(std::string("missing metric ") + M.Name);
      }
      emit(M);
    }
  }

  std::ostringstream Result;
  Result << "{\"correct\": " << (R.Correct ? "true" : "false")
         << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
         << ", \"metrics\": {" << Metrics.str() << "}}";
  std::ostringstream Record;
  Record << "{\"workload\": " << jsonQuote(Opts.Workload)
         << ", \"seed\": " << Opts.Seed << ", \"trace\": " << Opts.Trace
         << ", \"host\": " << hostJson() << ", \"run_wall_s\": " << RunWall
         << ", \"run_cpu_s\": " << RunCpu << ", \"result\": " << Result.str()
         << "}\n";
  writeFile(Opts.OutDir + "/" + Opts.Workload +
                (Opts.Trace ? "_traced" : "") + "_result.json",
            Record.str());
  std::cout << Result.str() << std::endl;
  return 0;
}
