#include "Bench.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace perfbench;

double perfbench::processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

double perfbench::pidCpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after its ')'.
  const size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream Fields(Text.substr(Close + 2));
  std::string Field;
  // After ')': state is field 3; utime and stime are fields 14 and 15.
  double Ticks = 0;
  for (int I = 3; I <= 15 && (Fields >> Field); ++I)
    if (I == 14 || I == 15)
      Ticks += std::strtod(Field.c_str(), nullptr);
  return Ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double perfbench::peakRssMb(pid_t Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return -1;
}

double perfbench::quantile(std::vector<double> &Samples, double Fraction) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const double Rank = std::ceil(Fraction * static_cast<double>(Samples.size()));
  const size_t Index =
      static_cast<size_t>(std::clamp(Rank, 1.0, double(Samples.size()))) - 1;
  return Samples[Index];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t Mid = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[Mid]
                            : (Samples[Mid - 1] + Samples[Mid]) / 2;
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  lsms::Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

void GeoMean::add(double Ratio) {
  if (Ratio <= 0)
    return;
  LogSum += std::log(Ratio);
  ++N;
}

double GeoMean::value() const { return N ? std::exp(LogSum / double(N)) : 0; }

void Report::addTiming(const OpTiming &T, double PeakRss) {
  const double Ops = static_cast<double>(T.OpUs.size());
  std::vector<double> Us = T.OpUs;
  Values["throughput_per_s"] = T.WallSeconds > 0 ? Ops / T.WallSeconds : 0;
  Values["latency_p50_us"] = quantile(Us, 0.50);
  Values["latency_p99_us"] = quantile(Us, 0.99);
  Values["cpu_us_per_op"] = Ops > 0 ? T.CpuSeconds * 1e6 / Ops : 0;
  Values["peak_rss_mb"] = PeakRss;
  std::ostringstream OS;
  OS << "timed phase: " << T.OpUs.size() << " ops, wall " << T.WallSeconds
     << " s, cpu " << T.CpuSeconds << " s";
  if (T.RoundWall.size() > 1) {
    OS << "; rounds wall/cpu s:";
    for (size_t I = 0; I < T.RoundWall.size(); ++I)
      OS << " " << T.RoundWall[I] << "/" << T.RoundCpu[I];
  }
  note(OS.str());
}

void Report::addQuality(const Quality &Q) {
  Values["ii_over_mii"] = Q.IIOverMII.value();
  Values["maxlive_over_minavg"] = Q.MaxLiveOverMinAvg.value();
  Values["decided_share"] =
      Q.DecidedOf ? double(Q.Decided) / double(Q.DecidedOf) : 0;
  Values["certified_share"] =
      Q.CertifiedOf ? double(Q.Certified) / double(Q.CertifiedOf) : 0;
}

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  const std::filesystem::path Dir = std::filesystem::path(Path).parent_path();
  std::error_code Err;
  if (!Dir.empty())
    std::filesystem::create_directories(Dir, Err);
  if (Err)
    return false;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return static_cast<bool>(Out);
}
