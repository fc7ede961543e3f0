//===----------------------------------------------------------------------===//
///
/// \file
/// serve_mix: what a server operator sees. The real schedule_server (one
/// IO shard, one worker, a store restarted from a warm log) answers one
/// client connection that keeps a fixed window of requests in flight
/// (closed loop). The seeded request stream mixes
///  - first sightings (frontend, canonical key, slack schedule, store
///    append),
///  - renamed-isomorphic variants of earlier loops (schedule-tier hits
///    through the canonical key),
///  - verbatim repeats (front-cache hits),
///  - loops only the warm log knows (store hits), and
///  - a few budget-bounded portfolio requests with a max_ii.
/// No request carries a deadline_ms, so every response is a pure function
/// of the request stream: each socket response is compared byte for byte
/// with an in-process handleLine replay of the same lines. Failures and
/// quality are scored over a fixed prefix of the stream that every run
/// reaches, so they repeat for a fixed seed however fast the server is.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ServiceBenchCommon.h"
#include "bounds/Lifetimes.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "graph/MinDist.h"
#include "net/JsonlClient.h"
#include "service/Json.h"
#include "service/LoopKey.h"
#include "support/Rng.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <map>
#include <optional>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace lsms;
using namespace perfbench;

namespace {

enum class ReqKind : uint8_t { First, Variant, Repeat, Store, Portfolio };
constexpr int NumKinds = 5;
const char *const KindNames[NumKinds] = {"first", "variant", "repeat",
                                         "store", "portfolio"};
/// Requests of each kind in every block of 100, in ReqKind order. Each
/// block is shuffled by the seed, so every second of the run sees the same
/// mix and only the order within a block varies.
constexpr int KindPerBlock[NumKinds] = {20, 25, 38, 14, 3};
constexpr int BlockSize = 100;

/// Requests the client keeps in flight.
constexpr size_t Window = 16;

/// Seeds the fresh, warm and portfolio loop pools: every run serves the
/// same loops, and --seed only draws the mix.
constexpr uint64_t ServeSeed = 0x19930601;

/// Fixed engine budgets of the server and of every in-process replay:
/// exact requests are bounded by work, never by the clock.
constexpr long NodeBudget = 20000;
constexpr long ConflictBudget = 4000;

struct Request {
  std::string Line;
  ReqKind Kind = ReqKind::First;
  uint32_t Source = 0; ///< index into Stream::Sources
};

struct Stream {
  std::vector<std::string> Sources;
  std::vector<Request> Requests;
  std::vector<std::string> Warm; ///< loops the warm log holds
};

/// Words a rename must keep: the DSL's keywords, plus the loop index and
/// trip-count names every generated loop uses.
bool keepsName(const std::string &W) {
  static const char *const Words[] = {"param", "loop",    "if",   "then",
                                      "else",  "end",     "endif", "endloop",
                                      "sqrt",  "while",   "i",     "n"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

/// Renames every array and parameter of \p Source by appending \p Suffix:
/// an isomorphic loop whose text (and front-cache key) is new.
std::string renameIdentifiers(const std::string &Source,
                              const std::string &Suffix) {
  std::string Out;
  size_t I = 0;
  while (I < Source.size()) {
    const unsigned char C = static_cast<unsigned char>(Source[I]);
    if (std::isalpha(C) || C == '_' || std::isdigit(C)) {
      size_t J = I;
      while (J < Source.size() &&
             (std::isalnum(static_cast<unsigned char>(Source[J])) ||
              Source[J] == '_' || (std::isdigit(C) && Source[J] == '.')))
        ++J;
      const std::string Word = Source.substr(I, J - I);
      Out += Word;
      if (!std::isdigit(C) && !keepsName(Word))
        Out += Suffix;
      I = J;
    } else {
      Out += Source[I++];
    }
  }
  return Out;
}

uint64_t mixSeed(uint64_t Seed, uint64_t Tag) {
  Rng R(Seed ^ (Tag * 0x9E3779B97F4A7C15ULL));
  return R.next();
}

ServiceConfig serviceConfig() {
  ServiceConfig C;
  C.Jobs = 1;
  C.Exact.NodeBudget = NodeBudget;
  C.Exact.SatConflictBudget = ConflictBudget;
  C.Exact.MaxLiveNodeBudget = NodeBudget;
  C.Exact.MaxLiveConflictBudget = ConflictBudget;
  return C;
}

/// Portfolio requests are drawn from loops with at most this MII. The SAT
/// stage's time per conflict grows with the II: under the budgets above a
/// 16-op divider-bound loop at MII 55 takes about 10 s, and one such
/// request would decide every serve_mix figure of the run it lands in.
constexpr int MaxPortfolioMII = 12;

/// A small loop and a max_ii its slack schedule meets, so a portfolio
/// request that exhausts its budget still degrades to an answer.
std::string portfolioLine(uint64_t Seed, const MachineModel &Machine) {
  for (uint64_t Attempt = 0;; ++Attempt) {
    const std::string Source = randomDslSource(Seed + 7919 * Attempt);
    LoopBody Body;
    if (!compileLoop(Source, "portfolio", Body).empty() ||
        Body.numMachineOps() > 16)
      continue;
    const DepGraph Graph(Body, Machine);
    const Schedule S = scheduleLoop(Graph, SchedulerOptions::slack());
    if (!S.Success || S.MII > MaxPortfolioMII)
      continue;
    return "{\"source\":" + jsonQuote(Source) +
           ",\"engine\":\"portfolio\",\"max_ii\":" +
           std::to_string(std::max(S.II, S.MII) + 2) + "}";
  }
}

/// Loops for the warm log: random sources of at most 24 operations, so
/// writing the log stays cheap; a store hit costs the same at any size.
std::vector<std::string> buildWarmPool(size_t Count) {
  std::vector<std::string> Warm;
  const uint64_t Base = mixSeed(ServeSeed, 3);
  for (uint64_t K = 0; Warm.size() < Count; ++K) {
    std::string Source = randomDslSource(Base + K);
    LoopBody Body;
    if (compileLoop(Source, "warm", Body).empty() &&
        Body.numMachineOps() <= 24)
      Warm.push_back(std::move(Source));
  }
  return Warm;
}

/// The request stream. The loops come from ServeSeed, in a fixed order;
/// \p Seed draws the mix (which kind each request is, and which earlier
/// loop a variant or repeat picks).
Stream buildStream(uint64_t Seed, size_t Length,
                   std::vector<std::string> Warm) {
  Stream S;
  S.Warm = std::move(Warm);
  Rng R(mixSeed(Seed, 1));
  const MachineModel Machine = MachineModel::cydra5();
  const uint64_t FreshBase = mixSeed(ServeSeed, 2),
                 PortfolioBase = mixSeed(ServeSeed, 4);

  // The kernels come first among the fresh loops.
  std::vector<std::string> Kernels;
  for (const NamedKernel &K : kernelSources())
    Kernels.push_back(K.Source);
  size_t NextFresh = 0, NextWarm = 0, NextPortfolio = 0, NextVariant = 0;

  std::vector<uint32_t> Firsts;  // sources of first sightings
  std::vector<uint32_t> History; // requests a repeat may copy
  const auto addSource = [&](std::string Text) {
    S.Sources.push_back(std::move(Text));
    return static_cast<uint32_t>(S.Sources.size() - 1);
  };
  const auto pickRecent = [&](const std::vector<uint32_t> &From,
                              size_t Recent) {
    const size_t N = std::min(From.size(), Recent);
    return From[From.size() - 1 - R.nextBelow(N)];
  };

  std::vector<ReqKind> Block;
  for (int K = 0; K < NumKinds; ++K)
    Block.insert(Block.end(), size_t(KindPerBlock[K]), ReqKind(K));
  S.Requests.reserve(Length);
  while (S.Requests.size() < Length) {
    const size_t Slot = S.Requests.size() % BlockSize;
    if (Slot == 0)
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[R.nextBelow(I)]);
    ReqKind Kind = Block[Slot];
    if ((Kind == ReqKind::Variant && Firsts.empty()) ||
        (Kind == ReqKind::Repeat && History.empty()) ||
        (Kind == ReqKind::Store && NextWarm == S.Warm.size()))
      Kind = ReqKind::First;

    Request Req;
    Req.Kind = Kind;
    switch (Kind) {
    case ReqKind::First:
      Req.Source = addSource(NextFresh < Kernels.size()
                                 ? Kernels[NextFresh]
                                 : randomDslSource(FreshBase + NextFresh));
      ++NextFresh;
      Firsts.push_back(Req.Source);
      Req.Line = renderRequestLine(S.Sources[Req.Source], "slack");
      break;
    case ReqKind::Variant:
      Req.Source = addSource(
          renameIdentifiers(S.Sources[pickRecent(Firsts, 2048)],
                            "_v" + std::to_string(NextVariant++)));
      Req.Line = renderRequestLine(S.Sources[Req.Source], "slack");
      break;
    case ReqKind::Repeat:
      Req = S.Requests[pickRecent(History, 1024)];
      Req.Kind = ReqKind::Repeat;
      break;
    case ReqKind::Store:
      Req.Source = addSource(S.Warm[NextWarm++]);
      Req.Line = renderRequestLine(S.Sources[Req.Source], "slack");
      break;
    case ReqKind::Portfolio:
      Req.Line = portfolioLine(PortfolioBase + 104729 * NextPortfolio++,
                               Machine);
      {
        ServiceRequest Parsed;
        std::string Err;
        SchedulingService::parseRequestLine(Req.Line, Parsed, Err);
        Req.Source = addSource(Parsed.Source);
      }
      break;
    }
    History.push_back(static_cast<uint32_t>(S.Requests.size()));
    S.Requests.push_back(std::move(Req));
  }
  return S;
}

/// One schedule_server child process.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Starts the server on \p StorePath and waits until it answers a
  /// metrics probe. Returns false with a diagnostic on failure.
  bool start(const std::string &Binary, const std::string &StorePath,
             const std::string &LogPath, std::string &Err) {
    std::vector<std::string> Args = {
        Binary,
        "--port=0",
        "--io-shards=1",
        "--workers=1",
        "--jobs=1",
        "--idle-timeout-ms=-1",
        "--print-port",
        "--store=" + StorePath,
        "--node-budget=" + std::to_string(NodeBudget),
        "--sat-conflict-budget=" + std::to_string(ConflictBudget),
        "--maxlive-node-budget=" + std::to_string(NodeBudget),
        "--maxlive-conflict-budget=" + std::to_string(ConflictBudget)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);

    int Pipe[2];
    if (pipe(Pipe) != 0) {
      Err = "pipe failed";
      return false;
    }
    const int Log = open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    Pid = fork();
    if (Pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(Pipe[1], STDOUT_FILENO);
      if (Log >= 0)
        dup2(Log, STDERR_FILENO);
      close(Pipe[0]);
      close(Pipe[1]);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    close(Pipe[1]);
    if (Log >= 0)
      close(Log);
    if (Pid < 0) {
      close(Pipe[0]);
      Err = "fork failed";
      return false;
    }
    std::string PortText;
    char C = 0;
    pollfd P{Pipe[0], POLLIN, 0};
    while (poll(&P, 1, 60000) > 0 && read(Pipe[0], &C, 1) == 1 && C != '\n')
      PortText += C;
    close(Pipe[0]);
    Port = static_cast<uint16_t>(std::atoi(PortText.c_str()));
    if (Port == 0) {
      Err = "server did not report a port (see " + LogPath + ")";
      return false;
    }
    JsonlClient Probe;
    std::string Reply;
    if (!Probe.connect("127.0.0.1", Port, Err) ||
        !Probe.sendLine("{\"cmd\":\"metrics\"}", Err) ||
        !Probe.recvLine(Reply, Err) || Reply.rfind("{", 0) != 0) {
      Err = "metrics probe failed: " + Err;
      return false;
    }
    return true;
  }

  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    for (int I = 0; I < 300; ++I) {
      if (waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  pid_t pid() const { return Pid; }
  uint16_t port() const { return Port; }

private:
  pid_t Pid = -1;
  uint16_t Port = 0;
};

/// What came back over the socket.
struct SocketRun {
  std::vector<std::string> Responses;
  OpTiming Timing; ///< the whole timed phase as one round
  /// Server CPU seconds in each 1 s window; a window well below 1 s of CPU
  /// means the server sat waiting (host stalls show here).
  std::vector<double> WindowCpu;
  /// The server's VmHWM once the scored prefix is answered. How far past
  /// the prefix a run gets depends on its speed, and every request adds to
  /// the caches, so a later reading would grow with throughput.
  double PeakRssMb = -1;
  std::string Error;
};

/// Keeps the window full until \p Seconds have passed and at least the
/// first \p Scored requests were sent, then collects the rest.
SocketRun drive(const ServerProcess &Server, const Stream &S, double Seconds,
                size_t Scored) {
  SocketRun Run;
  JsonlClient Client;
  if (!Client.connect("127.0.0.1", Server.port(), Run.Error))
    return Run;
  std::vector<Clock::time_point> SentAt(S.Requests.size());
  size_t Sent = 0;
  const double Cpu0 = pidCpuSeconds(Server.pid());
  const auto Start = Clock::now();
  const auto Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  const auto WindowLength = std::chrono::seconds(1);
  auto WindowStart = Start;
  double WindowCpu = Cpu0;
  const auto send = [&]() {
    SentAt[Sent] = Clock::now();
    return Client.sendLine(S.Requests[Sent++].Line, Run.Error);
  };
  while (Sent < Window && Sent < S.Requests.size())
    if (!send())
      return Run;
  std::string Line;
  while (Run.Responses.size() < Sent) {
    if (!Client.recvLine(Line, Run.Error)) {
      if (Run.Error.empty())
        Run.Error = "server closed the connection";
      return Run;
    }
    const auto Now = Clock::now();
    Run.Timing.OpUs.push_back(microsBetween(SentAt[Run.Responses.size()], Now));
    Run.Responses.push_back(Line);
    if (Run.Responses.size() == Scored)
      Run.PeakRssMb = peakRssMb(Server.pid());
    if (Now - WindowStart >= WindowLength) {
      const double Cpu = pidCpuSeconds(Server.pid());
      Run.WindowCpu.push_back(Cpu - WindowCpu);
      WindowStart = Now;
      WindowCpu = Cpu;
    }
    if (Sent < S.Requests.size() && (Now < Deadline || Sent < Scored) &&
        !send())
      return Run;
  }
  Run.Timing.addRound(secondsBetween(Start, Clock::now()),
                      pidCpuSeconds(Server.pid()) - Cpu0);
  return Run;
}

/// Copies the warm log to a fresh store path.
std::string freshStore(const std::string &Dir, const std::string &Warm,
                       const std::string &Name) {
  const std::string Path = Dir + "/" + Name;
  std::filesystem::copy_file(Warm, Path,
                             std::filesystem::copy_options::overwrite_existing);
  return Path;
}

/// MinAvg of \p Source's loop at \p II (-1 when II is below RecMII).
long minAvgAt(const std::string &Source, int II, const MachineModel &Machine) {
  LoopBody Body;
  if (!compileLoop(Source, "check", Body).empty())
    return -1;
  const DepGraph Graph(Body, Machine);
  MinDistMatrix MinDist;
  return MinDist.compute(Graph, II) ? computeMinAvg(Graph, MinDist) : -1;
}

/// Engine work done by runStages over the scored prefix.
struct StageCounters {
  long CentralIterations = 0, Ejections = 0, Placements = 0, PlacedOps = 0;
  long Nodes = 0, IIAttempts = 0, Timeouts = 0, Conflicts = 0,
       Propagations = 0;
};

/// Calls the service's stage functions on one request line, each under
/// its layer's span, and accumulates the engines' work counters.
void runStages(const std::string &Line, const ServiceConfig &Config,
               Tracer &T, StageCounters &Count) {
  ServiceRequest Req;
  std::string Err;
  {
    const Scope S(T, Layer::ServiceParse);
    if (!SchedulingService::parseRequestLine(Line, Req, Err))
      return;
  }
  LoopBody Body;
  {
    const Scope S(T, Layer::FrontendCompile);
    Err = compileLoop(Req.Source, "inline", Body);
  }
  if (!Err.empty())
    return;
  LoopBody Canon;
  {
    const Scope S(T, Layer::ServiceLoopKey);
    const LoopKey Key = canonicalLoopKey(Body);
    Canon = canonicalLoopBody(Body, Key);
  }
  std::optional<DepGraph> Graph;
  {
    const Scope S(T, Layer::IrDepGraph);
    Graph.emplace(Canon, Config.Machine);
  }
  SchedulerOptions SO = Config.Slack;
  ExactOptions EO = Config.Exact;
  EO.Engine = ExactEngineKind::Portfolio;
  if (Req.MaxII > 0) {
    SO.IICap.MaxIIFactor = EO.IICap.MaxIIFactor = 0;
    SO.IICap.MaxIISlack = EO.IICap.MaxIISlack = Req.MaxII;
  }
  Schedule Sched;
  {
    const Scope S(T, Layer::CoreSchedule);
    Sched = scheduleLoop(*Graph, SO);
  }
  Count.CentralIterations += Sched.Stats.CentralLoopIterations;
  Count.Ejections += Sched.Stats.Ejections;
  Count.Placements += Sched.Stats.Placements;
  if (Sched.Success)
    Count.PlacedOps += Canon.numMachineOps();
  if (Req.Engine != ServiceEngine::Slack) {
    ExactResult Ex;
    {
      const Scope S(T, Layer::ExactSchedule);
      Ex = scheduleLoopExact(*Graph, EO);
    }
    Count.Nodes += Ex.EngineStats.Nodes;
    Count.IIAttempts += Ex.IIAttempts;
    Count.Timeouts += Ex.Status == ExactStatus::Timeout;
    Count.Conflicts += Ex.EngineStats.Conflicts;
    Count.Propagations += Ex.EngineStats.Propagations;
  }
  if (Sched.Success) {
    const Scope S(T, Layer::CoreValidate);
    validateSchedule(*Graph, Sched);
  }
}

} // namespace

Report perfbench::runServeMix(const Options &Opts) {
  Report R;
  if (Opts.ServerPath.empty() || access(Opts.ServerPath.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "serve_mix needs --server <schedule_server>\n");
    std::exit(2);
  }
  // Stream length: on a 4-core Xeon VM today's rate ran 2.9k-5.1k
  // requests/s as the host's speed swung; this leaves room for a server
  // twice as fast. A run whose stream runs out ends early.
  const size_t Length = Opts.Smoke ? 2000
                                   : static_cast<size_t>(Opts.Seconds * 10000);
  // The scored prefix: every run sends at least these requests, and only
  // they count in attempted, failed and the quality metrics. A traced run
  // replays the same lines under spans.
  const size_t Scored = Opts.Smoke ? 1500 : 30000;
  const size_t StreamLength = std::max(Length, Scored);
  const size_t WarmCount =
      StreamLength * KindPerBlock[int(ReqKind::Store)] / BlockSize + 16;
  const std::string Dir = Opts.OutDir + "/serve_mix_tmp";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string WarmPath = Dir + "/warm.log";
  const std::string LogPath = Opts.OutDir + "/serve_mix_server.log";
  std::filesystem::remove(LogPath);
  const ServiceConfig Config = serviceConfig();

  // Set-up, part 1: the warm loops and the request stream. Writing the
  // warm log in between is input preparation, not set-up: a restarted
  // server finds the log already on disk.
  auto T0 = Clock::now();
  std::vector<std::string> Warm = buildWarmPool(WarmCount);
  double StreamSeconds = secondsBetween(T0, Clock::now());

  // The warm log: every warm loop answered once by a store-backed service;
  // a loop the service cannot schedule is left out of the pool.
  T0 = Clock::now();
  {
    ServiceConfig C = Config;
    C.StorePath = WarmPath;
    SchedulingService Writer(C);
    std::vector<std::string> Kept;
    for (size_t K = 0; K < Warm.size(); ++K)
      if (Writer.handleLine(renderRequestLine(Warm[K], "slack"), int(K)).Ok)
        Kept.push_back(std::move(Warm[K]));
    Warm = std::move(Kept);
  }
  const double WarmSeconds = secondsBetween(T0, Clock::now());

  T0 = Clock::now();
  const Stream S = buildStream(Opts.Seed, StreamLength, std::move(Warm));
  StreamSeconds += secondsBetween(T0, Clock::now());
  R.note("stream: " + std::to_string(S.Requests.size()) + " requests, " +
         std::to_string(S.Sources.size()) + " sources, built in " +
         std::to_string(StreamSeconds) + " s; warm log: " +
         std::to_string(S.Warm.size()) + " loops, written in " +
         std::to_string(WarmSeconds) + " s");

  // Set-up, part 2: SetupRepeats server starts from the warm log; the last
  // one serves the timed run.
  std::vector<double> StartS;
  ServerProcess Server;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Server.stop();
    const std::string Store =
        freshStore(Dir, WarmPath, "store" + std::to_string(Rep) + ".log");
    std::string Err;
    T0 = Clock::now();
    if (!Server.start(Opts.ServerPath, Store, LogPath, Err)) {
      Server.stop();
      std::fprintf(stderr, "serve_mix: %s\n", Err.c_str());
      std::exit(1);
    }
    StartS.push_back(secondsBetween(T0, Clock::now()));
  }
  R.Values["setup_s"] = StreamSeconds + median(StartS);

  SocketRun Run = drive(Server, S, Opts.Seconds, Scored);
  Server.stop();
  if (!Run.Error.empty()) {
    R.Correct = false;
    R.note("socket: " + Run.Error);
  }
  std::string Windows = "server cpu s per 1 s window:";
  for (const double Cpu : Run.WindowCpu)
    Windows += " " + std::to_string(Cpu).substr(0, 4);
  R.note(Windows);
  const size_t Got = Run.Responses.size();
  R.note("socket: " + std::to_string(Got) + " responses" +
         (Got == S.Requests.size() ? " (the stream ran out before --seconds)"
                                   : ""));
  if (Got) {
    const auto Slowest =
        std::max_element(Run.Timing.OpUs.begin(), Run.Timing.OpUs.end());
    const size_t K = size_t(Slowest - Run.Timing.OpUs.begin());
    R.note("slowest response: request " + std::to_string(K) + " (" +
           KindNames[int(S.Requests[K].Kind)] + "), " +
           std::to_string(*Slowest / 1000) + " ms");
  }

  // Reference: the same lines through an in-process service with the same
  // configuration and warm log. A traced run also replays the scored
  // prefix through a second such service under spans, calling the
  // service's stage functions on each line too. The two replays are
  // interleaved line by line, so drift in the host's speed hits both sides
  // of trace.overhead alike; the traced counts come from that fixed prefix
  // and repeat exactly.
  const size_t N0 = Opts.Trace ? Scored : 0;
  Tracer On(true);
  StageCounters Count;
  double TracedHandleUs = 0, UntracedHandleUs = 0, AllHandleUs = 0;
  long ExactRequests = 0, Degraded = 0;
  Quality Q;
  std::vector<double> HandleUs;
  std::map<std::pair<uint32_t, int>, long> MinAvgCache;
  long KindCount[NumKinds] = {}, KindFailed[NumKinds] = {};
  double KindUs[NumKinds] = {};
  // Responses after the scored prefix: how many, how many were errors, and
  // how many differ from the in-process bytes.
  long Later = 0, LaterErrors = 0, LaterMismatches = 0;
  {
    ServiceConfig C = Config;
    C.StorePath = freshStore(Dir, WarmPath, "reference.log");
    SchedulingService Ref(C);
    std::optional<SchedulingService> Traced;
    if (Opts.Trace) {
      ServiceConfig TC = Config;
      TC.StorePath = freshStore(Dir, WarmPath, "traced.log");
      Traced.emplace(TC);
    }
    R.Attempted = static_cast<long>(Scored);
    for (size_t K = 0; K < std::max(Got, N0); ++K) {
      const Request &Req = S.Requests[K];
      if (K < N0) {
        const Scope OpSpan(On, Layer::Op);
        ServiceResponse Resp;
        const auto H0 = Clock::now();
        {
          const Scope Span(On, Layer::ServiceHandle);
          Resp = Traced->handleLine(Req.Line, int(K));
        }
        TracedHandleUs += microsBetween(H0, Clock::now());
        if (Resp.Engine != ServiceEngine::Slack) {
          ++ExactRequests;
          Degraded += Resp.Degraded;
        }
        runStages(Req.Line, C, On, Count);
        const Scope Span(On, Layer::ServiceRender);
        Resp.toJsonl();
      }
      if (K >= Got)
        continue;
      const auto H0 = Clock::now();
      const ServiceResponse Resp = Ref.handleLine(Req.Line, int(K));
      HandleUs.push_back(microsBetween(H0, Clock::now()));
      AllHandleUs += HandleUs.back();
      if (K < N0)
        UntracedHandleUs += HandleUs.back();
      ++KindCount[int(Req.Kind)];
      KindUs[int(Req.Kind)] += HandleUs.back();
      const bool Mismatch = Resp.toJsonl() != Run.Responses[K];
      if (K >= Scored) {
        // How far a run gets depends on its speed, so these responses are
        // checked but not scored; a byte mismatch still fails the run.
        ++Later;
        LaterErrors += !Resp.Ok;
        LaterMismatches += Mismatch;
        continue;
      }
      std::string Why;
      if (!Resp.Ok)
        Why = "error response: " + Resp.Error;
      else if (Mismatch)
        Why = "socket response differs from in-process handleLine";
      if (!Why.empty()) {
        ++R.Failed;
        ++KindFailed[int(Req.Kind)];
        if (R.Failed <= 20)
          R.note("failed request " + std::to_string(K) + " (" +
                 KindNames[int(Req.Kind)] + "): " + Why);
        continue;
      }
      Q.IIOverMII.add(double(Resp.II) / double(Resp.MII));
      ++Q.DecidedOf;
      const bool ExactAnswer = Resp.Engine != ServiceEngine::Slack &&
                               !Resp.Degraded &&
                               Resp.ExactVerdict == ExactStatus::Optimal;
      Q.Decided += Resp.II == Resp.MII || ExactAnswer;
      auto [It, Inserted] = MinAvgCache.try_emplace({Req.Source, Resp.II}, 0);
      if (Inserted)
        It->second = minAvgAt(S.Sources[Req.Source], Resp.II, C.Machine);
      const long MinAvg = It->second;
      ++Q.CertifiedOf;
      Q.Certified += Resp.MaxLiveProven || Resp.MaxLive == MinAvg;
      if (MinAvg > 0)
        Q.MaxLiveOverMinAvg.add(double(Resp.MaxLive) / double(MinAvg));
    }
    if (Traced) {
      const CacheStats Front = Traced->frontCacheStats(),
                       Sched = Traced->cacheStats();
      R.Values["service.front_hit_ratio"] =
          double(Front.Hits) / double(std::max(1L, Front.Hits + Front.Misses));
      R.Values["service.sched_hit_ratio"] =
          double(Sched.Hits) / double(std::max(1L, Sched.Hits + Sched.Misses));
      R.Values["service.latency_samples_held"] =
          double(Traced->metrics().observations("request_latency_us"));
      R.Values["store.hits"] =
          double(Traced->metrics().counter("store_hits")) / double(N0);
      R.Values["store.writes"] =
          double(Traced->metrics().counter("store_writes")) / double(N0);
    }
  }
  std::string Mix = "mix:";
  for (int K = 0; K < NumKinds; ++K)
    Mix += std::string(" ") + KindNames[K] + " " + std::to_string(KindCount[K]) +
           " (" + std::to_string(long(KindUs[K] / std::max(1L, KindCount[K]))) +
           " us)" +
           (KindFailed[K] ? " (" + std::to_string(KindFailed[K]) + " failed)"
                          : "");
  R.note(Mix);
  R.note("after the scored prefix of " + std::to_string(Scored) + ": " +
         std::to_string(Later) + " responses checked, not scored; " +
         std::to_string(LaterErrors) + " errors, " +
         std::to_string(LaterMismatches) + " byte mismatches");
  if (LaterMismatches)
    R.Correct = false;
  if (!HandleUs.empty()) {
    const size_t K = size_t(std::max_element(HandleUs.begin(), HandleUs.end()) -
                            HandleUs.begin());
    R.note("slowest handleLine: request " + std::to_string(K) + " (" +
           KindNames[int(S.Requests[K].Kind)] + "), " +
           std::to_string(HandleUs[K] / 1000) + " ms");
    writeFile(Opts.OutDir + "/serve_mix_slowest.jsonl", S.Requests[K].Line + "\n");
  }
  if (Got < Scored) {
    R.Correct = false;
    return R;
  }

  if (!Opts.Trace) {
    R.addTiming(Run.Timing, Run.PeakRssMb);
    R.addQuality(Q);
    std::filesystem::remove_all(Dir);
    return R;
  }

  {
    const std::string OpenPath = freshStore(Dir, WarmPath, "open.log");
    ScheduleStore Probe;
    std::string Err;
    T0 = Clock::now();
    Probe.open(OpenPath, Err);
    R.Values["store.open_ms"] = secondsBetween(T0, Clock::now()) * 1e3;
  }
  addLayerTimes(R, On, static_cast<long>(N0));
  const double Ops = double(N0);
  R.Values["service.degraded_share"] =
      ExactRequests ? double(Degraded) / double(ExactRequests) : 0;
  R.Values["core.central_iterations"] = double(Count.CentralIterations) / Ops;
  R.Values["core.ejections"] = double(Count.Ejections) / Ops;
  R.Values["core.placement_yield"] =
      Count.Placements ? double(Count.PlacedOps) / double(Count.Placements) : 0;
  R.Values["exact.bnb_nodes"] = double(Count.Nodes) / Ops;
  R.Values["exact.ii_attempts"] = double(Count.IIAttempts) / Ops;
  R.Values["exact.timeouts"] = double(Count.Timeouts);
  R.Values["sat.conflicts"] = double(Count.Conflicts) / Ops;
  R.Values["sat.propagations"] = double(Count.Propagations) / Ops;
  R.Values["net.overhead_us"] =
      Run.Timing.WallSeconds * 1e6 / double(Got) - AllHandleUs / double(Got);
  R.Values["trace.overhead"] =
      (TracedHandleUs / Ops) /
      (UntracedHandleUs / double(std::max<size_t>(1, std::min(N0, Got))));
  On.write(Opts.OutDir + "/serve_mix_spans.tsv");
  std::filesystem::remove_all(Dir);
  return R;
}
