//===----------------------------------------------------------------------===//
/// \file schedule_server — the scheduling service behind a TCP socket:
/// an epoll front end (net/EpollServer.h) multiplexing JSONL request
/// connections onto the service's deterministic workers, with an
/// optional persistent schedule store so warm state survives restarts.
///
/// The wire protocol is the JSONL pipe, verbatim: one request per line,
/// one response line per request, in order, byte-identical to what
/// `schedule_service` prints for the same lines (service/Protocol.h
/// documents the v1 line shapes). `{"cmd":"metrics"}` returns server +
/// service metrics as one JSON line.
///
/// Scaling: --io-shards=N runs N SO_REUSEPORT-sharded IO event loops over
/// one set of --jobs=N workers (--workers=N is another spelling of it; the
/// two must agree when both are given). Under overload, requests degrade
/// down the tier ladder (exact -> slack -> cached) before anything is
/// shed; --slack-queue and --no-cached-fallback tune the ladder.
///
/// SIGTERM/SIGINT drain gracefully: the listener closes, in-flight and
/// already-connected work completes, then the process exits 0.
///
/// Usage:
///   schedule_server [--port=N] [--bind=ADDR] [--jobs=N] [--workers=N]
///                   [--io-shards=N] [--store=PATH]
///                   [--engine=slack|bnb|sat|portfolio]
///                   [--max-queue=N] [--slack-queue=N]
///                   [--no-cached-fallback] [--max-conns=N]
///                   [--idle-timeout-ms=N] [--drain-timeout-ms=N]
///                   [--node-budget=N] [--sat-conflict-budget=N]
///                   [--maxlive-node-budget=N]
///                   [--maxlive-conflict-budget=N]
///                   [--enable-test-commands] [--print-port] [--metrics]
///   --port=0 (default) binds an ephemeral port; --print-port writes the
///   bound port as a single line on stdout so scripts can connect.
///   Idle connections close after 60 s by default (--idle-timeout-ms=-1
///   disables the deadline; the embedded-server default is disabled, the
///   deployment default here is not).
///   Every N is a whole decimal integer in its flag's range (--io-shards
///   and --max-conns at least 1, --idle-timeout-ms any, the rest at least
///   0); anything else prints the usage line and exits 2.
//===----------------------------------------------------------------------===//

#include "net/EpollServer.h"
#include "service/EngineFlag.h"

#include <algorithm>
#include <csignal>
#include <iostream>
#include <limits>

using namespace lsms;

namespace {

EpollServer *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop(); // async-signal-safe
}

void usage() {
  std::cerr
      << "usage: schedule_server [--port=N] [--bind=ADDR] [--jobs=N]\n"
         "                       [--workers=N] [--io-shards=N]\n"
         "                       [--store=PATH]\n"
         "                       [--engine=" << engineFlagChoices(true, false)
      << "]\n"
         "                       [--max-queue=N] [--slack-queue=N]\n"
         "                       [--no-cached-fallback] [--max-conns=N]\n"
         "                       [--idle-timeout-ms=N]\n"
         "                       [--drain-timeout-ms=N]\n"
         "                       [--node-budget=N] [--sat-conflict-budget=N]\n"
         "                       [--maxlive-node-budget=N]\n"
         "                       [--maxlive-conflict-budget=N]\n"
         "                       [--enable-test-commands] [--print-port]\n"
         "                       [--metrics]\n"
         "Serves JSONL scheduling requests over TCP. SIGTERM drains\n"
         "gracefully. --store persists schedules across restarts.\n"
         "--workers=N is another spelling of --jobs=N.\n"
         "--io-shards runs N SO_REUSEPORT IO loops; under overload the\n"
         "tier ladder degrades exact->slack->cached before shedding.\n";
}

} // namespace

int main(int Argc, char **Argv) {
  ServiceConfig Service;
  ServerConfig Server;
  // Deployment default: reap idle connections after a minute. The
  // embedded ServerConfig default stays -1 (disabled) so tests and
  // short-lived harnesses never race a reaper they did not ask for.
  Server.IdleTimeoutMs = 60000;
  std::string EngineName;
  bool PrintPort = false;
  bool PrintMetrics = false;

  int Jobs = -1, Workers = -1; // -1: not given
  bool BadNumber = false;
  // Reads --<flag>=N into Out when Arg is that flag; N must be a whole
  // decimal integer of Out's type, at least Min.
  const auto number = [&BadNumber](const std::string &Arg,
                                   std::string_view Flag, auto &Out,
                                   auto Min) {
    if (Arg.rfind(Flag, 0) != 0)
      return false;
    auto N = Out;
    if (parseWholeInteger(std::string_view(Arg).substr(Flag.size()), N) &&
        N >= Min)
      Out = N;
    else
      BadNumber = true;
    return true;
  };

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (number(Arg, "--port=", Server.Port, 0) ||
        number(Arg, "--jobs=", Jobs, 0) ||
        number(Arg, "--workers=", Workers, 0) ||
        number(Arg, "--io-shards=", Server.IoShards, 1) ||
        number(Arg, "--max-queue=", Server.MaxQueueDepth, size_t{0}) ||
        number(Arg, "--slack-queue=", Server.SlackQueueDepth, size_t{0}) ||
        number(Arg, "--max-conns=", Server.MaxConnections, 1) ||
        number(Arg, "--idle-timeout-ms=", Server.IdleTimeoutMs,
               std::numeric_limits<long>::min()) ||
        number(Arg, "--drain-timeout-ms=", Server.DrainTimeoutMs, 0L)) {
      if (BadNumber) {
        usage();
        return 2;
      }
    } else if (Arg.rfind("--bind=", 0) == 0) {
      Server.BindAddress = Arg.substr(7);
    } else if (Arg.rfind("--store=", 0) == 0) {
      Service.StorePath = Arg.substr(8);
    } else if (Arg.rfind("--engine=", 0) == 0) {
      EngineName = Arg.substr(9);
    } else if (Arg == "--no-cached-fallback") {
      Server.CachedFallback = false;
    } else if (applyExactBudgetFlag(Arg, Service.Exact)) {
      // parsed an exact-budget knob
    } else if (Arg == "--enable-test-commands") {
      Server.EnableTestCommands = true;
    } else if (Arg == "--print-port") {
      PrintPort = true;
    } else if (Arg == "--metrics") {
      PrintMetrics = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  // --workers is another spelling of --jobs: the server has one job count.
  if (Jobs >= 0 && Workers >= 0 && Jobs != Workers) {
    usage();
    return 2;
  }
  Service.Jobs = std::max({Jobs, Workers, 0});
  if (!EngineName.empty()) {
    EngineSelection Sel;
    std::string EngineErr;
    if (!parseEngineSelection(EngineName, /*AllowSlack=*/true,
                              /*AllowAll=*/false, Sel, EngineErr)) {
      std::cerr << "schedule_server: " << EngineErr << "\n";
      return 2;
    }
    Server.DefaultEngine = Sel.Service;
  }

  SchedulingService Svc(Service);
  if (!Service.StorePath.empty() && !Svc.storeOpen()) {
    std::cerr << "schedule_server: store disabled: " << Svc.storeError()
              << "\n";
  } else if (Svc.storeOpen()) {
    std::cerr << "schedule_server: store '" << Service.StorePath << "' ("
              << Svc.storeStats().RecoveredRecords << " records recovered)\n";
  }

  EpollServer Srv(Svc, Server);
  std::string Err;
  if (!Srv.start(Err)) {
    std::cerr << "schedule_server: " << Err << "\n";
    return 1;
  }
  ActiveServer = &Srv;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "schedule_server: listening on " << Server.BindAddress << ":"
            << Srv.port() << " (" << Svc.jobs() << " workers)\n";
  if (PrintPort) {
    std::cout << Srv.port() << std::endl; // endl: scripts read one line
  }

  Srv.serve(); // returns after a signal-initiated drain

  // Every admitted request was answered before serve() returned; drain
  // the service too so the store closes with all writes applied.
  Svc.drain();
  if (PrintMetrics)
    std::cerr << Svc.metricsJson();
  std::cerr << "schedule_server: drained cleanly ("
            << Svc.metrics().counter("net_responses") << " responses, "
            << Svc.metrics().counter("net_shed") << " shed)\n";
  return 0;
}
