//===----------------------------------------------------------------------===//
/// Loopback integration tests for the epoll front end (net/EpollServer.h):
/// byte-identity of the socket path against the JSONL pipe, pipelined and
/// concurrent clients with strict per-connection response ordering,
/// overload shedding under a bounded admission queue, the tiered overload
/// ladder (exact -> slack -> cached -> shed), SO_REUSEPORT IO sharding,
/// the metrics control command, graceful drain of in-flight work,
/// connection-cap rejection, warm restarts answering from the persistent
/// store, and the one job count (the server starts the service's jobs()
/// workers; the service starts none).
//===----------------------------------------------------------------------===//

#include "net/EpollServer.h"
#include "net/JsonlClient.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lsms;

namespace {

/// A service + server + IO thread with scoped lifetime.
struct TestServer {
  SchedulingService Svc;
  EpollServer Srv;
  std::thread IO;

  explicit TestServer(ServiceConfig SC = ServiceConfig(),
                      ServerConfig NC = ServerConfig())
      : Svc(std::move(SC)), Srv(Svc, std::move(NC)) {
    std::string Err;
    EXPECT_TRUE(Srv.start(Err)) << Err;
    IO = std::thread([this] { Srv.serve(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (IO.joinable()) {
      Srv.requestStop();
      IO.join();
    }
  }
  uint16_t port() const { return Srv.port(); }
};

JsonlClient connectTo(const TestServer &Server) {
  JsonlClient Client;
  std::string Err;
  EXPECT_TRUE(Client.connect("127.0.0.1", Server.port(), Err)) << Err;
  return Client;
}

/// Sends every line pipelined, half-closes, and returns the full response
/// stream (one string, newline-terminated lines) up to the server's EOF.
std::string roundTrip(const TestServer &Server,
                      const std::string &RequestBytes) {
  JsonlClient Client = connectTo(Server);
  std::string Err;
  EXPECT_TRUE(Client.sendRaw(RequestBytes, Err)) << Err;
  Client.shutdownWrite();
  std::string Stream, Line;
  while (Client.recvLine(Line, Err))
    Stream += Line + "\n";
  EXPECT_TRUE(Err.empty()) << Err;
  return Stream;
}

/// Threads in this process, counted in /proc/self/task.
long threadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

std::string requestCorpus() {
  std::ostringstream OS;
  OS << "{\"kernel\": \"ll1_hydro\", \"engine\": \"bnb\"}\n"
     << "# a comment the framing must skip\n"
     << "{\"kernel\": \"daxpy\"}\n"
     << "\n"
     << "{\"source\": \"loop i = 2, n\\n  x[i] = x[i-1] * 0.5 + u[i]\\nend\", "
        "\"emit_times\": true}\n"
     << "{\"kernel\": \"no_such_kernel\"}\n"
     << "{\"this is\": not json\n"
     << "{\"kernel\": \"ll5_tridiag\", \"engine\": \"sat\", \"id\": \"t1\"}\n";
  return OS.str();
}

} // namespace

TEST(NetServer, ByteIdenticalWithJsonlPipe) {
  const std::string Requests = requestCorpus();

  // Reference: the stdin pipe on an identically configured service.
  ServiceConfig SC;
  SC.Jobs = 2;
  std::string Expected;
  {
    SchedulingService Pipe(SC);
    std::istringstream In(Requests);
    std::ostringstream Out;
    Pipe.processJsonl(In, Out);
    Expected = Out.str();
  }
  ASSERT_FALSE(Expected.empty());

  TestServer Server(SC);
  EXPECT_EQ(roundTrip(Server, Requests), Expected);
  // And again on the same (now warm) server: replays are bit-exact too.
  EXPECT_EQ(roundTrip(Server, Requests), Expected);
}

// One job count: the service starts no thread, and the server starts
// exactly the service's jobs() workers.
TEST(NetServer, StartAddsOneWorkerPerServiceJob) {
  const long Before = threadCount();
  ServiceConfig SC;
  SC.Jobs = 3;
  SchedulingService Svc(SC);
  EXPECT_EQ(threadCount(), Before);
  EpollServer Srv(Svc);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  EXPECT_EQ(threadCount(), Before + 3);
}

TEST(NetServer, ConcurrentClientsGetOrderedResponses) {
  ServiceConfig SC;
  SC.Jobs = 4;
  TestServer Server(SC);

  constexpr int NumClients = 8, PerClient = 20;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < NumClients; ++C) {
    Clients.emplace_back([&Server, &Failures, C] {
      std::string Batch;
      for (int I = 0; I < PerClient; ++I)
        Batch += "{\"source\": \"loop i = 2, n\\n  x[i] = x[i-1] + u[i+" +
                 std::to_string(C) + "] * " + std::to_string(I + 1) +
                 ".5\\nend\"}\n";
      const std::string Stream = roundTrip(Server, Batch);
      std::istringstream In(Stream);
      std::string Line;
      int Index = 0;
      while (std::getline(In, Line)) {
        if (Line.rfind("{\"index\":" + std::to_string(Index) + ",", 0) !=
                0 ||
            Line.find("\"status\":\"ok\"") == std::string::npos)
          Failures.fetch_add(1);
        ++Index;
      }
      if (Index != PerClient)
        Failures.fetch_add(1);
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Server.Svc.metrics().counter("net_accepted"), NumClients);
  EXPECT_EQ(Server.Svc.metrics().counter("net_responses"),
            NumClients * PerClient);
  EXPECT_EQ(Server.Svc.metrics().counter("net_shed"), 0);
}

TEST(NetServer, OverloadShedsBeyondBoundedQueue) {
  ServiceConfig SC;
  SC.Jobs = 1;
  ServerConfig NC;
  NC.MaxQueueDepth = 1;
  // Pin the pre-ladder behavior: no slack band, no cached rung, so
  // everything past the queue bound sheds immediately.
  NC.SlackQueueDepth = 0;
  NC.CachedFallback = false;
  NC.EnableTestCommands = true;
  TestServer Server(SC, NC);

  JsonlClient Client = connectTo(Server);
  std::string Err;
  // Occupy the only worker...
  ASSERT_TRUE(Client.sendLine("{\"cmd\": \"sleep_ms\", \"ms\": 400}", Err));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...then burst: one request fills the queue, the rest must shed.
  constexpr int Burst = 8;
  std::string Batch;
  for (int I = 0; I < Burst; ++I)
    Batch += "{\"kernel\": \"daxpy\"}\n";
  ASSERT_TRUE(Client.sendRaw(Batch, Err));
  Client.shutdownWrite();

  std::vector<std::string> Lines;
  std::string Line;
  while (Client.recvLine(Line, Err))
    Lines.push_back(Line);
  EXPECT_TRUE(Err.empty()) << Err;

  // Every request got exactly one response, in request order.
  ASSERT_EQ(Lines.size(), static_cast<size_t>(Burst + 1));
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Lines[I].rfind("{\"index\":" + std::to_string(I) + ",", 0),
              0u)
        << Lines[I];
  EXPECT_NE(Lines[0].find("\"slept_ms\":400"), std::string::npos);
  int Shed = 0;
  for (const std::string &L : Lines)
    Shed += L.find("\"status\":\"shed\"") != std::string::npos;
  // 7 of 8 shed when the burst lands while the worker sleeps; allow a
  // small timing margin but require real shedding.
  EXPECT_GE(Shed, 6);
  EXPECT_EQ(Server.Svc.metrics().counter("net_shed"), Shed);
  EXPECT_GE(Server.Svc.metrics().counter("net_requests"), Burst + 1);
}

TEST(NetServer, OverloadLadderDegradesBeforeShedding) {
  ServiceConfig SC;
  SC.Jobs = 1;
  ServerConfig NC;
  NC.MaxQueueDepth = 1;
  NC.SlackQueueDepth = 2;
  NC.CachedFallback = true;
  NC.EnableTestCommands = true;
  TestServer Server(SC, NC);

  const std::string Warm = "{\"kernel\": \"daxpy\", \"engine\": \"bnb\"}";
  JsonlClient Client = connectTo(Server);
  std::string Err, Line;
  // Warm the cache at full fidelity: an undegraded exact answer.
  ASSERT_TRUE(Client.sendLine(Warm, Err));
  ASSERT_TRUE(Client.recvLine(Line, Err));
  ASSERT_NE(Line.find("\"tier\":\"exact\""), std::string::npos) << Line;
  ASSERT_NE(Line.find("\"proto\":1"), std::string::npos) << Line;

  // Occupy the only worker...
  ASSERT_TRUE(Client.sendLine("{\"cmd\": \"sleep_ms\", \"ms\": 600}", Err));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // ...then burst nine requests. Admission walks the ladder
  // deterministically while the worker sleeps: one full-fidelity (queue
  // slot) replays the warm exact answer; two land in the slack band —
  // exact requests with no cached exact answer, so they degrade to the
  // slack heuristic; the rest hit the cached rung, which answers the warm
  // replays from cache and sheds only the cold miss.
  const std::string ColdSlack =
      "{\"source\": \"loop i = 2, n\\n  z[i] = z[i-1] * 0.5 + "
      "u[i]\\nend\", \"engine\": \"bnb\"}";
  std::string Batch = Warm + "\n" + ColdSlack + "\n" + ColdSlack + "\n";
  for (int I = 0; I < 5; ++I)
    Batch += Warm + "\n";
  Batch += "{\"source\": \"loop i = 2, n\\n  y[i] = y[i-1] * 0.75 + "
           "u[i]\\nend\", \"engine\": \"bnb\", \"id\": \"cold1\"}\n";
  ASSERT_TRUE(Client.sendRaw(Batch, Err));
  Client.shutdownWrite();

  std::vector<std::string> Lines;
  while (Client.recvLine(Line, Err))
    Lines.push_back(Line);
  EXPECT_TRUE(Err.empty()) << Err;

  // sleep ack + 9 burst responses, in request order.
  ASSERT_EQ(Lines.size(), 10u);
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Lines[I].rfind("{\"index\":" + std::to_string(I + 1) + ",", 0),
              0u)
        << Lines[I];
  EXPECT_NE(Lines[0].find("\"slept_ms\":600"), std::string::npos);

  int Exact = 0, Slack = 0, Cached = 0, Shed = 0, LastRank = 0;
  for (size_t I = 1; I < Lines.size(); ++I) {
    const WireResponseView V = classifyResponseLine(Lines[I]);
    ASSERT_TRUE(V.HasTier) << Lines[I];
    Exact += V.Tier == ServiceTier::Exact;
    Slack += V.Tier == ServiceTier::Slack;
    Cached += V.Tier == ServiceTier::Cached;
    Shed += V.Tier == ServiceTier::Shed;
    // The ladder only ever descends across a burst: exact, then slack,
    // then cached, then shed.
    const int Rank = static_cast<int>(V.Tier);
    EXPECT_GE(Rank, LastRank) << Lines[I];
    LastRank = Rank;
  }
  EXPECT_EQ(Exact, 1);
  EXPECT_EQ(Slack, 2);
  EXPECT_EQ(Cached, 5);
  EXPECT_EQ(Shed, 1);
  // Slack-tier answers to an exact request are marked degraded.
  EXPECT_NE(Lines[2].find("\"degraded\":true"), std::string::npos)
      << Lines[2];
  // The shed line is structured and echoes the request id.
  EXPECT_NE(Lines[9].find("\"status\":\"shed\""), std::string::npos);
  EXPECT_NE(Lines[9].find("\"error_code\":\"overloaded\""),
            std::string::npos);
  EXPECT_NE(Lines[9].find("\"id\":\"cold1\""), std::string::npos);

  const MetricsRegistry &M = Server.Svc.metrics();
  EXPECT_EQ(M.counter("net_slack_admits"), 2);
  EXPECT_EQ(M.counter("net_cached_answers"), 5);
  EXPECT_EQ(M.counter("net_shed"), 1);
  EXPECT_EQ(M.counter("responses_tier_cached"), 5);
  EXPECT_GE(M.counter("responses_tier_slack"), 2);
  EXPECT_GE(M.counter("responses_tier_exact"), 1);
  EXPECT_EQ(M.counter("requests_cached_only_misses"), 1);
}

TEST(NetServer, ShardedServerKeepsPerConnectionByteIdentity) {
  const std::string Requests = requestCorpus();

  // Reference: the stdin pipe on an identically configured service.
  ServiceConfig SC;
  SC.Jobs = 4;
  std::string Expected;
  {
    SchedulingService Pipe(SC);
    std::istringstream In(Requests);
    std::ostringstream Out;
    Pipe.processJsonl(In, Out);
    Expected = Out.str();
  }
  ASSERT_FALSE(Expected.empty());

  ServerConfig NC;
  NC.IoShards = 4;
  TestServer Server(SC, NC);
  ASSERT_GT(Server.port(), 0);

  // Many concurrent connections land on different shards (the kernel
  // spreads SO_REUSEPORT accepts); every stream must still be identical
  // to the single-threaded pipe, byte for byte.
  constexpr int NumClients = 12;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < NumClients; ++C)
    Clients.emplace_back([&Server, &Requests, &Expected, &Mismatches] {
      if (roundTrip(Server, Requests) != Expected)
        Mismatches.fetch_add(1);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_EQ(Server.Svc.metrics().counter("net_accepted"), NumClients);
  EXPECT_EQ(Server.Svc.metrics().counter("net_shed"), 0);
}

TEST(NetServer, MetricsCommandReturnsOneLineDocument) {
  ServiceConfig SC;
  SC.Jobs = 2;
  TestServer Server(SC);
  const std::string Stream = roundTrip(
      Server, "{\"kernel\": \"daxpy\"}\n{\"cmd\": \"metrics\"}\n");
  std::istringstream In(Stream);
  std::string First, Second;
  ASSERT_TRUE(std::getline(In, First));
  ASSERT_TRUE(std::getline(In, Second));
  EXPECT_NE(First.find("\"status\":\"ok\""), std::string::npos);
  // The metrics document arrives second (ordering holds for control
  // lines too) and carries counters, gauges, and the store section.
  EXPECT_EQ(Second.rfind("{\"jobs\":", 0), 0u) << Second;
  EXPECT_NE(Second.find("\"counters\""), std::string::npos);
  EXPECT_NE(Second.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Second.find("\"store\""), std::string::npos);
  EXPECT_NE(Second.find("\"net_requests\": 2"), std::string::npos);
  // Unknown commands error without killing the connection.
  const std::string Bad =
      roundTrip(Server, "{\"cmd\": \"frobnicate\"}\n{\"kernel\": \"daxpy\"}\n");
  EXPECT_NE(Bad.find("unknown cmd"), std::string::npos);
  EXPECT_NE(Bad.find("\"status\":\"ok\""), std::string::npos);
}

TEST(NetServer, GracefulDrainAnswersEverythingInFlight) {
  ServiceConfig SC;
  SC.Jobs = 1;
  ServerConfig NC;
  NC.EnableTestCommands = true;
  NC.DrainTimeoutMs = 10000;
  TestServer Server(SC, NC);

  JsonlClient Client = connectTo(Server);
  std::string Err;
  ASSERT_TRUE(Client.sendLine("{\"cmd\": \"sleep_ms\", \"ms\": 300}", Err));
  ASSERT_TRUE(Client.sendRaw("{\"kernel\": \"daxpy\"}\n"
                             "{\"kernel\": \"dscale\"}\n"
                             "{\"kernel\": \"ll1_hydro\"}\n",
                             Err));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Server.Srv.requestStop(); // SIGTERM equivalent, mid-flight
  Client.shutdownWrite();

  std::vector<std::string> Lines;
  std::string Line;
  while (Client.recvLine(Line, Err))
    Lines.push_back(Line);
  EXPECT_TRUE(Err.empty()) << Err;
  ASSERT_EQ(Lines.size(), 4u); // nothing admitted was dropped
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Lines[I].rfind("{\"index\":" + std::to_string(I) + ",", 0),
              0u);
  Server.stop();
  EXPECT_FALSE(Server.Srv.running());
}

// The largest drain timeout schedule_server accepts still drains: the
// deadline saturates instead of wrapping into the past and force-closing
// a connection that is still being served.
TEST(NetServer, HugeDrainTimeoutKeepsServingOpenConnections) {
  ServerConfig NC;
  NC.DrainTimeoutMs = std::numeric_limits<long>::max();
  TestServer Server(ServiceConfig(), NC);

  JsonlClient Client = connectTo(Server);
  std::string Err, Line;
  ASSERT_TRUE(Client.sendLine("{\"kernel\": \"daxpy\"}", Err));
  ASSERT_TRUE(Client.recvLine(Line, Err)) << Err;
  Server.Srv.requestStop();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(Client.sendLine("{\"kernel\": \"dscale\"}", Err));
  ASSERT_TRUE(Client.recvLine(Line, Err)) << Err;
  EXPECT_NE(Line.find("\"status\":\"ok\""), std::string::npos) << Line;
  Client.shutdownWrite();
  Server.stop();
  EXPECT_EQ(Server.Svc.metrics().counter("net_drain_forced"), 0);
}

TEST(NetServer, ConnectionsBeyondCapAreRejected) {
  ServerConfig NC;
  NC.MaxConnections = 2;
  TestServer Server(ServiceConfig(), NC);

  JsonlClient A = connectTo(Server), B = connectTo(Server);
  std::string Err, Line;
  // Prove both are established end to end.
  ASSERT_TRUE(A.sendLine("{\"kernel\": \"daxpy\"}", Err));
  ASSERT_TRUE(A.recvLine(Line, Err));
  ASSERT_TRUE(B.sendLine("{\"kernel\": \"daxpy\"}", Err));
  ASSERT_TRUE(B.recvLine(Line, Err));
  // The third connection is accepted and immediately closed.
  JsonlClient C = connectTo(Server);
  EXPECT_FALSE(C.recvLine(Line, Err));
  EXPECT_TRUE(Err.empty()) << Err; // clean EOF, not an error
  EXPECT_EQ(Server.Svc.metrics().counter("net_rejected"), 1);
}

TEST(NetServer, WarmRestartAnswersFromPersistentStore) {
  const std::string StorePath =
      testing::TempDir() + "lsms_net_restart_store.log";
  std::remove(StorePath.c_str());
  const std::string Requests =
      "{\"kernel\": \"ll1_hydro\", \"engine\": \"bnb\"}\n"
      "{\"kernel\": \"ll5_tridiag\", \"engine\": \"bnb\"}\n"
      "{\"source\": \"loop i = 2, n\\n  x[i] = x[i-1] * 0.25 + u[i]\\nend\","
      " \"engine\": \"bnb\"}\n";

  ServiceConfig SC;
  SC.Jobs = 2;
  SC.StorePath = StorePath;
  std::string Cold;
  {
    TestServer Server(SC);
    ASSERT_TRUE(Server.Svc.storeOpen()) << Server.Svc.storeError();
    Cold = roundTrip(Server, Requests);
    EXPECT_EQ(Server.Svc.storeStats().RecoveredRecords, 0);
  } // server stops, service drains, store closes

  TestServer Restarted(SC);
  ASSERT_TRUE(Restarted.Svc.storeOpen()) << Restarted.Svc.storeError();
  EXPECT_EQ(Restarted.Svc.storeStats().RecoveredRecords, 3);
  const std::string Warm = roundTrip(Restarted, Requests);
  EXPECT_EQ(Warm, Cold); // recovered answers are byte-identical
  EXPECT_EQ(Restarted.Svc.metrics().counter("store_hits"), 3);
  // Nothing was recomputed, so nothing new was written through.
  EXPECT_EQ(Restarted.Svc.metrics().counter("store_writes"), 0);
  std::remove(StorePath.c_str());
}
