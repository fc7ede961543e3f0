//===----------------------------------------------------------------------===//
/// \file Tests for the scheduling service (service/SchedulingService.h):
/// request parsing, cache behavior (hits, LRU eviction, hit-vs-miss
/// response identity), deadline degradation, per-request II caps,
/// byte-identical JSONL streams across worker counts, and a service that
/// starts no thread of its own.
//===----------------------------------------------------------------------===//

#include "service/SchedulingService.h"

#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "ir/DepGraph.h"
#include "service/EngineFlag.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <thread>

using namespace lsms;

namespace {

ServiceRequest kernelRequest(const std::string &Kernel,
                             ServiceEngine Engine = ServiceEngine::Slack) {
  ServiceRequest Req;
  Req.Kernel = Kernel;
  Req.Engine = Engine;
  return Req;
}

/// Threads in this process, counted in /proc/self/task.
long threadCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(ServiceParseTest, AcceptsFullRequest) {
  ServiceRequest Req;
  std::string Err;
  ASSERT_TRUE(SchedulingService::parseRequestLine(
      "{\"id\": \"r1\", \"name\": \"n\", \"kernel\": \"daxpy\", "
      "\"engine\": \"bnb\", \"deadline_ms\": 250, \"max_ii\": 7, "
      "\"emit_times\": true}",
      Req, Err))
      << Err;
  EXPECT_EQ(Req.Id, "r1");
  EXPECT_EQ(Req.Name, "n");
  EXPECT_EQ(Req.Kernel, "daxpy");
  EXPECT_EQ(Req.Engine, ServiceEngine::BranchAndBound);
  EXPECT_EQ(Req.DeadlineMs, 250);
  EXPECT_EQ(Req.MaxII, 7);
  EXPECT_TRUE(Req.EmitTimes);
}

TEST(ServiceParseTest, RejectsMalformedRequests) {
  ServiceRequest Req;
  std::string Err;
  // Not JSON at all.
  EXPECT_FALSE(SchedulingService::parseRequestLine("nope", Req, Err));
  // Neither kernel nor source.
  EXPECT_FALSE(
      SchedulingService::parseRequestLine("{\"id\": \"x\"}", Req, Err));
  // Both kernel and source.
  EXPECT_FALSE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\", \"source\": \"loop\"}", Req, Err));
  // Unknown field.
  EXPECT_FALSE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\", \"bogus\": 1}", Req, Err));
  // Unknown engine.
  EXPECT_FALSE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\", \"engine\": \"magic\"}", Req, Err));
  // Negative II cap.
  EXPECT_FALSE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\", \"max_ii\": -1}", Req, Err));
}

// Every tool reads its exact budgets through applyExactBudgetFlag: a
// value that is not a whole decimal integer is refused and changes nothing
// (it used to be read as its leading digits, so "1M" became a budget of 1).
TEST(ServiceParseTest, BudgetFlagsTakeWholeIntegersOnly) {
  for (const char *Bad :
       {"--node-budget=1M", "--node-budget=", "--node-budget=lots"}) {
    ExactOptions Options;
    EXPECT_FALSE(applyExactBudgetFlag(Bad, Options)) << Bad;
    EXPECT_EQ(Options.NodeBudget, ExactOptions().NodeBudget) << Bad;
  }
  for (const long Good : {-1L, 0L, 262144L}) {
    ExactOptions Options;
    EXPECT_TRUE(applyExactBudgetFlag(
        "--node-budget=" + std::to_string(Good), Options));
    EXPECT_EQ(Options.NodeBudget, Good);
  }
  ExactOptions Options;
  EXPECT_TRUE(applyExactBudgetFlag("--sat-conflict-budget=11", Options));
  EXPECT_TRUE(applyExactBudgetFlag("--maxlive-node-budget=12", Options));
  EXPECT_TRUE(applyExactBudgetFlag("--maxlive-conflict-budget=13", Options));
  EXPECT_EQ(Options.SatConflictBudget, 11);
  EXPECT_EQ(Options.MaxLiveNodeBudget, 12);
  EXPECT_EQ(Options.MaxLiveConflictBudget, 13);
}

TEST(ServiceParseTest, DefaultEngineApplies) {
  ServiceRequest Req;
  std::string Err;
  ASSERT_TRUE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\"}", Req, Err, ServiceEngine::Sat));
  EXPECT_EQ(Req.Engine, ServiceEngine::Sat);
  ASSERT_TRUE(SchedulingService::parseRequestLine(
      "{\"kernel\": \"daxpy\", \"engine\": \"slack\"}", Req, Err,
      ServiceEngine::Sat));
  EXPECT_EQ(Req.Engine, ServiceEngine::Slack);
}

TEST(ServiceTest, AnswersMatchDirectScheduling) {
  SchedulingService Service;
  for (const NamedKernel &K : kernelSources()) {
    const ServiceResponse Resp = Service.handle(kernelRequest(K.Name));
    ASSERT_TRUE(Resp.Ok) << K.Name << ": " << Resp.Error;
    LoopBody Body;
    ASSERT_EQ(compileLoop(K.Source, K.Name, Body), "");
    const MachineModel Machine = MachineModel::cydra5();
    const DepGraph Graph(Body, Machine);
    const Schedule Direct = scheduleLoop(Graph, SchedulerOptions());
    ASSERT_TRUE(Direct.Success);
    EXPECT_EQ(Resp.II, Direct.II) << K.Name;
    EXPECT_EQ(Resp.MII, Direct.MII) << K.Name;
  }
}

TEST(ServiceTest, EmittedTimesValidate) {
  SchedulingService Service;
  for (const char *Kernel : {"daxpy", "ll1_hydro", "ll5_tridiag"}) {
    ServiceRequest Req = kernelRequest(Kernel);
    Req.EmitTimes = true;
    const ServiceResponse Resp = Service.handle(Req);
    ASSERT_TRUE(Resp.Ok) << Resp.Error;
    LoopBody Body;
    for (const NamedKernel &K : kernelSources())
      if (Req.Kernel == K.Name) {
        ASSERT_EQ(compileLoop(K.Source, K.Name, Body), "");
      }
    ASSERT_EQ(Resp.Times.size(), static_cast<size_t>(Body.numOps()));
    Schedule Check;
    Check.Success = true;
    Check.II = Resp.II;
    Check.MII = Resp.MII;
    Check.Times = Resp.Times;
    const MachineModel Machine = MachineModel::cydra5();
    const DepGraph Graph(Body, Machine);
    EXPECT_EQ(validateSchedule(Graph, Check), "") << Kernel;
  }
}

TEST(ServiceTest, RepeatedRequestsHitTheCacheAndMatch) {
  SchedulingService Service;
  ServiceRequest Req = kernelRequest("daxpy", ServiceEngine::BranchAndBound);
  Req.EmitTimes = true;
  const ServiceResponse First = Service.handle(Req);
  ASSERT_TRUE(First.Ok) << First.Error;
  const ServiceResponse Second = Service.handle(Req);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  // Hit and miss must render the same bytes.
  EXPECT_EQ(First.toJsonl(), Second.toJsonl());
  EXPECT_GE(Service.frontCacheStats().Hits, 1);

  // A fresh service (all misses) agrees too.
  SchedulingService Fresh;
  EXPECT_EQ(Fresh.handle(Req).toJsonl(), First.toJsonl());
}

TEST(ServiceTest, LruEvictionKeepsAnswering) {
  ServiceConfig Config;
  Config.CacheCapacity = 2;
  Config.CacheShards = 1;
  Config.FrontCacheCapacity = 2;
  SchedulingService Service(Config);
  const char *Kernels[] = {"daxpy", "ll1_hydro", "ll5_tridiag",
                           "ll3_inner_product"};
  for (int Round = 0; Round < 3; ++Round)
    for (const char *Kernel : Kernels)
      ASSERT_TRUE(Service.handle(kernelRequest(Kernel)).Ok) << Kernel;
  const CacheStats Front = Service.frontCacheStats();
  EXPECT_GE(Front.Evictions, 1);
  EXPECT_LE(Front.Entries, 2u);
  // Evicted entries are recomputed, not corrupted: answers still match a
  // fresh service.
  SchedulingService Fresh;
  for (const char *Kernel : Kernels)
    EXPECT_EQ(Service.handle(kernelRequest(Kernel)).toJsonl(),
              Fresh.handle(kernelRequest(Kernel)).toJsonl())
        << Kernel;
}

TEST(ServiceTest, ZeroDeadlineDegradesToValidSlackSchedule) {
  SchedulingService Service;
  for (const ServiceEngine Engine :
       {ServiceEngine::BranchAndBound, ServiceEngine::Sat}) {
    ServiceRequest Req = kernelRequest("ll1_hydro", Engine);
    Req.DeadlineMs = 0; // expired before any exact work can start
    Req.EmitTimes = true;
    const ServiceResponse Resp = Service.handle(Req);
    ASSERT_TRUE(Resp.Ok) << Resp.Error;
    EXPECT_TRUE(Resp.Degraded);
    EXPECT_EQ(Resp.ExactVerdict, ExactStatus::Timeout);

    // The degraded response IS the slack answer, and it validates.
    ServiceRequest SlackReq = Req;
    SlackReq.Engine = ServiceEngine::Slack;
    SlackReq.DeadlineMs = -1;
    const ServiceResponse Slack = Service.handle(SlackReq);
    ASSERT_TRUE(Slack.Ok);
    EXPECT_FALSE(Slack.Degraded);
    EXPECT_EQ(Resp.II, Slack.II);
    EXPECT_EQ(Resp.Times, Slack.Times);

    LoopBody Body;
    for (const NamedKernel &K : kernelSources())
      if (Req.Kernel == K.Name) {
        ASSERT_EQ(compileLoop(K.Source, K.Name, Body), "");
      }
    Schedule Check;
    Check.Success = true;
    Check.II = Resp.II;
    Check.MII = Resp.MII;
    Check.Times = Resp.Times;
    const MachineModel Machine = MachineModel::cydra5();
    const DepGraph Graph(Body, Machine);
    EXPECT_EQ(validateSchedule(Graph, Check), "");
  }
  EXPECT_GE(Service.metrics().counter("requests_degraded"), 2);
}

TEST(ServiceTest, ImpossibleMaxIiIsAnError) {
  SchedulingService Service;
  ServiceRequest Req = kernelRequest("ll5_tridiag");
  Req.MaxII = 1; // tridiag has RecMII > 1: no schedule can exist
  const ServiceResponse Resp = Service.handle(Req);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());
}

TEST(ServiceTest, UnknownKernelIsAnError) {
  SchedulingService Service;
  const ServiceResponse Resp = Service.handle(kernelRequest("no_such"));
  EXPECT_FALSE(Resp.Ok);
  EXPECT_EQ(Resp.Name, "no_such");
  EXPECT_NE(Resp.Error.find("unknown kernel"), std::string::npos);
}

std::string runJsonl(SchedulingService &Service, const std::string &Input) {
  std::istringstream In(Input);
  std::ostringstream Out;
  Service.processJsonl(In, Out);
  return Out.str();
}

TEST(ServiceTest, JsonlStreamIsByteIdenticalAcrossJobs) {
  std::ostringstream Input;
  Input << "# comment lines and blanks are skipped\n\n";
  int Id = 0;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const NamedKernel &K : kernelSources())
      Input << "{\"id\": \"r" << Id++ << "\", \"kernel\": \"" << K.Name
            << "\", \"engine\": \"" << (Pass ? "bnb" : "slack")
            << "\", \"emit_times\": true}\n";
  Input << "{\"broken\n";

  std::vector<std::string> Streams;
  for (const int Jobs : {1, 2, 4}) {
    ServiceConfig Config;
    Config.Jobs = Jobs;
    SchedulingService Service(Config);
    Streams.push_back(runJsonl(Service, Input.str()));
  }
  EXPECT_EQ(Streams[0], Streams[1]);
  EXPECT_EQ(Streams[0], Streams[2]);
  // Responses come back in request order whatever the scheduling order.
  std::istringstream Check(Streams[0]);
  std::string Line;
  int Index = 0;
  while (std::getline(Check, Line)) {
    const std::string Expect = "{\"index\":" + std::to_string(Index++) + ",";
    EXPECT_EQ(Line.substr(0, Expect.size()), Expect);
  }
  EXPECT_EQ(Index, 2 * static_cast<int>(kernelSources().size()) + 1);
}

// A deadline_ms 0 request always degrades to the slack answer: an exact
// answer for the same loop that an earlier request left in the LRU must
// not leak into it, or the answer (which the front cache stores as a pure
// function of the request) would depend on the requests before it.
TEST(ServiceTest, ZeroDeadlineAnswerIgnoresEarlierExactAnswer) {
  const std::string Exact = "{\"kernel\":\"ll1_hydro\",\"engine\":\"bnb\"}";
  const std::string Expired =
      "{\"kernel\":\"ll1_hydro\",\"engine\":\"bnb\",\"deadline_ms\":0}";
  ServiceConfig SC;
  SC.Jobs = 1;
  SchedulingService Alone(SC);
  const std::string Expected = Alone.handleLine(Expired, 1).toJsonl() + "\n";
  EXPECT_NE(Expected.find("\"tier\":\"slack\",\"degraded\":true"),
            std::string::npos)
      << Expected;

  SchedulingService Service(SC);
  const std::string Stream = runJsonl(Service, Exact + "\n" + Expired + "\n");
  ASSERT_NE(Stream.find("\"tier\":\"exact\""), std::string::npos) << Stream;
  EXPECT_EQ(Stream.substr(Stream.find('\n') + 1), Expected);
}

// The SlackOnly overload rung may still answer from a cached exact answer,
// but that answer never enters the front cache under the deadline-0 key it
// shares with requests whose own deadline is 0.
TEST(ServiceTest, SlackOnlyReplaysCachedExactWithoutFillingFrontCache) {
  SchedulingService Service;
  const ServiceRequest Req =
      kernelRequest("ll1_hydro", ServiceEngine::BranchAndBound);
  const ServiceResponse Exact = Service.handle(Req);
  ASSERT_EQ(Exact.Tier, ServiceTier::Exact);
  EXPECT_EQ(Service.handle(Req, 0, AdmitMode::SlackOnly).toJsonl(),
            Exact.toJsonl());

  ServiceRequest Expired = Req;
  Expired.DeadlineMs = 0;
  const ServiceResponse Degraded = Service.handle(Expired);
  ASSERT_TRUE(Degraded.Ok) << Degraded.Error;
  EXPECT_EQ(Degraded.Tier, ServiceTier::Slack);
  EXPECT_TRUE(Degraded.Degraded);
}

// Every engine, max_ii, emit_times, deadline_ms 0 right after an exact
// answer for the same loop, and malformed lines: one byte string at every
// job count, run after run.
TEST(ServiceTest, MixedStreamIsOneByteStringAtEveryJobCount) {
  const char *Engines[] = {"slack", "bnb", "sat", "portfolio"};
  std::ostringstream Input;
  int K = 0;
  for (const NamedKernel &Kernel : kernelSources()) {
    const std::string Head = std::string("{\"kernel\":\"") + Kernel.Name +
                             "\",\"engine\":\"" + Engines[K % 4] + "\"";
    Input << Head << "}\n" << Head << ",\"deadline_ms\":0}\n";
    if (K % 3 == 0)
      Input << Head << ",\"max_ii\":" << 2 + K % 5
            << ",\"emit_times\":true}\n";
    if (K % 10 == 0)
      Input << "{\"kernel\":\"" << Kernel.Name << "\",\"deadline_ms\":\"0\"}\n"
            << "not json\n";
    ++K;
  }
  std::string First;
  for (int Run = 0; Run < 20; ++Run)
    for (const int Jobs : {1, 2, 4}) {
      ServiceConfig Config;
      Config.Jobs = Jobs;
      SchedulingService Service(Config);
      const std::string Stream = runJsonl(Service, Input.str());
      if (First.empty())
        First = Stream;
      ASSERT_EQ(Stream, First) << "run " << Run << " at jobs " << Jobs;
    }
  EXPECT_NE(First.find("\"tier\":\"exact\""), std::string::npos);
  EXPECT_NE(First.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(First.find("\"error_code\":\"bad_request\""), std::string::npos);
}

TEST(ServiceTest, ParseErrorsBecomeErrorResponses) {
  SchedulingService Service;
  const std::string Out =
      runJsonl(Service, "{\"kernel\": \"daxpy\"}\nnot json\n");
  std::istringstream Lines(Out);
  std::string First, Second;
  ASSERT_TRUE(std::getline(Lines, First));
  ASSERT_TRUE(std::getline(Lines, Second));
  EXPECT_NE(First.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(Second.find("\"status\":\"error\""), std::string::npos);
  EXPECT_EQ(Service.metrics().counter("requests_parse_errors"), 1);
}

TEST(ServiceTest, DeeplyNestedSourceIsACompileError) {
  // 100,000 nested parentheses (~200 KB, under the server's line cap) once
  // overflowed the stack; now the parser refuses the depth.
  const std::string Source = "loop i = 2, n\\n  x[i] = " +
                             std::string(100000, '(') + "y[i]" +
                             std::string(100000, ')') + "\\nend";
  SchedulingService Service;
  const std::string Response =
      Service.handleLine("{\"source\": \"" + Source + "\"}", 0).toJsonl();
  EXPECT_NE(Response.find("\"error_code\":\"compile_error\""),
            std::string::npos)
      << Response.substr(0, 200);
  EXPECT_NE(Response.find("nested deeper than"), std::string::npos);
}

TEST(ServiceTest, MetricsJsonMentionsBothCaches) {
  SchedulingService Service;
  ASSERT_TRUE(Service.handle(kernelRequest("daxpy")).Ok);
  const std::string Json = Service.metricsJson();
  EXPECT_NE(Json.find("\"cache\""), std::string::npos);
  EXPECT_NE(Json.find("\"front_cache\""), std::string::npos);
  EXPECT_NE(Json.find("\"store\""), std::string::npos);
  EXPECT_NE(Json.find("requests_total"), std::string::npos);
}

TEST(ServiceTest, HandleLineMatchesProcessJsonl) {
  const std::string Lines[] = {
      "{\"kernel\": \"daxpy\"}",
      "{\"kernel\": \"ll5_tridiag\", \"engine\": \"bnb\"}",
      "garbage that does not parse",
  };
  SchedulingService Pipe;
  std::ostringstream In;
  for (const std::string &L : Lines)
    In << L << "\n";
  std::istringstream IS(In.str());
  std::ostringstream Expected;
  Pipe.processJsonl(IS, Expected);

  SchedulingService Direct;
  std::ostringstream Got;
  for (int I = 0; I != 3; ++I)
    Got << Direct.handleLine(Lines[I], I, ServiceEngine::Slack).toJsonl()
        << "\n";
  EXPECT_EQ(Got.str(), Expected.str());
}

// The service owns no thread: a job count only sizes processJsonl's
// fan-out and a socket front end's workers.
TEST(ServiceTest, ConstructionStartsNoThread) {
  const long Before = threadCount();
  ServiceConfig SC;
  SC.Jobs = 8;
  SchedulingService Service(SC);
  EXPECT_EQ(Service.jobs(), 8);
  EXPECT_EQ(threadCount(), Before);
  ASSERT_TRUE(Service.handle(kernelRequest("daxpy")).Ok);
  EXPECT_EQ(threadCount(), Before);
}

// Regression for the shutdown ordering bug: destroying (or draining) the
// service while a processJsonl batch is still in flight on another thread
// must block until every admitted request has answered — no deadlock, no
// dropped or error responses. (Do not assert on in-flight counts at the
// moment drain() returns; between batch items the count legitimately
// touches zero.)
TEST(ServiceTest, DrainWaitsForInFlightBatch) {
  std::ostringstream In;
  for (int I = 0; I < 24; ++I)
    In << "{\"source\": \"loop i = 2, n\\n  x[i] = x[i-1] + u[i] * "
       << (I + 1) << ".0\\nend\"}\n";
  std::string Out;
  {
    ServiceConfig SC;
    SC.Jobs = 4;
    SchedulingService Service(SC);
    std::istringstream IS(In.str());
    std::ostringstream OS;
    std::thread Batch([&] { Service.processJsonl(IS, OS); });
    Service.drain();
    EXPECT_FALSE(Service.accepting());
    Batch.join();
    Out = OS.str();
  } // destructor after drain(): must not hang or crash
  std::istringstream Lines(Out);
  std::string Line;
  int Count = 0;
  while (std::getline(Lines, Line)) {
    EXPECT_EQ(Line.rfind("{\"index\":" + std::to_string(Count) + ",", 0),
              0u);
    ++Count;
  }
  EXPECT_EQ(Count, 24);
}

TEST(ServiceTest, StoreTierSurvivesServiceRestart) {
  const std::string StorePath =
      testing::TempDir() + "lsms_service_store_tier.log";
  std::remove(StorePath.c_str());
  ServiceConfig SC;
  SC.StorePath = StorePath;

  ServiceRequest Req = kernelRequest("ll1_hydro", ServiceEngine::BranchAndBound);
  ServiceResponse Cold;
  {
    SchedulingService Service(SC);
    ASSERT_TRUE(Service.storeOpen()) << Service.storeError();
    Cold = Service.handle(Req, 0);
    ASSERT_TRUE(Cold.Ok) << Cold.Error;
    EXPECT_EQ(Service.metrics().counter("store_writes"), 1);
  }
  SchedulingService Fresh(SC);
  ASSERT_TRUE(Fresh.storeOpen()) << Fresh.storeError();
  EXPECT_EQ(Fresh.storeStats().RecoveredRecords, 1);
  const ServiceResponse Warm = Fresh.handle(Req, 0);
  EXPECT_EQ(Warm.toJsonl(), Cold.toJsonl());
  EXPECT_EQ(Fresh.metrics().counter("store_hits"), 1);
  std::remove(StorePath.c_str());
}

TEST(ServiceTest, StoreWrittenByTheParentStillAnswers) {
  // A store log written by an earlier build over {"kernel":"daxpy"} and
  // {"kernel":"daxpy","engine":"bnb"}, with that build's two response
  // lines. Both records must still be found under today's keys: a change
  // to what slackAux or exactAux hashes turns every deployed store cold
  // without failing any test that writes and reads with one binary.
  const std::string LogHex =
      "3152534c65000000f2792b0a6bbbefda79759ec5c3bbe0939225d655a23c1bf1"
      "d92f603801010000000200000002000000020000000100000013000000000000"
      "000b00000000000000140000000f000000000000000300000002000000110000"
      "00110000000400000013000000000000003152534c6500000051252b616bbbef"
      "da79759ec5c3bbe0939225d65566f6e584bce546950101000000020000000200"
      "000002000000010000001c000000000000000b00000000000000130000000e00"
      "0000000000000000000001000000100000000100000001000000120000000000"
      "0000";
  const std::string Expected[] = {
      "{\"index\":0,\"proto\":1,\"name\":\"daxpy\",\"engine\":\"slack\","
      "\"status\":\"ok\",\"tier\":\"slack\",\"degraded\":false,\"ii\":2,"
      "\"mii\":2,\"res_mii\":2,\"rec_mii\":1,\"length\":20,\"maxlive\":19}",
      "{\"index\":1,\"proto\":1,\"name\":\"daxpy\",\"engine\":\"bnb\","
      "\"status\":\"ok\",\"tier\":\"exact\",\"degraded\":false,"
      "\"exact_status\":\"optimal\",\"ii\":2,\"mii\":2,\"res_mii\":2,"
      "\"rec_mii\":1,\"length\":19,\"maxlive\":28,"
      "\"maxlive_proven\":false,\"maxlive_cert\":\"none\"}"};

  const std::string StorePath =
      testing::TempDir() + "lsms_service_parent_store.log";
  {
    std::string Bytes;
    for (size_t I = 0; I + 1 < LogHex.size(); I += 2)
      Bytes.push_back(
          static_cast<char>(std::stoi(LogHex.substr(I, 2), nullptr, 16)));
    std::FILE *F = std::fopen(StorePath.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
    std::fclose(F);
  }
  ServiceConfig SC;
  SC.StorePath = StorePath;
  {
    SchedulingService Service(SC);
    ASSERT_TRUE(Service.storeOpen()) << Service.storeError();
    EXPECT_EQ(Service.handleLine("{\"kernel\":\"daxpy\"}", 0).toJsonl(),
              Expected[0]);
    EXPECT_EQ(Service
                  .handleLine("{\"kernel\":\"daxpy\",\"engine\":\"bnb\"}", 1)
                  .toJsonl(),
              Expected[1]);
    EXPECT_EQ(Service.metrics().counter("store_hits"), 2);
    EXPECT_EQ(Service.metrics().counter("store_writes"), 0);
  }
  std::remove(StorePath.c_str());
}

} // namespace
