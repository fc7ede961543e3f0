#include "service/SchedulingService.h"

#include "bounds/Lifetimes.h"
#include "core/FuAssignment.h"
#include "core/ModuloScheduler.h"
#include "core/Validate.h"
#include "frontend/LoopCompiler.h"
#include "service/Json.h"
#include "service/LoopKey.h"
#include "support/ParallelFor.h"
#include "workloads/Suite.h"

#include <chrono>
#include <cstdio>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>

using namespace lsms;

std::string ServiceResponse::toJsonl() const {
  return renderResponseLine(*this);
}

namespace {

uint64_t mixAux(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H *= 0xff51afd7ed558ccdULL;
  return H ^ (H >> 33);
}

/// Everything besides the loop itself that determines a slack answer.
uint64_t slackAux(const ServiceConfig &Config, const SchedulerOptions &O) {
  uint64_t H = mixAux(0x51acULL, machineFingerprint(Config.Machine));
  H = mixAux(H, O.DynamicPriority);
  H = mixAux(H, O.Bidirectional);
  H = mixAux(H, O.RecurrencesFirst);
  H = mixAux(H, O.HalveCriticalSlack);
  H = mixAux(H, O.HalveDividerSlack);
  H = mixAux(H, static_cast<uint64_t>(O.IIIncrementPct));
  H = mixAux(H, static_cast<uint64_t>(O.BudgetRatio));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIIFactor));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIISlack));
  H = mixAux(H, static_cast<uint64_t>(O.AcyclicPadStep));
  return H;
}

/// Everything besides the loop itself that determines an exact answer.
/// The deadline is deliberately absent: deadline-shortened outcomes are
/// never cached.
uint64_t exactAux(const ServiceConfig &Config, const ExactOptions &O) {
  uint64_t H = mixAux(0xe8acULL, machineFingerprint(Config.Machine));
  H = mixAux(H, static_cast<uint64_t>(O.Engine));
  H = mixAux(H, static_cast<uint64_t>(O.NodeBudget));
  H = mixAux(H, static_cast<uint64_t>(O.SatConflictBudget));
  H = mixAux(H, static_cast<uint64_t>(O.MaxLiveNodeBudget));
  H = mixAux(H, static_cast<uint64_t>(O.MaxLiveConflictBudget));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIIFactor));
  H = mixAux(H, static_cast<uint64_t>(O.IICap.MaxIISlack));
  H = mixAux(H, O.MinimizeMaxLive);
  return H;
}

/// The cache record both engines' answers take in the LRU and the store.
CachedSchedule cachedSchedule(const Schedule &S, long MaxLive,
                              ExactStatus Status, bool MaxLiveProven = false,
                              MaxLiveCertificate Certificate =
                                  MaxLiveCertificate::None) {
  CachedSchedule C;
  C.Success = S.Success;
  C.II = S.II;
  C.MII = S.MII;
  C.ResMII = S.ResMII;
  C.RecMII = S.RecMII;
  C.MaxLive = MaxLive;
  C.MaxLiveProven = MaxLiveProven;
  C.Certificate = Certificate;
  C.Status = Status;
  if (S.Success)
    C.Times = S.Times;
  return C;
}

} // namespace

/// Counts a handle() call as in flight for drain(); the last one out
/// notifies waiters.
class SchedulingService::InFlightGuard {
public:
  explicit InFlightGuard(SchedulingService &S) : S(S) {
    S.InFlight.fetch_add(1, std::memory_order_acquire);
  }
  ~InFlightGuard() {
    if (S.InFlight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> Lock(S.DrainMu);
      S.DrainCV.notify_all();
    }
  }

private:
  SchedulingService &S;
};

SchedulingService::SchedulingService(ServiceConfig ConfigIn)
    : Config(std::move(ConfigIn)), Jobs(resolveJobs(Config.Jobs)),
      Cache(Config.CacheCapacity, Config.CacheShards),
      Front(Config.FrontCacheCapacity, Config.CacheShards) {
  if (!Config.StorePath.empty() &&
      !Store.open(Config.StorePath, StoreOpenError))
    Metrics.inc("store_open_failures");
}

SchedulingService::~SchedulingService() {
  // Shutdown ordering: finish every admitted request first, then close the
  // store the requests were writing through.
  drain();
  Store.close();
}

void SchedulingService::beginDrain() {
  Draining.store(true, std::memory_order_release);
}

bool SchedulingService::accepting() const {
  return !Draining.load(std::memory_order_acquire);
}

void SchedulingService::drain() {
  beginDrain();
  std::unique_lock<std::mutex> Lock(DrainMu);
  DrainCV.wait(Lock, [&] {
    return InFlight.load(std::memory_order_acquire) == 0;
  });
}

ServiceResponse SchedulingService::handle(const ServiceRequest &ReqIn,
                                          int Index, AdmitMode Mode) {
  const InFlightGuard Guard(*this);
  const auto T0 = std::chrono::steady_clock::now();
  // SlackOnly admission reuses the deadline-expired path: forcing
  // DeadlineMs to 0 makes an exact request degrade to the slack heuristic
  // without touching an exact engine. Unlike a request whose own deadline
  // is 0, a forced one may still replay a cached exact answer, so it never
  // writes the front cache, whose deadline-0 key it shares.
  const bool Forced = Mode == AdmitMode::SlackOnly &&
                      ReqIn.Engine != ServiceEngine::Slack &&
                      ReqIn.DeadlineMs != 0;
  ServiceRequest ForcedReq;
  if (Forced) {
    ForcedReq = ReqIn;
    ForcedReq.DeadlineMs = 0;
  }
  const ServiceRequest &Req = Forced ? ForcedReq : ReqIn;
  ServiceResponse Resp;
  Resp.Index = Index;
  Resp.Id = Req.Id;
  Resp.Engine = Req.Engine;
  Metrics.inc("requests_total");
  Metrics.inc(std::string("requests_engine_") +
              serviceEngineName(Req.Engine));
  if (Mode == AdmitMode::SlackOnly)
    Metrics.inc("requests_admit_slack_only");
  else if (Mode == AdmitMode::CachedOnly)
    Metrics.inc("requests_admit_cached_only");

  // -- Front cache: fully-rendered responses keyed on the raw payload
  // text and everything else that determines the line. A hit skips
  // parsing, canonicalization, scheduling, and validation. Requests with
  // an armed wall-clock deadline (DeadlineMs > 0) bypass this tier: their
  // degradation outcome is time-dependent, and every front entry must be
  // a pure function of the request. (DeadlineMs == 0 degrades
  // deterministically and is eligible; the flag is part of the key.)
  const bool FrontEligible = Req.DeadlineMs <= 0;
  CacheKey FrontKey;
  if (FrontEligible) {
    uint64_t Hi = 0x66726f6e745f6869ULL; // "front_hi"
    for (const char C : Req.Kernel)
      Hi = mixAux(Hi, static_cast<unsigned char>(C));
    uint64_t Lo = 0x66726f6e745f6c6fULL; // "front_lo"
    for (const char C : Req.Source)
      Lo = mixAux(Lo, static_cast<unsigned char>(C));
    uint64_t Aux = mixAux(0xf307ULL, static_cast<uint64_t>(Req.Engine));
    Aux = mixAux(Aux, slackAux(Config, Config.Slack));
    Aux = mixAux(Aux, exactAux(Config, Config.Exact));
    Aux = mixAux(Aux, static_cast<uint64_t>(Req.MaxII));
    Aux = mixAux(Aux, Req.DeadlineMs == 0);
    Aux = mixAux(Aux, Req.EmitTimes);
    FrontKey = CacheKey{Hi, Lo, Aux};
  }

  const auto finish = [&](ServiceResponse &R,
                          bool Replayed = false) -> ServiceResponse & {
    const auto Micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - T0)
                            .count();
    Metrics.observe("request_latency_us", Micros);
    Metrics.observe(std::string("request_latency_us_") +
                        serviceEngineName(Req.Engine),
                    Micros);
    Metrics.inc(R.Ok ? "requests_ok" : "requests_error");
    if (R.Ok)
      Metrics.inc(std::string("responses_tier_") + serviceTierName(R.Tier));
    // CachedOnly answers are re-tiered replays and forced SlackOnly ones
    // may be exact replays; inserting either would poison the front cache
    // for full-admission traffic.
    if (FrontEligible && !Replayed && Mode != AdmitMode::CachedOnly &&
        !Forced)
      Front.insert(FrontKey, R);
    return R;
  };
  const auto fail = [&](ServiceErrorCode Code, const std::string &Why) {
    Resp.Ok = false;
    Resp.Code = Code;
    Resp.Error = Why;
    return finish(Resp);
  };
  // The cached rung found nothing: report Overloaded WITHOUT caching the
  // outcome, so the caller (the socket front end) sheds this request.
  const auto cacheMiss = [&]() {
    Resp.Ok = false;
    Resp.Code = ServiceErrorCode::Overloaded;
    Resp.Tier = ServiceTier::Shed;
    Resp.Error = "server overloaded and no cached schedule for this loop";
    Metrics.inc("requests_cached_only_misses");
    return finish(Resp, /*Replayed=*/true);
  };

  if (FrontEligible) {
    ServiceResponse Hit;
    if (Front.lookup(FrontKey, Hit)) {
      // Index/Id/Name are per-request echoes, not part of the answer.
      Hit.Index = Index;
      Hit.Id = Req.Id;
      Hit.Name = Req.Name.empty()
                     ? (Req.Kernel.empty() ? std::string("inline")
                                           : Req.Kernel)
                     : Req.Name;
      if (Mode == AdmitMode::CachedOnly && Hit.Ok)
        Hit.Tier = ServiceTier::Cached;
      Metrics.inc("requests_front_hits");
      if (Hit.Degraded)
        Metrics.inc("requests_degraded");
      return finish(Hit, /*Replayed=*/true);
    }
  }

  // -- Resolve the loop body (named kernel or inline DSL). ----------------
  LoopBody Body;
  if (!Req.Kernel.empty()) {
    Resp.Name = Req.Name.empty() ? Req.Kernel : Req.Name;
    const NamedKernel *Found = nullptr;
    for (const NamedKernel &K : kernelSources())
      if (Req.Kernel == K.Name)
        Found = &K;
    if (!Found)
      return fail(ServiceErrorCode::UnknownKernel,
                  "unknown kernel '" + Req.Kernel + "'");
    const std::string Err = compileLoop(Found->Source, Resp.Name, Body);
    if (!Err.empty())
      return fail(ServiceErrorCode::CompileError,
                  "kernel '" + Req.Kernel + "' failed to compile: " + Err);
  } else {
    Resp.Name = Req.Name.empty() ? "inline" : Req.Name;
    const std::string Err = compileLoop(Req.Source, Resp.Name, Body);
    if (!Err.empty())
      return fail(ServiceErrorCode::CompileError, Err);
  }

  // -- Canonicalize. Schedules are only legal relative to their body's
  // greedy functional-unit assignment (assignFunctionalUnits walks ops in
  // id order), so canonical issue cycles remap soundly to the request's
  // numbering only when the request's unit partition REFINES the canonical
  // one: any two ops sharing a request-side instance must share a
  // canonical instance, so the canonical schedule's conflict-freedom
  // carries over (splits and instance relabelings are harmless; only
  // merging two canonical instances could double-book). When it does, the
  // canonical body is scheduled and the cache is shared across every
  // compatible renumbering of the loop. When it does not, the request body
  // itself is scheduled and cached under a numbering-sensitive key,
  // trading cross-numbering sharing for soundness. Both paths are
  // deterministic, so hits, misses, and worker counts all produce
  // bit-identical responses.
  const LoopKey Key = canonicalLoopKey(Body);
  const LoopBody Canon = canonicalLoopBody(Body, Key);
  bool Equivariant = true;
  {
    const std::vector<int> InstReq =
        assignFunctionalUnits(Body, Config.Machine);
    const std::vector<int> InstCanon =
        assignFunctionalUnits(Canon, Config.Machine);
    // Induced map (kind, request instance) -> canonical instance; it must
    // be single-valued.
    std::map<std::pair<int, int>, int> Induced;
    for (const Operation &Op : Body.Ops) {
      if (Config.Machine.unitFor(Op.Opc) == FuKind::None)
        continue;
      const int Kind = static_cast<int>(Config.Machine.unitFor(Op.Opc));
      const int CanonInst = InstCanon[static_cast<size_t>(
          Key.OpPerm[static_cast<size_t>(Op.Id)])];
      const auto [It, Inserted] = Induced.try_emplace(
          {Kind, InstReq[static_cast<size_t>(Op.Id)]}, CanonInst);
      if (!Inserted && It->second != CanonInst) {
        Equivariant = false;
        break;
      }
    }
  }
  uint64_t KeyHi = Key.Hi, KeyLo = Key.Lo;
  if (!Equivariant) {
    const uint64_t Raw = rawLoopFingerprint(Body);
    KeyHi ^= Raw;
    KeyLo ^= Raw * 0x9e3779b97f4a7c15ULL;
    Metrics.inc("requests_order_bound");
  }
  const LoopBody &Target = Equivariant ? Canon : Body;
  // Only the compute branches read the target's graph, and the exact one
  // may fall through to the slack one: build it once, on first use.
  std::optional<DepGraph> TargetGraph;
  const auto targetGraph = [&]() -> const DepGraph & {
    if (!TargetGraph)
      TargetGraph.emplace(Target, Config.Machine);
    return *TargetGraph;
  };

  // The schedule tiers: the LRU, then the store, whose hit is promoted
  // into the LRU; a computed answer is written through to both.
  const auto lookup = [&](const CacheKey &K, CachedSchedule &Out) {
    if (Cache.lookup(K, Out))
      return true;
    if (!Store.get(K, Out))
      return false;
    Metrics.inc("store_hits");
    Cache.insert(K, Out);
    return true;
  };
  const auto writeThrough = [&](const CacheKey &K, const CachedSchedule &C) {
    Cache.insert(K, C);
    if (Store.put(K, C))
      Metrics.inc("store_writes");
  };

  CachedSchedule Result;
  bool HaveResult = false;
  bool NearestUsed = false;
  const bool WantExact = Req.Engine != ServiceEngine::Slack;

  if (WantExact) {
    ExactOptions EO = Config.Exact;
    switch (Req.Engine) {
    case ServiceEngine::Sat:
      EO.Engine = ExactEngineKind::Sat;
      break;
    case ServiceEngine::Portfolio:
      EO.Engine = ExactEngineKind::Portfolio;
      break;
    default:
      EO.Engine = ExactEngineKind::BranchAndBound;
      break;
    }
    if (Req.MaxII > 0) {
      EO.IICap.MaxIIFactor = 0;
      EO.IICap.MaxIISlack = Req.MaxII;
    }
    const CacheKey CK{KeyHi, KeyLo, exactAux(Config, EO)};
    // A request whose own deadline is 0 never reads the exact tiers, so
    // its answer is the slack degradation whatever the caches hold.
    HaveResult = ReqIn.DeadlineMs != 0 && lookup(CK, Result);
    // CachedOnly never computes, and a zero deadline has expired before
    // any work can happen: the degradation is wall-clock independent.
    if (!HaveResult && Mode != AdmitMode::CachedOnly && Req.DeadlineMs != 0) {
      if (Req.DeadlineMs > 0)
        EO.Deadline = T0 + std::chrono::milliseconds(Req.DeadlineMs);
      const ExactResult R = scheduleLoopExact(targetGraph(), EO);
      Result = cachedSchedule(R.Sched, R.MaxLive, R.Status, R.MaxLiveProven,
                              R.Certificate);
      // Deadline-free outcomes are deterministic under the service's fixed
      // budgets and safe to replay; with a deadline armed only a proven
      // Optimal is (an Optimal ladder never hit the deadline).
      if (Req.DeadlineMs < 0 || R.Status == ExactStatus::Optimal)
        writeThrough(CK, Result);
      HaveResult = true;
    }
    Resp.ExactVerdict = HaveResult ? Result.Status : ExactStatus::Timeout;
    if (HaveResult && !Result.Success)
      HaveResult = false; // cached Infeasible/Timeout: degrade below
  }

  if (!HaveResult) {
    // Slack path: the requested engine, or the degradation fallback.
    SchedulerOptions SO = Config.Slack;
    if (Req.MaxII > 0) {
      SO.IICap.MaxIIFactor = 0;
      SO.IICap.MaxIISlack = Req.MaxII;
    }
    const CacheKey SK{KeyHi, KeyLo, slackAux(Config, SO)};
    if (lookup(SK, Result)) {
      // the LRU or the store answered
    } else if (Mode == AdmitMode::CachedOnly) {
      // Last rung: any persisted schedule for this loop, whatever the
      // options aux it was computed under (a different engine or budget
      // configuration). Validation below still guards the answer.
      if (!Store.getByLoop(KeyHi, KeyLo, Result) || !Result.Success)
        return cacheMiss();
      Metrics.inc("store_nearest_hits");
      NearestUsed = true;
    } else {
      const Schedule S = scheduleLoop(targetGraph(), SO);
      const long MaxLive =
          S.Success
              ? computePressure(Target, S.Times, S.II, RegClass::RR).MaxLive
              : -1;
      Result = cachedSchedule(S, MaxLive,
                              S.Success ? ExactStatus::Optimal
                                        : ExactStatus::Infeasible);
      writeThrough(SK, Result);
    }
    if (WantExact) {
      Resp.Degraded = true;
      Metrics.inc("requests_degraded");
    }
    if (!Result.Success) {
      if (Mode == AdmitMode::CachedOnly)
        return cacheMiss(); // a cached failure is not an answer; shed
      return fail(ServiceErrorCode::NoSchedule,
                  WantExact
                      ? "exact engine gave up and the slack fallback found "
                        "no schedule within the II cap"
                      : "no schedule within the II cap");
    }
  }

  // The per-request cap is a hard constraint. The heuristic's ladder only
  // consults its cap when escalating — its first attempt at MII can
  // "succeed" past a cap below MII — so enforce it on the answer.
  if (Req.MaxII > 0 && Result.II > Req.MaxII)
    return fail(ServiceErrorCode::MaxIIExceeded,
                "no schedule within max_ii " + std::to_string(Req.MaxII) +
                    " (minimum initiation interval is " +
                    std::to_string(Result.MII) + ")");

  // -- Remap the schedule back to the request's numbering (the identity
  // when the request body was scheduled directly) and re-validate against
  // the request's own dependence graph. -----------------------------------
  std::vector<int> Times;
  if (Equivariant) {
    Times.resize(static_cast<size_t>(Body.numOps()));
    for (int Op = 0; Op < Body.numOps(); ++Op)
      Times[static_cast<size_t>(Op)] = Result.Times[static_cast<size_t>(
          Key.OpPerm[static_cast<size_t>(Op)])];
  } else {
    Times = Result.Times;
  }
  Schedule Check;
  Check.Success = true;
  Check.II = Result.II;
  Check.MII = Result.MII;
  Check.Times = Times;
  const DepGraph ReqGraph(Body, Config.Machine);
  const std::string V = validateSchedule(ReqGraph, Check);
  if (!V.empty()) {
    // A nearest-per-loop record can legitimately fail here (it was
    // written under a different machine/options aux): that rung simply
    // has no answer, so shed rather than report an internal error.
    if (NearestUsed)
      return cacheMiss();
    Metrics.inc("responses_validation_failures");
    return fail(ServiceErrorCode::Internal,
                "internal: remapped schedule failed validation: " + V);
  }

  Resp.Ok = true;
  Resp.Tier = Mode == AdmitMode::CachedOnly
                  ? ServiceTier::Cached
                  : (WantExact && !Resp.Degraded ? ServiceTier::Exact
                                                 : ServiceTier::Slack);
  Resp.II = Result.II;
  Resp.MII = Result.MII;
  Resp.ResMII = Result.ResMII;
  Resp.RecMII = Result.RecMII;
  Resp.Length = Times[1]; // Stop is operation 1 in every numbering
  Resp.MaxLive = Result.MaxLive;
  // Degraded responses carry the slack schedule, whose pressure is never
  // certified (the slack cache entry always has Certificate None).
  Resp.MaxLiveProven = Result.MaxLiveProven;
  Resp.Certificate = Result.Certificate;
  if (Req.EmitTimes)
    Resp.Times = std::move(Times);
  return finish(Resp);
}

bool SchedulingService::parseRequestLine(const std::string &Line,
                                         ServiceRequest &Out,
                                         std::string &Err,
                                         ServiceEngine DefaultEngine) {
  std::map<std::string, JsonScalar> Obj;
  if (!parseFlatJsonObject(Line, Obj, Err))
    return false;
  Out = ServiceRequest();
  Out.Engine = DefaultEngine;
  const auto takeString = [&](const char *Field, std::string &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::String) {
      Err = std::string("field \"") + Field + "\" must be a string";
      return false;
    }
    Dst = It->second.S;
    Obj.erase(It);
    return true;
  };
  const auto takeInteger = [&](const char *Field, long &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::Number ||
        It->second.N != static_cast<double>(static_cast<long>(It->second.N))) {
      Err = std::string("field \"") + Field + "\" must be an integer";
      return false;
    }
    Dst = static_cast<long>(It->second.N);
    Obj.erase(It);
    return true;
  };
  const auto takeBool = [&](const char *Field, bool &Dst) {
    const auto It = Obj.find(Field);
    if (It == Obj.end())
      return true;
    if (It->second.K != JsonScalar::Bool) {
      Err = std::string("field \"") + Field + "\" must be a boolean";
      return false;
    }
    Dst = It->second.B;
    Obj.erase(It);
    return true;
  };

  std::string EngineName;
  long MaxII = 0;
  if (!takeString("id", Out.Id) || !takeString("name", Out.Name) ||
      !takeString("kernel", Out.Kernel) || !takeString("source", Out.Source) ||
      !takeString("engine", EngineName) ||
      !takeInteger("deadline_ms", Out.DeadlineMs) ||
      !takeInteger("max_ii", MaxII) || !takeBool("emit_times", Out.EmitTimes))
    return false;
  if (!Obj.empty()) {
    Err = "unknown field \"" + Obj.begin()->first + "\"";
    return false;
  }
  if (!EngineName.empty() && !parseServiceEngine(EngineName, Out.Engine)) {
    Err = "unknown engine \"" + EngineName +
          "\" (expected slack, bnb, sat, or portfolio)";
    return false;
  }
  if (Out.Kernel.empty() == Out.Source.empty()) {
    Err = Out.Kernel.empty()
              ? "request needs exactly one of \"kernel\" or \"source\""
              : "request may not set both \"kernel\" and \"source\"";
    return false;
  }
  if (MaxII < 0) {
    Err = "field \"max_ii\" must be non-negative";
    return false;
  }
  Out.MaxII = static_cast<int>(MaxII);
  return true;
}

ServiceResponse SchedulingService::handleLine(const std::string &Line,
                                              int Index,
                                              ServiceEngine DefaultEngine,
                                              AdmitMode Mode) {
  ServiceRequest Req;
  std::string Err;
  if (parseRequestLine(Line, Req, Err, DefaultEngine))
    return handle(Req, Index, Mode);
  ServiceResponse Resp;
  Resp.Index = Index;
  Resp.Name = "invalid";
  Resp.Code = ServiceErrorCode::BadRequest;
  Resp.Error = "bad request: " + Err;
  Metrics.inc("requests_parse_errors");
  return Resp;
}

bool SchedulingService::handleLineCachedOnly(const std::string &Line,
                                             int Index,
                                             ServiceEngine DefaultEngine,
                                             ServiceResponse &Out) {
  Out = handleLine(Line, Index, DefaultEngine, AdmitMode::CachedOnly);
  // Parse errors and other request-level failures ARE answers; only the
  // ladder-exhausted Overloaded outcome means "nothing cached, shed me".
  return Out.Ok || Out.Code != ServiceErrorCode::Overloaded;
}

int SchedulingService::processJsonl(std::istream &In, std::ostream &Out,
                                    ServiceEngine DefaultEngine) {
  std::vector<std::string> Batch;
  std::string Line;
  while (std::getline(In, Line)) {
    const size_t FirstCh = Line.find_first_not_of(" \t\r");
    if (FirstCh == std::string::npos || Line[FirstCh] == '#')
      continue;
    Batch.push_back(Line);
  }

  std::vector<ServiceResponse> Responses(Batch.size());
  parallelFor(Jobs, static_cast<int>(Batch.size()), [&](int I) {
    Responses[static_cast<size_t>(I)] =
        handleLine(Batch[static_cast<size_t>(I)], I, DefaultEngine);
  });

  int Failures = 0;
  for (const ServiceResponse &R : Responses) {
    Out << R.toJsonl() << '\n';
    if (!R.Ok)
      ++Failures;
  }
  return Failures;
}

namespace {

void appendCacheJson(std::ostream &OS, const ScheduleCache::Stats &S,
                     size_t Capacity, int Shards) {
  char HitRate[32];
  std::snprintf(HitRate, sizeof(HitRate), "%.4f", S.hitRate());
  OS << "{\"capacity\": " << Capacity << ", \"shards\": " << Shards
     << ", \"entries\": " << S.Entries << ", \"hits\": " << S.Hits
     << ", \"misses\": " << S.Misses << ", \"evictions\": " << S.Evictions
     << ", \"insertions\": " << S.Insertions << ", \"hit_rate\": " << HitRate
     << '}';
}

void appendStoreJson(std::ostream &OS, bool Open,
                     const ScheduleStoreStats &S) {
  char HitRate[32];
  std::snprintf(HitRate, sizeof(HitRate), "%.4f", S.hitRate());
  OS << "{\"open\": " << (Open ? "true" : "false") << ", \"hits\": " << S.Hits
     << ", \"misses\": " << S.Misses << ", \"appends\": " << S.Appends
     << ", \"live_keys\": " << S.LiveKeys
     << ", \"recovered_records\": " << S.RecoveredRecords
     << ", \"truncated_bytes\": " << S.TruncatedBytes
     << ", \"torn_records\": " << S.TornRecords
     << ", \"compactions\": " << S.Compactions
     << ", \"log_bytes\": " << S.LogBytes
     << ", \"dead_bytes\": " << S.DeadBytes << ", \"hit_rate\": " << HitRate
     << '}';
}

} // namespace

std::string SchedulingService::metricsJson(bool Pretty) const {
  const char *Sep = Pretty ? ",\n  " : ", ";
  std::ostringstream OS;
  OS << "{" << (Pretty ? "\n  " : "") << "\"jobs\": " << Jobs << Sep
     << "\"cache\": ";
  appendCacheJson(OS, Cache.stats(), Cache.capacity(), Cache.shards());
  OS << Sep << "\"front_cache\": ";
  appendCacheJson(OS, Front.stats(), Front.capacity(), Front.shards());
  OS << Sep << "\"store\": ";
  appendStoreJson(OS, Store.isOpen(), Store.stats());
  OS << Sep << "\"metrics\": " << Metrics.toJson(Pretty) << "}"
     << (Pretty ? "\n" : "");
  return OS.str();
}
