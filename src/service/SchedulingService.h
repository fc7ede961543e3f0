//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived scheduling service: a batched request pipeline over the
/// slack heuristic and the exact engines, with canonical-loop memoization,
/// per-request deadlines, and metrics.
///
/// Requests arrive as JSONL lines (inline DSL source or a named suite
/// kernel, an engine selection, optional deadline and II cap). The service
/// owns no thread: handle() runs on its caller, processJsonl fans a batch
/// out over Jobs threads for the length of the call, and the socket front
/// end (net/EpollServer.h) calls handleLine() from its own Jobs workers.
/// Every request is first canonicalized (service/LoopKey.h); the service
/// schedules the CANONICAL body and remaps issue cycles back to the
/// request's numbering, so a cache hit and a cache miss produce
/// bit-identical responses and the whole response stream is byte-identical
/// at every worker count.
///
/// Robustness: an exact request that misses its wall-clock deadline or
/// exhausts its engine budget degrades to the slack heuristic and says so
/// (degraded=true); the response is still validator-clean. Determinism
/// caveat: the degradation decision for a request WITH a deadline depends
/// on wall-clock time; requests without deadlines (the bench and the
/// byte-identity tests) are fully deterministic, because budget-driven
/// timeouts are part of the engines' deterministic contract.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_SERVICE_SCHEDULINGSERVICE_H
#define LSMS_SERVICE_SCHEDULINGSERVICE_H

#include "core/SchedulerOptions.h"
#include "exact/ExactEngine.h"
#include "machine/MachineModel.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "service/ScheduleCache.h"
#include "store/ScheduleStore.h"

#include <atomic>
#include <condition_variable>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace lsms {

/// How far down the overload ladder a request is admitted. Full runs the
/// requested engine; SlackOnly forces the exact→slack degradation without
/// touching an exact engine (a cached exact answer still serves);
/// CachedOnly answers purely from the front cache / LRU / store
/// (including the nearest-per-loop rung) and never computes — cheap
/// enough that the socket front end runs it inline on the IO thread.
enum class AdmitMode : uint8_t { Full, SlackOnly, CachedOnly };

/// One scheduling request. Exactly one of Kernel/Source must be set.
struct ServiceRequest {
  std::string Id;     ///< client tag, echoed back verbatim when non-empty
  std::string Name;   ///< display name (defaults: kernel name / "inline")
  std::string Kernel; ///< a named kernel from workloads/Suite.h, or
  std::string Source; ///< inline loop-DSL source
  ServiceEngine Engine = ServiceEngine::Slack;
  /// Wall-clock deadline for exact engines, in milliseconds from request
  /// start: < 0 means none; 0 means already expired: the request always
  /// degrades to the slack answer without reading the exact cache tiers,
  /// so the answer does not depend on what earlier requests cached.
  long DeadlineMs = -1;
  /// When > 0, an absolute II cap replacing the configured IICapPolicy.
  int MaxII = 0;
  /// Include per-operation issue cycles (request numbering) in the
  /// response.
  bool EmitTimes = false;
};

/// One response, serialized as a single JSONL line by toJsonl(). Contains
/// no wall-clock or cache-state fields: for deadline-free requests the
/// line is a pure function of the request, whatever the worker count and
/// whatever the cache held.
struct ServiceResponse {
  int Index = -1; ///< position in the batch / request stream
  std::string Id;
  std::string Name;
  bool Ok = false;
  std::string Error;
  ServiceEngine Engine = ServiceEngine::Slack; ///< engine requested
  /// The overload-ladder rung that produced the answer (wire field
  /// "tier"): Exact for an undegraded exact answer, Slack for the
  /// heuristic (requested or degraded-to), Cached for answers served
  /// under overload without running any engine.
  ServiceTier Tier = ServiceTier::Slack;
  /// Machine-readable failure code (wire field "error_code"); None on
  /// success.
  ServiceErrorCode Code = ServiceErrorCode::None;
  /// True when an exact request fell back to the slack heuristic
  /// (deadline missed, engine budget exhausted, or exact-infeasible under
  /// the II cap). The schedule below is then the slack schedule.
  bool Degraded = false;
  /// Exact-engine verdict (pre-degradation); Optimal for untroubled exact
  /// runs, meaningless for Engine == Slack.
  ExactStatus ExactVerdict = ExactStatus::Timeout;
  int II = 0;
  int MII = 0;
  int ResMII = 0;
  int RecMII = 0;
  int Length = 0;    ///< schedule length (Stop issue time)
  long MaxLive = -1; ///< RR register pressure of the returned schedule
  /// True when MaxLive is certified minimal (MinAvg bound met or family
  /// minimality proven); only exact engines with pressure minimization
  /// configured ever set it, and degradation clears it.
  bool MaxLiveProven = false;
  /// The proof kind behind MaxLiveProven.
  MaxLiveCertificate Certificate = MaxLiveCertificate::None;
  std::vector<int> Times; ///< issue cycles, request numbering (EmitTimes)

  std::string toJsonl() const;
};

/// Service-wide configuration.
struct ServiceConfig {
  /// The service's one job count: the threads processJsonl fans a batch
  /// out over (1 = inline on the caller) and the workers a socket front
  /// end starts; 0 = LSMS_JOBS or the hardware count.
  int Jobs = 0;
  size_t CacheCapacity = 4096;
  int CacheShards = 8;
  /// Capacity of the request-level front cache (fully-rendered responses
  /// keyed by payload text + options; the fast path for byte-identical
  /// resubmissions, skipping parse/canonicalize/validate entirely).
  size_t FrontCacheCapacity = 4096;
  /// The target machine. No tool sets it, but the benchmark harness reads
  /// it to build the graphs the service builds.
  MachineModel Machine = MachineModel::cydra5();
  SchedulerOptions Slack;
  /// Base exact options; Engine is overridden per request, Deadline per
  /// request from DeadlineMs.
  ExactOptions Exact;
  /// When non-empty, an append-only persistent schedule store (see
  /// store/ScheduleStore.h) is mounted at this path as the cache tier
  /// below the in-memory LRU: schedule-tier misses consult it before
  /// computing, and every cache-eligible result is written through, so
  /// warm state survives restarts. Open failures disable the store and
  /// are reported by storeError().
  std::string StorePath;
};

/// The service. Thread-safe: handle() may be called concurrently. Every
/// remapped schedule is re-validated against the request's own dependence
/// graph before it is returned (cheap; guards the cache's canonical remap
/// against fingerprint collisions).
class SchedulingService {
public:
  explicit SchedulingService(ServiceConfig Config = ServiceConfig());
  ~SchedulingService();
  SchedulingService(const SchedulingService &) = delete;
  SchedulingService &operator=(const SchedulingService &) = delete;

  /// Handles one request synchronously on the calling thread. \p Mode
  /// selects the overload-ladder rung (see AdmitMode); Full is the normal
  /// path.
  ServiceResponse handle(const ServiceRequest &Request, int Index = 0,
                         AdmitMode Mode = AdmitMode::Full);

  /// Parses one JSONL request line and handles it; malformed lines become
  /// the same error responses processJsonl emits. This is the unit of work
  /// the socket front end (net/EpollServer.h) dispatches per request, so
  /// the wire path and the JSONL pipe produce byte-identical responses for
  /// identical lines.
  ServiceResponse
  handleLine(const std::string &Line, int Index,
             ServiceEngine DefaultEngine = ServiceEngine::Slack,
             AdmitMode Mode = AdmitMode::Full);

  /// The cached rung of the overload ladder: answers \p Line without
  /// running any engine (parse errors, front-cache hits, LRU/store hits,
  /// and the nearest-per-loop store lookup all count as answers). Returns
  /// false — and leaves \p Out meaningless — when no cached answer
  /// exists, in which case the caller sheds. Cheap enough to run inline
  /// on the socket IO thread.
  bool handleLineCachedOnly(const std::string &Line, int Index,
                            ServiceEngine DefaultEngine,
                            ServiceResponse &Out);

  /// Parses one JSONL request line. Returns false with a diagnostic on
  /// malformed JSON, unknown fields, or a missing/ambiguous loop payload.
  /// A request without an "engine" field gets \p DefaultEngine.
  static bool
  parseRequestLine(const std::string &Line, ServiceRequest &Out,
                   std::string &Err,
                   ServiceEngine DefaultEngine = ServiceEngine::Slack);

  /// Reads JSONL requests from \p In (blank lines and '#' comments are
  /// skipped), schedules them as one batch on jobs() threads, and writes
  /// one response line per request to \p Out in request order. Returns the
  /// number of non-Ok responses.
  int processJsonl(std::istream &In, std::ostream &Out,
                   ServiceEngine DefaultEngine = ServiceEngine::Slack);

  /// Stops admission: accepting() turns false. Requests already inside
  /// handle() keep running; new callers are expected to check accepting()
  /// first (the socket front end sheds instead of submitting).
  void beginDrain();

  /// True until beginDrain()/drain() is called.
  bool accepting() const;

  /// beginDrain() plus a blocking wait until every in-flight handle()
  /// call (and therefore every batch) has completed, so each admitted
  /// request's response exists before the store closes. The destructor
  /// drains before closing the store; servers drain on SIGTERM so no
  /// admitted request is dropped.
  void drain();

  const ServiceConfig &config() const { return Config; }
  int jobs() const { return Jobs; }
  ScheduleCache::Stats cacheStats() const { return Cache.stats(); }
  ScheduleCache::Stats frontCacheStats() const { return Front.stats(); }
  MetricsRegistry &metrics() { return Metrics; }

  /// True when the persistent store is mounted and healthy.
  bool storeOpen() const { return Store.isOpen(); }
  /// The open failure that disabled the store ("" when none).
  const std::string &storeError() const { return StoreOpenError; }
  ScheduleStoreStats storeStats() const { return Store.stats(); }

  /// Counters, gauges, latency histograms, cache and store statistics as
  /// one JSON document; \p Pretty selects the indented CLI form, false the
  /// single-line wire form.
  std::string metricsJson(bool Pretty = true) const;

private:
  /// RAII in-flight accounting for drain().
  class InFlightGuard;

  ServiceConfig Config;
  int Jobs;
  ScheduleCache Cache;
  /// Request-level memo: rendered responses keyed by raw payload text.
  /// Deadline-armed (DeadlineMs > 0) requests bypass it, and CachedOnly
  /// replays and forced SlackOnly answers never enter it, so every entry
  /// is a pure function of the request and replays are bit-exact.
  ShardedLruCache<ServiceResponse> Front;
  /// The persistent tier below the LRU (unmounted when StorePath is "").
  ScheduleStore Store;
  std::string StoreOpenError;
  MetricsRegistry Metrics;

  std::atomic<bool> Draining{false};
  std::atomic<long> InFlight{0};
  mutable std::mutex DrainMu;
  std::condition_variable DrainCV;
};

} // namespace lsms

#endif // LSMS_SERVICE_SCHEDULINGSERVICE_H
