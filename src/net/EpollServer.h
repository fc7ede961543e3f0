//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free epoll socket front end for the scheduling service.
///
/// Framing is newline-delimited JSONL — byte-compatible with the stdin
/// pipe (SchedulingService::processJsonl): each request line on a
/// connection gets exactly one response line, in request order, and the
/// response bytes for a given line are identical to what the pipe would
/// emit for the same line at the same stream index. Blank lines and '#'
/// comments are skipped without a response, exactly like the pipe. All
/// lines follow the versioned wire protocol (service/Protocol.h).
///
/// Threading: IoShards independent IO event loops, each bound to the same
/// port through SO_REUSEPORT so the kernel spreads incoming connections
/// across them. Each shard owns its listener, epoll instance, eventfd,
/// and every buffer of every connection it accepted — no connection state
/// is ever shared between shards, so per-connection response ordering and
/// byte-identity are exactly the single-thread story. One fixed set of
/// Service.jobs() worker threads, started by start(), runs
/// SchedulingService::handleLine() for all shards; completions are routed
/// back to the owning shard's completion list and eventfd. IoShards = 1
/// degenerates to the classic one-IO-thread server (and skips SO_REUSEPORT
/// so the port stays exclusively bound).
///
/// Overload ladder: requests are classified at admission. While the
/// shared queue is below MaxQueueDepth they run at full fidelity; between
/// MaxQueueDepth and MaxQueueDepth + SlackQueueDepth they are admitted
/// SlackOnly (exact requests degrade deterministically to the slack
/// heuristic, "tier":"slack"); past that, with CachedFallback on, the IO
/// thread answers from the cache/store without computing
/// ("tier":"cached"); only when even the cached rung has no answer is the
/// request shed with a structured shed line (status "shed", error_code
/// "overloaded", echoing the request id when parseable). Connections
/// beyond MaxConnections are accepted and closed. Idle connections are
/// closed after IdleTimeoutMs (counter net_idle_closed).
///
/// Shutdown: requestStop() is async-signal-safe (atomic store + one
/// eventfd write per shard; call it from a SIGTERM handler). Each shard
/// then closes its listener and drains: existing connections are served
/// until the client half-closes, force-closed at DrainTimeoutMs; then the
/// workers finish the queue and join, so every admitted request was
/// answered or its connection provably went away.
///
/// Control lines: a line whose JSON object has a "cmd" field addresses
/// the server, not the scheduler. {"cmd":"metrics"} returns the
/// service's full metrics document (counters, gauges, histograms, cache
/// and store statistics) as one line. {"cmd":"sleep_ms","ms":N} occupies
/// a worker for N ms — a test hook, rejected unless EnableTestCommands.
///
//===----------------------------------------------------------------------===//

#ifndef LSMS_NET_EPOLLSERVER_H
#define LSMS_NET_EPOLLSERVER_H

#include "service/SchedulingService.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lsms {

/// Socket front-end configuration.
struct ServerConfig {
  /// IPv4 address to bind; tests and the bench use the loopback default.
  std::string BindAddress = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
  uint16_t Port = 0;
  int Backlog = 128;
  /// Independent SO_REUSEPORT-sharded IO event loops; each owns its
  /// accepted connections end to end. 1 = the single-IO-thread front end.
  int IoShards = 1;
  /// Full-fidelity admission bound: requests arriving while the queue
  /// holds this many jobs enter the overload ladder instead.
  size_t MaxQueueDepth = 1024;
  /// Slack rung of the ladder: requests arriving with the queue between
  /// MaxQueueDepth and MaxQueueDepth + SlackQueueDepth are admitted
  /// SlackOnly (exact engines degrade deterministically). 0 disables the
  /// rung (legacy shed-at-MaxQueueDepth behavior).
  size_t SlackQueueDepth = 1024;
  /// Cached rung of the ladder: when both queue rungs are full, answer
  /// from the cache/store on the IO thread (no computation) and only
  /// shed on a total miss. false = shed as soon as the queues are full.
  bool CachedFallback = true;
  /// Connections beyond this are accepted and immediately closed.
  int MaxConnections = 1024;
  /// Close a connection with no traffic and no in-flight work after this
  /// many milliseconds; < 0 disables the deadline (schedule_server sets
  /// a 60 s default for real deployments).
  long IdleTimeoutMs = -1;
  /// Force-close connections still open this long after requestStop().
  long DrainTimeoutMs = 5000;
  /// Close a connection whose un-read responses exceed this many bytes
  /// (a pipelining client that never reads).
  size_t MaxWriteBufferBytes = 16u << 20;
  /// Engine for request lines without an "engine" field (mirrors the
  /// processJsonl parameter, so the two paths stay byte-identical).
  ServiceEngine DefaultEngine = ServiceEngine::Slack;
  /// Accept {"cmd":"sleep_ms"} (tests only; keeps a worker busy on cue).
  bool EnableTestCommands = false;
};

/// The epoll front end. One instance serves one SchedulingService; the
/// service outlives the server and is not drained by it (stopping the
/// server leaves the service usable).
class EpollServer {
public:
  explicit EpollServer(SchedulingService &Service,
                       ServerConfig Config = ServerConfig());
  ~EpollServer();
  EpollServer(const EpollServer &) = delete;
  EpollServer &operator=(const EpollServer &) = delete;

  /// Binds every shard's listener, creates the epoll instances, and
  /// spawns the service's jobs() workers. Returns false with a diagnostic
  /// on any syscall failure.
  bool start(std::string &Err);

  /// The bound port (the kernel's pick when Config.Port was 0; every
  /// shard listens on it).
  uint16_t port() const { return BoundPort; }

  /// Runs shard 0's IO loop on the calling thread (spawning one thread
  /// per additional shard) until requestStop() and the subsequent drain
  /// complete. Returns immediately if start() failed or was never called.
  void serve();

  /// Initiates shutdown. Async-signal-safe: an atomic store plus one
  /// eventfd write per shard, callable straight from a SIGTERM handler.
  void requestStop();

  /// True between a successful start() and the end of serve().
  bool running() const { return Running.load(std::memory_order_acquire); }

private:
  struct Conn;
  struct Job;
  struct Completion;

  /// One independent IO event loop: listener, epoll, wake eventfd, and
  /// all state of the connections it accepted.
  struct Shard {
    int Index = 0;
    int ListenFd = -1;
    int EpollFd = -1;
    int WakeFd = -1;
    std::unordered_map<int, std::unique_ptr<Conn>> Conns;
    uint64_t NextConnGen = 1;
    std::mutex CompletionMu;
    std::vector<Completion> Completions;
    bool Draining = false;
    int64_t DrainDeadlineMs = 0;
  };

  bool startShard(Shard &S, uint16_t BindPort, std::string &Err);
  void ioLoop(Shard &S);
  void acceptPending(Shard &S);
  void readConn(Shard &S, Conn &C);
  void writeConn(Conn &C);
  void onLine(Shard &S, Conn &C, std::string Line);
  void completeLocal(Shard &S, Conn &C, uint64_t Seq, std::string Bytes);
  void flushReady(Conn &C);
  void deliverCompletions(Shard &S);
  void maybeFinish(Conn &C);
  void updateEpoll(Shard &S, Conn &C);
  void closeConn(Shard &S, int Fd);
  void closeAllConns(Shard &S);
  void scanIdle(Shard &S, int64_t NowMs);
  void beginDrainIO(Shard &S);
  void stopWorkers();
  void workerLoop();

  SchedulingService &Service;
  ServerConfig Config;
  uint16_t BoundPort = 0;

  std::vector<std::unique_ptr<Shard>> Shards;
  /// Shard eventfds, frozen after start(): requestStop() walks this from
  /// signal context, so it must never reallocate.
  std::vector<int> WakeFds;
  /// Connections across all shards, for the MaxConnections cap and the
  /// net_active_connections gauge.
  std::atomic<int> ActiveConns{0};

  std::mutex QueueMu;
  std::condition_variable QueueCV;
  std::deque<Job> Queue;
  bool WorkersStop = false;
  std::vector<std::thread> Workers;

  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Running{false};
};

} // namespace lsms

#endif // LSMS_NET_EPOLLSERVER_H
