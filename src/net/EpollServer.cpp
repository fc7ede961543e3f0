#include "net/EpollServer.h"

#include "service/Json.h"
#include "service/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace lsms;

namespace {

/// Longest request line the server will buffer before declaring the
/// connection broken (a client that never sends '\n').
constexpr size_t MaxLineBytes = 1u << 20;

int64_t steadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t steadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void wakeEventFd(int Fd) {
  const uint64_t One = 1;
  ssize_t Unused = ::write(Fd, &One, sizeof(One));
  (void)Unused;
}

} // namespace

/// One accepted connection; owned by exactly one shard's IO thread. Gen
/// guards worker completions against fd reuse after a close.
struct EpollServer::Conn {
  int Fd = -1;
  uint64_t Gen = 0;
  std::string In;   ///< bytes read, possibly ending mid-line
  std::string Out;  ///< ordered response bytes not yet written
  size_t OutOff = 0;
  uint64_t NextSeq = 0;      ///< next request index to assign
  uint64_t NextWriteSeq = 0; ///< next response index to flush into Out
  std::map<uint64_t, std::string> Done; ///< completed, waiting for order
  uint64_t InFlightJobs = 0;
  bool PeerClosed = false; ///< read side saw EOF
  bool WantWrite = false;  ///< EPOLLOUT currently armed
  bool Doomed = false;     ///< close at the next safe point
  int64_t LastActiveMs = 0;
};

struct EpollServer::Job {
  int ShardIdx = 0;
  int Fd = -1;
  uint64_t Gen = 0;
  uint64_t Seq = 0;
  long SleepMs = -1; ///< >= 0: test command, sleep instead of schedule
  AdmitMode Mode = AdmitMode::Full; ///< overload-ladder rung at admission
  std::string Line;
  int64_t EnqueuedUs = 0;
};

struct EpollServer::Completion {
  int Fd = -1;
  uint64_t Gen = 0;
  uint64_t Seq = 0;
  std::string Bytes;
};

EpollServer::EpollServer(SchedulingService &Service, ServerConfig Config)
    : Service(Service), Config(std::move(Config)) {}

EpollServer::~EpollServer() {
  requestStop();
  stopWorkers();
  for (const auto &S : Shards) {
    closeAllConns(*S);
    if (S->ListenFd >= 0)
      ::close(S->ListenFd);
    if (S->EpollFd >= 0)
      ::close(S->EpollFd);
    if (S->WakeFd >= 0)
      ::close(S->WakeFd);
  }
}

bool EpollServer::startShard(Shard &S, uint16_t BindPort, std::string &Err) {
  S.WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (S.WakeFd < 0) {
    Err = std::string("eventfd: ") + std::strerror(errno);
    return false;
  }
  S.EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (S.EpollFd < 0) {
    Err = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  S.ListenFd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (S.ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int One = 1;
  ::setsockopt(S.ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  // Sharding relies on the kernel's SO_REUSEPORT connection spreading;
  // single-shard servers skip it so the port stays exclusively theirs.
  if (static_cast<int>(Shards.size()) > 1 &&
      ::setsockopt(S.ListenFd, SOL_SOCKET, SO_REUSEPORT, &One,
                   sizeof(One)) < 0) {
    Err = std::string("setsockopt(SO_REUSEPORT): ") + std::strerror(errno);
    return false;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(BindPort);
  if (::inet_pton(AF_INET, Config.BindAddress.c_str(), &Addr.sin_addr) != 1) {
    Err = "bad bind address \"" + Config.BindAddress + "\"";
    return false;
  }
  if (::bind(S.ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Err = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(S.ListenFd, Config.Backlog) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(S.ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) <
      0) {
    Err = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  if (BoundPort == 0)
    BoundPort = ntohs(Addr.sin_port);

  epoll_event E{};
  E.events = EPOLLIN;
  E.data.fd = S.ListenFd;
  if (::epoll_ctl(S.EpollFd, EPOLL_CTL_ADD, S.ListenFd, &E) < 0) {
    Err = std::string("epoll_ctl(listen): ") + std::strerror(errno);
    return false;
  }
  E.data.fd = S.WakeFd;
  if (::epoll_ctl(S.EpollFd, EPOLL_CTL_ADD, S.WakeFd, &E) < 0) {
    Err = std::string("epoll_ctl(wake): ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool EpollServer::start(std::string &Err) {
  const int NumShards = std::max(1, Config.IoShards);
  Shards.reserve(static_cast<size_t>(NumShards));
  for (int I = 0; I < NumShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    Shards.push_back(std::move(S));
  }
  // Shard 0 discovers the port (the kernel's pick when Config.Port is 0);
  // the remaining shards bind the discovered port through SO_REUSEPORT.
  for (auto &S : Shards)
    if (!startShard(*S, S->Index == 0 ? Config.Port : BoundPort, Err))
      return false;
  WakeFds.reserve(Shards.size());
  for (const auto &S : Shards)
    WakeFds.push_back(S->WakeFd);

  Workers.reserve(static_cast<size_t>(Service.jobs()));
  for (int I = 0; I < Service.jobs(); ++I)
    Workers.emplace_back([this] { workerLoop(); });
  Running.store(true, std::memory_order_release);
  return true;
}

void EpollServer::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  for (const int Fd : WakeFds)
    if (Fd >= 0)
      wakeEventFd(Fd);
}

void EpollServer::serve() {
  if (Shards.empty() || Shards[0]->EpollFd < 0)
    return;
  {
    std::vector<std::thread> IoThreads;
    IoThreads.reserve(Shards.size() - 1);
    for (size_t I = 1; I < Shards.size(); ++I)
      IoThreads.emplace_back([this, I] { ioLoop(*Shards[I]); });
    ioLoop(*Shards[0]);
    for (std::thread &T : IoThreads)
      T.join();
  }
  stopWorkers();
  for (auto &S : Shards) {
    {
      std::lock_guard<std::mutex> Lock(S->CompletionMu);
      S->Completions.clear(); // their connections are gone
    }
    closeAllConns(*S);
  }
  Running.store(false, std::memory_order_release);
}

void EpollServer::ioLoop(Shard &S) {
  epoll_event Events[64];
  while (true) {
    if (StopRequested.load(std::memory_order_acquire) && !S.Draining)
      beginDrainIO(S);
    if (S.Draining) {
      if (S.Conns.empty())
        break;
      if (steadyMs() >= S.DrainDeadlineMs) {
        Service.metrics().inc("net_drain_forced",
                              static_cast<long>(S.Conns.size()));
        closeAllConns(S);
        break;
      }
    }

    int TimeoutMs = -1;
    if (S.Draining)
      TimeoutMs = static_cast<int>(std::clamp<int64_t>(
          S.DrainDeadlineMs - steadyMs(), 0, 100));
    else if (Config.IdleTimeoutMs > 0)
      TimeoutMs = 100;

    const int N = ::epoll_wait(S.EpollFd, Events, 64, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < N; ++I) {
      const epoll_event &E = Events[I];
      const int Fd = E.data.fd;
      if (Fd == S.WakeFd) {
        uint64_t Buf;
        while (::read(S.WakeFd, &Buf, sizeof(Buf)) > 0) {
        }
        deliverCompletions(S);
        continue;
      }
      if (Fd == S.ListenFd) {
        acceptPending(S);
        continue;
      }
      const auto It = S.Conns.find(Fd);
      if (It == S.Conns.end())
        continue;
      Conn &C = *It->second;
      if (E.events & EPOLLERR) {
        closeConn(S, Fd);
        continue;
      }
      if (E.events & EPOLLIN)
        readConn(S, C);
      if (!C.Doomed && (E.events & EPOLLOUT)) {
        writeConn(C);
        updateEpoll(S, C);
        maybeFinish(C);
      }
      if (!C.Doomed && (E.events & EPOLLHUP))
        C.Doomed = true; // both directions gone; responses undeliverable
      if (C.Doomed)
        closeConn(S, Fd);
    }
    if (!S.Draining && Config.IdleTimeoutMs > 0)
      scanIdle(S, steadyMs());
  }
}

void EpollServer::acceptPending(Shard &S) {
  while (true) {
    const int Fd =
        ::accept4(S.ListenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN or a transient accept failure; epoll re-arms
    }
    if (S.Draining ||
        ActiveConns.load(std::memory_order_relaxed) >= Config.MaxConnections) {
      // Count before the close the client sees, so its next metrics
      // request already includes this rejection.
      Service.metrics().inc("net_rejected");
      ::close(Fd);
      continue;
    }
    const int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    C->Gen = S.NextConnGen++;
    C->LastActiveMs = steadyMs();
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.fd = Fd;
    if (::epoll_ctl(S.EpollFd, EPOLL_CTL_ADD, Fd, &E) < 0) {
      ::close(Fd);
      continue;
    }
    S.Conns.emplace(Fd, std::move(C));
    Service.metrics().inc("net_accepted");
    Service.metrics().set(
        "net_active_connections",
        ActiveConns.fetch_add(1, std::memory_order_relaxed) + 1);
  }
}

void EpollServer::readConn(Shard &S, Conn &C) {
  char Buf[65536];
  while (true) {
    const ssize_t R = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (R > 0) {
      C.In.append(Buf, static_cast<size_t>(R));
      C.LastActiveMs = steadyMs();
      if (static_cast<size_t>(R) < sizeof(Buf))
        break; // short read: the socket is drained
      continue;
    }
    if (R == 0) {
      C.PeerClosed = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    C.Doomed = true;
    return;
  }

  size_t Start = 0;
  for (size_t NL; (NL = C.In.find('\n', Start)) != std::string::npos;
       Start = NL + 1) {
    std::string Line = C.In.substr(Start, NL - Start);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    onLine(S, C, std::move(Line));
  }
  C.In.erase(0, Start);
  if (C.In.size() > MaxLineBytes) {
    Service.metrics().inc("net_overlong_lines");
    C.Doomed = true;
    return;
  }
  writeConn(C);
  updateEpoll(S, C);
  maybeFinish(C);
}

void EpollServer::onLine(Shard &S, Conn &C, std::string Line) {
  const size_t FirstCh = Line.find_first_not_of(" \t\r");
  if (FirstCh == std::string::npos || Line[FirstCh] == '#')
    return; // same skip rule as processJsonl: no index, no response
  const uint64_t Seq = C.NextSeq++;
  ++C.InFlightJobs;
  Service.metrics().inc("net_requests");

  long SleepMs = -1;
  if (Line.find("\"cmd\"") != std::string::npos) {
    std::map<std::string, JsonScalar> Obj;
    std::string Err;
    if (parseFlatJsonObject(Line, Obj, Err)) {
      const auto CmdIt = Obj.find("cmd");
      if (CmdIt != Obj.end() && CmdIt->second.K == JsonScalar::String) {
        const std::string &Cmd = CmdIt->second.S;
        if (Cmd == "metrics") {
          Service.metrics().inc("net_control");
          completeLocal(S, C, Seq, Service.metricsJson(false) + "\n");
          return;
        }
        if (Cmd == "sleep_ms" && Config.EnableTestCommands) {
          Service.metrics().inc("net_control");
          const auto MsIt = Obj.find("ms");
          SleepMs = (MsIt != Obj.end() && MsIt->second.K == JsonScalar::Number)
                        ? static_cast<long>(MsIt->second.N)
                        : 0;
          Line.clear(); // the worker only needs SleepMs
        } else {
          completeLocal(S, C, Seq,
                        renderControlErrorLine(
                            Seq, ServiceErrorCode::UnknownCommand,
                            "unknown cmd \"" + Cmd + "\"") +
                            "\n");
          return;
        }
      }
      // No top-level "cmd": an ordinary request whose payload happens to
      // contain the substring; dispatch it like any other line.
    }
    // Unparseable lines also fall through: handleLine() renders the same
    // parse error the JSONL pipe would.
  }

  // Overload ladder, rung by rung: Full while the queue is healthy,
  // SlackOnly in the overflow band, then the cached rung inline on this
  // IO thread, and only then a shed.
  int Admitted = -1; // 0 = Full, 1 = SlackOnly
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    const size_t Depth = Queue.size();
    if (Depth < Config.MaxQueueDepth)
      Admitted = 0;
    else if (Depth < Config.MaxQueueDepth + Config.SlackQueueDepth)
      Admitted = 1;
    if (Admitted >= 0) {
      Job J;
      J.ShardIdx = S.Index;
      J.Fd = C.Fd;
      J.Gen = C.Gen;
      J.Seq = Seq;
      J.SleepMs = SleepMs;
      J.Mode = Admitted == 1 ? AdmitMode::SlackOnly : AdmitMode::Full;
      J.Line = std::move(Line);
      J.EnqueuedUs = steadyUs();
      Queue.push_back(std::move(J));
      Service.metrics().set("net_queue_depth",
                            static_cast<long>(Queue.size()));
    }
  }
  if (Admitted >= 0) {
    if (Admitted == 1)
      Service.metrics().inc("net_slack_admits");
    QueueCV.notify_one();
    return;
  }
  // Both queue rungs are full. Control sleeps are not schedulable
  // requests, so they skip the cached rung and shed directly.
  if (Config.CachedFallback && SleepMs < 0) {
    ServiceResponse R;
    if (Service.handleLineCachedOnly(Line, static_cast<int>(Seq),
                                     Config.DefaultEngine, R)) {
      Service.metrics().inc("net_cached_answers");
      completeLocal(S, C, Seq, R.toJsonl() + "\n");
      return;
    }
  }
  Service.metrics().inc("net_shed");
  completeLocal(S, C, Seq, renderShedLine(Seq, requestIdForShed(Line)) + "\n");
}

void EpollServer::completeLocal(Shard &S, Conn &C, uint64_t Seq,
                                std::string Bytes) {
  --C.InFlightJobs;
  C.Done[Seq] = std::move(Bytes);
  flushReady(C);
  updateEpoll(S, C);
}

void EpollServer::flushReady(Conn &C) {
  for (auto It = C.Done.find(C.NextWriteSeq); It != C.Done.end();
       It = C.Done.find(C.NextWriteSeq)) {
    C.Out += It->second;
    C.Done.erase(It);
    ++C.NextWriteSeq;
    Service.metrics().inc("net_responses");
  }
  if (C.Out.size() - C.OutOff > Config.MaxWriteBufferBytes) {
    Service.metrics().inc("net_write_overflow");
    C.Doomed = true;
  }
}

void EpollServer::deliverCompletions(Shard &S) {
  std::vector<Completion> Batch;
  {
    std::lock_guard<std::mutex> Lock(S.CompletionMu);
    Batch.swap(S.Completions);
  }
  for (Completion &Done : Batch) {
    const auto It = S.Conns.find(Done.Fd);
    if (It == S.Conns.end() || It->second->Gen != Done.Gen)
      continue; // connection closed (or fd reused) while the job ran
    Conn &C = *It->second;
    --C.InFlightJobs;
    C.Done[Done.Seq] = std::move(Done.Bytes);
    flushReady(C);
    writeConn(C);
    updateEpoll(S, C);
    maybeFinish(C);
    if (C.Doomed)
      closeConn(S, Done.Fd);
  }
}

void EpollServer::maybeFinish(Conn &C) {
  if (C.PeerClosed && C.InFlightJobs == 0 && C.Done.empty() &&
      C.OutOff == C.Out.size())
    C.Doomed = true;
}

void EpollServer::writeConn(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    const ssize_t W = ::send(C.Fd, C.Out.data() + C.OutOff,
                             C.Out.size() - C.OutOff, MSG_NOSIGNAL);
    if (W > 0) {
      C.OutOff += static_cast<size_t>(W);
      C.LastActiveMs = steadyMs();
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    C.Doomed = true;
    return;
  }
  if (C.OutOff == C.Out.size()) {
    C.Out.clear();
    C.OutOff = 0;
  } else if (C.OutOff > MaxLineBytes) {
    C.Out.erase(0, C.OutOff);
    C.OutOff = 0;
  }
}

void EpollServer::updateEpoll(Shard &S, Conn &C) {
  const bool Want = C.OutOff < C.Out.size();
  if (Want == C.WantWrite)
    return;
  C.WantWrite = Want;
  epoll_event E{};
  E.events = EPOLLIN | (Want ? EPOLLOUT : 0u);
  E.data.fd = C.Fd;
  ::epoll_ctl(S.EpollFd, EPOLL_CTL_MOD, C.Fd, &E);
}

void EpollServer::closeConn(Shard &S, int Fd) {
  const auto It = S.Conns.find(Fd);
  if (It == S.Conns.end())
    return;
  ::epoll_ctl(S.EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
  // Update the gauge before the close the client sees, as for rejections.
  Service.metrics().set(
      "net_active_connections",
      ActiveConns.fetch_sub(1, std::memory_order_relaxed) - 1);
  ::close(Fd);
  S.Conns.erase(It);
}

void EpollServer::closeAllConns(Shard &S) {
  while (!S.Conns.empty())
    closeConn(S, S.Conns.begin()->first);
}

void EpollServer::scanIdle(Shard &S, int64_t NowMs) {
  std::vector<int> Stale;
  for (const auto &[Fd, C] : S.Conns)
    if (C->InFlightJobs == 0 && C->OutOff == C->Out.size() &&
        NowMs - C->LastActiveMs > Config.IdleTimeoutMs)
      Stale.push_back(Fd);
  for (const int Fd : Stale) {
    Service.metrics().inc("net_idle_closed");
    closeConn(S, Fd);
  }
}

void EpollServer::beginDrainIO(Shard &S) {
  S.Draining = true;
  // Saturate: a timeout near the top of its range must not wrap the
  // deadline into the past and force-close every connection at once.
  const int64_t Now = steadyMs();
  S.DrainDeadlineMs = Now + std::clamp<int64_t>(Config.DrainTimeoutMs, 0,
                                                INT64_MAX - Now);
  if (S.ListenFd >= 0) {
    ::epoll_ctl(S.EpollFd, EPOLL_CTL_DEL, S.ListenFd, nullptr);
    ::close(S.ListenFd);
    S.ListenFd = -1;
  }
}

void EpollServer::stopWorkers() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    WorkersStop = true;
  }
  QueueCV.notify_all();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  Workers.clear();
}

void EpollServer::workerLoop() {
  while (true) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCV.wait(Lock, [this] { return WorkersStop || !Queue.empty(); });
      if (Queue.empty())
        return; // WorkersStop and nothing admitted remains
      J = std::move(Queue.front());
      Queue.pop_front();
      Service.metrics().set("net_queue_depth",
                            static_cast<long>(Queue.size()));
    }
    std::string Bytes;
    if (J.SleepMs >= 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(J.SleepMs));
      Bytes = renderSleepLine(J.Seq, J.SleepMs) + "\n";
    } else {
      const ServiceResponse R = Service.handleLine(
          J.Line, static_cast<int>(J.Seq), Config.DefaultEngine, J.Mode);
      Bytes = R.toJsonl();
      Bytes += '\n';
    }
    Service.metrics().observe("net_request_us", steadyUs() - J.EnqueuedUs);
    Shard &S = *Shards[static_cast<size_t>(J.ShardIdx)];
    {
      std::lock_guard<std::mutex> Lock(S.CompletionMu);
      Completion Done;
      Done.Fd = J.Fd;
      Done.Gen = J.Gen;
      Done.Seq = J.Seq;
      Done.Bytes = std::move(Bytes);
      S.Completions.push_back(std::move(Done));
    }
    wakeEventFd(S.WakeFd);
  }
}
