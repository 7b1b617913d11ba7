// The sss serving layer: a TCP front-end that answers protocol.h request
// frames from one of two backends — an EngineHost (the in-process engines,
// one published generation at a time) or a RequestHandler (sss_router's
// scatter-gather). Design points, in the order they matter for correctness:
//
//   * Epoll reactor + worker pool: one reactor thread owns the listener and
//     every connection (non-blocking sockets, level-triggered readiness via
//     net::Poller) and runs the per-connection read/write state machines.
//     Decoded requests are handed to a small worker pool — sized by
//     `worker_threads`, decoupled from connection count — and finished
//     responses come back to the reactor over a completion queue (eventfd
//     wakeup) for writeback. 10k idle connections cost 10k sockets, not
//     10k threads.
//   * Pipelining: a connection may have any number of requests in flight;
//     the reactor decodes frames as they arrive. Responses are written in
//     completion order — possibly out of request order — and clients match
//     them by the echoed request id. Per-connection responses are never
//     interleaved mid-frame; each response frame is contiguous on the wire.
//   * One search path: the admitted search frames decoded from one
//     connection in one drain form a window, and every window — a lone
//     lock-step request is a window of one — runs as a single
//     Searcher::SearchBatch: one corpus pass amortized over the window,
//     under one SearchContext whose deadline is the tightest per-request
//     deadline, whose kernel tier is kAuto (the lane verify tier, byte-
//     identical to scalar), and whose strategy is picked by window size:
//     a window of one runs serially on the claiming worker, a larger one
//     runs kSharded with one execution lane per query, so blocked searches
//     never serialize the window. So a query's kernel never depends on how the
//     TCP stream was split. Each window pins one EngineHost generation and
//     resolves its engines only there, so a window racing a reload answers
//     wholly from one side of the swap.
//     Per-request statuses come back from the BatchResult and map to
//     per-id response frames; admission, byte accounting, and counters
//     stay per-request. Each search worker owns one persistent
//     ShardedExecutor injected into the dispatch, so a stream of windows
//     re-uses parked lane threads instead of spawning a pool per window.
//     Handler servers (sss_router) run one window per request: their
//     backend fans out per request and a shared window would serialize
//     fan-outs behind one worker.
//   * Bounded admission: at most `max_inflight` searches execute at once.
//     The slot is claimed on the reactor at dispatch time
//     (fetch_add-then-check), so a request arriving above the watermark is
//     answered immediately with kUnavailable — shed, not queued — even
//     while every worker is busy. Queue depth is bounded by max_inflight
//     and overload degrades to cheap rejections instead of unbounded
//     memory growth and deadline blowouts.
//   * Deadlines: a request's deadline_ms (clamped by the server-side
//     max_deadline_ms cap) becomes a SearchContext Deadline, armed at
//     dispatch time so time spent waiting for a worker counts against the
//     budget. The PR 2 cancellation machinery terminates over-deadline
//     work inside the engine hot loops; the response then carries
//     kCancelled. A server-wide CancellationToken rides in the same
//     context so CancelInflight() (hard stop) can cut every running search
//     at once.
//   * Admin bypass: kAdmin frames take no admission slot and run on a
//     dedicated admin thread, so a reload succeeds exactly when the search
//     workers are saturated and the server is shedding.
//   * Graceful drain: Stop() stops accepting and half-closes every
//     connection's read side; requests already dispatched complete, their
//     responses flush, and only then does the connection close and Stop()
//     return. In-flight requests always complete.
//   * Slowloris defense: a peer that starts a frame and stalls is
//     reclaimed after `idle_timeout_ms` (counted in
//     ServerCounters::idle_timeouts). The timeout measures how long a
//     partial frame has been pending, so connections idle *between* frames
//     — the 10k-idle-connection scenario — are never reclaimed.
//
// Failure handling mirrors the protocol split: kInvalid/kCorruption frames
// get a best-effort error response and the connection stops reading —
// framing is unrecoverable on a byte stream — but responses already in
// flight still deliver before the close. Transport errors just close. The
// server never aborts on peer input.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine_host.h"
#include "core/searcher.h"
#include "server/protocol.h"
#include "util/cancellation.h"
#include "util/net.h"
#include "util/search_stats.h"
#include "util/status.h"

namespace sss::server {

struct ServerOptions {
  /// Numeric IPv4 address to bind; loopback by default.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  int backlog = 128;
  /// Admission watermark: searches allowed in flight before shedding.
  size_t max_inflight = 64;
  /// Server-side cap on per-request deadlines (0 = uncapped). A request
  /// asking for more gets the cap; a request asking for none gets the cap.
  uint32_t max_deadline_ms = 0;
  /// Search worker threads (0 = auto: min(hardware_concurrency, 16),
  /// at least 4). Admin frames get their own thread on top.
  size_t worker_threads = 0;
  /// Reclaim a connection whose partial frame has been pending this long
  /// (0 = never). Connections idle between frames are exempt.
  uint32_t idle_timeout_ms = 30000;
  ProtocolLimits limits;
  /// Optional sink: engine SearchStats flow through each request's
  /// SearchContext, server_* counters are recorded per request. Borrowed;
  /// must outlive the server.
  StatsSink* stats = nullptr;
};

/// \brief Monotonic counters, readable while the server runs. Relaxed
/// ordering everywhere: these count, they do not synchronize.
struct ServerCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_shed{0};       // kUnavailable: admission,
                                                // or a reload racing another
  std::atomic<uint64_t> requests_cancelled{0};  // deadline / hard stop
  std::atomic<uint64_t> requests_rejected{0};   // kInvalid / engine errors
  std::atomic<uint64_t> protocol_errors{0};     // malformed frames
  std::atomic<uint64_t> idle_timeouts{0};       // stalled partial frames
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> reloads_ok{0};          // published generations
  std::atomic<uint64_t> reloads_failed{0};      // failed/rejected reloads
};

class Server {
 public:
  explicit Server(ServerOptions options) : options_(std::move(options)) {}
  ~Server() { Stop(); }

  SSS_DISALLOW_COPY_AND_ASSIGN(Server);

  /// \brief Registers `host` (borrowed; must outlive the server) as the
  /// source of engines: requests address the current EngineSet's engines by
  /// wire id (kAnyEngine = its default engine). Each window pins the host's
  /// current set for its whole search, so a concurrent Reload never
  /// invalidates in-flight work — old generations drain, new requests see
  /// the new set. The host answers both engine dispatch and kAdmin frames.
  ///
  /// Must be called before the first Start(): worker threads read the
  /// backend without locks, so it is frozen once the server has ever run
  /// (registration after Start() returns kInvalid, even once the server is
  /// stopped again).
  Status RegisterHost(EngineHost* host);

  /// \brief Answer function for one decoded request frame. Must be
  /// thread-safe (every worker thread calls it) and must never throw; the
  /// response's request_id is overwritten with the request's on the way
  /// out.
  using RequestHandler = std::function<Response(const Request&)>;

  /// \brief Registers `handler` as the source of answers instead of a
  /// host — the front-end half of the server (reactor, bounded admission,
  /// drain, counters, byte accounting) wrapped around an arbitrary backend.
  /// This is how sss_router reuses the serving machinery with a
  /// scatter-gather Router behind it. A handler takes precedence over a
  /// registered host; admin frames are forwarded to it verbatim (without an
  /// admission slot, like the built-in path). Same before-first-Start() rule
  /// as RegisterHost.
  Status RegisterHandler(RequestHandler handler);

  /// \brief Publishes a fresh generation via the registered host: from
  /// `path` when non-empty, else by re-reading the host's current source.
  /// kInvalid without a host; kUnavailable while another reload runs. Safe
  /// while serving — this is the SIGHUP / kAdmin entry point.
  Status Reload(const std::string& path = "");

  /// \brief Binds, listens, and starts the reactor + worker pool.
  Status Start();

  /// \brief The bound port (valid after Start; useful with port 0).
  uint16_t port() const noexcept { return port_; }

  /// \brief Graceful drain: stop accepting, let in-flight requests finish
  /// and their responses flush, join every thread. Idempotent; safe if
  /// Start failed.
  void Stop();

  /// \brief Hard stop signal for in-flight searches: cancels the server
  /// token, so running engine calls return kCancelled at their next poll.
  /// Does not tear down connections — pair with Stop().
  void CancelInflight() noexcept { cancel_.Cancel(); }

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  const ServerCounters& counters() const noexcept { return counters_; }

  /// \brief Searches currently holding an admission slot (claimed at
  /// dispatch, released when the search finishes). Bounded by max_inflight;
  /// exposed for the overload tests.
  size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-connection state machine. Owned and touched exclusively by the
  /// reactor thread; workers refer to a connection only by id, so a
  /// connection that dies with requests still executing simply has their
  /// completions dropped.
  struct Conn {
    uint64_t id = 0;
    net::Socket socket;
    std::string inbuf;          // bytes received, not yet parsed
    std::string outbuf;         // encoded response frames, not yet written
    size_t out_off = 0;         // prefix of outbuf already written
    size_t inflight = 0;        // dispatched requests awaiting completion
    uint32_t interest = 0;      // readiness bits currently registered
    bool read_closed = false;   // no more requests will be parsed
    bool doomed = false;        // sever at the next FlushAndUpdate
    bool flush_queued = false;  // already in the current completion batch
    bool mid_frame = false;     // inbuf holds a partial frame
    Clock::time_point partial_since;  // when the partial frame started
  };

  /// One window of decoded requests on its way to a worker: the admitted
  /// search frames of one drain on an engine server, a single frame on a
  /// handler server or the admin thread.
  struct Task {
    uint64_t conn_id = 0;
    std::vector<Request> window;  // deadlines pre-clamped into each request
    Deadline deadline;  // fold (min) of the window's deadlines, armed at
                        // dispatch: queue wait counts
  };

  /// One finished response on its way back to the reactor.
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;   // encoded response (empty when severing)
    bool sever = false;  // injected write fault: drop the connection
  };

  // --- reactor thread ---
  void ReactorLoop();
  void BeginDrain();
  void AcceptReady();
  /// Reads whatever the socket has into c->inbuf; *eof reports a clean
  /// peer close. Starts with the server:read failpoint.
  Status ReadInto(Conn* c, bool* eof);
  /// Handles one readable event end to end. False = connection destroyed.
  bool HandleReadable(Conn* c);
  /// Decodes and dispatches every complete frame in c->inbuf. A malformed
  /// frame queues an error response and closes the read side.
  void ParseFrames(Conn* c);
  /// Admission + routing for one decoded request (reactor thread). Admin
  /// frames and sheds are handled in place; admitted search requests are
  /// appended to `window` (deadline already clamped) for DispatchWindow.
  void DispatchRequest(Conn* c, Request request,
                       std::vector<Request>* window);
  /// Queues the drain's admitted search requests as one window task, or
  /// one task per request on handler servers (reactor thread).
  void DispatchWindow(Conn* c, std::vector<Request> window);
  /// Encodes and queues a reactor-originated response (shed / protocol
  /// error), recording `delta` with the true frame size when given.
  void QueueResponse(Conn* c, const Response& response, SearchStats* delta);
  /// Writes as much of c->outbuf as the socket takes, closes finished or
  /// broken connections, re-arms readiness. False = connection destroyed.
  bool FlushAndUpdate(Conn* c);
  bool UpdateInterest(Conn* c);
  void DrainCompletions();
  void SweepIdle();
  int NextTimeoutMs(bool draining) const;
  void SetMidFrame(Conn* c, bool mid);
  void DestroyConn(uint64_t id);

  // --- worker threads ---
  void WorkerLoop();
  void AdminLoop();
  /// One window as a single SearchBatch: one host generation pin,
  /// engine-grouped QuerySets, strategy by window size, per-request
  /// statuses mapped back to per-id completions. `executor` is the calling
  /// worker's persistent batch pool (never null), injected into kSharded
  /// dispatch so a stream of windows spawns threads once, not per window.
  void RunWindowBatch(const Task& task, ShardedExecutor* executor);
  /// Echoes the request id into `response`, classifies it into the
  /// ok / cancelled / rejected counters and posts it. Any admission slot
  /// is already released.
  void FinishRequest(uint64_t conn_id, const Request& request,
                     Response response);
  /// kAdmin dispatch: reload / get-generation. No admission slot — admin
  /// ops must succeed exactly when the server sheds search load.
  Response HandleAdmin(const Request& request);
  /// Encodes `response`, finalizes `delta` with the true frame size, posts
  /// the completion, wakes the reactor. Evaluates the server:write
  /// failpoint; an injected fault severs the connection instead.
  void FinishTask(uint64_t conn_id, const Response& response,
                  SearchStats* delta);

  ServerOptions options_;
  EngineHost* host_ = nullptr;
  RequestHandler handler_;

  net::Socket listener_;
  uint16_t port_ = 0;
  net::Poller poller_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  /// Latches true at the first Start() and never resets: the host pointer
  /// and handler are read lock-free by worker threads, so they are frozen
  /// from that point on (even across Stop()/Start() cycles).
  std::atomic<bool> started_{false};

  // Reactor-thread state (no locks: only ReactorLoop and its helpers).
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  size_t mid_frame_conns_ = 0;

  std::thread reactor_thread_;
  std::vector<std::thread> workers_;
  std::thread admin_thread_;

  std::mutex task_mu_;
  std::condition_variable task_cv_;
  std::deque<Task> tasks_;
  bool tasks_open_ = false;

  std::mutex admin_mu_;
  std::condition_variable admin_cv_;
  std::deque<Task> admin_tasks_;
  bool admin_open_ = false;

  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::atomic<size_t> inflight_{0};
  CancellationToken cancel_;
  ServerCounters counters_;
};

}  // namespace sss::server
