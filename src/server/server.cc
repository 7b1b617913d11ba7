#include "server/server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "parallel/sharded_executor.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace sss::server {
namespace {

constexpr uint64_t kListenerTag = 0;

// Stop draining the socket buffer into outbuf faster than the peer reads:
// above this much pending output the connection's read side is paused until
// the backlog flushes (pipelining backpressure).
constexpr size_t kMaxPendingOut = 4u << 20;

// Compact outbuf once this much of its prefix has been written, instead of
// erasing per write.
constexpr size_t kCompactThreshold = 64u << 10;

// The server:write failpoint as a value, usable from functions that do not
// return Status (the SSS_FAILPOINT_STATUS macro returns from its enclosing
// function).
Status EvalWriteFailpoint() {
  SSS_FAILPOINT_STATUS("server:write");
  return Status::OK();
}

size_t ResolveWorkerCount(size_t configured) {
  if (configured > 0) return configured;
  const size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(4, std::min<size_t>(hw == 0 ? 4 : hw, 16));
}

}  // namespace

Status Server::RegisterHost(EngineHost* host) {
  if (host == nullptr) return Status::Invalid("RegisterHost: null host");
  if (started_.load(std::memory_order_acquire)) {
    return Status::Invalid("RegisterHost: server already started");
  }
  host_ = host;
  return Status::OK();
}

Status Server::RegisterHandler(RequestHandler handler) {
  if (!handler) return Status::Invalid("RegisterHandler: null handler");
  if (started_.load(std::memory_order_acquire)) {
    return Status::Invalid("RegisterHandler: server already started");
  }
  handler_ = std::move(handler);
  return Status::OK();
}

Status Server::Reload(const std::string& path) {
  if (host_ == nullptr) {
    return Status::Invalid("Reload: no EngineHost registered");
  }
  // The server-wide token rides along so Stop()+CancelInflight() can also
  // abandon a build in progress.
  SearchContext ctx;
  ctx.cancellation = &cancel_;
  const Status st =
      path.empty() ? host_->Reload(ctx) : host_->LoadFile(path, ctx);
  if (st.ok()) {
    counters_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Status Server::Start() {
  if (running()) return Status::Invalid("Start: already running");
  if (host_ == nullptr && !handler_) {
    return Status::Invalid("Start: no host or handler registered");
  }
  started_.store(true, std::memory_order_release);
  SSS_ASSIGN_OR_RETURN(poller_, net::Poller::Create());
  SSS_ASSIGN_OR_RETURN(
      listener_,
      net::ListenTcp(options_.host, options_.port, options_.backlog));
  SSS_ASSIGN_OR_RETURN(port_, net::LocalPort(listener_.fd()));
  SSS_RETURN_NOT_OK(net::SetNonBlocking(listener_.fd()));
  SSS_RETURN_NOT_OK(
      poller_.Add(listener_.fd(), net::Poller::kReadable, kListenerTag));

  draining_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_open_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_open_ = true;
  }
  running_.store(true, std::memory_order_release);

  const size_t n = ResolveWorkerCount(options_.worker_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  admin_thread_ = std::thread([this] { AdminLoop(); });
  reactor_thread_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  (void)poller_.Wake();
  // The reactor drains: stops accepting, half-closes reads, flushes every
  // in-flight response, closes every connection, then exits.
  if (reactor_thread_.joinable()) reactor_thread_.join();

  // All tasks for live connections have completed (the reactor waited);
  // anything left in the queues belonged to connections that died early.
  // Let the workers finish it for the admission/stats bookkeeping.
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_open_ = false;
  }
  task_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_open_ = false;
  }
  admin_cv_.notify_all();
  if (admin_thread_.joinable()) admin_thread_.join();

  listener_.Close();
  poller_ = net::Poller();  // release the epoll/eventfd descriptors
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.clear();
  }
}

// ---------------------------------------------------------------------------
// Reactor thread
// ---------------------------------------------------------------------------

void Server::ReactorLoop() {
  std::vector<net::Poller::Event> events(128);
  bool drain_started = false;
  for (;;) {
    if (!drain_started && draining_.load(std::memory_order_acquire)) {
      drain_started = true;
      BeginDrain();
    }
    if (drain_started && conns_.empty()) return;

    auto n = poller_.Wait(events.data(), events.size(),
                          NextTimeoutMs(drain_started));
    if (!n.ok()) {
      SSS_LOG(Warning) << "reactor poll failed: " << n.status().ToString();
      continue;
    }
    for (size_t i = 0; i < *n; ++i) {
      const net::Poller::Event& ev = events[i];
      if (ev.tag == kListenerTag) {
        if (!drain_started) AcceptReady();
        continue;
      }
      auto it = conns_.find(ev.tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn* c = it->second.get();
      if (ev.broken) {
        DestroyConn(c->id);
        continue;
      }
      if (ev.readable && !c->read_closed) {
        if (!HandleReadable(c)) continue;
      }
      if (ev.writable) {
        if (!FlushAndUpdate(c)) continue;
      }
    }
    DrainCompletions();
    SweepIdle();
  }
}

void Server::BeginDrain() {
  (void)poller_.Del(listener_.fd());
  listener_.Close();  // new connections are refused from here on
  // Half-close every connection: no more requests, but everything already
  // dispatched still answers and flushes before the close.
  std::vector<uint64_t> finished;
  for (auto& [id, conn] : conns_) {
    Conn* c = conn.get();
    (void)net::ShutdownRead(c->socket.fd());
    c->read_closed = true;
    c->inbuf.clear();
    SetMidFrame(c, false);
    if (c->inflight == 0 && c->out_off == c->outbuf.size()) {
      finished.push_back(id);
    }
  }
  for (uint64_t id : finished) DestroyConn(id);
  for (auto& [id, conn] : conns_) (void)UpdateInterest(conn.get());
}

void Server::AcceptReady() {
  for (;;) {
    SSS_FAILPOINT("server:accept");
    auto accepted = net::AcceptNonBlocking(listener_.fd());
    if (!accepted.ok()) {
      if (!accepted.status().IsUnavailable()) {
        // Transient accept failure (e.g. EMFILE under fd pressure): keep
        // serving existing connections; the listener stays armed.
        SSS_LOG(Warning) << "accept failed: "
                         << accepted.status().ToString();
      }
      return;
    }
    if (accepted->would_block) return;
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    // TCP_NODELAY: response frames are small and batched by
    // DrainCompletions; letting Nagle hold them for an ACK would add a
    // round trip of dead air to every pipelined window. Best-effort — a
    // socket that can't take the option still serves.
    (void)net::SetNoDelay(accepted->socket.fd());
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>();
    conn->id = id;
    conn->socket = std::move(accepted->socket);
    conn->interest = net::Poller::kReadable;
    const Status st =
        poller_.Add(conn->socket.fd(), net::Poller::kReadable, id);
    if (!st.ok()) {
      SSS_LOG(Warning) << "poller add failed: " << st.ToString();
      continue;  // conn destructor closes the socket
    }
    conns_.emplace(id, std::move(conn));
  }
}

Status Server::ReadInto(Conn* c, bool* eof) {
  *eof = false;
  SSS_FAILPOINT_STATUS("server:read");
  char buf[64 << 10];
  for (;;) {
    auto chunk = net::ReadSome(c->socket.fd(), buf, sizeof(buf));
    if (!chunk.ok()) return chunk.status();
    if (chunk->would_block) return Status::OK();
    if (chunk->eof) {
      *eof = true;
      return Status::OK();
    }
    counters_.bytes_in.fetch_add(chunk->bytes, std::memory_order_relaxed);
    c->inbuf.append(buf, chunk->bytes);
    // A partial read means the socket buffer is (almost certainly) empty;
    // level-triggered epoll re-arms if it is not.
    if (chunk->bytes < sizeof(buf)) return Status::OK();
    // Pipelining backpressure: stop pulling once a full batch is buffered.
    if (c->inbuf.size() >= kMaxPendingOut) return Status::OK();
  }
}

bool Server::HandleReadable(Conn* c) {
  bool eof = false;
  const Status read_st = ReadInto(c, &eof);
  if (!read_st.ok()) {
    // Transport error (or injected read fault): sever, no courtesy frame.
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    DestroyConn(c->id);
    return false;
  }
  ParseFrames(c);
  if (eof && !c->read_closed) {
    if (!c->inbuf.empty()) {
      // Peer vanished mid-frame. Answer best-effort with kCorruption — the
      // peer may have only half-closed and still drain responses — under
      // the request id if enough of the header arrived to recover it.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Response err;
      if (c->inbuf.size() >= kRequestHeaderBytes) {
        Request partial;
        uint32_t query_len = 0;
        (void)DecodeRequestHeader(
            reinterpret_cast<const uint8_t*>(c->inbuf.data()),
            options_.limits, &partial, &query_len);
        err.request_id = partial.request_id;
      }
      err.code = StatusCode::kCorruption;
      err.message = "disconnect mid-frame (" +
                    std::to_string(c->inbuf.size()) + " bytes pending)";
      QueueResponse(c, err, nullptr);
      c->inbuf.clear();
      SetMidFrame(c, false);
    }
    c->read_closed = true;
  }
  return FlushAndUpdate(c);
}

void Server::ParseFrames(Conn* c) {
  size_t off = 0;
  std::vector<Request> window;  // admitted search frames this drain
  while (!c->read_closed && !c->doomed) {
    const size_t avail = c->inbuf.size() - off;
    if (avail < kRequestHeaderBytes) break;
    Request request;
    uint32_t query_len = 0;
    const Status st = DecodeRequestHeader(
        reinterpret_cast<const uint8_t*>(c->inbuf.data() + off),
        options_.limits, &request, &query_len);
    if (!st.ok()) {
      // Malformed frame: answer with an error frame (the decoder recovers
      // the request id even from bad headers where it can), then stop
      // reading — framing cannot be resynchronized on a byte stream.
      // Responses for requests already in flight still deliver.
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Response err;
      err.request_id = request.request_id;
      err.code = st.code();
      err.message = st.message();
      QueueResponse(c, err, nullptr);
      c->read_closed = true;
      break;
    }
    if (avail < kRequestHeaderBytes + query_len) break;
    request.query.assign(c->inbuf.data() + off + kRequestHeaderBytes,
                         query_len);
    off += kRequestHeaderBytes + query_len;
    DispatchRequest(c, std::move(request), &window);
  }
  c->inbuf.erase(0, off);
  SetMidFrame(c, !c->read_closed && !c->doomed && !c->inbuf.empty());
  // The admitted search frames of this drain are one window; a malformed
  // frame above truncated the window but never loses the part already
  // admitted.
  DispatchWindow(c, std::move(window));
}

void Server::DispatchRequest(Conn* c, Request request,
                             std::vector<Request>* window) {
  if (request.type == FrameType::kAdmin) {
    // Admin frames bypass admission: a reload must get through exactly
    // when the server is shedding search load, and ops touch no engine
    // slot. They run on the dedicated admin thread so saturated search
    // workers cannot starve them either.
    ++c->inflight;
    {
      std::lock_guard<std::mutex> lock(admin_mu_);
      Task task;
      task.conn_id = c->id;
      task.window.push_back(std::move(request));
      admin_tasks_.push_back(std::move(task));
    }
    admin_cv_.notify_one();
    return;
  }

  // Admission control: claim a slot; over the watermark, release and shed.
  // fetch_add-then-check keeps the claim race-free without a lock, and
  // claiming here — on the reactor, before queueing — sheds immediately
  // even when every worker is busy.
  const size_t claimed = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (claimed >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    Response shed;
    shed.request_id = request.request_id;
    shed.code = StatusCode::kUnavailable;
    shed.message = "server overloaded (" +
                   std::to_string(options_.max_inflight) +
                   " requests in flight)";
    SearchStats delta;
    delta.server_bytes_in =
        kRequestHeaderBytes + static_cast<uint64_t>(request.query.size());
    delta.server_requests_shed = 1;
    QueueResponse(c, shed, &delta);
    return;
  }

  // Clamp the deadline into the request; it is armed in DispatchWindow —
  // still on the reactor, in the same drain — so time spent queued counts
  // against the request's budget.
  if (options_.max_deadline_ms > 0) {
    request.deadline_ms = request.deadline_ms == 0
                              ? options_.max_deadline_ms
                              : std::min(request.deadline_ms,
                                         options_.max_deadline_ms);
  }
  ++c->inflight;
  window->push_back(std::move(request));
}

void Server::DispatchWindow(Conn* c, std::vector<Request> window) {
  if (window.empty()) return;
  // Engine servers run the whole drain as one window. Handler servers run
  // one window per request: their backend fans out per request, and a
  // shared task would queue those fan-outs behind one worker.
  std::vector<Task> tasks;
  if (handler_) {
    for (Request& request : window) {
      tasks.emplace_back();
      tasks.back().window.push_back(std::move(request));
    }
  } else {
    tasks.emplace_back();
    tasks.back().window = std::move(window);
  }
  for (Task& task : tasks) {
    task.conn_id = c->id;
    // One task, one SearchContext. Deadlines fold to the window's
    // tightest — a request without a deadline shares its window's budget,
    // the price of one corpus pass over the whole window.
    uint32_t min_deadline_ms = 0;
    for (const Request& request : task.window) {
      if (request.deadline_ms == 0) continue;
      if (min_deadline_ms == 0 || request.deadline_ms < min_deadline_ms) {
        min_deadline_ms = request.deadline_ms;
      }
    }
    if (min_deadline_ms > 0) {
      task.deadline = Deadline::AfterMillis(min_deadline_ms);
    }
  }
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    for (Task& task : tasks) tasks_.push_back(std::move(task));
  }
  if (tasks.size() == 1) {
    task_cv_.notify_one();
  } else {
    task_cv_.notify_all();
  }
}

void Server::QueueResponse(Conn* c, const Response& response,
                           SearchStats* delta) {
  std::string frame;
  EncodeResponse(response, &frame);
  if (delta != nullptr) {
    delta->server_bytes_out = frame.size();
    if (options_.stats != nullptr) options_.stats->Record(*delta);
  }
  const Status fault = EvalWriteFailpoint();
  if (!fault.ok()) {
    // Injected write fault: the response is dropped and the connection
    // severed, mirroring a write that dies on the wire.
    c->doomed = true;
    return;
  }
  c->outbuf.append(frame);
}

bool Server::FlushAndUpdate(Conn* c) {
  if (c->doomed) {
    DestroyConn(c->id);
    return false;
  }
  while (c->out_off < c->outbuf.size()) {
    auto chunk = net::WriteSome(c->socket.fd(), c->outbuf.data() + c->out_off,
                                c->outbuf.size() - c->out_off);
    if (!chunk.ok()) {
      DestroyConn(c->id);
      return false;
    }
    if (chunk->would_block) break;
    counters_.bytes_out.fetch_add(chunk->bytes, std::memory_order_relaxed);
    c->out_off += chunk->bytes;
  }
  if (c->out_off == c->outbuf.size()) {
    c->outbuf.clear();
    c->out_off = 0;
  } else if (c->out_off >= kCompactThreshold) {
    c->outbuf.erase(0, c->out_off);
    c->out_off = 0;
  }
  if (c->read_closed && c->inflight == 0 && c->outbuf.empty()) {
    DestroyConn(c->id);  // graceful close: everything owed is on the wire
    return false;
  }
  return UpdateInterest(c);
}

bool Server::UpdateInterest(Conn* c) {
  const size_t pending = c->outbuf.size() - c->out_off;
  uint32_t want = 0;
  // Backpressure: a peer that sends faster than it reads gets its read
  // side paused until the response backlog flushes.
  if (!c->read_closed && pending < kMaxPendingOut) {
    want |= net::Poller::kReadable;
  }
  if (pending > 0) want |= net::Poller::kWritable;
  if (want == c->interest) return true;
  const Status st = poller_.Mod(c->socket.fd(), want, c->id);
  if (!st.ok()) {
    DestroyConn(c->id);
    return false;
  }
  c->interest = want;
  return true;
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    batch.swap(done_);
  }
  // Two passes: append every frame first, then flush each touched
  // connection once — a deep pipeline's worth of responses coalesces into
  // one write syscall (and at most one epoll_ctl) instead of one per
  // response. Track connections by id, not pointer: a sever completion
  // later in the batch may destroy a connection already marked touched.
  std::vector<uint64_t> touched;
  for (Completion& comp : batch) {
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection died first
    Conn* c = it->second.get();
    --c->inflight;
    if (comp.sever) {
      DestroyConn(c->id);
      continue;
    }
    c->outbuf.append(comp.frame);
    if (!c->flush_queued) {
      c->flush_queued = true;
      touched.push_back(c->id);
    }
  }
  for (uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // severed later in the batch
    it->second->flush_queued = false;
    (void)FlushAndUpdate(it->second.get());
  }
}

void Server::SweepIdle() {
  if (options_.idle_timeout_ms == 0 || mid_frame_conns_ == 0) return;
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  const Clock::time_point now = Clock::now();
  std::vector<uint64_t> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn->mid_frame && now - conn->partial_since >= limit) {
      stalled.push_back(id);
    }
  }
  for (uint64_t id : stalled) {
    counters_.idle_timeouts.fetch_add(1, std::memory_order_relaxed);
    DestroyConn(id);
  }
}

int Server::NextTimeoutMs(bool draining) const {
  // Completions arrive via Wake(); the poll timeout only exists for the
  // idle sweep (and as a drain heartbeat).
  if (draining) return 100;
  if (options_.idle_timeout_ms == 0 || mid_frame_conns_ == 0) return -1;
  const uint32_t quarter = options_.idle_timeout_ms / 4;
  return static_cast<int>(std::clamp<uint32_t>(quarter, 1, 250));
}

void Server::SetMidFrame(Conn* c, bool mid) {
  if (mid == c->mid_frame) return;
  c->mid_frame = mid;
  if (mid) {
    // The clock starts when the partial frame appears and is *not* reset
    // by later bytes: a trickling slowloris peer is bounded by the same
    // timeout as a silent one.
    c->partial_since = Clock::now();
    ++mid_frame_conns_;
  } else {
    --mid_frame_conns_;
  }
}

void Server::DestroyConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  SetMidFrame(c, false);
  (void)poller_.Del(c->socket.fd());
  conns_.erase(it);  // Socket destructor closes the fd
}

// ---------------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------------

void Server::WorkerLoop() {
  // This worker's window-batch pool, built on the first window it claims
  // and re-used (helpers parked between windows) for the rest of its life.
  // Width 1 to start: the dispatch widens it to the window's lane count.
  std::unique_ptr<ShardedExecutor> batch_executor;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(task_mu_);
      task_cv_.wait(lock, [this] { return !tasks_.empty() || !tasks_open_; });
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    if (handler_) {
      // Admission was claimed on the reactor at dispatch; sheds never get
      // here.
      for (const Request& request : task.window) {
        Response response = handler_(request);
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        FinishRequest(task.conn_id, request, std::move(response));
      }
      continue;
    }
    if (batch_executor == nullptr) {
      ShardedExecutorOptions pool_options;
      pool_options.num_threads = 1;
      batch_executor = std::make_unique<ShardedExecutor>(pool_options);
    }
    RunWindowBatch(task, batch_executor.get());
  }
}

void Server::AdminLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      admin_cv_.wait(lock,
                     [this] { return !admin_tasks_.empty() || !admin_open_; });
      if (admin_tasks_.empty()) return;
      task = std::move(admin_tasks_.front());
      admin_tasks_.pop_front();
    }
    const Request& request = task.window.front();
    if (handler_) {
      // Admin frames are forwarded to the handler verbatim, without an
      // admission slot, exactly like the built-in path.
      FinishRequest(task.conn_id, request, handler_(request));
    } else {
      FinishTask(task.conn_id, HandleAdmin(request), nullptr);
    }
  }
}

Response Server::HandleAdmin(const Request& request) {
  Response response;
  response.request_id = request.request_id;
  switch (request.k) {
    case kAdminOpReload: {
      const Status st = Reload(request.query);
      if (!st.ok()) {
        response.code = st.code();
        response.message = st.message();
      }
      break;
    }
    case kAdminOpGetGeneration:
      break;  // generation is filled below for every admin response
    default:
      // Unknown ops are rejected by the decoder; belt and braces here.
      response.code = StatusCode::kInvalid;
      response.message = "unknown admin op " + std::to_string(request.k);
      break;
  }
  response.generation = host_->generation();
  if (response.code == StatusCode::kOk) {
    counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
  } else if (response.code == StatusCode::kUnavailable) {
    // A reload losing the race to a concurrent reload is transient and
    // retryable — shed, per the counter taxonomy, not rejected (which
    // means kInvalid / engine errors).
    counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

void Server::RunWindowBatch(const Task& task, ShardedExecutor* executor) {
  const std::vector<Request>& window = task.window;
  const size_t n = window.size();

  // Window-level funnel: depth_sum / windows_batched is the mean batch the
  // engine saw over pipelined windows. Recorded once per window of two or
  // more, before per-request deltas; a lone request counts in neither.
  if (options_.stats != nullptr && n >= 2) {
    SearchStats window_delta;
    window_delta.server_windows_batched = 1;
    window_delta.server_window_depth_sum = n;
    options_.stats->Record(window_delta);
  }

  // Releases one request's admission slot and posts its completion.
  const auto finish = [this, conn_id = task.conn_id](const Request& request,
                                                     Response response) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    FinishRequest(conn_id, request, std::move(response));
  };

  // One generation pin for the whole window: a window racing a reload
  // answers wholly from one side of the swap.
  const EngineSetHandle pinned = host_->Acquire();
  if (pinned == nullptr) {
    for (const Request& request : window) {
      Response response;
      response.code = StatusCode::kUnavailable;
      response.message = "no engine generation published yet";
      finish(request, std::move(response));
    }
    return;
  }

  // Resolve engines and group the window by engine, preserving window
  // order inside each group. Requests that resolve to no engine answer
  // immediately; the rest run as one SearchBatch per engine (one group in
  // the overwhelmingly common case).
  struct Group {
    const Searcher* engine = nullptr;
    std::vector<size_t> indices;  // into `window`
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < n; ++i) {
    const Request& request = window[i];
    const Searcher* engine = request.engine == kAnyEngine
                                 ? pinned->default_engine
                                 : pinned->Find(request.engine);
    if (engine == nullptr) {
      Response response;
      response.generation = pinned->generation;
      response.code = StatusCode::kInvalid;
      response.message =
          "no engine registered under id " + std::to_string(request.engine);
      finish(request, std::move(response));
      continue;
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.engine == engine) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->engine = engine;
    }
    group->indices.push_back(i);
  }

  for (Group& group : groups) {
    QuerySet queries;
    queries.reserve(group.indices.size());
    for (const size_t i : group.indices) {
      Query query;
      query.text = window[i].query;
      query.max_distance = static_cast<int>(window[i].k);
      queries.push_back(std::move(query));
    }

    SearchContext ctx;
    ctx.cancellation = &cancel_;
    ctx.stats = options_.stats;
    ctx.deadline = task.deadline;
    // The lane verify tier serves every window, a lone request included;
    // it is byte-identical to scalar by the kernel-equivalence contract.
    ctx.kernel_tier = KernelTierChoice::kAuto;

    // A lone query runs serially on this worker; a larger group runs
    // kSharded with one lane per query, so a blocked search never holds up
    // the rest of its window. The worker's parked pool carries the lanes
    // across windows; without it every window would pay a fresh spawn per
    // lane, which on small corpora costs more than the whole search.
    ExecutionOptions exec;
    if (queries.size() >= 2) {
      exec.strategy = ExecutionStrategy::kSharded;
      exec.num_threads = queries.size();
    }
    exec.executor = executor;
    BatchResult result = group.engine->SearchBatch(queries, exec, ctx);

    for (size_t j = 0; j < group.indices.size(); ++j) {
      const size_t i = group.indices[j];
      Response response;
      response.generation = pinned->generation;
      const Status& st = result.statuses[j];
      if (st.ok()) {
        response.matches = std::move(result.matches[j]);
      } else {
        response.code = st.code();
        response.message = st.message();
      }
      finish(window[i], std::move(response));
    }
  }
}

void Server::FinishRequest(uint64_t conn_id, const Request& request,
                           Response response) {
  response.request_id = request.request_id;
  SearchStats delta;
  delta.server_bytes_in =
      kRequestHeaderBytes + static_cast<uint64_t>(request.query.size());
  if (response.code == StatusCode::kOk) {
    counters_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    delta.server_requests_accepted = 1;
  } else if (response.code == StatusCode::kCancelled) {
    counters_.requests_cancelled.fetch_add(1, std::memory_order_relaxed);
    delta.server_requests_cancelled = 1;
  } else {
    counters_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  FinishTask(conn_id, response, &delta);
}

void Server::FinishTask(uint64_t conn_id, const Response& response,
                        SearchStats* delta) {
  std::string frame;
  EncodeResponse(response, &frame);
  // bytes_out comes from the frame actually encoded — never re-derived
  // from wire-format arithmetic that can drift from EncodeResponse.
  if (delta != nullptr) {
    delta->server_bytes_out = frame.size();
    if (options_.stats != nullptr) options_.stats->Record(*delta);
  }
  Completion comp;
  comp.conn_id = conn_id;
  const Status fault = EvalWriteFailpoint();
  if (fault.ok()) {
    comp.frame = std::move(frame);
  } else {
    comp.sever = true;  // injected write fault: drop response + connection
  }
  // One wake per drain cycle, not per completion: if the queue was
  // non-empty, a wake is already pending and the reactor's next
  // DrainCompletions() swap will pick this entry up with the rest.
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    need_wake = done_.empty();
    done_.push_back(std::move(comp));
  }
  if (need_wake) (void)poller_.Wake();
}

}  // namespace sss::server
