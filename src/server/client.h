// Blocking client for the sss serving layer: one TCP connection, used by
// sss_loadgen (one client per worker thread), perfbench's driver, the
// router's shard channels (CallOnFreshConnection), and the server tests.
// Two modes:
//
//   * Call(): one request/response exchange at a time — the historical
//     lock-step mode.
//   * Send()/Receive(): pipelined — any number of requests in flight on the
//     one connection. The server may answer out of request order; Receive()
//     returns responses in whatever order they arrive and matches each one
//     against the outstanding-id set. Calls still block (this is a blocking
//     client); pipelining removes the per-request RTT, not the caller's
//     thread.
//
// Two failure planes, deliberately kept apart:
//   * the returned Status is the *transport/protocol* outcome — connection
//     refused, mid-frame disconnect, malformed response, or (with a request
//     deadline armed) kDeadlineExceeded when the peer stalls past the
//     budget. After a non-OK return the connection is unusable (framing
//     cannot resync); Reconnect() or Close().
//   * Response::code is the *server-side* outcome (kOk, kUnavailable when
//     shed, kCancelled on deadline, kInvalid), delivered with Status::OK
//     because the exchange itself worked.
//
// Deadlines are enforced at the socket: a request carrying deadline_ms arms
// SO_RCVTIMEO/SO_SNDTIMEO for the exchange (deadline + a slack allowance for
// the server to deliver its own kCancelled verdict), so a peer that stalls
// mid-response can never hang the caller.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

#include "server/protocol.h"
#include "util/net.h"
#include "util/result.h"
#include "util/status.h"

namespace sss::server {

struct ClientOptions {
  /// Must accept every frame the server can send back.
  ProtocolLimits limits;
  /// Added to a request's deadline_ms when arming the socket timeouts: the
  /// server may legitimately spend the whole deadline and still owe the
  /// wire its kCancelled response, so the transport gives it this much
  /// extra before classifying the peer as stalled.
  uint32_t deadline_slack_ms = 50;
  /// Socket timeout for exchanges whose request carries no deadline
  /// (0 = block forever, the historical behavior).
  uint32_t default_timeout_ms = 0;
};

class Client {
 public:
  Client() = default;
  SSS_DISALLOW_COPY_AND_ASSIGN(Client);
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  /// \brief Connects to a running server.
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ClientOptions& options);

  /// \brief Convenience Connect with default slack/timeouts. `limits` must
  /// accept every frame the server can send back.
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ProtocolLimits& limits = {});

  bool connected() const noexcept { return socket_.valid(); }

  /// \brief Drops the (possibly broken) connection and dials the endpoint
  /// Connect() was given again. Request ids and byte counters carry over.
  Status Reconnect();

  /// \brief Sends `request` and blocks for its response — at most
  /// deadline_ms + slack (see ClientOptions) when the request carries a
  /// deadline. Fills the request id from an internal counter when the
  /// caller left it 0. Verifies the response echoes the request id
  /// (mismatch = kCorruption). A kDeadlineExceeded return means the peer
  /// stalled mid-exchange; the connection cannot resync — Reconnect().
  Status Call(Request request, Response* out);

  /// \brief Convenience Call: one query with threshold `k` and an optional
  /// per-request deadline against the server's default engine.
  Status Search(std::string_view query, uint32_t k, uint32_t deadline_ms,
                Response* out);

  /// \brief Admin: ask the server to publish a fresh engine generation from
  /// `path` (empty = re-read its current source). On a kOk response,
  /// out->generation is the newly published generation id.
  Status Reload(std::string_view path, Response* out);

  /// \brief Admin: read the server's current generation id into
  /// out->generation. A host server answers with its published generation
  /// (0 only before its first publish); a handler server (sss_router)
  /// answers with whatever its handler returns — the router rejects admin
  /// frames with kInvalid and generation 0.
  Status GetGeneration(Response* out);

  /// \brief Pipelined mode: writes `request` without waiting for its
  /// response and returns the request id it was sent under (assigned from
  /// the internal counter when the caller left it 0; a caller-chosen id
  /// already outstanding is kInvalid). Collect responses with Receive().
  /// Bounding the pipeline depth is the caller's job.
  Result<uint64_t> Send(Request request);

  /// \brief Blocks for the next response frame on the wire — whichever
  /// outstanding request it answers — and removes its id from the
  /// outstanding set. A response for an id that was never sent is
  /// kCorruption. kInvalid when nothing is outstanding. Socket timeouts
  /// armed by Send() (or ClientOptions::default_timeout_ms) apply.
  Status Receive(Response* out);

  /// \brief Requests sent whose responses have not been received yet.
  size_t outstanding() const noexcept { return outstanding_.size(); }

  void Close() noexcept {
    socket_.Close();
    outstanding_.clear();
    rbuf_.clear();
    rbuf_off_ = 0;
  }

  /// \brief Wire bytes this client has sent / received (for loadgen's
  /// client-side mirror of the server byte counters).
  uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  /// Arms both socket timeouts iff `timeout_ms` differs from what is
  /// already armed.
  Status ArmTimeouts(uint32_t timeout_ms);

  /// Blocks for one response frame; no id bookkeeping.
  Status ReadResponse(Response* out);

  /// ReadFull semantics (blocks; short count = clean peer close; armed
  /// SO_RCVTIMEO expiry = kDeadlineExceeded) through a receive buffer: each
  /// refill drains whatever the kernel has in one recv, so a pipelined
  /// window's worth of responses costs one syscall, not two per frame.
  Result<size_t> BufferedRead(void* out, size_t len);

  net::Socket socket_;
  ClientOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t armed_timeout_ms_ = 0;
  uint64_t next_id_ = 1;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  std::unordered_set<uint64_t> outstanding_;  // pipelined ids in flight
  std::string rbuf_;       // received bytes not yet consumed
  size_t rbuf_off_ = 0;    // prefix of rbuf_ already consumed
};

}  // namespace sss::server
