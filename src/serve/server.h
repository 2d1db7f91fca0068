// The always-on serving front ends: a newline-delimited query loop over
// stdio streams, and an optional localhost TCP listener speaking the same
// protocol (one query line in, one response line out).
//
// Threading: serve_stream() runs on the caller's thread.  The listener is
// one poll() thread that owns every socket and every connection's buffers,
// so the server holds no lock; it answers queries inline, on the shared
// QueryEngine, whose answers take only lock-free/immutable paths (see
// query_engine.h).  Ingest keeps running underneath.  While a connection
// has answer bytes the kernel has not taken, the loop reads nothing more
// from it, so a client that never reads holds about one answer and
// stalls no one else.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "serve/query_engine.h"

namespace wearscope::serve {

class LineServer {
 public:
  /// `engine` must outlive the server.
  explicit LineServer(QueryEngine& engine) : engine_(&engine) {}
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Reads query lines from `in` until EOF, writing one response line per
  /// query to `out` (flushed per response — callers may be pipes).  Reads
  /// the descriptor behind `in` directly, so each line is answered as soon
  /// as it arrives; bytes already in `in`'s stdio buffer are not seen.
  /// Blank and "#"-comment lines produce no output; an unterminated last
  /// line is answered at EOF.  A line over kMaxLineBytes is answered with
  /// `ERR line too long` and ends the session.  Returns responses written.
  std::uint64_t serve_stream(std::FILE* in, std::FILE* out);

  /// Longest query line a session may hold without a newline.  A longer
  /// one is answered with `ERR line too long` and its session (the stdin
  /// stream, or one TCP connection) ends; other connections keep being
  /// served.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Most TCP connections served at once.  While that many are open, the
  /// listener answers a new one with `ERR too many connections` and closes
  /// it; the open ones keep being served.
  static constexpr std::size_t kMaxConnections = 64;

  /// A TCP connection that reads no whole query line and has no answer
  /// byte taken by the kernel for this long is closed.
  static constexpr std::chrono::seconds kIdleTimeout{10};

  /// Starts the TCP listener on 127.0.0.1:`port` (0 = kernel-assigned;
  /// read the result back with bound_port()).  Throws util::IoError when
  /// the socket cannot be bound.
  void start_listener(std::uint16_t port);

  /// Stops accepting, closes open connections and joins the listener
  /// thread.  Idempotent; also runs from the destructor.
  void stop_listener();

  /// Port the listener is bound to (0 when not listening).
  [[nodiscard]] std::uint16_t bound_port() const noexcept {
    return bound_port_;
  }

 private:
  void poll_loop(int listen_fd);

  QueryEngine* engine_ = nullptr;
  std::uint16_t bound_port_ = 0;
  /// Written by stop_listener() to wake the loop thread.
  int wake_fd_ = -1;
  std::thread loop_thread_;
};

}  // namespace wearscope::serve
