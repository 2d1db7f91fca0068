// The always-on serving front ends: a newline-delimited query loop over
// stdio streams, and an optional localhost TCP listener speaking the same
// protocol (one query line in, one response line out).
//
// Threading: serve_stream() runs on the caller's thread.  The listener
// owns one accept thread plus one thread per connection; every connection
// shares the same QueryEngine, which is safe because answering only takes
// lock-free/immutable paths (see query_engine.h).  Ingest keeps running
// underneath — that is the point of the subsystem.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "serve/query_engine.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wearscope::serve {

class LineServer {
 public:
  /// `engine` must outlive the server.
  explicit LineServer(QueryEngine& engine) : engine_(&engine) {}
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Reads query lines from `in` until EOF, writing one response line per
  /// query to `out` (flushed per response — callers may be pipes).  Blank
  /// and "#"-comment lines produce no output.  A line over kMaxLineBytes
  /// is answered with `ERR line too long` and ends the session.  Returns
  /// responses written.
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

  /// Starts the TCP listener on 127.0.0.1:`port` (0 = kernel-assigned;
  /// read the result back with bound_port()).  Throws util::IoError when
  /// the socket cannot be bound.
  void start_listener(std::uint16_t port) WS_EXCLUDES(mutex_);

  /// Stops accepting, shuts down open connections and joins all listener
  /// threads.  Idempotent; also runs from the destructor.
  void stop_listener() WS_EXCLUDES(mutex_);

  /// Port the listener is bound to (0 when not listening).
  [[nodiscard]] std::uint16_t bound_port() const noexcept {
    return bound_port_.load(std::memory_order_relaxed);
  }

  /// Connection threads the listener still holds: the open connections
  /// plus finished ones not yet joined.  The accept loop joins finished
  /// threads whenever a connection arrives, so a long-running listener
  /// holds about as many threads as it has open connections, not one per
  /// connection it ever served.
  [[nodiscard]] std::size_t connection_threads() const WS_EXCLUDES(mutex_);

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Takes the finished connection threads out of connection_threads_;
  /// the caller joins them after releasing the lock.
  [[nodiscard]] std::vector<std::thread> take_finished() WS_REQUIRES(mutex_);

  QueryEngine* engine_ = nullptr;
  /// Atomic: the accept thread re-reads it each iteration while
  /// stop_listener() retires it from the caller's thread.
  std::atomic<int> listen_fd_{-1};
  std::atomic<std::uint16_t> bound_port_{0};
  std::thread accept_thread_;

  mutable util::Mutex mutex_;
  std::vector<int> connection_fds_ WS_GUARDED_BY(mutex_);
  std::vector<std::thread> connection_threads_ WS_GUARDED_BY(mutex_);
  /// Connection threads that have deregistered and are about to return.
  std::vector<std::thread::id> finished_ WS_GUARDED_BY(mutex_);
  bool stopping_ WS_GUARDED_BY(mutex_) = false;
};

}  // namespace wearscope::serve
