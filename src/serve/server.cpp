#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "util/error.h"

namespace wearscope::serve {

namespace {

/// Writes all of `bytes` to socket `fd`; false once the peer is gone.
/// MSG_NOSIGNAL: a peer that resets mid-answer must cost its connection,
/// never the process (SIGPIPE's default action is to terminate).
bool send_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (w <= 0) return false;
    written += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

LineServer::~LineServer() { stop_listener(); }

std::uint64_t LineServer::serve_stream(std::FILE* in, std::FILE* out) {
  std::uint64_t responses = 0;
  std::string line;
  int ch;
  while (true) {
    line.clear();
    while ((ch = std::fgetc(in)) != EOF && ch != '\n') {
      if (line.size() == kMaxLineBytes) {
        // Same cap as a TCP connection: refuse the line and end the
        // session rather than grow without bound.
        std::fputs("ERR line too long\n", out);
        std::fflush(out);
        return responses + 1;
      }
      line += static_cast<char>(ch);
    }
    if (line.empty() && ch == EOF) break;
    const std::string response = engine_->answer(line);
    if (!response.empty()) {
      std::fputs(response.c_str(), out);
      std::fputc('\n', out);
      std::fflush(out);
      ++responses;
    }
    if (ch == EOF) break;
  }
  return responses;
}

void LineServer::start_listener(std::uint16_t port) {
  {
    util::MutexLock lock(mutex_);
    util::require(listen_fd_.load(std::memory_order_relaxed) < 0 && !stopping_,
                  "LineServer: listener already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw util::IoError("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw util::IoError("bind/listen 127.0.0.1:" + std::to_string(port) +
                        ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void LineServer::accept_loop() {
  while (true) {
    // Re-read each iteration: stop_listener() retires the descriptor to
    // -1 before closing it, so a post-stop iteration fails fast instead
    // of accepting on a possibly-recycled fd number.
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // Listener shut down (or fatal error): stop.
    // Each answer is one small write: without this, Nagle holds it back
    // until the client's delayed ACK of the previous one.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::vector<std::thread> finished;
    bool refused = false;
    {
      util::MutexLock lock(mutex_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      finished = take_finished();
      refused = connection_fds_.size() >= kMaxConnections;
      if (!refused) {
        connection_fds_.push_back(fd);
        connection_threads_.emplace_back(
            [this, fd] { serve_connection(fd); });
      }
    }
    if (refused) {
      // Over the cap: one answer and the door, on the accept thread, so a
      // connection flood costs no thread per connection.
      send_all(fd, "ERR too many connections\n");
      ::close(fd);
    }
    // Joined outside the lock: a finished thread only has its close() left.
    for (std::thread& thread : finished) thread.join();
  }
}

std::vector<std::thread> LineServer::take_finished() {
  std::vector<std::thread> done;
  std::vector<std::thread> running;
  for (std::thread& thread : connection_threads_) {
    const bool finished = std::find(finished_.begin(), finished_.end(),
                                    thread.get_id()) != finished_.end();
    (finished ? done : running).push_back(std::move(thread));
  }
  connection_threads_.swap(running);
  finished_.clear();
  return done;
}

std::size_t LineServer::connection_threads() const {
  util::MutexLock lock(mutex_);
  return connection_threads_.size();
}

void LineServer::serve_connection(int fd) {
  // A connection is a byte stream of query lines; answer line by line.
  // `pending[0, scanned)` is known to hold no newline, so every byte is
  // scanned once however many reads a line spans.
  std::string pending;
  std::size_t scanned = 0;
  char buf[4096];
  bool peer_alive = true;
  while (peer_alive) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl;
    while (peer_alive &&
           (nl = pending.find('\n', scanned)) != std::string::npos) {
      std::string response =
          engine_->answer(std::string_view(pending).substr(start, nl - start));
      start = nl + 1;
      scanned = start;
      if (response.empty()) continue;
      response += '\n';
      peer_alive = send_all(fd, response);  // a failed write ends it
    }
    pending.erase(0, start);
    scanned = pending.size();
    if (pending.size() > kMaxLineBytes) {
      // Refuse the line and end only this connection; a client that never
      // sends a newline must not grow the server's memory.
      send_all(fd, "ERR line too long\n");
      break;
    }
  }
  {
    // Deregister before close so stop_listener() never shuts down a
    // recycled descriptor, and offer this thread to the next reap.
    util::MutexLock lock(mutex_);
    std::erase(connection_fds_, fd);
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

void LineServer::stop_listener() {
  {
    util::MutexLock lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    // Wake blocked reads so connection threads notice shutdown.
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes the accept thread if it is parked in accept();
    // the exchange above already hid the fd from further iterations.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(mutex_);
    threads.swap(connection_threads_);
    connection_fds_.clear();
    finished_.clear();
  }
  for (std::thread& thread : threads) thread.join();
  bound_port_.store(0, std::memory_order_relaxed);
}

}  // namespace wearscope::serve
