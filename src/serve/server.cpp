#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace wearscope::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One session's state: the stdio stream's, or one TCP connection's.
struct Session {
  std::string in;           ///< Received bytes; in[0, start) are answered.
  std::size_t start = 0;
  std::size_t scanned = 0;  ///< in[start, scanned) holds no newline.
  std::string out;          ///< Answer bytes not yet written.
  std::uint64_t responses = 0;
  bool eof = false;      ///< The peer has sent its last byte.
  bool refused = false;  ///< An overlong line was refused: nothing follows.
  int fd = -1;           ///< TCP only: the socket and its idle deadline.
  Clock::time_point deadline;

  void take(const char* bytes, std::size_t n) {
    in.erase(0, start);
    scanned -= start;
    start = 0;
    in.append(bytes, n);
  }
  /// No line is left to answer; the session ends once `out` is written.
  [[nodiscard]] bool done() const {
    return refused || (eof && start == in.size());
  }
  /// Nothing to write and no unscanned byte that may end a line.
  [[nodiscard]] bool wants_input() const {
    return out.empty() && scanned == in.size() && !done();
  }
};

/// The one line framer of both front ends: answers the next whole line
/// buffered in `s`, appending its response line (none for blank and
/// comment lines) to `s.out`.  At EOF an unterminated last line counts as
/// whole.  Returns false when no whole line is buffered; an unterminated
/// tail over kMaxLineBytes is then refused instead and ends the session.
bool answer_next(QueryEngine& engine, Session& s) {
  if (s.refused) return false;
  std::size_t end = s.in.find('\n', s.scanned);
  if (end == std::string::npos) {
    s.scanned = end = s.in.size();
    if (end - s.start > LineServer::kMaxLineBytes) {
      s.out += "ERR line too long\n";
      ++s.responses;
      s.refused = true;
      return false;
    }
    if (!s.eof || end == s.start) return false;
  }
  const std::string response =
      engine.answer(std::string_view(s.in).substr(s.start, end - s.start));
  s.start = s.scanned = std::min(end + 1, s.in.size());
  if (!response.empty()) {
    s.out += response;
    s.out += '\n';
    ++s.responses;
  }
  return true;
}

/// Gives a ready connection one turn: reads when it wants input, answers
/// at most one line (so one client's burst cannot hold the loop) and
/// writes what the kernel takes.  Returns false once the connection is
/// finished or broken.
bool serve_ready(QueryEngine& engine, Session& c, Clock::time_point now) {
  if (c.wants_input()) {
    char buf[4096];
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.take(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      c.eof = true;
    } else if (errno != EAGAIN && errno != EINTR) {
      return false;
    }
  }
  if (c.out.empty() && answer_next(engine, c)) {
    c.deadline = now + LineServer::kIdleTimeout;
  }
  if (c.out.empty()) return !c.done();
  // MSG_NOSIGNAL: a peer that resets mid-answer must cost its connection,
  // never the process (SIGPIPE's default action).
  const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
  if (w < 0) return errno == EAGAIN || errno == EINTR;
  c.out.erase(0, static_cast<std::size_t>(w));
  c.deadline = now + LineServer::kIdleTimeout;
  return !c.out.empty() || !c.done();
}

}  // namespace

LineServer::~LineServer() { stop_listener(); }

std::uint64_t LineServer::serve_stream(std::FILE* in, std::FILE* out) {
  Session s;
  char buf[4096];
  while (!s.done()) {
    // read(2), not fread: a line on a pipe is answered when it arrives,
    // not when a buffer fills.
    const ssize_t n = ::read(::fileno(in), buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) {
      s.take(buf, static_cast<std::size_t>(n));
    } else {
      s.eof = true;
    }
    while (answer_next(*engine_, s) || !s.out.empty()) {
      std::fwrite(s.out.data(), 1, s.out.size(), out);
      std::fflush(out);
      s.out.clear();
    }
  }
  return s.responses;
}

void LineServer::start_listener(std::uint16_t port) {
  util::require(!loop_thread_.joinable(),
                "LineServer: listener already started");
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw util::IoError("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0 || (wake_fd_ = ::eventfd(0, EFD_CLOEXEC)) < 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw util::IoError("bind/listen 127.0.0.1:" + std::to_string(port) +
                        ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  loop_thread_ = std::thread([this, fd] { poll_loop(fd); });
}

void LineServer::poll_loop(int listen_fd) {
  std::vector<Session> connections;
  std::vector<pollfd> fds;
  while (true) {
    fds.assign({{wake_fd_, POLLIN, 0}, {listen_fd, POLLIN, 0}});
    Clock::time_point next_deadline = Clock::time_point::max();
    for (const Session& c : connections) {
      // Room, not input, while output or buffered lines are pending.
      const short events = c.wants_input() ? POLLIN : POLLOUT;
      fds.push_back({c.fd, events, 0});
      next_deadline = std::min(next_deadline, c.deadline);
    }
    int timeout_ms = -1;
    if (!connections.empty()) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          next_deadline - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(wait.count(), 0));
    }
    ::poll(fds.data(), fds.size(), timeout_ms);  // EINTR: just go round
    if (fds[0].revents != 0) break;

    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < connections.size(); ++i) {
      Session& c = connections[i];
      const bool open =
          (fds[i + 2].revents == 0 || serve_ready(*engine_, c, now)) &&
          now < c.deadline;
      if (!open) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    std::erase_if(connections, [](const Session& c) { return c.fd < 0; });

    if (fds[1].revents == 0) continue;
    // Any accept failure (EAGAIN, a client that reset before the accept,
    // out of descriptors) ends this round only.
    int fd;
    while ((fd = ::accept4(listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0) {
      if (connections.size() >= kMaxConnections) {
        // Over the cap: one answer and the door.  A fresh socket's send
        // buffer always has room for the line.
        constexpr std::string_view kRefusal = "ERR too many connections\n";
        ::send(fd, kRefusal.data(), kRefusal.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      // Each answer is one small write: without this, Nagle holds it back
      // until the client's delayed ACK of the previous one.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      Session& c = connections.emplace_back();
      c.fd = fd;
      c.deadline = now + kIdleTimeout;
    }
  }
  for (const Session& c : connections) ::close(c.fd);
  ::close(listen_fd);
}

void LineServer::stop_listener() {
  if (!loop_thread_.joinable()) return;
  const std::uint64_t one = 1;  // an eventfd write of 1 cannot fail
  [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof one);
  loop_thread_.join();
  ::close(wake_fd_);
  wake_fd_ = -1;
  bound_port_ = 0;
}

}  // namespace wearscope::serve
