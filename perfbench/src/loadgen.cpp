#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "tracer.h"

namespace perfbench {

namespace {

Clock::time_point from_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

OpenLoopLoad::OpenLoopLoad(std::uint16_t port, double rate,
                           std::vector<MixEntry> mix)
    : rate_(rate), mix_(std::move(mix)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("loadgen: cannot connect to the listener");
  }
  // Queries are small writes that must leave at their due time.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A wedged server must end the run as a counted failure, not hang it.
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sender_ = std::thread([this] { send_loop(); });
  receiver_ = std::thread([this] { receive_loop(); });
}

OpenLoopLoad::~OpenLoopLoad() {
  stop_.store(true, std::memory_order_release);
  if (sender_.joinable()) sender_.join();
  if (receiver_.joinable()) receiver_.join();
  if (fd_ >= 0) ::close(fd_);
}

void OpenLoopLoad::on_publish(std::uint64_t epoch) {
  if (!started_.load(std::memory_order_relaxed)) {
    first_epoch_.store(epoch, std::memory_order_relaxed);
    latest_epoch_.store(epoch, std::memory_order_relaxed);
    t0_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now().time_since_epoch())
                     .count(),
                 std::memory_order_relaxed);
    started_.store(true, std::memory_order_release);
    return;
  }
  latest_epoch_.store(epoch, std::memory_order_release);
}

void OpenLoopLoad::send_loop() {
  while (!started_.load(std::memory_order_acquire)) {
    if (stop_.load(std::memory_order_acquire)) {
      ::shutdown(fd_, SHUT_WR);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const Clock::time_point t0 = from_ns(t0_ns_.load(std::memory_order_relaxed));
  const std::chrono::duration<double> period(1.0 / rate_);
  const auto due = [&](std::uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    period * static_cast<double>(i));
  };
  const std::uint64_t first = first_epoch_.load(std::memory_order_relaxed);
  std::uint64_t next = 0;
  std::string batch;
  while (!stop_.load(std::memory_order_acquire)) {
    const Clock::time_point now = Clock::now();
    const auto due_count =
        static_cast<std::uint64_t>((now - t0) / period) + 1;
    const std::uint64_t latest =
        latest_epoch_.load(std::memory_order_acquire);
    const std::uint64_t epoch =
        latest >= first + kHistoryDepth ? latest - kHistoryDepth : first;
    batch.clear();
    for (; next < due_count; ++next) {
      const MixEntry& entry = mix_[next % mix_.size()];
      batch += entry.text;
      if (entry.historical) {
        batch += " @";
        batch += std::to_string(epoch);
      }
      batch += '\n';
      sender_stats_.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due(next)).count());
    }
    std::size_t written = 0;
    while (written < batch.size()) {
      const ssize_t n = ::send(fd_, batch.data() + written,
                               batch.size() - written, MSG_NOSIGNAL);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    if (written < batch.size()) break;
    sender_stats_.sent = next;
    std::this_thread::sleep_until(due(next));
  }
  ::shutdown(fd_, SHUT_WR);
}

void OpenLoopLoad::receive_loop() {
  LoadStats& stats = receiver_stats_;
  std::string pending;
  std::size_t scan = 0;
  std::uint64_t index = 0;
  Clock::time_point t0;
  std::chrono::duration<double> period(1.0 / rate_);
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      stats.receive_failed = true;
      break;
    }
    const Clock::time_point now = Clock::now();
    if (index == 0 && pending.empty()) {
      t0 = from_ns(t0_ns_.load(std::memory_order_relaxed));
    }
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = pending.find('\n', scan)) != std::string::npos) {
      if (pending.compare(start, 3, "ERR") == 0) {
        if (stats.errors++ == 0) stats.first_error = pending.substr(start, nl - start);
      }
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   period * static_cast<double>(index));
      stats.latency_us.push_back(
          std::chrono::duration<double, std::micro>(now - due).count());
      ++index;
      start = nl + 1;
      scan = start;
    }
    pending.erase(0, start);
    scan = pending.size();
  }
  stats.answered = index;
}

LoadStats OpenLoopLoad::finish() {
  stop_.store(true, std::memory_order_release);
  sender_.join();
  receiver_.join();
  LoadStats out = std::move(receiver_stats_);
  out.sent = sender_stats_.sent;
  out.late_ms = std::move(sender_stats_.late_ms);
  return out;
}

}  // namespace perfbench
