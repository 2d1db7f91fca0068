// Open-loop query generator for the ingest-while-serving workload.
//
// One sender thread writes query lines over one TCP connection on a fixed
// schedule: query i is due at t0 + i / rate, where t0 is the first
// snapshot publication.  A sender that falls behind writes every overdue
// query at once and never slows the schedule, so a stall in the server
// shows up as latency of the queries due during it.  One receiver thread
// reads the answers, which the protocol returns in order, and times each
// from its due time.  How late the sender itself ran is reported too: a
// late generator invalidates the latency numbers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One entry of the query mix.  Historical entries get " @E" appended,
/// with E the latest published epoch minus `kHistoryDepth` (never below
/// the first published epoch), so E is always inside the retention window.
struct MixEntry {
  std::string text;
  bool historical = false;
};

inline constexpr std::uint64_t kHistoryDepth = 32;

struct LoadStats {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t errors = 0;          ///< Answers starting with "ERR".
  std::string first_error;           ///< First ERR line, if any.
  std::vector<double> latency_us;    ///< Due time -> answer line, per answer.
  std::vector<double> late_ms;       ///< Due time -> write, per query sent.
  bool receive_failed = false;       ///< Read error or receive timeout.
};

class OpenLoopLoad {
 public:
  /// Connects to 127.0.0.1:`port` and starts both threads; sending waits
  /// for the first on_publish().
  OpenLoopLoad(std::uint16_t port, double rate, std::vector<MixEntry> mix);
  ~OpenLoopLoad();
  OpenLoopLoad(const OpenLoopLoad&) = delete;
  OpenLoopLoad& operator=(const OpenLoopLoad&) = delete;

  /// Called from the feed thread after each snapshot publication.
  void on_publish(std::uint64_t epoch);
  /// Stops sending, waits for every outstanding answer and joins both
  /// threads.  Call once.
  [[nodiscard]] LoadStats finish();

 private:
  void send_loop();
  void receive_loop();

  double rate_;
  std::vector<MixEntry> mix_;
  int fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> first_epoch_{0};
  std::atomic<std::uint64_t> latest_epoch_{0};
  std::atomic<std::int64_t> t0_ns_{0};  ///< Schedule origin, steady clock.
  LoadStats sender_stats_;    ///< Owned by the sender thread until joined.
  LoadStats receiver_stats_;  ///< Owned by the receiver thread until joined.
  std::thread sender_;
  std::thread receiver_;
};

}  // namespace perfbench
