// wearscope::sched — the deterministic scheduler.
//
// Scheduler implements util::sched::Hook: once installed, every thread
// that enters a hooked primitive (util::Mutex, util::SpinLock,
// util::CondVar, live::RingBuffer, ArrivalBarrier, SnapshotStore)
// becomes *managed*.  Exactly one managed thread holds the run token at a
// time; at every choice point the token holder asks a DecisionSource
// which runnable thread proceeds, and blocking operations park on the
// scheduler instead of the OS.  A run is therefore a pure function of the
// decision sequence, which is exactly what makes a failing interleaving
// replayable (sched/trace.h) and enumerable (sched/explorer.h).
//
// The design is CHESS-style stateless model checking: real code, real
// objects, serialized execution, schedules explored by re-running the
// model under different decision sequences.  SimGrid's UnfoldingChecker
// is the exemplar for the independence reduction the explorer layers on
// top (operations on different objects commute).
//
// Thread lifecycle: the model body runs on the calling thread (registered
// as "main"); additional roles use ManagedThread, and threads spawned
// inside the system under test (ShardWorker) self-register through the
// util::sched spawn handshake.  Models must join every thread they cause
// to exist before returning.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/trace.h"
#include "util/rng.h"
#include "util/sched_hook.h"

namespace wearscope::sched {

/// Exit status of a process whose model deadlocked under the scheduler.
/// A deadlock cannot be unwound: every unfinished thread waits on an
/// object no thread will touch, so the model could never join them.  The
/// scheduler prints the schedule and its replay recipe to stderr and ends
/// the process with this status instead of hanging.
inline constexpr int kDeadlockExitCode = 3;

/// Picks which candidate proceeds at each choice point.  choose() is
/// always called with a non-empty candidate list ordered by thread index,
/// under the scheduler's serialization (no locking needed inside).
class DecisionSource {
 public:
  virtual ~DecisionSource() = default;
  /// Returns a position in [0, candidates.size()).
  virtual int choose(const std::vector<StepCandidate>& candidates) = 0;
};

/// The non-preemptive default policy: keep running the current thread
/// while it is runnable, otherwise take the lowest-indexed candidate.
/// Used standalone and as the tail policy of PrefixSource.
class FifoSource : public DecisionSource {
 public:
  int choose(const std::vector<StepCandidate>& candidates) override;
};

/// Follows a fixed decision prefix, then falls back to FifoSource.  The
/// explorer's DFS branches are prefixes; full replay is a prefix covering
/// the whole failing run.
class PrefixSource : public DecisionSource {
 public:
  explicit PrefixSource(std::vector<int> prefix)
      : prefix_(std::move(prefix)) {}

  int choose(const std::vector<StepCandidate>& candidates) override;

  /// Steps consumed so far (== prefix length once the prefix is spent).
  [[nodiscard]] std::size_t consumed() const noexcept { return next_; }

 private:
  std::vector<int> prefix_;
  std::size_t next_ = 0;
  FifoSource tail_;
};

/// Uniform seeded random walk over the candidate sets (util::Pcg32, so a
/// seed reproduces the identical walk on every platform).
class RandomWalkSource : public DecisionSource {
 public:
  explicit RandomWalkSource(std::uint64_t seed) : rng_(seed, 0x5eedULL) {}

  int choose(const std::vector<StepCandidate>& candidates) override;

 private:
  util::Pcg32 rng_;
};

/// The deterministic scheduler; one instance per explored schedule.
class Scheduler final : public util::sched::Hook {
 public:
  struct Options {
    /// Hard step budget: exceeding it fails the schedule (runaway guard).
    std::size_t max_steps = 100000;
  };

  Scheduler(DecisionSource& source, Options options);
  ~Scheduler() override;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Installs the hook, runs `body` on the calling thread as the managed
  /// thread "main", uninstalls, and returns the recorded trace.  `body`
  /// must join every thread it caused to spawn before returning.
  [[nodiscard]] ScheduleTrace run(const std::function<void()>& body);

  /// Records an invariant violation for the current schedule.  Callable
  /// from any managed thread; thread-safe.
  void fail(std::string message);

  /// Stamped into the returned trace (walk bookkeeping only).
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  // --- util::sched::Hook ------------------------------------------------
  void point(util::sched::Op op, std::uintptr_t obj) override;
  void block(util::sched::Op op, std::uintptr_t obj) override;
  void unblock(util::sched::Op op, std::uintptr_t obj, bool all) override;
  void thread_started(const char* name) override;
  void thread_finished() override;
  void await_thread_start(std::thread::id id) override;
  void join_gate(std::thread::id id) override;

 private:
  struct ThreadRec {
    int index = 0;
    std::string name;
    std::thread::id os_id;
    enum class St { kRunnable, kRunning, kBlocked, kFinished } st =
        St::kRunnable;
    std::uintptr_t blocked_on = 0;  ///< Raw object address while kBlocked.
    std::uint64_t block_seq = 0;    ///< FIFO order for notify_one.
    util::sched::Op op = util::sched::Op::kUserPoint;  ///< Pending op.
    std::uintptr_t obj = 0;         ///< Raw object of the pending op.
    std::condition_variable cv;     ///< Token grant wakeup.
  };

  /// Registers the calling thread (locked).
  ThreadRec* register_locked(std::unique_lock<std::mutex>& lk,
                             const char* name);
  /// The calling thread's record, adopting unknown threads (locked).
  ThreadRec* self_locked(std::unique_lock<std::mutex>& lk);
  /// Stable per-run object id (assigned on first sight; 0 stays 0).
  std::uint64_t object_id_locked(std::uintptr_t obj);
  /// Picks and grants the next thread; `self_eligible` marks a preemption
  /// point (self may keep running) vs a forced switch (block/finish).
  /// Returns whether self was chosen.
  bool reschedule_locked(std::unique_lock<std::mutex>& lk, ThreadRec* self,
                        bool self_eligible);
  /// Parks the calling thread until granted the token (or free-run).
  void wait_for_token(std::unique_lock<std::mutex>& lk, ThreadRec* self);
  /// Abandons deterministic control (step overflow/model bug): records
  /// why, wakes everyone, and lets all hooks fall through so the run can
  /// finish natively instead of hanging the test process.
  void enter_free_run_locked(const std::string& why);

  DecisionSource* source_ = nullptr;
  Options opt_;
  std::uint64_t seed_ = 0;

  std::mutex mu_;
  std::condition_variable registry_cv_;  ///< await_thread_start wakeups.
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  std::unordered_map<std::thread::id, ThreadRec*> by_id_;
  std::unordered_map<std::uintptr_t, std::uint64_t> object_ids_;
  ThreadRec* running_ = nullptr;
  std::uint64_t block_seq_ = 0;
  std::atomic<bool> free_run_{false};
  ScheduleTrace trace_;
};

/// A model-role thread under the scheduler: registers on start (parking
/// until first selected), deregisters on exit, and join() gates on the
/// scheduler before the OS join.  Usable with no scheduler installed too
/// (all hooks no-op), which keeps models runnable natively.
class ManagedThread {
 public:
  ManagedThread(std::string name, std::function<void()> fn);
  ~ManagedThread();

  ManagedThread(const ManagedThread&) = delete;
  ManagedThread& operator=(const ManagedThread&) = delete;

  void join();

 private:
  std::thread thread_;
};

}  // namespace wearscope::sched
