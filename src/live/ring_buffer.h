// Bounded single-producer/single-consumer ring buffer with blocking
// push/pop, cooperative shutdown, and explicit backpressure accounting.
//
// The fast path is lock-free: the producer owns `head_`, the consumer owns
// `tail_`, and each side only reads the other's index (classic SPSC ring).
// A mutex + condition variables exist only for the slow path — a side that
// finds the ring full/empty parks on its condvar, and the opposite side
// posts a wakeup only when the `*_waiting_` flag says someone is actually
// parked, so an uncontended stream never takes the lock after warm-up.
//
// Commits are batched: push_n() moves as many elements as fit and
// publishes them with one `head_` store, and pop_n() takes everything
// buffered (up to its limit) with one `tail_` store.  Each side then runs
// one wake check per chunk, not per element.  push()/pop() are the
// one-element calls of the same two functions.
//
// The park/wake handshake is the store-buffering pattern, once per chunk:
// the waiter does W(waiting flag) then R(index), the other side does
// W(index) then R(waiting flag).  Both pairs use seq_cst so the outcome
// "waiter saw the stale index AND the publisher saw waiting == false" is
// impossible — one side always observes the other, which rules out the
// lost wakeup.  A chunk publishes all its elements with that one index
// store, so the handshake covers a whole batch exactly as it covers one
// element.
//
// Shutdown: close() wakes both sides; push_n() then refuses the elements
// it has not yet committed (counted in stats().rejected) while pop_n()
// keeps draining until the ring is empty — no records are lost on a
// graceful drain.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/sched_hook.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wearscope::live {

/// Counters exposed by RingBuffer::stats(); totals since construction.
/// `pushed`/`popped`/`rejected` count elements, whatever the chunk sizes.
/// `producer_waits`/`consumer_waits` count *blocking episodes*, not parked
/// nanoseconds or elements: they are the backpressure signal (a producer
/// wait means the shard is the bottleneck, a consumer wait means the feed
/// is).  With batched commits a consumer parks at most once per chunk the
/// producer publishes, so both fall far below one per element.
struct RingStats {
  std::uint64_t pushed = 0;          ///< Elements accepted by push_n().
  std::uint64_t popped = 0;          ///< Elements handed out by pop_n().
  std::uint64_t producer_waits = 0;  ///< push_n() found the ring full.
  std::uint64_t consumer_waits = 0;  ///< pop_n() found the ring empty.
  std::uint64_t rejected = 0;        ///< Elements push_n() refused on close.

  RingStats& operator+=(const RingStats& o) noexcept {
    pushed += o.pushed;
    popped += o.popped;
    producer_waits += o.producer_waits;
    consumer_waits += o.consumer_waits;
    rejected += o.rejected;
    return *this;
  }
};

/// Bounded blocking SPSC queue.  Exactly one producer thread may call
/// push()/push_n() and exactly one consumer thread may call pop()/pop_n();
/// close(), stats() and size() are safe from anywhere.
template <typename T>
class RingBuffer {
 public:
  /// `capacity` must be >= 1 (capacity 1 is legal and heavily stress-tested:
  /// it degenerates into a rendezvous buffer).
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) {
    util::require(capacity >= 1, "RingBuffer: capacity must be >= 1");
  }

  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  /// Moves `values[0, n)` into the ring in order, blocking while it is
  /// full.  Each chunk that fits is published with one index store, one
  /// `pushed` add and one wake check; chunks repeat until all `n` are in.
  /// Once the ring is closed the rest is dropped and counted in
  /// stats().rejected.  Returns how many elements were accepted (a prefix
  /// of `values`).
  std::size_t push_n(T* values, std::size_t n) WS_EXCLUDES(wait_mutex_) {
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t accepted = 0;
    while (accepted < n) {
      std::size_t room = 0;
      for (;;) {
        util::sched::point(util::sched::Op::kRingPush, this);
        if (closed_.load(std::memory_order_acquire)) {
          rejected_.fetch_add(n - accepted, std::memory_order_relaxed);
          return accepted;
        }
        room = slots_.size() - (head - tail_.load(std::memory_order_acquire));
        if (room > 0) break;
        producer_waits_.fetch_add(1, std::memory_order_relaxed);
        util::MutexLock lock(wait_mutex_);
        producer_waiting_.store(true, std::memory_order_seq_cst);
        not_full_.wait(wait_mutex_, [&] {
          return closed_.load(std::memory_order_seq_cst) ||
                 head - tail_.load(std::memory_order_seq_cst) < slots_.size();
        });
        producer_waiting_.store(false, std::memory_order_seq_cst);
      }
      // Choice point between the full/closed checks and the commit: lets
      // the explorer interleave close() into the publication window.
      util::sched::point(util::sched::Op::kRingCommit, this);
      const std::size_t chunk = std::min(room, n - accepted);
      T* const from = values + accepted;
      const std::size_t at = head % slots_.size();
      const std::size_t first = std::min(chunk, slots_.size() - at);
      std::move(from, from + first, slots_.data() + at);
      std::move(from + first, from + chunk, slots_.data());
      head += chunk;
      head_.store(head, std::memory_order_seq_cst);
      pushed_.fetch_add(chunk, std::memory_order_relaxed);
      wake(consumer_waiting_, not_empty_);
      accepted += chunk;
    }
    return accepted;
  }

  /// Blocks while the ring is full; returns false (and drops `value`) once
  /// the ring is closed.
  bool push(T value) WS_EXCLUDES(wait_mutex_) {
    return push_n(&value, 1) == 1;
  }

  /// Moves every buffered element, up to `max` (>= 1), into `out` in FIFO
  /// order with one index store, blocking while the ring is empty.
  /// Returns 0 only when the ring is closed *and* fully drained.
  std::size_t pop_n(T* out, std::size_t max) WS_EXCLUDES(wait_mutex_) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t head = 0;
    for (;;) {
      util::sched::point(util::sched::Op::kRingPop, this);
      head = head_.load(std::memory_order_acquire);
      if (head != tail) break;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check after the closed flag: a final element may have been
        // published between the emptiness test and the flag read.
        head = head_.load(std::memory_order_seq_cst);
        if (head == tail) return 0;
        break;
      }
      consumer_waits_.fetch_add(1, std::memory_order_relaxed);
      util::MutexLock lock(wait_mutex_);
      consumer_waiting_.store(true, std::memory_order_seq_cst);
      not_empty_.wait(wait_mutex_, [&] {
        return closed_.load(std::memory_order_seq_cst) ||
               head_.load(std::memory_order_seq_cst) != tail;
      });
      consumer_waiting_.store(false, std::memory_order_seq_cst);
    }
    util::sched::point(util::sched::Op::kRingCommit, this);
    const std::size_t taken = std::min(head - tail, max);
    const std::size_t at = tail % slots_.size();
    const std::size_t first = std::min(taken, slots_.size() - at);
    T* const slots = slots_.data();
    std::move(slots + at, slots + at + first, out);
    std::move(slots, slots + (taken - first), out + first);
    tail_.store(tail + taken, std::memory_order_seq_cst);
    popped_.fetch_add(taken, std::memory_order_relaxed);
    wake(producer_waiting_, not_full_);
    return taken;
  }

  /// Blocks while the ring is empty; returns false only when the ring is
  /// closed *and* fully drained.
  bool pop(T& out) WS_EXCLUDES(wait_mutex_) { return pop_n(&out, 1) == 1; }

  /// Stops the stream: subsequent pushes fail fast, blocked callers on
  /// either side wake up, pops drain the remaining elements.
  /// Idempotent; callable from any thread.
  void close() WS_EXCLUDES(wait_mutex_) {
    util::sched::point(util::sched::Op::kRingClose, this);
    {
      util::MutexLock lock(wait_mutex_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// True once close() ran.
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  /// Elements currently buffered (racy by nature; exact when quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Snapshot of the backpressure counters.
  [[nodiscard]] RingStats stats() const noexcept {
    RingStats s;
    s.pushed = pushed_.load(std::memory_order_relaxed);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.producer_waits = producer_waits_.load(std::memory_order_relaxed);
    s.consumer_waits = consumer_waits_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  /// Wakes the opposite side, but only when it advertised that it parked.
  /// The seq_cst flag load forms the second half of the store-buffering
  /// handshake described in the header comment.
  void wake(std::atomic<bool>& waiting_flag, util::CondVar& cv)
      WS_EXCLUDES(wait_mutex_) {
    if (waiting_flag.load(std::memory_order_seq_cst)) {
      // Taking the mutex orders this wakeup after the waiter either went
      // to sleep or re-checked its predicate — no notify can fall into
      // the gap between the two.
      { util::MutexLock lock(wait_mutex_); }
      cv.notify_one();
    }
  }

  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< Next write position.
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< Next read position.
  std::atomic<bool> closed_{false};

  util::Mutex wait_mutex_;
  util::CondVar not_full_;
  util::CondVar not_empty_;
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};

  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> producer_waits_{0};
  std::atomic<std::uint64_t> consumer_waits_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace wearscope::live
