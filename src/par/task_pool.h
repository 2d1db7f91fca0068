// wearscope::par — the deterministic task scheduler behind the batch path.
//
// A fixed-size pool of worker threads executing explicit task batches.
// Determinism is structural, not scheduled: callers hand the pool tasks
// that write disjoint state (one StudyReport field, one user shard, one
// contiguous user slice) and merge results in a fixed canonical order, so
// the output is bitwise identical for every thread count.  With
// `threads == 1` no worker thread is ever spawned and run() executes the
// batch inline in submission order — exactly the sequential code path.
//
// Threading contract: exactly one thread (the owner) calls run(); the
// owning thread participates as an executor, so a pool of N threads means
// N-1 parked workers plus the caller.  Tasks must not call back into the
// pool.  The first task exception is rethrown from run() after the whole
// batch has drained (with one thread it propagates immediately, like the
// plain loop it replaces).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wearscope::par {

/// Cuts [0, n) into at most `max_slices` contiguous, non-empty slices of
/// near-equal weight and returns their bounds: slice s is
/// [bounds[s], bounds[s + 1]), bounds.front() == 0, bounds.back() == n
/// (just {0} when n == 0).  `prefix(i)` is the total weight of items
/// [0, i): non-decreasing, prefix(0) == 0.  Each slice closes at the first
/// item that brings it to its fair share of the weight still unassigned
/// (that weight over the slices still to cut), keeping one item for each
/// of them, so a heavy item ends its slice and the items after it spread
/// over the rest.  All-zero weights split by count.  Pure: the bounds
/// depend only on n, max_slices and the weights.
template <typename Prefix>
[[nodiscard]] std::vector<std::size_t> slice_bounds(std::size_t n,
                                                    std::size_t max_slices,
                                                    Prefix&& prefix) {
  const std::size_t slices = std::min(std::max<std::size_t>(max_slices, 1), n);
  std::vector<std::size_t> bounds{0};
  if (slices == 0) return bounds;
  if (slices == 1) return {0, n};
  // All-zero weights weigh every item 1.
  const bool by_count = prefix(n) == 0;
  const auto weight_before = [&prefix, by_count](std::size_t i) {
    return by_count ? static_cast<std::uint64_t>(i)
                    : static_cast<std::uint64_t>(prefix(i));
  };
  const std::uint64_t total = weight_before(n);
  std::size_t lo = 0;
  for (std::size_t left = slices; left > 1; --left) {
    const std::uint64_t base = weight_before(lo);
    const std::uint64_t share = (total - base + left - 1) / left;
    // Smallest hi in [lo + 1, n - (left - 1)] with prefix(hi) - base >=
    // share, else that range's end.
    std::size_t a = lo + 1;
    std::size_t b = n - (left - 1);
    while (a < b) {
      const std::size_t mid = a + (b - a) / 2;
      if (weight_before(mid) - base >= share) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    bounds.push_back(a);
    lo = a;
  }
  bounds.push_back(n);
  return bounds;
}

/// slice_bounds over per-item weights: `weight(i)` is item i's cost.
template <typename Weight>
[[nodiscard]] std::vector<std::size_t> weighted_slice_bounds(
    std::size_t n, std::size_t max_slices, Weight&& weight) {
  if (std::min(max_slices, n) <= 1) {
    return n == 0 ? std::vector<std::size_t>{0}
                  : std::vector<std::size_t>{0, n};
  }
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + static_cast<std::uint64_t>(weight(i));
  return slice_bounds(n, max_slices,
                      [&prefix](std::size_t i) { return prefix[i]; });
}

/// Fixed-size thread pool executing explicit batches of independent tasks.
class TaskPool {
 public:
  /// `threads` >= 1 executors (clamped up to 1). Spawns `threads - 1`
  /// workers; they park until run() publishes a batch.
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Executor count (workers + the calling thread).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Executes every task and returns once all completed.  Tasks may run in
  /// any order and concurrently; with threads() == 1 they run inline in
  /// submission order.  Rethrows the first task exception after the batch
  /// drains.
  void run(std::vector<std::function<void()>> tasks);

  /// Splits [0, n) into at most threads() contiguous slices of near-equal
  /// weight and runs `fn(begin, end, slice)` for each; `weight(i)` is item
  /// i's cost (see slice_bounds).  `slice` indexes the slice (dense, in
  /// range order) so callers can keep per-slice scratch state; slices
  /// never overlap.  With threads() == 1 the one slice runs inline.
  template <typename Weight, typename Fn>
  void for_weighted_slices(std::size_t n, Weight&& weight, Fn&& fn) {
    run_slices(weighted_slice_bounds(n, threads_, weight), fn);
  }

  /// for_weighted_slices with every item weighing the same.
  template <typename Fn>
  void for_slices(std::size_t n, Fn&& fn) {
    run_slices(slice_bounds(n, threads_,
                            [](std::size_t i) -> std::uint64_t { return i; }),
               fn);
  }

 private:
  /// Runs `fn(bounds[s], bounds[s + 1], s)` for every slice s, as one
  /// batch (inline when there is a single slice).
  template <typename Fn>
  void run_slices(const std::vector<std::size_t>& bounds, Fn& fn) {
    const std::size_t slices = bounds.size() - 1;
    if (slices == 1) {
      fn(bounds[0], bounds[1], std::size_t{0});
      return;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(slices);
    for (std::size_t s = 0; s < slices; ++s) {
      tasks.push_back(
          [&fn, lo = bounds[s], hi = bounds[s + 1], s] { fn(lo, hi, s); });
    }
    run(std::move(tasks));
  }

  void worker_loop();

  /// Runs one claimed task, records its exception (first wins) and
  /// signals batch completion.
  void execute_and_account(std::function<void()>& task);

  std::size_t threads_ = 1;
  util::Mutex mu_;
  util::CondVar work_cv_;  ///< Signals workers: batch published / stop.
  util::CondVar done_cv_;  ///< Signals run(): pending_ reached zero.
  std::vector<std::function<void()>>* batch_ WS_GUARDED_BY(mu_) = nullptr;
  std::size_t next_ WS_GUARDED_BY(mu_) = 0;
  std::size_t pending_ WS_GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ WS_GUARDED_BY(mu_);
  bool stop_ WS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace wearscope::par
