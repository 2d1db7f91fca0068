// Scheduling hooks for deterministic interleaving exploration.
//
// The concurrency primitives in util/sync.h, live/ring_buffer.h and the
// snapshot/serving layers call these hooks at every named choice point
// (mutex acquire, condvar park/notify, ring push/pop/close, barrier
// arrival/wait, snapshot publish/read).  In production nothing is installed:
// current() is a single relaxed-ish atomic load of a null pointer and the
// inline helpers fall through — the hot paths are untouched.
//
// When sched::Scheduler (src/sched) installs itself, every hooked thread
// becomes a *managed* thread: exactly one managed thread runs between two
// choice points, the scheduler picks which one proceeds at every point,
// and blocking operations are virtualized (a parked thread waits on the
// scheduler, not the OS), so a whole run is a pure function of the
// scheduler's decision sequence.  That is what makes a failing schedule
// replayable from its seed + decision string.
//
// The hook interface is deliberately tiny and lives in util so that the
// lowest-level primitives can call it without depending on the harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace wearscope::util::sched {

/// What kind of choice point the calling thread is standing on.  Purely
/// informational for traces and independence classification; blocking is
/// keyed on the object address, not the op.
enum class Op : std::uint8_t {
  kRingPush = 0,    ///< RingBuffer::push attempt (loop entry).
  kRingCommit,      ///< RingBuffer element commit (index publish).
  kRingPop,         ///< RingBuffer::pop attempt (loop entry).
  kRingClose,       ///< RingBuffer::close entry.
  kMutexLock,       ///< util::Mutex acquire.
  kSpinLock,        ///< util::SpinLock acquire.
  kCvWait,          ///< CondVar park (virtualized wait).
  kCvNotify,        ///< CondVar notify releasing parked waiters.
  kBarrierDeposit,  ///< live::ArrivalBarrier::arrive entry (a shard).
  kBarrierWait,     ///< live::ArrivalBarrier::wait entry (the feed).
  kStorePublish,    ///< SnapshotStore::publish entry / slot swap.
  kStoreRead,       ///< SnapshotStore::latest/at_epoch/retained_epochs.
  kJoin,            ///< join_gate park awaiting a managed thread's exit.
  kUserPoint,       ///< Model-defined choice point (sched scenarios).
};

/// Short stable label for trace output ("ring-push", "cv-wait", ...).
[[nodiscard]] const char* op_name(Op op) noexcept;

/// The scheduler side of the hook protocol.  All methods are called from
/// the managed threads themselves; implementations must be safe to enter
/// from any thread and must never call back into hooked primitives.
class Hook {
 public:
  virtual ~Hook() = default;

  /// Preemption point: the calling thread offers the scheduler a chance to
  /// run someone else.  Returns once the scheduler selects this thread.
  virtual void point(Op op, std::uintptr_t obj) = 0;

  /// The calling thread cannot proceed until `obj` is released/notified
  /// (mutex held elsewhere, condvar park, ...).  Returns once another
  /// thread called unblock(obj, ...) *and* the scheduler selected this
  /// thread again.
  virtual void block(Op op, std::uintptr_t obj) = 0;

  /// Marks threads blocked on `obj` runnable again: the oldest waiter when
  /// `all` is false (condvar notify_one), every waiter otherwise (mutex
  /// release, notify_all).  Does not yield — the caller keeps running.
  virtual void unblock(Op op, std::uintptr_t obj, bool all) = 0;

  /// Registers the calling thread as managed under `name` and parks it
  /// until the scheduler first selects it.  Called at the top of every
  /// managed thread body (see ShardWorker::start).
  virtual void thread_started(const char* name) = 0;

  /// Deregisters the calling thread (its body returned), wakes any thread
  /// gated on join_gate(this thread) and hands the token to the next
  /// runnable thread.
  virtual void thread_finished() = 0;

  /// Creator-side spawn handshake: returns once the thread identified by
  /// `id` has registered via thread_started().  Keeps the caller's token;
  /// this pins the instant new threads enter the candidate set to a fixed
  /// program point, which replay determinism depends on.
  virtual void await_thread_start(std::thread::id id) = 0;

  /// Join gate: parks the calling thread until the managed thread `id` has
  /// finished (no-op when `id` is unknown or already finished), so the
  /// std::thread::join that follows returns without stalling the harness.
  virtual void join_gate(std::thread::id id) = 0;
};

namespace detail {
/// The installed hook; null in production.
extern std::atomic<Hook*> g_hook;
}  // namespace detail

/// Installs `hook` (null to uninstall) and returns the previous one.
/// Installation is not itself synchronized against running managed
/// threads: install before spawning them, uninstall after joining them.
Hook* install(Hook* hook) noexcept;

/// The installed hook, or null.  The inline null check below is the entire
/// production cost of the hook layer.
[[nodiscard]] inline Hook* current() noexcept {
  return detail::g_hook.load(std::memory_order_acquire);
}

/// Fires a preemption point when a scheduler is attached.
inline void point(Op op, const void* obj) {
  if (Hook* h = current())
    h->point(op, reinterpret_cast<std::uintptr_t>(obj));
}

/// Spawn handshake helper (creator side); no-op without a scheduler.
inline void await_thread_start(std::thread::id id) {
  if (Hook* h = current()) h->await_thread_start(id);
}

/// Join gate helper; no-op without a scheduler.
inline void join_gate(std::thread::id id) {
  if (Hook* h = current()) h->join_gate(id);
}

/// Registration helper for managed thread bodies.
inline void thread_started(const char* name) {
  if (Hook* h = current()) h->thread_started(name);
}

/// Deregistration helper for managed thread bodies.
inline void thread_finished() {
  if (Hook* h = current()) h->thread_finished();
}

}  // namespace wearscope::util::sched
