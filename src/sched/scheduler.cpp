#include "sched/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/error.h"

namespace wearscope::sched {

int FifoSource::choose(const std::vector<StepCandidate>& candidates) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].is_current) return static_cast<int>(i);
  }
  return 0;
}

int PrefixSource::choose(const std::vector<StepCandidate>& candidates) {
  if (next_ < prefix_.size()) {
    const int pos = prefix_[next_++];
    util::require(
        pos >= 0 && static_cast<std::size_t>(pos) < candidates.size(),
        "sched: decision " + std::to_string(next_ - 1) + " wants position " +
            std::to_string(pos) + " but this program point has " +
            std::to_string(candidates.size()) +
            " candidates (stale or hand-edited decision string?)");
    return pos;
  }
  return tail_.choose(candidates);
}

int RandomWalkSource::choose(const std::vector<StepCandidate>& candidates) {
  return static_cast<int>(rng_.uniform_int(
      0, static_cast<std::int64_t>(candidates.size()) - 1));
}

Scheduler::Scheduler(DecisionSource& source, Options options)
    : source_(&source), opt_(options) {}

Scheduler::~Scheduler() = default;

ScheduleTrace Scheduler::run(const std::function<void()>& body) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadRec* main = register_locked(lk, "main");
    main->st = ThreadRec::St::kRunning;
    running_ = main;
  }
  util::sched::Hook* prev = util::sched::install(this);
  util::ensure(prev == nullptr, "sched: a scheduler is already installed");
  try {
    body();
  } catch (...) {
    util::sched::install(nullptr);
    throw;
  }
  util::sched::install(nullptr);

  std::unique_lock<std::mutex> lk(mu_);
  ThreadRec* main = by_id_.at(std::this_thread::get_id());
  main->st = ThreadRec::St::kFinished;
  for (const auto& rec : threads_) {
    if (rec->st != ThreadRec::St::kFinished) {
      trace_.failures.push_back(
          "model returned without joining thread '" + rec->name + "'");
      enter_free_run_locked("");
    }
  }
  trace_.seed = seed_;
  return std::move(trace_);
}

void Scheduler::fail(std::string message) {
  std::unique_lock<std::mutex> lk(mu_);
  trace_.failures.push_back(std::move(message));
}

void Scheduler::point(util::sched::Op op, std::uintptr_t obj) {
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  ThreadRec* self = self_locked(lk);
  if (free_run_.load(std::memory_order_acquire)) return;
  self->op = op;
  self->obj = obj;
  if (!reschedule_locked(lk, self, /*self_eligible=*/true)) {
    wait_for_token(lk, self);
  }
}

void Scheduler::block(util::sched::Op op, std::uintptr_t obj) {
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  ThreadRec* self = self_locked(lk);
  if (free_run_.load(std::memory_order_acquire)) return;
  self->op = op;
  self->obj = obj;
  self->st = ThreadRec::St::kBlocked;
  self->blocked_on = obj;
  self->block_seq = ++block_seq_;
  reschedule_locked(lk, self, /*self_eligible=*/false);
  wait_for_token(lk, self);
}

void Scheduler::unblock(util::sched::Op op, std::uintptr_t obj, bool all) {
  (void)op;
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (all) {
    for (const auto& rec : threads_) {
      if (rec->st == ThreadRec::St::kBlocked && rec->blocked_on == obj) {
        rec->st = ThreadRec::St::kRunnable;
        rec->blocked_on = 0;
      }
    }
    return;
  }
  ThreadRec* oldest = nullptr;
  for (const auto& rec : threads_) {
    if (rec->st == ThreadRec::St::kBlocked && rec->blocked_on == obj &&
        (oldest == nullptr || rec->block_seq < oldest->block_seq)) {
      oldest = rec.get();
    }
  }
  if (oldest != nullptr) {
    oldest->st = ThreadRec::St::kRunnable;
    oldest->blocked_on = 0;
  }
}

void Scheduler::thread_started(const char* name) {
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  ThreadRec* self = register_locked(lk, name);
  registry_cv_.notify_all();
  if (free_run_.load(std::memory_order_acquire)) return;
  wait_for_token(lk, self);
}

void Scheduler::thread_finished() {
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  auto it = by_id_.find(std::this_thread::get_id());
  if (it == by_id_.end()) return;
  ThreadRec* self = it->second;
  self->st = ThreadRec::St::kFinished;
  // Release any join_gate waiters parked on this thread's record.
  const auto key = reinterpret_cast<std::uintptr_t>(self);
  for (const auto& rec : threads_) {
    if (rec->st == ThreadRec::St::kBlocked && rec->blocked_on == key) {
      rec->st = ThreadRec::St::kRunnable;
      rec->blocked_on = 0;
    }
  }
  reschedule_locked(lk, self, /*self_eligible=*/false);
}

void Scheduler::await_thread_start(std::thread::id id) {
  std::unique_lock<std::mutex> lk(mu_);
  // The caller keeps the token: the newborn enters the candidate set at
  // exactly this program point, never at an OS-timing-dependent one.
  registry_cv_.wait(lk, [&] {
    return by_id_.count(id) != 0 ||
           free_run_.load(std::memory_order_acquire);
  });
}

void Scheduler::join_gate(std::thread::id id) {
  if (free_run_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lk(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second->st == ThreadRec::St::kFinished)
    return;
  ThreadRec* self = self_locked(lk);
  if (free_run_.load(std::memory_order_acquire)) return;
  ThreadRec* target = it->second;
  self->op = util::sched::Op::kJoin;
  self->obj = reinterpret_cast<std::uintptr_t>(target);
  self->st = ThreadRec::St::kBlocked;
  self->blocked_on = reinterpret_cast<std::uintptr_t>(target);
  self->block_seq = ++block_seq_;
  reschedule_locked(lk, self, /*self_eligible=*/false);
  wait_for_token(lk, self);
}

Scheduler::ThreadRec* Scheduler::register_locked(
    std::unique_lock<std::mutex>& lk, const char* name) {
  (void)lk;
  auto rec = std::make_unique<ThreadRec>();
  rec->index = static_cast<int>(threads_.size());
  rec->name = name;
  rec->os_id = std::this_thread::get_id();
  rec->st = ThreadRec::St::kRunnable;
  ThreadRec* raw = rec.get();
  threads_.push_back(std::move(rec));
  by_id_[raw->os_id] = raw;
  return raw;
}

Scheduler::ThreadRec* Scheduler::self_locked(
    std::unique_lock<std::mutex>& lk) {
  auto it = by_id_.find(std::this_thread::get_id());
  if (it != by_id_.end()) return it->second;
  // A thread we never saw register touched a hooked primitive.  Adopt it
  // defensively so the run stays serialized instead of racing.
  ThreadRec* rec = register_locked(
      lk, ("anon-" + std::to_string(threads_.size())).c_str());
  registry_cv_.notify_all();
  wait_for_token(lk, rec);
  return rec;
}

std::uint64_t Scheduler::object_id_locked(std::uintptr_t obj) {
  if (obj == 0) return 0;
  auto [it, inserted] =
      object_ids_.try_emplace(obj, object_ids_.size() + 1);
  (void)inserted;
  return it->second;
}

bool Scheduler::reschedule_locked(std::unique_lock<std::mutex>& lk,
                                  ThreadRec* self, bool self_eligible) {
  if (free_run_.load(std::memory_order_acquire)) return true;
  if (trace_.steps.size() >= opt_.max_steps) {
    trace_.failures.push_back("step budget exceeded (" +
                              std::to_string(opt_.max_steps) +
                              " scheduling decisions)");
    enter_free_run_locked("");
    return true;
  }

  std::vector<StepCandidate> candidates;
  std::vector<ThreadRec*> recs;
  for (const auto& rec : threads_) {
    const bool eligible =
        rec->st == ThreadRec::St::kRunnable ||
        (rec.get() == self && self_eligible);
    if (!eligible) continue;
    StepCandidate c;
    c.thread = rec->index;
    c.op = rec->op;
    c.obj = object_id_locked(rec->obj);
    c.is_current = rec.get() == self;
    candidates.push_back(c);
    recs.push_back(rec.get());
  }

  if (candidates.empty()) {
    bool unfinished = false;
    for (const auto& rec : threads_) {
      if (rec->st != ThreadRec::St::kFinished) unfinished = true;
    }
    if (unfinished) {
      // Free run would park the blocked threads natively for good (see
      // kDeadlockExitCode), so report the schedule and end the process.
      trace_.deadlock = true;
      trace_.seed = seed_;
      const std::string report = trace_.report();
      std::fwrite(report.data(), 1, report.size(), stderr);
      std::fflush(stderr);
      std::_Exit(kDeadlockExitCode);
    }
    running_ = nullptr;
    return true;
  }

  const int pos = source_->choose(candidates);
  util::ensure(pos >= 0 &&
                   static_cast<std::size_t>(pos) < candidates.size(),
               "sched: DecisionSource returned out-of-range position");
  ThreadRec* chosen = recs[static_cast<std::size_t>(pos)];

  TraceStep step;
  step.clock = trace_.steps.size();
  step.thread = chosen->index;
  step.thread_name = chosen->name;
  step.op = chosen->op;
  step.obj = object_id_locked(chosen->obj);
  step.chosen_pos = pos;
  step.preemption = self_eligible && chosen != self;
  step.candidates = std::move(candidates);
  trace_.steps.push_back(std::move(step));
  trace_.decisions.push_back(pos);

  if (chosen == self) return true;
  if (self->st == ThreadRec::St::kRunning)
    self->st = ThreadRec::St::kRunnable;
  chosen->st = ThreadRec::St::kRunning;
  running_ = chosen;
  chosen->cv.notify_one();
  (void)lk;
  return false;
}

void Scheduler::wait_for_token(std::unique_lock<std::mutex>& lk,
                               ThreadRec* self) {
  self->cv.wait(lk, [&] {
    return running_ == self || free_run_.load(std::memory_order_acquire);
  });
  if (running_ == self) self->st = ThreadRec::St::kRunning;
}

void Scheduler::enter_free_run_locked(const std::string& why) {
  if (!why.empty()) trace_.failures.push_back(why);
  if (free_run_.exchange(true, std::memory_order_acq_rel)) return;
  for (const auto& rec : threads_) rec->cv.notify_all();
  registry_cv_.notify_all();
}

ManagedThread::ManagedThread(std::string name, std::function<void()> fn)
    : thread_([name = std::move(name), fn = std::move(fn)] {
        util::sched::thread_started(name.c_str());
        fn();
        util::sched::thread_finished();
      }) {
  util::sched::await_thread_start(thread_.get_id());
}

ManagedThread::~ManagedThread() { join(); }

void ManagedThread::join() {
  if (!thread_.joinable()) return;
  util::sched::join_gate(thread_.get_id());
  thread_.join();
}

}  // namespace wearscope::sched
