// glibc's fortified _longjmp (__longjmp_chk) rejects a jump to a lower stack
// address unless it lands on the signal stack. A switch between two task
// stacks is such a jump, so this file must see the plain _longjmp.
#undef _FORTIFY_SOURCE

#include "src/sim/scheduler.h"

#include <setjmp.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#if defined(__SANITIZE_ADDRESS__)
#define TABS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TABS_ASAN_FIBERS 1
#endif
#endif
#ifdef TABS_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace tabs::sim {

namespace {
// Cap on recycled Task objects kept between spawns. Enough that steady-state
// RPC traffic never allocates; bounded so a one-off fan-out burst does not
// pin memory forever.
constexpr std::size_t kMaxPooledTasks = 256;

// Address space reserved per task stack, guard page included. Reserved with
// MAP_NORESERVE, so a context commits only the pages its deepest call chain
// touched.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

[[noreturn]] void Die(const char* what) {
  std::perror(what);
  std::abort();
}

// getcontext returns twice; isolating it keeps the caller's locals out of
// the clobber analysis.
[[gnu::noinline]] void CaptureContext(ucontext_t* uc) {
  if (getcontext(uc) != 0) {
    Die("tabs::sim::Scheduler: getcontext");
  }
}

#ifdef TABS_ASAN_FIBERS
// The context that switched to the one now running. Set just before each
// switch and read just after it lands, on the same thread.
thread_local Context* switching_from = nullptr;
#endif
}  // namespace

// `jb` holds the callee-saved registers while the context is switched out.
// `uc` is the first frame makecontext built; it is entered once, after which
// ContextMain loops on the context and every switch goes through `jb`.
// `stack` is the whole mapping, lowest page PROT_NONE; Run()'s context has
// none (it runs on the thread's own stack). The last three fields exist for
// ASan, which must be told which stack a switch lands on.
struct Context {
  jmp_buf jb;
  ucontext_t uc;
  bool entered = false;  // `jb` is live: the context has run
  char* stack = nullptr;
  Task* task = nullptr;  // the task assigned to this context, if any
  Scheduler* scheduler = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;

  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context() {
    if (stack != nullptr) {
#ifdef TABS_ASAN_FIBERS
      // Frames abandoned on this stack leave poisoned shadow behind; clear
      // it so a later mapping at the same address starts clean.
      ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);
#endif
      munmap(stack, kStackBytes);
    }
  }
};

namespace {
// Saves the running context's registers into `from->jb` and resumes `to`:
// with _longjmp once `to` has run, or by entering its makecontext frame the
// first time. Returns when something jumps back to `from`. _setjmp returns
// twice; isolating it here keeps SwitchTo's locals out of the clobber
// analysis.
[[gnu::noinline]] void SaveAndJump(Context* from, Context* to) {
  if (_setjmp(from->jb) != 0) {
    return;  // resumed
  }
  if (to->entered) {
    _longjmp(to->jb, 1);
  }
  to->entered = true;
  setcontext(&to->uc);
  Die("tabs::sim::Scheduler: setcontext");
}
}  // namespace

WaitQueue::~WaitQueue() {
  // Every task in waiters_ is blocked with waiting_on == this (wake and
  // timer-fire erase eagerly), and blocked tasks are never reaped, so the
  // pointers are live. Runs either inside the sole running task or outside
  // Run() entirely — never concurrently with scheduler mutation.
  for (Task* t : waiters_) {
    if (t->waiting_on == this) {
      t->waiting_on = nullptr;
    }
  }
}

Scheduler::Scheduler() : run_context_(std::make_unique<Context>()) {
  run_context_->entered = true;  // the calling thread is already running on it
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  assert(current_ == nullptr && "Shutdown() must not be called from inside a task");
  KillWhere([](const Task&) { return true; });
  // Give every remaining task one turn so its stack unwinds via TaskKilled.
  Run();
  free_contexts_.clear();
  contexts_.clear();
  task_pool_.clear();
}

Context* Scheduler::AcquireContext() {
  if (!free_contexts_.empty()) {
    Context* c = free_contexts_.back();
    free_contexts_.pop_back();
    return c;
  }
  auto owned = std::make_unique<Context>();
  Context* c = owned.get();
  void* mem = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (mem == MAP_FAILED) {
    Die("tabs::sim::Scheduler: mmap of a task stack");
  }
  c->stack = static_cast<char*>(mem);
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  if (mprotect(c->stack, page, PROT_NONE) != 0) {
    Die("tabs::sim::Scheduler: guard page for a task stack");
  }
  c->scheduler = this;
  c->stack_bottom = c->stack + page;
  c->stack_size = kStackBytes - page;
  CaptureContext(&c->uc);
  c->uc.uc_stack.ss_sp = c->stack + page;
  c->uc.uc_stack.ss_size = kStackBytes - page;
  c->uc.uc_link = nullptr;  // ContextMain never returns
  auto bits = reinterpret_cast<std::uintptr_t>(c);
  makecontext(&c->uc, reinterpret_cast<void (*)()>(&Scheduler::ContextMain), 2,
              static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits));
  contexts_.push_back(std::move(owned));
  return c;
}

TaskId Scheduler::Spawn(std::string name, NodeId node, SimTime start_time,
                        std::function<void()> fn) {
  std::unique_ptr<Task> task;
  if (!task_pool_.empty()) {
    task = std::move(task_pool_.back());
    task_pool_.pop_back();
  } else {
    task = std::make_unique<Task>();
  }
  task->id = next_id_++;
  task->name = std::move(name);
  task->node = node;
  task->state = Task::State::kReady;
  task->time = start_time;
  task->timed_out = false;
  task->killed = false;
  task->timer_armed = false;
  task->waiting_on = nullptr;
  task->fn = std::move(fn);
  task->scheduler = this;
  Task* raw = task.get();
  Context* c = AcquireContext();
  c->task = raw;
  raw->context = c;
  raw->index = tasks_.size();
  tasks_.push_back(std::move(task));
  PushReady(raw);
  if (observer_ != nullptr) {
    PushClockEvent({ClockEvent::Kind::kSpawn, raw->id,
                    current_ != nullptr ? current_->id : kInvalidTask,
                    current_ != nullptr ? current_->time : 0, start_time});
  }
  return raw->id;
}

void Scheduler::SwitchTo(Context* from, Task* next) {
  Context* to = next != nullptr ? next->context : run_context_.get();
  if (to == from) {
    return;
  }
#ifdef TABS_ASAN_FIBERS
  switching_from = from;
  __sanitizer_start_switch_fiber(&from->fake_stack, to->stack_bottom, to->stack_size);
#endif
  SaveAndJump(from, to);
#ifdef TABS_ASAN_FIBERS
  // Resumed: record the bounds of the stack we came from (how Run()'s
  // thread stack becomes known for the switches back into it).
  __sanitizer_finish_switch_fiber(from->fake_stack, &switching_from->stack_bottom,
                                  &switching_from->stack_size);
#endif
}

void Scheduler::ContextMain(unsigned hi, unsigned lo) {
  auto* c = reinterpret_cast<Context*>((static_cast<std::uintptr_t>(hi) << 32) | lo);
  Scheduler* sched = c->scheduler;
#ifdef TABS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &switching_from->stack_bottom,
                                  &switching_from->stack_size);
#endif
  // One iteration per task: the context parks at the bottom of the loop
  // on the free list and resumes here when its next task is first selected.
  for (;;) {
    Task* t = c->task;
    if (!t->killed) {
      try {
        t->fn();
      } catch (const TaskKilled&) {
        // Node crash or shutdown: the task dies with its stack unwound.
      }
    }
    if (sched->observer_ != nullptr) {
      sched->PushClockEvent({ClockEvent::Kind::kDone, t->id, kInvalidTask, 0, 0});
    }
    t->state = Task::State::kDone;
    t->fn = nullptr;
    t->context = nullptr;
    c->task = nullptr;
    sched->done_.push_back(t);
    sched->free_contexts_.push_back(c);
    sched->current_ = nullptr;
    sched->SwitchTo(c, sched->ScheduleNext());
  }
}

int Scheduler::Run() {
  assert(current_ == nullptr && "Run() must not be called from inside a task");
  // Hand off to the first task; from here tasks chain directly context to
  // context and control returns here only when the system goes quiescent.
  SwitchTo(run_context_.get(), ScheduleNext());
  ReapDone();
  // Quiescent: settle the observer's view so post-run reads need no drain.
  FlushClockEvents();
  int blocked = 0;
  for (auto& t : tasks_) {
    if (t->state == Task::State::kBlocked) {
      ++blocked;
    }
  }
  return blocked;
}

void Scheduler::FlushClockEvents() {
  if (clock_events_.empty()) {
    return;
  }
  if (observer_ == nullptr) {
    clock_events_.clear();  // listener just removed: nobody wants these
    return;
  }
  // Deliver out of a scratch buffer so the member is settled (empty) while
  // the observer runs — a drain re-entered from inside the callback is a
  // no-op rather than an infinite recursion.
  clock_events_scratch_.clear();
  clock_events_scratch_.swap(clock_events_);
  ++clock_event_batches_;
  clock_events_delivered_ += clock_events_scratch_.size();
  observer_->OnClockEvents(clock_events_scratch_.data(), clock_events_scratch_.size());
}

void Scheduler::PushReady(Task* t) {
  assert(t->state == Task::State::kReady);
  ready_.push_back(ReadyEntry{t->time, t->id, t});
  std::push_heap(ready_.begin(), ready_.end(), ReadyAfter{});
}

Task* Scheduler::PeekReady() {
  while (!ready_.empty()) {
    const ReadyEntry& e = ready_.front();
    // An entry is pushed when its task becomes ready and popped when the
    // task is selected to run, so the top is normally live; the guard only
    // protects against a recycled Task object (fresh id) behind a stale
    // pointer.
    if (e.task->state == Task::State::kReady && e.task->id == e.id) {
      assert(e.task->time == e.time && "a ready task's clock is immutable");
      return e.task;
    }
    std::pop_heap(ready_.begin(), ready_.end(), ReadyAfter{});
    ready_.pop_back();
  }
  return nullptr;
}

Task* Scheduler::ScheduleNext() {
  assert(current_ == nullptr);
  ReapDone();
  Task* best = PeekReady();

  // A pending lock-wait timeout fires if it precedes every runnable task.
  while (!timers_.empty()) {
    auto it = timers_.begin();
    if (best != nullptr && best->time <= it->deadline) {
      break;  // a runnable task precedes the earliest timeout
    }
    // Fire the timeout: pull the victim out of its wait queue. Entries are
    // erased eagerly on cancellation, so the victim is always still blocked.
    Task* victim = it->task;
    SimTime deadline = it->deadline;
    assert(victim->state == Task::State::kBlocked && victim->timer_armed);
    timers_.erase(it);
    victim->timer_armed = false;
    if (victim->waiting_on != nullptr) {
      auto& w = victim->waiting_on->waiters_;
      w.erase(std::remove(w.begin(), w.end(), victim), w.end());
      victim->waiting_on = nullptr;
    }
    victim->timed_out = true;
    victim->state = Task::State::kReady;
    if (deadline > victim->time) {
      SimTime from = victim->time;
      victim->time = deadline;
      if (observer_ != nullptr) {
        PushClockEvent({ClockEvent::Kind::kTimeout, victim->id, kInvalidTask, from, deadline});
      }
    }
    PushReady(victim);
    best = PeekReady();
  }

  if (best == nullptr) {
    return nullptr;  // quiescent: either all done or the rest blocked forever
  }
  assert(ready_.front().task == best);
  std::pop_heap(ready_.begin(), ready_.end(), ReadyAfter{});
  ready_.pop_back();
  best->state = Task::State::kRunning;
  current_ = best;
  ++steps_;
  return best;
}

void Scheduler::ReapDone() {
  if (done_.empty()) {
    return;
  }
  for (Task* t : done_) {
    assert(!t->timer_armed);
    std::size_t idx = t->index;
    assert(tasks_[idx].get() == t);
    std::unique_ptr<Task> owned = std::move(tasks_[idx]);
    if (idx + 1 != tasks_.size()) {
      tasks_[idx] = std::move(tasks_.back());
      tasks_[idx]->index = idx;
    }
    tasks_.pop_back();
    if (task_pool_.size() < kMaxPooledTasks) {
      owned->name.clear();
      owned->waiting_on = nullptr;
      task_pool_.push_back(std::move(owned));
    }
  }
  done_.clear();
}

SimTime Scheduler::Now() const {
  assert(current_ != nullptr);
  return current_->time;
}

void Scheduler::Charge(SimTime cost) {
  assert(cost >= 0);
  if (current_ == nullptr) {
    return;  // setup work outside any task is free (e.g. server construction)
  }
  if (current_->killed) {
    throw TaskKilled{};
  }
  SimTime from = current_->time;
  current_->time += cost;
  if (observer_ != nullptr && cost > 0) {
    PushClockEvent({ClockEvent::Kind::kAdvance, current_->id, kInvalidTask, from, current_->time});
  }
}

void Scheduler::AdvanceTo(SimTime t) {
  if (current_ == nullptr) {
    return;
  }
  if (t > current_->time) {
    SimTime from = current_->time;
    current_->time = t;
    if (observer_ != nullptr) {
      PushClockEvent({ClockEvent::Kind::kAdvance, current_->id, kInvalidTask, from, t});
    }
  }
}

void Scheduler::ParkCurrent(Task* t) {
  // Every context shares this thread's C++ exception state. A task parking
  // mid-unwind (a destructor that waits) would leave its in-flight exception
  // for the next task's throw/catch to trample; fail stop instead.
  if (std::uncaught_exceptions() != 0) {
    std::fprintf(stderr,
                 "tabs::sim::Scheduler: task '%s' (id %llu) blocked while an exception was "
                 "propagating through it; a destructor must not wait during stack unwinding\n",
                 t->name.c_str(), static_cast<unsigned long long>(t->id));
    std::abort();
  }
  current_ = nullptr;
  // The parking task selects its successor and switches straight to it; if
  // the selection picks `t` itself (a Yield with nothing earlier), no switch
  // happens at all.
  SwitchTo(t->context, ScheduleNext());
  if (t->killed) {
    throw TaskKilled{};
  }
}

bool Scheduler::Wait(WaitQueue& q, SimTime timeout) {
  Task* t = current_;
  assert(t != nullptr && "Wait() called outside a task");
  if (t->killed) {
    throw TaskKilled{};
  }
  t->state = Task::State::kBlocked;
  t->timed_out = false;
  t->waiting_on = &q;
  q.waiters_.push_back(t);
  assert(!t->timer_armed && "a task arms at most one timer");
  if (timeout >= 0) {
    t->timer_armed = true;
    t->timer_deadline = t->time + timeout;
    t->timer_seq = ++timer_seq_;
    timers_.insert(TimerKey{t->timer_deadline, t->timer_seq, t});
  }
  ParkCurrent(t);
  return !t->timed_out;
}

void Scheduler::CancelTimer(Task* t) {
  if (t->timer_armed) {
    timers_.erase(TimerKey{t->timer_deadline, t->timer_seq, nullptr});
    t->timer_armed = false;
  }
}

void Scheduler::Wake(Task* t, SimTime wake_time) {
  t->waiting_on = nullptr;
  CancelTimer(t);  // purge the pending timeout eagerly
  t->state = Task::State::kReady;
  if (wake_time > t->time) {
    SimTime from = t->time;
    t->time = wake_time;
    if (observer_ != nullptr) {
      // The waker is always the running task (NotifyOne/NotifyAll assert it).
      PushClockEvent({ClockEvent::Kind::kWake, t->id, current_->id, from, wake_time});
    }
  }
  PushReady(t);
}

void Scheduler::NotifyOne(WaitQueue& q) {
  assert(current_ != nullptr && "NotifyOne() called outside a task");
  Task* t = q.Front();
  if (t != nullptr) {
    q.waiters_.pop_front();
    Wake(t, current_->time);
  }
}

void Scheduler::NotifyAll(WaitQueue& q) {
  assert(current_ != nullptr && "NotifyAll() called outside a task");
  while (Task* t = q.Front()) {
    q.waiters_.pop_front();
    Wake(t, current_->time);
  }
}

void Scheduler::Yield() {
  Task* t = current_;
  assert(t != nullptr);
  if (t->killed) {
    throw TaskKilled{};
  }
  t->state = Task::State::kReady;
  PushReady(t);
  ParkCurrent(t);
}

void Scheduler::KillWhere(const std::function<bool(const Task&)>& pred) {
  bool kill_self = false;
  for (auto& t : tasks_) {
    if (t->state == Task::State::kDone || !pred(*t)) {
      continue;
    }
    if (t.get() == current_) {
      kill_self = true;
      t->killed = true;
      continue;
    }
    t->killed = true;
    if (t->state == Task::State::kBlocked) {
      if (t->waiting_on != nullptr) {
        auto& w = t->waiting_on->waiters_;
        w.erase(std::remove(w.begin(), w.end(), t.get()), w.end());
        t->waiting_on = nullptr;
      }
      CancelTimer(t.get());
      t->state = Task::State::kReady;  // resumes, sees killed, unwinds
      PushReady(t.get());
    }
  }
  if (kill_self) {
    throw TaskKilled{};
  }
}

int Scheduler::blocked_count() const {
  int n = 0;
  for (const auto& t : tasks_) {
    if (t->state == Task::State::kBlocked) {
      ++n;
    }
  }
  return n;
}

}  // namespace tabs::sim
