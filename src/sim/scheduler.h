// Cooperative, deterministic, virtual-time scheduler.
//
// TABS ran as a set of Accent processes with coroutines inside data servers;
// a coroutine switch occurred only when an operation waited (Section 3.1.1).
// This scheduler reproduces that execution model: every activity (an
// application, a data-server request, a commit-protocol participant) is a
// Task with its own virtual clock. Exactly one task runs at a time; a task
// runs until it blocks (lock wait, message wait) or finishes, and the
// scheduler always resumes the runnable task with the smallest virtual time
// (ties broken by task id, i.e. spawn order — a deterministic FIFO). This
// makes every run — including multi-node two-phase commits and crash
// recoveries — bit-for-bit reproducible while still modelling genuine
// parallelism across nodes (each task advances its own clock; a task that
// waits for several replies resumes at the max of their arrival times).
//
// Execution substrate: tasks are coroutines in the literal sense — each runs
// on its own user-space context (a `makecontext` entry on an mmap'd stack) and
// all of them share the caller's one OS thread. A parking or finishing task
// selects its successor and jumps straight into it, or back into Run() when
// the world goes quiescent. A context's first frame is entered once with
// `setcontext`; every switch after that is an `_setjmp`/`_longjmp` pair, i.e.
// a save and restore of the callee-saved registers with no system call. The
// signal mask and the FP environment are not switched (the simulator never
// changes either), so a switch between tasks costs no kernel work at all.
// Contexts are pooled and reused across tasks, so spawning a task costs a
// freelist pop rather than a stack mapping. Each stack reserves 1 MiB
// (MAP_NORESERVE: only touched pages are committed) above a PROT_NONE guard
// page, so an overflowing task faults instead of corrupting a neighbouring
// stack.
// Runnable tasks live in a binary min-heap keyed (virtual time, task id);
// pending Wait() timeouts live in an ordered set that is purged eagerly when
// a timer is cancelled. Task objects themselves are recycled through a
// freelist.

#ifndef TABS_SIM_SCHEDULER_H_
#define TABS_SIM_SCHEDULER_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace tabs::sim {

class Scheduler;

// Thrown inside a task when its node crashes or the scheduler shuts down.
// Task bodies generally do not catch this; the task's stack unwinds and the
// task is discarded, exactly like a process dying with its node.
struct TaskKilled {};

using TaskId = std::uint64_t;
constexpr TaskId kInvalidTask = 0;

// A queue of blocked tasks. Lock managers, reply channels, and condition-like
// constructs are built on WaitQueues.
class WaitQueue {
 public:
  WaitQueue() = default;
  // A queue may die before tasks blocked on it (e.g. a stack queue going out
  // of scope ahead of the scheduler): detach the waiters' back-pointers so
  // shutdown and timer-fire never touch the dead queue.
  ~WaitQueue();
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  bool empty() const { return waiters_.empty(); }

 private:
  friend class Scheduler;
  struct Task* Front() { return waiters_.empty() ? nullptr : waiters_.front(); }
  std::deque<struct Task*> waiters_;
};

// A pooled user-space execution context (stack + saved registers) that runs
// tasks. Contexts outlive the tasks they run: when a task finishes, its
// context returns to the scheduler's free list and picks up the next spawned
// task. Defined in scheduler.cc; nothing outside the scheduler touches one.
struct Context;

struct Task {
  enum class State { kReady, kRunning, kBlocked, kDone };

  TaskId id = kInvalidTask;
  std::string name;
  NodeId node = kInvalidNode;   // which simulated node this activity runs on
  State state = State::kReady;
  SimTime time = 0;             // the task's virtual clock
  bool timed_out = false;       // set when a Wait() ended by timeout
  bool killed = false;
  bool timer_armed = false;     // a Wait() timeout is pending in the timer set
  SimTime timer_deadline = 0;   // valid while timer_armed
  std::uint64_t timer_seq = 0;  // arming order: deterministic same-deadline tie-break
  std::size_t index = 0;        // position in Scheduler::tasks_ (swap-erase)
  WaitQueue* waiting_on = nullptr;
  std::function<void()> fn;
  Context* context = nullptr;
  Scheduler* scheduler = nullptr;
};

// One virtual-clock mutation, as a plain record. The scheduler buffers these
// and hands them to the ClockObserver in batches, so a traced run pays a POD
// append per clock change and one virtual call per batch instead of a
// virtual call per event. Task identity is carried by id, never by pointer:
// a batch may be delivered after the task object was reaped and recycled
// (ids are allocated monotonically and never reused).
struct ClockEvent {
  enum class Kind : std::uint8_t {
    kAdvance,  // `task`'s clock moved from -> to (Charge/AdvanceTo)
    kSpawn,    // `task` created with clock `to`; `other` is the spawning task
               // (kInvalidTask when spawned from outside any task) and `from`
               // its clock at the spawn
    kWake,     // a notify moved blocked `task` forward from -> to; `other` is
               // the waker, whose clock is `to`. Emitted only when to > from.
    kTimeout,  // a wait timeout fired, moving `task` forward from -> to
    kDone,     // `task` finished; its id will never run again
  };
  Kind kind = Kind::kAdvance;
  TaskId task = kInvalidTask;
  TaskId other = kInvalidTask;
  SimTime from = 0;
  SimTime to = 0;
};

// Observes every virtual-clock mutation the scheduler performs, in batches.
// The tracer installs one when tracing is enabled; no observer is installed
// otherwise, so the default simulation pays exactly one null-pointer check
// per clock change — zero virtual calls — and remains bit-identical to the
// pre-observer scheduler. OnClockEvents receives events in exact occurrence
// order; it may be invoked mid-wake (a batch filling up inside NotifyOne) and
// must not re-enter the scheduler or mutate task clocks. An observer whose
// queries depend on buffered history calls Scheduler::FlushClockEvents() at
// its read points to drain first.
class ClockObserver {
 public:
  virtual ~ClockObserver() = default;
  virtual void OnClockEvents(const ClockEvent* events, std::size_t count) = 0;
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a task whose clock starts at `start_time` (typically the sender's
  // clock plus a transmission cost, for message-handler tasks). May be called
  // from inside a task or from the outside (before Run).
  TaskId Spawn(std::string name, NodeId node, SimTime start_time, std::function<void()> fn);

  // Runs tasks until none are runnable and no timers are pending. Returns the
  // number of tasks still blocked (0 on clean completion; nonzero indicates
  // an un-broken deadlock, which tests assert against).
  int Run();

  // --- The following are callable only from inside a running task. ---

  // The running task's virtual clock.
  SimTime Now() const;
  // Advances the running task's clock by `cost` (a primitive-operation time).
  void Charge(SimTime cost);
  // Moves the clock forward to `t` if it is ahead (message-arrival join).
  void AdvanceTo(SimTime t);

  // Blocks on `q` until notified. With `timeout >= 0`, gives up after that
  // much virtual time and returns false (TABS breaks deadlock by timeout,
  // Section 2.1.2). Returns true when genuinely notified.
  bool Wait(WaitQueue& q, SimTime timeout = -1);

  // Wakes the longest-waiting task in `q`. The woken task resumes no earlier
  // than the notifier's current virtual time (the wake-up *is* an event).
  void NotifyOne(WaitQueue& q);
  void NotifyAll(WaitQueue& q);

  // Lets equal-or-earlier tasks run; the caller continues afterwards.
  void Yield();

  // Marks every task satisfying `pred` as killed. Blocked victims are woken
  // and unwind via TaskKilled; the current task, if it matches, throws on its
  // next scheduling point (or immediately if `immediate`).
  void KillWhere(const std::function<bool(const Task&)>& pred);

  Task* current() const { return current_; }
  bool in_task() const { return current_ != nullptr; }
  int blocked_count() const;

  // Scheduling steps executed so far: one step per task resume (the unit the
  // simspeed meta-bench reports as "events"). Deterministic for a given
  // workload — byte-identical runs execute byte-identical step counts.
  std::uint64_t steps() const { return steps_; }

  // Execution contexts (task stacks) created so far. Contexts are reused
  // across tasks, so this is the peak number of simultaneously live tasks,
  // not the number ever spawned.
  std::size_t contexts_created() const { return contexts_.size(); }

  // Installs (or, with nullptr, removes) the clock observer. Any
  // buffered events are flushed to the outgoing observer first, so it sees
  // everything up to the switch.
  void SetClockObserver(ClockObserver* observer) {
    FlushClockEvents();
    observer_ = observer;
  }

  // Delivers all buffered clock events to the observer now. Observers call
  // this at their own read points (attribution queries, span transitions);
  // Run() also flushes on quiescence so post-run reads see a settled stream.
  void FlushClockEvents();
  // Batches and events delivered so far — lets tests assert dispatch really
  // is batched (batches < events) rather than one virtual call per event.
  std::uint64_t clock_event_batches() const { return clock_event_batches_; }
  std::uint64_t clock_events_delivered() const { return clock_events_delivered_; }

  // Kills every task and runs until all stacks have unwound, then releases
  // the task stacks. Idempotent; the destructor calls it. Owners whose tasks
  // reference shorter-lived state (e.g. the tracer, destroyed before the
  // scheduler member in World) call this first so tasks unwind while that
  // state is still alive. Must not be called from inside a task.
  void Shutdown();

 private:
  // Runnable tasks, a binary min-heap over (virtual time, task id). Entries
  // are pushed when a task becomes ready and popped exactly when it is
  // selected to run, so an entry's key is immutable while it is in the heap
  // (a ready task's clock cannot advance). Max-comparator: std::push_heap
  // builds a max-heap, so "after" means "scheduled later".
  struct ReadyEntry {
    SimTime time;
    TaskId id;
    Task* task;
  };
  struct ReadyAfter {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      return a.time > b.time || (a.time == b.time && a.id > b.id);
    }
  };
  // Pending Wait() timeouts, ordered (deadline, arming seq) — the arming
  // sequence reproduces the old multimap's insertion-order tie-break. An
  // entry is erased eagerly the moment its timer is cancelled (wake, kill,
  // shutdown) or fires, so the set only ever holds live timers.
  struct TimerKey {
    SimTime deadline;
    std::uint64_t seq;
    Task* task;
    bool operator<(const TimerKey& o) const {
      return deadline < o.deadline || (deadline == o.deadline && seq < o.seq);
    }
  };

  // Entry point of every context, entered once via setcontext; never
  // returns. makecontext passes int arguments only, so the Context* arrives
  // as two 32-bit halves.
  static void ContextMain(unsigned hi, unsigned lo);
  Context* AcquireContext();
  // Saves the running context into `from` and resumes `next`'s context, or
  // Run()'s when `next` is null. Returns when `from` is resumed; a no-op
  // when `next` already runs on `from`.
  void SwitchTo(Context* from, Task* next);
  // Parks the current task (state already updated), switches to the next
  // runnable task, and returns once `t` is selected again.
  void ParkCurrent(Task* t);
  void Wake(Task* t, SimTime wake_time);
  void PushReady(Task* t);
  void CancelTimer(Task* t);
  Task* PeekReady();
  // The heart of the hand-off: fires due timers, then pops the runnable task
  // with the smallest (time, id), marks it running and returns it — or
  // returns null when nothing is runnable (quiescence). Called by the
  // parking/finishing task itself, which then switches straight to the
  // result.
  Task* ScheduleNext();
  void ReapDone();

  // Appends one event to the batch buffer; callers have already checked
  // observer_ != nullptr (the not-tracing fast path is that one branch).
  void PushClockEvent(const ClockEvent& e) {
    clock_events_.push_back(e);
    if (clock_events_.size() >= kClockEventBatch) {
      FlushClockEvents();
    }
  }

  std::vector<std::unique_ptr<Task>> tasks_;      // live tasks (swap-erase order)
  std::vector<std::unique_ptr<Task>> task_pool_;  // recycled Task objects
  std::vector<Task*> done_;                       // finished, awaiting reap
  std::vector<ReadyEntry> ready_;                 // min-heap via ReadyAfter
  std::set<TimerKey> timers_;
  std::uint64_t timer_seq_ = 0;
  std::vector<std::unique_ptr<Context>> contexts_;  // every task stack
  std::vector<Context*> free_contexts_;
  std::unique_ptr<Context> run_context_;  // Run()'s own (thread) stack
  Task* current_ = nullptr;
  TaskId next_id_ = 1;
  std::uint64_t steps_ = 0;
  ClockObserver* observer_ = nullptr;
  static constexpr std::size_t kClockEventBatch = 256;
  std::vector<ClockEvent> clock_events_;          // pending, occurrence order
  std::vector<ClockEvent> clock_events_scratch_;  // reused delivery buffer
  std::uint64_t clock_event_batches_ = 0;
  std::uint64_t clock_events_delivered_ = 0;
};

// A single-assignment promise/future: the rendezvous of the asynchronous
// communication fast path. Fulfil publishes the value (at most once) and
// wakes every waiter in FIFO order; Await blocks until fulfilled or until
// `timeout` virtual time passes. A waiter resumes no earlier than the
// fulfiller's clock — so the completion time of a pipelined remote call
// composes into the caller's clock exactly like a Channel push, and a task
// awaiting several futures resumes at the max of their completion times.
template <typename T>
class Future {
 public:
  explicit Future(Scheduler& sched) : sched_(sched) {}
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool ready() const { return value_.has_value(); }

  void Fulfil(T v) {
    assert(!ready() && "a future is fulfilled at most once");
    value_.emplace(std::move(v));
    sched_.NotifyAll(queue_);
  }

  // Blocks until ready; with `timeout >= 0` gives up after that much virtual
  // time. Returns ready() — false means the producer never delivered (e.g.
  // its node crashed with the call in flight).
  bool Await(SimTime timeout = -1) {
    if (timeout < 0) {
      while (!ready()) {
        sched_.Wait(queue_);
      }
      return true;
    }
    SimTime deadline = sched_.Now() + timeout;
    while (!ready()) {
      SimTime remaining = deadline - sched_.Now();
      if (remaining <= 0 || !sched_.Wait(queue_, remaining)) {
        break;
      }
    }
    return ready();
  }

  T& value() {
    assert(ready());
    return *value_;
  }

 private:
  Scheduler& sched_;
  WaitQueue queue_;
  std::optional<T> value_;
};

// Futures are shared between the issuing task and the delivery task (which
// may outlive the issuer if its node crashes), so they live on the heap.
template <typename T>
using FuturePtr = std::shared_ptr<Future<T>>;

// A typed rendezvous channel: producers Push values (waking a consumer),
// consumers Pop (blocking while empty). Used for RPC replies and vote
// collection during two-phase commit.
template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& sched) : sched_(sched) {}

  void Push(T v) {
    items_.push_back(std::move(v));
    sched_.NotifyOne(queue_);
  }

  T Pop() {
    while (items_.empty()) {
      sched_.Wait(queue_);
    }
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  // Pop with a timeout; returns false (leaving `out` untouched) on timeout.
  bool PopWithTimeout(SimTime timeout, T* out) {
    SimTime deadline = sched_.Now() + timeout;
    while (items_.empty()) {
      SimTime remaining = deadline - sched_.Now();
      if (remaining <= 0 || !sched_.Wait(queue_, remaining)) {
        if (items_.empty()) {
          return false;
        }
        break;
      }
    }
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  Scheduler& sched_;
  WaitQueue queue_;
  std::deque<T> items_;
};

}  // namespace tabs::sim

#endif  // TABS_SIM_SCHEDULER_H_
