// Tests for the cooperative virtual-time scheduler — the execution model
// everything else in TABS stands on.

#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tabs::sim {
namespace {

TEST(SchedulerTest, RunsSingleTask) {
  Scheduler sched;
  bool ran = false;
  sched.Spawn("t", 1, 0, [&] {
    ran = true;
    EXPECT_EQ(sched.Now(), 0);
    sched.Charge(100);
    EXPECT_EQ(sched.Now(), 100);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(ran);
}

TEST(SchedulerTest, OrdersTasksByVirtualTime) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("late", 1, 500, [&] { order.push_back(2); });
  sched.Spawn("early", 1, 10, [&] { order.push_back(1); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, TieBrokenBySpawnOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("a", 1, 0, [&] { order.push_back(1); });
  sched.Spawn("b", 1, 0, [&] { order.push_back(2); });
  sched.Spawn("c", 1, 0, [&] { order.push_back(3); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, YieldInterleavesByTime) {
  Scheduler sched;
  std::vector<std::string> trace;
  sched.Spawn("a", 1, 0, [&] {
    trace.push_back("a1");
    sched.Charge(100);
    sched.Yield();
    trace.push_back("a2");
  });
  sched.Spawn("b", 1, 50, [&] { trace.push_back("b"); });
  sched.Run();
  // a runs first (t=0), charges to 100, yields; b (t=50) precedes a's resume.
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "b", "a2"}));
}

TEST(SchedulerTest, WaitAndNotifyTransfersTime) {
  Scheduler sched;
  WaitQueue q;
  SimTime waiter_resumed_at = -1;
  sched.Spawn("waiter", 1, 0, [&] {
    EXPECT_TRUE(sched.Wait(q));
    waiter_resumed_at = sched.Now();
  });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(777);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  // The waiter resumes at the notifier's clock: the wake-up is an event.
  EXPECT_EQ(waiter_resumed_at, 777);
}

TEST(SchedulerTest, WaitTimeoutFires) {
  Scheduler sched;
  WaitQueue q;
  bool notified = true;
  SimTime woke_at = -1;
  sched.Spawn("waiter", 1, 100, [&] {
    notified = sched.Wait(q, 250);
    woke_at = sched.Now();
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 350);  // blocked at t=100, timeout after 250
}

TEST(SchedulerTest, NotifyBeatsTimeout) {
  Scheduler sched;
  WaitQueue q;
  bool notified = false;
  sched.Spawn("waiter", 1, 0, [&] { notified = sched.Wait(q, 1000); });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(10);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(notified);
}

TEST(SchedulerTest, TimersFireInDeadlineOrder) {
  Scheduler sched;
  WaitQueue q;
  std::vector<std::string> order;
  // Armed out of deadline order: the queue must fire them by deadline, not
  // by arming order.
  sched.Spawn("slow", 1, 0, [&] {
    sched.Wait(q, 900);
    order.push_back("slow@" + std::to_string(sched.Now()));
  });
  sched.Spawn("fast", 1, 0, [&] {
    sched.Wait(q, 300);
    order.push_back("fast@" + std::to_string(sched.Now()));
  });
  sched.Spawn("mid", 1, 0, [&] {
    sched.Wait(q, 600);
    order.push_back("mid@" + std::to_string(sched.Now()));
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(order, (std::vector<std::string>{"fast@300", "mid@600", "slow@900"}));
}

TEST(SchedulerTest, SameDeadlineTimersFireInArmingOrder) {
  Scheduler sched;
  WaitQueue q;
  std::vector<int> order;
  // Both deadlines land at exactly t=500; the tie must break by arming
  // order (first armed fires first), reproducing FIFO insertion order.
  sched.Spawn("first", 1, 0, [&] {
    sched.Wait(q, 500);
    order.push_back(1);
  });
  sched.Spawn("second", 1, 100, [&] {
    sched.Wait(q, 400);
    order.push_back(2);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, SameTimeSelectionAlwaysPicksLowestId) {
  Scheduler sched;
  std::vector<std::string> trace;
  // The tie-break at equal virtual times is (time, id) — ids are assigned in
  // spawn order. A task yielding without advancing its clock is immediately
  // re-selected while it holds the lowest id, so each task drains all its
  // rounds before the next starts. Deterministic, and exactly the behaviour
  // of the original O(n) ready-scan the event queue replaced.
  for (int t = 0; t < 3; ++t) {
    sched.Spawn("t", 1, 0, [&, t] {
      for (int round = 0; round < 3; ++round) {
        trace.push_back(std::to_string(t) + ":" + std::to_string(round));
        sched.Yield();
      }
    });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(trace, (std::vector<std::string>{"0:0", "0:1", "0:2", "1:0", "1:1", "1:2",
                                             "2:0", "2:1", "2:2"}));
}

TEST(SchedulerTest, CancelledTimerDoesNotFireLater) {
  Scheduler sched;
  WaitQueue q;
  std::vector<std::string> events;
  sched.Spawn("waiter", 1, 0, [&] {
    // First wait is notified before its 10'000 deadline; the timer must be
    // purged eagerly — a later wait with a nearer deadline must be the one
    // that fires, and at its own time.
    bool notified = sched.Wait(q, 10'000);
    events.push_back(std::string(notified ? "notified" : "timeout") + "@" +
                     std::to_string(sched.Now()));
    notified = sched.Wait(q, 200);
    events.push_back(std::string(notified ? "notified" : "timeout") + "@" +
                     std::to_string(sched.Now()));
  });
  sched.Spawn("notifier", 1, 0, [&] {
    sched.Charge(50);
    sched.NotifyOne(q);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(events, (std::vector<std::string>{"notified@50", "timeout@250"}));
}

TEST(SchedulerTest, StepCountIsDeterministic) {
  auto run = [] {
    Scheduler sched;
    WaitQueue q;
    for (int t = 0; t < 4; ++t) {
      sched.Spawn("t", 1, t * 10, [&] {
        sched.Charge(25);
        sched.Yield();
        sched.Wait(q, 100);
        sched.Charge(5);
      });
    }
    sched.Spawn("waker", 1, 60, [&] { sched.NotifyAll(q); });
    EXPECT_EQ(sched.Run(), 0);
    return sched.steps();
  };
  std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run());
}

TEST(SchedulerTest, NotifyAllWakesEveryWaiter) {
  Scheduler sched;
  WaitQueue q;
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sched.Spawn("w", 1, 0, [&] {
      sched.Wait(q);
      ++woken;
    });
  }
  sched.Spawn("n", 1, 10, [&] { sched.NotifyAll(q); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woken, 5);
}

TEST(SchedulerTest, UnnotifiedWaiterReportedAsBlocked) {
  Scheduler sched;
  WaitQueue q;
  sched.Spawn("stuck", 1, 0, [&] { sched.Wait(q); });
  EXPECT_EQ(sched.Run(), 1);
}

TEST(SchedulerTest, SpawnFromInsideTask) {
  Scheduler sched;
  std::vector<int> order;
  sched.Spawn("parent", 1, 0, [&] {
    order.push_back(1);
    sched.Charge(100);
    sched.Spawn("child", 1, sched.Now() + 50, [&] { order.push_back(2); });
  });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, ChannelRoundTrip) {
  Scheduler sched;
  Channel<int> ch(sched);
  int got = 0;
  SimTime got_at = 0;
  sched.Spawn("consumer", 1, 0, [&] {
    got = ch.Pop();
    got_at = sched.Now();
  });
  sched.Spawn("producer", 2, 40, [&] {
    sched.Charge(60);
    ch.Push(42);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(got_at, 100);
}

TEST(SchedulerTest, ChannelPopTimeout) {
  Scheduler sched;
  Channel<int> ch(sched);
  bool got = true;
  sched.Spawn("consumer", 1, 0, [&] {
    int v = 0;
    got = ch.PopWithTimeout(500, &v);
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(got);
}

TEST(SchedulerTest, KillWhereUnblocksVictim) {
  Scheduler sched;
  WaitQueue q;
  bool reached_after_wait = false;
  sched.Spawn("victim", 7, 0, [&] {
    sched.Wait(q);
    reached_after_wait = true;  // must never run: Wait throws TaskKilled
  });
  sched.Spawn("killer", 1, 10, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 7; });
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(reached_after_wait);
}

TEST(SchedulerTest, KillSelfThrows) {
  Scheduler sched;
  bool after = false;
  sched.Spawn("self", 9, 0, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 9; });
    after = true;  // unreachable
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_FALSE(after);
}

TEST(SchedulerTest, AdvanceToOnlyMovesForward) {
  Scheduler sched;
  sched.Spawn("t", 1, 100, [&] {
    sched.AdvanceTo(50);
    EXPECT_EQ(sched.Now(), 100);
    sched.AdvanceTo(200);
    EXPECT_EQ(sched.Now(), 200);
  });
  sched.Run();
}

TEST(SchedulerTest, ManySequentialTasks) {
  Scheduler sched;
  int count = 0;
  for (int i = 0; i < 200; ++i) {
    sched.Spawn("t", 1, i, [&] { ++count; });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(count, 200);
}

TEST(FutureTest, FulfilBeforeAwaitReturnsWithoutWaiting) {
  Scheduler sched;
  sched.Spawn("t", 1, 0, [&] {
    Future<int> f(sched);
    EXPECT_FALSE(f.ready());
    f.Fulfil(7);
    EXPECT_TRUE(f.ready());
    SimTime t0 = sched.Now();
    EXPECT_TRUE(f.Await(100));
    EXPECT_EQ(sched.Now(), t0);  // already ready: no virtual time passes
    EXPECT_EQ(f.value(), 7);
  });
  EXPECT_EQ(sched.Run(), 0);
}

TEST(FutureTest, AwaitBlocksUntilFulfilledAndAdoptsFulfillerClock) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  bool resumed = false;
  sched.Spawn("waiter", 1, 0, [&] {
    EXPECT_TRUE(f->Await());
    EXPECT_EQ(f->value(), 42);
    // The waiter resumes no earlier than the fulfiller's clock.
    EXPECT_EQ(sched.Now(), 500);
    resumed = true;
  });
  sched.Spawn("producer", 2, 500, [&] { f->Fulfil(42); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_TRUE(resumed);
}

TEST(FutureTest, AwaitTimesOutWhenNeverFulfilled) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  sched.Spawn("waiter", 1, 0, [&] {
    SimTime t0 = sched.Now();
    EXPECT_FALSE(f->Await(250));
    EXPECT_EQ(sched.Now(), t0 + 250);
    EXPECT_FALSE(f->ready());
  });
  EXPECT_EQ(sched.Run(), 0);
}

TEST(FutureTest, ManyWaitersAllWake) {
  Scheduler sched;
  auto f = std::make_shared<Future<int>>(sched);
  int woken = 0;
  for (int i = 0; i < 4; ++i) {
    sched.Spawn("waiter", 1, 0, [&] {
      EXPECT_TRUE(f->Await());
      ++woken;
    });
  }
  sched.Spawn("producer", 2, 10, [&] { f->Fulfil(1); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(woken, 4);
}

TEST(SchedulerTest, DestructorUnwindsBlockedTasks) {
  auto sched = std::make_unique<Scheduler>();
  WaitQueue q;
  sched->Spawn("stuck", 1, 0, [&] { sched->Wait(q); });
  EXPECT_EQ(sched->Run(), 1);
  sched.reset();  // must not hang or leak task stacks
  SUCCEED();
}

// The process's OS thread count, from /proc/self/status.
int OsThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(SchedulerTest, RunsEveryTaskOnTheCallingThread) {
  ASSERT_EQ(OsThreads(), 1);
  Scheduler sched;
  WaitQueue q;
  std::vector<int> seen;
  for (int i = 0; i < 8; ++i) {
    sched.Spawn("waiter", 1, i, [&] {
      seen.push_back(OsThreads());
      sched.Wait(q);
      seen.push_back(OsThreads());
    });
  }
  sched.Spawn("notifier", 2, 100, [&] { sched.NotifyAll(q); });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(seen, std::vector<int>(16, 1));
  EXPECT_EQ(OsThreads(), 1);
}

TEST(SchedulerTest, KilledWaveUnwindsAndItsContextsAreReused) {
  constexpr int kTasks = 10000;
  struct CountsUnwind {
    int& unwound;
    ~CountsUnwind() { ++unwound; }
  };
  Scheduler sched;
  WaitQueue q;
  int unwound = 0;
  for (int i = 0; i < kTasks; ++i) {
    sched.Spawn("blocked", 7, 0, [&] {
      CountsUnwind guard{unwound};
      sched.Wait(q);
      ADD_FAILURE() << "a killed task resumed past its Wait";
    });
  }
  EXPECT_EQ(sched.Run(), kTasks);
  EXPECT_EQ(sched.contexts_created(), static_cast<std::size_t>(kTasks));
  sched.Spawn("killer", 1, 10, [&] {
    sched.KillWhere([](const Task& t) { return t.node == 7; });
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(unwound, kTasks);
  const std::size_t contexts = sched.contexts_created();

  // A second wave as large as the first runs entirely on recycled contexts.
  int finished = 0;
  for (int i = 0; i < kTasks; ++i) {
    sched.Spawn("second", 2, 20, [&] {
      sched.Yield();
      ++finished;
    });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(finished, kTasks);
  EXPECT_EQ(sched.contexts_created(), contexts);
}

TEST(SchedulerTest, ExceptionsStayWithTheirTaskAcrossSwitches) {
  Scheduler sched;
  std::vector<std::string> trace;
  sched.Spawn("thrower", 1, 0, [&] {
    for (int i = 0; i < 3; ++i) {
      sched.Charge(10);
      sched.Yield();
    }
    try {
      sched.Charge(10);
      sched.Yield();  // parked inside the try block while "other" throws
      throw std::runtime_error("thrower");
    } catch (const std::runtime_error& e) {
      trace.push_back(std::string("caught ") + e.what());
    }
    trace.push_back("thrower done");
  });
  sched.Spawn("other", 1, 5, [&] {
    for (int i = 0; i < 5; ++i) {
      try {
        trace.push_back("other " + std::to_string(i));
        if (i == 3) {
          throw std::logic_error("other");
        }
      } catch (const std::logic_error& e) {
        trace.push_back(std::string("caught ") + e.what());
      }
      sched.Charge(10);
      sched.Yield();
    }
  });
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_EQ(trace, (std::vector<std::string>{"other 0", "other 1", "other 2", "other 3",
                                             "caught other", "caught thrower", "thrower done",
                                             "other 4"}));
}

TEST(SchedulerTest, LiveLocalsSurviveManySwitches) {
  // More live values than there are callee-saved registers, each stepped by
  // a different amount, in two tasks that alternate on every Yield: a
  // register lost or swapped by any switch changes a final value.
  constexpr std::uint64_t kYields = 10000;
  Scheduler sched;
  std::vector<std::vector<std::uint64_t>> finals(2);
  for (std::uint64_t task = 0; task < 2; ++task) {
    sched.Spawn("locals", 1, 0, [&sched, &finals, task] {
      std::uint64_t a = task + 1, b = a * 3, c = a * 5, d = a * 7, e = a * 11, f = a * 13,
                    g = a * 17, h = a * 19;
      double x = 0.5 + static_cast<double>(task);
      for (std::uint64_t i = 0; i < kYields; ++i) {
        sched.Charge(1);
        sched.Yield();
        a += 1;
        b += 2;
        c += 3;
        d += 4;
        e += 5;
        f += 6;
        g += 7;
        h += 8;
        x += 1.0;
      }
      finals[task] = {a, b, c, d, e, f, g, h, static_cast<std::uint64_t>(x)};
    });
  }
  EXPECT_EQ(sched.Run(), 0);
  EXPECT_GE(sched.steps(), 2 * kYields);
  for (std::uint64_t task = 0; task < 2; ++task) {
    const std::uint64_t a = task + 1;
    EXPECT_EQ(finals[task],
              (std::vector<std::uint64_t>{a + kYields, 3 * a + 2 * kYields, 5 * a + 3 * kYields,
                                          7 * a + 4 * kYields, 11 * a + 5 * kYields,
                                          13 * a + 6 * kYields, 17 * a + 7 * kYields,
                                          19 * a + 8 * kYields, task + kYields}))
        << "task " << task;
  }
}

// Recurses until the stack runs out; using the frame after the call keeps
// the compiler from turning it into a loop.
[[gnu::noinline]] int Recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth > (1 << 24)) {
    return 0;
  }
  return Recurse(depth + 1) + frame[0];
}

TEST(SchedulerDeathTest, StackOverflowDiesAtTheGuardPage) {
  EXPECT_DEATH(
      {
        Scheduler sched;
        WaitQueue q;
        // A blocked neighbour whose stack the overflow must not reach.
        sched.Spawn("neighbour", 1, 0, [&] { sched.Wait(q); });
        sched.Spawn("overflow", 1, 10, [] { Recurse(0); });
        sched.Run();
      },
      "");
}

TEST(SchedulerDeathTest, BlockingWhileAnExceptionUnwindsFailsStop) {
  EXPECT_DEATH(
      {
        Scheduler sched;
        sched.Spawn("unwinding", 1, 0, [&] {
          struct YieldsInDestructor {
            Scheduler& sched;
            ~YieldsInDestructor() { sched.Yield(); }
          };
          try {
            YieldsInDestructor y{sched};
            throw 1;
          } catch (int) {
          }
        });
        sched.Run();
      },
      "exception was propagating");
}

}  // namespace
}  // namespace tabs::sim
