// Network and Communication Manager tests: session semantics, datagram
// loss, broadcast, partitions, spanning-tree construction.

#include "src/comm/comm_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/comm/network.h"

namespace tabs::comm {
namespace {

using sim::CostModel;
using sim::Primitive;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : substrate_(sched_, CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        net_(substrate_) {
    net_.AddNode(1);
    net_.AddNode(2);
    net_.AddNode(3);
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  Network net_;
};

TEST_F(NetworkTest, SessionCallReturnsHandlerValueWithLatency) {
  int got = 0;
  SimTime elapsed = 0;
  sched_.Spawn("caller", 1, 0, [&] {
    SimTime t0 = sched_.Now();
    auto r = net_.SessionCall<int>(1, 2, "f", [] { return 42; });
    elapsed = sched_.Now() - t0;
    ASSERT_TRUE(r.ok());
    got = r.value();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(elapsed, CostModel::Baseline().Of(Primitive::kInterNodeDataServerCall));
}

TEST_F(NetworkTest, SessionHandlerTimeAddsToCallerLatency) {
  SimTime elapsed = 0;
  sched_.Spawn("caller", 1, 0, [&] {
    SimTime t0 = sched_.Now();
    net_.SessionCall<int>(1, 2, "slow", [&] {
      sched_.Charge(500'000);  // 500 ms of remote work
      return 1;
    });
    elapsed = sched_.Now() - t0;
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(elapsed, 89'000 + 500'000);
}

TEST_F(NetworkTest, SessionToDeadNodeFailsFast) {
  net_.SetAlive(2, false);
  Status status = Status::kOk;
  sched_.Spawn("caller", 1, 0, [&] {
    auto r = net_.SessionCall<int>(1, 2, "f", [] { return 1; });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);
}

TEST_F(NetworkTest, SessionDetectsCrashMidCall) {
  Status status = Status::kOk;
  sched_.Spawn("caller", 1, 0, [&] {
    auto r = net_.SessionCall<int>(1, 2, "f", [&]() -> int {
      net_.SetAlive(2, false);  // the destination dies while handling
      sched_.KillWhere([](const sim::Task& t) { return t.node == 2; });
      return 1;  // unreachable
    });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);  // session timeout detected the crash
}

// SessionCall is AsyncSessionCall awaited: for the same handler the two
// entry points must leave the caller at the same clock, charge the same
// inter-node calls and return the same flat Result, whether the call
// succeeds, the remote operation fails, the peer is unreachable, the session
// is dropped, or the destination crashes mid-call.
TEST_F(NetworkTest, BlockingAndAsyncSessionCallsBehaveIdentically) {
  constexpr SimTime kTimeout = 1'000'000;
  const SimTime call = CostModel::Baseline().Of(Primitive::kInterNodeDataServerCall);
  struct Case {
    const char* name;
    std::function<void()> arrange;
    std::function<Result<int>()> handler;
    Status status;
    int value;
    SimTime elapsed;
    int drops;
  };
  const std::vector<Case> cases = {
      {"reply", [] {}, [] { return 42; }, Status::kOk, 42, call, 0},
      {"failed-op", [] {}, []() -> Result<int> { return Status::kConflict; }, Status::kConflict,
       -1, call, 0},
      {"unreachable", [this] { net_.SetPartitioned(1, 2, true); }, [] { return 1; },
       Status::kNodeDown, -1, call, 0},
      {"session-drop", [this] { net_.SetSessionLoss([](NodeId, NodeId to) { return to == 2; }); },
       [] { return 1; }, Status::kNodeDown, -1, call, 1},
      {"crash-mid-call", [] {},
       [this]() -> Result<int> {
         net_.SetAlive(2, false);  // the destination dies while handling
         sched_.KillWhere([](const sim::Task& t) { return t.node == 2; });
         return 1;  // unreachable
       },
       Status::kNodeDown, -1, call / 2 + kTimeout, 0},
  };
  struct Outcome {
    Result<int> result = Status::kInternal;
    SimTime elapsed = -1;
    double calls = 0;
    double drops = 0;
  };
  auto run = [&](const Case& c, bool blocking) {
    net_.SetAlive(2, true);
    net_.SetPartitioned(1, 2, false);
    net_.SetSessionLoss({});
    c.arrange();
    sim::Metrics& m = substrate_.metrics();
    const double calls = m.Total().Of(Primitive::kInterNodeDataServerCall);
    const double drops = m.faults_injected(sim::FaultKind::kSessionDrop);
    Outcome out;
    sched_.Spawn("caller", 1, 0, [&] {
      SimTime t0 = sched_.Now();
      out.result = blocking ? net_.SessionCall<int>(1, 2, "f", c.handler, kTimeout)
                            : Network::AwaitReply(
                                  net_.AsyncSessionCall<int>(1, 2, "f", c.handler), kTimeout);
      out.elapsed = sched_.Now() - t0;
    });
    EXPECT_EQ(sched_.Run(), 0);
    out.calls = m.Total().Of(Primitive::kInterNodeDataServerCall) - calls;
    out.drops = m.faults_injected(sim::FaultKind::kSessionDrop) - drops;
    return out;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (bool blocking : {true, false}) {
      SCOPED_TRACE(blocking ? "SessionCall" : "AsyncSessionCall + AwaitReply");
      Outcome out = run(c, blocking);
      EXPECT_EQ(out.result.status(), c.status);
      EXPECT_EQ(out.result.value_or(-1), c.value);
      EXPECT_EQ(out.elapsed, c.elapsed);
      EXPECT_EQ(out.calls, 1);
      EXPECT_EQ(out.drops, c.drops);
    }
  }
}

TEST_F(NetworkTest, DatagramDeliveredOneWay) {
  bool delivered = false;
  SimTime sender_after = -1;
  SimTime receiver_at = -1;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "d", [&] {
      delivered = true;
      receiver_at = sched_.Now();
    });
    sender_after = sched_.Now();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sender_after, 0);          // fire and forget
  EXPECT_EQ(receiver_at, 25'000);      // one datagram time later
}

TEST_F(NetworkTest, DatagramLossFilterDrops) {
  net_.SetDatagramLoss([](NodeId from, NodeId to) { return to == 2; });
  int delivered = 0;
  sched_.Spawn("sender", 1, 0, [&] {
    net_.SendDatagram(1, 2, "lost", [&] { ++delivered; });
    net_.SendDatagram(1, 3, "ok", [&] { ++delivered; });
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, BroadcastReachesAllLiveNodes) {
  std::set<NodeId> reached;
  net_.SetAlive(3, false);
  sched_.Spawn("sender", 1, 0, [&] {
    net_.Broadcast(1, "b", [&](NodeId n) { reached.insert(n); });
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(reached, (std::set<NodeId>{2}));  // not self, not dead node 3
}

TEST_F(NetworkTest, PartitionBlocksBothDirections) {
  net_.SetPartitioned(1, 2, true);
  EXPECT_FALSE(net_.Reachable(1, 2));
  EXPECT_FALSE(net_.Reachable(2, 1));
  EXPECT_TRUE(net_.Reachable(1, 3));
  net_.SetPartitioned(1, 2, false);
  EXPECT_TRUE(net_.Reachable(1, 2));
}

TEST_F(NetworkTest, CommManagerBuildsSpanningTreeBothEnds) {
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  CommManager cm3(3, net_);
  TransactionId tid{1, 7};
  sched_.Spawn("app", 1, 0, [&] {
    cm1.RemoteCall<int>(tid, cm2, "op", [&] {
      // Nested call: node 2 calls node 3 on behalf of the same transaction.
      cm2.RemoteCall<int>(tid, cm3, "nested", [] { return 0; });
      return 0;
    });
  });
  EXPECT_EQ(sched_.Run(), 0);
  auto info1 = cm1.InfoFor(tid);
  EXPECT_EQ(info1.parent, kInvalidNode);  // rooted at node 1
  EXPECT_EQ(info1.children, (std::set<NodeId>{2}));
  auto info2 = cm2.InfoFor(tid);
  EXPECT_EQ(info2.parent, 1u);
  EXPECT_EQ(info2.children, (std::set<NodeId>{3}));
  auto info3 = cm3.InfoFor(tid);
  EXPECT_EQ(info3.parent, 2u);
  EXPECT_TRUE(info3.children.empty());
}

TEST_F(NetworkTest, ParentIsFirstContactOnly) {
  // "A node A is a parent of node B iff A was the first node to invoke an
  // operation on behalf of the transaction on B."
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  CommManager cm3(3, net_);
  TransactionId tid{1, 9};
  sched_.Spawn("app", 1, 0, [&] {
    cm1.RemoteCall<int>(tid, cm3, "first", [] { return 0; });
    cm1.RemoteCall<int>(tid, cm2, "via2", [&] {
      cm2.RemoteCall<int>(tid, cm3, "second-contact", [] { return 0; });
      return 0;
    });
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(cm3.InfoFor(tid).parent, 1u);  // node 2's later contact doesn't re-parent
}

TEST_F(NetworkTest, SessionLossSurfacesAsNodeDownAndIsCounted) {
  net_.SetSessionLoss([](NodeId from, NodeId to) { return from == 1 && to == 2; });
  Status dropped = Status::kOk;
  Status other_direction = Status::kNodeDown;
  sched_.Spawn("caller", 1, 0, [&] {
    dropped = net_.SessionCall<int>(1, 2, "f", [] { return 1; }).status();
    other_direction = net_.SessionCall<int>(1, 3, "g", [] { return 1; }).status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(dropped, Status::kNodeDown);
  EXPECT_EQ(other_direction, Status::kOk);  // the filter is per-pair
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kSessionDrop), 1);

  net_.SetSessionLoss({});
  Status after_clear = Status::kNodeDown;
  sched_.Spawn("caller2", 1, 0, [&] {
    after_clear = net_.SessionCall<int>(1, 2, "f", [] { return 1; }).status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(after_clear, Status::kOk);
}

TEST_F(NetworkTest, DatagramDuplicationDeliversHandlerTwice) {
  // duplicate_probability = 1: every datagram arrives twice.
  net_.SetDatagramFaults({/*seed=*/1, /*duplicate_probability=*/1.0,
                          /*jitter_probability=*/0.0, /*max_jitter_us=*/0});
  int deliveries = 0;
  sched_.Spawn("sender", 1, 0,
               [&] { net_.SendDatagram(1, 2, "dup", [&] { ++deliveries; }); });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kDatagramDuplicate), 1);
}

TEST_F(NetworkTest, DatagramFaultsAreDeterministicPerSeed) {
  auto run = [this](std::uint64_t seed) {
    net_.SetDatagramFaults({seed, /*duplicate_probability=*/0.5,
                            /*jitter_probability=*/0.5, /*max_jitter_us=*/3000});
    std::vector<SimTime> arrivals;
    sched_.Spawn("sender", 1, 0, [&] {
      for (int i = 0; i < 10; ++i) {
        net_.SendDatagram(1, 2, "d", [&] { arrivals.push_back(sched_.Now()); });
      }
    });
    EXPECT_EQ(sched_.Run(), 0);
    return arrivals;
  };
  std::vector<SimTime> first = run(7);
  std::vector<SimTime> replay = run(7);
  EXPECT_EQ(first, replay);  // same seed, same duplicates and jitter
  EXPECT_GT(first.size(), 10u);  // some datagram duplicated
  std::vector<SimTime> other = run(8);
  EXPECT_NE(first, other);  // a different seed perturbs the schedule
}

TEST_F(NetworkTest, JitterCanReorderDatagrams) {
  // Only jitter, always on, large bound: with several sends, some pair
  // arrives out of program order (deterministically, given the seed).
  net_.SetDatagramFaults({/*seed=*/3, /*duplicate_probability=*/0.0,
                          /*jitter_probability=*/0.5, /*max_jitter_us=*/200'000});
  std::vector<int> order;
  sched_.Spawn("sender", 1, 0, [&] {
    for (int i = 0; i < 8; ++i) {
      net_.SendDatagram(1, 2, "d", [&order, i] { order.push_back(i); });
    }
  });
  EXPECT_EQ(sched_.Run(), 0);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
      << "jitter never reordered anything; weaken the seed or raise the bound";
}

TEST_F(NetworkTest, RemoteCallToPartitionedNodeDoesNotGrowTree) {
  CommManager cm1(1, net_);
  CommManager cm2(2, net_);
  net_.SetPartitioned(1, 2, true);
  TransactionId tid{1, 11};
  Status status = Status::kOk;
  sched_.Spawn("app", 1, 0, [&] {
    auto r = cm1.RemoteCall<int>(tid, cm2, "op", [] { return 0; });
    status = r.status();
  });
  EXPECT_EQ(sched_.Run(), 0);
  EXPECT_EQ(status, Status::kNodeDown);
  EXPECT_TRUE(cm1.InfoFor(tid).children.empty());
}

}  // namespace
}  // namespace tabs::comm
