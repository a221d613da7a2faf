// Single-server crash and recovery (Section 7 future work): one data server
// process dies; the node, its other servers, and unrelated transactions keep
// running; the server recovers from the common log alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/servers/array_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;

class ServerRecoveryTest : public ::testing::Test {
 protected:
  ServerRecoveryTest() : world_(2) {
    a_ = world_.AddServerOf<ArrayServer>(1, "a", 32u);
    b_ = world_.AddServerOf<ArrayServer>(1, "b", 32u);
  }
  void RefreshA() { a_ = world_.Server<ArrayServer>(1, "a"); }

  World world_;
  ArrayServer* a_;
  ArrayServer* b_;
};

TEST_F(ServerRecoveryTest, CommittedDataSurvivesServerRestart) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a_->SetCell(tx, 0, 11);
      b_->SetCell(tx, 0, 22);
      return Status::kOk;
    });
    world_.CrashServer(1, "a");
    auto stats = world_.RecoverServer(1, "a");
    EXPECT_EQ(stats.losers.size(), 0u);
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 11);
      EXPECT_EQ(b_->GetCell(tx, 0).value(), 22);  // untouched throughout
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, ActiveTransactionsUsingTheServerAbort) {
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      a_->SetCell(tx, 0, 1);
      b_->SetCell(tx, 0, 1);
      return Status::kOk;
    });
    // An in-flight transaction touches BOTH servers when "a" dies.
    TransactionId t = app.Begin();
    a_->SetCell(app.MakeTx(t), 0, 99);
    b_->SetCell(app.MakeTx(t), 0, 99);
    world_.CrashServer(1, "a");
    EXPECT_TRUE(app.TransactionIsAborted(t));
    // The b-side write was rolled back immediately (b is alive)...
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b_->GetCell(tx, 0).value(), 1);
      return Status::kOk;
    });
    // ...and the a-side write rolls back when the server recovers.
    world_.RecoverServer(1, "a");
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 1);
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, OtherServersKeepWorkingWhileOneIsDown) {
  world_.RunApp(1, [&](Application& app) {
    world_.CrashServer(1, "a");
    // Node 1 is alive: b accepts transactions while a is down.
    Status s = app.Transaction([&](const server::Tx& tx) {
      return b_->SetCell(tx, 5, 55);
    });
    EXPECT_EQ(s, Status::kOk);
    world_.RecoverServer(1, "a");
    RefreshA();
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(b_->GetCell(tx, 5).value(), 55);
      EXPECT_EQ(a_->GetCell(tx, 0).value(), 0);
      return Status::kOk;
    });
  });
}

TEST_F(ServerRecoveryTest, RepeatedServerRestartCycles) {
  world_.RunApp(1, [&](Application& app) {
    for (int round = 1; round <= 3; ++round) {
      app.Transaction([&](const server::Tx& tx) {
        a_->SetCell(tx, 1, round);
        return Status::kOk;
      });
      world_.CrashServer(1, "a");
      world_.RecoverServer(1, "a");
      RefreshA();
      app.Transaction([&](const server::Tx& tx) {
        EXPECT_EQ(a_->GetCell(tx, 1).value(), round);
        return Status::kOk;
      });
    }
  });
}

TEST_F(ServerRecoveryTest, ServerRecoveryScansOnlyItsOwnRecordsIntoSegment) {
  world_.RunApp(1, [&](Application& app) {
    for (int i = 0; i < 10; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        a_->SetCell(tx, static_cast<std::uint32_t>(i), i);
        b_->SetCell(tx, static_cast<std::uint32_t>(i), -i);
        return Status::kOk;
      });
    }
    world_.CrashServer(1, "a");
    auto stats = world_.RecoverServer(1, "a");
    RefreshA();
    // Correct values on both servers: a's from log replay, b's untouched.
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(a_->GetCell(tx, static_cast<std::uint32_t>(i)).value(), i);
        EXPECT_EQ(b_->GetCell(tx, static_cast<std::uint32_t>(i)).value(), -i);
      }
      return Status::kOk;
    });
    EXPECT_GT(stats.records_scanned, 0);
  });
}

// A server recovered on a live node while a transaction it joined is still
// prepared there. The transaction also touched another server on that node,
// and its verdict never arrived (every commit datagram, and under Paxos
// Commit every learn, out of the coordinator is lost). Resolving the
// transaction must finish it at both servers: nothing stays in doubt and
// neither server keeps the transaction's locks.
TEST(ServerRecoveryOnLiveNodeTest, ResolvedVerdictFinishesEveryServerOfTheTxn) {
  World world(2);
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* x = world.AddServerOf<ArrayServer>(2, "x", 4u);
  auto* y = world.AddServerOf<ArrayServer>(2, "y", 4u);
  world.network().SetDatagramLossTagged([](NodeId from, NodeId, const std::string& what) {
    return from == 1 && (what == "2pc-commit" || what == "paxos-learn");
  });
  TransactionId tid;
  world.RunApp(1, [&](Application& app) {
    tid = app.Begin();
    server::Tx tx = app.MakeTx(tid);
    ASSERT_EQ(a1->SetCell(tx, 0, 1), Status::kOk);
    ASSERT_EQ(x->SetCell(tx, 0, 2), Status::kOk);
    ASSERT_EQ(y->SetCell(tx, 0, 3), Status::kOk);
    ASSERT_EQ(app.End(tid), Status::kOk);  // the coordinator decided commit
  });
  world.network().SetDatagramLossTagged({});
  ASSERT_EQ(world.tm(2).InDoubt(), std::vector<TransactionId>{tid});

  world.RunApp(2, [&](Application& app) {
    world.CrashServer(2, "x");
    world.RecoverServer(2, "x");
    x = world.Server<ArrayServer>(2, "x");
    EXPECT_EQ(world.tm(2).ResolveInDoubt(tid), Status::kOk);
    EXPECT_TRUE(world.tm(2).InDoubt().empty());
    EXPECT_EQ(world.tm(2).StateOf(tid), txn::TxnState::kCommitted);
    app.Transaction([&](const server::Tx& tx) {
      Result<std::int32_t> xv = x->GetCell(tx, 0);
      Result<std::int32_t> yv = y->GetCell(tx, 0);
      EXPECT_EQ(xv.status(), Status::kOk);
      EXPECT_EQ(yv.status(), Status::kOk);  // y's locks were released too
      EXPECT_EQ(xv.value_or(-1), 2);
      EXPECT_EQ(yv.value_or(-1), 3);
      return Status::kOk;
    });
  });
  EXPECT_EQ(world.Drain(), 0);
}

// A transaction recovered in doubt pins its log records: reclaiming the log
// of the recovered node must keep its prepare and update records, so a
// second crash finds it in doubt again, its cell still locked. Not pinned to
// a commit mode: the verdict never reaches node 2 under either.
TEST(InDoubtRecoveryTest, RecoveredInDoubtTxnPinsItsLogAcrossReclaim) {
  World world(2);
  auto* a1 = world.AddServerOf<ArrayServer>(1, "a1", 4u);
  auto* x = world.AddServerOf<ArrayServer>(2, "x", 4u);
  world.network().SetDatagramLossTagged([](NodeId from, NodeId, const std::string& what) {
    return from == 1 && (what == "2pc-commit" || what == "paxos-learn");
  });
  TransactionId tid;
  world.RunApp(1, [&](Application& app) {
    tid = app.Begin();
    server::Tx tx = app.MakeTx(tid);
    ASSERT_EQ(a1->SetCell(tx, 0, 1), Status::kOk);
    ASSERT_EQ(x->SetCell(tx, 0, 2), Status::kOk);
    ASSERT_EQ(app.End(tid), Status::kOk);
  });
  world.network().SetDatagramLossTagged({});
  ASSERT_EQ(world.tm(2).InDoubt(), std::vector<TransactionId>{tid});

  world.RunApp(1, [&](Application& app) {
    world.CrashNode(2);
    world.RecoverNode(2, /*resolve_in_doubt=*/false);
    world.ReclaimLog(2);
    world.CrashNode(2);
    auto stats = world.RecoverNode(2, /*resolve_in_doubt=*/false);
    x = world.Server<ArrayServer>(2, "x");
    EXPECT_EQ(stats.in_doubt, std::vector<TransactionId>{tid});
    EXPECT_EQ(world.tm(2).InDoubt(), std::vector<TransactionId>{tid});
    TransactionId t = app.Begin();
    EXPECT_EQ(x->SetCell(app.MakeTx(t), 0, 9), Status::kTimeout);
    app.Abort(t);
    EXPECT_EQ(world.tm(2).ResolveInDoubt(tid), Status::kOk);
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(x->GetCell(tx, 0).value_or(-1), 2);
      return Status::kOk;
    });
  });
  EXPECT_TRUE(world.tm(2).InDoubt().empty());
  EXPECT_EQ(world.Drain(), 0);
}

// A call already on the wire when its server crashes must not run on the
// destroyed server: it reports kNodeDown, and the node stays usable.
TEST(ServerRecoveryOnLiveNodeTest, CallInFlightToCrashedServerReportsNodeDown) {
  World world(2);
  auto* x = world.AddServerOf<ArrayServer>(2, "x", 4u);
  world.RunApp(1, [&](Application& app) {
    TransactionId t = app.Begin();
    auto reply = x->AsyncSetCell(app.MakeTx(t), 0, 5);
    world.CrashServer(2, "x");
    EXPECT_EQ(comm::Network::AwaitReply(reply, 1'000'000).status(), Status::kNodeDown);
    app.Abort(t);
    world.RecoverServer(2, "x");
    x = world.Server<ArrayServer>(2, "x");
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(x->GetCell(tx, 0).value_or(-1), 0);
      return Status::kOk;
    });
  });
  EXPECT_EQ(world.Drain(), 0);
}

}  // namespace
}  // namespace tabs
