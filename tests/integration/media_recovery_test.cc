// Media recovery tests (Section 7 future work): archive dumps of
// non-volatile storage, total disk loss, and restore-plus-log-replay.

#include <gtest/gtest.h>

#include <string>

#include "src/servers/array_server.h"
#include "src/servers/btree_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::ArrayServer;
using servers::BTreeServer;

// `prefix` followed by `i`. Built with append: GCC 12 reports a false
// -Wrestrict for "literal" + std::to_string(...).
std::string Numbered(const char* prefix, int i) {
  std::string s(prefix);
  s.append(std::to_string(i));
  return s;
}

class MediaRecoveryTest : public ::testing::Test {
 protected:
  MediaRecoveryTest() : world_(2) {
    arr_ = world_.AddServerOf<ArrayServer>(1, "arr", 32u);
  }
  void Refresh() { arr_ = world_.Server<ArrayServer>(1, "arr"); }

  World world_;
  ArrayServer* arr_;
};

TEST_F(MediaRecoveryTest, ArchivePlusLogReplayRecoversEverythingCommitted) {
  recovery::Archive archive;
  world_.RunApp(1, [&](Application& app) {
    // Pre-dump state.
    app.Transaction([&](const server::Tx& tx) {
      arr_->SetCell(tx, 0, 100);
      arr_->SetCell(tx, 1, 200);
      return Status::kOk;
    });
    archive = world_.DumpArchive(1);
    // Post-dump commits exist only in the log.
    app.Transaction([&](const server::Tx& tx) {
      arr_->SetCell(tx, 1, 999);
      arr_->SetCell(tx, 2, 300);
      return Status::kOk;
    });
    // An uncommitted transaction is in flight at the disk failure.
    TransactionId t = app.Begin();
    arr_->SetCell(app.MakeTx(t), 0, -1);
    world_.rm(1).log().ForceAll();
    world_.MediaFailure(1);
  });
  world_.RunApp(2, [&](Application&) {
    world_.RestoreFromArchive(1, archive);
    Refresh();
  });
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr_->GetCell(tx, 0).value(), 100);  // pre-dump, loser undone
      EXPECT_EQ(arr_->GetCell(tx, 1).value(), 999);  // post-dump commit replayed
      EXPECT_EQ(arr_->GetCell(tx, 2).value(), 300);  // post-dump commit replayed
      return Status::kOk;
    });
  });
}

TEST_F(MediaRecoveryTest, WithoutArchiveTheDiskLossIsVisible) {
  // Control: wiping the disk and recovering WITHOUT the archive loses data
  // whose log records were reclaimed — demonstrating that the archive (not
  // luck) provides media recovery.
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      arr_->SetCell(tx, 0, 42);
      return Status::kOk;
    });
    world_.ReclaimLog(1);  // log no longer holds cell 0's history
    world_.MediaFailure(1);
  });
  world_.RunApp(2, [&](Application&) {
    world_.RecoverNode(1);
    Refresh();
  });
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr_->GetCell(tx, 0).value(), 0);  // gone: no archive, no log
      return Status::kOk;
    });
  });
}

TEST_F(MediaRecoveryTest, ArchiveLowWaterMarkBlocksFatalReclamation) {
  recovery::Archive archive;
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      arr_->SetCell(tx, 0, 7);
      return Status::kOk;
    });
    archive = world_.DumpArchive(1);
    for (int i = 0; i < 40; ++i) {
      app.Transaction([&](const server::Tx& tx) {
        arr_->SetCell(tx, 1 + (i % 8), i);
        return Status::kOk;
      });
    }
    // Reclamation runs but must keep everything after the dump point.
    world_.ReclaimLog(1);
    world_.MediaFailure(1);
  });
  world_.RunApp(2, [&](Application&) {
    world_.RestoreFromArchive(1, archive);
    Refresh();
  });
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      EXPECT_EQ(arr_->GetCell(tx, 0).value(), 7);
      EXPECT_EQ(arr_->GetCell(tx, 1).value(), 32);  // i=32 was the last to hit cell 1
      return Status::kOk;
    });
  });
}

TEST_F(MediaRecoveryTest, BTreeSurvivesMediaFailureViaArchive) {
  auto* bt = world_.AddServerOf<BTreeServer>(1, "bt", 200u);
  recovery::Archive archive;
  world_.RunApp(1, [&](Application& app) {
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 0; i < 50; ++i) {
        bt->Insert(tx, Numbered("key", i), Numbered("v", i));
      }
      return Status::kOk;
    });
    archive = world_.DumpArchive(1);
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 50; i < 80; ++i) {
        bt->Insert(tx, Numbered("key", i), Numbered("v", i));
      }
      return Status::kOk;
    });
    world_.MediaFailure(1);
  });
  world_.RunApp(2, [&](Application&) { world_.RestoreFromArchive(1, archive); });
  bt = world_.Server<BTreeServer>(1, "bt");
  world_.RunApp(1, [&](Application& app) {
    EXPECT_TRUE(bt->CheckInvariants());
    app.Transaction([&](const server::Tx& tx) {
      for (int i = 0; i < 80; ++i) {
        EXPECT_EQ(bt->Lookup(tx, Numbered("key", i)).value(), Numbered("v", i));
      }
      return Status::kOk;
    });
  });
}

}  // namespace
}  // namespace tabs
