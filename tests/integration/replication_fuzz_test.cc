// Fuzz: the replicated directory under random operations and random
// single-node crash/recover cycles, checked against a model map. With
// quorums r = w = 2 of 3 single-vote representatives, any read quorum
// intersects any write quorum, so a committed write is never lost and a
// lookup never returns stale data — whatever one node is doing.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "src/servers/replicated_directory.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

using servers::BTreeServer;
using servers::DirectoryRep;
using servers::ReplicatedDirectory;

class ReplicationFuzzTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void Build(World& world) {
    for (NodeId n = 1; n <= 3; ++n) {
      world.AddServerOf<BTreeServer>(n, "bt", 200u);
      World* w = &world;
      world.AddServer(n, "rep", [w, n](const server::ServerContext& ctx) {
        return std::make_unique<DirectoryRep>(ctx, w->Server<BTreeServer>(n, "bt"), 1);
      });
    }
  }

  static ReplicatedDirectory Client(World& world) {
    std::vector<ReplicatedDirectory::Replica> reps;
    for (NodeId n = 1; n <= 3; ++n) {
      auto* rep = world.Server<DirectoryRep>(n, "rep");
      rep->SetStorage(world.Server<BTreeServer>(n, "bt"));
      reps.push_back({rep, n});
    }
    return ReplicatedDirectory(std::move(reps), 2, 2);
  }
};

TEST_P(ReplicationFuzzTest, QuorumIntersectionNeverServesStaleData) {
  std::mt19937 rng(GetParam());
  World world(4);  // 3 representatives + a client node
  Build(world);
  std::map<std::string, std::string> model;
  NodeId down = kInvalidNode;

  for (int round = 0; round < 25; ++round) {
    // Maybe change which (single) node is down.
    world.RunApp(4, [&](Application&) {
      if (down != kInvalidNode && rng() % 2 == 0) {
        world.RecoverNode(down);
        down = kInvalidNode;
      } else if (down == kInvalidNode && rng() % 3 == 0) {
        down = 1 + rng() % 3;
        world.CrashNode(down);
      }
    });
    world.RunApp(4, [&](Application& app) {
      auto dir = Client(world);
      std::string key = std::string("k").append(std::to_string(rng() % 6));
      std::string value = std::string("v").append(std::to_string(round));
      switch (rng() % 3) {
        case 0: {
          Status s = app.Transaction(
              [&](const server::Tx& tx) { return dir.Insert(tx, key, value); });
          Status expect = model.contains(key) ? Status::kConflict : Status::kOk;
          EXPECT_EQ(s, expect) << "insert " << key << " round " << round;
          if (s == Status::kOk) {
            model[key] = value;
          }
          break;
        }
        case 1: {
          Status s = app.Transaction(
              [&](const server::Tx& tx) { return dir.Remove(tx, key); });
          Status expect = model.contains(key) ? Status::kOk : Status::kNotFound;
          EXPECT_EQ(s, expect) << "remove " << key << " round " << round;
          model.erase(key);
          break;
        }
        default: {
          app.Transaction([&](const server::Tx& tx) {
            auto v = dir.Lookup(tx, key);
            if (model.contains(key)) {
              EXPECT_TRUE(v.ok()) << key << " round " << round;
              if (v.ok()) {
                EXPECT_EQ(v.value(), model[key]) << key << " round " << round;
              }
            } else {
              EXPECT_EQ(v.status(), Status::kNotFound) << key << " round " << round;
            }
            return Status::kOk;
          });
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationFuzzTest, ::testing::Values(3u, 14u, 159u, 265u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tabs
