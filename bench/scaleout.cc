// Scale-out curve: one logical service spanning N nodes.
//
// A sharded AccountService ("accounts", one shard per node, opened by name
// through the service-handle API) serves debit-credit transfers from 2
// clients per node. Each transfer withdraws from one random account and
// deposits to another — with interleaved placement most transfers span two
// shards, so every committed transaction exercises name resolution, routed
// remote calls, and the multi-node two-phase commit over ordinary
// spanning-tree participants.
//
// The table reports committed transactions per virtual second and the
// per-transaction latency distribution (nearest-rank p50/p99) against the
// node count: 8 -> 32 -> 128 nodes in full mode, capped at 32 under
// TABS_BENCH_SMOKE=1 (the CI gate compares the smoke JSON byte-for-byte).

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_json.h"
#include "src/tabs/service_handle.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

const SimTime kWindow = bench::SmokeMode() ? 400'000 : 2'000'000;

constexpr std::uint32_t kAccountsPerShard = 4;
constexpr int kClientsPerNode = 2;
constexpr std::int64_t kSeedBalance = 1'000;

struct Row {
  int nodes = 0;
  int clients = 0;
  std::uint64_t total_accounts = 0;
  int committed = 0;
  int aborted = 0;
  std::uint64_t cross_shard = 0;  // committed transfers spanning two shards
  SimTime p50 = 0;
  SimTime p99 = 0;

  double per_second() const { return committed / (kWindow / 1'000'000.0); }
  double cross_shard_pct() const {
    return committed > 0 ? 100.0 * static_cast<double>(cross_shard) / committed : 0.0;
  }
};

SimTime NearestRank(std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

Row RunScale(int nodes) {
  Row row;
  row.nodes = nodes;
  row.clients = kClientsPerNode * nodes;
  row.total_accounts = static_cast<std::uint64_t>(kAccountsPerShard) * nodes;

  World world(nodes);
  std::vector<NodeId> all_nodes;
  for (int n = 1; n <= nodes; ++n) {
    all_nodes.push_back(static_cast<NodeId>(n));
  }
  world.AddShardedServiceOf<servers::AccountServer>(
      "accounts", all_nodes, static_cast<std::uint32_t>(nodes), row.total_accounts);

  // Seed every account, shard-locally: node i's client deposits into the
  // accounts its own shard owns (global ids congruent to i-1 mod N), so the
  // seeding transactions stay single-node and the handle's routing is still
  // what places them. Each seed task records its finish time — clocks are
  // per-task in this simulator, so the measurement window starts at the
  // latest seeding clock rather than a (meaningless) global "now".
  SimTime seed_end = 0;
  for (int n = 1; n <= nodes; ++n) {
    world.SpawnApp(static_cast<NodeId>(n), "seed",
                   [&world, &seed_end, n, nodes](Application& app) {
      AccountService accounts = OpenAccounts(world, "accounts");
      app.RunTransactional([&](const server::Tx& tx) {
        for (std::uint32_t k = 0; k < kAccountsPerShard; ++k) {
          std::uint64_t account = static_cast<std::uint64_t>(n - 1) +
                                  static_cast<std::uint64_t>(k) * nodes;
          Status s = accounts.Deposit(tx, account, kSeedBalance);
          if (s != Status::kOk) {
            return s;
          }
        }
        return Status::kOk;
      });
      seed_end = std::max(seed_end, world.scheduler().Now());
    });
  }
  world.Drain();

  SimTime t0 = seed_end;
  SimTime deadline = t0 + kWindow;
  std::vector<SimTime> latencies;
  for (int c = 0; c < row.clients; ++c) {
    NodeId home = static_cast<NodeId>(c % nodes + 1);
    world.SpawnApp(home, "client", [&, c](Application& app) {
      AccountService accounts = OpenAccounts(world, "accounts");
      std::mt19937 rng(static_cast<std::uint32_t>(100'000 * row.nodes + c));
      while (world.scheduler().Now() < deadline) {
        std::uint64_t from = rng() % row.total_accounts;
        std::uint64_t to = rng() % row.total_accounts;
        if (to == from) {
          to = (to + 1) % row.total_accounts;
        }
        std::int64_t amount = 1 + static_cast<std::int64_t>(rng() % 5);
        SimTime start = world.scheduler().Now();
        auto r = app.RunTransactional([&](const server::Tx& tx) {
          Status w = accounts.Withdraw(tx, from, amount);
          if (w != Status::kOk) {
            return w;
          }
          return accounts.Deposit(tx, to, amount);
        });
        if (r.ok()) {
          ++row.committed;
          latencies.push_back(world.scheduler().Now() - start);
          if (from % nodes != to % nodes) {
            ++row.cross_shard;
          }
        } else {
          ++row.aborted;
        }
      }
    }, t0 + c * 1'000);
  }
  world.Drain();

  std::sort(latencies.begin(), latencies.end());
  row.p50 = NearestRank(latencies, 0.50);
  row.p99 = NearestRank(latencies, 0.99);
  return row;
}

void Run() {
  std::vector<int> scales = bench::SmokeMode() ? std::vector<int>{8, 32}
                                               : std::vector<int>{8, 32, 128};

  bench::JsonWriter json;
  json.BeginObject();
  json.String("bench", "scaleout");
  json.Number("window_virtual_us", static_cast<std::uint64_t>(kWindow));
  json.Bool("smoke", bench::SmokeMode());

  std::printf("Scale-out: sharded debit-credit over a logical account service\n");
  std::printf("(one shard per node, %d clients/node, %.1f s virtual window)\n\n",
              kClientsPerNode, kWindow / 1'000'000.0);
  std::printf("%-7s %-8s %10s %8s %10s %10s %10s\n", "nodes", "clients", "txn/s",
              "aborts", "p50 ms", "p99 ms", "x-shard %");
  std::printf("%.68s\n",
              "--------------------------------------------------------------------");

  json.BeginArray("rows");
  for (int nodes : scales) {
    Row row = RunScale(nodes);
    std::printf("%-7d %-8d %10.1f %8d %10.1f %10.1f %10.1f\n", row.nodes, row.clients,
                row.per_second(), row.aborted, row.p50 / 1000.0, row.p99 / 1000.0,
                row.cross_shard_pct());
    json.BeginObject();
    json.String("name", std::string("n").append(std::to_string(row.nodes)));
    json.Number("nodes", row.nodes);
    json.Number("shards", row.nodes);
    json.Number("clients", row.clients);
    json.Number("accounts", row.total_accounts);
    json.Number("committed", row.committed);
    json.Number("aborts", row.aborted);
    json.Number("txn_per_s", row.per_second());
    json.Number("p50_ms", row.p50 / 1000.0);
    json.Number("p99_ms", row.p99 / 1000.0);
    json.Number("cross_shard_pct", row.cross_shard_pct());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  std::printf(
      "\nThroughput grows with the node count because independent transfers land\n"
      "on disjoint shard pairs and overlap; latency is flat-ish (a transfer\n"
      "touches at most two shards regardless of N) until client fan-in to hot\n"
      "shards shows up in the tail.\n");
  if (json.WriteFile("BENCH_scaleout.json")) {
    std::printf("\nwrote BENCH_scaleout.json\n");
  }
}

}  // namespace
}  // namespace tabs

int main() {
  tabs::Run();
  return 0;
}
