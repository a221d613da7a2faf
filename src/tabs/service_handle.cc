#include "src/tabs/service_handle.h"

namespace tabs {

Status ServiceHandle::EnsureResolved(const server::Tx& tx) {
  if (map_) {
    return Status::kOk;
  }
  name::Resolver::ServiceResolution res =
      resolver_.ResolveService(world_->names(tx.origin), service_);
  if (res.bindings.empty()) {
    return Status::kNotFound;
  }
  if (!res.complete()) {
    return Status::kNodeDown;  // some shard's node could not answer
  }
  Result<placement::ShardMap> map = placement::ShardMap::FromBindings(service_, res.bindings);
  if (!map.ok()) {
    return map.status();
  }
  map_ = std::move(map.value());
  return Status::kOk;
}

// --- ArrayService ---------------------------------------------------------------

Result<std::int32_t> ArrayService::Get(const server::Tx& tx, std::uint64_t index) {
  return AtIndex<servers::ArrayServer, Result<std::int32_t>>(
      tx, index, [&](servers::ArrayServer& s, std::uint32_t cell) { return s.GetCell(tx, cell); });
}

Status ArrayService::Set(const server::Tx& tx, std::uint64_t index, std::int32_t value) {
  return AtIndex<servers::ArrayServer, Status>(
      tx, index,
      [&](servers::ArrayServer& s, std::uint32_t cell) { return s.SetCell(tx, cell, value); });
}

Result<std::vector<std::int32_t>> ArrayService::GetMany(
    const server::Tx& tx, const std::vector<std::uint64_t>& indices) {
  using Ret = Result<std::vector<std::int32_t>>;
  return Routed<Ret>(tx, [&](const placement::ShardMap& map) -> Ret {
    std::vector<std::vector<std::uint32_t>> locals(map.shard_count());
    std::vector<std::vector<size_t>> positions(map.shard_count());
    for (size_t i = 0; i < indices.size(); ++i) {
      std::uint32_t shard = map.ShardOfIndex(indices[i]);
      locals[shard].push_back(static_cast<std::uint32_t>(map.LocalIndex(indices[i])));
      positions[shard].push_back(i);
    }
    // Issue every shard's chunks before awaiting any; `order` maps the k-th
    // result in issue order back to its argument position.
    std::vector<sim::FuturePtr<Result<std::vector<Result<std::int32_t>>>>> chunks;
    std::vector<size_t> order;
    Status failed = Status::kOk;
    for (std::uint32_t shard = 0; shard < map.shard_count(); ++shard) {
      if (locals[shard].empty()) {
        continue;
      }
      Result<servers::ArrayServer*> srv = ShardServer<servers::ArrayServer>(shard);
      if (!srv.ok()) {
        failed = srv.status();  // still drain what is already on the wire
        break;
      }
      for (auto& c : srv.value()->AsyncGetCells(tx, locals[shard])) {
        chunks.push_back(std::move(c));
      }
      order.insert(order.end(), positions[shard].begin(), positions[shard].end());
    }
    std::vector<std::int32_t> out(indices.size());
    size_t k = 0;
    failed = AwaitChunks<std::int32_t>(chunks, failed, [&](const Result<std::int32_t>& r) {
      out[order[k++]] = r.value_or(0);
    });
    if (failed != Status::kOk) {
      return failed;
    }
    return out;
  });
}

Status ArrayService::SetMany(const server::Tx& tx,
                             const std::vector<std::pair<std::uint64_t, std::int32_t>>& writes) {
  return Routed<Status>(tx, [&](const placement::ShardMap& map) -> Status {
    std::vector<std::vector<std::pair<std::uint32_t, std::int32_t>>> locals(map.shard_count());
    for (const auto& [index, value] : writes) {
      locals[map.ShardOfIndex(index)].push_back(
          {static_cast<std::uint32_t>(map.LocalIndex(index)), value});
    }
    std::vector<sim::FuturePtr<Result<std::vector<Result<bool>>>>> chunks;
    Status failed = Status::kOk;
    for (std::uint32_t shard = 0; shard < map.shard_count(); ++shard) {
      if (locals[shard].empty()) {
        continue;
      }
      Result<servers::ArrayServer*> srv = ShardServer<servers::ArrayServer>(shard);
      if (!srv.ok()) {
        failed = srv.status();  // still drain what is already on the wire
        break;
      }
      for (auto& c : srv.value()->AsyncSetCells(tx, locals[shard])) {
        chunks.push_back(std::move(c));
      }
    }
    return AwaitChunks<bool>(chunks, failed, [](const Result<bool>&) {});
  });
}

// --- AccountService -------------------------------------------------------------

Status AccountService::Deposit(const server::Tx& tx, std::uint64_t account,
                               std::int64_t amount) {
  return AtIndex<servers::AccountServer, Status>(
      tx, account,
      [&](servers::AccountServer& s, std::uint32_t a) { return s.Deposit(tx, a, amount); });
}

Status AccountService::Withdraw(const server::Tx& tx, std::uint64_t account,
                                std::int64_t amount) {
  return AtIndex<servers::AccountServer, Status>(
      tx, account,
      [&](servers::AccountServer& s, std::uint32_t a) { return s.Withdraw(tx, a, amount); });
}

Result<std::int64_t> AccountService::Balance(const server::Tx& tx, std::uint64_t account) {
  return AtIndex<servers::AccountServer, Result<std::int64_t>>(
      tx, account,
      [&](servers::AccountServer& s, std::uint32_t a) { return s.ReadBalance(tx, a); });
}

// --- BTreeService ---------------------------------------------------------------

Status BTreeService::Insert(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return AtKey<servers::BTreeServer, Status>(
      tx, key, [&](servers::BTreeServer& s) { return s.Insert(tx, key, value); });
}

Status BTreeService::Update(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return AtKey<servers::BTreeServer, Status>(
      tx, key, [&](servers::BTreeServer& s) { return s.Update(tx, key, value); });
}

Status BTreeService::Upsert(const server::Tx& tx, const std::string& key,
                            const std::string& value) {
  return AtKey<servers::BTreeServer, Status>(
      tx, key, [&](servers::BTreeServer& s) { return s.Upsert(tx, key, value); });
}

Status BTreeService::Remove(const server::Tx& tx, const std::string& key) {
  return AtKey<servers::BTreeServer, Status>(
      tx, key, [&](servers::BTreeServer& s) { return s.Remove(tx, key); });
}

Result<std::string> BTreeService::Lookup(const server::Tx& tx, const std::string& key) {
  return AtKey<servers::BTreeServer, Result<std::string>>(
      tx, key, [&](servers::BTreeServer& s) { return s.Lookup(tx, key); });
}

// --- open functions -------------------------------------------------------------

ArrayService OpenArray(World& world, std::string service) {
  return ArrayService(world, std::move(service));
}

AccountService OpenAccounts(World& world, std::string service) {
  return AccountService(world, std::move(service));
}

BTreeService OpenBTree(World& world, std::string service) {
  return BTreeService(world, std::move(service));
}

Result<servers::ReplicatedDirectory> OpenReplicatedDirectory(World& world, NodeId from,
                                                             const std::string& service,
                                                             int read_quorum,
                                                             int write_quorum) {
  name::Resolver resolver;
  name::Resolver::ServiceResolution res = resolver.ResolveService(world.names(from), service);
  std::vector<servers::ReplicatedDirectory::Replica> replicas;
  for (const name::Binding& b : res.bindings) {
    if (!world.NodeAlive(b.node)) {
      continue;
    }
    auto* rep = world.Server<servers::DirectoryRep>(b.node, b.server);
    if (rep != nullptr) {
      replicas.push_back({rep, b.node});
    }
  }
  if (replicas.empty()) {
    return Status::kNotFound;
  }
  return servers::ReplicatedDirectory(std::move(replicas), read_quorum, write_quorum);
}

}  // namespace tabs
