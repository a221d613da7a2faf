// Real-CPU micro-benchmarks (google-benchmark) of the substrate's hot
// paths: log append/force, recovery's log scans, lock acquire/release (also
// after a bulk load), scheduler task turnaround and task switch,
// recoverable-segment access, and B-tree operations. These measure the implementation itself (host
// nanoseconds), not the simulated Perq — the Table 5-x binaries handle the
// paper's virtual-time results.

#include <benchmark/benchmark.h>

#include <optional>

#include "src/lock/lock_manager.h"
#include "src/log/log_manager.h"
#include "src/servers/array_server.h"
#include "src/servers/btree_server.h"
#include "src/tabs/world.h"

namespace tabs {
namespace {

log::LogRecord ValueRecord() {
  log::LogRecord rec;
  rec.type = log::RecordType::kValueUpdate;
  rec.owner = {1, 1};
  rec.top = {1, 1};
  rec.server = "bench";
  rec.oid = {1, 0, 8};
  rec.old_value = Bytes(8, 0);
  rec.new_value = Bytes(8, 1);
  return rec;
}

void BM_LogAppend(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  log::StableLogDevice device;
  log::LogManager log(substrate, device);
  const log::LogRecord rec = ValueRecord();
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppend);

// One append forced on its own: the per-commit log cost, sector sums
// included. A fresh device every 4096 forces keeps memory bounded.
void BM_LogForce(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  std::optional<log::StableLogDevice> device;
  std::optional<log::LogManager> log;
  const log::LogRecord rec = ValueRecord();
  std::int64_t n = 0;
  for (auto _ : state) {
    if (n++ % 4096 == 0) {
      log.reset();
      device.emplace();
      log.emplace(substrate, *device);
    }
    log->Force(log->Append(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogForce);

// What crash recovery reads of a 50k-record log (two operation updates and
// a commit per transaction): rebinding validates the stable tail, then one
// forward and one backward scan read every record's header, as recovery's
// passes do for the records they skip.
void BM_RecoveryScan(benchmark::State& state) {
  constexpr int kRecords = 50'000;
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  log::StableLogDevice device;
  {
    log::LogManager log(substrate, device);
    for (int i = 0; i < kRecords; ++i) {
      log::LogRecord rec;
      rec.owner = {1, static_cast<std::uint64_t>(i / 3 + 1)};
      rec.top = rec.owner;
      if (i % 3 == 2) {
        rec.type = log::RecordType::kTxnCommit;
      } else {
        rec.type = log::RecordType::kOperationUpdate;
        rec.server = "accounts";
        rec.op_name = "credit";
        rec.redo_args = Bytes(12, static_cast<std::uint8_t>(i));
        rec.undo_op_name = "debit";
        rec.undo_args = rec.redo_args;
        rec.pages = {{1, static_cast<PageNumber>(i % 64)}};
      }
      log.Append(std::move(rec));
    }
    log.ForceAll();
  }
  for (auto _ : state) {
    log::LogManager log(substrate, device);
    std::uint64_t seen = 0;
    for (Lsn l = log.first_lsn(); l != kNullLsn; l = log.NextLsn(l)) {
      seen += log.ReadHeader(l)->top.sequence;
    }
    for (Lsn l = log.LastDurableLsn(); l != kNullLsn; l = log.PrevLsn(l)) {
      seen += log.ReadHeader(l)->owner.sequence;
    }
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_RecoveryScan)->Unit(benchmark::kMillisecond);

void BM_LogRecordSerializeRoundTrip(benchmark::State& state) {
  log::LogRecord rec;
  rec.type = log::RecordType::kValueUpdate;
  rec.owner = {1, 1};
  rec.top = {1, 1};
  rec.server = "bench";
  rec.oid = {1, 0, 64};
  rec.old_value = Bytes(64, 0);
  rec.new_value = Bytes(64, 1);
  for (auto _ : state) {
    Bytes b = rec.Serialize();
    auto back = log::LogRecord::Deserialize(b);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogRecordSerializeRoundTrip);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Scheduler sched;
  lock::LockManager lm(sched, lock::CompatibilityMatrix::SharedExclusive(), 1000);
  TransactionId tid{1, 1};
  ObjectId oid{1, 0, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.ConditionalLock(tid, oid, lock::kExclusive));
    lm.ReleaseAll(tid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

// BM_LockAcquireRelease after one transaction has held `range(0)` locks and
// committed. The object table keeps its peak capacity, so this checks that a
// commit's release walks only the committer's own locks: the cost must be
// the same at every argument.
void BM_LockReleaseAfterBulkLoad(benchmark::State& state) {
  sim::Scheduler sched;
  lock::LockManager lm(sched, lock::CompatibilityMatrix::SharedExclusive(), 1000);
  const TransactionId loader{1, 1};
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    lm.ConditionalLock(loader, ObjectId{1, 4 * i, 4}, lock::kExclusive);
  }
  lm.ReleaseAll(loader);
  TransactionId tid{1, 2};
  ObjectId oid{1, 0, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.ConditionalLock(tid, oid, lock::kExclusive));
    lm.ReleaseAll(tid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockReleaseAfterBulkLoad)->Arg(0)->Arg(1024);

void BM_SchedulerTaskTurnaround(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int x = 0;
    sched.Spawn("t", 1, 0, [&] { x = 1; });
    sched.Run();
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerTaskTurnaround);

// Two tasks handing control to each other through Wait/NotifyOne: the cost
// of one task switch on its own. One item = one switch.
void BM_SchedulerPingPong(benchmark::State& state) {
  sim::Scheduler sched;
  sim::WaitQueue ping_q;
  sim::WaitQueue pong_q;
  bool done = false;
  // Spawned first, so it is waiting before the first ping.
  sched.Spawn("pong", 1, 0, [&] {
    for (;;) {
      sched.Wait(pong_q);
      if (done) {
        return;
      }
      sched.NotifyOne(ping_q);
    }
  });
  sched.Spawn("ping", 1, 0, [&] {
    for (auto _ : state) {
      sched.NotifyOne(pong_q);
      sched.Wait(ping_q);
    }
    done = true;
    sched.NotifyOne(pong_q);
  });
  if (sched.Run() != 0) {
    state.SkipWithError("ping-pong tasks left blocked");
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SchedulerPingPong);

void BM_SegmentReadResident(benchmark::State& state) {
  sim::Scheduler sched;
  sim::Substrate substrate(sched, sim::CostModel::Baseline(),
                           sim::ArchitectureModel::Prototype());
  sim::SimDisk disk(substrate);
  kernel::RecoverableSegment seg(substrate, disk, 1, 8, 8);
  seg.Read({1, 0, 8});  // fault in once
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg.Read({1, 0, 8}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentReadResident);

void BM_LocalTransactionEndToEnd(benchmark::State& state) {
  World world(1);
  auto* arr = world.AddServerOf<servers::ArrayServer>(1, "a", 64u);
  for (auto _ : state) {
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        arr->SetCell(tx, 0, 1);
        return Status::kOk;
      });
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalTransactionEndToEnd);

void BM_BTreeInsertLookup(benchmark::State& state) {
  World world(1);
  auto* bt = world.AddServerOf<servers::BTreeServer>(1, "b", 390u);
  int i = 0;
  for (auto _ : state) {
    world.RunApp(1, [&](Application& app) {
      app.Transaction([&](const server::Tx& tx) {
        char key[16];
        std::snprintf(key, sizeof key, "k%07d", i % 500);
        bt->Upsert(tx, key, "value");
        benchmark::DoNotOptimize(bt->Lookup(tx, key));
        return Status::kOk;
      });
    });
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsertLookup);

}  // namespace
}  // namespace tabs

BENCHMARK_MAIN();
