// tabsbench: the end-to-end benchmark, on both clocks.
//
//   tabsbench --workload <local-bank|fanout-2pc|sharded-paxos> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|tiny]
//
// A run repeats one *episode* of the chosen workload until --seconds of
// host time have passed. An episode builds a World, seeds it (the timed
// set-up), runs a fixed number of closed-loop transaction attempts per
// client (the timed section), crashes one node, recovers it, and checks the
// recovered state against a model of the committed transactions. Every
// episode of a run uses the same seed, so every exact field (virtual times,
// counts, scheduler steps) must repeat bit for bit; a run whose episodes
// disagree fails.
//
// Two clocks, named in every metric: host_* is wall time of the simulator,
// vt_* is virtual time of the modelled TABS. With --trace 0 all episodes run
// untraced and the run reports the end-to-end metrics. With --trace 1 the
// run alternates untraced and traced episodes: the traced ones enable the
// Section-5.2 performance monitor and the benchmark's own host-time spans
// around its calls into each layer, and the run reports the per-layer
// metrics. The traced and untraced episodes must agree on every exact
// field, and the monitor's per-component virtual times must sum exactly to
// the measured attempt latencies.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// When a check fails, "correct" is false, "metrics" is empty and the exit
// code is 1.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/servers/account_server.h"
#include "src/servers/array_server.h"
#include "src/tabs/service_handle.h"
#include "src/tabs/world.h"

namespace tabs::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using servers::AccountServer;
using servers::ArrayServer;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // the self-test's size: a few attempts per client
};

// --- host-time spans ---------------------------------------------------------------

// The benchmark's own spans around its calls into each layer. Recorded only
// in traced episodes; a span around a blocking call includes the work other
// tasks did while it waited.
enum Span { kTxnSpan, kBeginSpan, kCommitSpan, kLocalOpSpan, kRemoteOpSpan, kResolveSpan,
            kSpanCount };

struct HostSpans {
  bool on = false;
  std::array<std::vector<double>, kSpanCount> us;  // samples, host microseconds
};

class HostSpan {
 public:
  HostSpan(HostSpans& spans, Span kind) : spans_(spans.on ? &spans : nullptr), kind_(kind) {
    if (spans_ != nullptr) {
      t0_ = Clock::now();
    }
  }
  ~HostSpan() {
    if (spans_ != nullptr) {
      spans_->us[kind_].push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0_).count());
    }
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  HostSpans* spans_;
  Span kind_;
  Clock::time_point t0_;
};

// --- statistics ------------------------------------------------------------------------

// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// The highest of p99/p90/p50 that leaves at least ten samples beyond it.
double TailQuantile(std::size_t n) {
  for (double q : {0.99, 0.9}) {
    if (static_cast<double>(n) * (1 - q) >= 10) {
      return q;
    }
  }
  return 0.5;
}

struct HostUsage {
  Clock::time_point wall;
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;
};

HostUsage SampleHost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage h;
  h.wall = Clock::now();
  h.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  h.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  h.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- one episode ---------------------------------------------------------------------------

// Statuses a closed-loop client expects from a transaction attempt that does
// not commit; any other status counts as a failed operation.
constexpr std::array<std::pair<Status, const char*>, 4> kAbortCauses = {{
    {Status::kTimeout, "timeout"},
    {Status::kAborted, "aborted"},
    {Status::kVoteNo, "vote_no"},
    {Status::kConflict, "conflict"},
}};

bool ExpectedAbort(Status s) {
  for (const auto& [status, name] : kAbortCauses) {
    if (s == status) {
      return true;
    }
  }
  return false;
}

struct Episode {
  bool setup_only = false;  // stop after the timed set-up
  bool traced = false;
  World* world = nullptr;  // valid while the episode runs

  // Exact: identical for every episode of a seed, traced or not.
  std::uint64_t attempts = 0;
  std::uint64_t committed = 0;
  std::uint64_t steps = 0;
  std::vector<SimTime> latencies;  // one per attempt, Begin to End/Abort
  SimTime vt_start = 0;            // virtual time the clients start
  SimTime vt_end = 0;              // the last client's finish
  sim::PrimitiveCounts primitives;
  double forces = 0;
  double fg_page_writes = 0;
  std::map<Status, std::uint64_t> outcomes;
  int recovery_passes = 0;
  int recovery_records = 0;
  SimTime vt_recovery = 0;
  sim::ComponentTimes components{};  // traced only: summed over attempts

  // Host.
  double setup_s = 0;
  double wall_s = 0;  // the timed section
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;
  double recovery_host_ms = 0;
  HostSpans spans;

  std::string error;  // the first failed check; empty when all passed

  void Fail(const std::string& what) {
    if (error.empty()) {
      error = what;
    }
  }

  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& [s, count] : outcomes) {
      if (s != Status::kOk && !ExpectedAbort(s)) {
        n += count;
      }
    }
    return n;
  }

  // Every exact field, as text: two episodes of one seed must match.
  std::string Fingerprint() const {
    std::ostringstream os;
    os << "attempts=" << attempts << " committed=" << committed << " steps=" << steps
       << " vt_start=" << vt_start << " vt_end=" << vt_end << " forces=" << forces
       << " fg_page_writes=" << fg_page_writes << " recovery=" << recovery_passes << "/"
       << recovery_records << "/" << vt_recovery << " outcomes=";
    for (const auto& [s, n] : outcomes) {
      os << StatusName(s) << ":" << n << ",";
    }
    os << " primitives=";
    for (double c : primitives.count) {
      os << c << ",";
    }
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the latency sequence
    for (SimTime l : latencies) {
      h = (h ^ static_cast<std::uint64_t>(l)) * 1099511628211ull;
    }
    os << " latencies=" << latencies.size() << "#" << h;
    return os.str();
  }
};

// One transaction attempt of a closed-loop client: Begin, the body's
// operations, then End — or Abort when an operation failed. Records the
// attempt's virtual latency and, when traced, its per-component split.
template <typename Body>
Status Attempt(Episode& ep, Application& app, Body&& body) {
  sim::Scheduler& sched = ep.world->scheduler();
  sim::Tracer& tracer = ep.world->substrate().tracer();
  HostSpan root(ep.spans, kTxnSpan);
  SimTime t0 = sched.Now();
  sim::ComponentTimes a0{};
  if (ep.traced) {
    a0 = tracer.CurrentTaskAttribution();
  }
  TransactionId tid;
  {
    HostSpan span(ep.spans, kBeginSpan);
    tid = app.Begin();
  }
  Status s = body(app.MakeTx(tid));
  if (s == Status::kOk) {
    HostSpan span(ep.spans, kCommitSpan);
    s = app.End(tid);
  } else {
    app.Abort(tid);
  }
  ep.latencies.push_back(sched.Now() - t0);
  if (ep.traced) {
    sim::ComponentTimes a1 = tracer.CurrentTaskAttribution();
    for (int i = 0; i < sim::kComponentCount; ++i) {
      ep.components[i] += a1[i] - a0[i];
    }
  }
  ++ep.attempts;
  ++ep.outcomes[s];
  if (s == Status::kOk) {
    ++ep.committed;
  }
  return s;
}

// Every WorldOptions field, pinned: the environment (TABS_COMMIT_MODE) must
// not change what a workload runs.
WorldOptions PinnedOptions(txn::CommitMode mode) {
  WorldOptions o;
  o.costs = sim::CostModel::Baseline();
  o.arch = sim::ArchitectureModel::Prototype();
  o.log_space_budget = 0;
  o.log_reclaim_watermark = 1.0;
  o.checkpoint_interval = 0;
  o.group_commit_window_us = 0;
  o.group_commit_max_batch = 32;
  o.page_clean_interval_us = 0;
  o.page_clean_batch = 16;
  o.max_outstanding_calls = 1;
  o.op_coalesce_batch = 1;
  o.vote_timeout_us = 10'000'000;
  o.commit_mode = mode;
  o.paxos_f = 1;
  o.queue_execution = false;
  return o;
}

std::string DescribeOptions(const WorldOptions& o) {
  std::ostringstream os;
  os << "commit_mode=" << (o.commit_mode == txn::CommitMode::kPaxosCommit ? "paxos" : "2pc")
     << " paxos_f=" << o.paxos_f << " costs=baseline arch="
     << (o.arch.merged_tm_rm || o.arch.optimized_commit ? "improved" : "prototype")
     << " log_space_budget=" << o.log_space_budget
     << " log_reclaim_watermark=" << o.log_reclaim_watermark
     << " checkpoint_interval=" << o.checkpoint_interval
     << " group_commit_window_us=" << o.group_commit_window_us
     << " group_commit_max_batch=" << o.group_commit_max_batch
     << " page_clean_interval_us=" << o.page_clean_interval_us
     << " page_clean_batch=" << o.page_clean_batch
     << " max_outstanding_calls=" << o.max_outstanding_calls
     << " op_coalesce_batch=" << o.op_coalesce_batch
     << " vote_timeout_us=" << o.vote_timeout_us
     << " queue_execution=" << (o.queue_execution ? 1 : 0);
  return os.str();
}

// Drains the scheduler and records a check failure if any task is left
// blocked forever.
void DrainClean(Episode& ep, const char* phase) {
  int blocked = ep.world->Drain();
  if (blocked != 0) {
    ep.Fail(std::string(phase) + ": Drain() left " + std::to_string(blocked) +
            " tasks blocked");
  }
}

// The timed section: `spawn_clients` spawns every closed-loop client at
// ep.vt_start; the section ends when the scheduler drains.
void RunTimed(Episode& ep, const std::function<void()>& spawn_clients) {
  World& world = *ep.world;
  world.metrics().Reset();
  if (ep.traced) {
    world.substrate().tracer().Enable(true);
  }
  std::uint64_t steps0 = world.scheduler().steps();
  HostUsage h0 = SampleHost();
  spawn_clients();
  DrainClean(ep, "timed section");
  HostUsage h1 = SampleHost();
  world.substrate().tracer().Enable(false);
  ep.steps = world.scheduler().steps() - steps0;
  ep.wall_s = std::chrono::duration<double>(h1.wall - h0.wall).count();
  ep.user_s = h1.user_s - h0.user_s;
  ep.sys_s = h1.sys_s - h0.sys_s;
  ep.ctx_switches = h1.ctx_switches - h0.ctx_switches;
  ep.primitives = world.metrics().Total();
  ep.forces = world.metrics().forces_issued();
  ep.fg_page_writes = world.metrics().page_writes_foreground();
}

// Crashes `victim` from a task on `from` (which may be the victim itself:
// that task dies with its node), then recovers it from a fresh task and
// records the recovery's cost on both clocks.
void CrashAndRecover(Episode& ep, NodeId from, NodeId victim) {
  World& world = *ep.world;
  world.scheduler().Spawn("crash", from, ep.vt_end, [&world, victim] {
    world.CrashNode(victim);
  });
  DrainClean(ep, "crash");
  recovery::RecoveryStats stats;
  SimTime vt = 0;
  auto t0 = Clock::now();
  world.scheduler().Spawn("recover", from, ep.vt_end, [&world, &stats, &vt, victim] {
    SimTime begin = world.scheduler().Now();
    stats = world.RecoverNode(victim);
    vt = world.scheduler().Now() - begin;
  });
  DrainClean(ep, "recovery");
  ep.recovery_host_ms = SecondsSince(t0) * 1e3;
  ep.recovery_passes = stats.passes;
  ep.recovery_records = stats.records_scanned;
  ep.vt_recovery = vt;
}

// Picks an index in [0, n) skewed towards 0: the cube of a uniform draw.
std::uint32_t Skewed(std::mt19937_64& rng, std::uint32_t n) {
  double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return std::min(n - 1, static_cast<std::uint32_t>(u * u * u * n));
}

// A closed-loop client's think time before each attempt: uniform in
// [0, 100) virtual ms. It keeps the clients out of lockstep, so they meet
// at locks and at the log device at seeded, varied offsets.
void Think(World& world, std::mt19937_64& rng) {
  world.scheduler().Charge(static_cast<SimTime>(rng() % 100'000));
}

// The seed of client `stream`'s generator in a run seeded with `seed`.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull + 1;
}

// --- local-bank ------------------------------------------------------------------------------
//
// One node, four clients, one AccountServer (typed increment/decrement
// locks, operation logging, all data resident). Skewed transfers plus a
// fixed share of read-only audits of every balance, whose shared locks
// conflict with in-flight updates. Ends with a crash of the node, three-pass
// recovery, and a check of every balance against the model of committed
// transfers.

constexpr std::uint32_t kBankAccounts = 16;
constexpr std::int64_t kSeedBalance = 1'000'000;

void RunLocalBank(const Args& args, const WorldOptions& options, Episode& ep) {
  const int kClients = 4;
  const int kAttempts = args.tiny ? 20 : 5000;  // per client
  const int kAuditPercent = 20;

  auto setup0 = Clock::now();
  World world(1, options);
  ep.world = &world;
  world.AddServerOf<AccountServer>(1, "bank", kBankAccounts);
  std::vector<std::int64_t> model(kBankAccounts, kSeedBalance);
  world.RunApp(1, [&](Application& app) {
    auto* bank = world.Server<AccountServer>(1, "bank");
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t a = 0; a < kBankAccounts; ++a) {
        if (Status d = bank->Deposit(tx, a, kSeedBalance); d != Status::kOk) {
          return d;
        }
      }
      return Status::kOk;
    });
    if (s != Status::kOk) {
      ep.Fail("seeding the bank failed");
    }
    ep.vt_start = world.scheduler().Now();
  });
  DrainClean(ep, "seeding");
  ep.setup_s = SecondsSince(setup0);
  if (ep.setup_only) {
    return;
  }

  RunTimed(ep, [&] {
    for (int c = 0; c < kClients; ++c) {
      world.SpawnApp(1, "client", [&, c](Application& app) {
        auto* bank = world.Server<AccountServer>(1, "bank");
        std::mt19937_64 rng(Mix(args.seed, static_cast<std::uint64_t>(c)));
        for (int i = 0; i < kAttempts; ++i) {
          Think(world, rng);
          if (static_cast<int>(rng() % 100) < kAuditPercent) {
            // A total audit: every balance, in account order. A committed
            // audit is a serializable snapshot, so it must see all the money.
            std::int64_t sum = 0;
            Status s = Attempt(ep, app, [&](const server::Tx& tx) {
              sum = 0;
              for (std::uint32_t a = 0; a < kBankAccounts; ++a) {
                HostSpan span(ep.spans, kLocalOpSpan);
                Result<std::int64_t> b = bank->ReadBalance(tx, a);
                if (!b.ok()) {
                  return b.status();
                }
                sum += b.value();
              }
              return Status::kOk;
            });
            if (s == Status::kOk && sum != kSeedBalance * kBankAccounts) {
              ep.Fail("a committed audit saw " + std::to_string(sum));
            }
            continue;
          }
          std::uint32_t from = Skewed(rng, kBankAccounts);
          std::uint32_t to = Skewed(rng, kBankAccounts);
          if (to == from) {
            to = (from + 1) % kBankAccounts;
          }
          auto amount = static_cast<std::int64_t>(1 + rng() % 100);
          Status s = Attempt(ep, app, [&](const server::Tx& tx) {
            // Locks are taken in account order, as audits take theirs.
            for (std::uint32_t a : {std::min(from, to), std::max(from, to)}) {
              HostSpan span(ep.spans, kLocalOpSpan);
              Status st = a == from ? bank->Withdraw(tx, a, amount) : bank->Deposit(tx, a, amount);
              if (st != Status::kOk) {
                return st;
              }
            }
            return Status::kOk;
          });
          if (s == Status::kOk) {
            model[from] -= amount;
            model[to] += amount;
          }
        }
        ep.vt_end = std::max(ep.vt_end, world.scheduler().Now());
      }, ep.vt_start);
    }
  });

  CrashAndRecover(ep, 1, 1);

  std::int64_t total = 0;
  world.RunApp(1, [&](Application& app) {
    auto* bank = world.Server<AccountServer>(1, "bank");
    Status s = app.Transaction([&](const server::Tx& tx) {
      for (std::uint32_t a = 0; a < kBankAccounts; ++a) {
        Result<std::int64_t> b = bank->ReadBalance(tx, a);
        if (!b.ok()) {
          return b.status();
        }
        total += b.value();
        if (b.value() != model[a]) {
          ep.Fail("account " + std::to_string(a) + " holds " + std::to_string(b.value()) +
                  " after recovery, model says " + std::to_string(model[a]));
        }
      }
      return Status::kOk;
    });
    if (s != Status::kOk) {
      ep.Fail(std::string("post-recovery audit failed: ") + StatusName(s));
    }
  });
  DrainClean(ep, "oracle");
  if (total != kSeedBalance * kBankAccounts) {
    ep.Fail("money not conserved: " + std::to_string(total));
  }
}

// --- fanout-2pc -------------------------------------------------------------------------------
//
// Three nodes, one client per node, an ArrayServer per node under two-phase
// commit. Each update writes one cell of the local array and two cells of
// each remote array; a fixed share of attempts only read two cells of each
// remote array (the read-only commit path). Every client works in its own
// stripe of cells, so lock contention is nil and the model of committed
// writes is exact. Each array is 64 pages against a 16-frame buffer pool,
// so random cells page. Ends with a participant crash, one-pass value
// recovery, and a check of every cell against the model.

constexpr int kFanoutNodes = 3;
constexpr std::uint32_t kFanoutPages = 64;
constexpr std::uint32_t kCellsPerPage = kPageSize / sizeof(std::int32_t);
constexpr std::uint32_t kFanoutCells = kFanoutPages * kCellsPerPage;  // 8192
constexpr std::size_t kFanoutFrames = 16;

void RunFanout2pc(const Args& args, const WorldOptions& options, Episode& ep) {
  const int kAttempts = args.tiny ? 10 : 1600;  // per client
  const int kReadOnlyPercent = 20;

  auto setup0 = Clock::now();
  World world(kFanoutNodes, options);
  ep.world = &world;
  auto array_name = [](int node) { return "array-" + std::to_string(node); };
  for (int n = 1; n <= kFanoutNodes; ++n) {
    world.AddServerOf<ArrayServer>(static_cast<NodeId>(n), array_name(n), kFanoutCells,
                                   kFanoutFrames);
  }
  // model[n - 1][cell]: the last committed value. Each node seeds its own
  // array with seed_value(cell).
  auto seed_value = [](std::uint32_t cell) { return static_cast<std::int32_t>(cell) + 1; };
  std::vector<std::vector<std::int32_t>> model(kFanoutNodes,
                                               std::vector<std::int32_t>(kFanoutCells));
  const std::uint32_t kChunk = 1024;
  for (int n = 1; n <= kFanoutNodes; ++n) {
    world.SpawnApp(static_cast<NodeId>(n), "seed", [&, n](Application& app) {
      auto* array = world.Server<ArrayServer>(static_cast<NodeId>(n), array_name(n));
      for (std::uint32_t lo = 0; lo < kFanoutCells; lo += kChunk) {
        Status s = app.Transaction([&](const server::Tx& tx) {
          for (std::uint32_t cell = lo; cell < lo + kChunk; ++cell) {
            if (Status w = array->SetCell(tx, cell, seed_value(cell)); w != Status::kOk) {
              return w;
            }
          }
          return Status::kOk;
        });
        if (s != Status::kOk) {
          ep.Fail("seeding " + array_name(n) + " failed");
        }
      }
      ep.vt_start = std::max(ep.vt_start, world.scheduler().Now());
    });
  }
  DrainClean(ep, "seeding");
  for (auto& cells : model) {
    for (std::uint32_t cell = 0; cell < kFanoutCells; ++cell) {
      cells[cell] = seed_value(cell);
    }
  }
  ep.setup_s = SecondsSince(setup0);
  if (ep.setup_only) {
    return;
  }

  RunTimed(ep, [&] {
    for (int c = 0; c < kFanoutNodes; ++c) {
      auto home = static_cast<NodeId>(c + 1);
      world.SpawnApp(home, "client", [&, c, home](Application& app) {
        std::vector<ArrayServer*> arrays;
        for (int n = 1; n <= kFanoutNodes; ++n) {
          arrays.push_back(world.Server<ArrayServer>(static_cast<NodeId>(n), array_name(n)));
        }
        std::mt19937_64 rng(Mix(args.seed, static_cast<std::uint64_t>(c)));
        // A cell of this client's stripe: cell % nodes == c.
        auto pick = [&] {
          auto slot = static_cast<std::uint32_t>(rng() % (kFanoutCells / kFanoutNodes));
          return slot * kFanoutNodes + static_cast<std::uint32_t>(c);
        };
        for (int i = 0; i < kAttempts; ++i) {
          Think(world, rng);
          bool read_only = static_cast<int>(rng() % 100) < kReadOnlyPercent;
          // (array index, cell) in operation order; local first.
          std::vector<std::pair<int, std::uint32_t>> ops;
          if (!read_only) {
            ops.emplace_back(c, pick());
          }
          for (int n = 0; n < kFanoutNodes; ++n) {
            if (n != c) {
              ops.emplace_back(n, pick());
              ops.emplace_back(n, pick());
            }
          }
          auto value = static_cast<std::int32_t>((c << 24) | (i + 1));
          Status s = Attempt(ep, app, [&](const server::Tx& tx) {
            for (const auto& [n, cell] : ops) {
              HostSpan span(ep.spans, n == c ? kLocalOpSpan : kRemoteOpSpan);
              Status st = read_only ? arrays[n]->GetCell(tx, cell).status()
                                    : arrays[n]->SetCell(tx, cell, value);
              if (st != Status::kOk) {
                return st;
              }
            }
            return Status::kOk;
          });
          if (s == Status::kOk && !read_only) {
            for (const auto& [n, cell] : ops) {
              model[n][cell] = value;
            }
          }
        }
        ep.vt_end = std::max(ep.vt_end, world.scheduler().Now());
      }, ep.vt_start);
    }
  });

  CrashAndRecover(ep, 1, 2);

  for (int n = 1; n <= kFanoutNodes; ++n) {
    world.RunApp(static_cast<NodeId>(n), [&, n](Application& app) {
      auto* array = world.Server<ArrayServer>(static_cast<NodeId>(n), array_name(n));
      for (std::uint32_t lo = 0; lo < kFanoutCells; lo += kChunk) {
        Status s = app.Transaction([&](const server::Tx& tx) {
          for (std::uint32_t cell = lo; cell < lo + kChunk; ++cell) {
            Result<std::int32_t> v = array->GetCell(tx, cell);
            if (!v.ok()) {
              return v.status();
            }
            if (v.value() != model[n - 1][cell]) {
              ep.Fail(array_name(n) + " cell " + std::to_string(cell) + " holds " +
                      std::to_string(v.value()) + " after recovery, model says " +
                      std::to_string(model[n - 1][cell]));
            }
          }
          return Status::kOk;
        });
        if (s != Status::kOk) {
          ep.Fail(std::string("post-recovery read failed: ") + StatusName(s));
        }
      }
    });
    DrainClean(ep, "oracle");
  }
}

// --- sharded-paxos --------------------------------------------------------------------------
//
// Eight nodes, one AccountServer shard on each, opened by name as one
// logical AccountService, under Paxos Commit with F=1. Four clients on
// nodes 1-4 run cross-shard transfers and read-only audits of accounts on
// four distinct shards. Ends with a crash of a shard node that hosts no
// client, recovery, and a check of every balance against the model.

constexpr int kShardNodes = 8;
constexpr std::uint64_t kShardAccounts = 4 * kShardNodes;

void RunShardedPaxos(const Args& args, const WorldOptions& options, Episode& ep) {
  const int kClients = 4;
  const int kAttempts = args.tiny ? 6 : 2500;  // per client
  const int kAuditPercent = 20;
  const int kAuditShards = 4;

  auto setup0 = Clock::now();
  World world(kShardNodes, options);
  ep.world = &world;
  std::vector<NodeId> nodes;
  for (int n = 1; n <= kShardNodes; ++n) {
    nodes.push_back(static_cast<NodeId>(n));
  }
  world.AddShardedServiceOf<AccountServer>("accounts", nodes, kShardNodes, kShardAccounts);
  std::vector<std::int64_t> model(kShardAccounts, kSeedBalance);
  // Each node seeds its own shard's accounts (account % shards == shard).
  for (int n = 1; n <= kShardNodes; ++n) {
    world.SpawnApp(static_cast<NodeId>(n), "seed", [&, n](Application& app) {
      AccountService accounts = OpenAccounts(world, "accounts");
      Status s = app.Transaction([&](const server::Tx& tx) {
        for (std::uint64_t a = static_cast<std::uint64_t>(n - 1); a < kShardAccounts;
             a += kShardNodes) {
          if (Status d = accounts.Deposit(tx, a, kSeedBalance); d != Status::kOk) {
            return d;
          }
        }
        return Status::kOk;
      });
      if (s != Status::kOk) {
        ep.Fail("seeding shard " + std::to_string(n - 1) + " failed");
      }
      ep.vt_start = std::max(ep.vt_start, world.scheduler().Now());
    });
  }
  DrainClean(ep, "seeding");
  ep.setup_s = SecondsSince(setup0);
  if (ep.setup_only) {
    return;
  }

  auto node_of = [](std::uint64_t account) {
    return static_cast<NodeId>(account % kShardNodes + 1);
  };
  RunTimed(ep, [&] {
    for (int c = 0; c < kClients; ++c) {
      auto home = static_cast<NodeId>(c + 1);
      world.SpawnApp(home, "client", [&, c, home](Application& app) {
        AccountService accounts = [&] {
          HostSpan span(ep.spans, kResolveSpan);
          AccountService handle = OpenAccounts(world, "accounts");
          if (!handle.resolver().ResolveService(world.names(home), "accounts").complete()) {
            ep.Fail("client " + std::to_string(c) + " could not resolve the service");
          }
          return handle;
        }();
        std::mt19937_64 rng(Mix(args.seed, static_cast<std::uint64_t>(c)));
        auto op_span = [&](std::uint64_t account) {
          return node_of(account) == home ? kLocalOpSpan : kRemoteOpSpan;
        };
        for (int i = 0; i < kAttempts; ++i) {
          Think(world, rng);
          if (static_cast<int>(rng() % 100) < kAuditPercent) {
            // One account on each of kAuditShards distinct shards.
            auto first = static_cast<std::uint64_t>(rng() % kShardNodes);
            std::vector<std::uint64_t> picks;
            for (int k = 0; k < kAuditShards; ++k) {
              std::uint64_t shard = (first + static_cast<std::uint64_t>(k) * 2) % kShardNodes;
              picks.push_back(shard + (rng() % (kShardAccounts / kShardNodes)) * kShardNodes);
            }
            std::sort(picks.begin(), picks.end());
            Attempt(ep, app, [&](const server::Tx& tx) {
              for (std::uint64_t a : picks) {
                HostSpan span(ep.spans, op_span(a));
                Result<std::int64_t> b = accounts.Balance(tx, a);
                if (!b.ok()) {
                  return b.status();
                }
              }
              return Status::kOk;
            });
            continue;
          }
          std::uint64_t from = rng() % kShardAccounts;
          std::uint64_t to = rng() % kShardAccounts;
          if (to % kShardNodes == from % kShardNodes) {  // always cross-shard
            to = (to + 1) % kShardAccounts;
          }
          auto amount = static_cast<std::int64_t>(1 + rng() % 100);
          Status s = Attempt(ep, app, [&](const server::Tx& tx) {
            // Locks are taken in account order, as audits take theirs.
            for (std::uint64_t a : {std::min(from, to), std::max(from, to)}) {
              HostSpan span(ep.spans, op_span(a));
              Status st = a == from ? accounts.Withdraw(tx, a, amount)
                                    : accounts.Deposit(tx, a, amount);
              if (st != Status::kOk) {
                return st;
              }
            }
            return Status::kOk;
          });
          if (s == Status::kOk) {
            model[from] -= amount;
            model[to] += amount;
          }
        }
        ep.vt_end = std::max(ep.vt_end, world.scheduler().Now());
      }, ep.vt_start + c * 1'000);
    }
  });

  CrashAndRecover(ep, 1, 6);

  std::int64_t total = 0;
  world.RunApp(1, [&](Application& app) {
    AccountService accounts = OpenAccounts(world, "accounts");
    const std::uint64_t kChunk = 32;
    for (std::uint64_t lo = 0; lo < kShardAccounts; lo += kChunk) {
      Status s = app.Transaction([&](const server::Tx& tx) {
        for (std::uint64_t a = lo; a < lo + kChunk; ++a) {
          Result<std::int64_t> b = accounts.Balance(tx, a);
          if (!b.ok()) {
            return b.status();
          }
          total += b.value();
          if (b.value() != model[a]) {
            ep.Fail("account " + std::to_string(a) + " holds " + std::to_string(b.value()) +
                    " after recovery, model says " + std::to_string(model[a]));
          }
        }
        return Status::kOk;
      });
      if (s != Status::kOk) {
        ep.Fail(std::string("post-recovery audit failed: ") + StatusName(s));
      }
    }
  });
  DrainClean(ep, "oracle");
  if (total != kSeedBalance * static_cast<std::int64_t>(kShardAccounts)) {
    ep.Fail("money not conserved: " + std::to_string(total));
  }
}

// --- the run ------------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  txn::CommitMode mode;
  void (*run)(const Args&, const WorldOptions&, Episode&);
};

constexpr std::array<WorkloadDef, 3> kWorkloads = {{
    {"local-bank", txn::CommitMode::kTwoPhase, RunLocalBank},
    {"fanout-2pc", txn::CommitMode::kTwoPhase, RunFanout2pc},
    {"sharded-paxos", txn::CommitMode::kPaxosCommit, RunShardedPaxos},
}};

Episode RunEpisode(const WorkloadDef& w, const Args& args, bool traced, bool setup_only) {
  Episode ep;
  ep.setup_only = setup_only;
  ep.traced = traced;
  ep.spans.on = traced;
  w.run(args, PinnedOptions(w.mode), ep);
  ep.world = nullptr;
  return ep;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, vu] = metrics_[i];
      os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
    }
    os << "}";
    return os.str();
  }
  void Print(std::ostream& os) const {
    for (const auto& [name, vu] : metrics_) {
      os << "  " << name << " = " << vu.first << " " << vu.second << "\n";
    }
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

double Ms(SimTime us) { return static_cast<double>(us) / 1000.0; }

void AddEndToEnd(Report& r, const std::vector<Episode>& untraced, double setup_s,
                 double peak_rss_mb) {
  const Episode& ref = untraced.front();
  std::vector<double> txn_per_s;
  for (const Episode& e : untraced) {
    txn_per_s.push_back(static_cast<double>(e.committed) / e.wall_s);
  }
  std::vector<SimTime> lat = ref.latencies;
  r.Add("host_txn_per_s", Median(txn_per_s), "1/s");
  r.Add("setup_s", setup_s, "s");
  r.Add("host_peak_rss_mb", peak_rss_mb, "MB");
  r.Add("vt_latency_p50_ms", Quantile(lat, 0.5) / 1000.0, "ms");
  r.Add("vt_latency_p99_ms", Quantile(lat, 0.99) / 1000.0, "ms");
  r.Add("vt_txn_per_s",
        static_cast<double>(ref.committed) / (static_cast<double>(ref.vt_end - ref.vt_start) / 1e6),
        "1/s");
  r.Add("vt_recovery_ms", Ms(ref.vt_recovery), "ms");
}

void AddPerLayer(Report& r, const std::vector<Episode>& untraced,
                 const std::vector<Episode>& traced) {
  const Episode& ref = traced.front();
  double n = static_cast<double>(ref.attempts);
  auto per_txn = [n](double v) { return v / n; };
  auto prim = [&ref](sim::Primitive p) { return ref.primitives.Of(p); };
  auto vt_us = [&](sim::Component c) {
    return static_cast<double>(ref.components[static_cast<int>(c)]) / n;
  };
  // Host spans pooled over the traced episodes.
  std::array<std::vector<double>, kSpanCount> spans;
  for (const Episode& e : traced) {
    for (int k = 0; k < kSpanCount; ++k) {
      spans[k].insert(spans[k].end(), e.spans.us[k].begin(), e.spans.us[k].end());
    }
  }
  std::vector<double> ns_per_step, ctx_per_txn, traced_wall, untraced_wall, recovery_ms;
  double user = 0, sys = 0;
  for (const Episode& e : untraced) {
    ns_per_step.push_back(e.wall_s * 1e9 / static_cast<double>(e.steps));
    ctx_per_txn.push_back(e.ctx_switches / static_cast<double>(e.attempts));
    untraced_wall.push_back(e.wall_s);
    user += e.user_s;
    sys += e.sys_s;
  }
  for (const Episode& e : traced) {
    traced_wall.push_back(e.wall_s);
    recovery_ms.push_back(e.recovery_host_ms);
  }
  std::uint64_t not_committed = ref.attempts - ref.committed;

  r.Add("abort_ratio", static_cast<double>(not_committed) / n, "ratio");
  r.Add("sim.steps_per_txn", per_txn(static_cast<double>(ref.steps)), "steps");
  r.Add("sim.host_ns_per_step", Median(ns_per_step), "ns");
  r.Add("sim.host_sys_share", user + sys > 0 ? sys / (user + sys) : 0, "ratio");
  r.Add("sim.host_ctx_switches_per_txn", Median(ctx_per_txn), "count");
  r.Add("comm.session_calls_per_txn", per_txn(prim(sim::Primitive::kInterNodeDataServerCall)),
        "count");
  r.Add("comm.datagrams_per_txn", per_txn(prim(sim::Primitive::kDatagram)), "count");
  r.Add("comm.local_msgs_per_txn",
        per_txn(prim(sim::Primitive::kSmallMessage) + prim(sim::Primitive::kLargeMessage) +
                prim(sim::Primitive::kPointerMessage)),
        "count");
  r.Add("comm.vt_us_per_txn", vt_us(sim::Component::kCommunicationManager), "us");
  r.Add("log.forces_per_txn", per_txn(ref.forces), "count");
  r.Add("log.stable_writes_per_txn", per_txn(prim(sim::Primitive::kStableWrite)), "count");
  r.Add("log.vt_us_per_txn", vt_us(sim::Component::kLog), "us");
  r.Add("kernel.page_reads_per_txn",
        per_txn(prim(sim::Primitive::kRandomPageIo) + prim(sim::Primitive::kSequentialRead)),
        "count");
  r.Add("kernel.fg_page_writes_per_txn", per_txn(ref.fg_page_writes), "count");
  r.Add("kernel.vt_us_per_txn", vt_us(sim::Component::kKernel), "us");
  auto outcome = [&ref](Status s) {
    auto it = ref.outcomes.find(s);
    return it == ref.outcomes.end() ? 0.0 : static_cast<double>(it->second);
  };
  r.Add("lock.timeout_aborts_per_ktxn", outcome(Status::kTimeout) * 1000.0 / n, "count");
  r.Add("servers.calls_per_txn",
        per_txn(prim(sim::Primitive::kDataServerCall) +
                prim(sim::Primitive::kInterNodeDataServerCall)),
        "count");
  r.Add("servers.vt_us_per_txn", vt_us(sim::Component::kDataServer), "us");
  r.Add("servers.local_op_host_us_p50", Quantile(spans[kLocalOpSpan], 0.5), "us");
  r.Add("servers.local_op_host_us_p99", Quantile(spans[kLocalOpSpan], 0.99), "us");
  r.Add("servers.remote_op_host_us_p50", Quantile(spans[kRemoteOpSpan], 0.5), "us");
  r.Add("servers.remote_op_host_us_p99", Quantile(spans[kRemoteOpSpan], 0.99), "us");
  r.Add("txn.vt_us_per_txn", vt_us(sim::Component::kTransactionManager), "us");
  r.Add("txn.begin_host_us_p50", Quantile(spans[kBeginSpan], 0.5), "us");
  r.Add("txn.commit_host_us_p50", Quantile(spans[kCommitSpan], 0.5), "us");
  r.Add("txn.commit_host_us_p99", Quantile(spans[kCommitSpan], 0.99), "us");
  for (const auto& [status, name] : kAbortCauses) {
    r.Add(std::string("txn.aborts.") + name, outcome(status), "count");
  }
  r.Add("tabs.vt_us_per_txn", vt_us(sim::Component::kApplication), "us");
  r.Add("tabs.txn_host_us_p50", Quantile(spans[kTxnSpan], 0.5), "us");
  r.Add("tabs.txn_host_us_p99", Quantile(spans[kTxnSpan], 0.99), "us");
  r.Add("tabs.latency_samples", n, "count");
  r.Add("recovery.vt_us_per_txn", vt_us(sim::Component::kRecoveryManager), "us");
  r.Add("recovery.records_scanned", ref.recovery_records, "count");
  r.Add("recovery.passes", ref.recovery_passes, "count");
  r.Add("recovery.host_ms", Median(recovery_ms), "ms");
  r.Add("name.resolve_host_us", Quantile(spans[kResolveSpan], 0.5), "us");
  r.Add("trace.overhead_ratio", Median(traced_wall) / Median(untraced_wall), "ratio");
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::string& metrics_json) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json << "}" << std::endl;
}

int Usage() {
  std::cerr << "usage: tabsbench --workload <local-bank|fanout-2pc|sharded-paxos> --seed <n>"
               " --seconds <s> --trace <0|1> [--size full|tiny]\n";
  return 2;
}

// Host-measurement set-up, before any thread starts. The simulator runs one
// task at a time on a pool of OS threads; pinning the process to the CPU it
// started on removes cross-CPU wake-ups, which otherwise make host time vary
// by 2x from run to run. Peak RSS should measure the program's memory, not
// the allocator's history: one malloc arena, not one per thread, and a fixed
// mmap threshold (glibc's initial 128 KiB, without its dynamic raising), so
// large blocks always go back to the system when freed. Without the two, peak
// RSS varied by 15% between seeds of one workload.
void SteadyHost() {
  int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
}

int Main(int argc, char** argv) {
  SteadyHost();
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      args.tiny = value == "tiny";
    } else {
      return Usage();
    }
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (args.workload == d.name) {
      w = &d;
    }
  }
  if (w == nullptr || argc % 2 == 0) {
    return Usage();
  }
  std::cout << "workload " << w->name << " seed " << args.seed << " trace " << args.trace
            << "\noptions: " << DescribeOptions(PinnedOptions(w->mode)) << "\n";

  // Episodes until the time is up: alternating untraced and traced under
  // --trace 1, with at least two untraced ones (the same-seed check) and,
  // when tracing, at least one traced one. Each is checked as it ends: its
  // oracle, its exact fields against the first episode's, and, when traced,
  // the Section-5.2 identity.
  std::vector<Episode> untraced, traced;
  std::vector<double> setups;
  std::string reference, error;
  std::uint64_t attempted = 0, failed = 0;
  double peak_rss_mb = 0;
  auto t0 = Clock::now();
  while (error.empty() && (untraced.size() < 2 || (args.trace && traced.empty()) ||
                           SecondsSince(t0) < args.seconds)) {
    bool trace_this = args.trace && traced.size() < untraced.size();
    Episode ep = RunEpisode(*w, args, trace_this, false);
    setups.push_back(ep.setup_s);
    attempted += ep.attempts;
    failed += ep.failed();
    std::string fingerprint = ep.Fingerprint();
    if (reference.empty()) {
      reference = fingerprint;
    }
    SimTime parts = 0, total = 0;
    for (SimTime c : ep.components) {
      parts += c;
    }
    for (SimTime l : ep.latencies) {
      total += l;
    }
    if (!ep.error.empty()) {
      error = ep.error;
    } else if (fingerprint != reference) {
      error = std::string("exact fields differ between episodes of one seed") +
              (trace_this ? " (traced vs untraced)" : "") + ":\n  " + reference + "\n  " +
              fingerprint;
    } else if (trace_this && parts != total) {
      error = "Section-5.2 identity broken: components sum to " + std::to_string(parts) +
              " us, attempt latencies to " + std::to_string(total) + " us";
    }
    std::vector<Episode>& kind = trace_this ? traced : untraced;
    if (!kind.empty()) {
      ep.latencies = {};  // only the first of each kind is reported from
    }
    kind.push_back(std::move(ep));
    if (untraced.size() == 2 && peak_rss_mb == 0) {
      peak_rss_mb = PeakRssMb();  // after a fixed amount of work, not of time
    }
  }
  if (!error.empty()) {
    std::cout << "CHECK FAILED: " << error << "\n";
    PrintResult(false, std::max<std::uint64_t>(attempted, 1), failed, "{}");
    return 1;
  }
  // Set-up is short, so take enough samples for a steady median.
  while (setups.size() < 15) {
    setups.push_back(RunEpisode(*w, args, false, true).setup_s);
  }

  Report report;
  if (args.trace) {
    AddPerLayer(report, untraced, traced);
  } else {
    AddEndToEnd(report, untraced, Median(setups), peak_rss_mb);
  }
  const Episode& ref = untraced.front();
  std::cout << "episodes: " << untraced.size() << " untraced, " << traced.size()
            << " traced; attempts per episode " << ref.attempts << " (latency samples), committed "
            << ref.committed << "; vt latency tail quantile with >=10 samples beyond: p"
            << TailQuantile(ref.latencies.size()) * 100 << "\n";
  std::cout << "host txn/s per untraced episode:";
  for (const Episode& e : untraced) {
    std::cout << " " << static_cast<double>(e.committed) / e.wall_s;
  }
  std::cout << "\n";
  report.Print(std::cout);
  PrintResult(true, attempted, failed, report.Json());
  return 0;
}

}  // namespace
}  // namespace tabs::perfbench

int main(int argc, char** argv) { return tabs::perfbench::Main(argc, argv); }
