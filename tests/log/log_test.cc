#include "src/log/log_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "src/log/log_record.h"
#include "src/sim/substrate.h"

namespace tabs::log {
namespace {

using sim::CostModel;
using sim::Primitive;

class LogTest : public ::testing::Test {
 protected:
  LogTest()
      : substrate_(sched_, CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        log_(substrate_, device_) {}

  void RunInTask(std::function<void()> fn) {
    sched_.Spawn("test", 1, 0, std::move(fn));
    ASSERT_EQ(sched_.Run(), 0);
  }

  static LogRecord ValueRec(TransactionId tid, ObjectId oid, Bytes oldv, Bytes newv) {
    LogRecord r;
    r.type = RecordType::kValueUpdate;
    r.owner = tid;
    r.top = tid;
    r.server = "srv";
    r.oid = oid;
    r.old_value = std::move(oldv);
    r.new_value = std::move(newv);
    return r;
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  StableLogDevice device_;
  LogManager log_;
};

TEST(LogRecordTest, SerializeDeserializeRoundTrip) {
  LogRecord r;
  r.type = RecordType::kOperationUpdate;
  r.owner = {2, 7};
  r.top = {2, 3};
  r.prev_lsn = 99;
  r.undo_next_lsn = 55;
  r.server = "btree";
  r.oid = {4, 1024, 16};
  r.old_value = {1, 2, 3};
  r.new_value = {4, 5};
  r.op_name = "insert";
  r.redo_args = {9, 9};
  r.undo_op_name = "delete";
  r.undo_args = {8};
  r.pages = {{4, 2}, {4, 3}};
  r.parent_node = 12;
  r.children = {3, 4, 5};
  r.local_servers = {"a", "b"};
  r.parent_tid = {1, 1};
  r.checkpoint_data = {0xde, 0xad};

  auto back = LogRecord::Deserialize(r.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, r.type);
  EXPECT_EQ(back->owner, r.owner);
  EXPECT_EQ(back->top, r.top);
  EXPECT_EQ(back->prev_lsn, r.prev_lsn);
  EXPECT_EQ(back->undo_next_lsn, r.undo_next_lsn);
  EXPECT_EQ(back->server, r.server);
  EXPECT_EQ(back->oid, r.oid);
  EXPECT_EQ(back->old_value, r.old_value);
  EXPECT_EQ(back->new_value, r.new_value);
  EXPECT_EQ(back->op_name, r.op_name);
  EXPECT_EQ(back->redo_args, r.redo_args);
  EXPECT_EQ(back->undo_op_name, r.undo_op_name);
  EXPECT_EQ(back->undo_args, r.undo_args);
  EXPECT_EQ(back->pages, r.pages);
  EXPECT_EQ(back->parent_node, r.parent_node);
  EXPECT_EQ(back->children, r.children);
  EXPECT_EQ(back->local_servers, r.local_servers);
  EXPECT_EQ(back->parent_tid, r.parent_tid);
  EXPECT_EQ(back->checkpoint_data, r.checkpoint_data);
}

// One record of `type` with every field set. `tail` 0 leaves the Paxos
// fields default (no tail), 1 sets them (the tail), 2 adds batched accept
// instances (the paxos_extra sub-tail).
LogRecord SampleRecord(RecordType type, int tail) {
  LogRecord r;
  r.type = type;
  r.owner = {2, 7};
  r.top = {2, 3};
  r.prev_lsn = 99;
  r.undo_next_lsn = 55;
  r.server = "accounts";
  r.oid = {4, 1024, 16};
  r.old_value = {1, 2, 3};
  r.new_value = {4, 5};
  r.op_name = "insert";
  r.redo_args = {9, 9};
  r.undo_op_name = "delete";
  r.undo_args = {8};
  r.pages = {{4, 2}, {4, 3}};
  r.parent_node = 12;
  r.children = {3, 4, 5};
  r.siblings = {6};
  r.local_servers = {"a", "bc"};
  r.parent_tid = {1, 1};
  r.checkpoint_data = {0xde, 0xad};
  if (tail >= 1) {
    r.acceptors = {1, 2, 3};
    r.paxos_participant = 2;
    r.paxos_ballot = 4;
    r.paxos_vote = -1;
  }
  if (tail >= 2) {
    r.paxos_extra = {{5, 1}, {6, 2}};
  }
  return r;
}

std::vector<LogRecord> EverySampleRecord() {
  std::vector<LogRecord> out;
  for (auto t = static_cast<int>(RecordType::kValueUpdate);
       t <= static_cast<int>(RecordType::kPaxosLearn); ++t) {
    for (int tail = 0; tail <= 2; ++tail) {
      out.push_back(SampleRecord(static_cast<RecordType>(t), tail));
    }
  }
  return out;
}

TEST(LogRecordTest, HeaderViewMatchesTheFullDecodeForEveryRecordType) {
  for (const LogRecord& r : EverySampleRecord()) {
    SCOPED_TRACE(RecordTypeName(r.type));
    Bytes b = r.Serialize();
    auto full = LogRecord::Deserialize(b);
    auto head = LogRecord::ReadHeader(b);
    ASSERT_TRUE(full.has_value());
    ASSERT_TRUE(head.has_value());
    EXPECT_TRUE(LogRecord::WellFormed(b));
    EXPECT_EQ(head->type, full->type);
    EXPECT_EQ(head->owner, full->owner);
    EXPECT_EQ(head->top, full->top);
    EXPECT_EQ(head->prev_lsn, full->prev_lsn);
    EXPECT_EQ(head->undo_next_lsn, full->undo_next_lsn);
    EXPECT_EQ(head->server, full->server);
    EXPECT_EQ(head->oid, full->oid);
    // Every other field round-trips too, tails included.
    EXPECT_EQ(full->acceptors, r.acceptors);
    EXPECT_EQ(full->paxos_participant, r.paxos_participant);
    EXPECT_EQ(full->paxos_ballot, r.paxos_ballot);
    EXPECT_EQ(full->paxos_vote, r.paxos_vote);
    ASSERT_EQ(full->paxos_extra.size(), r.paxos_extra.size());
    for (size_t i = 0; i < r.paxos_extra.size(); ++i) {
      EXPECT_EQ(full->paxos_extra[i].participant, r.paxos_extra[i].participant);
      EXPECT_EQ(full->paxos_extra[i].vote, r.paxos_extra[i].vote);
    }
    EXPECT_EQ(full->Serialize(), b);
  }
}

TEST(LogRecordTest, SerializeToAppendsAfterExistingBytes) {
  LogRecord r = SampleRecord(RecordType::kPaxosAccept, 2);
  Bytes out{0xAA, 0xBB};
  r.SerializeTo(out);
  Bytes expected{0xAA, 0xBB};
  Bytes b = r.Serialize();
  expected.insert(expected.end(), b.begin(), b.end());
  EXPECT_EQ(out, expected);
}

TEST(LogRecordTest, DeserializeRejectsTruncatedInput) {
  LogRecord simple;
  simple.server = "x";
  std::vector<LogRecord> records = EverySampleRecord();
  records.push_back(simple);
  for (const LogRecord& r : records) {
    SCOPED_TRACE(RecordTypeName(r.type));
    Bytes b = r.Serialize();
    // The optional tails are told by bytes remaining, so a cut exactly where
    // one begins reads as the same record without it. Every other cut fails.
    LogRecord no_extra = r;
    no_extra.paxos_extra.clear();
    LogRecord no_tail = no_extra;
    no_tail.acceptors.clear();
    no_tail.paxos_participant = kInvalidNode;
    no_tail.paxos_ballot = 0;
    no_tail.paxos_vote = 0;
    const size_t tail_at = no_tail.Serialize().size();
    const size_t extra_at = no_extra.Serialize().size();
    for (size_t n = 0; n < b.size(); ++n) {
      std::span<const std::uint8_t> prefix(b.data(), n);
      auto back = LogRecord::Deserialize(prefix);
      EXPECT_EQ(LogRecord::WellFormed(prefix), back.has_value()) << "prefix " << n;
      if (n == tail_at || n == extra_at) {
        ASSERT_TRUE(back.has_value()) << "prefix " << n;
        EXPECT_EQ(back->Serialize(), Bytes(prefix.begin(), prefix.end()));
      } else {
        EXPECT_FALSE(back.has_value()) << "prefix " << n;
      }
    }
  }
}

TEST(LogRecordTest, ValidityCheckAndDeserializeAgreeOnDamagedInput) {
  std::mt19937 rng(11);
  for (const LogRecord& r : EverySampleRecord()) {
    const Bytes b = r.Serialize();
    for (int trial = 0; trial < 200; ++trial) {
      Bytes damaged = b;
      // Overwrite a few bytes: length prefixes then claim too much or too
      // little, and counts run past the end.
      int flips = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < flips; ++i) {
        damaged[rng() % damaged.size()] = static_cast<std::uint8_t>(rng());
      }
      EXPECT_EQ(LogRecord::WellFormed(damaged), LogRecord::Deserialize(damaged).has_value());
    }
  }
}

// CRC32C's standard check value: the CRC of "123456789" (CRC-32/ISCSI).
constexpr std::uint32_t kCrc32cOf123456789 = 0xE3069283u;

template <typename Fn>
void ExpectKnownAnswerAndStreaming(Fn crc) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(~crc(0xFFFFFFFFu, p, check.size()), kCrc32cOf123456789);

  std::mt19937 rng(5);
  Bytes data(1500);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng());
  }
  const std::uint32_t whole = crc(0xFFFFFFFFu, data.data(), data.size());
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<size_t> cuts{0, data.size()};
    for (int k = static_cast<int>(rng() % 5); k > 0; --k) {
      cuts.push_back(rng() % (data.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t sum = 0xFFFFFFFFu;
    for (size_t i = 1; i < cuts.size(); ++i) {
      sum = crc(sum, data.data() + cuts[i - 1], cuts[i] - cuts[i - 1]);
    }
    EXPECT_EQ(sum, whole) << "trial " << trial;
  }
}

TEST(Crc32cTest, TableKnownAnswerAndStreaming) { ExpectKnownAnswerAndStreaming(Crc32cTable); }

#if defined(__x86_64__)
TEST(Crc32cTest, Sse42KnownAnswerStreamingAndAgreementWithTable) {
  if (!__builtin_cpu_supports("sse4.2")) {
    GTEST_SKIP() << "this CPU has no SSE4.2";
  }
  ExpectKnownAnswerAndStreaming(Crc32cSse42);
  std::mt19937 rng(9);
  Bytes data(64);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng());
  }
  for (size_t n = 0; n <= data.size(); ++n) {
    std::uint32_t state = rng();
    EXPECT_EQ(Crc32cSse42(state, data.data(), n), Crc32cTable(state, data.data(), n))
        << "length " << n;
  }
}
#endif

TEST_F(LogTest, AppendAssignsMonotonicLsns) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  EXPECT_LT(a, b);
  EXPECT_EQ(a, 1u);
}

TEST_F(LogTest, BackwardChainThreadsPerOwner) {
  TransactionId t1{1, 1}, t2{1, 2};
  Lsn a = log_.Append(ValueRec(t1, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t2, {1, 4, 4}, {0}, {2}));
  Lsn c = log_.Append(ValueRec(t1, {1, 8, 4}, {0}, {3}));
  EXPECT_EQ(log_.LastLsnOf(t1), c);
  EXPECT_EQ(log_.LastLsnOf(t2), b);
  auto rec_c = log_.ReadRecord(c);
  ASSERT_TRUE(rec_c.has_value());
  EXPECT_EQ(rec_c->prev_lsn, a);
  auto rec_a = log_.ReadRecord(a);
  ASSERT_TRUE(rec_a.has_value());
  EXPECT_EQ(rec_a->prev_lsn, kNullLsn);
}

TEST_F(LogTest, ReadsBufferedRecordsBeforeForce) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {9}, {1}));
  EXPECT_EQ(log_.durable_lsn(), kNullLsn);
  auto rec = log_.ReadRecord(a);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{1});
}

TEST_F(LogTest, ForceChargesStableWritesGrouped) {
  TransactionId t{1, 1};
  for (int i = 0; i < 5; ++i) {
    log_.Append(ValueRec(t, {1, static_cast<uint32_t>(i) * 4, 4}, {0}, {1}));
  }
  RunInTask([&] { log_.ForceAll(); });
  // Five small records group into a couple of log pages — far fewer than
  // five stable writes.
  double writes = substrate_.metrics().Total().Of(Primitive::kStableWrite);
  EXPECT_GE(writes, 1.0);
  EXPECT_LE(writes, 3.0);
}

TEST_F(LogTest, ForceIsIdempotent) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] {
    log_.Force(a);
    double first = substrate_.metrics().Total().Of(Primitive::kStableWrite);
    log_.Force(a);
    EXPECT_EQ(substrate_.metrics().Total().Of(Primitive::kStableWrite), first);
  });
}

TEST_F(LogTest, ForwardScanVisitsAllRecords) {
  TransactionId t{1, 1};
  std::vector<Lsn> appended;
  for (int i = 0; i < 4; ++i) {
    appended.push_back(log_.Append(ValueRec(t, {1, 0, 4}, {0}, {std::uint8_t(i)})));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::vector<Lsn> scanned;
  for (Lsn l = log_.first_lsn(); l != kNullLsn; l = log_.NextLsn(l)) {
    scanned.push_back(l);
  }
  EXPECT_EQ(scanned, appended);
}

TEST_F(LogTest, BackwardScanVisitsAllRecordsReversed) {
  TransactionId t{1, 1};
  std::vector<Lsn> appended;
  for (int i = 0; i < 4; ++i) {
    appended.push_back(log_.Append(ValueRec(t, {1, 0, 4}, {0}, {std::uint8_t(i)})));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::vector<Lsn> scanned;
  for (Lsn l = log_.LastDurableLsn(); l != kNullLsn; l = log_.PrevLsn(l)) {
    scanned.push_back(l);
  }
  std::reverse(scanned.begin(), scanned.end());
  EXPECT_EQ(scanned, appended);
}

TEST_F(LogTest, SurvivesReattachAfterCrash) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  RunInTask([&] { log_.Force(a); });  // forces the whole buffer (group force)

  // Crash: a fresh LogManager binds to the same stable device.
  LogManager after(substrate_, device_);
  EXPECT_EQ(after.LastDurableLsn(), b);
  auto rec = after.ReadRecord(b);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{2});
}

TEST_F(LogTest, UnforcedRecordsDieWithTheBuffer) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] { log_.Force(a); });
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));

  LogManager after(substrate_, device_);  // crash without forcing b
  EXPECT_EQ(after.LastDurableLsn(), a);
  EXPECT_FALSE(after.ReadRecord(b).has_value());
}

TEST_F(LogTest, SectorChecksumsTrackAppendsAndDetectCorruption) {
  TransactionId t{1, 1};
  // Enough records to span several 512-byte sectors.
  for (std::uint32_t i = 0; i < 30; ++i) {
    log_.Append(ValueRec(t, {1, i * 4, 4}, {0}, {static_cast<std::uint8_t>(i)}));
  }
  RunInTask([&] { log_.ForceAll(); });
  ASSERT_GE(device_.SectorCount(), 3u);
  for (std::uint64_t s = 0; s < device_.SectorCount(); ++s) {
    EXPECT_TRUE(device_.SectorValid(s)) << "sector " << s;
  }
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());

  device_.CorruptSector(1);
  EXPECT_FALSE(device_.SectorValid(1));
  EXPECT_TRUE(device_.SectorValid(0));
  EXPECT_EQ(device_.FirstInvalidByte(), StableLogDevice::kSectorBytes);
}

TEST_F(LogTest, SectorChecksumsSurviveAppendsThatSplitSectors) {
  // Appends of odd sizes start and end mid-sector, so each one extends the
  // partial last sector's checksum.
  for (std::size_t n = 1; device_.size() < 4 * StableLogDevice::kSectorBytes; n += 37) {
    device_.Append(Bytes(n, static_cast<std::uint8_t>(n)));
    ASSERT_EQ(device_.FirstInvalidByte(), device_.size()) << "after appending " << n;
  }
  device_.AppendTorn(Bytes(StableLogDevice::kSectorBytes, 0x3C), 1);
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
}

TEST_F(LogTest, CorruptPartialSectorStaysInvalidAcrossAppends) {
  device_.Append(Bytes(100, 0x11));
  device_.CorruptSector(0);
  // Later writes land in the same damaged sector; they must not launder it.
  device_.Append(Bytes(10, 0x22));
  device_.AppendTorn(Bytes(StableLogDevice::kSectorBytes, 0x33), 1);
  EXPECT_FALSE(device_.SectorValid(0));
  EXPECT_EQ(device_.FirstInvalidByte(), 0u);
}

TEST_F(LogTest, TornAppendKeepsOnlyDurableSectors) {
  Bytes big(3 * StableLogDevice::kSectorBytes, 0x7F);
  device_.AppendTorn(big, 1);
  EXPECT_EQ(device_.size(), StableLogDevice::kSectorBytes);
  // The surviving prefix is checksum-valid: a clean tear, not corruption.
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
}

TEST_F(LogTest, RebindTruncatesTornTailAndCountsIt) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t good_size = device_.size();

  // A torn force: half a frame lands past the durable prefix.
  Bytes fragment{9, 0, 0, 0, 1, 2, 3};  // claims 9 payload bytes, delivers 3
  device_.Append(fragment);

  LogManager after(substrate_, device_);  // crash + rebind validates the tail
  EXPECT_EQ(device_.size(), good_size);   // fragment cut, good prefix kept
  EXPECT_EQ(after.LastDurableLsn(), a);
  EXPECT_EQ(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().log_tail_bytes_truncated(), fragment.size());
}

TEST_F(LogTest, RebindTruncatesCorruptTailAtTheDamagedSector) {
  TransactionId t{1, 1};
  for (std::uint32_t i = 0; i < 30; ++i) {
    log_.Append(ValueRec(t, {1, i * 4, 4}, {0}, {static_cast<std::uint8_t>(i)}));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t last_sector = device_.SectorCount() - 1;
  ASSERT_GE(last_sector, 1u);
  device_.CorruptSector(last_sector);

  LogManager after(substrate_, device_);
  // Nothing at or past the damaged sector survives; everything below does.
  EXPECT_LE(device_.size(), last_sector * StableLogDevice::kSectorBytes);
  EXPECT_GE(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kCorruptSector), 1);
  Lsn durable = after.LastDurableLsn();
  ASSERT_NE(durable, kNullLsn);
  EXPECT_TRUE(after.ReadRecord(durable).has_value());
}

TEST_F(LogTest, TruncationReclaimsSpaceAndBlocksReads) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t before = log_.StableBytesInUse();
  device_.TruncateBefore(b - 1);
  EXPECT_LT(log_.StableBytesInUse(), before);
  EXPECT_FALSE(log_.ReadRecord(a).has_value());
  EXPECT_TRUE(log_.ReadRecord(b).has_value());
  EXPECT_EQ(log_.first_lsn(), b);
}

}  // namespace
}  // namespace tabs::log
