#include "src/log/log_manager.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "src/sim/fault_injector.h"

namespace tabs::log {

namespace {

constexpr std::uint64_t kFrameOverhead = 8;  // leading + trailing u32 lengths

// A sector's sum starts from the standard CRC32C initial state. Sums are
// stored raw (never inverted), so they stream: a partial sector's sum is the
// state after its bytes so far, and appending folds in only the new bytes.
constexpr std::uint32_t kCrcInit = 0xFFFFFFFFu;

constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ ((c & 1) != 0 ? 0x82F63B78u : 0);  // reflected Castagnoli
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*, std::size_t);

// The sector sums' CRC32C, picked once: the SSE4.2 instruction where the CPU
// has it, else the table.
std::uint32_t Crc32c(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  static const Crc32cFn fn = []() -> Crc32cFn {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
      return &Crc32cSse42;
    }
#endif
    return &Crc32cTable;
  }();
  return fn(crc, data, n);
}

std::uint32_t ReadU32(std::span<const std::uint8_t> s) {
  std::uint32_t v;
  assert(s.size() >= sizeof v);
  std::memcpy(&v, s.data(), sizeof v);
  return v;
}

}  // namespace

std::uint32_t Crc32cTable(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  for (const std::uint8_t* end = data + n; data != end; ++data) {
    crc = kCrc32cTable[(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(std::uint32_t crc,
                                                            const std::uint8_t* data,
                                                            std::size_t n) {
  std::uint64_t wide = crc;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof word);
    wide = _mm_crc32_u64(wide, word);
  }
  auto narrow = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++data, --n) {
    narrow = _mm_crc32_u8(narrow, *data);
  }
  return narrow;
}
#endif

std::span<const std::uint8_t> StableLogDevice::Read(std::uint64_t offset,
                                                    std::uint64_t length) const {
  if (offset < truncated_prefix_ || offset + length > size_) {
    return {};
  }
  return {data_.get() + offset, length};
}

void StableLogDevice::Resize(std::uint64_t n) {
  if (n > capacity_) {
    std::uint64_t capacity = std::max({n, 2 * capacity_, kSectorBytes});
    void* grown = std::realloc(data_.release(), capacity);
    if (grown == nullptr) {
      std::fputs("tabs::log::StableLogDevice: out of memory\n", stderr);
      std::abort();
    }
    data_.reset(static_cast<std::uint8_t*>(grown));
    capacity_ = capacity;
  }
  size_ = n;
}

std::uint32_t StableLogDevice::ComputeSum(std::uint64_t sector) const {
  // CRC32C over the sector's valid byte range (the final sector may be
  // partial; its checksum covers only the bytes written so far).
  std::uint64_t begin = sector * kSectorBytes;
  std::uint64_t end = std::min(begin + kSectorBytes, size_);
  return Crc32c(kCrcInit, data_.get() + begin, end - begin);
}

void StableLogDevice::ResyncSums(std::uint64_t begin, std::uint64_t end) {
  if (size_ == 0) {
    sums_.clear();
    return;
  }
  sums_.resize((size_ + kSectorBytes - 1) / kSectorBytes);
  std::uint64_t first = begin / kSectorBytes;
  std::uint64_t last = end == 0 ? 0 : (end - 1) / kSectorBytes;
  for (std::uint64_t s = first; s <= last && s < sums_.size(); ++s) {
    sums_[s] = ComputeSum(s);
  }
}

void StableLogDevice::ExtendSums(std::uint64_t begin) {
  sums_.resize((size_ + kSectorBytes - 1) / kSectorBytes);
  const std::uint8_t* bytes = data_.get();
  for (std::uint64_t i = begin; i < size_;) {
    std::uint64_t s = i / kSectorBytes;
    std::uint64_t end = std::min((s + 1) * kSectorBytes, size_);
    // A partial sector's stored sum is the raw CRC state of its bytes so
    // far. Folding the new bytes into it, rather than rehashing the sector,
    // also keeps a sum that CorruptSector left stale stale: folding fixed
    // bytes into a CRC state is a bijection, so two states that differ
    // still differ afterwards.
    std::uint32_t h = i % kSectorBytes == 0 ? kCrcInit : sums_[s];
    sums_[s] = Crc32c(h, bytes + i, end - i);
    i = end;
  }
}

void StableLogDevice::Append(const Bytes& bytes) {
  std::uint64_t begin = size_;
  Resize(begin + bytes.size());
  std::copy(bytes.begin(), bytes.end(), data_.get() + begin);
  ExtendSums(begin);
}

void StableLogDevice::AppendTorn(const Bytes& bytes, int durable_sectors) {
  assert(durable_sectors >= 0);
  std::uint64_t begin = size_;
  std::uint64_t first_sector = begin / kSectorBytes;
  // Only the bytes landing in the first `durable_sectors` sectors touched by
  // this write survive; everything past that sector boundary is lost.
  std::uint64_t keep_limit = (first_sector + static_cast<std::uint64_t>(durable_sectors)) *
                             kSectorBytes;
  std::uint64_t keep = keep_limit <= begin ? 0 : std::min<std::uint64_t>(bytes.size(),
                                                                         keep_limit - begin);
  Resize(begin + keep);
  std::copy(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep), data_.get() + begin);
  ExtendSums(begin);
}

void StableLogDevice::CorruptSector(std::uint64_t sector) {
  std::uint64_t begin = sector * kSectorBytes;
  std::uint64_t end = std::min(begin + kSectorBytes, size_);
  assert(begin < size_ && "corrupting a sector that does not exist");
  std::uint8_t* bytes = data_.get();
  for (std::uint64_t i = begin; i < end; ++i) {
    bytes[i] = static_cast<std::uint8_t>((bytes[i] ^ 0xA5u) + 1);
  }
  // Deliberately no ResyncSums: the stored checksum is now stale, which is
  // exactly how recovery detects the damage.
}

bool StableLogDevice::SectorValid(std::uint64_t sector) const {
  assert(sector < sums_.size());
  return ComputeSum(sector) == sums_[sector];
}

std::uint64_t StableLogDevice::FirstInvalidByte() const {
  std::uint64_t first_sector = truncated_prefix_ / kSectorBytes;
  for (std::uint64_t s = first_sector; s < sums_.size(); ++s) {
    if (!SectorValid(s)) {
      return s * kSectorBytes;
    }
  }
  return size_;
}

void StableLogDevice::TruncateBefore(std::uint64_t offset) {
  if (offset <= truncated_prefix_) {
    return;
  }
  assert(offset <= size_);
  std::fill(data_.get() + truncated_prefix_, data_.get() + offset, std::uint8_t{0});
  std::uint64_t old_prefix = truncated_prefix_;
  truncated_prefix_ = offset;
  ResyncSums(old_prefix, offset);
}

void StableLogDevice::TruncateAfter(std::uint64_t offset) {
  assert(offset >= truncated_prefix_ && offset <= size_);
  Resize(offset);
  sums_.resize(size_ == 0 ? 0 : (size_ + kSectorBytes - 1) / kSectorBytes);
  if (size_ != 0) {
    // The cut may leave a partial final sector: its checksum now covers a
    // shorter valid range.
    ResyncSums(size_ - 1, size_);
  }
}

LogManager::LogManager(sim::Substrate& substrate, StableLogDevice& device)
    : substrate_(substrate), device_(device) {
  // Rebinding to a device that already holds log data (recovery after a
  // crash): validate the stable tail first — a torn force or a corrupt
  // sector must be cut off before anything trusts LastDurableLsn, whose
  // trailer read would otherwise decode garbage. Then the volatile buffer
  // starts empty at the (possibly shortened) stable frontier.
  ValidateStableTail();
  next_lsn_ = device_.size() + 1;
  buffer_start_ = next_lsn_;
  durable_lsn_ = LastDurableLsn();
  last_record_lsn_ = durable_lsn_;
}

void LogManager::ValidateStableTail() {
  std::uint64_t end = device_.size();
  std::uint64_t off = device_.truncated_prefix();
  if (off >= end) {
    return;
  }
  // Bytes at/after the first checksum-failing sector are suspect: a frame is
  // only trusted if it lies entirely below that limit AND its framing is
  // intact AND its payload is well formed. The walk stops at the first record
  // that fails any test; everything from there on is the torn/corrupt tail.
  std::uint64_t trusted_limit = device_.FirstInvalidByte();
  if (trusted_limit < end) {
    // A checksum-failing sector is medium damage (a clean torn tail leaves
    // every durable sector's checksum valid). Counted here, at detection:
    // the device itself has no metrics channel.
    substrate_.metrics().CountFault(sim::FaultKind::kCorruptSector);
  }
  std::uint64_t good = off;
  while (off + kFrameOverhead <= trusted_limit) {
    std::uint32_t len = ReadU32(device_.Read(off, 4));
    std::uint64_t frame_end = off + kFrameOverhead + len;
    if (frame_end > trusted_limit) {
      break;  // frame runs into lost or corrupt sectors: torn tail
    }
    if (ReadU32(device_.Read(off + 4 + len, 4)) != len) {
      break;  // trailer mismatch: the tail of the frame never landed
    }
    if (!LogRecord::WellFormed(device_.Read(off + 4, len))) {
      break;  // framing looks plausible but the payload is garbage
    }
    off = frame_end;
    good = off;
  }
  if (good < end) {
    device_.TruncateAfter(good);
    substrate_.metrics().CountLogTailTruncation(end - good);
  }
}

Lsn LogManager::Append(LogRecord rec) {
  const Lsn lsn = next_lsn_;
  rec.prev_lsn = kNullLsn;
  if (!rec.owner.IsNull()) {
    Lsn& chain = chains_[rec.owner];
    rec.prev_lsn = chain;
    chain = lsn;
  }
  rec.lsn = lsn;
  // Frame the record in place: reserve the length, encode straight into the
  // buffer, then patch the length and repeat it as the trailer.
  const std::size_t start = buffer_.size();
  buffer_.resize(start + 4);
  rec.SerializeTo(buffer_);
  const auto len = static_cast<std::uint32_t>(buffer_.size() - start - 4);
  buffer_.resize(buffer_.size() + 4);
  std::memcpy(buffer_.data() + start, &len, sizeof len);
  std::memcpy(buffer_.data() + buffer_.size() - 4, &len, sizeof len);
  next_lsn_ += buffer_.size() - start;
  last_record_lsn_ = lsn;
  return lsn;
}

void LogManager::Force(Lsn upto) {
  if (upto == kNullLsn || upto < buffer_start_ || buffer_.empty()) {
    return;
  }
  sim::Scheduler& sched = substrate_.scheduler();
  bool in_task = sched.in_task();
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kLog, "log.force");
  // The log device is one spindle: a force that arrives while an earlier
  // force's write is still spinning queues behind it in virtual time. (A
  // single sequential task never queues — its clock is already past the
  // previous write's completion.)
  if (in_task) {
    sched.AdvanceTo(device_busy_until_);
  }
  FAULT_POINT(substrate_, "log.force.before_write");
  // The buffer is forced as a unit (group force): TABS spools records and
  // writes them together, so one commit typically costs one stable write.
  std::uint64_t bytes = buffer_.size();
  auto pages = static_cast<double>((bytes + kPageSize - 1) / kPageSize);
  if (in_task && substrate_.faults() != nullptr) {
    int durable_sectors = substrate_.faults()->TakeTornLogForce();
    if (durable_sectors >= 0) {
      // Power fails mid-force: a prefix of the write's sectors reaches the
      // platter, the tail is lost, and the node dies with its volatile
      // buffer. Recovery's tail validation finds and cuts the damage.
      substrate_.Charge(sim::Primitive::kStableWrite, pages);
      device_.AppendTorn(buffer_, durable_sectors);
      substrate_.metrics().CountFault(sim::FaultKind::kTornLogWrite);
      substrate_.faults()->CrashCurrentNode(substrate_, "log.force.torn");
      return;  // reached only when no crash handler is wired (unit tests)
    }
  }
  substrate_.Charge(sim::Primitive::kStableWrite, pages);
  device_.Append(buffer_);
  buffer_.clear();
  buffer_start_ = next_lsn_;
  durable_lsn_ = LastDurableLsn();
  substrate_.metrics().CountForceIssued();
  FAULT_POINT(substrate_, "log.force.after_write");
  // A force is an I/O wait performed by the Recovery Manager process: other
  // processes (and server coroutines) run while the disk spins (Section
  // 2.1.1's wait-driven switching). Page faults, by contrast, suspend the
  // whole server and do NOT yield.
  if (in_task) {
    device_busy_until_ = sched.Now();
    // Wake everything waiting on the durable frontier (group-commit batch
    // members, or a bystander absorbed by a checkpoint's force). Woken
    // tasks re-check their LSN and re-wait if this write missed them.
    sched.NotifyAll(durable_waiters_);
    sched.Yield();
  }
}

void LogManager::WaitDurable(Lsn lsn) {
  sim::Scheduler& sched = substrate_.scheduler();
  assert(sched.in_task() && "WaitDurable outside a task");
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kLog, "log.wait-durable");
  while (durable_lsn_ < lsn) {
    sched.Wait(durable_waiters_);
  }
}

std::span<const std::uint8_t> LogManager::RecordBytes(Lsn lsn) const {
  if (lsn == kNullLsn || lsn <= device_.truncated_prefix() || lsn >= next_lsn_) {
    return {};
  }
  if (lsn >= buffer_start_) {
    // Still in the volatile buffer.
    std::uint64_t off = lsn - buffer_start_;
    if (off + 4 > buffer_.size()) {
      return {};
    }
    std::uint32_t len = ReadU32({buffer_.data() + off, 4});
    if (off + 4 + len > buffer_.size()) {
      return {};
    }
    return {buffer_.data() + off + 4, len};
  }
  std::uint64_t offset = lsn - 1;
  auto head = device_.Read(offset, 4);
  if (head.empty()) {
    return {};
  }
  return device_.Read(offset + 4, ReadU32(head));
}

std::optional<LogRecord> LogManager::ReadRecord(Lsn lsn) const {
  auto rec = LogRecord::Deserialize(RecordBytes(lsn));
  if (rec) {
    rec->lsn = lsn;
  }
  return rec;
}

std::optional<RecordHeader> LogManager::ReadHeader(Lsn lsn) const {
  return LogRecord::ReadHeader(RecordBytes(lsn));
}

Lsn LogManager::NextLsn(Lsn lsn) const {
  if (lsn == kNullLsn) {
    return kNullLsn;
  }
  std::uint64_t offset = lsn - 1;
  auto head = device_.Read(offset, 4);
  if (head.empty()) {
    return kNullLsn;
  }
  std::uint64_t next = offset + kFrameOverhead + ReadU32(head);
  return next >= device_.size() ? kNullLsn : next + 1;
}

Lsn LogManager::LastDurableLsn() const {
  std::uint64_t size = device_.size();
  if (size <= device_.truncated_prefix()) {
    return kNullLsn;
  }
  auto trailer = device_.Read(size - 4, 4);
  if (trailer.empty()) {
    return kNullLsn;
  }
  std::uint32_t len = ReadU32(trailer);
  return size - kFrameOverhead - len + 1;
}

Lsn LogManager::PrevLsn(Lsn lsn) const {
  if (lsn == kNullLsn) {
    return kNullLsn;
  }
  std::uint64_t offset = lsn - 1;
  if (offset < kFrameOverhead || offset - 4 < device_.truncated_prefix()) {
    return kNullLsn;
  }
  auto trailer = device_.Read(offset - 4, 4);
  if (trailer.empty()) {
    return kNullLsn;
  }
  std::uint32_t len = ReadU32(trailer);
  if (offset < kFrameOverhead + len) {
    return kNullLsn;
  }
  std::uint64_t prev = offset - kFrameOverhead - len;
  return prev < device_.truncated_prefix() ? kNullLsn : prev + 1;
}

Lsn LogManager::LastLsnOf(const TransactionId& owner) const {
  auto it = chains_.find(owner);
  return it == chains_.end() ? kNullLsn : it->second;
}

}  // namespace tabs::log
