#include "src/log/log_record.h"

#include <cassert>
#include <cstring>

namespace tabs::log {

const char* RecordTypeName(RecordType t) {
  switch (t) {
    case RecordType::kValueUpdate:
      return "VALUE";
    case RecordType::kOperationUpdate:
      return "OPERATION";
    case RecordType::kCompensation:
      return "COMPENSATION";
    case RecordType::kOpCompensation:
      return "OP_COMPENSATION";
    case RecordType::kTxnPrepare:
      return "PREPARE";
    case RecordType::kTxnCommit:
      return "COMMIT";
    case RecordType::kTxnAbort:
      return "ABORT";
    case RecordType::kTxnEnd:
      return "END";
    case RecordType::kSubtxnCommit:
      return "SUBTXN_COMMIT";
    case RecordType::kCheckpoint:
      return "CHECKPOINT";
    case RecordType::kNodeEpoch:
      return "NODE_EPOCH";
    case RecordType::kPaxosPromise:
      return "PAXOS_PROMISE";
    case RecordType::kPaxosAccept:
      return "PAXOS_ACCEPT";
    case RecordType::kPaxosLearn:
      return "PAXOS_LEARN";
  }
  return "?";
}

namespace {

// A field of type T that a decode checks and steps over but does not keep.
template <typename T>
struct Skip {};

// Decodes fields, one call per field. A decode target's field types pick
// what is kept: owning types copy, views and Skip fields do not allocate.
class FieldReader {
 public:
  explicit FieldReader(std::span<const std::uint8_t> data) : r_(data) {}
  bool ok() const { return r_.ok(); }
  // Whether an optional tail follows: told by bytes remaining.
  template <typename Rec, typename Present>
  bool Follows(const Rec&, Present) const {
    return r_.ok() && r_.remaining() > 0;
  }

  void operator()(RecordType& t) { t = static_cast<RecordType>(r_.U8()); }
  void operator()(std::int8_t& v) { v = static_cast<std::int8_t>(r_.U8()); }
  void operator()(std::uint32_t& v) { v = r_.U32(); }
  void operator()(std::int32_t& v) { v = static_cast<std::int32_t>(r_.U32()); }
  void operator()(std::uint64_t& v) { v = r_.U64(); }
  void operator()(TransactionId& t) { t = r_.Tid(); }
  void operator()(ObjectId& o) { o = r_.Oid(); }
  void operator()(PageId& p) {
    (*this)(p.segment);
    (*this)(p.page);
  }
  void operator()(LogRecord::PaxosExtra& e) {
    (*this)(e.participant);
    (*this)(e.vote);
  }
  void operator()(std::string& s) { s = r_.Str(); }
  void operator()(std::string_view& s) { s = r_.StrView(); }
  void operator()(Bytes& b) { b = r_.Blob(); }
  template <typename T>
  void operator()(std::vector<T>& v) {
    std::uint32_t n = r_.U32();
    for (std::uint32_t i = 0; i < n && r_.ok(); ++i) {
      (*this)(v.emplace_back());
    }
  }

  template <typename T>
  void operator()(Skip<T>) {
    T v;
    (*this)(v);
  }
  void operator()(Skip<std::string>) { r_.BlobView(); }
  void operator()(Skip<Bytes>) { r_.BlobView(); }
  template <typename T>
  void operator()(Skip<std::vector<T>>) {
    std::uint32_t n = r_.U32();
    for (std::uint32_t i = 0; i < n && r_.ok(); ++i) {
      (*this)(Skip<T>{});
    }
  }

 private:
  ByteReader r_;
};

// Counts the bytes the fields take encoded, so that an encoding can size its
// buffer once.
class FieldSizer {
 public:
  std::size_t bytes() const { return bytes_; }
  template <typename Rec, typename Present>
  bool Follows(const Rec& rec, Present present) const {
    return present(rec);
  }

  void operator()(RecordType) { bytes_ += 1; }
  void operator()(std::int8_t) { bytes_ += 1; }
  void operator()(std::uint32_t) { bytes_ += 4; }
  void operator()(std::int32_t) { bytes_ += 4; }
  void operator()(std::uint64_t) { bytes_ += 8; }
  void operator()(const TransactionId&) { bytes_ += 12; }
  void operator()(const ObjectId&) { bytes_ += 12; }
  void operator()(const PageId&) { bytes_ += 8; }
  void operator()(const LogRecord::PaxosExtra&) { bytes_ += 5; }
  void operator()(const std::string& s) { bytes_ += 4 + s.size(); }
  void operator()(const Bytes& b) { bytes_ += 4 + b.size(); }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    bytes_ += 4;
    for (const T& e : v) {
      (*this)(e);
    }
  }

 private:
  std::size_t bytes_ = 0;
};

// Encodes fields, one call per field, into a buffer FieldSizer sized.
class FieldWriter {
 public:
  explicit FieldWriter(std::uint8_t* out) : out_(out) {}
  const std::uint8_t* end() const { return out_; }
  // Whether an optional tail follows: told by the record's fields.
  template <typename Rec, typename Present>
  bool Follows(const Rec& rec, Present present) const {
    return present(rec);
  }

  void operator()(RecordType t) { Put(static_cast<std::uint8_t>(t)); }
  void operator()(std::int8_t v) { Put(v); }
  void operator()(std::uint32_t v) { Put(v); }
  void operator()(std::int32_t v) { Put(v); }
  void operator()(std::uint64_t v) { Put(v); }
  void operator()(const TransactionId& t) {
    Put(t.node);
    Put(t.sequence);
  }
  void operator()(const ObjectId& o) {
    Put(o.segment);
    Put(o.offset);
    Put(o.length);
  }
  void operator()(const PageId& p) {
    Put(p.segment);
    Put(p.page);
  }
  void operator()(const LogRecord::PaxosExtra& e) {
    Put(e.participant);
    Put(e.vote);
  }
  void operator()(const std::string& s) { PutBytes(s.data(), s.size()); }
  void operator()(const Bytes& b) { PutBytes(b.data(), b.size()); }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    Put(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) {
      (*this)(e);
    }
  }

 private:
  template <typename T>
  void Put(T v) {
    std::memcpy(out_, &v, sizeof v);
    out_ += sizeof v;
  }
  void PutBytes(const void* data, std::size_t n) {
    Put(static_cast<std::uint32_t>(n));
    if (n != 0) {  // an empty vector's data() may be null, which memcpy forbids
      std::memcpy(out_, data, n);
      out_ += n;
    }
  }

  std::uint8_t* out_;
};

// The record layout, stated once: encoding, full decode, header read and
// validity check all walk these two functions. The header is a prefix of
// every encoding, so a header read stops after WalkHeader.
template <typename IO, typename Rec>
void WalkHeader(IO& io, Rec& rec) {
  io(rec.type);
  io(rec.owner);
  io(rec.top);
  io(rec.prev_lsn);
  io(rec.undo_next_lsn);
  io(rec.server);
  io(rec.oid);
}

template <typename IO, typename Rec>
void WalkBody(IO& io, Rec& rec) {
  io(rec.old_value);
  io(rec.new_value);
  io(rec.op_name);
  io(rec.redo_args);
  io(rec.undo_op_name);
  io(rec.undo_args);
  io(rec.pages);
  io(rec.parent_node);
  io(rec.children);
  io(rec.siblings);
  io(rec.local_servers);
  io(rec.parent_tid);
  io(rec.checkpoint_data);
  // Optional Paxos tail: present iff any Paxos field is non-default, told on
  // read by bytes remaining. Records the default commit mode writes carry no
  // tail and keep their exact historical layout.
  if (!io.Follows(rec, [](const auto& r) {
        return !r.acceptors.empty() || r.paxos_participant != kInvalidNode ||
               r.paxos_ballot != 0 || r.paxos_vote != 0 || !r.paxos_extra.empty();
      })) {
    return;
  }
  io(rec.acceptors);
  io(rec.paxos_participant);
  io(rec.paxos_ballot);
  io(rec.paxos_vote);
  // Second optional sub-tail: the extra instances of a batched accept, told
  // the same way, so single-instance records stay byte-identical.
  if (!io.Follows(rec, [](const auto& r) { return !r.paxos_extra.empty(); })) {
    return;
  }
  io(rec.paxos_extra);
}

// The validity check's decode target: header fields (which read without
// allocating) and every body field skipped.
struct CheckedRecord : RecordHeader {
  Skip<Bytes> old_value;
  Skip<Bytes> new_value;
  Skip<std::string> op_name;
  Skip<Bytes> redo_args;
  Skip<std::string> undo_op_name;
  Skip<Bytes> undo_args;
  Skip<std::vector<PageId>> pages;
  Skip<NodeId> parent_node;
  Skip<std::vector<NodeId>> children;
  Skip<std::vector<NodeId>> siblings;
  Skip<std::vector<std::string>> local_servers;
  Skip<TransactionId> parent_tid;
  Skip<Bytes> checkpoint_data;
  Skip<std::vector<NodeId>> acceptors;
  Skip<NodeId> paxos_participant;
  Skip<std::int32_t> paxos_ballot;
  Skip<std::int8_t> paxos_vote;
  Skip<std::vector<LogRecord::PaxosExtra>> paxos_extra;
};

}  // namespace

void LogRecord::SerializeTo(Bytes& out) const {
  FieldSizer size;
  WalkHeader(size, *this);
  WalkBody(size, *this);
  const std::size_t at = out.size();
  out.resize(at + size.bytes());
  FieldWriter io(out.data() + at);
  WalkHeader(io, *this);
  WalkBody(io, *this);
  assert(io.end() == out.data() + out.size() && "FieldSizer and FieldWriter disagree");
}

Bytes LogRecord::Serialize() const {
  Bytes out;
  SerializeTo(out);
  return out;
}

std::optional<LogRecord> LogRecord::Deserialize(std::span<const std::uint8_t> data) {
  FieldReader io(data);
  LogRecord rec;
  WalkHeader(io, rec);
  WalkBody(io, rec);
  if (!io.ok()) {
    return std::nullopt;
  }
  return rec;
}

std::optional<RecordHeader> LogRecord::ReadHeader(std::span<const std::uint8_t> data) {
  FieldReader io(data);
  RecordHeader header;
  WalkHeader(io, header);
  if (!io.ok()) {
    return std::nullopt;
  }
  return header;
}

bool LogRecord::WellFormed(std::span<const std::uint8_t> data) {
  FieldReader io(data);
  CheckedRecord rec;
  WalkHeader(io, rec);
  WalkBody(io, rec);
  return io.ok();
}

}  // namespace tabs::log
