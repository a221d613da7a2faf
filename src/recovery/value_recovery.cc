// The value-logging crash-recovery algorithm: a single backward pass.
//
// "During recovery processing, objects are reset to their most recently
// committed values during a one pass scan that begins at the last log record
// written and proceeds backward." (Section 2.1.3.)
//
// The pass keeps a per-object open/closed set. Scanning backward:
//   * a record of a COMMITTED (or prepared/in-doubt) top-level transaction
//     supplies the object's final value (its after-image) and closes it;
//   * a record of a loser supplies its before-image and leaves the object
//     open, so earlier records keep unwinding it (the oldest before-image of
//     an uncommitted chain is the pre-transaction value).
// Compensation records participate with exactly the same rule, which makes
// a crash in the middle of an abort recover correctly: the compensations
// and the records they compensate cancel out in either outcome.
//
// Correctness relies on the value-logging restriction the paper states:
// "only one transaction at a time may modify any individually logged
// component of an object" — i.e. strict two-phase locking per object.

#include <unordered_set>

#include "src/recovery/recovery_manager.h"

namespace tabs::recovery {

using log::LogRecord;
using log::RecordType;

namespace {

// An object by the segment that holds it: the server's name need not be
// copied out of the log to key the closed set.
struct ObjectKey {
  const kernel::RecoverableSegment* segment;
  ObjectId oid;
  bool operator==(const ObjectKey&) const = default;
};

struct ObjectKeyHash {
  size_t operator()(const ObjectKey& k) const {
    return std::hash<const void*>()(k.segment) ^ std::hash<ObjectId>()(k.oid);
  }
};

}  // namespace

void RecoveryManager::RunValueBackwardPass(TxnOutcomeSource& outcomes, Lsn scan_low,
                                           RecoveryStats* stats,
                                           const std::string* only_server) {
  std::unordered_set<ObjectKey, ObjectKeyHash> closed;

  for (Lsn lsn = log_.LastDurableLsn(); lsn != kNullLsn && lsn >= scan_low;
       lsn = log_.PrevLsn(lsn)) {
    auto head = log_.ReadHeader(lsn);
    if (!head.has_value()) {
      break;  // reclaimed prefix
    }
    ++stats->records_scanned;
    if (!log::IsValueStyle(head->type)) {
      continue;
    }
    if (only_server != nullptr && head->server != *only_server) {
      continue;
    }
    kernel::RecoverableSegment* seg = SegmentOf(head->server);
    if (seg == nullptr) {
      continue;  // server not re-registered; its segment is not being recovered
    }
    ObjectKey key{seg, head->oid};
    if (closed.contains(key)) {
      continue;
    }
    auto rec = log_.ReadRecord(lsn);
    if (!rec.has_value()) {
      break;
    }
    TxnOutcome outcome = outcomes.OutcomeOf(rec->top);
    const Bytes* restore = nullptr;
    if (outcome == TxnOutcome::kCommitted || outcome == TxnOutcome::kPrepared) {
      // Winners and in-doubt transactions keep their after-images. (If an
      // in-doubt transaction is later told to abort, its records are still in
      // the log and the normal abort path unwinds them.)
      restore = &rec->new_value;
      closed.insert(key);
    } else {
      restore = &rec->old_value;
      // Leave open: an earlier record of the same loser chain may carry an
      // older before-image.
    }
    seg->Pin(rec->oid);
    seg->Write(rec->oid, *restore, lsn);
    seg->Unpin(rec->oid);
    ++stats->values_restored;
  }
}

}  // namespace tabs::recovery
