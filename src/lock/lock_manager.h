// The per-data-server lock manager.
//
// Each TABS data server implements locking locally so it can tailor the
// mechanism (Section 2.1.2); one LockManager instance therefore belongs to
// one server. Deadlock is broken by time-outs explicitly set by system users,
// as in the paper (an optional waits-for-graph detector lives in
// deadlock_detector.h as the R*-style extension the paper cites).
//
// Lock acquisition follows strict two-phase locking: locks accumulate during
// a transaction and are released only at commit or abort by the server
// library (ReleaseAll). When a subtransaction commits, its locks are
// inherited by its parent (InheritToParent) — with respect to
// synchronization, a subtransaction behaves as a completely separate
// transaction until then (Section 2.1.3).

#ifndef TABS_LOCK_LOCK_MANAGER_H_
#define TABS_LOCK_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/flat_hash.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/lock/lock_mode.h"
#include "src/sim/scheduler.h"

namespace tabs::lock {

class LockManager {
 public:
  // `default_timeout` applies when Lock() is called without an explicit
  // timeout; pass kNoTimeout to wait forever (tests only — production
  // servers always configure a timeout).
  static constexpr SimTime kNoTimeout = -1;
  static constexpr SimTime kUseDefault = -2;

  LockManager(sim::Scheduler& sched, CompatibilityMatrix matrix, SimTime default_timeout);

  // Blocks the calling task until the lock is granted or the timeout
  // expires. Re-requests by a holder are granted immediately when the new
  // mode is compatible with every *other* holder (lock conversion).
  Status Lock(const TransactionId& tid, const ObjectId& oid, LockMode mode,
              SimTime timeout = kUseDefault);

  // ConditionallyLockObject: acquires if immediately available, else returns
  // false without waiting (Table 3-1).
  bool ConditionalLock(const TransactionId& tid, const ObjectId& oid, LockMode mode);

  // IsObjectLocked: true iff any transaction holds a lock on `oid`. The weak
  // queue and IO servers use this to observe transaction state (Section 4).
  bool IsLocked(const ObjectId& oid) const;

  // True iff `tid` holds a lock on `oid` in exactly/at least `mode`.
  bool Holds(const TransactionId& tid, const ObjectId& oid, LockMode mode) const;

  // Releases every lock held by `tid` and wakes eligible waiters.
  void ReleaseAll(const TransactionId& tid);

  // Subtransaction commit: re-owns every lock of `child` to `parent`.
  void InheritToParent(const TransactionId& child, const TransactionId& parent);

  // The objects `tid` holds a lock on, in ObjectId order.
  std::vector<ObjectId> LocksHeldBy(const TransactionId& tid) const;
  size_t LockedObjectCount() const { return heads_.size(); }

  // Waits-for edges (waiter -> holder) for the deadlock detector.
  struct WaitsForEdge {
    TransactionId waiter;
    TransactionId holder;
    ObjectId object;
  };
  std::vector<WaitsForEdge> WaitsFor() const;

  // Forcibly wakes any waiter belonging to `tid` with a timeout-style
  // failure; used by the deadlock detector to sacrifice a victim.
  void CancelWaits(const TransactionId& tid);

  // Queue-oriented execution hooks (src/txn/op_queue.h). The grant sink is
  // invoked on every successful grant — including conversions and waiter
  // wake-ups — so the operation queue can record a commit dependency on any
  // early-releaser whose lock covered `oid`. The grant veto is consulted
  // before any grant; while it returns true for an object (a predecessor is
  // mid-abort), requests on that object park as waiters instead of being
  // granted into the abort's undo window. Both default to absent, which
  // keeps every existing code path byte-identical.
  using GrantSink = std::function<void(const TransactionId&, const ObjectId&)>;
  using GrantVeto = std::function<bool(const ObjectId&)>;
  void SetGrantSink(GrantSink sink) { grant_sink_ = std::move(sink); }
  void SetGrantVeto(GrantVeto veto) { grant_veto_ = std::move(veto); }

  // Consulted with the *requesting* transaction on lock entry and again when
  // a sleeping waiter is woken with its lock granted. Returns true while the
  // requester itself is being (cascade-)aborted: the request fails kAborted
  // instead of handing a zombie task a lock it would use to write after its
  // own undo already ran. Queue mode only; absent otherwise.
  using RequesterVeto = std::function<bool(const TransactionId&)>;
  void SetRequesterVeto(RequesterVeto veto) { requester_veto_ = std::move(veto); }

  // Re-runs the FIFO grant sweep on every object. Called after an abort
  // settles (veto lifted) to grant waiters that were parked by the veto.
  void GrantAllEligible();

 private:
  struct Waiter {
    TransactionId tid;
    ObjectId oid;
    LockMode mode;
    bool cancelled = false;
    sim::WaitQueue queue;  // exactly one task waits here
  };
  // The modes one holder has on one object, as a bitmask indexed by
  // LockMode. A compatibility matrix never has anywhere near 64 modes, so
  // the whole per-holder std::set<LockMode> collapses into one word.
  using ModeMask = std::uint64_t;
  static ModeMask ModeBit(LockMode m) { return ModeMask{1} << m; }
  struct LockHead {
    // Modes held, per transaction (a holder may hold several modes).
    // Iteration order is unspecified: WaitsFor() sorts holders itself.
    FlatHashMap<TransactionId, ModeMask> granted;
    std::vector<std::shared_ptr<Waiter>> waiters;  // FIFO
  };

  bool CanGrant(const LockHead& head, const TransactionId& tid, LockMode mode) const;
  // Adds `mode` to `tid`'s modes on `oid` (whose head is `head`), recording
  // `oid` in held_ when it is `tid`'s first mode there, and reports the
  // grant to the sink. Every grant goes through here.
  void Grant(LockHead& head, const TransactionId& tid, const ObjectId& oid, LockMode mode);
  void GrantEligibleWaiters(LockHead& head);
  // The object table's keys in ObjectId order. Everywhere iteration order is
  // observable (waiter wake order, waits-for edge order) we walk this sorted
  // view, which is exactly the order the table had when it was a std::map —
  // so scheduling stays bit-identical while the hot per-operation lookups
  // (Lock, ConditionalLock, IsLocked, Holds) drop from O(log n) to O(1).
  std::vector<ObjectId> SortedOids() const;

  sim::Scheduler& sched_;
  CompatibilityMatrix matrix_;
  SimTime default_timeout_;
  // Open-addressing on both levels of the lookup path: object -> head here,
  // holder -> modes inside each head. References into this table do not
  // survive insertions (see flat_hash.h), so no LockHead& is held across a
  // heads_[...] call; the post-Wait re-lookup in Lock() already existed for
  // the same reason.
  FlatHashMap<ObjectId, LockHead> heads_;
  // Per holder, the objects it has a non-zero mode mask on, in grant order.
  // heads_ never shrinks, so ReleaseAll, InheritToParent and LocksHeldBy
  // walk this list instead of the whole table: a commit costs its own locks,
  // not the table's peak size.
  FlatHashMap<TransactionId, std::vector<ObjectId>> held_;
  GrantSink grant_sink_;
  GrantVeto grant_veto_;
  RequesterVeto requester_veto_;
};

}  // namespace tabs::lock

#endif  // TABS_LOCK_LOCK_MANAGER_H_
