#include "src/lock/lock_manager.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tabs::lock {

LockManager::LockManager(sim::Scheduler& sched, CompatibilityMatrix matrix,
                         SimTime default_timeout)
    : sched_(sched), matrix_(std::move(matrix)), default_timeout_(default_timeout) {}

bool LockManager::CanGrant(const LockHead& head, const TransactionId& tid,
                           LockMode mode) const {
  for (const auto& holder : head.granted) {
    if (holder.key == tid) {
      continue;  // conversion: own locks never conflict with the request
    }
    for (ModeMask m = holder.value; m != 0; m &= m - 1) {
      LockMode held = static_cast<LockMode>(std::countr_zero(m));
      if (!matrix_.Compatible(mode, held)) {
        return false;
      }
    }
  }
  return true;
}

Status LockManager::Lock(const TransactionId& tid, const ObjectId& oid, LockMode mode,
                         SimTime timeout) {
  if (timeout == kUseDefault) {
    timeout = default_timeout_;
  }
  if (requester_veto_ && requester_veto_(tid)) {
    return Status::kAborted;  // the requester is mid-abort: refuse new locks
  }
  LockHead& head = heads_[oid];
  if (CanGrant(head, tid, mode) && !(grant_veto_ && grant_veto_(oid))) {
    Grant(head, tid, oid, mode);
    return Status::kOk;
  }
  auto waiter = std::make_shared<Waiter>();
  waiter->tid = tid;
  waiter->oid = oid;
  waiter->mode = mode;
  head.waiters.push_back(waiter);

  bool granted_flag = false;
  bool notified = sched_.Wait(waiter->queue, timeout);
  // Re-look-up: the head may have been erased/recreated while we slept.
  LockHead& head2 = heads_[oid];
  auto* held = head2.granted.Find(tid);
  granted_flag = held != nullptr && (held->value & ModeBit(mode)) != 0;

  if (granted_flag) {
    if (requester_veto_ && requester_veto_(tid)) {
      // Granted while a cascade abort consumed this transaction (the grant
      // sweep ran before this task resumed). The abort's ReleaseAll cleans
      // the grant up; proceeding would write after our own undo.
      return Status::kAborted;
    }
    return Status::kOk;  // granted, possibly racing a timeout
  }
  // Timed out or cancelled: withdraw the request.
  auto& w = head2.waiters;
  w.erase(std::remove(w.begin(), w.end(), waiter), w.end());
  if (head2.granted.empty() && head2.waiters.empty()) {
    heads_.Erase(oid);
  }
  if (waiter->cancelled) {
    return Status::kAborted;
  }
  (void)notified;
  return Status::kTimeout;
}

bool LockManager::ConditionalLock(const TransactionId& tid, const ObjectId& oid,
                                  LockMode mode) {
  LockHead& head = heads_[oid];
  if (!CanGrant(head, tid, mode) || (grant_veto_ && grant_veto_(oid))) {
    if (head.granted.empty() && head.waiters.empty()) {
      heads_.Erase(oid);
    }
    return false;
  }
  Grant(head, tid, oid, mode);
  return true;
}

bool LockManager::IsLocked(const ObjectId& oid) const {
  const auto* it = heads_.Find(oid);
  return it != nullptr && !it->value.granted.empty();
}

bool LockManager::Holds(const TransactionId& tid, const ObjectId& oid, LockMode mode) const {
  const auto* it = heads_.Find(oid);
  if (it == nullptr) {
    return false;
  }
  const auto* h = it->value.granted.Find(tid);
  return h != nullptr && (h->value & ModeBit(mode)) != 0;
}

void LockManager::Grant(LockHead& head, const TransactionId& tid, const ObjectId& oid,
                        LockMode mode) {
  ModeMask& modes = head.granted[tid];
  if (modes == 0) {
    held_[tid].push_back(oid);
  }
  modes |= ModeBit(mode);
  if (grant_sink_) {
    grant_sink_(tid, oid);
  }
}

void LockManager::GrantEligibleWaiters(LockHead& head) {
  // Strict FIFO: grant from the front until the first request that still
  // conflicts. This avoids starving writers behind a stream of readers.
  while (!head.waiters.empty()) {
    auto& w = head.waiters.front();
    if (grant_sink_ && w->cancelled) {
      // Queue mode: a waiter cancelled by a cascade abort must not be
      // granted before its task resumes — drop the request; the sleeping
      // task re-checks `cancelled` on wake and fails kAborted.
      head.waiters.erase(head.waiters.begin());
      continue;
    }
    if (!CanGrant(head, w->tid, w->mode)) {
      break;
    }
    if (grant_veto_ && grant_veto_(w->oid)) {
      break;  // a predecessor is mid-abort: stay parked until it settles
    }
    Grant(head, w->tid, w->oid, w->mode);
    sched_.NotifyOne(w->queue);
    head.waiters.erase(head.waiters.begin());
  }
}

void LockManager::GrantAllEligible() {
  // Same deterministic walk as ReleaseAll. Used after an abort settles: the
  // grant veto parked requests as waiters; with the veto lifted they become
  // eligible again.
  for (const ObjectId& oid : SortedOids()) {
    auto* it = heads_.Find(oid);
    if (it == nullptr) {
      continue;
    }
    GrantEligibleWaiters(it->value);
    if (it->value.granted.empty() && it->value.waiters.empty()) {
      heads_.Erase(oid);
    }
  }
}

std::vector<ObjectId> LockManager::SortedOids() const {
  std::vector<ObjectId> oids;
  oids.reserve(heads_.size());
  for (const auto& e : heads_) {
    oids.push_back(e.key);
  }
  std::sort(oids.begin(), oids.end());
  return oids;
}

std::vector<ObjectId> LockManager::LocksHeldBy(const TransactionId& tid) const {
  const auto* it = held_.Find(tid);
  if (it == nullptr) {
    return {};
  }
  std::vector<ObjectId> oids = it->value;
  std::sort(oids.begin(), oids.end());
  return oids;
}

void LockManager::ReleaseAll(const TransactionId& tid) {
  // Walk in ObjectId order: GrantEligibleWaiters wakes tasks, and the wake
  // sequence must not depend on grant or hash-table order.
  auto* it = held_.Find(tid);
  if (it == nullptr) {
    return;
  }
  std::vector<ObjectId> oids = std::move(it->value);
  held_.Erase(tid);
  std::sort(oids.begin(), oids.end());
  for (const ObjectId& oid : oids) {
    LockHead& head = heads_.Find(oid)->value;
    head.granted.Erase(tid);
    GrantEligibleWaiters(head);
    if (head.granted.empty() && head.waiters.empty()) {
      heads_.Erase(oid);
    }
  }
}

void LockManager::InheritToParent(const TransactionId& child, const TransactionId& parent) {
  // Pure re-keying: no wakes, no charges, and the final table state is the
  // same whatever order the heads are visited in.
  auto* it = held_.Find(child);
  if (it == nullptr) {
    return;
  }
  std::vector<ObjectId> oids = std::move(it->value);
  held_.Erase(child);
  for (const ObjectId& oid : oids) {
    auto& granted = heads_.Find(oid)->value.granted;
    ModeMask modes = granted.Find(child)->value;
    granted.Erase(child);
    ModeMask& inherited = granted[parent];
    if (inherited == 0) {
      held_[parent].push_back(oid);
    }
    inherited |= modes;
  }
}

std::vector<LockManager::WaitsForEdge> LockManager::WaitsFor() const {
  // Edge order feeds the deadlock detector's victim choice: keep it in
  // ObjectId order, independent of hashing.
  std::vector<WaitsForEdge> edges;
  for (const ObjectId& oid : SortedOids()) {
    const LockHead& head = heads_.Find(oid)->value;
    // Holder order is observable through the edge list too: walk holders in
    // TransactionId order, exactly as the old per-head std::map did.
    std::vector<std::pair<TransactionId, ModeMask>> holders;
    for (const auto& g : head.granted) {
      holders.emplace_back(g.key, g.value);
    }
    std::sort(holders.begin(), holders.end());
    for (const auto& w : head.waiters) {
      for (const auto& [holder, modes] : holders) {
        if (holder == w->tid) {
          continue;
        }
        bool conflicts = false;
        for (ModeMask m = modes; m != 0 && !conflicts; m &= m - 1) {
          conflicts = !matrix_.Compatible(
              w->mode, static_cast<LockMode>(std::countr_zero(m)));
        }
        if (conflicts) {
          edges.push_back({w->tid, holder, oid});
        }
      }
    }
  }
  return edges;
}

void LockManager::CancelWaits(const TransactionId& tid) {
  // NotifyOne order is observable: ObjectId order, as with ReleaseAll.
  for (const ObjectId& oid : SortedOids()) {
    for (auto& w : heads_.Find(oid)->value.waiters) {
      if (w->tid == tid && !w->queue.empty()) {
        w->cancelled = true;
        sched_.NotifyOne(w->queue);
      }
    }
  }
}

}  // namespace tabs::lock
