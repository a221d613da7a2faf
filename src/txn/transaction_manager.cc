#include "src/txn/transaction_manager.h"

#include <algorithm>
#include <cassert>

#include "src/log/group_commit.h"
#include "src/sim/fault_injector.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

TransactionManager::TransactionManager(kernel::Node& node, recovery::RecoveryManager& rm,
                                       comm::CommManager& cm)
    : node_(node), rm_(rm), cm_(cm), paxos_(std::make_unique<PaxosCommit>(*this)) {
  cm_.SetListener(this);
}

// Out of line so the unique_ptr<PaxosCommit> destructor sees a complete type.
TransactionManager::~TransactionManager() = default;

TransactionManager::Txn* TransactionManager::Find(const TransactionId& tid) {
  auto it = txns_.find(tid);
  return it == txns_.end() ? nullptr : &it->second;
}

const TransactionManager::Txn* TransactionManager::Find(const TransactionId& tid) const {
  auto it = txns_.find(tid);
  return it == txns_.end() ? nullptr : &it->second;
}

TransactionId TransactionManager::Begin(const TransactionId& parent) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kTransactionManager,
                      "txn.begin");
  // Application -> TM request and reply (two small local messages).
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  TransactionId tid{node_.id(), (incarnation_ << kIncarnationShift) | next_sequence_++};
  Txn txn;
  txn.tid = tid;
  txn.parent = parent;
  if (parent.IsNull()) {
    txn.top = tid;
  } else {
    Txn* p = Find(parent);
    assert(p != nullptr && "BeginTransaction with unknown parent");
    txn.top = p->top;
    p->live_subtxns.insert(tid);
  }
  txns_[tid] = std::move(txn);
  return tid;
}

TransactionManager::Txn& TransactionManager::GetOrCreateRemote(const TransactionId& tid,
                                                               NodeId parent_node) {
  Txn* existing = Find(tid);
  if (existing != nullptr) {
    return *existing;
  }
  Txn txn;
  txn.tid = tid;
  txn.top = tid;  // remote entries are tracked under the identifier used on the wire
  txn.parent_node = parent_node;
  txn.born_here = false;
  auto [it, inserted] = txns_.emplace(tid, std::move(txn));
  return it->second;
}

void TransactionManager::JoinServer(const TransactionId& tid, const TransactionId& top,
                                    CommitParticipant* server) {
  Txn* txn = Find(tid);
  if (txn == nullptr) {
    txn = Find(top);
  }
  assert(txn != nullptr && "operation on behalf of unknown transaction");
  if (std::find(txn->servers.begin(), txn->servers.end(), server) != txn->servers.end()) {
    return;
  }
  // "...sent by a data server the first time it is asked to perform an
  // operation on behalf of a particular transaction" — plus the TM's ack.
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  txn->servers.push_back(server);
}

std::vector<TransactionId> TransactionManager::TransactionsInvolving(
    const CommitParticipant* server) const {
  std::vector<TransactionId> out;
  for (const auto& [tid, txn] : txns_) {
    if (std::find(txn.servers.begin(), txn.servers.end(), server) != txn.servers.end()) {
      out.push_back(tid);
    }
  }
  return out;
}

void TransactionManager::DetachParticipant(const CommitParticipant* server) {
  for (auto& [tid, txn] : txns_) {
    auto& s = txn.servers;
    s.erase(std::remove(s.begin(), s.end(), server), s.end());
  }
}

void TransactionManager::OnRemoteChildJoined(const TransactionId& tid, NodeId child) {
  // The CM already charged the progress message; nothing further here.
}

void TransactionManager::OnRemoteParentObserved(const TransactionId& tid, NodeId parent) {
  GetOrCreateRemote(tid, parent);
}

TxnState TransactionManager::StateOf(const TransactionId& tid) const {
  const Txn* txn = Find(tid);
  if (txn != nullptr) {
    return txn->state;
  }
  auto it = logged_outcomes_.find(tid);
  if (it != logged_outcomes_.end()) {
    switch (it->second) {
      case TxnOutcome::kCommitted:
        return TxnState::kCommitted;
      case TxnOutcome::kPrepared:
        return TxnState::kPrepared;
      default:
        return TxnState::kAborted;
    }
  }
  return TxnState::kAborted;  // forgotten implies resolved; presume abort
}

bool TransactionManager::IsAborted(const TransactionId& tid) const {
  return StateOf(tid) == TxnState::kAborted;
}

TransactionId TransactionManager::TopOf(const TransactionId& tid) const {
  const Txn* txn = Find(tid);
  return txn == nullptr ? tid : txn->top;
}

Status TransactionManager::End(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state == TxnState::kAborted) {
    return Status::kAborted;
  }
  if (AbortInProgress(*txn)) {
    // An abort is consuming this transaction right now (e.g. a cascade abort
    // while this task ran the body to completion). The abort's driver owns
    // the entry; just report the outcome.
    return Status::kAborted;
  }
  if (!txn->parent.IsNull()) {
    CommitSubtransaction(*txn);
    return Status::kOk;
  }
  Status s = CommitTopLevel(*txn);
  MaybeCheckpoint();
  return s;
}

void TransactionManager::MaybeCheckpoint() {
  if (checkpoint_interval_ <= 0 || !node_.substrate().scheduler().in_task()) {
    return;
  }
  SimTime now = node_.substrate().scheduler().Now();
  if (now - last_checkpoint_time_ < checkpoint_interval_) {
    return;
  }
  last_checkpoint_time_ = now;
  rm_.TakeCheckpoint(ActiveTransactions());
  ++checkpoints_taken_;
}

void TransactionManager::Abort(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr) {
    return;
  }
  if (AbortInProgress(*txn)) {
    return;  // another task owns this abort; double-undo would corrupt
  }
  AbortImpl(*txn);
}

void TransactionManager::AbortImpl(Txn& txn) {
  txn.abort_started = true;
  const TransactionId tid = txn.tid;
  // Abort live subtransactions first (deepest effects unwind first).
  for (const TransactionId& sub : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(sub);
    if (st != nullptr && !st->abort_started) {
      AbortImpl(*st);
    }
  }
  if (txn.parent.IsNull()) {
    AbortSubtree(txn, /*notify_children=*/true);
  } else {
    // Independent subtransaction abort: unwind only the subtransaction's own
    // effects — here and at remote participants — leaving the parent intact.
    rm_.UndoTransaction(tid, txn.top);
    for (CommitParticipant* s : txn.servers) {
      s->OnAbort(tid);
    }
    FanOut(cm_.InfoFor(txn.top).children, /*serialized=*/false,
           [&](NodeId child, TransactionManager& child_tm) {
             cm_.SendDatagram(child, "subtxn-abort", [child_tm = &child_tm, tid, top = txn.top] {
               child_tm->HandleSubtxnAbort(tid, top);
             });
           });
    txn.state = TxnState::kAborted;
    Txn* p = Find(txn.parent);
    if (p != nullptr) {
      p->live_subtxns.erase(tid);
    }
    txns_.erase(tid);
    return;
  }
  ForgetTxn(tid);
}

bool TransactionManager::AbortInProgress(const Txn& txn) const {
  if (txn.abort_started) {
    return true;
  }
  const Txn* top = Find(txn.top);
  return top != nullptr && top != &txn && top->abort_started;
}

Lsn TransactionManager::AppendTxnRecord(RecordType type, const Txn& txn, bool force) {
  LogRecord rec;
  rec.type = type;
  rec.owner = txn.tid;
  rec.top = txn.top;
  rec.parent_node = txn.parent_node;
  rec.siblings = txn.siblings;
  rec.acceptors = txn.acceptors;
  const auto& info = cm_.InfoFor(txn.top);
  rec.children.assign(info.children.begin(), info.children.end());
  for (CommitParticipant* s : txn.servers) {
    rec.local_servers.push_back(s->participant_name());
  }
  Lsn lsn = rm_.log().Append(std::move(rec));
  if (force) {
    ForceLsn(lsn);
  }
  return lsn;
}

void TransactionManager::ForceLsn(Lsn lsn) {
  // TM -> RM force request and completion (two small messages), then the
  // stable write itself (charged by the log manager).
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  if (group_commit_ != nullptr) {
    // Group commit: block until a shared force covers this record. With
    // the daemon disabled (window 0) this degenerates to ForceAll and the
    // paper-faithful per-transaction force is preserved. Either way this
    // call does not return until the record is stable, so every state
    // transition that follows it (kPrepared, kCommitted, logged_outcomes_)
    // happens only after durability — which is exactly the crash
    // guarantee: a node killed mid-batch unwinds here via TaskKilled
    // before anything claims the outcome.
    group_commit_->WaitStable(lsn);
  } else {
    rm_.log().ForceAll();
  }
}

void TransactionManager::ForceTxnRecord(RecordType type, Txn& txn, Lsn* deferred) {
  if (op_queue_.enabled()) {
    // Queue mode. A commit's outcome is decided the moment its record is
    // appended — the WAL forces in LSN order, so any successor's durable
    // record implies ours — so its locks release untainted and successors
    // pipeline into the group-commit window. A prepare's outcome is
    // undecided until the verdict, so its released objects are tainted and
    // any successor granted a lock on them becomes commit-dependent.
    const bool prepare = type == RecordType::kTxnPrepare;
    Lsn lsn = AppendTxnRecord(type, txn, /*force=*/false);
    FAULT_POINT(node_.substrate(),
                prepare ? "queue.prepare.early-release" : "queue.commit.early-release");
    for (CommitParticipant* s : txn.servers) {
      s->OnEarlyRelease(txn.tid, /*taint=*/prepare);
    }
    ForceLsn(lsn);
  } else if (deferred != nullptr) {
    *deferred = AppendTxnRecord(type, txn, /*force=*/false);
  } else {
    AppendTxnRecord(type, txn, /*force=*/true);
  }
}

bool TransactionManager::RefusesOps(const TransactionId& tid) const {
  if (!op_queue_.enabled()) {
    return false;
  }
  const Txn* txn = Find(tid);
  if (txn == nullptr) {
    // A transaction the application still drives but the TM no longer knows
    // was consumed by a cascade (its abort is already logged). Refuse; the
    // application's End/Abort will observe kAborted.
    return true;
  }
  return txn->state == TxnState::kAborted || AbortInProgress(*txn);
}

void TransactionManager::CascadeAbort(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state == TxnState::kAborted || AbortInProgress(*txn)) {
    return;
  }
  // A dependent with an undischarged commit dependency cannot have appended
  // its own prepare/commit record (AwaitPredecessors runs first), so the
  // cascade can never reach a decided — let alone durable — transaction.
  assert(txn->state != TxnState::kCommitted && txn->state != TxnState::kPrepared &&
         "cascade abort reached a decided transaction");
  // Wake any lock or escrow wait the victim's task is parked in: it unwinds
  // with kAborted instead of being granted a lock under a dead transaction.
  for (CommitParticipant* s : txn->servers) {
    s->CancelLockWaits(tid);
  }
  AbortImpl(*txn);
}

void TransactionManager::ForgetTxn(const TransactionId& tid) {
  cm_.Forget(tid);
  rm_.ForgetTransaction(tid);
  txns_.erase(tid);
}

// --- crash recovery ---------------------------------------------------------

void TransactionManager::ObserveTxnRecord(const LogRecord& rec) {
  switch (rec.type) {
    case RecordType::kTxnCommit:
      logged_outcomes_[rec.top] = TxnOutcome::kCommitted;
      break;
    case RecordType::kTxnAbort:
      logged_outcomes_[rec.top] = TxnOutcome::kAborted;
      break;
    case RecordType::kTxnPrepare:
      if (!logged_outcomes_.contains(rec.top)) {
        logged_outcomes_[rec.top] = TxnOutcome::kPrepared;
      }
      logged_prepares_[rec.top] =
          PrepareRecord{rec.parent_node, rec.siblings, rec.acceptors, rec.children};
      break;
    case RecordType::kPaxosPromise:
    case RecordType::kPaxosAccept:
    case RecordType::kPaxosLearn:
      paxos_->ObserveRecord(rec);
      break;
    case RecordType::kTxnEnd:
      // Fully acknowledged; the outcome entry may be garbage-collected, but
      // keeping it is harmless and answers stragglers.
      break;
    case RecordType::kSubtxnCommit:
    default:
      break;
  }
  // Sequence numbers must stay unique across restarts: track the highest
  // (incarnation, counter) this node is known to have minted. Only ids born
  // here matter — a participant's log is full of remote coordinators' ids,
  // which live in those nodes' sequence spaces.
  auto note = [this](const TransactionId& t) {
    if (t.node != node_.id()) {
      return;
    }
    if (t.incarnation() > incarnation_) {
      incarnation_ = t.incarnation();
      next_sequence_ = t.counter() + 1;
    } else if (t.incarnation() == incarnation_) {
      next_sequence_ = std::max(next_sequence_, t.counter() + 1);
    }
  };
  note(rec.owner);
  note(rec.top);
}

TxnOutcome TransactionManager::OutcomeOf(const TransactionId& top) {
  auto it = logged_outcomes_.find(top);
  return it == logged_outcomes_.end() ? TxnOutcome::kActive : it->second;
}

void TransactionManager::PostRecovery(
    const recovery::RecoveryStats& stats,
    const std::map<std::string, CommitParticipant*>& participants) {
  for (const TransactionId& tid : stats.in_doubt) {
    // After a node crash the transaction is rebuilt, prepared, from its
    // replayed prepare record. A server recovered on a live node can find it
    // still held by a live Txn, which the recovered server joins.
    Txn* txn = Find(tid);
    if (txn == nullptr) {
      const PrepareRecord& prepared = logged_prepares_.at(tid);
      txn = &GetOrCreateRemote(tid, prepared.parent_node);
      txn->state = TxnState::kPrepared;
      txn->siblings = prepared.siblings;
      txn->acceptors = prepared.acceptors;
      // The verdict goes down the tree as before the crash: a commit to the
      // children that prepared (a child that no longer knows the
      // transaction ignores it), an abort to the Communication Manager's
      // children.
      txn->update_children.insert(prepared.children.begin(), prepared.children.end());
      for (NodeId child : prepared.children) {
        cm_.NoteChild(tid, child);
      }
    }
    // Rebuild lock state: every object the in-doubt transaction updated
    // stays inaccessible until the coordinator's verdict arrives.
    for (Lsn lsn : rm_.UndoListOf(tid)) {
      auto rec = rm_.log().ReadRecord(lsn);
      if (!rec.has_value()) {
        continue;
      }
      auto it = participants.find(rec->server);
      if (it == participants.end()) {
        continue;
      }
      it->second->RelockForRecovery(tid, *rec);
      if (std::find(txn->servers.begin(), txn->servers.end(), it->second) ==
          txn->servers.end()) {
        txn->servers.push_back(it->second);
      }
    }
  }
  for (const TransactionId& loser : stats.losers) {
    logged_outcomes_[loser] = TxnOutcome::kAborted;
  }
}

void TransactionManager::BeginNewIncarnation() {
  ++incarnation_;
  next_sequence_ = 1;
  // Durable before the first new id is minted: if this node crashes again
  // before logging anything else, the next recovery still replays this
  // record and starts at incarnation_ + 1.
  LogRecord rec;
  rec.type = RecordType::kNodeEpoch;
  rec.owner = TransactionId{node_.id(), incarnation_ << kIncarnationShift};
  rec.top = rec.owner;
  rm_.log().Append(std::move(rec));
  rm_.log().ForceAll();
}

void TransactionManager::AbortRemoteOrphansOf(NodeId dead) {
  std::vector<TransactionId> doomed;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kActive && !txn.born_here && txn.parent_node == dead) {
      doomed.push_back(tid);
    }
  }
  for (const TransactionId& tid : doomed) {
    Abort(tid);  // undo through the RM, release locks, notify our children
  }
}

std::vector<TransactionId> TransactionManager::InDoubt() const {
  std::vector<TransactionId> out;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kPrepared) {
      out.push_back(tid);
    }
  }
  return out;
}

Status TransactionManager::ResolveInDoubt(const TransactionId& tid) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kTransactionManager,
                      "txn.resolve-in-doubt",
                      node_.substrate().tracer().enabled() ? ToString(tid) : std::string());
  const std::optional<PrepareRecord> prepared = PreparedRecordOf(tid);
  if (!prepared) {
    return Status::kNotFound;
  }
  if (peers_ == nullptr) {
    return Status::kNodeDown;
  }

  // Whom to ask: the parent is authoritative (presumed abort applies); if it
  // is unreachable, the sibling participants recorded in the prepare record
  // may already know the verdict — Dwork/Skeen-style cooperative
  // termination, which shrinks the blocking window the paper notes plain
  // two-phase commit has.
  const std::vector<NodeId>& siblings = prepared->siblings;

  // The parent's kUnknown is presumed abort; a sibling's is no answer.
  // kUndecided (the asked node is in doubt itself) is no answer from either.
  auto ask = [&](NodeId node, bool authoritative, bool* committed) -> bool {
    TransactionManager* tm = Peer(node);
    if (tm == nullptr || !cm_.network().Reachable(node_.id(), node)) {
      return false;
    }
    auto known = cm_.network().SessionCall<TxnKnowledge>(
        node_.id(), node, authoritative ? "resolve-in-doubt" : "cooperative-termination",
        [tm, tid]() { return tm->KnowledgeOf(tid); });
    if (!known.ok() || known.value() == TxnKnowledge::kUndecided ||
        (known.value() == TxnKnowledge::kUnknown && !authoritative)) {
      return false;
    }
    *committed = known.value() == TxnKnowledge::kCommitted;
    return true;
  };

  bool committed = false;
  bool resolved = false;
  if (!prepared->acceptors.empty()) {
    // Paxos Commit: the acceptors are authoritative, never the parent. In
    // particular the parent's presumed abort does NOT apply — a recovered,
    // locally-read-only coordinator has no commit record even for a
    // transaction the acceptors decided to commit, so asking it would split
    // the brain. The consensus read path is the only sound source.
    int outcome = paxos_->Resolve(tid, siblings, prepared->acceptors);
    if (outcome == 0) {
      return Status::kNodeDown;  // no acceptor quorum; still in doubt
    }
    committed = outcome > 0;
    resolved = true;
    // Resolve blocks on acceptor round-trips: a takeover verdict datagram
    // may have resolved this transaction while we waited.
    if (!PreparedRecordOf(tid)) {
      return committed ? Status::kOk : Status::kAborted;
    }
  } else {
    resolved = ask(prepared->parent_node, /*authoritative=*/true, &committed);
    for (size_t i = 0; !resolved && i < siblings.size(); ++i) {
      if (siblings[i] == node_.id()) {
        continue;
      }
      resolved = ask(siblings[i], /*authoritative=*/false, &committed);
    }
  }
  if (!resolved) {
    return Status::kNodeDown;  // still in doubt; locks stay held
  }
  ApplyVerdict(tid, committed);
  return committed ? Status::kOk : Status::kAborted;
}

std::optional<TransactionManager::PrepareRecord> TransactionManager::PreparedRecordOf(
    const TransactionId& tid) const {
  const Txn* txn = Find(tid);
  if (txn == nullptr || txn->state != TxnState::kPrepared) {
    return std::nullopt;
  }
  const auto& children = cm_.InfoFor(txn->top).children;
  return PrepareRecord{txn->parent_node, txn->siblings, txn->acceptors,
                       std::vector<NodeId>(children.begin(), children.end())};
}

void TransactionManager::ApplyVerdict(const TransactionId& tid, bool committed) {
  if (committed) {
    HandleCommit(tid);
  } else {
    HandleAbortMsg(tid);
  }
}

TxnKnowledge TransactionManager::KnowledgeOf(const TransactionId& tid) const {
  if (Find(tid) == nullptr && !logged_outcomes_.contains(tid)) {
    return TxnKnowledge::kUnknown;  // it might have been read-only here and
                                    // forgotten: only the parent may presume
  }
  switch (StateOf(tid)) {
    case TxnState::kCommitted:
      return TxnKnowledge::kCommitted;
    case TxnState::kAborted:
      return TxnKnowledge::kAborted;
    default:
      return TxnKnowledge::kUndecided;
  }
}

std::vector<recovery::RecoveryManager::ActiveTxn> TransactionManager::ActiveTransactions()
    const {
  std::vector<recovery::RecoveryManager::ActiveTxn> out;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kCommitted || txn.state == TxnState::kAborted) {
      continue;
    }
    recovery::RecoveryManager::ActiveTxn at;
    at.owner = tid;
    at.top = txn.top;
    at.prepared = txn.state == TxnState::kPrepared;
    at.first_lsn = rm_.FirstLsnOf(tid);
    out.push_back(at);
  }
  // Undecided Paxos instances this node accepts for pin the log exactly like
  // in-doubt transactions: a takeover may still need their accept records.
  for (auto& at : paxos_->PinnedInstances()) {
    out.push_back(at);
  }
  return out;
}

}  // namespace tabs::txn
