// The commit driver — the tree-structured two-phase commit protocol
// (Section 3.2.3) and Paxos Commit behind one pipeline — plus
// subtransaction commit/abort propagation.
//
// Every node coordinates its own children in the transaction's spanning tree
// (built by the Communication Managers as operations flowed). Prepares and
// votes travel as datagrams — "TABS has been careful to use datagrams for
// communication during transaction commit" (Section 2.1.2). The protocol
// includes the read-only optimization: a subtree with no updates votes
// read-only, releases its locks at prepare time, and drops out of phase two.
//
// Two-phase commit is Paxos Commit with F = 0 (Gray & Lamport, "Consensus on
// Transaction Commit", section 4): the coordinator is the only acceptor and
// its forced commit record is that acceptor's acceptance. So one driver,
// CommitTopLevel, serves both WorldOptions::commit_mode values: prepare,
// collect every vote against one deadline, decide, make the decision
// durable, propagate it. The mode branches in two places only:
//  * making the decision durable — 2PC forces the coordinator's commit
//    record; Paxos Commit runs the ballot-0 accept round at its 2F+1
//    acceptors (falling back to a takeover), after which the coordinator's
//    commit record is a lazy hint and learns go to the acceptors;
//  * the Paxos leader's own prepare — the leader votes in its own instance,
//    so it logs a prepare record before collecting votes (deferred into its
//    co-located acceptor's force, or early-released in queue mode), and in
//    queue mode it awaits its predecessors before that record rather than
//    before the decision.
// Participants run one prepare routine (HandlePrepare) in both modes and
// prepare their own subtrees with plain 2PC; a paxos-prepare only adds the
// vote relay to the leader. The PaxosCommit engine (acceptors, takeover,
// replay) lives in paxos_commit.cc.
//
// Every message bound for a list of nodes leaves through one fan-out,
// TransactionManager::FanOut: prepares, commits, aborts and subtransaction
// outcomes here; accept bundles, ballots, learns and verdicts in the engine.
// It skips dead peers, and only the commit-protocol fan-outs (prepares,
// commits, accept bundles, both takeover phases) pay the half-datagram delay
// of serialized sends. Replies to the accept round and the takeover phases
// are gathered by one quorum wait, PaxosCommit::AwaitQuorum, which counts
// each acceptor once.
//
// Under ArchitectureModel::Improved (Section 5.3), phase two of a
// distributed write commit leaves the latency-critical path: the coordinator
// returns to the application as soon as the commit record is stable and the
// commit datagrams are on the wire.

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>

#include "src/sim/fault_injector.h"
#include "src/txn/transaction_manager.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

TransactionManager* TransactionManager::Peer(NodeId node) const {
  if (peers_ == nullptr) {
    return nullptr;
  }
  auto it = peers_->find(node);
  return it == peers_->end() ? nullptr : it->second;
}

namespace {

bool AnyVote(const std::map<NodeId, PaxosVote>& vote_of, PaxosVote vote) {
  return std::ranges::any_of(vote_of, [vote](const auto& v) { return v.second == vote; });
}

}  // namespace

Status TransactionManager::CommitTopLevel(Txn& txn) {
  assert(txn.born_here && "EndTransaction must run at the transaction's birth node");
  sim::Substrate& sub = node_.substrate();
  // Coordinator-local fast path: with no children the participant set is
  // exactly {self}, so no other site holds locks or can be left in doubt.
  // Paxos Commit exists to make the verdict survive the coordinator for the
  // OTHER participants' sake (Gray & Lamport section 3); with one participant
  // the decision degenerates to that participant's own durable record, which
  // this node's recovery reads from its own log either way. Replicating it to
  // 2F+1 acceptors would buy nothing and cost a prepare round plus an
  // acceptor force, so it commits as plain 2PC (one forced commit record;
  // read-only still forces nothing at all).
  const bool paxos =
      commit_mode_ == CommitMode::kPaxosCommit && !cm_.InfoFor(txn.top).children.empty();
  if (commit_mode_ == CommitMode::kPaxosCommit && !paxos) {
    FAULT_POINT(sub, "paxos.local-commit");
  }
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager,
                      paxos ? "paxos.commit" : "2pc.commit",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  const TransactionId tid = txn.tid;

  // Open subtransactions commit with their parent (Section 2.1.3).
  for (const TransactionId& s : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(s);
    if (st != nullptr) {
      CommitSubtransaction(*st);
    }
  }

  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // app -> TM: commit
  txn.state = TxnState::kPreparing;

  const auto& info = cm_.InfoFor(txn.top);
  if (!info.children.empty()) {
    // The CM hands the TM the complete site list (a pointer message).
    sub.Charge(sim::Primitive::kPointerMessage, 1);
  }

  // ---- phase one: one vote per participant, against one deadline ----
  // Under 2PC the whole tree votes through this node, so the map holds one
  // entry: the subtree's collective vote. Under Paxos Commit the participant
  // set is this node plus its direct children; each child prepares its own
  // subtree with plain 2PC and votes on the subtree's behalf, so one Paxos
  // instance per direct participant covers the tree.
  std::map<NodeId, PaxosVote> vote_of;
  bool all_votes = true;
  Lsn deferred_prepare = kNullLsn;
  std::vector<NodeId> participants;
  std::vector<NodeId> acceptors;
  if (paxos) {
    participants.assign(info.children.begin(), info.children.end());
    participants.push_back(node_.id());
    std::sort(participants.begin(), participants.end());
    acceptors = paxos_->ChooseAcceptors(tid);
    txn.siblings = participants;
    txn.acceptors = acceptors;
    // Votes come back to this leader (the coordinator-relay variant of Gray &
    // Lamport section 6) instead of going straight to the acceptors: the
    // leader can then skip the acceptor round outright when no vote was
    // Prepared, and coalesce phase 2a into one bundle per acceptor otherwise.
    auto votes = std::make_shared<VoteChannel>(sub.scheduler());
    if (!SendPrepares(txn, votes, /*leader=*/true)) {
      // A participant is already dead: abort now, no consensus needed.
      AbortSubtree(txn, /*notify_children=*/true);
      ForgetTxn(tid);
      return Status::kVoteNo;
    }
    // The children prepare in parallel while the leader waits out its
    // commit dependencies: its own prepare record below must not make a
    // dirty read durable.
    if (Status ws = AwaitPredecessorsOrAbort(tid); ws != Status::kOk) {
      return ws;
    }
    vote_of[node_.id()] = PaxosVote::kReadOnly;
    if (PrepareLocalServers(txn)) {
      // Co-located-acceptor force coalescing: this node's own accept-bundle
      // force (at a higher LSN) makes the prepare record durable in the same
      // stable write, so the leader pays ONE force where it would pay two.
      // AcceptAtBallotZero forces the LSN directly if the local acceptance is
      // skipped, before anything reaches the wire.
      const bool self_acceptor = std::ranges::find(acceptors, node_.id()) != acceptors.end();
      if (!BecomePrepared(txn, self_acceptor ? &deferred_prepare : nullptr)) {
        return Status::kAborted;  // aborted (or being aborted) during the force
      }
      vote_of[node_.id()] = PaxosVote::kPrepared;
    }
    all_votes = CollectVotes(tid, *votes, participants.size(), vote_of);
  } else {
    vote_of[node_.id()] = PrepareSubtree(txn);
  }
  // Phase one blocked: an abort (a cascade, or the application's own) may
  // have consumed the transaction meanwhile.
  if (Txn* live = Find(tid); live == nullptr || AbortInProgress(*live)) {
    return Status::kAborted;
  }

  // ---- decide, and make the decision durable ----
  bool any_prepared = AnyVote(vote_of, PaxosVote::kPrepared);
  int outcome = AnyVote(vote_of, PaxosVote::kAborted) ? -1 : 1;
  bool learn = false;  // the accept round decided: teach the acceptors
  if (paxos && all_votes && !any_prepared) {
    // Read-only fast path: every vote arrived and none is Prepared — each
    // participant either voted ReadOnly (locks already released) or Aborted
    // (already rolled back). Nothing is Prepared anywhere, so there is no
    // in-doubt window and nothing a takeover could ever need to resolve.
    // Skip the acceptor round entirely: no ballot-0 instances, no
    // kPaxosAccept forces, answer the application now.
    FAULT_POINT(sub, "paxos.readonly-skip");
  } else if (paxos) {
    if (all_votes) {
      // The accept round, coalesced: one bundle datagram per acceptor carries
      // every instance's ballot-0 value. ReadOnly instances ride along too —
      // a takeover derives its value list from the same participant set, so
      // every instance must be decidable from any acceptance quorum. At F+1
      // acceptances every instance is durably accepted (a bundle is atomic at
      // its acceptor), so any future takeover quorum must choose the same
      // values: commit when every vote is Prepared/ReadOnly, abort when an
      // Aborted vote rode along.
      std::vector<InstanceValue> values;
      values.reserve(participants.size());
      for (NodeId p : participants) {
        values.push_back(InstanceValue{p, 0, vote_of[p]});
      }
      learn = paxos_->AcceptAtBallotZero(tid, values, acceptors, deferred_prepare);
    }
    if (!learn) {
      // A vote never arrived (its participant may be crashed holding a
      // durable prepare), or the accept round fell short of a quorum — whose
      // acceptors may have logged the bundle while their replies were lost.
      // Presumed abort is unsound either way: the outcome must be REPLICATED,
      // not presumed. The takeover decides through the acceptors and durably
      // learns the verdict there, which is exactly where a crashed
      // participant's recovery will look for it; its verdict datagrams reach
      // the participants, so phase two sends nothing.
      outcome = paxos_->Resolve(tid, participants, acceptors);
      if (Find(tid) == nullptr) {
        return outcome > 0 ? Status::kOk : Status::kAborted;  // verdict raced us
      }
      if (outcome == 0) {
        // No acceptor quorum reachable: genuinely in doubt. Keep the locks —
        // blocking here is the price of consistency; any survivor (or this
        // node after recovery) resolves through the acceptors later.
        return Status::kNodeDown;
      }
      txn.update_children.clear();
      any_prepared = true;  // can't tell read-only apart: log the record
    }
  }

  if (outcome < 0) {
    if (learn) {
      // The accept round decided Aborted (an Aborted vote rode the bundles):
      // teach the acceptors so a later standby leader short-circuits.
      FAULT_POINT(sub, "paxos.learn");
      paxos_->BroadcastLearn(tid, -1, acceptors);
    }
    // Prepared children learn through AbortSubtree's abort datagrams.
    AbortSubtree(txn, /*notify_children=*/true);
    ForgetTxn(tid);
    return Status::kVoteNo;
  }

  if (!paxos) {
    // A dependent may not decide before its predecessors.
    if (Status ws = AwaitPredecessorsOrAbort(tid); ws != Status::kOk) {
      return ws;
    }
  }
  // TABS process CPU time for local transaction management (Section 5.2).
  sub.scheduler().Charge(sub.costs().coordinator_overhead_us);
  if (any_prepared) {
    sub.scheduler().Charge(sub.costs().coordinator_write_extra_us);
    if (paxos) {
      // Unforced on purpose: the commit point already passed at the
      // acceptors, so this record is a lazy hint that spares a takeover
      // after a coordinator crash — exactly the force 2PC cannot skip.
      AppendTxnRecord(RecordType::kTxnCommit, txn, /*force=*/false);
    } else {
      // Every participant is prepared but the verdict is not yet durable: a
      // crash here must resolve to abort (presumed abort).
      FAULT_POINT(sub, "2pc.commit.before_record");
      // The commit point: the commit record reaches stable storage.
      ForceTxnRecord(RecordType::kTxnCommit, txn);
      // The verdict is durable but no participant knows it: a crash here
      // must resolve to commit via the in-doubt query.
      FAULT_POINT(sub, "2pc.commit.after_record");
    }
  } else if (!paxos) {
    // Read-only fast path: every vote was ReadOnly, so no participant is
    // prepared and nothing needs phase two — no commit record, no force.
    // A crash here is indistinguishable from one before the commit call:
    // there is no in-doubt window by construction.
    FAULT_POINT(sub, "2pc.readonly-skip");
  }
  txn.state = TxnState::kCommitted;
  logged_outcomes_[txn.top] = TxnOutcome::kCommitted;
  if (learn) {
    // Commit stands at the acceptors but no learn datagram is out: a crash
    // here must still commit everywhere via takeover.
    FAULT_POINT(sub, "paxos.learn");
    paxos_->BroadcastLearn(tid, 1, acceptors);
  }
  if (op_queue_.enabled()) {
    // Decided: clear the leader's own prepare taints, discharge dependents.
    op_queue_.NoteCommitted(txn.top);
  }
  CommitSubtree(txn, /*is_root=*/true);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> app: done
  ForgetTxn(tid);
  return Status::kOk;
}

bool TransactionManager::SendPrepares(const Txn& txn, const VoteChannelPtr& votes, bool leader) {
  sim::Substrate& sub = node_.substrate();
  const auto& children = cm_.InfoFor(txn.top).children;
  if (!std::ranges::all_of(children, [this](NodeId c) { return Peer(c) != nullptr; })) {
    return false;  // a child crashed: cannot guarantee its updates
  }
  FAULT_POINT(sub, "2pc.prepare.begin");
  // A 2PC prepare carries the sibling list so an in-doubt participant can
  // run cooperative termination if this coordinator later crashes; a
  // paxos-prepare carries the participant and acceptor sets, so any survivor
  // can later run a takeover.
  const std::vector<NodeId> siblings =
      leader ? txn.siblings : std::vector<NodeId>(children.begin(), children.end());
  const std::vector<NodeId> acceptors = leader ? txn.acceptors : std::vector<NodeId>();
  const TransactionId tid = txn.top;
  const NodeId self = node_.id();
  FanOut(children, /*serialized=*/true, [&](NodeId child, TransactionManager& child_tm) {
    cm_.SendDatagram(child, leader ? "paxos-prepare" : "2pc-prepare",
                     [child_tm = &child_tm, tid, self, child, siblings, acceptors, votes, leader] {
                       PaxosVote v = child_tm->HandlePrepare(tid, self, siblings, acceptors,
                                                             leader ? votes : nullptr);
                       if (!leader) {
                         child_tm->cm_.SendDatagram(self, "2pc-vote", [votes, tid, child, v] {
                           votes->Push(PaxosVoteMsg{tid, child, v});
                         });
                       }
                     });
  });
  return true;
}

bool TransactionManager::PrepareLocalServers(const Txn& txn) {
  sim::Substrate& sub = node_.substrate();
  bool updates = false;
  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: prepare
    if (s->HasUpdates(txn.tid)) {
      updates = true;
      sub.ChargeSystemMessage(sim::Primitive::kLargeMessage, 1);
    }
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // server -> TM: vote
  }
  return updates;
}

bool TransactionManager::CollectVotes(const TransactionId& tid, VoteChannel& votes,
                                      size_t participants, std::map<NodeId, PaxosVote>& vote_of) {
  sim::Substrate& sub = node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  // One deadline across ALL votes: children prepared in parallel, so the
  // wait budget must not scale with the child count. A vote already queued
  // consumes none of it, and a zero budget still pops it without waiting.
  SimTime deadline = sched.Now() + vote_timeout_;
  while (vote_of.size() < participants) {
    PaxosVoteMsg m;
    if (!votes.PopWithTimeout(std::max<SimTime>(deadline - sched.Now(), 0), &m)) {
      return false;  // lost vote or crashed child
    }
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: vote arrived
    if (m.tid != tid || !vote_of.emplace(m.participant, m.vote).second) {
      continue;  // a duplicated datagram
    }
    // Re-resolve after the wait: an abort may have erased the entry meanwhile.
    Txn* txn = Find(tid);
    if (txn == nullptr) {
      return false;
    }
    if (m.vote == PaxosVote::kPrepared) {
      txn->update_children.insert(m.participant);  // phase two goes to it
    }
  }
  return true;
}

PaxosVote TransactionManager::PrepareSubtree(Txn& txn) {
  sim::Substrate& sub = node_.substrate();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.prepare",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  auto votes = std::make_shared<VoteChannel>(sub.scheduler());
  if (!SendPrepares(txn, votes, /*leader=*/false)) {
    return PaxosVote::kAborted;
  }
  const TransactionId tid = txn.top;  // `txn` may be erased while votes are awaited
  const size_t participants = cm_.InfoFor(tid).children.size() + 1;
  std::map<NodeId, PaxosVote> vote_of;
  vote_of[node_.id()] = PrepareLocalServers(txn) ? PaxosVote::kPrepared : PaxosVote::kReadOnly;
  // Prepares are on the wire (and the local vote is computed) but no remote
  // vote has been consumed yet.
  FAULT_POINT(sub, "2pc.prepare.before_votes");
  if (!CollectVotes(tid, *votes, participants, vote_of) ||
      AnyVote(vote_of, PaxosVote::kAborted)) {
    return PaxosVote::kAborted;  // abort is always safe
  }
  return AnyVote(vote_of, PaxosVote::kPrepared) ? PaxosVote::kPrepared : PaxosVote::kReadOnly;
}

Status TransactionManager::AwaitPredecessorsOrAbort(const TransactionId& tid) {
  if (!op_queue_.enabled()) {
    return Status::kOk;
  }
  // Queue mode: a dependent may not make its vote or decision durable before
  // its predecessors decide — it may have read their early-released, still
  // undecided state. Wait out every commit dependency, then re-resolve: a
  // predecessor's abort may have cascaded to this transaction while it slept
  // (the entry is then owned by the cascade, or already gone).
  Status ws = op_queue_.AwaitPredecessors(tid, vote_timeout_);
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state == TxnState::kAborted || AbortInProgress(*txn)) {
    return Status::kAborted;
  }
  if (ws != Status::kOk) {
    AbortSubtree(*txn, /*notify_children=*/true);
    ForgetTxn(tid);
    return Status::kVoteNo;
  }
  return Status::kOk;
}

bool TransactionManager::BecomePrepared(Txn& txn, Lsn* deferred) {
  sim::Substrate& sub = node_.substrate();
  const TransactionId tid = txn.tid;
  sub.scheduler().Charge(sub.costs().participant_prepare_overhead_us);
  // The subtree voted yes but the prepare record is still volatile: a crash
  // here means this participant never prepared, and presumed abort applies.
  FAULT_POINT(sub, "2pc.vote.before_record");
  // The record carries the sibling and acceptor sets, so an in-doubt
  // participant can be resolved after ANY combination of crashes.
  ForceTxnRecord(RecordType::kTxnPrepare, txn, deferred);
  // Prepared and in doubt: a crash here must leave the updates locked until
  // the verdict is learned.
  FAULT_POINT(sub, "2pc.vote.after_record");
  Txn* after_force = Find(tid);
  if (after_force == nullptr || AbortInProgress(*after_force)) {
    return false;
  }
  txn.state = TxnState::kPrepared;
  logged_outcomes_[tid] = TxnOutcome::kPrepared;
  return true;
}

PaxosVote TransactionManager::HandlePrepare(const TransactionId& tid, NodeId parent_node,
                                            const std::vector<NodeId>& siblings,
                                            const std::vector<NodeId>& acceptors,
                                            VoteChannelPtr votes) {
  sim::Substrate& sub = node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager,
                      votes != nullptr ? "paxos.handle-prepare" : "2pc.handle-prepare",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  PaxosVote vote = PrepareParticipant(tid, parent_node, siblings, acceptors);
  if (votes != nullptr) {
    paxos_->SendVote(tid, vote, parent_node, votes);
  }
  return vote;
}

PaxosVote TransactionManager::PrepareParticipant(const TransactionId& tid, NodeId parent_node,
                                                 const std::vector<NodeId>& siblings,
                                                 const std::vector<NodeId>& acceptors) {
  sim::Substrate& sub = node_.substrate();
  Txn* found = Find(tid);
  if (found == nullptr) {
    // We never saw an operation for this transaction: read-only by vacuity.
    // But a transaction this node aborted and rolled back (an orphan sweep
    // racing the prepare datagram) must vote Aborted — its updates are
    // undone, so a yes-side vote could commit a transaction missing them.
    return OutcomeOf(tid) == TxnOutcome::kAborted ? PaxosVote::kAborted : PaxosVote::kReadOnly;
  }
  Txn& txn = *found;
  if (txn.state == TxnState::kAborted) {
    return PaxosVote::kAborted;
  }
  // CM -> TM: prepare arrived; TM -> CM: vote handed back for the wire.
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  txn.parent_node = parent_node;
  txn.siblings = siblings;
  txn.acceptors = acceptors;
  txn.state = TxnState::kPreparing;

  PaxosVote v = PrepareSubtree(txn);
  // PrepareSubtree blocks awaiting child votes, and the prepare force below
  // blocks too: either wait can overlap the coordinator's vote timeout, whose
  // abort message rolls this subtree back and erases the Txn while we sleep.
  // Re-resolve the entry after every blocking window — a stale vote must not
  // touch (or resurrect) a transaction that was aborted and forgotten.
  if (Find(tid) == nullptr) {
    return PaxosVote::kAborted;
  }
  if (v == PaxosVote::kAborted) {
    AbortSubtree(txn, /*notify_children=*/true);
    ForgetTxn(tid);
    return PaxosVote::kAborted;
  }
  // Even a read-only vote must wait: the subtree may have read a
  // predecessor's early-released (still undecided) state, and voting it
  // through would let the coordinator commit a dirty read.
  if (AwaitPredecessorsOrAbort(tid) != Status::kOk) {
    return PaxosVote::kAborted;
  }
  if (v == PaxosVote::kReadOnly) {
    // Read-only optimization: release locks now and drop out of phase two.
    // Under Paxos Commit this instance only runs (carried in the leader's
    // accept bundles) if some OTHER participant voted Prepared.
    sub.scheduler().Charge(sub.costs().participant_read_overhead_us);
    for (CommitParticipant* s : txn.servers) {
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: release
      s->OnCommit(tid);
    }
    ForgetTxn(tid);
    return PaxosVote::kReadOnly;
  }
  // Updates here (or below): become prepared — in doubt until the verdict.
  // An abort during the prepare force votes Aborted at once, so the
  // coordinator need not wait out its vote timeout to learn it.
  return BecomePrepared(txn, nullptr) ? PaxosVote::kPrepared : PaxosVote::kAborted;
}

void TransactionManager::CommitSubtree(Txn& txn, bool is_root) {
  sim::Substrate& sub = node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.commit-subtree",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  bool wait_for_acks = !sub.arch().optimized_commit;

  auto acks = std::make_shared<sim::Channel<bool>>(sched);
  const TransactionId tid = txn.tid;
  const NodeId self = node_.id();
  // A crashed child resolves via the in-doubt query after its recovery.
  const size_t expected = FanOut(
      txn.update_children, /*serialized=*/true, [&](NodeId child, TransactionManager& child_tm) {
        cm_.SendDatagram(child, "2pc-commit", [child_tm = &child_tm, tid, self, acks] {
          child_tm->HandleCommit(tid);
          child_tm->cm_.SendDatagram(self, "2pc-ack", [acks] { acks->Push(true); });
        });
      });

  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: commit
    bool had_updates = s->HasUpdates(txn.tid);  // OnCommit clears the flag
    s->OnCommit(txn.tid);
    if (had_updates) {
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // server -> TM: done
    }
  }

  if (wait_for_acks) {
    if (is_root && expected > 0) {
      // Commit datagrams are on the wire, acks outstanding: the commit
      // already stands, so a crash here must still commit everywhere.
      FAULT_POINT(sub, "2pc.commit.before_acks");
    }
    for (size_t i = 0; i < expected; ++i) {
      bool b = false;
      if (!acks->PopWithTimeout(vote_timeout_, &b)) {
        break;  // a child will resolve via in-doubt query; commit stands
      }
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: ack arrived
    }
    if (is_root && expected > 0) {
      FAULT_POINT(sub, "2pc.commit.after_acks");
      AppendTxnRecord(RecordType::kTxnEnd, txn, /*force=*/false);
    }
  }
}

void TransactionManager::HandleCommit(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr) {
    return;  // duplicate delivery (at-most-once handlers make this benign)
  }
  sim::Substrate& sub = node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.handle-commit",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  // CM -> TM: commit arrived; TM -> CM: acknowledgement handed back.
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  sub.scheduler().Charge(sub.costs().participant_commit_overhead_us);
  // The verdict arrived but this participant's commit record is volatile: a
  // crash here re-enters in-doubt and must resolve to commit again.
  FAULT_POINT(sub, "2pc.participant.before_commit");
  AppendTxnRecord(RecordType::kTxnCommit, *txn, /*force=*/false);
  txn->state = TxnState::kCommitted;
  logged_outcomes_[tid] = TxnOutcome::kCommitted;
  if (op_queue_.enabled()) {
    // Decided: clear this transaction's taints and discharge its dependents.
    op_queue_.NoteCommitted(txn->top);
  }
  CommitSubtree(*txn, /*is_root=*/false);
  FAULT_POINT(sub, "2pc.participant.after_commit");
  ForgetTxn(tid);
}

void TransactionManager::AbortSubtree(Txn& txn, bool notify_children) {
  sim::Substrate& sub = node_.substrate();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.abort",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  txn.abort_started = true;  // this task owns the abort through ForgetTxn
  if (op_queue_.enabled()) {
    // Arm the grant veto first: no lock on this transaction's tainted
    // objects may be granted into the undo window below. Then cascade to
    // the queued successors — their undo must run BEFORE ours, because
    // their before-images are our after-images.
    op_queue_.BeginAbort(txn.top);
    FAULT_POINT(sub, "queue.cascade");
    for (const TransactionId& d : op_queue_.TakeDependents(txn.top)) {
      CascadeAbort(d);
    }
  }
  if (notify_children) {
    const TransactionId tid = txn.top;
    FanOut(cm_.InfoFor(tid).children, /*serialized=*/false,
           [&](NodeId child, TransactionManager& child_tm) {
             cm_.SendDatagram(child, "2pc-abort",
                              [child_tm = &child_tm, tid] { child_tm->HandleAbortMsg(tid); });
           });
  }
  // Undo local effects (backward chain through the Recovery Manager), then
  // release locks.
  rm_.UndoTransaction(txn.tid, txn.top);
  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: abort
    s->OnAbort(txn.tid);
  }
  // Undo is applied but the abort record is volatile: a crash here must
  // reach the same rolled-back state by replaying the undo at recovery.
  FAULT_POINT(sub, "2pc.abort.before_record");
  AppendTxnRecord(RecordType::kTxnAbort, txn, /*force=*/false);
  FAULT_POINT(sub, "2pc.abort.after_record");
  txn.state = TxnState::kAborted;
  logged_outcomes_[txn.top] = TxnOutcome::kAborted;
  if (op_queue_.enabled()) {
    // Undo complete: lift the veto, wake anything parked on this
    // transaction, and re-run the grant sweep for waiters the veto held.
    op_queue_.FinishAbort(txn.top);
    for (CommitParticipant* s : txn.servers) {
      s->OnAbortSettled(txn.tid);
    }
  }
}

void TransactionManager::HandleAbortMsg(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || AbortInProgress(*txn)) {
    return;  // unknown, or another task already owns this abort
  }
  AbortSubtree(*txn, /*notify_children=*/true);
  ForgetTxn(tid);
}

void TransactionManager::CommitSubtransaction(Txn& txn) {
  assert(!txn.parent.IsNull());
  Txn* parent = Find(txn.parent);
  assert(parent != nullptr && "subtransaction outlived its parent");

  // Grandchildren commit into this subtransaction first.
  for (const TransactionId& s : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(s);
    if (st != nullptr) {
      CommitSubtransaction(*st);
    }
  }

  for (CommitParticipant* s : txn.servers) {
    s->OnSubtxnCommit(txn.tid, txn.parent);
    if (std::find(parent->servers.begin(), parent->servers.end(), s) ==
        parent->servers.end()) {
      parent->servers.push_back(s);
    }
  }
  rm_.MergeChild(txn.tid, txn.parent);

  LogRecord rec;
  rec.type = RecordType::kSubtxnCommit;
  rec.owner = txn.tid;
  rec.top = txn.top;
  rec.parent_tid = txn.parent;
  rm_.log().Append(std::move(rec));

  // Remote participants of the top-level transaction inherit the
  // subtransaction's locks and undo records too.
  FanOut(cm_.InfoFor(txn.top).children, /*serialized=*/false,
         [&](NodeId child, TransactionManager& child_tm) {
           cm_.SendDatagram(child, "subtxn-commit",
                            [child_tm = &child_tm, child = txn.tid, parent = txn.parent,
                             top = txn.top] { child_tm->HandleSubtxnCommit(child, parent, top); });
         });

  parent->live_subtxns.erase(txn.tid);
  txns_.erase(txn.tid);
}

void TransactionManager::HandleSubtxnCommit(const TransactionId& child,
                                            const TransactionId& parent,
                                            const TransactionId& top) {
  rm_.MergeChild(child, parent);
  Txn* txn = Find(top);
  if (txn != nullptr) {
    for (CommitParticipant* s : txn->servers) {
      s->OnSubtxnCommit(child, parent);
    }
    FanOut(cm_.InfoFor(top).children, /*serialized=*/false,
           [&](NodeId grandchild, TransactionManager& gtm) {
             cm_.SendDatagram(grandchild, "subtxn-commit", [gtm = &gtm, child, parent, top] {
               gtm->HandleSubtxnCommit(child, parent, top);
             });
           });
  }
}

void TransactionManager::HandleSubtxnAbort(const TransactionId& child,
                                           const TransactionId& top) {
  rm_.UndoTransaction(child, top);
  Txn* txn = Find(top);
  if (txn != nullptr) {
    for (CommitParticipant* s : txn->servers) {
      s->OnAbort(child);
    }
    FanOut(cm_.InfoFor(top).children, /*serialized=*/false,
           [&](NodeId grandchild, TransactionManager& gtm) {
             cm_.SendDatagram(grandchild, "subtxn-abort",
                              [gtm = &gtm, child, top] { gtm->HandleSubtxnAbort(child, top); });
           });
  }
}

}  // namespace tabs::txn
