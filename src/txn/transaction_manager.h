// The Transaction Manager: transaction identifiers, the transaction tree,
// and the tree-structured two-phase commit protocol (Section 3.2.3).
//
// One Transaction Manager runs per node. Applications and data servers send
// it messages to begin, commit, or abort transactions; data servers announce
// themselves the first time they perform an operation for a transaction
// (JoinServer), and the Communication Manager announces remote involvement.
// The commit protocol is two-phase over the transaction's spanning tree:
// "each node serves as coordinator for the nodes that are its children."
// Under WorldOptions::commit_mode = kPaxosCommit the same driver makes the
// decision durable at 2F+1 acceptors instead of in the coordinator's forced
// commit record (two-phase commit is Paxos Commit with F = 0); see
// two_phase_commit.cc for where the mode branches.
//
// Subtransactions use the same machinery: BeginTransaction of a non-null
// parent creates a subtransaction that synchronizes as a separate
// transaction, cannot commit before its parent, and may abort independently
// (Section 2.1.3). EndTransaction of a subtransaction merges its locks, undo
// records and joined servers into the parent.

#ifndef TABS_TXN_TRANSACTION_MANAGER_H_
#define TABS_TXN_TRANSACTION_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/comm/comm_manager.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/recovery/recovery_manager.h"
#include "src/txn/op_queue.h"
#include "src/txn/paxos_commit.h"

namespace tabs::log {
class GroupCommit;
}

namespace tabs::txn {

// A local data server's participation hooks. DataServer implements this.
class CommitParticipant {
 public:
  virtual ~CommitParticipant() = default;
  virtual const std::string& participant_name() const = 0;
  // Did this server log updates on behalf of `tid`?
  virtual bool HasUpdates(const TransactionId& tid) = 0;
  // Outcome callbacks: release locks and per-transaction state. Undo (on
  // abort) has already been performed through the Recovery Manager.
  virtual void OnCommit(const TransactionId& tid) = 0;
  virtual void OnAbort(const TransactionId& tid) = 0;
  // Subtransaction commit: child's locks and state merge into the parent.
  virtual void OnSubtxnCommit(const TransactionId& child, const TransactionId& parent) = 0;
  // After crash recovery, re-acquire the lock protecting an in-doubt
  // transaction's update (TABS nodes "restrict access to some data until
  // other nodes recover").
  virtual void RelockForRecovery(const TransactionId& tid, const log::LogRecord& rec) = 0;

  // --- queue-oriented execution hooks (src/txn/op_queue.h) -------------------
  // All three default to no-ops so servers that keep strict two-phase locking
  // are unaffected; DataServer overrides them when the mode is on.
  // Release `tid`'s locks now, before its outcome record is durable. A true
  // `taint` means the outcome is still undecided (prepare-time release): the
  // released objects must be registered with the op queue first so successors
  // pick up a commit dependency.
  virtual void OnEarlyRelease(const TransactionId& tid, bool taint) {}
  // A cascade abort is consuming `tid`: wake any lock/escrow wait it is
  // parked in with a cancellation, so its task unwinds instead of being
  // granted a lock under a dead transaction.
  virtual void CancelLockWaits(const TransactionId& tid) {}
  // An abort fully settled (undo complete, grant veto lifted): re-run the
  // grant sweep for waiters the veto parked.
  virtual void OnAbortSettled(const TransactionId& tid) {}
};

enum class TxnState {
  kActive,
  kPreparing,
  kPrepared,   // in doubt: awaiting the parent's verdict
  kCommitted,
  kAborted,
};

// What a node can tell another about a transaction's outcome (in-doubt
// resolution). Each asker reads kUnknown its own way: a child presumes abort
// from its parent; a sibling's kUnknown is no answer.
enum class TxnKnowledge {
  kCommitted,
  kAborted,
  kUndecided,  // still active, preparing or prepared here: no verdict yet
  kUnknown,    // never heard of it, or forgotten
};

class TransactionManager : public comm::TransactionTreeListener,
                           public recovery::TxnOutcomeSource {
 public:
  TransactionManager(kernel::Node& node, recovery::RecoveryManager& rm,
                     comm::CommManager& cm);
  ~TransactionManager();

  void SetPeers(const std::map<NodeId, TransactionManager*>* peers) { peers_ = peers; }

  // Commit protocol selection (WorldOptions::commit_mode). kPaxosCommit
  // tolerates `paxos_f` acceptor failures with 2F+1 acceptors per
  // transaction; kTwoPhase is the paper-faithful default.
  void SetCommitMode(CommitMode mode, int paxos_f) {
    commit_mode_ = mode;
    paxos_->SetF(paxos_f);
  }
  CommitMode commit_mode() const { return commit_mode_; }
  PaxosCommit& paxos() { return *paxos_; }

  // Queue-oriented execution (WorldOptions::queue_execution): update locks
  // release as soon as the commit/prepare record is appended — before it is
  // forced — with commit dependencies tracked through the per-node OpQueue.
  // Default off; every paper-faithful schedule is byte-identical.
  void SetQueueMode(bool on) {
    op_queue_.Enable(on);
    op_queue_.Attach(&node_.substrate().scheduler());
  }
  bool queue_mode() const { return op_queue_.enabled(); }
  OpQueue& op_queue() { return op_queue_; }
  // Queue mode: true when new operations on behalf of `tid` must be refused
  // because a cascade abort consumed (or is consuming) the transaction. Data
  // servers consult this before dispatching an operation so a zombie task —
  // one whose transaction was cascade-aborted while it ran — cannot log new
  // records under the dead id.
  bool RefusesOps(const TransactionId& tid) const;

  // --- application interface (Table 3-2) ------------------------------------
  // BeginTransaction: null parent creates a top-level transaction.
  TransactionId Begin(const TransactionId& parent = kNullTransaction);
  // EndTransaction: commits. For a top-level transaction this runs the
  // tree-structured two-phase commit; for a subtransaction it merges into
  // the parent. Returns kOk on commit, kAborted/kVoteNo/kNodeDown otherwise.
  Status End(const TransactionId& tid);
  // AbortTransaction: rolls back `tid` (and, transitively, its live
  // subtransactions). A subtransaction abort does not disturb the parent.
  void Abort(const TransactionId& tid);

  TxnState StateOf(const TransactionId& tid) const;
  bool IsAborted(const TransactionId& tid) const;
  TransactionId TopOf(const TransactionId& tid) const;

  // --- data server interface --------------------------------------------------
  // First operation by `server` on behalf of `tid` at this node. Remote
  // operations are tracked under the top-level transaction (whose entry the
  // Communication Manager created on first contact); local ones under the
  // (sub)transaction itself.
  void JoinServer(const TransactionId& tid, const TransactionId& top,
                  CommitParticipant* server);

  // Single-server crash support (Section 7 future work): transactions that
  // used a crashed server, and removal of its dangling participant pointer
  // before those transactions are aborted.
  std::vector<TransactionId> TransactionsInvolving(const CommitParticipant* server) const;
  void DetachParticipant(const CommitParticipant* server);

  // --- Communication Manager callbacks (TransactionTreeListener) --------------
  void OnRemoteChildJoined(const TransactionId& tid, NodeId child) override;
  void OnRemoteParentObserved(const TransactionId& tid, NodeId parent) override;

  // --- commit participant side (invoked via datagram handlers) ---------------
  // The one prepare routine of both commit modes: prepares the subtree rooted
  // at this node for `parent_node` and returns its vote. `siblings` are the
  // fellow participants (for cooperative termination; under Paxos Commit the
  // instance set a takeover drives) and `acceptors` the Paxos acceptor set
  // (empty under 2PC). The paxos-prepare handler passes `votes`: the vote is
  // then also relayed to the leader through PaxosCommit::SendVote — the leader
  // turns the collected votes into ballot-0 accept bundles, or skips the
  // acceptor round entirely when no participant voted Prepared.
  PaxosVote HandlePrepare(const TransactionId& tid, NodeId parent_node,
                          const std::vector<NodeId>& siblings = {},
                          const std::vector<NodeId>& acceptors = {},
                          VoteChannelPtr votes = nullptr);
  void HandleCommit(const TransactionId& tid);
  void HandleAbortMsg(const TransactionId& tid);
  // --- Paxos Commit participant side (kPaxosCommit mode only) -----------------
  // A decided verdict arriving from a takeover leader: applies commit/abort
  // to a transaction prepared here.
  void HandlePaxosVerdict(const TransactionId& tid, bool committed);
  // Dead-coordinator takeover sweep (folded into the orphan-sweep machinery):
  // every prepared transaction whose 2PC parent is `dead` and that has an
  // acceptor set is driven to a decision through the acceptors — in-doubt
  // transactions release their locks without coordinator recovery.
  void ResolvePaxosOrphansOf(NodeId dead);

  // Subtransaction outcome propagation to remote participants: locks and
  // undo records of `child` merge into `parent` (commit) or unwind (abort).
  void HandleSubtxnCommit(const TransactionId& child, const TransactionId& parent,
                          const TransactionId& top);
  void HandleSubtxnAbort(const TransactionId& child, const TransactionId& top);
  // Remote query for a transaction's outcome (in-doubt resolution after a
  // coordinator or participant crash): asked of a prepared transaction's
  // parent, and of its siblings for cooperative termination (Dwork/Skeen).
  TxnKnowledge KnowledgeOf(const TransactionId& tid) const;

  // --- crash recovery (TxnOutcomeSource) ---------------------------------------
  void ObserveTxnRecord(const log::LogRecord& rec) override;
  recovery::TxnOutcome OutcomeOf(const TransactionId& top) override;

  // After RecoveryManager::Recover: every in-doubt transaction becomes a
  // prepared Txn again, rebuilt from its replayed prepare record (or, for a
  // single-server recovery on a live node, the Txn that still holds it). The
  // named participants re-lock its objects and join it, so its verdict
  // releases every server it touched.
  void PostRecovery(const recovery::RecoveryStats& stats,
                    const std::map<std::string, CommitParticipant*>& participants);
  // Crash recovery only (not single-server repair, not first boot): moves
  // this node into a fresh transaction-id incarnation and forces a NODE_EPOCH
  // record so the bump survives another crash. Guarantees that ids the dead
  // incarnation minted but never logged — alive only as orphan state on
  // remote participants — can never be re-minted and aliased.
  void BeginNewIncarnation();
  // Presumed abort for orphans: rolls back every ACTIVE transaction whose
  // spanning-tree parent is `dead` and that was initiated remotely. Such a
  // transaction can never prepare (its coordinator's volatile state died
  // with it), so aborting is safe the instant the session layer reports the
  // node down. Prepared transactions are untouched — they are in doubt and
  // resolve through ResolveInDoubt.
  void AbortRemoteOrphansOf(NodeId dead);
  // Contacts the in-doubt transaction's parent node for the verdict and
  // applies it locally. Returns the outcome, or kNodeDown while no node asked
  // knows it (unreachable, or in doubt itself).
  Status ResolveInDoubt(const TransactionId& tid);
  // The transactions prepared here and awaiting their verdict.
  std::vector<TransactionId> InDoubt() const;

  // Active-transaction table for checkpoints.
  std::vector<recovery::RecoveryManager::ActiveTxn> ActiveTransactions() const;

  // "Checkpoints are performed at intervals determined by the transaction
  // manager" (Section 3.2.2): after a commit, if at least `interval` virtual
  // time has passed since the last checkpoint, take one. 0 disables.
  void SetCheckpointInterval(SimTime interval) { checkpoint_interval_ = interval; }
  int checkpoint_count() const { return checkpoints_taken_; }

  sim::Substrate& substrate() { return node_.substrate(); }

  // Routes commit/prepare-record forces through the node's group-commit
  // daemon instead of a per-transaction Force. Null (the default) or a
  // disabled daemon preserves the paper-faithful per-transaction behaviour.
  void SetGroupCommit(log::GroupCommit* gc) { group_commit_ = gc; }

  // Vote/ack wait budget for the commit protocol (default 10 s virtual).
  void SetVoteTimeout(SimTime timeout_us) { vote_timeout_ = timeout_us; }
  SimTime vote_timeout() const { return vote_timeout_; }

 private:
  struct Txn {
    TransactionId tid;
    TransactionId parent;           // null for top-level
    TransactionId top;
    TxnState state = TxnState::kActive;
    NodeId parent_node = kInvalidNode;  // 2PC tree parent (kInvalid: rooted here)
    std::vector<CommitParticipant*> servers;
    std::set<TransactionId> live_subtxns;
    std::set<NodeId> update_children;  // children that voted yes (not read-only)
    std::vector<NodeId> siblings;      // fellow participants (from the prepare)
    std::vector<NodeId> acceptors;     // Paxos Commit: the 2F+1 acceptor set
                                       // (empty: plain 2PC governs this txn)
    bool born_here = true;
    // Exactly one task may drive this transaction's abort. Whoever sets the
    // flag owns the whole path through AbortSubtree and ForgetTxn; every
    // other abort/commit attempt that observes it backs off — re-entering
    // mid-undo would apply the undo chain twice and then dangle the Txn&.
    bool abort_started = false;
  };

  // What a prepare record names: whom a prepared transaction asks for its
  // verdict — the 2PC parent, the sibling participants (cooperative
  // termination; the instance set under Paxos Commit) — the Paxos acceptor
  // set (empty under 2PC), and the children it passes the verdict down to.
  struct PrepareRecord {
    NodeId parent_node = kInvalidNode;
    std::vector<NodeId> siblings;
    std::vector<NodeId> acceptors;
    std::vector<NodeId> children;
  };

  Txn* Find(const TransactionId& tid);
  const Txn* Find(const TransactionId& tid) const;
  // What the prepare record of a transaction prepared here names, copied out
  // of its Txn. Empty when `tid` is not prepared here — it never was, or its
  // verdict has been applied.
  std::optional<PrepareRecord> PreparedRecordOf(const TransactionId& tid) const;
  // Applies a verdict to a transaction in doubt here: HandleCommit or
  // HandleAbortMsg.
  void ApplyVerdict(const TransactionId& tid, bool committed);
  Txn& GetOrCreateRemote(const TransactionId& tid, NodeId parent_node);
  // The unguarded abort path: sets abort_started and unwinds. Abort() and
  // CascadeAbort() are the guarded entry points.
  void AbortImpl(Txn& txn);

  // Implemented in two_phase_commit.cc.
  // The commit driver of both modes: prepare, collect votes, decide, make the
  // decision durable, propagate.
  Status CommitTopLevel(Txn& txn);
  // 2PC phase one over the subtree rooted here (every participant's subtree,
  // and the whole tree under 2PC): the subtree's collective vote.
  PaxosVote PrepareSubtree(Txn& txn);
  // HandlePrepare without the vote relay.
  PaxosVote PrepareParticipant(const TransactionId& tid, NodeId parent_node,
                               const std::vector<NodeId>& siblings,
                               const std::vector<NodeId>& acceptors);
  // Phase one downward: a prepare datagram to every child, in parallel —
  // paxos-prepare from the Paxos `leader`, 2pc-prepare otherwise — whose
  // votes arrive on `votes`. False (nothing sent) when a child is already
  // dead.
  bool SendPrepares(const Txn& txn, const VoteChannelPtr& votes, bool leader);
  // Local prepare: asks each joined server whether it wrote updates.
  bool PrepareLocalServers(const Txn& txn);
  // Pops votes for `tid` into `vote_of` (which holds this node's own) until
  // it has one per participant; children voting Prepared join
  // update_children. False when the single vote deadline passed first, or
  // the transaction was erased while it waited.
  bool CollectVotes(const TransactionId& tid, VoteChannel& votes, size_t participants,
                    std::map<NodeId, PaxosVote>& vote_of);
  // Queue mode: waits out `tid`'s commit dependencies. kOk to go on;
  // otherwise the transaction is gone — kAborted when a cascade consumed it,
  // kVoteNo when the wait failed and this call aborted it.
  Status AwaitPredecessorsOrAbort(const TransactionId& tid);
  // This node votes Prepared: forces the prepare record (see ForceTxnRecord
  // for `deferred`). False when an abort consumed the transaction meanwhile.
  bool BecomePrepared(Txn& txn, Lsn* deferred);
  void CommitSubtree(Txn& txn, bool is_root);
  void AbortSubtree(Txn& txn, bool notify_children);
  void CommitSubtransaction(Txn& txn);
  TransactionManager* Peer(NodeId node) const;

  // The one fan-out of the commit code. Walks `nodes` in order and hands
  // every live peer to `send(node, peer)`; dead peers are skipped. At this
  // node's own position it runs `at_self` in place — or skips the position
  // when no `at_self` is given. With `serialized` (the commit-protocol
  // fan-outs: prepares, commits, accept bundles, both takeover phases), each
  // send after the first charges half a datagram time first: the sender
  // serializes its sends (the paper's half-datagram estimate, Table 5-3
  // note). The in-place call is not a send and charges nothing. Returns how
  // many nodes were reached, the in-place call included.
  template <typename Nodes, typename Send, typename AtSelf = std::nullptr_t>
  size_t FanOut(const Nodes& nodes, bool serialized, Send&& send, AtSelf&& at_self = nullptr) {
    sim::Substrate& sub = node_.substrate();
    size_t sends = 0;
    size_t in_place = 0;
    for (NodeId n : nodes) {
      if (n == node_.id()) {
        if constexpr (!std::is_null_pointer_v<std::decay_t<AtSelf>>) {
          at_self();
          ++in_place;
        }
        continue;
      }
      TransactionManager* peer = Peer(n);
      if (peer == nullptr) {
        continue;
      }
      if (serialized && sends > 0) {
        sub.scheduler().Charge(sub.CostOf(sim::Primitive::kDatagram) / 2);
      }
      ++sends;
      send(n, *peer);
    }
    return sends + in_place;
  }

  // Appends the record and returns its LSN; with `force`, also blocks until
  // it is stable (ForceLsn). Queue mode splits the two so locks can release
  // between append and force.
  Lsn AppendTxnRecord(log::RecordType type, const Txn& txn, bool force);
  // Blocks until `lsn` is stable. Paxos acceptors force through it too, at
  // the price of a 2PC prepare force.
  void ForceLsn(Lsn lsn);
  // Appends and forces `txn`'s commit or prepare record. Queue mode releases
  // the locks between append and force — tainted for a prepare, whose
  // outcome is still undecided. With `deferred` (and queue mode off) the
  // record is only appended and its LSN stored there, for the caller's next
  // force to cover.
  void ForceTxnRecord(log::RecordType type, Txn& txn, Lsn* deferred = nullptr);
  // Queue mode: abort a queued successor of an aborting early-releaser. The
  // victim's entry is consumed here; its own task observes the abort through
  // the RefusesOps / cascading-set guards.
  void CascadeAbort(const TransactionId& tid);
  void ForgetTxn(const TransactionId& tid);
  void MaybeCheckpoint();

  kernel::Node& node_;
  recovery::RecoveryManager& rm_;
  comm::CommManager& cm_;
  const std::map<NodeId, TransactionManager*>* peers_ = nullptr;
  log::GroupCommit* group_commit_ = nullptr;

  // Transaction ids are (incarnation_ << kIncarnationShift) | next_sequence_.
  // The counter restarts at 1 with every incarnation; the incarnation only
  // moves forward (replay of NODE_EPOCH records, then BeginNewIncarnation).
  std::uint64_t incarnation_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::map<TransactionId, Txn> txns_;

  // Durable knowledge rebuilt from the log by ObserveTxnRecord, plus
  // outcomes decided since; consulted by StateOf and OutcomeOf.
  std::map<TransactionId, recovery::TxnOutcome> logged_outcomes_;
  // Prepare records replayed by ObserveTxnRecord (its only writer), read by
  // PostRecovery to rebuild each in-doubt transaction's Txn.
  std::map<TransactionId, PrepareRecord> logged_prepares_;

  SimTime checkpoint_interval_ = 0;
  SimTime last_checkpoint_time_ = 0;
  int checkpoints_taken_ = 0;

  // Commit-protocol tuning (paper Section 5.3): when the architecture model
  // says optimized_commit, phase two leaves the latency-critical path.
  // How long the coordinator waits for each vote or ack before treating the
  // child as failed (WorldOptions::vote_timeout_us; fault sweeps tighten it).
  SimTime vote_timeout_ = 10'000'000;  // 10 s virtual

  CommitMode commit_mode_ = CommitMode::kTwoPhase;
  std::unique_ptr<PaxosCommit> paxos_;

  // True when an abort of `txn` — or of the top-level transaction it belongs
  // to — is already in flight on some other task.
  bool AbortInProgress(const Txn& txn) const;

  // Queue-oriented execution state (volatile; empty when the mode is off).
  OpQueue op_queue_;

  friend class PaxosCommit;
};

}  // namespace tabs::txn

#endif  // TABS_TXN_TRANSACTION_MANAGER_H_
