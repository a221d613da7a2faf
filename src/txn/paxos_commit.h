// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"): the
// non-blocking commit mode behind WorldOptions::commit_mode = kPaxosCommit.
//
// Plain two-phase commit blocks: if the coordinator dies after collecting
// votes but before any commit datagram lands, every prepared participant
// holds its locks until the coordinator node recovers (the window the paper
// concedes and the crash-point explorer demonstrates). Paxos Commit removes
// the single point of knowledge by running one Paxos consensus instance per
// participant vote, with a per-transaction set of 2F+1 acceptors chosen
// deterministically from the cluster membership:
//
//  * Ballot 0 (the fast path): each participant prepares exactly as in 2PC,
//    then sends its vote to the leader, which relays every instance's
//    pre-assigned phase-2a value to the acceptors (the coordinator-relay
//    variant of Gray & Lamport §6: one extra message delay, far fewer
//    messages). All instances bound for one acceptor ride a single
//    accept-bundle datagram, and the acceptor logs ONE forced multi-instance
//    acceptance covering the whole bundle before it replies — the 2F+1 × P
//    fan-out collapses to 2F+1 datagrams and one force per acceptor. An
//    instance is decided once F+1 acceptors accepted; the transaction
//    commits iff every instance decided Prepared or ReadOnly.
//  * Read-only fast path: when every vote arrives and none is Prepared the
//    leader answers as soon as the last vote lands — no ballot-0 instances,
//    no acceptor forces. Safe because nothing is Prepared anywhere: every
//    participant voted ReadOnly (locks already released) or Aborted (already
//    rolled back), so there is no in-doubt state a takeover could need to
//    resolve, and a takeover that runs anyway decides Aborted for the
//    never-started instances, which is indistinguishable to every
//    participant. A vote that never ARRIVES is different: its participant
//    may be crashed holding a durable prepare, so the leader must resolve
//    through a takeover — the verdict has to be learned at the acceptors,
//    which is where that participant's recovery will look for it.
//  * Takeover (the non-blocking guarantee): any node that knows the
//    participant and acceptor sets — they ride in every prepare record and
//    prepare datagram — can drive all instances to a decision with a fresh
//    ballot: phase 1a to the acceptors, adopt the highest accepted vote per
//    instance (Aborted for instances no quorum member has seen), phase 2a,
//    decided at F+1 acks. Tolerates F acceptor failures AND the death of
//    coordinator and every participant: the decision lives at the acceptors.
//
// Acceptor state (promised ballot, accepted votes, learned outcome) is
// logged through the node's common WAL and rebuilt by the analysis pass, so
// acceptors crash-recover into the same instance. The commit point moves
// from the coordinator's forced commit record to the F+1-th acceptor's
// bundle acceptance (which covers every instance at once); the coordinator's
// own commit record is a lazy hint.
//
// Two-phase commit is this protocol with F = 0 (Gray & Lamport section 4),
// so both modes share one commit driver and one participant prepare routine
// (two_phase_commit.cc); the driver calls into this engine only where the
// decision is made durable. This file holds the engine itself.

#ifndef TABS_TXN_PAXOS_COMMIT_H_
#define TABS_TXN_PAXOS_COMMIT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/common/types.h"
#include "src/log/log_record.h"
#include "src/recovery/recovery_manager.h"
#include "src/sim/scheduler.h"

namespace tabs::txn {

class TransactionManager;

// Which protocol EndTransaction runs for a top-level commit.
enum class CommitMode {
  kTwoPhase,     // the paper's tree-structured 2PC (default)
  kPaxosCommit,  // non-blocking: 2F+1 acceptors replicate the decision
};

// The process-wide default commit mode: kTwoPhase unless the environment
// variable TABS_COMMIT_MODE says "paxos". WorldOptions::commit_mode defaults
// to this, which is how CI runs the whole test suite under either protocol
// without per-test plumbing; tests that exercise protocol-specific behaviour
// pin the mode explicitly.
CommitMode DefaultCommitMode();

using Ballot = std::int32_t;

// A participant's vote, in both commit modes (under 2PC, a subtree's vote to
// its parent). Under Paxos Commit a participant's instance decides its vote
// and the transaction commits iff no instance decides kAborted. The values
// are persisted in kPaxosAccept/kPaxosLearn records: never renumber them.
enum class PaxosVote : std::int8_t {
  kNone = 0,
  kPrepared = 1,
  kReadOnly = 2,
  kAborted = -1,
};

// One accepted (participant, ballot, vote) triple at an acceptor.
struct InstanceValue {
  NodeId participant = kInvalidNode;
  Ballot ballot = 0;
  PaxosVote vote = PaxosVote::kNone;
};

// Phase-2b reply: `acceptor` accepted every instance of `tid` in the bundle
// it was sent at `ballot` (ok), or rejected the ballot (takeover phase 2
// only). One reply covers the whole bundle — the acceptor logs all instances
// in one forced record, so there is no per-instance acknowledgement.
struct PaxosAccepted {
  TransactionId tid;
  NodeId acceptor = kInvalidNode;
  Ballot ballot = 0;
  bool ok = true;
};
using AcceptChannel = sim::Channel<PaxosAccepted>;
using AcceptChannelPtr = std::shared_ptr<AcceptChannel>;

// A participant's vote for its own instance, relayed to the ballot-0 leader
// (the coordinator) rather than straight to the acceptors.
struct PaxosVoteMsg {
  TransactionId tid;
  NodeId participant = kInvalidNode;
  PaxosVote vote = PaxosVote::kNone;
};
using VoteChannel = sim::Channel<PaxosVoteMsg>;
using VoteChannelPtr = std::shared_ptr<VoteChannel>;

// Phase-1b reply: promise (with everything this acceptor has accepted for
// the transaction's instances) or rejection, plus any learned outcome.
struct PaxosPromise {
  NodeId acceptor = kInvalidNode;
  bool ok = false;
  Ballot promised = 0;
  int learned = 0;  // +1 committed, -1 aborted, 0 unknown
  std::vector<InstanceValue> accepted;
};
using PromiseChannel = sim::Channel<PaxosPromise>;

// The per-node Paxos Commit engine: acceptor role for any transaction whose
// acceptor set includes this node, plus the leader-side primitives the
// shared commit driver (TransactionManager::CommitTopLevel, in
// two_phase_commit.cc) calls where Paxos Commit makes a decision durable, and
// the takeover path. Owned by (and a friend of) the TransactionManager; peers
// are reached through the TM's peer table with datagrams, exactly like the
// 2PC messages.
class PaxosCommit {
 public:
  explicit PaxosCommit(TransactionManager& tm) : tm_(tm) {}

  void SetF(int f) { f_ = f < 0 ? 0 : f; }
  int f() const { return f_; }

  // The 2F+1 acceptors for `tid`: a deterministic rotation of the sorted
  // cluster membership keyed by the transaction counter, so concurrent
  // transactions spread acceptor load. Clamped to the largest odd set the
  // membership supports. Includes dead nodes on purpose: the set must be a
  // pure function of (membership, tid) so every participant, standby leader
  // and recovered node derives the same one.
  std::vector<NodeId> ChooseAcceptors(const TransactionId& tid) const;
  static size_t Quorum(const std::vector<NodeId>& acceptors) {
    return acceptors.size() / 2 + 1;
  }

  // --- participant/leader side ----------------------------------------------
  // Relay this node's vote for its own instance of `tid` to `leader` (pushed
  // locally when the leader is this node). The leader turns the collected
  // votes into ballot-0 accept bundles — or skips the acceptor round when no
  // vote was Prepared.
  void SendVote(const TransactionId& tid, PaxosVote vote, NodeId leader,
                VoteChannelPtr votes);

  // Ballot-0 phase 2a, coalesced: ONE accept-bundle datagram per acceptor
  // node carries every instance's pre-assigned value; then waits, against one
  // vote timeout, for the acceptances. Returns true once a quorum (F+1) of
  // acceptors has durably accepted every instance — the decision point.
  // False (short of a quorum) means the outcome must be read through
  // Resolve: the bundles may have been logged while their replies were lost.
  // When `prepare_lsn` is set, the caller deferred its own prepare-record
  // force: this node's acceptance (forced, and later in the WAL) covers it in
  // the same stable write, and the LSN is durable before any remote bundle
  // leaves — a remote quorum must never decide Prepared while the
  // coordinator's redo is still volatile.
  bool AcceptAtBallotZero(const TransactionId& tid, const std::vector<InstanceValue>& values,
                          const std::vector<NodeId>& acceptors, Lsn prepare_lsn = kNullLsn);

  // Takeover: drive every instance of `tid` to a decision with a fresh
  // ballot (phase 1, value selection, phase 2). Returns +1 commit, -1 abort,
  // or 0 if no acceptor quorum is reachable right now (still in doubt).
  // On a decision, learn datagrams go to the acceptors and verdict datagrams
  // to the other participants, so every in-doubt peer unblocks too.
  // Concurrent callers on one node are serialized per transaction (the
  // second waits for the first's verdict); competing leaders on different
  // nodes de-synchronize with a deterministic node-keyed retry backoff.
  int Resolve(const TransactionId& tid, const std::vector<NodeId>& participants,
              const std::vector<NodeId>& acceptors);

  // Learn datagrams to every acceptor (the local one applies directly).
  void BroadcastLearn(const TransactionId& tid, int outcome,
                      const std::vector<NodeId>& acceptors);

  // --- acceptor side (run on the acceptor's node via datagram handlers) -----
  // Ballot-0 2a: accept every instance in the bundle, log them as ONE forced
  // multi-instance kPaxosAccept record, and acknowledge the whole bundle to
  // `leader` with a single reply. Returns false (silently, no reply) when a
  // takeover moved past ballot 0 or the outcome is already learned.
  bool AcceptBundle(const TransactionId& tid, Ballot ballot,
                    const std::vector<InstanceValue>& values, NodeId leader,
                    AcceptChannelPtr replies);
  // Phase 1a at `ballot`: promise (durably) or reject.
  PaxosPromise Promise(const TransactionId& tid, Ballot ballot);
  // Takeover phase 2a at `ballot`: accept values for every instance at once.
  bool AcceptAll(const TransactionId& tid, Ballot ballot,
                 const std::vector<InstanceValue>& values);
  // The decided outcome (+1/-1) reached this acceptor.
  void Learn(const TransactionId& tid, int outcome);
  int LearnedOutcome(const TransactionId& tid) const;

  // --- recovery --------------------------------------------------------------
  // Analysis-pass replay of kPaxos* records: rebuilds promised ballots,
  // accepted votes and learned outcomes.
  void ObserveRecord(const log::LogRecord& rec);
  // Undecided acceptor state pins the log (as synthetic prepared entries in
  // the active-transaction table) so reclamation cannot truncate an accept
  // record that a takeover may still need after this acceptor's next crash.
  std::vector<recovery::RecoveryManager::ActiveTxn> PinnedInstances() const;

 private:
  struct AcceptorState {
    Ballot promised = 0;
    std::map<NodeId, InstanceValue> accepted;  // by participant
    int learned = 0;
    Lsn first_lsn = kNullLsn;
  };

  NodeId self() const;
  Ballot NextBallot();
  Lsn AppendPaxosRecord(log::RecordType type, const TransactionId& tid,
                        NodeId participant, Ballot ballot, PaxosVote vote);
  // Records acceptance of every value at `ballot` and appends ONE (possibly
  // multi-instance) kPaxosAccept record covering all of them.
  Lsn AppendAcceptRecord(const TransactionId& tid, Ballot ballot,
                         const std::vector<InstanceValue>& values);
  // The one quorum wait, behind the ballot-0 accept round and both takeover
  // phases. Pops at most `sent` replies (one per message sent: a duplicated
  // datagram cannot stretch the wait) against one vote-timeout deadline,
  // charging one CM -> TM small message per reply popped, and asks `tally`
  // what each reply is worth: kCount counts its acceptor toward `quorum`,
  // kSkip ignores it, kStop ends the wait at once (phase 1 adopting a learned
  // outcome). Each acceptor counts ONCE, so a duplicated promise or ack from
  // one acceptor can never pass as a quorum. True once `quorum` distinct
  // acceptors counted.
  enum class Tally { kSkip, kCount, kStop };
  template <typename Reply, typename TallyFn>
  bool AwaitQuorum(sim::Channel<Reply>& replies, size_t sent, size_t quorum, TallyFn tally);
  // The ballot-driving loop behind Resolve (which adds the per-transaction
  // single-leader guard around it).
  int RunTakeover(const TransactionId& tid, const std::vector<NodeId>& participants,
                  const std::vector<NodeId>& acceptors);

  TransactionManager& tm_;
  int f_ = 1;
  std::map<TransactionId, AcceptorState> states_;
  int takeover_round_ = 0;
  // Transactions with a takeover in flight on this node, and the local
  // callers parked until that takeover returns its verdict.
  std::set<TransactionId> resolving_;
  std::map<TransactionId, std::vector<std::shared_ptr<sim::Channel<int>>>> resolve_waiters_;
};

}  // namespace tabs::txn

#endif  // TABS_TXN_PAXOS_COMMIT_H_
