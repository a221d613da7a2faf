// The Paxos Commit engine (see paxos_commit.h for the protocol overview):
// the acceptor role, the leader-side accept round and takeover, and WAL
// replay of acceptor state — plus the TransactionManager's verdict and
// dead-coordinator handlers. The coordinator and participant paths are the
// shared commit driver in two_phase_commit.cc; a transaction committed
// under kPaxosCommit pays exactly the 2PC prices plus the acceptor traffic,
// which is what bench/commit_ablation measures.

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>

#include "src/sim/fault_injector.h"
#include "src/txn/transaction_manager.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

namespace {
// Ballot b belongs to node (b % kBallotStride) in round (b / kBallotStride):
// concurrent takeover leaders can never mint the same ballot, and a leader
// that loses phase 1 leapfrogs the winner by jumping past its round.
constexpr Ballot kBallotStride = 1024;
// Base unit of the takeover retry backoff: multiplied by the attempt number
// and the node id, so no two nodes ever share a retry schedule.
constexpr SimTime kTakeoverBackoffUs = 50'000;
}  // namespace

CommitMode DefaultCommitMode() {
  const char* mode = std::getenv("TABS_COMMIT_MODE");
  if (mode != nullptr && std::strcmp(mode, "paxos") == 0) {
    return CommitMode::kPaxosCommit;
  }
  return CommitMode::kTwoPhase;
}

// --- PaxosCommit helpers -----------------------------------------------------

NodeId PaxosCommit::self() const { return tm_.node_.id(); }

Ballot PaxosCommit::NextBallot() {
  ++takeover_round_;
  return static_cast<Ballot>(takeover_round_) * kBallotStride +
         static_cast<Ballot>(self() % kBallotStride);
}

std::vector<NodeId> PaxosCommit::ChooseAcceptors(const TransactionId& tid) const {
  std::vector<NodeId> members;
  if (tm_.peers_ != nullptr) {
    for (const auto& [id, tm] : *tm_.peers_) {
      members.push_back(id);  // includes dead nodes: pure function of membership
    }
  }
  if (members.empty()) {
    members.push_back(self());
  }
  size_t want = static_cast<size_t>(2 * f_ + 1);
  if (want > members.size()) {
    want = members.size();
  }
  if (want % 2 == 0) {
    --want;  // an even set tolerates no more failures than the next odd one down
  }
  size_t start = tid.counter() % members.size();
  std::vector<NodeId> out;
  out.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    out.push_back(members[(start + i) % members.size()]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Lsn PaxosCommit::AppendPaxosRecord(RecordType type, const TransactionId& tid,
                                   NodeId participant, Ballot ballot, PaxosVote vote) {
  LogRecord rec;
  rec.type = type;
  rec.owner = tid;
  rec.top = tid;
  rec.paxos_participant = participant;
  rec.paxos_ballot = ballot;
  rec.paxos_vote = static_cast<std::int8_t>(vote);
  Lsn lsn = tm_.rm_.log().Append(std::move(rec));
  AcceptorState& st = states_[tid];
  if (st.first_lsn == kNullLsn) {
    st.first_lsn = lsn;
  }
  return lsn;
}

// --- participant/leader side -------------------------------------------------

void PaxosCommit::SendVote(const TransactionId& tid, PaxosVote vote, NodeId leader,
                           VoteChannelPtr votes) {
  sim::Substrate& sub = tm_.node_.substrate();
  // The vote is computed but not yet on the wire to the leader: a crash here
  // leaves the instance open, decided by takeover as Aborted.
  FAULT_POINT(sub, "paxos.vote-send");
  PaxosVoteMsg m;
  m.tid = tid;
  m.participant = self();
  m.vote = vote;
  if (leader == self()) {
    votes->Push(m);
    return;
  }
  if (tm_.Peer(leader) == nullptr) {
    return;  // dead leader: the orphan sweep resolves us through the acceptors
  }
  tm_.cm_.SendDatagram(leader, "paxos-vote", [votes, m] { votes->Push(m); });
}

bool PaxosCommit::AcceptAtBallotZero(const TransactionId& tid,
                                     const std::vector<InstanceValue>& values,
                                     const std::vector<NodeId>& acceptors, Lsn prepare_lsn) {
  NodeId me = self();
  auto replies = std::make_shared<AcceptChannel>(tm_.node_.substrate().scheduler());
  size_t sent = 0;
  // The local acceptor runs first, before anything reaches the wire: its
  // forced acceptance covers the caller's deferred prepare record (lower
  // LSN, same stable write), upholding the invariant that no remote quorum
  // can decide Prepared for this coordinator's instance while the
  // coordinator's redo is volatile.
  bool local = std::find(acceptors.begin(), acceptors.end(), me) != acceptors.end();
  if (local) {
    bool accepted = AcceptBundle(tid, 0, values, me, replies);
    ++sent;
    if (!accepted && prepare_lsn != kNullLsn) {
      tm_.ForceLsn(prepare_lsn);  // stale local acceptor: force the prepare directly
    }
  } else if (prepare_lsn != kNullLsn) {
    tm_.ForceLsn(prepare_lsn);  // no local acceptance to ride on
  }
  // Dead acceptors are skipped: a quorum of the others suffices.
  sent += tm_.FanOut(acceptors, /*serialized=*/true, [&](NodeId a, TransactionManager& atm) {
    tm_.cm_.SendBundledDatagram(a, "paxos-accept-bundle", values.size(),
                                [ap = atm.paxos_.get(), tid, values, me, replies] {
                                  ap->AcceptBundle(tid, 0, values, me, replies);
                                });
  });
  return AwaitQuorum(*replies, sent, Quorum(acceptors), [&tid](const PaxosAccepted& a) {
    return a.tid == tid && a.ballot == 0 && a.ok ? Tally::kCount : Tally::kSkip;
  });
}

template <typename Reply, typename TallyFn>
bool PaxosCommit::AwaitQuorum(sim::Channel<Reply>& replies, size_t sent, size_t quorum,
                              TallyFn tally) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  std::set<NodeId> counted;
  const SimTime deadline = sched.Now() + tm_.vote_timeout_;
  for (size_t i = 0; i < sent && counted.size() < quorum; ++i) {
    Reply r;
    if (!replies.PopWithTimeout(std::max<SimTime>(deadline - sched.Now(), 0), &r)) {
      break;
    }
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: reply arrived
    switch (tally(r)) {
      case Tally::kCount:
        counted.insert(r.acceptor);  // a duplicated reply counts nothing new
        break;
      case Tally::kStop:
        return false;
      case Tally::kSkip:
        break;
    }
  }
  return counted.size() >= quorum;
}

int PaxosCommit::Resolve(const TransactionId& tid, const std::vector<NodeId>& participants,
                         const std::vector<NodeId>& acceptors) {
  if (acceptors.empty()) {
    return 0;
  }
  // One takeover leader per transaction per node: the crash sweep and a
  // manual ResolveInDoubt would otherwise duel each other with competing
  // ballots from the SAME node. Later callers park until the verdict.
  sim::Scheduler& sched = tm_.node_.substrate().scheduler();
  if (resolving_.contains(tid)) {
    auto verdict = std::make_shared<sim::Channel<int>>(sched);
    resolve_waiters_[tid].push_back(verdict);
    int v = 0;
    verdict->PopWithTimeout(tm_.vote_timeout_, &v);
    return v;  // 0 when the leader also gave up (or never answered)
  }
  resolving_.insert(tid);
  int outcome = RunTakeover(tid, participants, acceptors);
  resolving_.erase(tid);
  auto it = resolve_waiters_.find(tid);
  if (it != resolve_waiters_.end()) {
    for (auto& ch : it->second) {
      ch->Push(outcome);
    }
    resolve_waiters_.erase(it);
  }
  return outcome;
}

int PaxosCommit::RunTakeover(const TransactionId& tid,
                             const std::vector<NodeId>& participants,
                             const std::vector<NodeId>& acceptors) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "paxos.takeover",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  // Takeover is starting but nothing durable has happened: a crash here
  // leaves the transaction in doubt for the next standby leader.
  FAULT_POINT(sub, "paxos.takeover");
  NodeId me = self();
  const size_t quorum = Quorum(acceptors);

  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      // Competing takeover leaders on different nodes would otherwise
      // outpromise each other forever. A node-keyed backoff (deterministic:
      // no randomness in the simulation) makes one leader retry strictly
      // before the others, so its round runs uncontended.
      sched.Charge(kTakeoverBackoffUs * static_cast<SimTime>(attempt) *
                   static_cast<SimTime>(1 + self() % kBallotStride));
      sched.Yield();
    }
    Ballot b = NextBallot();

    // ---- phase 1: promises from an acceptor quorum ----
    auto promises = std::make_shared<PromiseChannel>(sched);
    size_t sent = tm_.FanOut(
        acceptors, /*serialized=*/true,
        [&](NodeId a, TransactionManager& atm) {
          tm_.cm_.SendDatagram(
              a, "paxos-ballot", [ap = atm.paxos_.get(), acm = &atm.cm_, tid, b, me, promises] {
                PaxosPromise p = ap->Promise(tid, b);
                acm->SendDatagram(me, "paxos-promise", [promises, p] { promises->Push(p); });
              });
        },
        [&] { promises->Push(Promise(tid, b)); });

    std::vector<PaxosPromise> oks;
    Ballot highest = b;
    int learned = 0;
    const bool have_quorum = AwaitQuorum(*promises, sent, quorum, [&](const PaxosPromise& p) {
      if (p.learned != 0) {
        learned = p.learned;
        return Tally::kStop;
      }
      if (!p.ok) {
        highest = std::max(highest, p.promised);
        return Tally::kSkip;
      }
      oks.push_back(p);
      return Tally::kCount;
    });
    if (learned != 0) {
      return learned;  // an acceptor already knows the outcome: adopt it
    }
    if (!have_quorum) {
      if (highest <= b) {
        return 0;  // no quorum reachable: still in doubt, locks stay held
      }
      // A competing takeover holds a higher ballot: leapfrog its round.
      takeover_round_ = std::max(takeover_round_, highest / kBallotStride);
      continue;
    }

    // ---- value selection: for each instance the highest-ballot accepted
    // vote anywhere in the quorum; Aborted for instances no quorum member
    // has accepted (quorum intersection: a ballot-0 decision always leaves
    // at least one acceptance in ANY quorum, so a free choice is safe).
    std::vector<InstanceValue> values;
    values.reserve(participants.size());
    for (NodeId part : participants) {
      InstanceValue chosen{part, 0, PaxosVote::kAborted};
      bool found = false;
      for (const PaxosPromise& p : oks) {
        for (const InstanceValue& iv : p.accepted) {
          if (iv.participant != part) {
            continue;
          }
          if (!found || iv.ballot > chosen.ballot) {
            chosen.ballot = iv.ballot;
            chosen.vote = iv.vote;
          }
          found = true;
        }
      }
      values.push_back(chosen);
    }

    // ---- phase 2: accept-all at ballot b ----
    auto acks = std::make_shared<AcceptChannel>(sched);
    sent = tm_.FanOut(
        acceptors, /*serialized=*/true,
        [&](NodeId a, TransactionManager& atm) {
          tm_.cm_.SendDatagram(a, "paxos-accept", [ap = atm.paxos_.get(), acm = &atm.cm_, tid, b,
                                                   me, a, values, acks] {
            PaxosAccepted r{tid, a, b, ap->AcceptAll(tid, b, values)};
            acm->SendDatagram(me, "paxos-accept-ack", [acks, r] { acks->Push(r); });
          });
        },
        [&] { acks->Push(PaxosAccepted{tid, me, b, AcceptAll(tid, b, values)}); });

    bool nacked = false;
    if (!AwaitQuorum(*acks, sent, quorum, [&nacked](const PaxosAccepted& r) {
          nacked = nacked || !r.ok;
          return r.ok ? Tally::kCount : Tally::kSkip;
        })) {
      if (!nacked) {
        return 0;  // acceptors fell silent mid-phase-2: still in doubt
      }
      continue;  // outpromised between our phases: retry with a fresh ballot
    }

    // ---- decided: F+1 acceptors logged every instance's value ----
    int outcome = 1;
    for (const InstanceValue& v : values) {
      if (v.vote == PaxosVote::kAborted) {
        outcome = -1;
      }
    }
    // The decision stands at the acceptors but no learn/verdict datagram is
    // out yet: a crash here re-resolves to the SAME outcome (phase 1 of the
    // next takeover must see our phase-2 acceptances).
    FAULT_POINT(sub, "paxos.learn");
    BroadcastLearn(tid, outcome, acceptors);
    // A dead participant learns through ResolveInDoubt at its recovery.
    tm_.FanOut(participants, /*serialized=*/false, [&](NodeId part, TransactionManager& ptm) {
      tm_.cm_.SendDatagram(part, "paxos-verdict", [ptm = &ptm, tid, committed = outcome > 0] {
        ptm->HandlePaxosVerdict(tid, committed);
      });
    });
    return outcome;
  }
  return 0;  // repeatedly outpromised: give up for now, a later sweep retries
}

void PaxosCommit::BroadcastLearn(const TransactionId& tid, int outcome,
                                 const std::vector<NodeId>& acceptors) {
  tm_.FanOut(
      acceptors, /*serialized=*/false,
      [&](NodeId a, TransactionManager& atm) {
        tm_.cm_.SendDatagram(a, "paxos-learn",
                             [ap = atm.paxos_.get(), tid, outcome] { ap->Learn(tid, outcome); });
      },
      [&] { Learn(tid, outcome); });
}

// --- acceptor side -----------------------------------------------------------

Lsn PaxosCommit::AppendAcceptRecord(const TransactionId& tid, Ballot ballot,
                                    const std::vector<InstanceValue>& values) {
  assert(!values.empty());
  LogRecord rec;
  rec.type = RecordType::kPaxosAccept;
  rec.owner = tid;
  rec.top = tid;
  rec.paxos_ballot = ballot;
  rec.paxos_participant = values.front().participant;
  rec.paxos_vote = static_cast<std::int8_t>(values.front().vote);
  for (size_t i = 1; i < values.size(); ++i) {
    LogRecord::PaxosExtra e;
    e.participant = values[i].participant;
    e.vote = static_cast<std::int8_t>(values[i].vote);
    rec.paxos_extra.push_back(e);
  }
  AcceptorState& st = states_[tid];
  for (const InstanceValue& v : values) {
    st.accepted[v.participant] = InstanceValue{v.participant, ballot, v.vote};
  }
  Lsn lsn = tm_.rm_.log().Append(std::move(rec));
  if (st.first_lsn == kNullLsn) {
    st.first_lsn = lsn;
  }
  return lsn;
}

bool PaxosCommit::AcceptBundle(const TransactionId& tid, Ballot ballot,
                               const std::vector<InstanceValue>& values, NodeId leader,
                               AcceptChannelPtr replies) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "paxos.accept",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  if (st.learned != 0 || st.promised > ballot) {
    // A takeover moved past this ballot (or the outcome is already known):
    // acknowledging a stale bundle now could hand the original leader a
    // quorum that contradicts the takeover's decision. Stay silent — the
    // leader learns the truth through the phase-1 read path instead.
    return false;
  }
  bool duplicate = true;
  for (const InstanceValue& v : values) {
    auto it = st.accepted.find(v.participant);
    if (it == st.accepted.end() || it->second.ballot != ballot ||
        it->second.vote != v.vote) {
      duplicate = false;
      break;
    }
  }
  if (!duplicate) {
    // The acceptances are volatile: a crash here and this acceptor never
    // accepted — takeover still reaches a correct decision from the rest.
    // One forced record covers every instance in the bundle: the per-tid
    // force count on an acceptor is 1 regardless of participant count.
    FAULT_POINT(sub, "paxos.accept-log");
    tm_.ForceLsn(AppendAcceptRecord(tid, ballot, values));
  }
  // The acceptances are durable but unreported: the leader times out and the
  // takeover path must find them here during phase 1.
  FAULT_POINT(sub, "paxos.accept-send");
  PaxosAccepted acc;
  acc.tid = tid;
  acc.acceptor = self();
  acc.ballot = ballot;
  acc.ok = true;
  if (leader == self()) {
    replies->Push(acc);
    return true;
  }
  tm_.cm_.SendDatagram(leader, "paxos-accepted", [replies, acc] { replies->Push(acc); });
  return true;
}

PaxosPromise PaxosCommit::Promise(const TransactionId& tid, Ballot ballot) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  PaxosPromise p;
  p.acceptor = self();
  if (st.learned != 0) {
    // Decided long ago: short-circuit with the outcome, no ballot movement.
    p.ok = true;
    p.promised = st.promised;
    p.learned = st.learned;
    return p;
  }
  if (ballot <= st.promised) {
    p.ok = false;
    p.promised = st.promised;
    return p;
  }
  st.promised = ballot;
  // The promise must survive this acceptor's crash, or a recovered acceptor
  // could accept a lower ballot it already promised away.
  tm_.ForceLsn(AppendPaxosRecord(RecordType::kPaxosPromise, tid, kInvalidNode, ballot,
                             PaxosVote::kNone));
  p.ok = true;
  p.promised = ballot;
  for (const auto& [part, iv] : st.accepted) {
    p.accepted.push_back(iv);
  }
  return p;
}

bool PaxosCommit::AcceptAll(const TransactionId& tid, Ballot ballot,
                            const std::vector<InstanceValue>& values) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  if (st.learned != 0) {
    return true;  // decided: any consistent leader proposes the same outcome
  }
  if (ballot < st.promised) {
    return false;
  }
  st.promised = ballot;
  FAULT_POINT(sub, "paxos.accept-log");
  if (!values.empty()) {
    // One multi-instance record, one force — same shape as a ballot-0 bundle.
    tm_.ForceLsn(AppendAcceptRecord(tid, ballot, values));
  }
  return true;
}

void PaxosCommit::Learn(const TransactionId& tid, int outcome) {
  AcceptorState& st = states_[tid];
  if (st.learned == outcome) {
    return;  // duplicate learn datagram
  }
  st.learned = outcome;
  // Unforced: losing a learn record only costs a takeover round later.
  AppendPaxosRecord(RecordType::kPaxosLearn, tid, kInvalidNode, 0,
                    outcome > 0 ? PaxosVote::kPrepared : PaxosVote::kAborted);
  tm_.node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);
}

int PaxosCommit::LearnedOutcome(const TransactionId& tid) const {
  auto it = states_.find(tid);
  return it == states_.end() ? 0 : it->second.learned;
}

// --- recovery ----------------------------------------------------------------

void PaxosCommit::ObserveRecord(const log::LogRecord& rec) {
  AcceptorState& st = states_[rec.top];
  if (st.first_lsn == kNullLsn && rec.lsn != kNullLsn) {
    st.first_lsn = rec.lsn;
  }
  switch (rec.type) {
    case RecordType::kPaxosPromise:
      st.promised = std::max(st.promised, rec.paxos_ballot);
      break;
    case RecordType::kPaxosAccept: {
      st.promised = std::max(st.promised, rec.paxos_ballot);
      // A batched accept carries one instance in the head fields and the
      // rest in paxos_extra, all at the same ballot: replay each one.
      auto replay = [&st, &rec](NodeId participant, std::int8_t vote) {
        auto it = st.accepted.find(participant);
        if (it == st.accepted.end() || it->second.ballot <= rec.paxos_ballot) {
          st.accepted[participant] = InstanceValue{participant, rec.paxos_ballot,
                                                   static_cast<PaxosVote>(vote)};
        }
      };
      replay(rec.paxos_participant, rec.paxos_vote);
      for (const log::LogRecord::PaxosExtra& e : rec.paxos_extra) {
        replay(e.participant, e.vote);
      }
      break;
    }
    case RecordType::kPaxosLearn:
      st.learned = rec.paxos_vote > 0 ? 1 : -1;
      break;
    default:
      break;
  }
}

std::vector<recovery::RecoveryManager::ActiveTxn> PaxosCommit::PinnedInstances() const {
  std::vector<recovery::RecoveryManager::ActiveTxn> out;
  for (const auto& [tid, st] : states_) {
    if (st.learned != 0 || st.first_lsn == kNullLsn) {
      continue;
    }
    recovery::RecoveryManager::ActiveTxn at;
    at.owner = tid;
    at.top = tid;
    at.prepared = true;  // undecided acceptor state pins like an in-doubt txn
    at.first_lsn = st.first_lsn;
    out.push_back(at);
  }
  return out;
}

// --- TransactionManager: verdicts and the dead-coordinator sweep -----------

void TransactionManager::HandlePaxosVerdict(const TransactionId& tid, bool committed) {
  sim::PhaseScope commit_phase(node_.substrate().metrics(), sim::Phase::kCommit);
  if (PreparedRecordOf(tid)) {
    ApplyVerdict(tid, committed);
  }
}

void TransactionManager::ResolvePaxosOrphansOf(NodeId dead) {
  std::vector<TransactionId> doomed;
  for (const TransactionId& tid : InDoubt()) {
    const std::optional<PrepareRecord> prepared = PreparedRecordOf(tid);
    if (prepared && prepared->parent_node == dead && !prepared->acceptors.empty()) {
      doomed.push_back(tid);
    }
  }
  for (const TransactionId& tid : doomed) {
    // ResolveInDoubt routes every acceptor-backed transaction through the
    // consensus read path — this is where "coordinator death never blocks
    // an in-doubt transaction" is made true.
    ResolveInDoubt(tid);
  }
}

}  // namespace tabs::txn
