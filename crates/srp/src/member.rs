//! The Totem SRP membership protocol: Gather → Commit → Recovery.
//!
//! When a node's token-loss timer fires (or it hears a join message
//! from a node outside its ring), it enters **Gather** and broadcasts
//! join messages carrying the set of processors it can hear
//! (`proc_set`) and those it has given up on (`fail_set`). When every
//! reachable processor advertises identical sets, consensus is
//! reached; the smallest member (the representative) circulates a
//! **commit token** around the candidate ring: the first rotation
//! collects each member's old-ring state, the second distributes the
//! complete picture and moves members to **Recovery**. In recovery the
//! members rebroadcast old-ring packets that some survivor is missing
//! (encapsulated on the new ring), then deliver the transitional
//! configuration, the recovered old-ring messages, and the regular
//! configuration — in that order, in the style of extended virtual
//! synchrony — before going Operational on the new ring.

use std::collections::{BTreeMap, BTreeSet};

use totem_wire::{
    CommitToken, DataPacket, JoinMessage, MembEntry, NodeId, Packet, RingId, Seq, SharedPacket,
    Token, MAX_COUNTER,
};

use crate::events::{ConfigChange, ConfigKind, SrpEvent};
use crate::node::{
    deliver_packet, forward_token, recovery_chunk, Nanos, RingCtx, SrpNode, StateImpl, TokenCtx,
};

/// Gather-state bookkeeping.
#[derive(Debug)]
pub(crate) struct GatherCtx {
    pub proc_set: BTreeSet<NodeId>,
    pub fail_set: BTreeSet<NodeId>,
    /// Last join received from each processor: `(proc_set, fail_set)`.
    pub joins: BTreeMap<NodeId, (BTreeSet<NodeId>, BTreeSet<NodeId>)>,
    /// Next periodic join rebroadcast.
    pub join_deadline: Nanos,
    /// Consensus watchdog: on expiry, unresponsive processors move to
    /// the fail set (or the whole gather restarts if we were waiting
    /// for a commit token that never came).
    pub consensus_deadline: Nanos,
}

impl GatherCtx {
    /// A dormant context (used before [`SrpNode::start`] arms the
    /// timers).
    pub(crate) fn empty() -> Self {
        GatherCtx {
            proc_set: BTreeSet::new(),
            fail_set: BTreeSet::new(),
            joins: BTreeMap::new(),
            join_deadline: Nanos::MAX,
            consensus_deadline: Nanos::MAX,
        }
    }
}

/// Commit-state bookkeeping: waiting for the commit token to complete
/// its rotations.
#[derive(Debug)]
pub(crate) struct CommitCtx {
    pub ring: RingId,
    /// Candidate membership in ring order.
    pub members: Vec<NodeId>,
    pub loss_deadline: Nanos,
}

/// Recovery-state bookkeeping.
#[derive(Debug)]
pub(crate) struct RecoveryCtx {
    /// The new ring being brought up (its window holds recovery
    /// packets).
    pub new: RingCtx,
    /// Commit-token entries: every member's old-ring state.
    pub entries: Vec<MembEntry>,
    /// Old-ring sequence range to recover for *my* old ring:
    /// `(plan_low, plan_high]`.
    pub plan_low: Seq,
    pub plan_high: Seq,
    /// Old-ring sequence numbers already rebroadcast on the new ring
    /// (by anyone), so each packet is retransmitted once.
    pub recovered_seen: BTreeSet<u64>,
    pub token: TokenCtx,
    /// Consecutive idle token visits (no traffic, `aru == seq`); two
    /// of them mean recovery is complete ring-wide.
    pub quiet: u8,
}

impl SrpNode {
    // ------------------------------------------------------------------
    // Gather
    // ------------------------------------------------------------------

    /// Enters (or restarts) the Gather state and broadcasts a join
    /// message.
    pub(crate) fn enter_gather(&mut self, now: Nanos, seed_fail: Vec<NodeId>) -> Vec<SrpEvent> {
        self.stats.gathers += 1;
        // Self-stabilization: proposals must stay ahead of the
        // identity epoch, or (after an epoch corruption) we would
        // discard every commit token while peers keep proposing rings
        // below it. No-op on healthy state, where `max_ring_seq` is
        // seeded from the epoch and only grows.
        self.max_ring_seq = self.max_ring_seq.max(self.epoch);
        let mut proc_set = BTreeSet::new();
        proc_set.insert(self.me);
        // Seed with the current ring's membership (paper §: the join
        // message advertises my_proc_set, which starts from the old
        // ring). Without this, a node that shifts from Operational to
        // Gather can reach "consensus" with the first join it merges —
        // a two-ring — before the rest of its old ring is heard from,
        // and a cluster of such pairs can chase each other's merge
        // announcements forever. Members that are genuinely gone are
        // excluded by the consensus watchdog instead.
        if let Some(r) = self.ring.as_ref() {
            proc_set.extend(r.members.iter().copied());
        }
        let fail_set: BTreeSet<NodeId> = seed_fail.into_iter().filter(|f| *f != self.me).collect();
        let g = GatherCtx {
            proc_set,
            fail_set,
            joins: BTreeMap::new(),
            join_deadline: now + self.cfg.join_retransmit_interval,
            consensus_deadline: now + self.cfg.consensus_timeout,
        };
        self.state = StateImpl::Gather(g);
        // No consensus check here: with a freshly reset `proc_set` of
        // one, an instant check would form a spurious singleton ring.
        // Consensus is evaluated as joins arrive; a true singleton only
        // forms after the consensus timeout expires unanswered.
        self.my_join_broadcast().into_iter().collect()
    }

    /// The join broadcast advertising this node's current sets; `None`
    /// outside the Gather state (there are no sets to advertise).
    fn my_join_broadcast(&self) -> Option<SrpEvent> {
        let StateImpl::Gather(g) = &self.state else { return None };
        Some(SrpEvent::Broadcast(
            Packet::Join(JoinMessage {
                sender: self.me,
                ring_seq: self.max_ring_seq,
                proc_set: g.proc_set.iter().copied().collect(),
                fail_set: g.fail_set.iter().copied().collect(),
            })
            .into(),
        ))
    }

    /// Periodic gather timers: join rebroadcast and the consensus
    /// watchdog.
    pub(crate) fn gather_timers(&mut self, now: Nanos) -> Vec<SrpEvent> {
        let mut events = Vec::new();
        // Self-stabilization: this node can never credibly accuse
        // itself or forget itself, and its join proposals must stay
        // ahead of its identity epoch. Corrupted sets would otherwise
        // wedge every consensus around us (peers require set equality,
        // which a self-accusation makes unreachable), and an inflated
        // epoch would make us discard every commit token while our
        // peers keep proposing rings below it. All no-ops on healthy
        // state.
        self.max_ring_seq = self.max_ring_seq.max(self.epoch);
        let me = self.me;
        let StateImpl::Gather(g) = &mut self.state else { return events };
        g.fail_set.remove(&me);
        g.proc_set.insert(me);
        let mut rebroadcast = false;
        let mut gave_up_on_silent = false;
        if g.join_deadline <= now {
            g.join_deadline = now + self.cfg.join_retransmit_interval;
            rebroadcast = true;
        }
        if g.consensus_deadline <= now {
            // Give up on processors that fell silent. "Silent" is
            // judged against the last join heard in ANY state, not
            // against this round's `joins` map: re-entering Gather
            // clears the map (so a peer that spoke milliseconds ago
            // would look silent — seeding the gossip echo described in
            // `handle_join`), while a join recorded just before its
            // sender crashed would keep the corpse alive forever.
            let silent: Vec<NodeId> =
                g.proc_set
                    .iter()
                    .copied()
                    .filter(|p| {
                        *p != self.me
                            && self.last_heard.get(p).is_none_or(|&t| {
                                now.saturating_sub(t) >= self.cfg.consensus_timeout
                            })
                    })
                    .collect();
            gave_up_on_silent = !silent.is_empty();
            for p in silent {
                g.fail_set.insert(p);
            }
            // Also retire stale agreement state so consensus is
            // re-evaluated against the new fail set.
            g.consensus_deadline = now + self.cfg.consensus_timeout;
            rebroadcast = true;
        }
        if gave_up_on_silent {
            // This is where a crashed (or unreachable) peer is finally
            // excluded from the forming ring: the consensus watchdog
            // expired without hearing its join.
            self.note_transition("srp-membership", "Gather", "PeerCrashTimeout", "Gather");
        }
        if rebroadcast {
            events.extend(self.my_join_broadcast());
            // The watchdog has expired at least once: a singleton ring
            // may now form if we are truly alone.
            events.extend(self.check_consensus(now, true));
        }
        events
    }

    /// Handles a join message in any state.
    pub(crate) fn handle_join(&mut self, now: Nanos, j: JoinMessage) -> Vec<SrpEvent> {
        if j.sender == self.me {
            return Vec::new(); // our own broadcast echoed back
        }
        self.last_heard.insert(j.sender, now);
        self.max_ring_seq = self.max_ring_seq.max(j.ring_seq);
        match &mut self.state {
            StateImpl::Operational(_) => {
                if let Some(ring) = self.ring.as_ref() {
                    if ring.members.contains(&j.sender) {
                        if j.ring_seq < ring.ring.seq {
                            return Vec::new(); // stale join from before our ring formed
                        }
                        // Our own representative's merge-detect
                        // announcement: it describes exactly our ring.
                        let own_announcement = j.ring_seq == ring.ring.seq
                            && j.fail_set.is_empty()
                            && j.proc_set == ring.members;
                        if own_announcement {
                            return Vec::new();
                        }
                    }
                }
                // Someone needs a membership change (a joiner, or a
                // member that lost the token): shift to Gather and
                // process the join there.
                self.note_transition("srp-membership", "Operational", "JoinReceived", "Gather");
                let mut events = self.enter_gather(now, Vec::new());
                events.extend(self.handle_join(now, j));
                events
            }
            StateImpl::Commit(c) => {
                // Abandon the forming ring only when the join carries a
                // genuine membership conflict: a processor outside the
                // agreed ring is speaking (or advertised), or a ring
                // member is accused of failure. A member's rebroadcast
                // join that merely gossips a higher ring seq is NOT a
                // conflict — the member is simply still in Gather and
                // the circulating commit token will capture it. (Keying
                // this on the join's ring seq livelocks: every
                // ConsensusReached bumps max_ring_seq, the bumped seq
                // gossips out through joins, and each join then knocks
                // some other node straight back out of Commit.) A lost
                // commit token is covered by the loss deadline instead.
                if membership_conflict(&c.members, &j) {
                    self.note_transition("srp-membership", "Commit", "JoinReceived", "Gather");
                    let mut events = self.enter_gather(now, Vec::new());
                    events.extend(self.handle_join(now, j));
                    events
                } else {
                    Vec::new()
                }
            }
            StateImpl::Recovery(r) => {
                // Same conflict rule as Commit: see above.
                if membership_conflict(&r.new.members, &j) {
                    self.note_transition("srp-membership", "Recovery", "JoinReceived", "Gather");
                    let mut events = self.enter_gather(now, Vec::new());
                    events.extend(self.handle_join(now, j));
                    events
                } else {
                    Vec::new()
                }
            }
            StateImpl::Gather(g) => {
                // A fail-set entry means "presumed crashed because
                // silent" — and this join is the accused speaking, so
                // the accusation (ours, or one adopted from a peer) is
                // refuted. Retract it; the consensus watchdog simply
                // re-accuses if the sender falls silent again. Without
                // retraction, two processors that accused each other
                // while partitioned can never rejoin a common ring:
                // each keeps spreading a stale accusation the other
                // can never clear, and every consensus around them
                // wedges waiting for a commit token that nobody sends.
                // Self-stabilization sanitize (see `gather_timers`):
                // never self-accused, never self-forgotten. No-ops on
                // healthy state.
                g.fail_set.remove(&self.me);
                g.proc_set.insert(self.me);
                let mut changed = g.fail_set.remove(&j.sender);
                changed |= g.proc_set.insert(j.sender);
                for p in &j.proc_set {
                    changed |= g.proc_set.insert(*p);
                }
                // Adopt a gossiped accusation only when the accused is
                // also silent from OUR vantage point. Fail sets merge
                // insert-only across joins, so without this gate one
                // transient accusation echoes around the cluster
                // forever: each direct retraction (above) is undone by
                // the next join from a peer that has not retracted yet,
                // fail sets never become equal anywhere, and consensus
                // churns indefinitely.
                for f in &j.fail_set {
                    if *f != self.me
                        && self
                            .last_heard
                            .get(f)
                            .is_none_or(|&t| now.saturating_sub(t) >= self.cfg.consensus_timeout)
                    {
                        changed |= g.fail_set.insert(*f);
                    }
                }
                let mut jp: BTreeSet<NodeId> = j.proc_set.iter().copied().collect();
                jp.insert(j.sender);
                let jf: BTreeSet<NodeId> = j.fail_set.iter().copied().collect();
                g.joins.insert(j.sender, (jp, jf));
                let mut events = Vec::new();
                if changed {
                    // New information: re-advertise and give consensus
                    // a fresh window.
                    g.consensus_deadline = now + self.cfg.consensus_timeout;
                    g.join_deadline = now + self.cfg.join_retransmit_interval;
                    events.extend(self.my_join_broadcast());
                }
                events.extend(self.check_consensus(now, false));
                events
            }
        }
    }

    /// Checks whether every reachable processor advertises our exact
    /// sets; if so — and we are the representative — builds and sends
    /// the commit token.
    fn check_consensus(&mut self, now: Nanos, allow_singleton: bool) -> Vec<SrpEvent> {
        let StateImpl::Gather(g) = &self.state else { return Vec::new() };
        let candidate: Vec<NodeId> =
            g.proc_set.iter().copied().filter(|p| !g.fail_set.contains(p)).collect();
        if candidate.is_empty() || !candidate.contains(&self.me) {
            return Vec::new();
        }
        if candidate.len() == 1 && !allow_singleton {
            // Being alone is only believable once the consensus
            // watchdog has expired with no other voice heard.
            return Vec::new();
        }
        let agreed = candidate.iter().all(|p| {
            *p == self.me
                || g.joins.get(p).is_some_and(|(ps, fs)| *ps == g.proc_set && *fs == g.fail_set)
        });
        if !agreed {
            return Vec::new();
        }
        let Some(&rep) = candidate.first() else { return Vec::new() };
        if rep != self.me {
            // Consensus reached; await the representative's commit
            // token (the consensus watchdog covers its loss).
            return Vec::new();
        }
        // Build the commit token for the candidate ring.
        let new_ring = RingId::new(self.me, self.max_ring_seq + 1);
        self.max_ring_seq += 1;
        let mut entries: Vec<MembEntry> = candidate
            .iter()
            .map(|&node| MembEntry {
                node,
                old_ring: RingId::new(node, 0),
                my_aru: Seq::ZERO,
                high_delivered: Seq::ZERO,
                received_flag: false,
            })
            .collect();
        if let Some(entry) = entries.iter_mut().find(|e| e.node == self.me) {
            self.fill_commit_entry(entry);
        }
        let ct = CommitToken { ring: new_ring, round: 0, entries };

        if candidate.len() == 1 {
            // Singleton ring: the commit token "circulates" through us
            // alone — process it inline instead of the wire.
            self.note_transition("srp-membership", "Gather", "ConsensusReached", "Commit");
            self.state = StateImpl::Commit(CommitCtx {
                ring: new_ring,
                members: candidate,
                loss_deadline: now + self.cfg.token_loss_timeout,
            });
            return self.handle_commit(now, ct);
        }
        let succ = next_after(&candidate, self.me);
        self.note_transition("srp-membership", "Gather", "ConsensusReached", "Commit");
        self.state = StateImpl::Commit(CommitCtx {
            ring: new_ring,
            members: candidate,
            loss_deadline: now + self.cfg.token_loss_timeout,
        });
        vec![SrpEvent::ToSuccessor(succ, Packet::Commit(ct).into())]
    }

    fn fill_commit_entry(&self, entry: &mut MembEntry) {
        match &self.ring {
            Some(r) => {
                entry.old_ring = r.ring;
                // A cursor a transient fault dragged below zero fails
                // `is_consistent` and is past the counter bound every
                // peer's decoder enforces: claim nothing received
                // rather than send a commit token nobody accepts.
                let my_aru = r.window.my_aru();
                entry.my_aru = if my_aru.as_u64() < MAX_COUNTER { my_aru } else { Seq::ZERO };
                entry.high_delivered = r.window.high_seen();
            }
            None => {
                entry.old_ring = RingId::new(self.me, 0);
                entry.my_aru = Seq::ZERO;
                entry.high_delivered = Seq::ZERO;
            }
        }
        entry.received_flag = true;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Handles the commit token in any state.
    pub(crate) fn handle_commit(&mut self, now: Nanos, mut ct: CommitToken) -> Vec<SrpEvent> {
        let in_members = ct.members().any(|m| m == self.me);
        if !in_members {
            return Vec::new();
        }
        if ct.ring.seq <= self.epoch {
            // A commit for a ring at or below our identity epoch was
            // addressed to a previous incarnation of this node (it was
            // built before, or concurrently with, our crash). A fresh
            // incarnation must not resume its dead past.
            return Vec::new();
        }
        self.max_ring_seq = self.max_ring_seq.max(ct.ring.seq);
        match &mut self.state {
            StateImpl::Gather(_) | StateImpl::Operational(_) => {
                // Stale commit for a ring older than ours?
                if self.ring.as_ref().is_some_and(|r| ct.ring.seq <= r.ring.seq) {
                    return Vec::new();
                }
                if ct.round != 0 {
                    // We missed round 0 (e.g. we re-entered gather);
                    // let the membership protocol restart around us.
                    return Vec::new();
                }
                // `in_members` was checked on entry, so the entry is
                // present; tolerate a malformed token all the same.
                let Some(entry) = ct.entries.iter_mut().find(|e| e.node == self.me) else {
                    return Vec::new();
                };
                self.fill_commit_entry(entry);
                match &self.state {
                    StateImpl::Gather(_) => {
                        self.note_transition("srp-membership", "Gather", "CommitRound0", "Commit");
                    }
                    StateImpl::Operational(_) => {
                        self.note_transition(
                            "srp-membership",
                            "Operational",
                            "CommitRound0",
                            "Commit",
                        );
                    }
                    // Unreachable: this arm of the outer match is only
                    // entered from Gather or Operational.
                    StateImpl::Commit(_) | StateImpl::Recovery(_) => {}
                }
                let members: Vec<NodeId> = ct.members().collect();
                let succ = next_after(&members, self.me);
                self.state = StateImpl::Commit(CommitCtx {
                    ring: ct.ring,
                    members,
                    loss_deadline: now + self.cfg.token_loss_timeout,
                });
                vec![SrpEvent::ToSuccessor(succ, Packet::Commit(ct).into())]
            }
            StateImpl::Commit(c) => {
                if ct.ring != c.ring {
                    return Vec::new();
                }
                let members = c.members.clone();
                let Some(&rep) = members.first() else { return Vec::new() };
                if self.me == rep && ct.round == 0 {
                    if ct.entries.iter().all(|e| e.received_flag) {
                        // First rotation complete: distribute the full
                        // picture and move to recovery ourselves.
                        ct.round = 1;
                        let mut events = self.enter_recovery(now, &ct);
                        if members.len() == 1 {
                            // Singleton: round 1 also completes here.
                            events.extend(self.handle_commit(now, ct));
                        } else {
                            let succ = next_after(&members, self.me);
                            events.push(SrpEvent::ToSuccessor(succ, Packet::Commit(ct).into()));
                        }
                        events
                    } else {
                        // An incomplete round-0 token returning to the
                        // rep means a member was skipped; restart.
                        self.note_transition(
                            "srp-membership",
                            "Commit",
                            "IncompleteRound",
                            "Gather",
                        );
                        self.enter_gather(now, Vec::new())
                    }
                } else if ct.round == 1 {
                    // Second rotation: adopt the full picture, enter
                    // recovery, pass it on.
                    let mut events = self.enter_recovery(now, &ct);
                    let succ = next_after(&members, self.me);
                    events.push(SrpEvent::ToSuccessor(succ, Packet::Commit(ct).into()));
                    events
                } else {
                    Vec::new() // duplicate round-0 visit
                }
            }
            StateImpl::Recovery(r) => {
                if ct.ring == r.new.ring && ct.round == 1 && r.new.rep() == self.me {
                    // Round 1 returned to the representative: the ring
                    // is formed — inject the initial regular token.
                    let t = Token::initial(ct.ring);
                    self.handle_token(now, Packet::Token(t).into())
                } else {
                    Vec::new()
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn enter_recovery(&mut self, now: Nanos, ct: &CommitToken) -> Vec<SrpEvent> {
        // Both call sites hold a complete commit-token round in the
        // Commit state.
        self.note_transition("srp-membership", "Commit", "RoundComplete", "Recovery");
        let members: Vec<NodeId> = ct.members().collect();
        let new = RingCtx::new(ct.ring, members);
        let my_old_ring = self.ring.as_ref().map(|r| r.ring).unwrap_or(RingId::new(self.me, 0));
        let group: Vec<&MembEntry> =
            ct.entries.iter().filter(|e| e.old_ring == my_old_ring).collect();
        let plan_low = group.iter().map(|e| e.my_aru).min().unwrap_or(Seq::ZERO);
        let plan_high = group.iter().map(|e| e.high_delivered).max().unwrap_or(Seq::ZERO);
        let token = TokenCtx {
            loss_deadline: Some(now + self.cfg.token_loss_timeout),
            ..Default::default()
        };
        self.state = StateImpl::Recovery(RecoveryCtx {
            new,
            entries: ct.entries.clone(),
            plan_low,
            plan_high,
            recovered_seen: BTreeSet::new(),
            token,
            quiet: 0,
        });
        Vec::new()
    }

    /// Data packets while in Recovery: new-ring recovery packets are
    /// absorbed (and their old-ring cargo unwrapped); stray old-ring
    /// packets still help fill the old window.
    pub(crate) fn recovery_handle_data(&mut self, _now: Nanos, pkt: SharedPacket) -> Vec<SrpEvent> {
        let StateImpl::Recovery(rec) = &mut self.state else { return Vec::new() };
        let Some(d) = pkt.data() else { return Vec::new() };
        let (pkt_ring, seq) = (d.ring, d.seq);
        let my_old_ring = self.ring.as_ref().map(|r| r.ring);
        if pkt_ring == rec.new.ring {
            // Keep a second handle (refcount bump) so the chunks can
            // be unwrapped after the window takes the packet.
            let held = pkt.clone();
            if !rec.new.window.insert(pkt) {
                return Vec::new();
            }
            if rec.token.sent_token_precedes(seq) {
                rec.token.retire_sent_token(&mut self.cells);
            }
            let Some(d) = held.data() else { return Vec::new() };
            for chunk in &d.chunks {
                if chunk.kind != totem_wire::ChunkKind::Recovery {
                    continue;
                }
                if let Ok(Packet::Data(inner)) = Packet::decode_shared(&chunk.data) {
                    if Some(inner.ring) == my_old_ring {
                        rec.recovered_seen.insert(inner.seq.as_u64());
                        if let Some(old) = self.ring.as_mut() {
                            // Seed the encoding cache with the chunk
                            // bytes the packet was just decoded from:
                            // re-encapsulating it later is then free.
                            old.window.insert(SharedPacket::from_wire(
                                Packet::Data(inner),
                                chunk.data.clone(),
                            ));
                        }
                    }
                }
            }
        } else if Some(pkt_ring) == my_old_ring {
            if let Some(old) = self.ring.as_mut() {
                old.window.insert(pkt);
            }
        }
        Vec::new()
    }

    /// The token while in Recovery: same circulation rules as
    /// Operational, but the payload is old-ring packets wrapped as
    /// recovery chunks, and two idle rotations end the phase.
    pub(crate) fn recovery_token(&mut self, now: Nanos, mut pkt: SharedPacket) -> Vec<SrpEvent> {
        let mut events = Vec::new();
        let Some(t) = pkt.token() else { return events };
        let StateImpl::Recovery(rec) = &mut self.state else { return events };
        if t.ring != rec.new.ring {
            return events;
        }
        if !rec.token.is_fresh(t.rotation, t.seq) {
            return events;
        }
        // Self-stabilization: same inconsistency check as the
        // operational token path — a corrupted new-ring window must
        // abort recovery into reformation, not pollute the token.
        if rec.new.window.high_seen() > t.seq || !rec.new.window.is_consistent() {
            self.note_transition("srp-membership", "Recovery", "TokenLoss", "Gather");
            return self.enter_gather(now, Vec::new());
        }
        rec.token.retire_sent_token(&mut self.cells);
        let Some(t) = pkt.token_mut(&mut self.cells) else { return events };
        rec.token.last_key = Some((t.rotation, t.seq));
        rec.token.loss_deadline = Some(now + self.cfg.token_loss_timeout);
        self.stats.tokens_handled += 1;

        let old_seq = t.seq;
        rec.new.window.note_seq(t.seq);

        // Serve retransmission requests for new-ring (recovery) packets.
        let mut sent: u32 = 0;
        t.rtr.retain(|&s| {
            if sent < self.cfg.max_retransmit_per_token {
                if let Some(pkt) = rec.new.window.get(s) {
                    events.push(SrpEvent::Rebroadcast(pkt.clone()));
                    self.stats.retransmissions += 1;
                    sent += 1;
                    return false;
                }
            }
            true
        });

        // Rebroadcast old-ring packets some survivor is missing.
        let in_flight = t.fcc.saturating_sub(rec.token.my_last_fcc);
        let fair_min = self.cfg.window_size / rec.new.members.len().max(1) as u32;
        let allow = self
            .cfg
            .max_messages_per_token
            .min(fair_min.max(self.cfg.window_size.saturating_sub(in_flight)))
            .saturating_sub(sent);
        if let Some(old) = self.ring.as_ref() {
            // Cloning a candidate is a refcount bump on the buffered
            // old-ring frame; `recovery_chunk` then reuses its cached
            // wire bytes instead of re-encoding.
            let candidates: Vec<SharedPacket> = old
                .window
                .range(rec.plan_low, rec.plan_high)
                .filter(|p| p.data().is_some_and(|d| !rec.recovered_seen.contains(&d.seq.as_u64())))
                .take(allow as usize)
                .cloned()
                .collect();
            for old_pkt in candidates {
                let Some(old_seq) = old_pkt.data().map(|d| d.seq.as_u64()) else { continue };
                rec.recovered_seen.insert(old_seq);
                t.seq = t.seq.next();
                let pkt: SharedPacket = DataPacket {
                    ring: rec.new.ring,
                    seq: t.seq,
                    sender: self.me,
                    chunks: recovery_chunk(&old_pkt).into(),
                }
                .into();
                rec.new.window.insert(pkt.clone());
                events.push(SrpEvent::Broadcast(pkt));
                self.stats.packets_sent += 1;
                sent += 1;
            }
        }
        t.fcc = (t.fcc + sent).saturating_sub(rec.token.my_last_fcc);
        rec.token.my_last_fcc = sent;
        t.backlog = 0;

        // aru bookkeeping on the new ring.
        let my_aru = rec.new.window.my_aru();
        if my_aru < t.aru {
            t.aru = my_aru;
            t.aru_id = Some(self.me);
        } else if t.aru_id == Some(self.me) {
            if my_aru >= t.seq {
                t.aru = t.seq;
                t.aru_id = None;
            } else {
                t.aru = my_aru;
            }
        } else if t.aru == old_seq && t.aru_id.is_none() {
            t.aru = t.seq;
        }
        let room = totem_wire::token::MAX_RTR.saturating_sub(t.rtr.len());
        let missing = rec.new.window.missing(room);
        self.stats.retrans_requested += missing.len() as u64;
        for s in missing {
            if !t.rtr.contains(&s) {
                t.rtr.push(s);
            }
        }
        // Recovery frees nothing by `aru`; recording it here lets the
        // Operational token context inherit it at install (below).
        rec.token.push_aru(t.aru);
        // Advance the delivery cursor (recovery chunks deliver
        // nothing to the application) so post-recovery GC can work.
        let (new_ring_id, up_to) = (rec.new.ring, rec.new.window.my_aru());
        rec.new.window.take_deliverable(up_to, |pkt| {
            deliver_packet(new_ring_id, pkt, &mut self.reassembler, &mut self.stats, &mut events);
        });

        if rec.new.rep() == self.me {
            t.rotation = t.rotation.next();
        }

        // Completion detection: a full rotation with no traffic and
        // everyone caught up — twice, so every member sees it.
        let idle =
            sent == 0 && t.rtr.is_empty() && t.seq == old_seq && t.aru == t.seq && t.fcc == 0;
        if idle {
            rec.quiet = rec.quiet.saturating_add(1);
        } else {
            rec.quiet = 0;
        }
        let finish = rec.quiet >= 2;

        forward_token(self.me, &self.cfg, &mut rec.token, &rec.new, pkt, now, &mut events);

        if finish {
            events.extend(self.finalize_recovery());
        }
        events
    }

    /// Delivers transitional config, recovered old-ring messages, and
    /// the regular config; installs the new ring and goes Operational.
    fn finalize_recovery(&mut self) -> Vec<SrpEvent> {
        let state = std::mem::replace(&mut self.state, StateImpl::Gather(GatherCtx::empty()));
        let rec = match state {
            StateImpl::Recovery(rec) => rec,
            // Only ever called from the recovery token path; put any
            // other state back untouched.
            other @ (StateImpl::Operational(_) | StateImpl::Gather(_) | StateImpl::Commit(_)) => {
                self.state = other;
                return Vec::new();
            }
        };
        let mut events = Vec::new();

        if let Some(old) = self.ring.take() {
            let survivors: Vec<NodeId> =
                rec.entries.iter().filter(|e| e.old_ring == old.ring).map(|e| e.node).collect();
            events.push(SrpEvent::Config(ConfigChange {
                kind: ConfigKind::Transitional,
                ring: old.ring,
                members: survivors,
            }));
            self.stats.config_changes += 1;
            // Deliver the recovered tail of the old ring, in order,
            // skipping sequence numbers no survivor had (those were
            // never delivered anywhere).
            for pkt in old.window.range(old.window.delivered_up_to(), rec.plan_high) {
                deliver_packet(old.ring, pkt, &mut self.reassembler, &mut self.stats, &mut events);
            }
        }
        // Torn fragment chains cannot complete across the change.
        self.reassembler.clear();

        events.push(SrpEvent::Config(ConfigChange {
            kind: ConfigKind::Regular,
            ring: rec.new.ring,
            members: rec.new.members.clone(),
        }));
        self.stats.config_changes += 1;

        let rep = rec.new.rep();
        self.ring = Some(rec.new);
        let mut token = rec.token;
        if rep == self.me {
            // The new representative starts announcing the ring for
            // merge detection. Base the first deadline on the token
            // loss deadline already armed (we have no `now` here).
            let base = token.loss_deadline.unwrap_or(0).saturating_sub(self.cfg.token_loss_timeout);
            token.announce_deadline = Some(base + self.cfg.merge_detect_interval);
        }
        self.note_transition("srp-membership", "Recovery", "RecoveryComplete", "Operational");
        self.state = StateImpl::Operational(token);
        events
    }
}

/// Whether a join message conflicts with an agreed (forming) ring
/// membership: the sender is outside the ring, its advertised
/// candidate set (`proc_set` minus `fail_set`) includes a processor
/// outside the ring, or it accuses a ring member of failure. Joins
/// from ring members that carry none of those are pure gossip — the
/// circulating commit token captures their senders — and must not
/// abort the Commit/Recovery exchange. (A failed processor still
/// listed in the sender's `proc_set` is not a conflict: proc sets
/// only ever grow during Gather, so excluded members linger there.)
fn membership_conflict(members: &[NodeId], j: &JoinMessage) -> bool {
    !members.contains(&j.sender)
        || j.fail_set.iter().any(|f| members.contains(f))
        || j.proc_set.iter().any(|p| !members.contains(p) && !j.fail_set.contains(p))
}

/// The next member after `me` in ring order (wrapping). A caller
/// outside the candidate ring (unreachable: every call site has
/// checked membership) degrades to self-addressing.
fn next_after(members: &[NodeId], me: NodeId) -> NodeId {
    let idx = members.iter().position(|&m| m == me).unwrap_or(0);
    members.get((idx + 1) % members.len().max(1)).copied().unwrap_or(me)
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::SrpConfig;

    /// The Operational token context a node installs after Recovery
    /// keeps the `aru` of the last recovery rotation — taken on the new
    /// ring's sequence space — so the first Operational visit already
    /// has a previous `aru` to pair with.
    #[test]
    fn install_inherits_the_recovery_rotations_aru() {
        let mut nodes: Vec<SrpNode> = (0..3)
            .map(|i| SrpNode::new_joining(NodeId::new(i), SrpConfig::default()).unwrap())
            .collect();
        let mut queue: VecDeque<(usize, SrpEvent)> = VecDeque::new();
        for (i, n) in nodes.iter_mut().enumerate() {
            queue.extend(n.start(0).into_iter().map(|ev| (i, ev)));
        }
        let mut now = 0;
        let mut installed = 0;
        while installed < nodes.len() {
            let Some((src, ev)) = queue.pop_front() else {
                now = nodes.iter().filter_map(SrpNode::next_deadline).min().unwrap();
                for (i, n) in nodes.iter_mut().enumerate() {
                    if n.next_deadline().is_some_and(|d| d <= now) {
                        queue.extend(n.on_timer(now).into_iter().map(|ev| (i, ev)));
                    }
                }
                continue;
            };
            let (dsts, pkt): (Vec<usize>, _) = match ev {
                SrpEvent::Broadcast(p) | SrpEvent::Rebroadcast(p) => {
                    ((0..nodes.len()).filter(|&d| d != src).collect(), p)
                }
                SrpEvent::ToSuccessor(dst, p) => (vec![dst.index()], p),
                SrpEvent::Deliver(_) | SrpEvent::Config(_) => continue,
            };
            for dst in dsts {
                let was_recovering = matches!(nodes[dst].state, StateImpl::Recovery(_));
                let events = nodes[dst].handle_packet(now, pkt.clone());
                queue.extend(events.into_iter().map(|ev| (dst, ev)));
                if let (true, StateImpl::Operational(tok)) = (was_recovering, &nodes[dst].state) {
                    assert!(tok.last_aru.is_some(), "node {dst} installed without an aru");
                    installed += 1;
                }
            }
        }
    }
}
