//! The single ring protocol state machine.
//!
//! [`SrpNode`] is a sans-io state machine with four states mirroring
//! the Totem SRP:
//!
//! * **Operational** — the ring is formed; the token circulates and
//!   schedules broadcasts ([`node`](self) module, this file);
//! * **Gather**, **Commit**, **Recovery** — the membership protocol
//!   ([`crate::member`]).
//!
//! All inputs carry an explicit timestamp in nanoseconds ([`Nanos`]);
//! the host (simulator or real-time runtime) owns the clock and the
//! single alarm per node ([`SrpNode::next_deadline`]).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use totem_wire::token::MAX_RTR;
use totem_wire::{
    Chunk, ChunkKind, DataPacket, JoinMessage, NodeId, Packet, RingId, Rotation, Seq, SharedPacket,
    Token, Transition, TRANSITION_BUFFER_CAP,
};

use crate::config::{DeliveryGuarantee, SrpConfig};
use crate::events::{Delivered, SrpEvent};
use crate::member::{CommitCtx, GatherCtx, RecoveryCtx};
use crate::packing::{Packer, Reassembler};
use crate::window::ReceiveWindow;

/// Protocol time in nanoseconds. The zero point is arbitrary; only
/// differences matter.
pub type Nanos = u64;

/// Which phase of the protocol a node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SrpState {
    /// Ring formed, token circulating, messages flowing.
    Operational,
    /// Membership lost; exchanging join messages.
    Gather,
    /// Consensus reached; commit token circulating.
    Commit,
    /// New ring formed; exchanging old-ring messages.
    Recovery,
}

/// Error returned by [`SrpNode::submit`] when the local send queue is
/// full (flow-control backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitError {
    /// The configured queue limit that was hit.
    pub limit: usize,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "send queue full ({} messages); retry after deliveries", self.limit)
    }
}

impl std::error::Error for SubmitError {}

/// Error returned by the [`SrpNode`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeInitError {
    /// The configuration failed [`SrpConfig::validate`].
    InvalidConfig(String),
    /// An operational bootstrap needs at least one member.
    EmptyMembership,
    /// The node's own id was not in the membership list.
    NotAMember(NodeId),
}

impl core::fmt::Display for NodeInitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeInitError::InvalidConfig(why) => write!(f, "invalid SrpConfig: {why}"),
            NodeInitError::EmptyMembership => write!(f, "members must not be empty"),
            NodeInitError::NotAMember(me) => write!(f, "own id {me} must be a member"),
        }
    }
}

impl std::error::Error for NodeInitError {}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SrpStats {
    /// Application messages delivered.
    pub delivered_msgs: u64,
    /// Application payload bytes delivered.
    pub delivered_bytes: u64,
    /// Data packets broadcast (first transmissions).
    pub packets_sent: u64,
    /// Data packets rebroadcast in answer to retransmission requests.
    pub retransmissions: u64,
    /// Retransmission requests this node placed on the token.
    pub retrans_requested: u64,
    /// Token visits processed (fresh tokens accepted, Operational or
    /// Recovery; duplicates and stale tokens are not counted).
    pub tokens_handled: u64,
    /// Idle holds armed: visits that found the whole ring idle and kept
    /// the token for [`SrpConfig::idle_token_hold`] instead of
    /// forwarding it.
    pub tokens_held: u64,
    /// Tokens this node retransmitted to its successor.
    pub token_retransmits: u64,
    /// Configuration changes delivered (regular + transitional).
    pub config_changes: u64,
    /// Membership (gather) episodes entered.
    pub gathers: u64,
}

/// Ring context: identity, membership and the receive window.
#[derive(Debug)]
pub(crate) struct RingCtx {
    pub ring: RingId,
    /// Members in ring order (ascending `NodeId`).
    pub members: Vec<NodeId>,
    pub window: ReceiveWindow,
}

impl RingCtx {
    pub(crate) fn new(ring: RingId, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        RingCtx { ring, members, window: ReceiveWindow::new() }
    }

    /// The next node after `me` in ring order. A node absent from its
    /// own membership (unreachable via the constructors) degrades to
    /// self-addressing rather than a panic.
    pub(crate) fn successor(&self, me: NodeId) -> NodeId {
        let idx = self.members.iter().position(|&m| m == me).unwrap_or(0);
        self.members.get((idx + 1) % self.members.len().max(1)).copied().unwrap_or(me)
    }

    /// The ring representative: the smallest member id. An empty
    /// membership (unrepresentable via [`RingCtx::new`]'s callers)
    /// degrades to an id no real node uses.
    pub(crate) fn rep(&self) -> NodeId {
        self.members.first().copied().unwrap_or(NodeId::new(u16::MAX))
    }
}

/// Per-token-circulation state, shared by the Operational and Recovery
/// phases.
#[derive(Debug, Default)]
pub(crate) struct TokenCtx {
    /// `(rotation, seq)` of the last token processed, for duplicate
    /// suppression (paper §2, footnote 1).
    pub last_key: Option<(Rotation, Seq)>,
    /// What this node added to the token's `fcc` on its previous
    /// visit.
    pub my_last_fcc: u32,
    /// The send-queue length this node added to the token's `backlog`
    /// on its previous visit.
    pub my_last_backlog: u32,
    /// The last token sent — the forwarded handle itself, so a
    /// retransmission re-sends its cached encoding — kept until
    /// evidence of receipt (paper §2).
    pub sent_token: Option<SharedPacket>,
    /// The sent token once it is known to have been received: no
    /// longer retransmitted, kept so the next visit can rewrite its
    /// cell in place of cloning the token that arrives
    /// ([`SharedPacket::token_mut`]).
    pub retired_token: Option<SharedPacket>,
    pub retx_deadline: Option<Nanos>,
    pub loss_deadline: Option<Nanos>,
    /// Token held back on an idle ring (pacing), in the handle it will
    /// be forwarded in.
    pub hold: Option<SharedPacket>,
    pub hold_deadline: Option<Nanos>,
    /// The token `aru` seen on this node's previous visit, `None`
    /// before its first (see `push_aru`).
    pub last_aru: Option<Seq>,
    /// Next merge-detect announcement (armed on the representative
    /// only): a periodic broadcast describing the current ring so
    /// that healed partitions discover each other even when idle.
    pub announce_deadline: Option<Nanos>,
}

impl TokenCtx {
    /// Whether a token stamped `(rotation, seq)` is fresh relative to
    /// the last one processed. Both counters are compared in
    /// serial-number order, so freshness survives the wrap boundary.
    pub(crate) fn is_fresh(&self, rotation: Rotation, seq: Seq) -> bool {
        match self.last_key {
            None => true,
            Some((last_rot, last_seq)) => {
                rotation.follows(last_rot) || (rotation == last_rot && seq.follows(last_seq))
            }
        }
    }

    /// Whether a data packet numbered `seq` proves the token this
    /// node forwarded was received: someone later on the ring
    /// broadcast a higher sequence number than it carried (paper §2).
    pub(crate) fn sent_token_precedes(&self, seq: Seq) -> bool {
        self.sent_token
            .as_ref()
            .is_some_and(|p| matches!(p.packet(), Packet::Token(t) if seq.follows(t.seq)))
    }

    /// The sent token was received: stop retransmitting it and keep
    /// its handle as the next visit's spare.
    pub(crate) fn retire_sent_token(&mut self) {
        if let Some(sent) = self.sent_token.take() {
            self.retired_token = Some(sent);
        }
        self.retx_deadline = None;
    }

    /// Records this visit's token `aru` and returns the low-water mark
    /// that gates buffer GC and safe delivery (paper §2): the lower of
    /// it and the previous visit's `aru`, which every member holds.
    /// `None` on a node's first visit, when nothing is known yet.
    pub(crate) fn push_aru(&mut self, aru: Seq) -> Option<Seq> {
        let low_water = self.last_aru.map(|prev| Seq::serial_min(prev, aru));
        self.last_aru = Some(aru);
        low_water
    }
}

#[derive(Debug)]
pub(crate) enum StateImpl {
    Operational(TokenCtx),
    Gather(GatherCtx),
    Commit(CommitCtx),
    Recovery(RecoveryCtx),
}

/// A Totem single-ring protocol endpoint.
///
/// See the [crate documentation](crate) for a driving example.
#[derive(Debug)]
pub struct SrpNode {
    pub(crate) me: NodeId,
    pub(crate) cfg: SrpConfig,
    pub(crate) state: StateImpl,
    /// The current ring when Operational; the **old** (frozen) ring
    /// during membership phases; `None` for a node that has never
    /// been on a ring.
    pub(crate) ring: Option<RingCtx>,
    pub(crate) send_queue: VecDeque<Bytes>,
    pub(crate) packer: Packer,
    pub(crate) reassembler: Reassembler,
    /// Highest ring sequence number ever observed (join messages must
    /// propose something fresh).
    pub(crate) max_ring_seq: u64,
    /// Identity epoch: the highest ring sequence number this
    /// *incarnation* knows was reached by a previous incarnation of
    /// this node. Zero for a node that never crashed. Commit tokens
    /// for rings at or below the epoch are discarded: they belong to
    /// membership rounds the pre-crash incarnation may have
    /// participated in, and acting on them could resurrect stale ring
    /// state.
    pub(crate) epoch: u64,
    /// When each peer's join message was last received. A failure
    /// accusation (ours or a gossiped one) is only credible while the
    /// accused has also been silent from *our* vantage point for a
    /// full consensus timeout; see `handle_join` and `gather_timers`.
    pub(crate) last_heard: BTreeMap<NodeId, Nanos>,
    pub(crate) stats: SrpStats,
    /// Membership state-machine transitions since the last
    /// [`SrpNode::take_transitions`] (conformance coverage records).
    pub(crate) transitions: Vec<Transition>,
    /// Recycled buffer for the event vectors the entry points return:
    /// callers hand it back via [`SrpNode::recycle_events`], making
    /// the per-packet fast path allocation-free in steady state.
    pub(crate) events_pool: Vec<SrpEvent>,
}

impl SrpNode {
    /// Creates a node directly in the Operational state on a
    /// statically known ring — the bootstrap used by benchmarks and
    /// most tests. Exactly one member (the representative, i.e. the
    /// smallest id) must then be given the initial token via
    /// [`SrpNode::bootstrap_token`].
    ///
    /// # Errors
    ///
    /// Returns [`NodeInitError`] if `me` is not in `members`, if
    /// `members` is empty, or if `cfg` fails validation.
    pub fn new_operational(
        me: NodeId,
        cfg: SrpConfig,
        members: &[NodeId],
        now: Nanos,
    ) -> Result<Self, NodeInitError> {
        cfg.validate().map_err(NodeInitError::InvalidConfig)?;
        if members.is_empty() {
            return Err(NodeInitError::EmptyMembership);
        }
        if !members.contains(&me) {
            return Err(NodeInitError::NotAMember(me));
        }
        let rep = members.iter().min().copied().unwrap_or(me);
        let mut ring_ctx = RingCtx::new(RingId::new(rep, 1), members.to_vec());
        // A nonzero `initial_seq` places the ring's sequence space just
        // where the config says (wrap-equivariance tests start near
        // `u64::MAX`); `starting_at(ZERO)` is exactly `new()`.
        ring_ctx.window = ReceiveWindow::starting_at(cfg.initial_seq);
        let token = TokenCtx {
            loss_deadline: Some(now + cfg.token_loss_timeout),
            announce_deadline: (ring_ctx.rep() == me).then(|| now + cfg.merge_detect_interval),
            ..Default::default()
        };
        Ok(SrpNode {
            me,
            cfg,
            state: StateImpl::Operational(token),
            ring: Some(ring_ctx),
            send_queue: VecDeque::new(),
            packer: Packer::new(),
            reassembler: Reassembler::new(),
            max_ring_seq: 1,
            epoch: 0,
            last_heard: BTreeMap::new(),
            stats: SrpStats::default(),
            transitions: Vec::new(),
            events_pool: Vec::new(),
        })
    }

    /// Creates a node with no ring, starting in the Gather state: it
    /// will discover peers through join messages and form a ring via
    /// the membership protocol.
    ///
    /// Call [`SrpNode::start`] to obtain the initial join broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`NodeInitError::InvalidConfig`] if `cfg` fails
    /// validation.
    pub fn new_joining(me: NodeId, cfg: SrpConfig) -> Result<Self, NodeInitError> {
        cfg.validate().map_err(NodeInitError::InvalidConfig)?;
        Ok(SrpNode {
            me,
            cfg,
            state: StateImpl::Gather(GatherCtx::empty()),
            ring: None,
            send_queue: VecDeque::new(),
            packer: Packer::new(),
            reassembler: Reassembler::new(),
            max_ring_seq: 0,
            epoch: 0,
            last_heard: BTreeMap::new(),
            stats: SrpStats::default(),
            transitions: Vec::new(),
            events_pool: Vec::new(),
        })
    }

    /// Creates a node rebooting cold after a processor crash. Like
    /// [`SrpNode::new_joining`], but with a fresh identity `epoch`: the
    /// highest ring sequence number the pre-crash incarnation is known
    /// to have reached. The rejoining node proposes only rings beyond
    /// the epoch and discards commit tokens at or below it, so packets
    /// addressed to its dead past cannot re-enter the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`NodeInitError::InvalidConfig`] if `cfg` fails
    /// validation.
    pub fn new_rejoining(me: NodeId, cfg: SrpConfig, epoch: u64) -> Result<Self, NodeInitError> {
        let mut node = Self::new_joining(me, cfg)?;
        node.max_ring_seq = epoch;
        node.epoch = epoch;
        Ok(node)
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The current protocol state.
    pub fn state(&self) -> SrpState {
        match &self.state {
            StateImpl::Operational(_) => SrpState::Operational,
            StateImpl::Gather(_) => SrpState::Gather,
            StateImpl::Commit(_) => SrpState::Commit,
            StateImpl::Recovery(_) => SrpState::Recovery,
        }
    }

    /// The ring this node currently operates on (the old ring during
    /// membership changes), if any.
    pub fn ring_id(&self) -> Option<RingId> {
        self.ring.as_ref().map(|r| r.ring)
    }

    /// Current ring membership in ring order, if on a ring.
    pub fn members(&self) -> Option<&[NodeId]> {
        self.ring.as_ref().map(|r| r.members.as_slice())
    }

    /// Counters for tests and benchmarks.
    pub fn stats(&self) -> &SrpStats {
        &self.stats
    }

    /// Highest ring sequence number ever observed. A host restarting a
    /// crashed node feeds this into [`SrpNode::new_rejoining`] as the
    /// new incarnation's identity epoch.
    pub fn max_ring_seq(&self) -> u64 {
        self.max_ring_seq
    }

    /// This incarnation's identity epoch (zero unless constructed via
    /// [`SrpNode::new_rejoining`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drains the membership state-machine transitions recorded since
    /// the previous call (for conformance coverage; see
    /// `spec/protocol.toml`).
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    /// Records one membership transition. The four arguments must be
    /// string literals naming `spec/protocol.toml` entries — the
    /// conformance analyzer extracts them from the source text.
    pub(crate) fn note_transition(
        &mut self,
        machine: &'static str,
        from: &'static str,
        event: &'static str,
        to: &'static str,
    ) {
        if self.transitions.len() < TRANSITION_BUFFER_CAP {
            self.transitions.push(Transition { machine, from, event, to });
        }
    }

    /// Number of application messages waiting in the send queue.
    pub fn send_queue_len(&self) -> usize {
        self.send_queue.len()
    }

    /// Whether a packet known to exist on the current ring has not
    /// been received — the predicate the passive replication layer
    /// queries before releasing a buffered token (paper Figure 4).
    pub fn any_messages_missing(&self) -> bool {
        match &self.state {
            StateImpl::Operational(_) => self.ring.as_ref().is_some_and(|r| r.window.any_missing()),
            StateImpl::Recovery(rec) => rec.new.window.any_missing(),
            StateImpl::Gather(_) | StateImpl::Commit(_) => false,
        }
    }

    /// Feeds the protocol-visible portion of this node's state into a
    /// caller-supplied hasher: phase, ring identity and membership,
    /// identity epoch, sequence horizon, queue depth, gap status, and
    /// the delivery counters. The bounded model checker
    /// (`totem_cluster::mc`) folds this into its canonical state hash;
    /// it deliberately excludes transient internals (timer deadlines,
    /// retransmission bookkeeping) that the explorer captures through
    /// the simulator's event queue instead.
    pub fn fingerprint<H: core::hash::Hasher>(&self, h: &mut H) {
        use core::hash::Hash as _;
        self.state().hash(h);
        self.ring_id().hash(h);
        self.members().hash(h);
        self.epoch.hash(h);
        self.max_ring_seq.hash(h);
        self.send_queue_len().hash(h);
        self.any_messages_missing().hash(h);
        self.stats.delivered_msgs.hash(h);
        self.stats.delivered_bytes.hash(h);
        self.stats.config_changes.hash(h);
    }

    /// Starts the node: for a [`SrpNode::new_joining`] node, returns
    /// the initial join broadcast and arms the membership timers.
    pub fn start(&mut self, now: Nanos) -> Vec<SrpEvent> {
        match self.state {
            StateImpl::Gather(_) => {
                if self.epoch > 0 {
                    // Cold reboot after a crash: same Gather entry, but
                    // carrying a fresh identity epoch.
                    self.note_transition("srp-membership", "Gather", "CrashRejoin", "Gather");
                } else {
                    self.note_transition("srp-membership", "Gather", "Restart", "Gather");
                }
                self.enter_gather(now, Vec::new())
            }
            StateImpl::Operational(_) | StateImpl::Commit(_) | StateImpl::Recovery(_) => Vec::new(),
        }
    }

    /// Injects the initial token on a statically bootstrapped ring.
    /// Must be called exactly once, on the ring representative, after
    /// constructing every member with [`SrpNode::new_operational`].
    /// Returns no events when called on a node without a ring.
    ///
    /// # Panics
    ///
    /// Panics if the node is not Operational or not the
    /// representative.
    pub fn bootstrap_token(&mut self, now: Nanos) -> Vec<SrpEvent> {
        let Some(ring) = self.ring.as_ref() else { return Vec::new() };
        assert_eq!(ring.rep(), self.me, "only the representative bootstraps the token");
        assert!(matches!(self.state, StateImpl::Operational(_)), "node must be operational");
        let mut token = Token::initial(ring.ring);
        token.seq = self.cfg.initial_seq;
        token.aru = self.cfg.initial_seq;
        self.handle_token(now, Packet::Token(token).into())
    }

    /// Queues an application message for totally ordered broadcast.
    /// If this node is sitting on an idle (held) token, the message is
    /// broadcast immediately and the token released, so the returned
    /// events may contain sends.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] when the local queue is full; the
    /// caller should retry after some deliveries have drained it.
    pub fn submit(&mut self, now: Nanos, data: Bytes) -> Result<Vec<SrpEvent>, SubmitError> {
        if self.send_queue.len() >= self.cfg.send_queue_limit {
            return Err(SubmitError { limit: self.cfg.send_queue_limit });
        }
        self.send_queue.push_back(data);
        let mut events = self.take_events();
        if let StateImpl::Operational(tok) = &mut self.state {
            if let Some(t) = tok.hold.take() {
                // We hold an idle token: run the send phase on it now
                // and forward, instead of burning a rotation.
                tok.hold_deadline = None;
                self.send_on_held_token(now, t, &mut events);
            }
        }
        Ok(events)
    }

    /// Send phase on a token this node is still holding (it was held
    /// back as idle, so this visit has contributed nothing yet).
    fn send_on_held_token(
        &mut self,
        now: Nanos,
        mut held: SharedPacket,
        events: &mut Vec<SrpEvent>,
    ) {
        let Some(t) = held.token_mut(None) else { return };
        self.send_phase(t, 0, events);
        let Some((tok, ring)) = operational_parts(&mut self.state, &mut self.ring) else {
            return;
        };
        // Everything we just sent is contiguous for us: deliver own
        // messages under the agreed guarantee.
        if self.cfg.guarantee == DeliveryGuarantee::Agreed {
            let (ring_id, up_to) = (ring.ring, ring.window.my_aru());
            ring.window.take_deliverable(up_to, |pkt| {
                deliver_packet(ring_id, pkt, &mut self.reassembler, &mut self.stats, events);
            });
        }
        // The aru can only trail what this visit already established;
        // leave it and forward.
        forward_token(self.me, &self.cfg, tok, ring, held, now, events);
    }

    /// The send phase of a token visit: broadcasts new messages under
    /// flow control, then brings the token's `aru` up to date.
    /// `served` is what this visit already rebroadcast in answer to
    /// retransmission requests; returns the visit's total.
    ///
    /// Flow control is the global window minus what the rest of the
    /// ring used this rotation, capped per visit — but never below a
    /// fair per-member share of the window, or the members visited
    /// late in the rotation are starved outright by the early ones
    /// under saturation.
    fn send_phase(&mut self, t: &mut Token, served: u32, events: &mut Vec<SrpEvent>) -> u32 {
        let Some((tok, ring)) = operational_parts(&mut self.state, &mut self.ring) else {
            return served;
        };
        let old_seq = t.seq;
        let in_flight = t.fcc.saturating_sub(tok.my_last_fcc);
        let fair_min = self.cfg.window_size / ring.members.len().max(1) as u32;
        let allow = self
            .cfg
            .max_messages_per_token
            .min(fair_min.max(self.cfg.window_size.saturating_sub(in_flight)))
            .saturating_sub(served);
        let mut sent = served;
        for _ in 0..allow {
            let Some(chunks) = self.packer.pack_next(&mut self.send_queue) else { break };
            t.seq = t.seq.next();
            let pkt: SharedPacket =
                DataPacket { ring: ring.ring, seq: t.seq, sender: self.me, chunks }.into();
            ring.window.insert(pkt.clone());
            events.push(SrpEvent::Broadcast(pkt));
            self.stats.packets_sent += 1;
            sent += 1;
        }
        t.fcc = (t.fcc + sent).saturating_sub(tok.my_last_fcc);
        tok.my_last_fcc = sent;
        // Same replace-my-previous-share update as `fcc`, saturating
        // both ways so a damaged share costs pacing, never a wrap.
        let queued = self.send_queue.len().min(u32::MAX as usize) as u32;
        t.backlog = t.backlog.saturating_sub(tok.my_last_backlog).saturating_add(queued);
        tok.my_last_backlog = queued;

        // All-received-up-to bookkeeping. The aru must track the new
        // sequence numbers on every visit that sends, or it freezes
        // below `seq` for good (nobody ever lowers it, and the
        // equal-to-seq advancement rule never fires again).
        let my_aru = ring.window.my_aru();
        if my_aru.precedes(t.aru) {
            t.aru = my_aru;
            t.aru_id = Some(self.me);
        } else if t.aru_id == Some(self.me) {
            if my_aru.at_or_after(t.seq) {
                t.aru = t.seq;
                t.aru_id = None;
            } else {
                t.aru = my_aru;
            }
        } else if t.aru == old_seq && t.aru_id.is_none() {
            t.aru = t.seq;
        }
        sent
    }

    /// Hands out the recycled event buffer (empty; callers return it
    /// with [`SrpNode::recycle_events`]).
    fn take_events(&mut self) -> Vec<SrpEvent> {
        std::mem::take(&mut self.events_pool)
    }

    /// Returns an event vector obtained from [`SrpNode::handle_packet`]
    /// (or any other event-producing entry point) to the recycling
    /// pool once the caller has drained it. Purely an optimization —
    /// dropping the vector instead is fine.
    pub fn recycle_events(&mut self, mut events: Vec<SrpEvent>) {
        if events.capacity() > self.events_pool.capacity() {
            events.clear();
            self.events_pool = events;
        }
    }

    /// Handles any received packet. Data packets stay behind their
    /// shared handle end to end — buffering one in the receive window
    /// keeps (a refcount on) the frame that arrived, including its
    /// cached wire bytes for recovery re-encapsulation.
    ///
    /// So does the token: a visit updates it in the handle it arrived
    /// in and forwards that handle, so a token that reached this node
    /// in a handle of its own (off the wire) crosses it without a new
    /// one being made.
    pub fn handle_packet(&mut self, now: Nanos, pkt: SharedPacket) -> Vec<SrpEvent> {
        if pkt.data().is_some() {
            return self.handle_data(now, pkt);
        }
        if pkt.token().is_some() {
            return self.handle_token(now, pkt);
        }
        match pkt.into_packet() {
            Packet::Join(j) => self.handle_join(now, j),
            Packet::Commit(c) => self.handle_commit(now, c),
            // Data and tokens were handled above; the rest is another
            // backend's traffic (never routed here by a correctly
            // configured cluster), which the SRP ignores.
            Packet::Data(_) | Packet::Token(_) | Packet::RingPaxos(_) => Vec::new(),
        }
    }

    /// Whether a data frame stamped `(ring, seq)` is a copy of one this
    /// node, Operational on that ring, already holds or has moved past
    /// — so that [`SrpNode::handle_packet`] could only count it as a
    /// duplicate and drop it. When so, counts it exactly that way and
    /// returns `true`: the caller need not decode the frame. Answers
    /// `false`, and changes nothing, for everything else (see
    /// [`ReceiveWindow::suppress_duplicate`]).
    pub fn suppress_duplicate(&mut self, ring: RingId, seq: Seq) -> bool {
        if !matches!(self.state, StateImpl::Operational(_)) {
            return false;
        }
        self.ring.as_mut().is_some_and(|r| r.ring == ring && r.window.suppress_duplicate(seq))
    }

    /// The earliest instant at which [`SrpNode::on_timer`] must be
    /// called, if any timer is armed.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let mins = |t: &TokenCtx| {
            [t.retx_deadline, t.loss_deadline, t.hold_deadline].into_iter().flatten().min()
        };
        match &self.state {
            StateImpl::Operational(t) => [mins(t), t.announce_deadline].into_iter().flatten().min(),
            StateImpl::Gather(g) => {
                [Some(g.join_deadline), Some(g.consensus_deadline)].into_iter().flatten().min()
            }
            StateImpl::Commit(c) => Some(c.loss_deadline),
            StateImpl::Recovery(r) => mins(&r.token),
        }
    }

    /// Fires any timers whose deadline is `<= now`.
    pub fn on_timer(&mut self, now: Nanos) -> Vec<SrpEvent> {
        let mut events = self.take_events();
        // Self-stabilization: a corrupted receive window discovered at
        // a timer tick routes into reformation. Token receipt performs
        // the same check; this covers a node that is holding the token
        // or has stopped receiving ones.
        if matches!(self.state, StateImpl::Operational(_))
            && self.ring.as_ref().is_some_and(|r| !r.window.is_consistent())
        {
            self.note_transition("srp-membership", "Operational", "TokenLoss", "Gather");
            events.extend(self.enter_gather(now, Vec::new()));
            return events;
        }
        match &mut self.state {
            StateImpl::Operational(_) | StateImpl::Recovery(_) => {
                // Work on the token context common to both phases.
                let is_recovery = matches!(self.state, StateImpl::Recovery(_));
                let (tok, ring_ref) = match (&mut self.state, &self.ring) {
                    (StateImpl::Operational(t), Some(ring)) => (t, ring),
                    (StateImpl::Operational(_), None) => return events,
                    (StateImpl::Recovery(r), _) => {
                        let RecoveryCtx { token, new, .. } = r;
                        (token, &*new)
                    }
                    (StateImpl::Gather(_) | StateImpl::Commit(_), _) => return events,
                };
                // Idle hold expiry: forward the held token.
                if tok.hold_deadline.is_some_and(|d| d <= now) {
                    release_held_token(self.me, &self.cfg, tok, ring_ref, &mut events);
                }
                // Token retransmission (paper §2).
                if tok.retx_deadline.is_some_and(|d| d <= now) {
                    if let Some(sent) = &tok.sent_token {
                        let succ = ring_ref.successor(self.me);
                        events.push(SrpEvent::ToSuccessor(succ, sent.clone()));
                        self.stats.token_retransmits += 1;
                    }
                    tok.retx_deadline =
                        tok.sent_token.as_ref().map(|_| now + self.cfg.token_retransmit_interval);
                }
                // Merge-detect announcement (representative only,
                // operational only): broadcast a join describing the
                // current ring so a healed partition notices us.
                if !is_recovery && tok.announce_deadline.is_some_and(|d| d <= now) {
                    tok.announce_deadline = Some(now + self.cfg.merge_detect_interval);
                    let announce = JoinMessage {
                        sender: self.me,
                        ring_seq: ring_ref.ring.seq,
                        proc_set: ring_ref.members.clone(),
                        fail_set: Vec::new(),
                    };
                    events.push(SrpEvent::Broadcast(Packet::Join(announce).into()));
                }
                // Token loss: the ring has failed; start the
                // membership protocol.
                if tok.loss_deadline.is_some_and(|d| d <= now) {
                    if is_recovery {
                        self.note_transition("srp-membership", "Recovery", "TokenLoss", "Gather");
                    } else {
                        self.note_transition(
                            "srp-membership",
                            "Operational",
                            "TokenLoss",
                            "Gather",
                        );
                    }
                    events.extend(self.enter_gather(now, Vec::new()));
                }
            }
            StateImpl::Gather(_) => {
                events.extend(self.gather_timers(now));
            }
            StateImpl::Commit(c) => {
                if c.loss_deadline <= now {
                    // Commit token lost; reform.
                    self.note_transition("srp-membership", "Commit", "TokenLoss", "Gather");
                    events.extend(self.enter_gather(now, Vec::new()));
                }
            }
        }
        events
    }

    // ------------------------------------------------------------------
    // Operational: data packets
    // ------------------------------------------------------------------

    fn handle_data(&mut self, now: Nanos, pkt: SharedPacket) -> Vec<SrpEvent> {
        // The identifying fields are `Copy`; lift them out so the
        // shared handle itself can move into the receive window.
        let Some(d) = pkt.data() else { return Vec::new() };
        let (pkt_ring, pkt_sender) = (d.ring, d.sender);
        let seq = d.seq;
        // Foreign-traffic trigger: a packet from a node outside our
        // ring (two healed partitions discovering each other) or from
        // a newer ring we missed sends us to Gather so the rings can
        // merge.
        if matches!(self.state, StateImpl::Operational(_)) {
            let Some(ring) = self.ring.as_ref() else { return Vec::new() };
            if pkt_ring != ring.ring {
                if !ring.members.contains(&pkt_sender) || pkt_ring.seq > ring.ring.seq {
                    self.note_transition("srp-membership", "Operational", "ForeignData", "Gather");
                    return self.enter_gather(now, Vec::new());
                }
                return Vec::new(); // stale traffic from our own past
            }
        }
        let mut events = self.take_events();
        match &mut self.state {
            StateImpl::Operational(tok) => {
                let Some(ring) = self.ring.as_mut() else { return events };
                if pkt_ring != ring.ring {
                    return events; // unreachable: filtered above
                }
                let is_new = ring.window.insert(pkt);
                if !is_new {
                    return events;
                }
                // Evidence our forwarded token was received.
                if tok.sent_token_precedes(seq) {
                    tok.retire_sent_token();
                }
                if self.cfg.guarantee == DeliveryGuarantee::Agreed {
                    let (ring_id, up_to) = (ring.ring, ring.window.my_aru());
                    ring.window.take_deliverable(up_to, |pkt| {
                        deliver_packet(
                            ring_id,
                            pkt,
                            &mut self.reassembler,
                            &mut self.stats,
                            &mut events,
                        );
                    });
                }
                let _ = now;
            }
            StateImpl::Recovery(_) => {
                events.extend(self.recovery_handle_data(now, pkt));
            }
            StateImpl::Gather(_) | StateImpl::Commit(_) => {
                // Keep absorbing old-ring traffic: it reduces what
                // recovery must retransmit (paper §3: nodes accept on
                // networks they no longer send on; same spirit here).
                if let Some(ring) = self.ring.as_mut() {
                    if pkt_ring == ring.ring {
                        ring.window.insert(pkt);
                    }
                }
            }
        }
        events
    }

    // ------------------------------------------------------------------
    // Operational: the token
    // ------------------------------------------------------------------

    /// `pkt` must be a regular token; anything else is ignored.
    pub(crate) fn handle_token(&mut self, now: Nanos, pkt: SharedPacket) -> Vec<SrpEvent> {
        match &self.state {
            StateImpl::Operational(_) => self.operational_token(now, pkt),
            StateImpl::Recovery(_) => self.recovery_token(now, pkt),
            // A token while gathering/committing is stale; membership
            // will reform the ring.
            StateImpl::Gather(_) | StateImpl::Commit(_) => Vec::new(),
        }
    }

    fn operational_token(&mut self, now: Nanos, mut pkt: SharedPacket) -> Vec<SrpEvent> {
        let Some(t) = pkt.token() else { return Vec::new() };
        {
            let Some(ring) = self.ring.as_ref() else { return Vec::new() };
            if t.ring != ring.ring {
                if t.ring.seq > ring.ring.seq {
                    // A newer ring exists that we are not on: rejoin.
                    self.note_transition("srp-membership", "Operational", "ForeignToken", "Gather");
                    return self.enter_gather(now, Vec::new());
                }
                return Vec::new();
            }
        }
        let mut events = self.take_events();
        let Some((tok, ring)) = operational_parts(&mut self.state, &mut self.ring) else {
            return events;
        };
        if !tok.is_fresh(t.rotation, t.seq) {
            return events; // retransmitted or stale token
        }
        // Self-stabilization: locally inconsistent window state must
        // route into reformation, never into the token. At a fresh
        // token, every sequence number this node has seen is at or
        // below the token's — a `high_seen` beyond it is a phantom
        // that would park forever-unserviceable retransmission
        // requests on the token; a broken contiguity invariant under
        // `my_aru` would deliver around a gap.
        if ring.window.high_seen().follows(t.seq) || !ring.window.is_consistent() {
            self.note_transition("srp-membership", "Operational", "TokenLoss", "Gather");
            events.extend(self.enter_gather(now, Vec::new()));
            return events;
        }
        // Receiving a fresh token proves the previous one circulated.
        tok.retire_sent_token();
        // The visit rewrites the token where it is: free when this node
        // has the only handle on it (it came off the wire), and in the
        // retired token's cell when the arriving handle is shared.
        let Some(t) = pkt.token_mut(tok.retired_token.take()) else { return events };
        tok.last_key = Some((t.rotation, t.seq));
        tok.hold = None;
        tok.hold_deadline = None;
        tok.loss_deadline = Some(now + self.cfg.token_loss_timeout);
        self.stats.tokens_handled += 1;

        ring.window.note_seq(t.seq);

        // 1. Serve retransmission requests from the local buffer.
        let mut sent: u32 = 0;
        t.rtr.retain(|&s| {
            if sent < self.cfg.max_retransmit_per_token {
                if let Some(pkt) = ring.window.get(s) {
                    // Refcount bump: the retransmission shares the
                    // buffered frame and its cached wire bytes.
                    events.push(SrpEvent::Rebroadcast(pkt.clone()));
                    self.stats.retransmissions += 1;
                    sent += 1;
                    return false;
                }
            }
            true
        });

        // 2–3. Broadcast new messages under flow control and bring
        //      the token's aru up to date.
        let sent = self.send_phase(t, sent, &mut events);
        let Some((tok, ring)) = operational_parts(&mut self.state, &mut self.ring) else {
            return events;
        };

        // 4. Request what we are missing.
        let room = MAX_RTR.saturating_sub(t.rtr.len());
        let missing = ring.window.missing(room);
        self.stats.retrans_requested += missing.len() as u64;
        for s in missing {
            if !t.rtr.contains(&s) {
                t.rtr.push(s);
            }
        }

        // 5. Deliver and garbage-collect.
        let low_water = tok.push_aru(t.aru);
        let deliver_to = match self.cfg.guarantee {
            DeliveryGuarantee::Agreed => Some(ring.window.my_aru()),
            DeliveryGuarantee::Safe => low_water,
        };
        let ring_id = ring.ring;
        if let Some(deliver_to) = deliver_to {
            ring.window.take_deliverable(deliver_to, |pkt| {
                deliver_packet(ring_id, pkt, &mut self.reassembler, &mut self.stats, &mut events);
            });
        }
        if let Some(low_water) = low_water {
            ring.window.discard_up_to(low_water);
        }

        // 6. The representative counts rotations (paper §2 footnote 1).
        if ring.rep() == self.me {
            t.rotation = t.rotation.next();
        }

        // 7. Forward — or hold briefly if the whole ring is idle: this
        //    visit sent nothing, nothing awaits retransmission and no
        //    member reports queued messages. A member with nothing of
        //    its own to send must not delay one that has.
        let ring_idle = sent == 0 && t.rtr.is_empty() && t.backlog == 0;
        if ring_idle && self.cfg.idle_token_hold > 0 {
            tok.hold = Some(pkt);
            tok.hold_deadline = Some(now + self.cfg.idle_token_hold);
            self.stats.tokens_held += 1;
        } else {
            forward_token(self.me, &self.cfg, tok, ring, pkt, now, &mut events);
        }
        events
    }
}

/// Simultaneous disjoint borrows of the Operational token context and
/// the ring — the shape every token-processing path needs. `None`
/// outside Operational or (unreachable via the constructors) when an
/// Operational node has no ring.
pub(crate) fn operational_parts<'a>(
    state: &'a mut StateImpl,
    ring: &'a mut Option<RingCtx>,
) -> Option<(&'a mut TokenCtx, &'a mut RingCtx)> {
    match (state, ring) {
        (StateImpl::Operational(tok), Some(r)) => Some((tok, r)),
        (StateImpl::Operational(_), None)
        | (StateImpl::Gather(_), _)
        | (StateImpl::Commit(_), _)
        | (StateImpl::Recovery(_), _) => None,
    }
}

/// Forwards the token `sent` to the successor, arming the
/// retransmission timer.
pub(crate) fn forward_token(
    me: NodeId,
    cfg: &SrpConfig,
    tok: &mut TokenCtx,
    ring: &RingCtx,
    sent: SharedPacket,
    now: Nanos,
    events: &mut Vec<SrpEvent>,
) {
    // On a singleton ring the successor is this node: the token comes
    // straight back as a self-addressed send, so hosts with loopback
    // semantics work.
    let succ = ring.successor(me);
    events.push(SrpEvent::ToSuccessor(succ, sent.clone()));
    tok.sent_token = Some(sent);
    tok.retx_deadline = Some(now + cfg.token_retransmit_interval);
}

fn release_held_token(
    me: NodeId,
    cfg: &SrpConfig,
    tok: &mut TokenCtx,
    ring: &RingCtx,
    events: &mut Vec<SrpEvent>,
) {
    if let Some(t) = tok.hold.take() {
        let deadline = tok.hold_deadline.take().unwrap_or(0);
        forward_token(me, cfg, tok, ring, t, deadline, events);
    }
}

/// Unpacks one delivered packet into application messages.
pub(crate) fn deliver_packet(
    ring: RingId,
    pkt: &SharedPacket,
    reassembler: &mut Reassembler,
    stats: &mut SrpStats,
    events: &mut Vec<SrpEvent>,
) {
    let Some(d) = pkt.data() else { return };
    for chunk in &d.chunks {
        if chunk.kind == ChunkKind::Recovery {
            continue; // protocol-internal; unwrapped elsewhere
        }
        if let Some(data) = reassembler.push(d.sender, chunk) {
            stats.delivered_msgs += 1;
            stats.delivered_bytes += data.len() as u64;
            events.push(SrpEvent::Deliver(Delivered { sender: d.sender, seq: d.seq, ring, data }));
        }
    }
}

/// Builds a recovery chunk embedding an old-ring packet.
///
/// The embedded bytes are the packet's cached wire encoding: for a
/// frame that arrived off the wire this is the buffer it was decoded
/// from, and for a locally originated frame it is the encoding
/// produced when it was first broadcast — either way the encoder does
/// not run again here.
pub(crate) fn recovery_chunk(old: &SharedPacket) -> Chunk {
    Chunk { kind: ChunkKind::Recovery, msg_id: 0, orig_len: 0, data: old.encoded().clone() }
}
