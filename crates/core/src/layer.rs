//! The unified redundant-ring layer: routing and event translation
//! over the K-of-N replication engine.
//!
//! [`RrpLayer`] sits between the SRP and the networks:
//!
//! ```text
//!   SRP  ──(send msg/token)──▶  routes_for_{message,token}_into
//!   nets ──(recv packet)────▶  on_packet ──▶ Deliver(..) up to the SRP
//!                                        └─▶ Fault(..) to the operator
//! ```
//!
//! All replicated styles are one `engine::Engine` at a
//! different replication degree K (active = N, passive = 1,
//! active-passive/K-of-N = K); this façade only keeps the wire
//! counters, translates engine events into conformance transitions,
//! and applies the operator-facing policies (automatic reinstatement
//! probation, [`RrpLayer::set_k`] reconfiguration, automatic K
//! degradation).
//!
//! The host composes it with an SRP node; after the SRP processes a
//! delivered message, the host must call [`RrpLayer::poll_release`]
//! with the fresh `any_messages_missing()` so passive-mode replication
//! (K=1) can release a token that was buffered behind the gap (paper
//! Figure 4, `recvMsg`).

use serde::{Deserialize, Serialize};

use totem_wire::{
    NetworkId, NodeId, Packet, RingId, Rotation, Seq, SharedPacket, Transition,
    TRANSITION_BUFFER_CAP,
};

use crate::config::{ReplicationStyle, RrpConfig, RrpConfigError};
use crate::engine::{token_key, Engine};
use crate::fault::FaultReason;
use crate::fault::FaultReport;
use crate::pernet::PerNet;

/// What the layer tells its host.
#[derive(Debug, Clone, PartialEq)]
pub enum RrpEvent {
    /// Hand this packet to the SRP. The network it (first) arrived on
    /// is attached for statistics. Message-class packets keep the
    /// shared handle they arrived with, so the frame (and its cached
    /// wire bytes) survives intact into the SRP's receive window.
    Deliver(SharedPacket, NetworkId),
    /// A network has been declared faulty; the application/operator
    /// should be told (paper §3).
    Fault(FaultReport),
    /// A previously faulty network was put back in service (by the
    /// administrator via [`RrpLayer::reinstate`] or by automatic
    /// probation — see [`crate::RrpConfig::auto_reinstate_interval`]).
    Reinstated {
        /// The repaired network.
        net: NetworkId,
        /// Protocol time of the reinstatement, in nanoseconds.
        at: u64,
    },
}

/// Wire-level counters kept by the layer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrpStats {
    /// Packets received per network.
    pub received: Vec<u64>,
    /// Message-class sends issued (each counted once per copy).
    pub message_copies_sent: u64,
    /// Token-class sends issued (each counted once per copy).
    pub token_copies_sent: u64,
    /// Tokens released by a token-timer expiry rather than completion.
    pub tokens_timer_released: u64,
    /// Tokens buffered behind missing messages (passive mode, K=1).
    pub tokens_buffered: u64,
}

/// The redundant ring protocol layer. See the
/// [crate documentation](crate) for an example.
#[derive(Debug)]
pub struct RrpLayer {
    cfg: RrpConfig,
    inner: Inner,
    stats: RrpStats,
    /// When each currently-faulty network was flagged (drives the
    /// optional automatic reinstatement probation).
    flagged_at: PerNet<Option<u64>>,
    /// The operator-configured replication degree: the ceiling the
    /// automatic degradation policy restores K towards. Tracks the
    /// style's initial K until [`RrpLayer::set_k`] moves it.
    baseline_k: usize,
    /// Per-mode state-machine transitions since the last
    /// [`RrpLayer::take_transitions`], for the conformance gate.
    transitions: Vec<Transition>,
}

#[derive(Debug)]
enum Inner {
    /// The unreplicated baseline: a transparent passthrough with no
    /// monitors, gate or timers. Kept apart from the engine because a
    /// single network delivers duplicate tokens straight up, which no
    /// gated degree K does.
    Single,
    Engine(Box<Engine>),
}

impl RrpLayer {
    /// Builds a layer for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`RrpConfig::validate`] violation; an invalid
    /// configuration never yields a half-built layer.
    pub fn new(cfg: RrpConfig) -> Result<Self, RrpConfigError> {
        cfg.validate()?;
        let k = cfg.style.initial_k(cfg.networks);
        let inner = match cfg.style {
            ReplicationStyle::Single => Inner::Single,
            ReplicationStyle::Active
            | ReplicationStyle::Passive
            | ReplicationStyle::ActivePassive { .. }
            | ReplicationStyle::KOfN { .. } => Inner::Engine(Box::new(Engine::new(&cfg, k))),
        };
        let stats = RrpStats { received: vec![0; cfg.networks], ..RrpStats::default() };
        let flagged_at = PerNet::filled(cfg.networks, None);
        Ok(RrpLayer { cfg, inner, stats, flagged_at, baseline_k: k, transitions: Vec::new() })
    }

    /// Drains the state-machine transitions recorded since the last
    /// call (network fault/reinstate machines, the passive token
    /// buffer machine, and the replication-degree machine), for the
    /// conformance trace.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    /// Records one state-machine transition. Call sites pass four
    /// string literals so `cargo xtask conformance` can extract the
    /// transition table statically; the buffer is capped so an
    /// un-drained layer cannot grow without bound.
    fn note_transition(
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

    /// The engine's current replication degree, or `None` for the
    /// unreplicated baseline.
    pub fn replication_k(&self) -> Option<usize> {
        match &self.inner {
            Inner::Single => None,
            Inner::Engine(e) => Some(e.k()),
        }
    }

    /// Operator command: changes the replication degree K on the fly.
    ///
    /// The engine keeps its faulty set, rotation pointers and any
    /// pending token across the switch (see
    /// `engine::Engine::set_k`); the new K also becomes the
    /// baseline the automatic degradation policy restores towards.
    /// Returns `false` (and changes nothing) if K is out of `1..=N`
    /// or the layer runs the unreplicated baseline.
    pub fn set_k(&mut self, now: u64, k: usize) -> bool {
        if k < 1 || k > self.cfg.networks {
            return false;
        }
        match &mut self.inner {
            Inner::Single => false,
            Inner::Engine(e) => {
                if e.k() != k {
                    e.set_k(now, k, &self.cfg);
                    self.note_transition("rrp-replication", "Steady", "OperatorSetK", "Steady");
                }
                self.baseline_k = k;
                true
            }
        }
    }

    /// Administrative repair: puts a faulty network back in service.
    /// The paper leaves repair to "an administrator reacting to the
    /// alarm" (§1/§3); this is that hook. Monitor state for the
    /// network is reset so it starts probation with a clean slate.
    /// Returns `true` if the network was indeed marked faulty.
    ///
    /// # Example
    ///
    /// ```
    /// # use totem_rrp::{ReplicationStyle, RrpConfig, RrpLayer};
    /// # use totem_wire::NetworkId;
    /// let mut rrp = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).unwrap();
    /// // Nothing faulty yet: reinstating is a no-op.
    /// assert!(!rrp.reinstate(0, NetworkId::new(1)));
    /// ```
    pub fn reinstate(&mut self, now: u64, net: NetworkId) -> bool {
        assert!(net.index() < self.cfg.networks, "network out of range");
        let grace = self.cfg.reinstate_grace;
        let was = match &mut self.inner {
            Inner::Single => false,
            Inner::Engine(e) => e.reinstate(now, net, grace),
        };
        self.flagged_at.set(net, None);
        if was {
            // One literal call site per machine (the static extractor
            // in `cargo xtask conformance` requires literal strings).
            match self.net_machine() {
                "rrp-passive-net" => {
                    self.note_transition("rrp-passive-net", "Faulty", "Reinstate", "Operative");
                }
                "rrp-active-net" => {
                    self.note_transition("rrp-active-net", "Faulty", "Reinstate", "Operative");
                }
                _ => {
                    self.note_transition(
                        "rrp-active-passive-net",
                        "Faulty",
                        "Reinstate",
                        "Operative",
                    );
                }
            }
            if self.cfg.auto_degrade {
                if let Inner::Engine(e) = &mut self.inner {
                    if e.k() < self.baseline_k {
                        e.set_k(now, e.k() + 1, &self.cfg);
                        self.note_transition("rrp-replication", "Steady", "AutoRestore", "Steady");
                    }
                }
            }
        }
        was
    }

    /// The network fault/reinstate machine for the current mode. The
    /// machines are per *algorithm* — what the engine's K degenerates
    /// to — so the legacy styles keep their historical machine names.
    fn net_machine(&self) -> &'static str {
        match self.replication_k() {
            Some(1) => "rrp-passive-net",
            Some(k) if k >= self.cfg.networks => "rrp-active-net",
            _ => "rrp-active-passive-net",
        }
    }

    fn note_new_faults(&mut self, events: &[RrpEvent]) {
        for ev in events {
            if let RrpEvent::Fault(r) = ev {
                self.flagged_at.set(r.net, Some(r.at));
                match r.reason {
                    // Token timeouts are raised only by the K=N
                    // problem-counter strategy (Figure 2).
                    FaultReason::TokenTimeouts { .. } => {
                        self.note_transition(
                            "rrp-active-net",
                            "Operative",
                            "TokenTimeouts",
                            "Faulty",
                        );
                    }
                    FaultReason::ReceptionLag { .. } if self.replication_k() == Some(1) => {
                        self.note_transition(
                            "rrp-passive-net",
                            "Operative",
                            "ReceptionLag",
                            "Faulty",
                        );
                    }
                    FaultReason::ReceptionLag { .. } => {
                        self.note_transition(
                            "rrp-active-passive-net",
                            "Operative",
                            "ReceptionLag",
                            "Faulty",
                        );
                    }
                }
                if self.cfg.auto_degrade {
                    if let Inner::Engine(e) = &mut self.inner {
                        if e.k() > 1 {
                            e.set_k(r.at, e.k() - 1, &self.cfg);
                            self.note_transition(
                                "rrp-replication",
                                "Steady",
                                "AutoDegrade",
                                "Steady",
                            );
                        }
                    }
                }
            }
        }
    }

    fn auto_reinstatements(&mut self, now: u64, out: &mut Vec<RrpEvent>) {
        if self.cfg.auto_reinstate_interval == 0 {
            return;
        }
        let due: Vec<NetworkId> = self
            .flagged_at
            .iter()
            .filter_map(|(net, f)| {
                f.and_then(|at| (now >= at + self.cfg.auto_reinstate_interval).then_some(net))
            })
            .collect();
        for net in due {
            if self.reinstate(now, net) {
                out.push(RrpEvent::Reinstated { net, at: now });
            }
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RrpConfig {
        &self.cfg
    }

    /// Number of redundant networks.
    pub fn networks(&self) -> usize {
        self.cfg.networks
    }

    /// Which networks are currently marked faulty. A faulty network is
    /// never used for sending but is still accepted for reception
    /// (paper §3).
    pub fn faulty(&self) -> Vec<bool> {
        match &self.inner {
            Inner::Single => vec![false],
            Inner::Engine(e) => e.faulty.to_vec(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &RrpStats {
        &self.stats
    }

    /// Networks on which to send the next **message-class** packet
    /// (data packets and join messages). Clears `out` and fills it in
    /// place, so a caller on the send hot path can recycle one route
    /// buffer across packets (as do the three forms below).
    ///
    /// # Example
    ///
    /// Passive replication alternates networks per packet:
    ///
    /// ```
    /// # use totem_rrp::{ReplicationStyle, RrpConfig, RrpLayer};
    /// let mut rrp = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).unwrap();
    /// let (mut first, mut second) = (Vec::new(), Vec::new());
    /// rrp.routes_for_message_into(&mut first);
    /// rrp.routes_for_message_into(&mut second);
    /// assert_eq!(first.len(), 1);
    /// assert_ne!(first, second);
    /// ```
    pub fn routes_for_message_into(&mut self, out: &mut Vec<NetworkId>) {
        match &mut self.inner {
            Inner::Single => {
                out.clear();
                out.push(NetworkId::new(0));
            }
            Inner::Engine(e) => e.routes_message_into(out),
        }
        self.stats.message_copies_sent += out.len() as u64;
    }

    /// Networks on which to send the next **token-class** packet
    /// (regular tokens).
    pub fn routes_for_token_into(&mut self, out: &mut Vec<NetworkId>) {
        match &mut self.inner {
            Inner::Single => {
                out.clear();
                out.push(NetworkId::new(0));
            }
            Inner::Engine(e) => e.routes_token_into(out),
        }
        self.stats.token_copies_sent += out.len() as u64;
    }

    /// Networks for a **retransmission** this node serves on another
    /// sender's behalf. Uses a rotation independent of the node's own
    /// data rotation so per-sender reception monitors stay unskewed.
    pub fn routes_for_retransmission_into(&mut self, out: &mut Vec<NetworkId>) {
        match &mut self.inner {
            Inner::Single => {
                out.clear();
                out.push(NetworkId::new(0));
            }
            Inner::Engine(e) => e.routes_retransmission_into(out),
        }
        self.stats.message_copies_sent += out.len() as u64;
    }

    /// Networks for **membership traffic** (join messages and commit
    /// tokens): always every non-faulty network, under every style.
    /// Membership traffic is rare and small, and the membership
    /// protocol has no retransmission machinery for the commit token —
    /// under passive replication a single-copy commit token would be
    /// lost with ~50% probability per hop while a network is dead but
    /// not yet flagged, livelocking reformation. Replicating it keeps
    /// reconfiguration robust at negligible cost (the SRP's join and
    /// commit handlers are idempotent against duplicates).
    pub fn routes_for_membership_into(&mut self, out: &mut Vec<NetworkId>) {
        out.clear();
        let nets = (0..self.cfg.networks as u8).map(NetworkId::new);
        out.extend(nets.clone().filter(|&n| !self.net_faulty(n)));
        if out.is_empty() {
            out.extend(nets);
        }
        self.stats.message_copies_sent += out.len() as u64;
    }

    /// Whether `net` is currently flagged faulty (no allocation, any
    /// style).
    fn net_faulty(&self, net: NetworkId) -> bool {
        match &self.inner {
            Inner::Single => false,
            Inner::Engine(e) => e.faulty.at(net),
        }
    }

    /// Feeds a packet received on `net`. `any_missing` is the SRP's
    /// `any_messages_missing()` evaluated *before* this packet is
    /// processed (only consulted for tokens at K=1).
    ///
    /// Regular tokens are gated per the replication degree. Messages,
    /// join messages and commit tokens pass straight up: duplicate
    /// data packets are destroyed by the SRP's sequence-number filter
    /// (Requirement A1) and the membership handlers are idempotent
    /// against duplicate joins/commits.
    pub fn on_packet(
        &mut self,
        now: u64,
        net: NetworkId,
        pkt: SharedPacket,
        any_missing: bool,
    ) -> Vec<RrpEvent> {
        let mut events = Vec::new();
        self.on_packet_into(now, net, pkt, any_missing, &mut events);
        events
    }

    /// Like [`RrpLayer::on_packet`], but appends the resulting events
    /// to a caller-supplied buffer. The message fast path (one
    /// `Deliver` per reception) then allocates nothing when the caller
    /// recycles the buffer across receptions.
    pub fn on_packet_into(
        &mut self,
        now: u64,
        net: NetworkId,
        pkt: SharedPacket,
        any_missing: bool,
        out: &mut Vec<RrpEvent>,
    ) {
        // Every class keeps the shared handle it arrived in, so what is
        // delivered — a frame into the SRP's window, a token out of the
        // gate — is what arrived.
        if let Some(t) = pkt.token() {
            let (ring, rotation, seq) = (t.ring, t.rotation, t.seq);
            self.on_token_into(now, net, ring, rotation, seq, any_missing, || Some(pkt), out);
        } else {
            self.message_into(now, net, sender_of(&pkt), Some(pkt), out);
        }
    }

    /// Feeds one copy of the regular token `(ring, rotation, seq)`
    /// received on `net`, known so far by its header alone — all the
    /// gate reads of it. `body` materialises the packet and is called
    /// only if this copy is the one the gate must hold or pass up; the
    /// copy that merely completes a held instance, and a stale or
    /// surplus one, are accounted for (reception counter, token
    /// monitor, gate) and never decoded. With `body` returning the
    /// packet the header came from, this is
    /// [`RrpLayer::on_packet_into`] for that packet.
    #[allow(clippy::too_many_arguments)]
    pub fn on_token_into(
        &mut self,
        now: u64,
        net: NetworkId,
        ring: RingId,
        rotation: Rotation,
        seq: Seq,
        any_missing: bool,
        body: impl FnOnce() -> Option<SharedPacket>,
        out: &mut Vec<RrpEvent>,
    ) {
        self.count_reception(net);
        let start = out.len();
        let mut token_newly_buffered = false;
        match &mut self.inner {
            Inner::Single => out.extend(body().map(|pkt| RrpEvent::Deliver(pkt, net))),
            Inner::Engine(e) => {
                let was_buffering = e.buffering();
                let key = token_key(ring, rotation, seq);
                e.on_token(now, net, key, any_missing, &self.cfg, body, out);
                if e.k() == 1 {
                    let passed_up = out.get(start..).is_some_and(|new| {
                        new.iter().any(|ev| matches!(ev, RrpEvent::Deliver(..)))
                    });
                    if any_missing && !passed_up {
                        self.stats.tokens_buffered += 1;
                    }
                    token_newly_buffered = !was_buffering && e.buffering();
                }
            }
        }
        if token_newly_buffered {
            self.note_transition("rrp-passive-token", "Idle", "TokenBehindGap", "Buffered");
        }
        if let Some(new) = out.get(start..) {
            self.note_new_faults(new);
        }
    }

    /// Reception accounting for a data frame from `sender` that the
    /// caller has established the SRP has no use for (a copy of a
    /// packet it already holds): the reception counter and the
    /// sender's monitor move exactly as [`RrpLayer::on_packet_into`]
    /// moves them, and nothing is delivered — so the frame never has
    /// to be decoded.
    pub fn on_redundant_message_into(
        &mut self,
        now: u64,
        net: NetworkId,
        sender: NodeId,
        out: &mut Vec<RrpEvent>,
    ) {
        self.message_into(now, net, Some(sender), None, out);
    }

    /// Stage one for a message-class frame, then the frame itself
    /// straight up (unless the caller withholds it as redundant).
    fn message_into(
        &mut self,
        now: u64,
        net: NetworkId,
        sender: Option<NodeId>,
        pkt: Option<SharedPacket>,
        out: &mut Vec<RrpEvent>,
    ) {
        self.count_reception(net);
        let start = out.len();
        if let Inner::Engine(e) = &mut self.inner {
            // Commit tokens have no data sender; they count on the
            // token monitor below instead.
            if let Some(sender) = sender {
                e.on_message(now, net, sender, &self.cfg, out);
            }
            if e.k() == 1 && pkt.as_ref().is_some_and(|p| matches!(p.packet(), Packet::Commit(_))) {
                // Commit tokens travel the token path; count them on
                // the token monitor so quiet-period coverage extends
                // to reconfiguration (paper §6).
                e.on_token_monitor_only(now, net, out);
            }
        }
        out.extend(pkt.map(|pkt| RrpEvent::Deliver(pkt, net)));
        if let Some(new) = out.get(start..) {
            self.note_new_faults(new);
        }
    }

    fn count_reception(&mut self, net: NetworkId) {
        if let Some(count) = self.stats.received.get_mut(net.index()) {
            *count += 1;
        }
    }

    /// Must be called after the SRP has processed a delivered message,
    /// with the fresh `any_messages_missing()`: passive-mode
    /// replication (K=1) releases a buffered token the moment the gap
    /// closes (paper Figure 4, `recvMsg`).
    pub fn poll_release(&mut self, _now: u64, any_missing: bool) -> Vec<RrpEvent> {
        let mut events = Vec::new();
        self.poll_release_into(any_missing, &mut events);
        events
    }

    /// Like [`RrpLayer::poll_release`], but appends the released token
    /// (if any) to a caller-supplied buffer.
    pub fn poll_release_into(&mut self, any_missing: bool, out: &mut Vec<RrpEvent>) {
        let Inner::Engine(e) = &mut self.inner else { return };
        let was_buffering = e.buffering();
        e.poll_release(any_missing, out);
        if was_buffering && !e.buffering() {
            self.note_transition("rrp-passive-token", "Buffered", "GapClosed", "Idle");
        }
    }

    /// Fires any timers with deadline `<= now`.
    pub fn on_timer(&mut self, now: u64) -> Vec<RrpEvent> {
        let mut events = Vec::new();
        self.on_timer_into(now, &mut events);
        events
    }

    /// Like [`RrpLayer::on_timer`], but appends the resulting events to
    /// a caller-supplied buffer.
    pub fn on_timer_into(&mut self, now: u64, out: &mut Vec<RrpEvent>) {
        let start = out.len();
        if let Inner::Engine(e) = &mut self.inner {
            let was_buffering = e.buffering();
            e.on_timer(now, &self.cfg, out);
            if was_buffering && !e.buffering() {
                self.note_transition("rrp-passive-token", "Buffered", "TimerExpiry", "Idle");
            }
        }
        if let Some(new) = out.get(start..) {
            self.stats.tokens_timer_released += new
                .iter()
                .filter(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class()))
                .count() as u64;
            self.note_new_faults(new);
        }
        self.auto_reinstatements(now, out);
    }

    /// The per-network problem counters of the K=N problem-counter
    /// monitor (Figure 2), for diagnostics; zeros in every other mode.
    pub fn problem_counters(&self) -> Vec<u32> {
        match &self.inner {
            Inner::Single => vec![0; self.cfg.networks],
            Inner::Engine(e) => e.problem_counters(self.cfg.networks),
        }
    }

    /// Feeds the protocol-visible portion of this layer's state into a
    /// caller-supplied hasher: the faulty set, the current replication
    /// degree, and the per-network problem counters. Part of the
    /// canonical state hash of the bounded model checker
    /// (`totem_cluster::mc`).
    pub fn fingerprint<H: core::hash::Hasher>(&self, h: &mut H) {
        use core::hash::Hash as _;
        self.faulty().hash(h);
        self.replication_k().hash(h);
        self.problem_counters().hash(h);
    }

    /// Diagnostic snapshot of the reception-count monitors (passive
    /// mode, K=1, only; empty otherwise).
    pub fn monitor_report(&self) -> Vec<(crate::fault::MonitorKind, Vec<u64>)> {
        match &self.inner {
            Inner::Engine(e) if e.k() == 1 => e.monitor_report(),
            Inner::Single | Inner::Engine(_) => Vec::new(),
        }
    }

    /// Deterministically corrupts the stage-one health monitor's
    /// bookkeeping (self-stabilization fault injection; see
    /// `totem_sim::CorruptionTarget::MonitorCounters`). No-op under
    /// the unreplicated single-network style, which has no monitors.
    pub fn corrupt_monitors(&mut self, rng: &mut rand::rngs::SmallRng) {
        if let Inner::Engine(e) = &mut self.inner {
            e.corrupt_monitors(rng);
        }
    }

    /// Deterministically corrupts the stage-two token gate
    /// (self-stabilization fault injection; see
    /// `totem_sim::CorruptionTarget::TokenGate`). No-op under the
    /// unreplicated single-network style, which has no gate.
    pub fn corrupt_token_gate(&mut self, rng: &mut rand::rngs::SmallRng) {
        if let Inner::Engine(e) = &mut self.inner {
            e.corrupt_token_gate(rng);
        }
    }

    /// The earliest instant [`RrpLayer::on_timer`] must run, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        let inner = match &self.inner {
            Inner::Single => None,
            Inner::Engine(e) => e.next_deadline(),
        };
        let auto = (self.cfg.auto_reinstate_interval > 0)
            .then(|| {
                self.flagged_at
                    .values()
                    .flatten()
                    .map(|at| at + self.cfg.auto_reinstate_interval)
                    .min()
            })
            .flatten();
        [inner, auto].into_iter().flatten().min()
    }
}

/// The sender of a message-class packet, for the per-sender monitors.
fn sender_of(pkt: &Packet) -> Option<NodeId> {
    match pkt {
        Packet::Data(d) => Some(d.sender),
        Packet::Join(j) => Some(j.sender),
        Packet::Token(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use totem_wire::{Chunk, DataPacket, Token};

    fn data(seq: u64, sender: u16) -> Packet {
        Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(seq),
            sender: NodeId::new(sender),
            chunks: Chunk::complete(0, Bytes::from_static(b"x")).into(),
        })
    }

    fn token(seq: u64) -> Packet {
        let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
        t.seq = Seq::new(seq);
        Packet::Token(t)
    }

    fn message_routes(l: &mut RrpLayer) -> Vec<NetworkId> {
        let mut routes = Vec::new();
        l.routes_for_message_into(&mut routes);
        routes
    }

    fn token_routes(l: &mut RrpLayer) -> Vec<NetworkId> {
        let mut routes = Vec::new();
        l.routes_for_token_into(&mut routes);
        routes
    }

    #[test]
    fn single_is_transparent_passthrough() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Single, 1)).unwrap();
        assert_eq!(message_routes(&mut l), vec![NetworkId::new(0)]);
        assert_eq!(token_routes(&mut l), vec![NetworkId::new(0)]);
        let ev = l.on_packet(0, NetworkId::new(0), token(1).into(), true);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
        assert!(l.next_deadline().is_none());
        assert_eq!(l.replication_k(), None);
        assert!(!l.set_k(0, 1), "the baseline has no degree to change");
    }

    #[test]
    fn active_sends_messages_and_tokens_everywhere() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 3)).unwrap();
        assert_eq!(message_routes(&mut l).len(), 3);
        assert_eq!(token_routes(&mut l).len(), 3);
        assert_eq!(l.stats().message_copies_sent, 3);
        assert_eq!(l.stats().token_copies_sent, 3);
        assert_eq!(l.replication_k(), Some(3));
    }

    #[test]
    fn active_messages_pass_straight_up() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).unwrap();
        let ev = l.on_packet(0, NetworkId::new(1), data(1, 0).into(), false);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.data().is_some()));
        // The duplicate copy on the other network also goes up — the
        // SRP's sequence filter destroys it (Requirement A1).
        let ev = l.on_packet(1, NetworkId::new(0), data(1, 0).into(), false);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.data().is_some()));
    }

    #[test]
    fn passive_alternates_and_buffers_tokens_behind_gaps() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).unwrap();
        let m1 = message_routes(&mut l);
        let m2 = message_routes(&mut l);
        assert_eq!(m1.len(), 1);
        assert_ne!(m1, m2);

        let ev = l.on_packet(0, NetworkId::new(0), token(3).into(), true);
        assert!(ev.iter().all(|e| !matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())));
        assert_eq!(l.stats().tokens_buffered, 1);
        let ev = l.poll_release(1, false);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
    }

    #[test]
    fn commit_tokens_pass_up_unconditionally() {
        use totem_wire::CommitToken;
        for style in [ReplicationStyle::Active, ReplicationStyle::Passive] {
            let mut l = RrpLayer::new(RrpConfig::new(style, 2)).unwrap();
            let ct = Packet::Commit(CommitToken {
                ring: RingId::new(NodeId::new(0), 2),
                round: 0,
                entries: vec![],
            });
            let ev = l.on_packet(0, NetworkId::new(0), ct.into(), true);
            assert!(
                ev.iter().any(|e| matches!(e, RrpEvent::Deliver(p, _) if matches!(p.packet(), Packet::Commit(_)))),
                "commit token must pass up under {style}"
            );
        }
    }

    #[test]
    fn timer_release_is_counted() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).unwrap();
        l.on_packet(0, NetworkId::new(0), token(3).into(), true);
        let d = l.next_deadline().unwrap();
        let ev = l.on_timer(d);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
        assert_eq!(l.stats().tokens_timer_released, 1);
    }

    #[test]
    fn received_counters_track_networks() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).unwrap();
        l.on_packet(0, NetworkId::new(0), data(1, 0).into(), false);
        l.on_packet(0, NetworkId::new(1), data(1, 0).into(), false);
        l.on_packet(0, NetworkId::new(1), data(2, 0).into(), false);
        assert_eq!(l.stats().received, vec![1, 2]);
    }

    #[test]
    fn problem_counters_report_active_state() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).unwrap();
        assert_eq!(l.problem_counters(), vec![0, 0]);
        // One token seen on net0 only; timer expiry penalizes net1.
        l.on_packet(0, NetworkId::new(0), token(1).into(), false);
        let d = l.next_deadline().unwrap();
        l.on_timer(d);
        assert_eq!(l.problem_counters(), vec![0, 1]);
        // Non-active styles always report zeros.
        let p = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).unwrap();
        assert_eq!(p.problem_counters(), vec![0, 0]);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        use crate::config::RrpConfigError;
        assert_eq!(
            RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 1)).map(|_| ()),
            Err(RrpConfigError::NeedsTwoNetworks { style: ReplicationStyle::Active, got: 1 })
        );
    }

    #[test]
    fn fault_and_reinstate_transitions_are_recorded() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).unwrap();
        let cfg = l.config().clone();
        for i in 0..cfg.problem_threshold as u64 {
            let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
            t.rotation = Rotation::new(i);
            t.seq = Seq::new(i + 1);
            l.on_packet(i * 10_000_000, NetworkId::new(0), Packet::Token(t).into(), false);
            if let Some(d) = l.next_deadline() {
                l.on_timer(d);
            }
        }
        let trs = l.take_transitions();
        assert!(
            trs.iter().any(|t| t.machine == "rrp-active-net"
                && t.from == "Operative"
                && t.event == "TokenTimeouts"
                && t.to == "Faulty"),
            "fault transition missing from {trs:?}"
        );
        assert!(l.reinstate(1_000_000_000, NetworkId::new(1)));
        let trs = l.take_transitions();
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].event, "Reinstate");
        assert!(l.take_transitions().is_empty(), "take_transitions drains");
    }

    #[test]
    fn passive_token_machine_transitions_are_recorded() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).unwrap();
        l.on_packet(0, NetworkId::new(0), token(3).into(), true);
        l.poll_release(1, false);
        l.on_packet(2, NetworkId::new(1), token(4).into(), true);
        let d = l.next_deadline().unwrap();
        l.on_timer(d);
        let path: Vec<&str> = l
            .take_transitions()
            .iter()
            .filter(|t| t.machine == "rrp-passive-token")
            .map(|t| t.event)
            .collect();
        assert_eq!(path, vec!["TokenBehindGap", "GapClosed", "TokenBehindGap", "TimerExpiry"]);
    }

    #[test]
    fn set_k_reconfigures_and_notes_the_transition() {
        let mut l = RrpLayer::new(RrpConfig::new(ReplicationStyle::KOfN { copies: 2 }, 3)).unwrap();
        assert_eq!(l.replication_k(), Some(2));
        assert!(!l.set_k(0, 0), "K=0 is rejected");
        assert!(!l.set_k(0, 4), "K>N is rejected");
        assert!(l.set_k(0, 3));
        assert_eq!(l.replication_k(), Some(3));
        assert_eq!(message_routes(&mut l).len(), 3, "K=N sends everywhere");
        assert!(l.set_k(0, 1));
        assert_eq!(message_routes(&mut l).len(), 1, "K=1 sends one copy");
        let ops: Vec<&str> = l
            .take_transitions()
            .iter()
            .filter(|t| t.machine == "rrp-replication")
            .map(|t| t.event)
            .collect();
        assert_eq!(ops, vec!["OperatorSetK", "OperatorSetK"]);
        // A no-op set keeps the trace quiet.
        assert!(l.set_k(0, 1));
        assert!(l.take_transitions().is_empty());
    }

    #[test]
    fn auto_degrade_steps_k_down_on_fault_and_back_up_on_reinstate() {
        let cfg = RrpConfig::new(ReplicationStyle::KOfN { copies: 3 }, 3).with_auto_degrade();
        let mut l = RrpLayer::new(cfg).unwrap();
        let cfg = l.config().clone();
        // Drive net1 to a token-timeout fault at K=N.
        for i in 0..cfg.problem_threshold as u64 {
            let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
            t.rotation = Rotation::new(i);
            t.seq = Seq::new(i + 1);
            let now = i * 10_000_000;
            l.on_packet(now, NetworkId::new(0), Packet::Token(t.clone()).into(), false);
            l.on_packet(now, NetworkId::new(2), Packet::Token(t).into(), false);
            if let Some(d) = l.next_deadline() {
                l.on_timer(d);
            }
        }
        assert_eq!(l.faulty(), vec![false, true, false]);
        assert_eq!(l.replication_k(), Some(2), "K stepped down with the fault");
        assert!(l
            .take_transitions()
            .iter()
            .any(|t| t.machine == "rrp-replication" && t.event == "AutoDegrade"));
        // Repair restores the degree towards the baseline.
        assert!(l.reinstate(1_000_000_000, NetworkId::new(1)));
        assert_eq!(l.replication_k(), Some(3));
        assert!(l
            .take_transitions()
            .iter()
            .any(|t| t.machine == "rrp-replication" && t.event == "AutoRestore"));
    }

    #[test]
    fn auto_restore_never_exceeds_an_operator_lowered_baseline() {
        let cfg = RrpConfig::new(ReplicationStyle::KOfN { copies: 2 }, 3).with_auto_degrade();
        let mut l = RrpLayer::new(cfg).unwrap();
        // The operator pins K=1; a later reinstatement must not raise
        // it (nothing was degraded below the baseline).
        assert!(l.set_k(0, 1));
        // Enough one-sided receptions that the divergence outruns the
        // message-driven compensation and nets 1/2 get flagged.
        let threshold = l.config().monitor_threshold;
        for i in 0..threshold * 2 {
            l.on_packet(i, NetworkId::new(0), data(i + 1, 3).into(), false);
        }
        assert!(l.faulty().iter().filter(|&&f| f).count() >= 1);
        let flagged = l.faulty().iter().position(|&f| f).unwrap();
        assert!(l.reinstate(1_000_000_000, NetworkId::new(flagged as u8)));
        assert_eq!(l.replication_k(), Some(1), "baseline is the operator's K");
    }
}
