//! The composed Totem node: SRP over RRP.
//!
//! [`TotemNode`] wires the two sans-io layers together exactly as the
//! paper's architecture prescribes (§5: "The algorithm forms a layer
//! that resides between the Totem SRP and the networks"):
//!
//! * SRP send actions are fanned out to networks chosen by the RRP
//!   ([`totem_rrp::RrpLayer::routes_for_message_into`] /
//!   [`totem_rrp::RrpLayer::routes_for_token_into`]);
//! * received packets are gated by the RRP and handed up to the SRP;
//! * after the SRP digests a message, the RRP gets a chance to release
//!   a token it buffered behind the gap (passive replication, Figure
//!   4 `recvMsg`);
//! * a host that receives raw datagrams hands them over undecoded
//!   ([`TotemNode::on_datagram_into`]), so the redundant copies that
//!   replication delivers by design — the token copy that only
//!   completes the gate, the data frame already in the window — are
//!   accounted for from their fixed header and never decoded.

use bytes::Bytes;

use totem_rrp::{FaultReport, RrpConfig, RrpEvent, RrpLayer};
use totem_srp::{ConfigChange, Delivered, SrpConfig, SrpEvent, SrpNode, SrpState, SubmitError};
use totem_wire::{NetworkId, NodeId, Packet, SharedPacket, Transition, WireHeader};

/// Protocol time in nanoseconds (shared with `totem-srp`).
pub type Nanos = u64;

/// Everything a [`TotemNode`] asks its host to do or observe.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutput {
    /// Put this packet on the wire.
    Send {
        /// Which redundant network.
        net: NetworkId,
        /// `None` = broadcast to all peers; `Some` = unicast.
        dst: Option<NodeId>,
        /// The packet, as a shared encode-once handle: every route's
        /// copy of one frame is a refcount bump on the same buffer.
        pkt: SharedPacket,
    },
    /// An application message was delivered in total order.
    Deliver(Delivered),
    /// A configuration (membership) change was delivered.
    Config(ConfigChange),
    /// A network was declared faulty (paper §3 fault report).
    Fault(FaultReport),
    /// A previously faulty network was put back in service.
    Reinstated {
        /// The repaired network.
        net: NetworkId,
        /// When, in nanoseconds of protocol time.
        at: Nanos,
    },
}

/// A full Totem endpoint: single ring protocol over the redundant
/// ring layer.
#[derive(Debug)]
pub struct TotemNode {
    srp: SrpNode,
    rrp: RrpLayer,
    /// Recycled RRP event buffer: receptions, timer expiries and
    /// buffered-token releases all report through it, so none of them
    /// allocates in steady state.
    rrp_events: Vec<RrpEvent>,
    /// Recycled route buffer: picking the networks for an outgoing
    /// packet reuses one `Vec` instead of allocating per send.
    route_buf: Vec<NetworkId>,
}

impl TotemNode {
    /// A node on a statically known ring (benchmarks, most tests).
    /// The representative must be given [`TotemNode::bootstrap_token`]
    /// once every member exists.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid (see
    /// [`SrpNode::new_operational`] and [`RrpLayer::new`]).
    pub fn new_operational(
        me: NodeId,
        members: &[NodeId],
        srp_cfg: SrpConfig,
        rrp_cfg: RrpConfig,
        now: Nanos,
    ) -> Self {
        TotemNode {
            srp: SrpNode::new_operational(me, srp_cfg, members, now).expect("valid SRP bootstrap"),
            rrp: RrpLayer::new(rrp_cfg).expect("valid RRP config"),
            rrp_events: Vec::new(),
            route_buf: Vec::new(),
        }
    }

    /// A node that discovers its peers through the membership
    /// protocol. Call [`TotemNode::start`] to begin gathering.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new_joining(me: NodeId, srp_cfg: SrpConfig, rrp_cfg: RrpConfig) -> Self {
        TotemNode {
            srp: SrpNode::new_joining(me, srp_cfg).expect("valid SRP config"),
            rrp: RrpLayer::new(rrp_cfg).expect("valid RRP config"),
            rrp_events: Vec::new(),
            route_buf: Vec::new(),
        }
    }

    /// A node rebooting cold after a processor crash, with a fresh
    /// identity `epoch` (the highest ring sequence number the dead
    /// incarnation reached; see [`SrpNode::new_rejoining`]). Both
    /// layers start from scratch: the RRP's fault monitors, like the
    /// SRP's ring state, do not survive a crash.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new_rejoining(me: NodeId, srp_cfg: SrpConfig, rrp_cfg: RrpConfig, epoch: u64) -> Self {
        TotemNode {
            srp: SrpNode::new_rejoining(me, srp_cfg, epoch).expect("valid SRP config"),
            rrp: RrpLayer::new(rrp_cfg).expect("valid RRP config"),
            rrp_events: Vec::new(),
            route_buf: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.srp.id()
    }

    /// The SRP layer (state, stats, membership).
    pub fn srp(&self) -> &SrpNode {
        &self.srp
    }

    /// The RRP layer (network health, stats).
    pub fn rrp(&self) -> &RrpLayer {
        &self.rrp
    }

    /// Current protocol state (shortcut for `srp().state()`).
    pub fn state(&self) -> SrpState {
        self.srp.state()
    }

    /// Feeds both layers' protocol-visible state into a caller-supplied
    /// hasher (see [`totem_srp::SrpNode::fingerprint`] and
    /// [`totem_rrp::RrpLayer::fingerprint`]). The bounded model checker
    /// uses this as the per-node component of its canonical state hash.
    pub fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.srp.fingerprint(h);
        self.rrp.fingerprint(h);
    }

    /// Begins the membership protocol on a joining node.
    pub fn start(&mut self, now: Nanos) -> Vec<NodeOutput> {
        let events = self.srp.start(now);
        let mut out = Vec::new();
        self.route_srp(now, events, &mut out);
        out
    }

    /// Injects the initial token (representative of a static ring
    /// only; see [`SrpNode::bootstrap_token`]).
    pub fn bootstrap_token(&mut self, now: Nanos) -> Vec<NodeOutput> {
        let events = self.srp.bootstrap_token(now);
        let mut out = Vec::new();
        self.route_srp(now, events, &mut out);
        out
    }

    /// Queues an application message for totally ordered broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] when the local send queue is full
    /// (flow-control backpressure); retry after some deliveries.
    pub fn submit(&mut self, now: Nanos, data: Bytes) -> Result<Vec<NodeOutput>, SubmitError> {
        let mut out = Vec::new();
        self.submit_into(now, data, &mut out)?;
        Ok(out)
    }

    /// Like [`TotemNode::submit`], but appends the outputs to a
    /// caller-owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] when the local send queue is full;
    /// `out` is left untouched in that case.
    pub fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        let events = self.srp.submit(now, data)?;
        self.route_srp(now, events, out);
        Ok(())
    }

    /// Feeds a packet received on `net`.
    pub fn on_packet(&mut self, now: Nanos, net: NetworkId, pkt: SharedPacket) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        self.on_packet_into(now, net, pkt, &mut out);
        out
    }

    /// Like [`TotemNode::on_packet`], but appends the outputs to a
    /// caller-owned buffer so the reception hot path can recycle one
    /// allocation across packets.
    pub fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        self.receive(now, out, |rrp, _srp, missing, events| {
            rrp.on_packet_into(now, net, pkt, missing, events);
        });
    }

    /// Feeds a raw datagram received on `net`: what
    /// [`SharedPacket::from_datagram`] followed by
    /// [`TotemNode::on_packet_into`] does, output for output and
    /// counter for counter (a datagram the decoder rejects is dropped
    /// unseen) — except that a copy neither layer has any use for is
    /// never decoded. The datagram is validated and its fixed header
    /// read without allocating ([`WireHeader::parse`]); then
    ///
    /// * a regular token goes to the RRP gate by its key, and is
    ///   decoded only if the gate must hold or pass up this copy (see
    ///   [`RrpLayer::on_token_into`]);
    /// * a data frame the SRP already holds on its current ring is
    ///   counted as the duplicate it is, by both layers, from the
    ///   header ([`SrpNode::suppress_duplicate`],
    ///   [`RrpLayer::on_redundant_message_into`]);
    /// * everything else is decoded and takes
    ///   [`TotemNode::on_packet_into`].
    ///
    /// Which of the three applies depends only on what the node holds
    /// (ring, window, gate), not on how it is configured. A copy that
    /// is decoded is decoded into a packet cell the SRP recycled
    /// ([`SrpNode::decode`]), so a token hop, and a data frame whose
    /// chunk list fits a recycled one, allocate nothing.
    pub fn on_datagram_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        datagram: Bytes,
        out: &mut Vec<NodeOutput>,
    ) {
        let Ok(header) = WireHeader::parse(&datagram) else { return };
        match header {
            WireHeader::Token { ring, rotation, seq } => {
                self.receive(now, out, |rrp, srp, missing, events| {
                    let body = || srp.decode(datagram).ok();
                    rrp.on_token_into(now, net, ring, rotation, seq, missing, body, events);
                });
            }
            WireHeader::Data { ring, seq, sender } if self.srp.suppress_duplicate(ring, seq) => {
                self.receive(now, out, |rrp, _srp, _missing, events| {
                    rrp.on_redundant_message_into(now, net, sender, events);
                });
            }
            WireHeader::Data { .. }
            | WireHeader::Join { .. }
            | WireHeader::Commit { .. }
            | WireHeader::RingPaxos => {
                if let Ok(pkt) = self.srp.decode(datagram) {
                    self.on_packet_into(now, net, pkt, out);
                }
            }
        }
    }

    /// One reception: `feed` hands it to the RRP (with the SRP, to
    /// decode into, and its `any_messages_missing()` from before it),
    /// whatever the RRP passes up goes to the SRP, and tokens the SRP's
    /// progress unblocks are released.
    fn receive(
        &mut self,
        now: Nanos,
        out: &mut Vec<NodeOutput>,
        feed: impl FnOnce(&mut RrpLayer, &mut SrpNode, bool, &mut Vec<RrpEvent>),
    ) {
        let missing = self.srp.any_messages_missing();
        let mut events = std::mem::take(&mut self.rrp_events);
        feed(&mut self.rrp, &mut self.srp, missing, &mut events);
        self.process_rrp(now, &mut events, out);
        self.rrp_events = events;
        self.drain_releases(now, out);
    }

    /// Fires any expired timers of either layer.
    pub fn on_timer(&mut self, now: Nanos) -> Vec<NodeOutput> {
        let mut out = Vec::new();
        self.on_timer_into(now, &mut out);
        out
    }

    /// Like [`TotemNode::on_timer`], but appends the outputs to a
    /// caller-owned buffer.
    pub fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        if self.srp.next_deadline().is_some_and(|d| d <= now) {
            let events = self.srp.on_timer(now);
            self.route_srp(now, events, out);
        }
        if self.rrp.next_deadline().is_some_and(|d| d <= now) {
            let mut events = std::mem::take(&mut self.rrp_events);
            self.rrp.on_timer_into(now, &mut events);
            self.process_rrp(now, &mut events, out);
            self.rrp_events = events;
        }
        self.drain_releases(now, out);
    }

    /// Administrative repair of a faulty network (see
    /// [`RrpLayer::reinstate`]).
    pub fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool {
        self.rrp.reinstate(now, net)
    }

    /// Operator command: changes the replication degree K on the fly
    /// (see [`RrpLayer::set_k`]). Returns `false` if K is out of range
    /// or the node runs the unreplicated baseline.
    pub fn set_k(&mut self, now: Nanos, k: usize) -> bool {
        self.rrp.set_k(now, k)
    }

    /// Applies a seeded state corruption to the addressed machine —
    /// the self-stabilization fault plane
    /// (`totem_sim::FaultCommand::CorruptState`). The mutation is
    /// drawn entirely from a RNG seeded with `salt`, so replaying a
    /// schedule reproduces the exact same wrong bits.
    pub fn corrupt(&mut self, target: totem_sim::CorruptionTarget, salt: u64) {
        use rand::SeedableRng as _;
        use totem_sim::CorruptionTarget;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(salt);
        match target {
            CorruptionTarget::SeqCounters => self.srp.corrupt_seq_counters(&mut rng),
            CorruptionTarget::Membership => self.srp.corrupt_membership(&mut rng),
            CorruptionTarget::Rotation => self.srp.corrupt_rotation(&mut rng),
            CorruptionTarget::MonitorCounters => self.rrp.corrupt_monitors(&mut rng),
            CorruptionTarget::TokenGate => self.rrp.corrupt_token_gate(&mut rng),
        }
    }

    /// The earliest instant [`TotemNode::on_timer`] must be called.
    pub fn next_deadline(&self) -> Option<Nanos> {
        [self.srp.next_deadline(), self.rrp.next_deadline()].into_iter().flatten().min()
    }

    /// Drains the protocol state-machine transitions recorded by both
    /// layers since the last call (the conformance trace consumed by
    /// `cargo xtask conformance`).
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        let mut trs = self.srp.take_transitions();
        trs.extend(self.rrp.take_transitions());
        trs
    }

    /// Passive replication: release tokens that were buffered behind
    /// gaps the SRP has since filled.
    fn drain_releases(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let mut events = std::mem::take(&mut self.rrp_events);
        loop {
            self.rrp.poll_release_into(self.srp.any_messages_missing(), &mut events);
            if events.is_empty() {
                break;
            }
            self.process_rrp(now, &mut events, out);
        }
        self.rrp_events = events;
    }

    fn process_rrp(&mut self, now: Nanos, events: &mut Vec<RrpEvent>, out: &mut Vec<NodeOutput>) {
        for ev in events.drain(..) {
            match ev {
                RrpEvent::Deliver(pkt, _net) => {
                    let srp_events = self.srp.handle_packet(now, pkt);
                    self.route_srp(now, srp_events, out);
                }
                RrpEvent::Fault(report) => out.push(NodeOutput::Fault(report)),
                RrpEvent::Reinstated { net, at } => out.push(NodeOutput::Reinstated { net, at }),
            }
        }
    }

    /// Maps SRP events onto networks and application outputs.
    fn route_srp(&mut self, _now: Nanos, mut events: Vec<SrpEvent>, out: &mut Vec<NodeOutput>) {
        let mut routes = std::mem::take(&mut self.route_buf);
        for ev in events.drain(..) {
            match ev {
                SrpEvent::Broadcast(pkt) => {
                    // Membership traffic is replicated on every
                    // healthy network regardless of style; data takes
                    // the style's route.
                    match pkt.packet() {
                        Packet::Join(_) | Packet::Commit(_) => {
                            self.rrp.routes_for_membership_into(&mut routes);
                        }
                        Packet::Data(_) | Packet::Token(_) => {
                            self.rrp.routes_for_message_into(&mut routes);
                        }
                        // The SRP never emits another backend's
                        // packets; route nowhere.
                        Packet::RingPaxos(_) => routes.clear(),
                    }
                    for &net in &routes {
                        out.push(NodeOutput::Send { net, dst: None, pkt: pkt.clone() });
                    }
                }
                SrpEvent::Rebroadcast(pkt) => {
                    self.rrp.routes_for_retransmission_into(&mut routes);
                    for &net in &routes {
                        out.push(NodeOutput::Send { net, dst: None, pkt: pkt.clone() });
                    }
                }
                SrpEvent::ToSuccessor(succ, pkt) => {
                    match pkt.packet() {
                        Packet::Commit(_) => self.rrp.routes_for_membership_into(&mut routes),
                        Packet::Data(_) | Packet::Token(_) | Packet::Join(_) => {
                            self.rrp.routes_for_token_into(&mut routes);
                        }
                        Packet::RingPaxos(_) => routes.clear(),
                    }
                    for &net in &routes {
                        out.push(NodeOutput::Send { net, dst: Some(succ), pkt: pkt.clone() });
                    }
                }
                SrpEvent::Deliver(d) => out.push(NodeOutput::Deliver(d)),
                SrpEvent::Config(c) => out.push(NodeOutput::Config(c)),
            }
        }
        self.route_buf = routes;
        self.srp.recycle_events(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_rrp::ReplicationStyle;

    fn node(style: ReplicationStyle, networks: usize) -> TotemNode {
        let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        TotemNode::new_operational(
            NodeId::new(0),
            &members,
            SrpConfig::default(),
            RrpConfig::new(style, networks),
            0,
        )
    }

    #[test]
    fn active_bootstrap_fans_token_to_all_networks() {
        let mut n = node(ReplicationStyle::Active, 2);
        let out = n.bootstrap_token(0);
        let sends: Vec<&NodeOutput> =
            out.iter().filter(|o| matches!(o, NodeOutput::Send { .. })).collect();
        // The initial (idle) token is held briefly, then forwarded on
        // both networks — or forwarded immediately if something was
        // queued. Drive the hold timer.
        if sends.is_empty() {
            let deadline = n.next_deadline().unwrap();
            let out = n.on_timer(deadline);
            let nets: Vec<u8> = out
                .iter()
                .filter_map(|o| match o {
                    NodeOutput::Send { net, dst: Some(_), pkt }
                        if matches!(pkt.packet(), Packet::Token(_)) =>
                    {
                        Some(net.as_u8())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(nets, vec![0, 1], "token must go out on both networks");
        }
    }

    #[test]
    fn passive_submit_alternates_networks_for_data() {
        let mut n = node(ReplicationStyle::Passive, 2);
        n.submit(0, Bytes::from_static(b"a")).unwrap();
        let out = n.bootstrap_token(0);
        let data_nets: Vec<u8> = out
            .iter()
            .filter_map(|o| match o {
                NodeOutput::Send { net, dst: None, pkt } if pkt.data().is_some() => {
                    Some(net.as_u8())
                }
                _ => None,
            })
            .collect();
        assert_eq!(data_nets.len(), 1, "passive sends exactly one copy");
    }

    #[test]
    fn deadlines_merge_both_layers() {
        let n = node(ReplicationStyle::Passive, 2);
        // SRP token-loss timer and RRP compensation timer are both
        // armed; the composite deadline is their minimum.
        let d = n.next_deadline().unwrap();
        assert!(d <= n.srp().next_deadline().unwrap());
    }

    #[test]
    fn single_style_runs_one_network() {
        let mut n = node(ReplicationStyle::Single, 1);
        n.submit(0, Bytes::from_static(b"x")).unwrap();
        let out = n.bootstrap_token(0);
        for o in &out {
            if let NodeOutput::Send { net, .. } = o {
                assert_eq!(net.as_u8(), 0);
            }
        }
    }
}
