//! The broadcast engine seam.
//!
//! Everything above the protocol engine — [`crate::SimCluster`], the
//! threaded [`crate::runtime`], the chaos harness, the model checker,
//! the CLI — drives [`TotemNode`], Totem SRP over RRP. The threaded
//! runtime takes any [`Broadcast`] implementor, so a test double or a
//! recording wrapper can stand in for the node. The trait mirrors the
//! node's sans-io surface: feed inputs (`submit` / `on_packet` /
//! `on_timer`), drain [`NodeOutput`]s into a caller-owned buffer, ask
//! for the next timer deadline.
//!
//! [`BackendNode`] is a one-variant enum around [`TotemNode`]. No
//! product code uses it; the frozen `benchmark/` package still names
//! it, and it goes when that package next changes (ROADMAP item 4b),
//! together with the two defaulted methods below.

use bytes::Bytes;

use totem_srp::SubmitError;
use totem_wire::{NetworkId, NodeId, SharedPacket, Transition};

use crate::node::{Nanos, NodeOutput, TotemNode};

/// The sans-io atomic-broadcast contract the hosts drive.
///
/// All methods are driven by a host that owns the clock and the wire:
/// inputs arrive with an explicit `now` in protocol nanoseconds,
/// outputs accumulate in a caller-owned buffer (so reception hot paths
/// recycle one allocation across packets), and the engine never does
/// I/O of its own.
pub trait Broadcast {
    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// Begins the membership protocol on a node that joins (or
    /// rejoins) the ring dynamically.
    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>);

    /// Bootstrap action of the distinguished starter: the
    /// representative injects the initial token.
    fn bootstrap_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>);

    /// Queues an application message for totally ordered broadcast,
    /// appending any resulting outputs to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] on flow-control backpressure; `out` is
    /// left untouched in that case.
    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError>;

    /// Feeds a packet received on `net`.
    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    );

    /// Feeds a raw datagram received on `net` — what a host on real
    /// sockets calls. The default decodes it
    /// ([`SharedPacket::from_datagram`]; a malformed datagram is
    /// dropped unseen) and hands the packet to
    /// [`Broadcast::on_packet_into`]. [`TotemNode`] overrides this to
    /// account for a redundant copy from its fixed header without
    /// decoding it; the outputs and every counter must come out as
    /// the default's would.
    fn on_datagram_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        datagram: Bytes,
        out: &mut Vec<NodeOutput>,
    ) {
        if let Ok(pkt) = SharedPacket::from_datagram(datagram) {
            self.on_packet_into(now, net, pkt, out);
        }
    }

    /// Fires any expired timers.
    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>);

    /// The earliest instant `on_timer_into` must be called, if any
    /// timer is armed.
    fn next_deadline(&self) -> Option<Nanos>;

    /// Application messages queued locally but not yet disposed of —
    /// the saturation pump keeps this topped up, and flow control
    /// bounds it.
    fn send_queue_len(&self) -> usize;

    /// Drains the protocol state-machine transitions recorded since
    /// the last call (the conformance trace).
    fn take_transitions(&mut self) -> Vec<Transition>;

    /// Feeds the engine's protocol-visible state into a
    /// caller-supplied hasher (the model checker's per-node state-hash
    /// component).
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H);

    /// The identity watermark a crash must carry into the next
    /// incarnation: the highest ring sequence number observed. A cold
    /// restart must start beyond it.
    fn crash_epoch(&self) -> u64;

    /// Administrative repair of a faulty network (see
    /// [`totem_rrp::RrpLayer::reinstate`]).
    fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool;

    /// Runtime change of the replication degree K (see
    /// [`totem_rrp::RrpLayer::set_k`]).
    fn set_k(&mut self, now: Nanos, k: usize) -> bool;

    /// Applies a seeded state corruption (the self-stabilization fault
    /// plane). The default ignores it.
    fn corrupt(&mut self, _target: totem_sim::CorruptionTarget, _salt: u64) {}
}

impl Broadcast for TotemNode {
    fn id(&self) -> NodeId {
        TotemNode::id(self)
    }

    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        out.extend(TotemNode::start(self, now));
    }

    fn bootstrap_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        out.extend(TotemNode::bootstrap_token(self, now));
    }

    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        TotemNode::submit_into(self, now, data, out)
    }

    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        TotemNode::on_packet_into(self, now, net, pkt, out);
    }

    fn on_datagram_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        datagram: Bytes,
        out: &mut Vec<NodeOutput>,
    ) {
        TotemNode::on_datagram_into(self, now, net, datagram, out);
    }

    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        TotemNode::on_timer_into(self, now, out);
    }

    fn next_deadline(&self) -> Option<Nanos> {
        TotemNode::next_deadline(self)
    }

    fn send_queue_len(&self) -> usize {
        self.srp().send_queue_len()
    }

    fn take_transitions(&mut self) -> Vec<Transition> {
        TotemNode::take_transitions(self)
    }

    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        TotemNode::fingerprint(self, h);
    }

    fn crash_epoch(&self) -> u64 {
        self.srp().max_ring_seq()
    }

    fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool {
        TotemNode::reinstate(self, now, net)
    }

    fn set_k(&mut self, now: Nanos, k: usize) -> bool {
        TotemNode::set_k(self, now, k)
    }

    fn corrupt(&mut self, target: totem_sim::CorruptionTarget, salt: u64) {
        TotemNode::corrupt(self, target, salt);
    }
}

/// [`TotemNode`] behind a one-variant enum, kept only because the
/// frozen `benchmark/` package names it (`benchmark/src/mirror.rs`,
/// `benchmark/src/simtrace.rs`); ROADMAP item 4b deletes it.
#[derive(Debug)]
pub enum BackendNode {
    /// Totem SRP over RRP.
    Totem(TotemNode),
}

impl BackendNode {
    /// The Totem engine.
    pub fn as_totem(&self) -> Option<&TotemNode> {
        let BackendNode::Totem(n) = self;
        Some(n)
    }

    /// Per-node SRP statistics.
    pub fn srp_stats(&self) -> totem_srp::node::SrpStats {
        let BackendNode::Totem(n) = self;
        n.srp().stats().clone()
    }
}

macro_rules! delegate {
    ($self:ident, $n:ident => $body:expr) => {{
        let BackendNode::Totem($n) = $self;
        $body
    }};
}

impl Broadcast for BackendNode {
    fn id(&self) -> NodeId {
        delegate!(self, n => n.id())
    }

    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        delegate!(self, n => Broadcast::start_into(n, now, out));
    }

    fn bootstrap_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        delegate!(self, n => Broadcast::bootstrap_into(n, now, out));
    }

    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        delegate!(self, n => Broadcast::submit_into(n, now, data, out))
    }

    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        delegate!(self, n => Broadcast::on_packet_into(n, now, net, pkt, out));
    }

    fn on_datagram_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        datagram: Bytes,
        out: &mut Vec<NodeOutput>,
    ) {
        delegate!(self, n => Broadcast::on_datagram_into(n, now, net, datagram, out));
    }

    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        delegate!(self, n => Broadcast::on_timer_into(n, now, out));
    }

    fn next_deadline(&self) -> Option<Nanos> {
        delegate!(self, n => Broadcast::next_deadline(n))
    }

    fn send_queue_len(&self) -> usize {
        delegate!(self, n => Broadcast::send_queue_len(n))
    }

    fn take_transitions(&mut self) -> Vec<Transition> {
        delegate!(self, n => Broadcast::take_transitions(n))
    }

    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash as _;
        // The engine tag this enum has always led with.
        0u8.hash(h);
        delegate!(self, n => Broadcast::fingerprint(n, h));
    }

    fn crash_epoch(&self) -> u64 {
        delegate!(self, n => Broadcast::crash_epoch(n))
    }

    fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool {
        delegate!(self, n => Broadcast::reinstate(n, now, net))
    }

    fn set_k(&mut self, now: Nanos, k: usize) -> bool {
        delegate!(self, n => Broadcast::set_k(n, now, k))
    }

    fn corrupt(&mut self, target: totem_sim::CorruptionTarget, salt: u64) {
        delegate!(self, n => Broadcast::corrupt(n, target, salt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totem_node_speaks_the_trait() {
        use totem_rrp::{ReplicationStyle, RrpConfig};
        use totem_srp::{SrpConfig, SrpState};

        let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let mut node = BackendNode::Totem(TotemNode::new_operational(
            NodeId::new(0),
            &members,
            SrpConfig::default(),
            RrpConfig::new(ReplicationStyle::Active, 2),
            0,
        ));
        assert_eq!(Broadcast::id(&node), NodeId::new(0));
        let mut out = Vec::new();
        Broadcast::submit_into(&mut node, 0, Bytes::from_static(b"x"), &mut out).unwrap();
        Broadcast::bootstrap_into(&mut node, 0, &mut out);
        assert!(
            out.iter().any(|o| matches!(o, NodeOutput::Send { .. })),
            "bootstrap with a queued message must put frames on the wire"
        );
        let totem = node.as_totem().unwrap();
        assert_eq!(totem.state(), SrpState::Operational);
        assert!(totem.srp().members().is_some());
        assert_eq!(node.srp_stats().packets_sent, totem.srp().stats().packets_sent);
    }
}
