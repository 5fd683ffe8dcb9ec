//! The broadcast backend seam.
//!
//! Everything above the protocol engine — [`crate::SimCluster`], the
//! threaded [`crate::runtime`], the chaos harness, the model checker,
//! the CLI — drives a [`Broadcast`] implementor, not a concrete
//! protocol. The seam mirrors the sans-io surface [`TotemNode`] always
//! had: feed inputs (`submit` / `on_packet` / `on_timer`), drain
//! [`NodeOutput`]s into a caller-owned buffer, ask for the next timer
//! deadline. Anything that can speak that contract can be benched,
//! fuzzed and model-checked by the same hosts.
//!
//! Two engines implement it today:
//!
//! * [`TotemNode`] — Totem SRP over RRP, the paper's protocol;
//! * [`crate::backends::RingPaxosNode`] — a minimal Ring Paxos
//!   (coordinator + ring of acceptors, pipelined instances), the
//!   head-to-head counterpart from ROADMAP item 4.
//!
//! [`BackendNode`] is the closed sum of the two, used wherever a host
//! must pick the engine at runtime (a `ClusterConfig`, a CLI flag)
//! rather than at compile time. Enum dispatch keeps the hot paths
//! monomorphic — no vtables on the per-packet path.
//!
//! # What the trait deliberately excludes
//!
//! The seam is the *broadcast* contract only: totally ordered
//! delivery, configuration changes, fault reports, timers. It does not
//! model membership change as an operation (Totem discovers
//! membership; Ring Paxos here runs a static ensemble), does not
//! expose the token or any other protocol internal, and does not
//! promise that administrative verbs apply everywhere — `reinstate`
//! and `set_k` are RRP concepts that default to "unsupported", and
//! state corruption (`corrupt`) defaults to a no-op on backends that
//! have no self-stabilization story yet.

use bytes::Bytes;

use totem_srp::{SrpState, SubmitError};
use totem_wire::{NetworkId, NodeId, RingId, SharedPacket, Transition};

use crate::backends::RingPaxosNode;
use crate::node::{Nanos, NodeOutput, TotemNode};

/// Which broadcast engine a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Totem single-ring protocol over the redundant ring layer (the
    /// paper's stack; the default).
    #[default]
    Totem,
    /// Ring Paxos: coordinator + ring of acceptors, pipelined
    /// instances, learner delivery in instance order.
    RingPaxos,
}

impl BackendKind {
    /// Every selectable backend, in CLI presentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Totem, BackendKind::RingPaxos];

    /// The canonical CLI / TOML spelling.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Totem => "totem",
            BackendKind::RingPaxos => "ring-paxos",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "totem" => Ok(BackendKind::Totem),
            "ring-paxos" | "ring_paxos" | "ringpaxos" => Ok(BackendKind::RingPaxos),
            other => Err(format!("unknown backend {other:?} (expected totem or ring-paxos)")),
        }
    }
}

/// The sans-io atomic-broadcast contract every backend implements.
///
/// All methods are driven by a host that owns the clock and the wire:
/// inputs arrive with an explicit `now` in protocol nanoseconds,
/// outputs accumulate in a caller-owned buffer (so reception hot paths
/// recycle one allocation across packets), and the backend never does
/// I/O of its own.
pub trait Broadcast {
    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// Begins the backend's startup protocol on a node that joins (or
    /// rejoins) the ensemble dynamically. Static members that need no
    /// startup traffic emit nothing.
    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>);

    /// Bootstrap action of the distinguished starter (Totem: the
    /// representative injects the initial token). Backends without a
    /// bootstrap artifact emit nothing.
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
    /// [`Broadcast::on_packet_into`]. A backend that can tell from a
    /// datagram's fixed header that it is a redundant copy overrides
    /// this to account for the copy without decoding it; the outputs
    /// and every counter must come out as the default's would.
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

    /// Feeds the backend's protocol-visible state into a
    /// caller-supplied hasher (the model checker's per-node state-hash
    /// component).
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H);

    /// The identity watermark a crash must carry into the next
    /// incarnation (Totem: the highest ring sequence number observed;
    /// Ring Paxos: the highest instance observed). A cold restart must
    /// start beyond it.
    fn crash_epoch(&self) -> u64;

    /// Administrative repair of a faulty network. Backends without a
    /// redundant-network plane report `false` (unsupported).
    fn reinstate(&mut self, _now: Nanos, _net: NetworkId) -> bool {
        false
    }

    /// Runtime change of the replication degree K. Backends without a
    /// redundant-network plane report `false` (unsupported).
    fn set_k(&mut self, _now: Nanos, _k: usize) -> bool {
        false
    }

    /// Applies a seeded state corruption (the self-stabilization fault
    /// plane). Backends without corruption targets ignore it.
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

/// The closed sum of the available backends: runtime backend selection
/// with enum (not virtual) dispatch.
///
/// The variants differ in size (Totem carries the full SRP+RRP state),
/// but one `BackendNode` lives per actor for the node's whole life and
/// is never moved on a packet path, so the footprint of the smaller
/// variant is irrelevant and boxing would only add a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BackendNode {
    /// Totem SRP over RRP.
    Totem(TotemNode),
    /// Ring Paxos.
    RingPaxos(RingPaxosNode),
}

impl BackendNode {
    /// Which engine this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendNode::Totem(_) => BackendKind::Totem,
            BackendNode::RingPaxos(_) => BackendKind::RingPaxos,
        }
    }

    /// The Totem engine, if that is what this node runs.
    pub fn as_totem(&self) -> Option<&TotemNode> {
        match self {
            BackendNode::Totem(n) => Some(n),
            BackendNode::RingPaxos(_) => None,
        }
    }

    /// The Ring Paxos engine, if that is what this node runs.
    pub fn as_ring_paxos(&self) -> Option<&RingPaxosNode> {
        match self {
            BackendNode::Totem(_) => None,
            BackendNode::RingPaxos(n) => Some(n),
        }
    }

    /// Protocol state as seen by the membership observers. Ring Paxos
    /// runs a static ensemble, so it is always operational.
    pub fn srp_state(&self) -> SrpState {
        match self {
            BackendNode::Totem(n) => n.state(),
            BackendNode::RingPaxos(_) => SrpState::Operational,
        }
    }

    /// Current membership view: Totem's ring membership, or Ring
    /// Paxos's static ensemble.
    pub fn members(&self) -> Option<Vec<NodeId>> {
        match self {
            BackendNode::Totem(n) => n.srp().members().map(|m| m.to_vec()),
            BackendNode::RingPaxos(n) => Some(n.members().to_vec()),
        }
    }

    /// Which networks this node has marked faulty (Totem's RRP fault
    /// plane; Ring Paxos declares nothing faulty).
    pub fn faulty_networks(&self, networks: usize) -> Vec<bool> {
        match self {
            BackendNode::Totem(n) => n.rrp().faulty(),
            BackendNode::RingPaxos(_) => vec![false; networks],
        }
    }

    /// Ring identity, if the backend has one (Ring Paxos reports
    /// none — its "ring" is a static forwarding order, not a formed
    /// membership artifact).
    pub fn ring_id(&self) -> Option<RingId> {
        match self {
            BackendNode::Totem(n) => n.srp().ring_id(),
            BackendNode::RingPaxos(_) => None,
        }
    }

    /// Highest ordering watermark observed (Totem: ring sequence;
    /// Ring Paxos: instance id) — the identity epoch a crash carries
    /// forward.
    pub fn max_ring_seq(&self) -> u64 {
        match self {
            BackendNode::Totem(n) => n.srp().max_ring_seq(),
            BackendNode::RingPaxos(n) => n.crash_epoch(),
        }
    }

    /// Per-node SRP statistics (zeroes on non-Totem backends).
    pub fn srp_stats(&self) -> totem_srp::node::SrpStats {
        match self {
            BackendNode::Totem(n) => n.srp().stats().clone(),
            BackendNode::RingPaxos(_) => totem_srp::node::SrpStats::default(),
        }
    }

    /// Diagnostic snapshot of the RRP monitors (empty on non-Totem
    /// backends).
    pub fn monitor_report(&self) -> Vec<(totem_rrp::MonitorKind, Vec<u64>)> {
        match self {
            BackendNode::Totem(n) => n.rrp().monitor_report(),
            BackendNode::RingPaxos(_) => Vec::new(),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $n:ident => $body:expr) => {
        match $self {
            BackendNode::Totem($n) => $body,
            BackendNode::RingPaxos($n) => $body,
        }
    };
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
        // The backend choice is part of the canonical state: two
        // worlds running different engines must never hash equal.
        (self.kind() as u8).hash(h);
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
    fn backend_kind_round_trips_through_its_name() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("raft".parse::<BackendKind>().is_err());
        assert_eq!("ring_paxos".parse::<BackendKind>().unwrap(), BackendKind::RingPaxos);
    }

    #[test]
    fn totem_node_speaks_the_trait() {
        use totem_rrp::{ReplicationStyle, RrpConfig};
        use totem_srp::SrpConfig;

        let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        let mut node = BackendNode::Totem(TotemNode::new_operational(
            NodeId::new(0),
            &members,
            SrpConfig::default(),
            RrpConfig::new(ReplicationStyle::Active, 2),
            0,
        ));
        assert_eq!(node.kind(), BackendKind::Totem);
        assert_eq!(Broadcast::id(&node), NodeId::new(0));
        assert!(node.as_totem().is_some());
        assert!(node.as_ring_paxos().is_none());
        let mut out = Vec::new();
        Broadcast::submit_into(&mut node, 0, Bytes::from_static(b"x"), &mut out).unwrap();
        Broadcast::bootstrap_into(&mut node, 0, &mut out);
        assert!(
            out.iter().any(|o| matches!(o, NodeOutput::Send { .. })),
            "bootstrap with a queued message must put frames on the wire"
        );
        assert_eq!(node.srp_state(), SrpState::Operational);
        assert!(node.members().is_some());
    }
}
