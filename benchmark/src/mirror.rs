//! Benchmark-side nodes with spans at the layer boundaries.
//!
//! [`Spanned`] wraps any [`Broadcast`] engine with one span per call a
//! host makes into it: around the product's `BackendNode` that gives
//! `cluster.node.total_*` without touching a product file.
//!
//! [`MirrorNode`] is a benchmark-side composition of the product's
//! `SrpNode` and `RrpLayer` that repeats `TotemNode`'s glue
//! (`crates/cluster/src/node.rs`) call for call, with a span around
//! every call into `rrp` and `srp`. That is the only way to time the
//! two layers separately from outside: `TotemNode` owns both and
//! exposes neither mutably. The mirror is only trusted because every
//! traced sim pass must reproduce the untraced product's delivery
//! digest for the same seed; when `node.rs` changes and the mirror
//! does not, that check fails loudly and names this file.

use bytes::Bytes;

use totem_cluster::{BackendNode, Broadcast, NodeOutput, TotemNode};
use totem_rrp::{RrpConfig, RrpEvent, RrpLayer, RrpStats};
use totem_srp::node::SrpStats;
use totem_srp::{SrpConfig, SrpEvent, SrpNode, SubmitError};
use totem_wire::{NetworkId, NodeId, Packet, SharedPacket, Transition};

use crate::trace::{span, Span};

type Nanos = u64;

/// A [`Broadcast`] engine whose layer counters the benchmark can read.
pub trait Engine: Broadcast {
    /// SRP counters.
    fn srp_stats(&self) -> SrpStats;
    /// RRP counters.
    fn rrp_stats(&self) -> RrpStats;
    /// Packets fed and outputs produced, where the engine counts them
    /// ([`Spanned`] does).
    fn packet_outputs(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Engine for TotemNode {
    fn srp_stats(&self) -> SrpStats {
        self.srp().stats().clone()
    }

    fn rrp_stats(&self) -> RrpStats {
        self.rrp().stats().clone()
    }
}

impl Engine for BackendNode {
    fn srp_stats(&self) -> SrpStats {
        BackendNode::srp_stats(self)
    }

    fn rrp_stats(&self) -> RrpStats {
        self.as_totem().map(|n| n.rrp().stats().clone()).unwrap_or_default()
    }
}

/// `TotemNode`'s composition, repeated with spans. Keep in step with
/// `crates/cluster/src/node.rs`.
#[derive(Debug)]
pub struct MirrorNode {
    srp: SrpNode,
    rrp: RrpLayer,
    rrp_events: Vec<RrpEvent>,
    route_buf: Vec<NetworkId>,
}

impl MirrorNode {
    /// A node on a statically known ring (what every workload uses).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, as `TotemNode` does.
    pub fn new_operational(
        me: NodeId,
        members: &[NodeId],
        srp_cfg: SrpConfig,
        rrp_cfg: RrpConfig,
        now: Nanos,
    ) -> Self {
        MirrorNode {
            srp: SrpNode::new_operational(me, srp_cfg, members, now).expect("valid SRP bootstrap"),
            rrp: RrpLayer::new(rrp_cfg).expect("valid RRP config"),
            rrp_events: Vec::new(),
            route_buf: Vec::new(),
        }
    }

    // The layers' getters (`any_messages_missing`, `next_deadline`,
    // `recycle_events`) carry no span: each is a few nanoseconds, and a
    // span costs two 38 ns clock reads, so the figure would be the
    // instrument's error. Their time lands in `cluster.node`'s self
    // time.
    fn any_missing(&self) -> bool {
        self.srp.any_messages_missing()
    }

    fn drain_releases(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        loop {
            let missing = self.any_missing();
            let mut events = {
                let _s = span(Span::RrpPollRelease);
                self.rrp.poll_release(now, missing)
            };
            if events.is_empty() {
                break;
            }
            self.process_rrp(now, &mut events, out);
        }
    }

    fn process_rrp(&mut self, now: Nanos, events: &mut Vec<RrpEvent>, out: &mut Vec<NodeOutput>) {
        for ev in events.drain(..) {
            match ev {
                RrpEvent::Deliver(pkt, _net) => {
                    let srp_events = {
                        let _s = span(Span::SrpHandlePacket);
                        self.srp.handle_packet(now, pkt)
                    };
                    self.route_srp(srp_events, out);
                }
                RrpEvent::Fault(report) => out.push(NodeOutput::Fault(report)),
                RrpEvent::Reinstated { net, at } => out.push(NodeOutput::Reinstated { net, at }),
            }
        }
    }

    fn route_srp(&mut self, mut events: Vec<SrpEvent>, out: &mut Vec<NodeOutput>) {
        let mut routes = std::mem::take(&mut self.route_buf);
        for ev in events.drain(..) {
            match ev {
                SrpEvent::Broadcast(pkt) => {
                    {
                        let _s = span(Span::RrpRoutes);
                        match pkt.packet() {
                            Packet::Join(_) | Packet::Commit(_) => {
                                self.rrp.routes_for_membership_into(&mut routes);
                            }
                            Packet::Data(_) | Packet::Token(_) => {
                                self.rrp.routes_for_message_into(&mut routes);
                            }
                            Packet::RingPaxos(_) => routes.clear(),
                        }
                    }
                    for &net in &routes {
                        out.push(NodeOutput::Send { net, dst: None, pkt: pkt.clone() });
                    }
                }
                SrpEvent::Rebroadcast(pkt) => {
                    {
                        let _s = span(Span::RrpRoutes);
                        self.rrp.routes_for_retransmission_into(&mut routes);
                    }
                    for &net in &routes {
                        out.push(NodeOutput::Send { net, dst: None, pkt: pkt.clone() });
                    }
                }
                SrpEvent::ToSuccessor(succ, pkt) => {
                    {
                        let _s = span(Span::RrpRoutes);
                        match pkt.packet() {
                            Packet::Commit(_) => self.rrp.routes_for_membership_into(&mut routes),
                            Packet::Data(_) | Packet::Token(_) | Packet::Join(_) => {
                                self.rrp.routes_for_token_into(&mut routes);
                            }
                            Packet::RingPaxos(_) => routes.clear(),
                        }
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

impl Broadcast for MirrorNode {
    fn id(&self) -> NodeId {
        self.srp.id()
    }

    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let events = {
            let _s = span(Span::SrpStart);
            self.srp.start(now)
        };
        self.route_srp(events, out);
    }

    fn bootstrap_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let events = {
            let _s = span(Span::SrpStart);
            self.srp.bootstrap_token(now)
        };
        self.route_srp(events, out);
    }

    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        let events = {
            let _s = span(Span::SrpSubmit);
            self.srp.submit(now, data)?
        };
        self.route_srp(events, out);
        Ok(())
    }

    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        let missing = self.any_missing();
        let mut events = std::mem::take(&mut self.rrp_events);
        {
            let _s = span(Span::RrpOnPacket);
            self.rrp.on_packet_into(now, net, pkt, missing, &mut events);
        }
        self.process_rrp(now, &mut events, out);
        self.rrp_events = events;
        self.drain_releases(now, out);
    }

    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        if self.srp.next_deadline().is_some_and(|d| d <= now) {
            let events = {
                let _s = span(Span::SrpOnTimer);
                self.srp.on_timer(now)
            };
            self.route_srp(events, out);
        }
        if self.rrp.next_deadline().is_some_and(|d| d <= now) {
            let mut events = {
                let _s = span(Span::RrpOnTimer);
                self.rrp.on_timer(now)
            };
            self.process_rrp(now, &mut events, out);
        }
        self.drain_releases(now, out);
    }

    fn next_deadline(&self) -> Option<Nanos> {
        [self.srp.next_deadline(), self.rrp.next_deadline()].into_iter().flatten().min()
    }

    fn send_queue_len(&self) -> usize {
        self.srp.send_queue_len()
    }

    fn take_transitions(&mut self) -> Vec<Transition> {
        let mut trs = self.srp.take_transitions();
        trs.extend(self.rrp.take_transitions());
        trs
    }

    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.srp.fingerprint(h);
        self.rrp.fingerprint(h);
    }

    fn crash_epoch(&self) -> u64 {
        self.srp.max_ring_seq()
    }

    fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool {
        let _s = span(Span::RrpAdmin);
        self.rrp.reinstate(now, net)
    }

    fn set_k(&mut self, now: Nanos, k: usize) -> bool {
        self.rrp.set_k(now, k)
    }
}

impl Engine for MirrorNode {
    fn srp_stats(&self) -> SrpStats {
        self.srp.stats().clone()
    }

    fn rrp_stats(&self) -> RrpStats {
        self.rrp.stats().clone()
    }
}

/// Any engine, with one span per host call into it. Under the UDP
/// runtime these are root spans (the driver loop carries none), so one
/// call is one trace frame; under the traced simulator host they nest
/// in the actor's span.
#[derive(Debug)]
pub struct Spanned<B> {
    inner: B,
    packets: u64,
    outputs: u64,
}

impl<B: Engine> Spanned<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Spanned { inner, packets: 0, outputs: 0 }
    }
}

impl<B: Engine> Broadcast for Spanned<B> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn start_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let _s = span(Span::NodeStart);
        self.inner.start_into(now, out);
    }

    fn bootstrap_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let _s = span(Span::NodeStart);
        self.inner.bootstrap_into(now, out);
    }

    fn submit_into(
        &mut self,
        now: Nanos,
        data: Bytes,
        out: &mut Vec<NodeOutput>,
    ) -> Result<(), SubmitError> {
        let _s = span(Span::NodeSubmit);
        self.inner.submit_into(now, data, out)
    }

    fn on_packet_into(
        &mut self,
        now: Nanos,
        net: NetworkId,
        pkt: SharedPacket,
        out: &mut Vec<NodeOutput>,
    ) {
        let before = out.len();
        {
            let _s = span(Span::NodeOnPacket);
            self.inner.on_packet_into(now, net, pkt, out);
        }
        self.packets += 1;
        self.outputs += (out.len() - before) as u64;
    }

    fn on_timer_into(&mut self, now: Nanos, out: &mut Vec<NodeOutput>) {
        let _s = span(Span::NodeOnTimer);
        self.inner.on_timer_into(now, out);
    }

    fn next_deadline(&self) -> Option<Nanos> {
        let _s = span(Span::NodeArm);
        self.inner.next_deadline()
    }

    fn send_queue_len(&self) -> usize {
        self.inner.send_queue_len()
    }

    fn take_transitions(&mut self) -> Vec<Transition> {
        self.inner.take_transitions()
    }

    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        self.inner.fingerprint(h);
    }

    fn crash_epoch(&self) -> u64 {
        self.inner.crash_epoch()
    }

    fn reinstate(&mut self, now: Nanos, net: NetworkId) -> bool {
        let _s = span(Span::NodeAdmin);
        self.inner.reinstate(now, net)
    }

    fn set_k(&mut self, now: Nanos, k: usize) -> bool {
        self.inner.set_k(now, k)
    }
}

impl<B: Engine> Engine for Spanned<B> {
    fn packet_outputs(&self) -> (u64, u64) {
        (self.packets, self.outputs)
    }

    fn srp_stats(&self) -> SrpStats {
        self.inner.srp_stats()
    }

    fn rrp_stats(&self) -> RrpStats {
        self.inner.rrp_stats()
    }
}
