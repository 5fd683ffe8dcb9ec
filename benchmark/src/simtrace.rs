//! The traced simulator host: a benchmark-owned `totem_sim::Actor`
//! that repeats what the product's `ClusterActor`
//! (`crates/cluster/src/sim_cluster.rs`) does around a node — apply its
//! outputs, run the saturation pump, re-arm the alarm — on the public
//! `SimWorld`, stepping the kernel one event at a time with a span
//! around each step, each actor callback and (through
//! [`crate::mirror::Spanned`]) each node call.
//!
//! Like the mirror node, the host is trusted only because its runs
//! must reproduce the product `SimCluster`'s delivery digest.

use bytes::Bytes;

use totem_cluster::{BackendNode, ClusterConfig, NodeOutput, TotemNode};
use totem_rrp::RrpStats;
use totem_sim::{Actor, CpuConfig, Ctx, FaultCommand, SimTime, SimWorld};
use totem_srp::node::SrpStats;
use totem_wire::{NetworkId, NodeId, SharedPacket};

use crate::mirror::{Engine, MirrorNode, Spanned};
use crate::simhost::{cluster_config, DeliverySink, NetTotals, SimHost};
use crate::trace::{span, Span};
use crate::workloads::SimSpec;

/// Frames captured for the wire replay.
pub const CAPTURE_FRAMES: usize = 4096;

/// One node in the traced simulator.
#[derive(Debug)]
pub struct TracedActor<B> {
    node: Spanned<B>,
    cpu: CpuConfig,
    bootstrap: bool,
    saturate: Option<usize>,
    delivered: Vec<(u16, u64, Bytes, u64)>,
    faults: Vec<(u8, u64)>,
    msgs: u64,
    out_buf: Vec<NodeOutput>,
    /// Frames this node received, for the wire replay (shared handles:
    /// capturing encodes nothing).
    captured: Vec<SharedPacket>,
    capture_from_ns: u64,
}

impl<B: Engine> TracedActor<B> {
    fn handle(&mut self, now: SimTime, outputs: &mut Vec<NodeOutput>, ctx: &mut Ctx<'_>) {
        for out in outputs.drain(..) {
            match out {
                NodeOutput::Send { net, dst, pkt } => match dst {
                    None => ctx.broadcast(net, pkt),
                    Some(d) => ctx.unicast(net, d, pkt),
                },
                NodeOutput::Deliver(d) => {
                    ctx.consume_cpu(self.cpu.deliver_cost(d.data.len()));
                    self.msgs += 1;
                    self.delivered.push((
                        d.sender.as_u16(),
                        d.seq.as_u64(),
                        d.data,
                        now.as_nanos(),
                    ));
                }
                NodeOutput::Fault(f) => self.faults.push((f.net.as_u8(), f.at)),
                NodeOutput::Config(_) | NodeOutput::Reinstated { .. } => {}
            }
        }
    }

    fn pump(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        use totem_cluster::Broadcast as _;
        let Some(size) = self.saturate else { return };
        let mut outs = std::mem::take(&mut self.out_buf);
        while self.node.send_queue_len() < 64 {
            let mut body = vec![0u8; size.max(8)];
            body[..8].copy_from_slice(&now.as_nanos().to_be_bytes());
            match self.node.submit_into(now.as_nanos(), Bytes::from(body), &mut outs) {
                Ok(()) => self.handle(now, &mut outs, ctx),
                Err(_) => break,
            }
        }
        self.out_buf = outs;
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        use totem_cluster::Broadcast as _;
        match self.node.next_deadline() {
            Some(d) => ctx.set_alarm(SimTime::from_nanos(d)),
            None => ctx.cancel_alarm(),
        }
        for t in self.node.take_transitions() {
            ctx.note_transition(t);
        }
    }
}

impl<B: Engine> Actor for TracedActor<B> {
    fn on_start(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        use totem_cluster::Broadcast as _;
        let _s = span(Span::SimActor);
        let mut outputs = std::mem::take(&mut self.out_buf);
        if self.bootstrap {
            self.node.bootstrap_into(now.as_nanos(), &mut outputs);
        }
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }

    fn on_packet(
        &mut self,
        now: SimTime,
        net: NetworkId,
        _from: NodeId,
        pkt: SharedPacket,
        ctx: &mut Ctx<'_>,
    ) {
        use totem_cluster::Broadcast as _;
        let _s = span(Span::SimActor);
        if self.captured.len() < CAPTURE_FRAMES && now.as_nanos() >= self.capture_from_ns {
            self.captured.push(pkt.clone());
        }
        let mut outputs = std::mem::take(&mut self.out_buf);
        self.node.on_packet_into(now.as_nanos(), net, pkt, &mut outputs);
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }

    fn on_alarm(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        use totem_cluster::Broadcast as _;
        let _s = span(Span::SimActor);
        let mut outputs = std::mem::take(&mut self.out_buf);
        self.node.on_timer_into(now.as_nanos(), &mut outputs);
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }
}

/// Kernel-side counts of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounts {
    /// Events the kernel processed.
    pub events: u64,
    /// Deepest the event queue got (sampled every 64th event).
    pub pending_max: usize,
}

/// A cluster of [`TracedActor`]s on the public `SimWorld`.
#[derive(Debug)]
pub struct TracedHost<B> {
    world: SimWorld<TracedActor<B>>,
    nodes: usize,
    networks: usize,
    /// Running kernel-side counts.
    pub kernel: KernelCounts,
}

fn build<B: Engine>(
    spec: &SimSpec,
    seed: u64,
    capture_from_ns: u64,
    make: impl Fn(NodeId, &[NodeId], &ClusterConfig) -> B,
) -> TracedHost<B> {
    let cfg = cluster_config(spec, seed, true);
    let members: Vec<NodeId> = (0..cfg.nodes as u16).map(NodeId::new).collect();
    let actors = members
        .iter()
        .map(|&me| TracedActor {
            node: Spanned::new(make(me, &members, &cfg)),
            cpu: cfg.sim.cpus[me.index()].clone(),
            bootstrap: me == members[0],
            saturate: None,
            delivered: Vec::new(),
            faults: Vec::new(),
            msgs: 0,
            out_buf: Vec::new(),
            captured: Vec::new(),
            capture_from_ns,
        })
        .collect();
    TracedHost {
        world: SimWorld::new(cfg.sim.clone(), actors),
        nodes: cfg.nodes,
        networks: cfg.networks,
        kernel: KernelCounts::default(),
    }
}

impl TracedHost<BackendNode> {
    /// Pass A: the product's `BackendNode` under the traced host.
    pub fn product_node(spec: &SimSpec, seed: u64, capture_from_ns: u64) -> Self {
        build(spec, seed, capture_from_ns, |me, members, cfg| {
            BackendNode::Totem(TotemNode::new_operational(
                me,
                members,
                cfg.srp.clone(),
                cfg.rrp.clone(),
                0,
            ))
        })
    }
}

impl TracedHost<MirrorNode> {
    /// Pass B: the mirror node, with spans around every `rrp` and `srp`
    /// call.
    pub fn mirror_node(spec: &SimSpec, seed: u64) -> Self {
        build(spec, seed, u64::MAX, |me, members, cfg| {
            MirrorNode::new_operational(me, members, cfg.srp.clone(), cfg.rrp.clone(), 0)
        })
    }
}

impl<B: Engine> TracedHost<B> {
    /// RRP counters of `node`.
    pub fn rrp_stats(&self, node: usize) -> RrpStats {
        self.world.actor(NodeId::new(node as u16)).node.rrp_stats()
    }

    /// Packets fed to the nodes and the outputs they produced, summed.
    pub fn packet_outputs(&self) -> (u64, u64) {
        self.world.actors().fold((0, 0), |(p, o), a| {
            let (ap, ao) = a.node.packet_outputs();
            (p + ap, o + ao)
        })
    }

    /// Up to [`CAPTURE_FRAMES`] frames the nodes received, interleaved
    /// across nodes.
    pub fn captured_frames(&self) -> Vec<SharedPacket> {
        let per_node: Vec<&Vec<SharedPacket>> = self.world.actors().map(|a| &a.captured).collect();
        let mut out = Vec::new();
        let longest = per_node.iter().map(|v| v.len()).max().unwrap_or(0);
        for i in 0..longest {
            for v in &per_node {
                if out.len() < CAPTURE_FRAMES {
                    if let Some(p) = v.get(i) {
                        out.push(p.clone());
                    }
                }
            }
        }
        out
    }
}

impl<B: Engine> SimHost for TracedHost<B> {
    fn now_ns(&self) -> u64 {
        self.world.now().as_nanos()
    }

    fn run_until(&mut self, t_ns: u64) {
        let until = SimTime::from_nanos(t_ns);
        while self.world.peek_event_time().is_some_and(|t| t <= until) {
            let _s = span(Span::SimStep);
            self.world.step();
            self.kernel.events += 1;
            if self.kernel.events.is_multiple_of(64) {
                self.kernel.pending_max = self.kernel.pending_max.max(self.world.pending_events());
            }
        }
        // No event is left at or before `until`: this only moves the
        // clock, as `SimCluster::run_until` does.
        self.world.run_until(until);
    }

    fn try_submit(&mut self, node: usize, data: Bytes) -> bool {
        use totem_cluster::Broadcast as _;
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            let _s = span(Span::SimActor);
            let mut outs = std::mem::take(&mut a.out_buf);
            let ok = a.node.submit_into(now.as_nanos(), data, &mut outs).is_ok();
            if ok {
                a.handle(now, &mut outs, ctx);
            }
            a.out_buf = outs;
            if ok {
                a.arm(ctx);
            }
            ok
        })
    }

    fn enable_saturation(&mut self, msg_size: usize) {
        for i in 0..self.nodes {
            self.world.with_actor(NodeId::new(i as u16), |a, now, ctx| {
                let _s = span(Span::SimActor);
                a.saturate = Some(msg_size);
                a.pump(now, ctx);
                a.arm(ctx);
            });
        }
    }

    fn set_network_down(&mut self, net: u8, down: bool) {
        self.world.fault_now(FaultCommand::NetworkDown { net: NetworkId::new(net), down });
    }

    fn reinstate(&mut self, node: usize, net: u8) -> bool {
        use totem_cluster::Broadcast as _;
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            let _s = span(Span::SimActor);
            let r = a.node.reinstate(now.as_nanos(), NetworkId::new(net));
            a.arm(ctx);
            r
        })
    }

    fn delivered_msgs(&self, node: usize) -> u64 {
        self.world.actor(NodeId::new(node as u16)).msgs
    }

    fn drain_deliveries(&mut self, node: usize, sink: &mut DeliverySink<'_>) {
        let actor = self.world.actor_mut(NodeId::new(node as u16));
        for (sender, seq, data, at) in actor.delivered.drain(..) {
            sink(sender, seq, &data, at);
        }
    }

    fn fault_reports(&self, node: usize) -> Vec<(u8, u64)> {
        self.world.actor(NodeId::new(node as u16)).faults.clone()
    }

    fn net_totals(&self) -> NetTotals {
        let mut t = NetTotals { wire_bytes: vec![0; self.networks], ..NetTotals::default() };
        for (net, s) in self.world.stats().iter() {
            t.frames_sent += s.frames_sent;
            t.frames_delivered += s.deliveries;
            t.wire_bytes[net.index()] = s.wire_bytes;
        }
        t
    }

    fn srp_stats(&self, node: usize) -> SrpStats {
        self.world.actor(NodeId::new(node as u16)).node.srp_stats()
    }
}
