//! A whole broadcast cluster inside the deterministic simulator.
//!
//! [`SimCluster`] hosts N [`TotemNode`]s as actors of a
//! [`totem_sim::SimWorld`], wiring protocol sends to the simulated
//! networks and collecting deliveries, configuration changes and
//! fault reports per node. It is the substrate for the integration
//! tests and for every figure of the paper's evaluation.

use bytes::Bytes;

use totem_rrp::{FaultReport, ReplicationStyle, RrpConfig};
use totem_sim::{Actor, Ctx, FaultCommand, SimConfig, SimStats, SimTime, SimWorld};
use totem_srp::{ConfigChange, Delivered, SrpConfig, SrpState, SubmitError};
use totem_wire::{Incarnation, NetworkId, NodeId};

use crate::backend::Broadcast;
use crate::node::{NodeOutput, TotemNode};

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Replication style under test.
    pub style: ReplicationStyle,
    /// Number of redundant networks (defaulted from the style).
    pub networks: usize,
    /// Single ring protocol parameters.
    pub srp: SrpConfig,
    /// Redundant ring layer parameters.
    pub rrp: RrpConfig,
    /// Simulator parameters (network + CPU models, seed).
    pub sim: SimConfig,
    /// Start through the membership protocol instead of a static ring.
    pub joining: bool,
    /// Keep full per-node delivery logs (tests) or only counters
    /// (benchmarks).
    pub record_deliveries: bool,
}

impl ClusterConfig {
    /// Defaults for `nodes` nodes under `style`: 2 networks for
    /// active/passive, K+1 for active-passive, 1 for the unreplicated
    /// baseline; 100 Mbit/s Ethernets; the paper's first-testbed CPU
    /// model.
    pub fn new(nodes: usize, style: ReplicationStyle) -> Self {
        let networks = match style {
            ReplicationStyle::Single => 1,
            ReplicationStyle::Active | ReplicationStyle::Passive => 2,
            ReplicationStyle::ActivePassive { copies } => copies as usize + 1,
            // K-of-N spans the full 1..=N range, so K alone doesn't
            // pin N; default to K networks (at least 2) and let the
            // caller override for headroom to reconfigure upward.
            ReplicationStyle::KOfN { copies } => (copies as usize).max(2),
        };
        ClusterConfig {
            nodes,
            style,
            networks,
            srp: SrpConfig::default(),
            rrp: RrpConfig::new(style, networks),
            sim: SimConfig::lan(nodes, networks),
            joining: false,
            record_deliveries: true,
        }
    }

    /// Overrides the network count (keeping per-network models).
    pub fn with_networks(mut self, networks: usize) -> Self {
        assert!(networks > 0, "need at least one network");
        self.networks = networks;
        self.rrp.networks = networks;
        let model = self.sim.networks[0].clone();
        self.sim.networks = vec![model; networks];
        self
    }

    /// Replaces the simulator configuration wholesale.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the simulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Starts the statically bootstrapped ring's global sequence
    /// numbers at `seq` instead of zero (see
    /// [`totem_srp::SrpConfig::initial_seq`]). Wrap-equivariance tests
    /// place this just below `u64::MAX`.
    pub fn with_start_seq(mut self, seq: u64) -> Self {
        self.srp.initial_seq = totem_wire::Seq::new(seq);
        self
    }

    /// Starts all nodes through the membership protocol (cold start)
    /// instead of a statically bootstrapped ring.
    pub fn joining(mut self) -> Self {
        self.joining = true;
        self
    }

    /// Disables per-message delivery logs; only counters are kept
    /// (benchmarks).
    pub fn counters_only(mut self) -> Self {
        self.record_deliveries = false;
        self
    }
}

/// Aggregated application-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Application messages delivered (summed over the queried nodes).
    pub msgs: u64,
    /// Application payload bytes delivered.
    pub bytes: u64,
    /// Sum of end-to-end latencies observed (saturation messages
    /// carry their send timestamp), in nanoseconds.
    pub latency_sum_ns: u128,
    /// Number of latency samples.
    pub latency_samples: u64,
    /// Maximum latency observed, in nanoseconds.
    pub latency_max_ns: u64,
}

impl ClusterCounters {
    /// Mean delivery latency in nanoseconds, if any samples exist.
    pub fn latency_mean_ns(&self) -> Option<u64> {
        (self.latency_samples > 0)
            .then(|| (self.latency_sum_ns / self.latency_samples as u128) as u64)
    }

    fn absorb(&mut self, other: &ClusterCounters) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.latency_sum_ns += other.latency_sum_ns;
        self.latency_samples += other.latency_samples;
        self.latency_max_ns = self.latency_max_ns.max(other.latency_max_ns);
    }
}

/// One node hosted in the simulator.
struct ClusterActor {
    node: TotemNode,
    /// The configuration a cold reboot rebuilds the node from.
    srp: SrpConfig,
    rrp: RrpConfig,
    /// `false` while crashed by [`FaultCommand::CrashNode`].
    alive: bool,
    /// Reboots survived ([`Incarnation::ZERO`] = the original
    /// incarnation).
    incarnation: Incarnation,
    /// Identity epoch carried into the next incarnation: the highest
    /// ring sequence number any dead incarnation reached.
    epoch: u64,
    /// Per-delivery protocol processing cost model (see
    /// `CpuConfig::deliver_cost`).
    cpu: totem_sim::CpuConfig,
    bootstrap: bool,
    joining: bool,
    record: bool,
    /// Saturating workload: keep the send queue topped up with copies
    /// of this message (paper §8: "every node sent as many messages as
    /// the Totem flow control mechanism permitted"). It is zeroes
    /// behind an 8-byte submit timestamp, restamped at each pump, so a
    /// message costs one allocation: its copy.
    saturate: Option<Vec<u8>>,
    delivered: Vec<Delivered>,
    /// Simulated delivery instant (nanoseconds) of each entry in
    /// `delivered`.
    delivered_at: Vec<u64>,
    configs: Vec<ConfigChange>,
    faults: Vec<FaultReport>,
    reinstated: Vec<(NetworkId, u64)>,
    counters: ClusterCounters,
    /// Recycled [`NodeOutput`] buffer for the reception/timer/pump hot
    /// paths: one buffer per node, zero allocations per callback in
    /// steady state.
    out_buf: Vec<NodeOutput>,
}

impl ClusterActor {
    fn handle(&mut self, now: SimTime, outputs: &mut Vec<NodeOutput>, ctx: &mut Ctx<'_>) {
        for out in outputs.drain(..) {
            match out {
                NodeOutput::Send { net, dst, pkt } => match dst {
                    None => ctx.broadcast(net, pkt),
                    Some(d) => ctx.unicast(net, d, pkt),
                },
                NodeOutput::Deliver(d) => {
                    // Full protocol processing of a distinct message
                    // (ordering, liveness, copy to the application) —
                    // the cost the paper identifies as passive
                    // replication's ceiling (§8).
                    ctx.consume_cpu(self.cpu.deliver_cost(d.data.len()));
                    self.counters.msgs += 1;
                    self.counters.bytes += d.data.len() as u64;
                    if self.saturate.is_some() && d.data.len() >= 8 {
                        let ts = u64::from_be_bytes(d.data[..8].try_into().expect("8 bytes"));
                        let lat = now.as_nanos().saturating_sub(ts);
                        self.counters.latency_sum_ns += lat as u128;
                        self.counters.latency_samples += 1;
                        self.counters.latency_max_ns = self.counters.latency_max_ns.max(lat);
                    }
                    if self.record {
                        self.delivered.push(d);
                        self.delivered_at.push(now.as_nanos());
                    }
                }
                NodeOutput::Config(c) => self.configs.push(c),
                NodeOutput::Fault(f) => self.faults.push(f),
                NodeOutput::Reinstated { net, at } => self.reinstated.push((net, at)),
            }
        }
    }

    fn pump(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        if !self.alive {
            return;
        }
        let Some(body) = self.saturate.as_mut() else { return };
        body[..8].copy_from_slice(&now.as_nanos().to_be_bytes());
        // Keep a healthy backlog without churning the full queue
        // limit on every callback.
        let mut outs = std::mem::take(&mut self.out_buf);
        while self.node.send_queue_len() < 64 {
            let Some(body) = self.saturate.as_deref() else { break };
            match self.node.submit_into(now.as_nanos(), Bytes::copy_from_slice(body), &mut outs) {
                Ok(()) => self.handle(now, &mut outs, ctx),
                Err(_) => break,
            }
        }
        self.out_buf = outs;
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        match self.node.next_deadline() {
            Some(d) => ctx.set_alarm(SimTime::from_nanos(d)),
            None => ctx.cancel_alarm(),
        }
        // Hand any state-machine transitions this callback produced to
        // the world's trace (timestamped, attributed to this node).
        for t in self.node.take_transitions() {
            ctx.note_transition(t);
        }
    }
}

impl Actor for ClusterActor {
    fn on_start(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        if self.joining {
            self.node.start_into(now.as_nanos(), &mut outputs);
        } else if self.bootstrap {
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
        pkt: totem_wire::SharedPacket,
        ctx: &mut Ctx<'_>,
    ) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        self.node.on_packet_into(now.as_nanos(), net, pkt, &mut outputs);
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }

    fn on_alarm(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut outputs = std::mem::take(&mut self.out_buf);
        self.node.on_timer_into(now.as_nanos(), &mut outputs);
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }

    fn on_crash(&mut self, _now: SimTime) {
        // Remember how far the dying incarnation's ordering history
        // got: the reboot must start beyond it.
        self.epoch = self.epoch.max(self.node.crash_epoch());
        self.alive = false;
    }

    fn on_corrupt(
        &mut self,
        now: SimTime,
        target: totem_sim::CorruptionTarget,
        salt: u64,
        ctx: &mut Ctx<'_>,
    ) {
        // Arbitrary-state fault: flip the addressed machine's state by
        // seeded mutation, then let the protocol run — the
        // self-stabilization hardening must route any resulting
        // inconsistency into ring reformation. Re-arm the alarm, since
        // the corruption may have moved (or disarmed) a deadline.
        self.node.corrupt(target, salt);
        let _ = now;
        self.arm(ctx);
    }

    fn on_restart(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        // Cold reboot: all protocol state is rebuilt from scratch;
        // only the identity epoch survives (think: stable storage
        // holding a single counter). Delivery logs and counters are
        // the *observer's* records, not the node's, and accumulate
        // across incarnations.
        self.incarnation = self.incarnation.next();
        self.node = TotemNode::new_rejoining(
            self.node.id(),
            self.srp.clone(),
            self.rrp.clone(),
            self.epoch,
        );
        self.alive = true;
        let mut outputs = std::mem::take(&mut self.out_buf);
        self.node.start_into(now.as_nanos(), &mut outputs);
        self.handle(now, &mut outputs, ctx);
        self.out_buf = outputs;
        self.pump(now, ctx);
        self.arm(ctx);
    }
}

/// A simulated Totem cluster. See the [crate example](crate).
pub struct SimCluster {
    world: SimWorld<ClusterActor>,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster").field("now", &self.world.now()).finish()
    }
}

impl SimCluster {
    /// Builds and wires the cluster (nothing runs until
    /// [`SimCluster::run_until`]).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (mismatched network
    /// counts, invalid protocol configs).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert_eq!(cfg.networks, cfg.rrp.networks, "network counts must agree");
        assert_eq!(cfg.networks, cfg.sim.network_count(), "sim network count must agree");
        assert_eq!(cfg.nodes, cfg.sim.nodes, "sim node count must agree");
        let members: Vec<NodeId> = (0..cfg.nodes as u16).map(NodeId::new).collect();
        let actors = members
            .iter()
            .map(|&me| {
                let node = if cfg.joining {
                    TotemNode::new_joining(me, cfg.srp.clone(), cfg.rrp.clone())
                } else {
                    TotemNode::new_operational(me, &members, cfg.srp.clone(), cfg.rrp.clone(), 0)
                };
                ClusterActor {
                    node,
                    srp: cfg.srp.clone(),
                    rrp: cfg.rrp.clone(),
                    alive: true,
                    incarnation: Incarnation::ZERO,
                    epoch: 0,
                    cpu: cfg.sim.cpus[me.index()].clone(),
                    bootstrap: !cfg.joining && me == members[0],
                    joining: cfg.joining,
                    record: cfg.record_deliveries,
                    saturate: None,
                    delivered: Vec::new(),
                    delivered_at: Vec::new(),
                    configs: Vec::new(),
                    faults: Vec::new(),
                    reinstated: Vec::new(),
                    counters: ClusterCounters::default(),
                    out_buf: Vec::new(),
                }
            })
            .collect();
        SimCluster { world: SimWorld::new(cfg.sim.clone(), actors) }
    }

    /// Advances the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Queues an application message on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] on flow-control backpressure, or with
    /// `limit == 0` when the node is currently crashed (a dead
    /// processor accepts nothing).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn try_submit(&mut self, node: usize, data: Bytes) -> Result<(), SubmitError> {
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            if !a.alive {
                return Err(SubmitError { limit: 0 });
            }
            let mut outs = std::mem::take(&mut a.out_buf);
            match a.node.submit_into(now.as_nanos(), data, &mut outs) {
                Ok(()) => {
                    a.handle(now, &mut outs, ctx);
                    a.out_buf = outs;
                    a.arm(ctx);
                    Ok(())
                }
                Err(e) => {
                    a.out_buf = outs;
                    Err(e)
                }
            }
        })
    }

    /// Queues an application message, panicking on backpressure
    /// (convenient in tests).
    ///
    /// # Panics
    ///
    /// Panics if the node's send queue is full or `node` is out of
    /// range.
    pub fn submit(&mut self, node: usize, data: Bytes) {
        self.try_submit(node, data).expect("send queue full");
    }

    /// Turns on the saturating workload on every node: each keeps its
    /// send queue topped up with `msg_size`-byte messages (minimum 8;
    /// a send timestamp rides in the first 8 bytes for latency
    /// accounting). This is the paper's §8 workload ("every node sent
    /// as many messages as the Totem flow control mechanism
    /// permitted").
    ///
    /// # Example
    ///
    /// ```
    /// # use totem_cluster::{ClusterConfig, SimCluster};
    /// # use totem_rrp::ReplicationStyle;
    /// # use totem_sim::SimTime;
    /// let cfg = ClusterConfig::new(4, ReplicationStyle::Single).counters_only();
    /// let mut cluster = SimCluster::new(cfg);
    /// cluster.enable_saturation(1000);
    /// cluster.run_until(SimTime::from_millis(100));
    /// assert!(cluster.counters().msgs > 1000, "the ring should be saturated");
    /// ```
    pub fn enable_saturation(&mut self, msg_size: usize) {
        for node in 0..self.nodes() {
            self.enable_saturation_on(node, msg_size);
        }
    }

    /// Turns on the saturating workload of
    /// [`SimCluster::enable_saturation`] on one node only, so a run
    /// can saturate some members and leave the rest silent (the
    /// single-proposer shape: the silent members only relay the
    /// token).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn enable_saturation_on(&mut self, node: usize, msg_size: usize) {
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            a.saturate = Some(vec![0; msg_size.max(8)]);
            a.pump(now, ctx);
            a.arm(ctx);
        });
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.world.config().nodes
    }

    /// Messages delivered at `node`, in delivery order (empty when
    /// built with [`ClusterConfig::counters_only`]).
    pub fn delivered(&self, node: usize) -> &[Delivered] {
        &self.world.actor(NodeId::new(node as u16)).delivered
    }

    /// Simulated delivery instants (nanoseconds) matching
    /// [`SimCluster::delivered`] one-to-one.
    pub fn delivery_times(&self, node: usize) -> &[u64] {
        &self.world.actor(NodeId::new(node as u16)).delivered_at
    }

    /// Drops the oldest delivery-log entries of `node`, keeping only
    /// the most recent `keep_last`; returns how many were dropped.
    /// Counters are untouched — only the replay log shrinks. The
    /// rolling soak oracle uses this to keep a multi-hour run's memory
    /// proportional to its check window instead of its length.
    pub fn prune_delivered(&mut self, node: usize, keep_last: usize) -> usize {
        let actor = self.world.actor_mut(NodeId::new(node as u16));
        let excess = actor.delivered.len().saturating_sub(keep_last);
        if excess > 0 {
            actor.delivered.drain(..excess);
            actor.delivered_at.drain(..excess);
        }
        excess
    }

    /// Configuration changes delivered at `node`.
    pub fn configs(&self, node: usize) -> &[ConfigChange] {
        &self.world.actor(NodeId::new(node as u16)).configs
    }

    /// Fault reports raised at `node`.
    pub fn faults(&self, node: usize) -> &[FaultReport] {
        &self.world.actor(NodeId::new(node as u16)).faults
    }

    /// Reinstatement events observed at `node`: `(network, at-nanos)`.
    pub fn reinstatements(&self, node: usize) -> &[(NetworkId, u64)] {
        &self.world.actor(NodeId::new(node as u16)).reinstated
    }

    /// Administrative repair of a faulty network at one node (see
    /// [`totem_rrp::RrpLayer::reinstate`]).
    pub fn reinstate(&mut self, node: usize, net: NetworkId) -> bool {
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            let r = a.node.reinstate(now.as_nanos(), net);
            a.arm(ctx);
            r
        })
    }

    /// Operator reconfiguration: changes one node's replication degree
    /// K on the fly (see [`totem_rrp::RrpLayer::set_k`]).
    pub fn set_k(&mut self, node: usize, k: usize) -> bool {
        self.world.with_actor(NodeId::new(node as u16), |a, now, ctx| {
            let r = a.node.set_k(now.as_nanos(), k);
            a.arm(ctx);
            r
        })
    }

    /// Counters of one node.
    pub fn node_counters(&self, node: usize) -> ClusterCounters {
        self.world.actor(NodeId::new(node as u16)).counters
    }

    /// Counters summed over all nodes.
    pub fn counters(&self) -> ClusterCounters {
        let mut total = ClusterCounters::default();
        for a in self.world.actors() {
            total.absorb(&a.counters);
        }
        total
    }

    /// Protocol state of one node as seen by the membership observers.
    pub fn srp_state(&self, node: usize) -> SrpState {
        self.world.actor(NodeId::new(node as u16)).node.state()
    }

    /// Ring membership of one node.
    pub fn members(&self, node: usize) -> Option<Vec<NodeId>> {
        self.world.actor(NodeId::new(node as u16)).node.srp().members().map(<[NodeId]>::to_vec)
    }

    /// Which networks `node` has marked faulty.
    pub fn faulty_networks(&self, node: usize) -> Vec<bool> {
        self.world.actor(NodeId::new(node as u16)).node.rrp().faulty()
    }

    /// Schedules a fault command at a simulated instant.
    pub fn schedule_fault(&mut self, at: SimTime, cmd: FaultCommand) {
        self.world.schedule_fault(at, cmd);
    }

    /// Applies a fault command immediately.
    pub fn fault_now(&mut self, cmd: FaultCommand) {
        self.world.fault_now(cmd);
    }

    /// Crashes `node` immediately (see [`FaultCommand::CrashNode`]).
    pub fn crash(&mut self, node: usize) {
        self.fault_now(FaultCommand::CrashNode { node: NodeId::new(node as u16) });
    }

    /// Restarts a crashed `node` immediately; it reboots cold with a
    /// fresh identity epoch and rejoins through the membership
    /// protocol (see [`FaultCommand::RestartNode`]).
    pub fn restart(&mut self, node: usize) {
        self.fault_now(FaultCommand::RestartNode { node: NodeId::new(node as u16) });
    }

    /// Corrupts one machine of `node`'s in-memory protocol state
    /// immediately (see [`FaultCommand::CorruptState`]): a seeded
    /// arbitrary-state fault the cluster must stabilize from.
    pub fn corrupt(&mut self, node: usize, target: totem_sim::CorruptionTarget, salt: u64) {
        self.fault_now(FaultCommand::CorruptState { node: NodeId::new(node as u16), target, salt });
    }

    /// Whether `node` is currently alive (not crashed).
    pub fn is_alive(&self, node: usize) -> bool {
        self.world.actor(NodeId::new(node as u16)).alive
    }

    /// How many times `node` has rebooted ([`Incarnation::ZERO`] =
    /// original incarnation).
    pub fn incarnation(&self, node: usize) -> Incarnation {
        self.world.actor(NodeId::new(node as u16)).incarnation
    }

    /// Diagnostic snapshot of one node's RRP monitors.
    pub fn monitor_report(&self, node: usize) -> Vec<(totem_rrp::MonitorKind, Vec<u64>)> {
        self.world.actor(NodeId::new(node as u16)).node.rrp().monitor_report()
    }

    /// Wire-level statistics of the simulated networks.
    pub fn net_stats(&self) -> &SimStats {
        self.world.stats()
    }

    /// Enables wire-level tracing (see [`totem_sim::TraceLog`]),
    /// retaining up to `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.world.enable_trace(capacity);
    }

    /// The wire-level trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&totem_sim::TraceLog> {
        self.world.trace()
    }

    /// Per-node SRP statistics.
    pub fn srp_stats(&self, node: usize) -> totem_srp::node::SrpStats {
        self.world.actor(NodeId::new(node as u16)).node.srp().stats().clone()
    }

    /// Ring identity of one node, if it has formed a ring.
    pub fn ring_id(&self, node: usize) -> Option<totem_wire::RingId> {
        self.world.actor(NodeId::new(node as u16)).node.srp().ring_id()
    }

    /// Highest ring sequence `node` has ever observed; survives crashes
    /// as the identity epoch.
    pub fn max_ring_seq(&self, node: usize) -> u64 {
        self.world.actor(NodeId::new(node as u16)).node.srp().max_ring_seq()
    }

    /// Feeds the observable cluster state into a caller-supplied
    /// hasher: per node the liveness flag, incarnation count, both
    /// protocol layers' fingerprints ([`TotemNode::fingerprint`]) and
    /// the observer logs (delivery log, configuration-change and
    /// fault-report counts), plus the fault plane (armed faults,
    /// partitions, crashes) and the simulator's event-queue horizon.
    /// The bounded model checker (`crate::mc`) uses this as the
    /// canonical state hash for visited-state pruning.
    pub fn state_fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash as _;
        for n in 0..self.nodes() {
            let a = self.world.actor(NodeId::new(n as u16));
            a.alive.hash(h);
            a.incarnation.hash(h);
            // The zero engine tag `BackendNode` hashed first: it keeps
            // the model checker's pinned digests.
            0u8.hash(h);
            a.node.fingerprint(h);
            a.delivered.len().hash(h);
            for d in &a.delivered {
                d.sender.hash(h);
                d.data.as_ref().hash(h);
            }
            a.configs.len().hash(h);
            a.faults.len().hash(h);
        }
        self.world.faults().fingerprint(h);
        self.world.pending_events().hash(h);
        self.world.peek_event_time().map(|t| t.as_nanos()).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_sim::SimDuration;

    #[test]
    fn four_node_active_cluster_delivers_in_total_order() {
        let mut c = SimCluster::new(ClusterConfig::new(4, ReplicationStyle::Active).with_seed(1));
        for i in 0..4 {
            c.submit(i, Bytes::from(format!("m{i}")));
        }
        c.run_until(SimTime::from_millis(500));
        let reference: Vec<(NodeId, Bytes)> =
            c.delivered(0).iter().map(|d| (d.sender, d.data.clone())).collect();
        assert_eq!(reference.len(), 4);
        for node in 1..4 {
            let order: Vec<(NodeId, Bytes)> =
                c.delivered(node).iter().map(|d| (d.sender, d.data.clone())).collect();
            assert_eq!(order, reference, "node {node} disagrees on order");
        }
    }

    #[test]
    fn saturation_produces_sustained_throughput() {
        let mut c = SimCluster::new(
            ClusterConfig::new(4, ReplicationStyle::Single).counters_only().with_seed(2),
        );
        c.enable_saturation(1000);
        c.run_until(SimTime::from_millis(500));
        let counters = c.counters();
        assert!(counters.msgs > 1000, "only {} messages in 500ms", counters.msgs);
        assert!(counters.latency_mean_ns().unwrap() > 0);
    }

    #[test]
    fn cold_start_via_membership_protocol() {
        let mut c = SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).joining());
        c.run_until(SimTime::from_secs(2));
        for n in 0..3 {
            assert_eq!(c.srp_state(n), SrpState::Operational, "node {n} not operational");
            assert_eq!(c.members(n).unwrap().len(), 3);
        }
    }

    #[test]
    fn counters_only_mode_keeps_no_logs() {
        let mut c = SimCluster::new(
            ClusterConfig::new(2, ReplicationStyle::Single).counters_only().with_seed(3),
        );
        c.submit(0, Bytes::from_static(b"x"));
        c.run_until(SimTime::from_millis(200));
        assert!(c.delivered(0).is_empty());
        assert_eq!(c.counters().msgs, 2, "both nodes count the delivery");
    }

    #[test]
    fn crashed_node_rejoins_cold_through_membership() {
        let mut c = SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).with_seed(5));
        c.run_until(SimTime::from_millis(100));
        c.crash(2);
        assert!(!c.is_alive(2));
        assert!(c.try_submit(2, Bytes::from_static(b"dead")).is_err());
        // Survivors reform a 2-node ring once the token-loss timer and
        // consensus watchdog run their course.
        c.run_until(SimTime::from_secs(4));
        for n in 0..2 {
            assert_eq!(c.srp_state(n), SrpState::Operational, "survivor {n} not operational");
            assert_eq!(
                c.members(n).unwrap(),
                vec![NodeId::new(0), NodeId::new(1)],
                "survivor {n} should exclude the crashed node"
            );
        }
        // Reboot: the node rejoins cold via Gather → Commit → Recovery
        // and every node converges on the full ring again.
        c.restart(2);
        assert!(c.is_alive(2));
        assert_eq!(c.incarnation(2), Incarnation::new(1));
        c.run_until(SimTime::from_secs(8));
        for n in 0..3 {
            assert_eq!(c.srp_state(n), SrpState::Operational, "node {n} not operational");
            assert_eq!(c.members(n).unwrap().len(), 3, "node {n} missing members");
        }
        // The rejoined incarnation carries a fresh identity epoch.
        let survivors_ring = c.members(0).unwrap();
        assert_eq!(survivors_ring, c.members(2).unwrap());
        // Every surviving node delivered a new configuration change
        // that includes the rejoined node.
        for n in 0..2 {
            let last = c.configs(n).last().expect("survivor saw config changes");
            assert_eq!(last.members.len(), 3, "survivor {n} final config lacks rejoiner");
        }
    }

    #[test]
    fn run_for_composes_with_run_until() {
        let mut c = SimCluster::new(ClusterConfig::new(2, ReplicationStyle::Single));
        let t0 = c.now();
        c.run_until(t0 + SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(5));
    }
}
