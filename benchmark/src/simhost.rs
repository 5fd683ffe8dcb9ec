//! One schedule, three hosts.
//!
//! A simulated workload is a schedule of inputs — the saturation pump
//! switched on, a seeded Poisson stream of ops, a network killed and
//! repaired — and a window over which deliveries are observed.
//! [`Schedule`] drives it through the [`SimHost`] trait, so that the
//! untraced product `SimCluster` ([`ProductHost`]) and the two traced
//! hosts of `simtrace` run *the same inputs at the same simulated
//! instants*; that is what makes their delivery digests comparable.

use std::collections::VecDeque;

use bytes::Bytes;

use totem_cluster::{ClusterConfig, SimCluster};
use totem_sim::{FaultCommand, SimTime};
use totem_srp::node::SrpStats;
use totem_wire::NetworkId;

use crate::alloc::{self, AllocCount};
use crate::oracle::{self, make_op, NodeOracle, Observed, HEADER_LEN};
use crate::procfs;
use crate::rng::Rng;
use crate::stats::Histogram;
use crate::workloads::{SimLoad, SimSpec};

/// Simulated warm-up before the measured window (ring formation, queues
/// filled, buffers grown to their steady size).
pub const WARMUP_NS: u64 = 200_000_000;
/// The ring idles this long before any load is offered. Not a nicety:
/// with the pump switched on at time zero, a data packet that a node
/// loses during the *first* token rotation is never recovered under
/// passive replication — in 80 of 300 seeds at 2 % loss one node
/// delivers a dozen messages and then nothing, for good (README, "A
/// product defect this benchmark found"). After 50 ms of idle rotation
/// it did not happen once in 300 seeds, nor in 40 seeds × 120 s.
pub const SETTLE_NS: u64 = 50_000_000;
/// Simulated time after the last submit by which every op must have
/// been delivered everywhere.
pub const DRAIN_NS: u64 = 2_000_000_000;
/// Recording passes empty the hosts' delivery logs this often, which
/// bounds memory by the slice, not the run.
const SLICE_NS: u64 = 5_000_000;
/// The network the failover workload kills.
pub const KILLED_NET: u8 = 1;
/// Ops the generator builds ahead in one batch.
const PREBUILD: usize = 256;

/// An op built ahead of its due time.
#[derive(Debug)]
struct Prebuilt {
    due_ns: u64,
    sender: usize,
    seq: u64,
    data: Bytes,
}

/// Wire-level totals of the simulated networks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Frames put on a medium.
    pub frames_sent: u64,
    /// Frames handed to a node (one per receiver): the benchmark's
    /// *frame*.
    pub frames_delivered: u64,
    /// Bytes on the wire, per network.
    pub wire_bytes: Vec<u64>,
}

/// Receives one delivery: `(sender, ring_seq, payload, at_ns)`.
pub type DeliverySink<'a> = dyn FnMut(u16, u64, &[u8], u64) + 'a;

/// What the schedule needs from whatever hosts the nodes.
pub trait SimHost {
    /// Simulated now, in nanoseconds.
    fn now_ns(&self) -> u64;
    /// Advances the simulation to `t_ns`.
    fn run_until(&mut self, t_ns: u64);
    /// Submits an application message on `node`; `false` if refused.
    fn try_submit(&mut self, node: usize, data: Bytes) -> bool;
    /// Switches the saturation pump on at every node.
    fn enable_saturation(&mut self, msg_size: usize);
    /// Kills or revives a whole network, now.
    fn set_network_down(&mut self, net: u8, down: bool);
    /// Administrative repair of `net` at `node`.
    fn reinstate(&mut self, node: usize, net: u8) -> bool;
    /// Application messages delivered at `node` so far.
    fn delivered_msgs(&self, node: usize) -> u64;
    /// Hands every delivery `node` logged since the last call to
    /// `sink` and forgets them. Counters-only hosts log nothing.
    fn drain_deliveries(&mut self, node: usize, sink: &mut DeliverySink<'_>);
    /// `(network, at_ns)` of every fault report raised at `node`.
    fn fault_reports(&self, node: usize) -> Vec<(u8, u64)>;
    /// Wire-level totals so far.
    fn net_totals(&self) -> NetTotals;
    /// SRP counters of `node`.
    fn srp_stats(&self, node: usize) -> SrpStats;
}

/// The cluster configuration a spec describes: product defaults plus
/// the workload's shape (size, style, loss, seed).
pub fn cluster_config(spec: &SimSpec, seed: u64, record: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(spec.nodes, spec.style).with_seed(seed);
    if spec.rx_loss > 0.0 {
        for net in &mut cfg.sim.networks {
            *net = net.clone().with_rx_loss(spec.rx_loss);
        }
    }
    if !record {
        cfg = cfg.counters_only();
    }
    cfg
}

/// The product's own simulator host.
#[derive(Debug)]
pub struct ProductHost {
    cluster: SimCluster,
    networks: usize,
}

impl ProductHost {
    /// Builds the cluster; `record` keeps delivery logs (latencies,
    /// oracle), otherwise counters only (host-cost passes).
    pub fn new(spec: &SimSpec, seed: u64, record: bool) -> Self {
        let cfg = cluster_config(spec, seed, record);
        let networks = cfg.networks;
        ProductHost { cluster: SimCluster::new(cfg), networks }
    }
}

impl SimHost for ProductHost {
    fn now_ns(&self) -> u64 {
        self.cluster.now().as_nanos()
    }

    fn run_until(&mut self, t_ns: u64) {
        self.cluster.run_until(SimTime::from_nanos(t_ns));
    }

    fn try_submit(&mut self, node: usize, data: Bytes) -> bool {
        self.cluster.try_submit(node, data).is_ok()
    }

    fn enable_saturation(&mut self, msg_size: usize) {
        self.cluster.enable_saturation(msg_size);
    }

    fn set_network_down(&mut self, net: u8, down: bool) {
        self.cluster.fault_now(FaultCommand::NetworkDown { net: NetworkId::new(net), down });
    }

    fn reinstate(&mut self, node: usize, net: u8) -> bool {
        self.cluster.reinstate(node, NetworkId::new(net))
    }

    fn delivered_msgs(&self, node: usize) -> u64 {
        self.cluster.node_counters(node).msgs
    }

    fn drain_deliveries(&mut self, node: usize, sink: &mut DeliverySink<'_>) {
        let log = self.cluster.delivered(node);
        let times = self.cluster.delivery_times(node);
        for (d, at) in log.iter().zip(times) {
            sink(d.sender.as_u16(), d.seq.as_u64(), &d.data, *at);
        }
        self.cluster.prune_delivered(node, 0);
    }

    fn fault_reports(&self, node: usize) -> Vec<(u8, u64)> {
        self.cluster.faults(node).iter().map(|f| (f.net.as_u8(), f.at)).collect()
    }

    fn net_totals(&self) -> NetTotals {
        let stats = self.cluster.net_stats();
        let mut t = NetTotals { wire_bytes: vec![0; self.networks], ..NetTotals::default() };
        for (net, s) in stats.iter() {
            t.frames_sent += s.frames_sent;
            t.frames_delivered += s.deliveries;
            t.wire_bytes[net.index()] = s.wire_bytes;
        }
        t
    }

    fn srp_stats(&self, node: usize) -> SrpStats {
        self.cluster.srp_stats(node)
    }
}

/// Everything sampled at one edge of the measured window.
#[derive(Debug, Clone)]
struct Edge {
    delivered: Vec<u64>,
    net: NetTotals,
    srp: Vec<SrpStats>,
    cpu_ns: u64,
    allocs: AllocCount,
    wall: std::time::Instant,
}

impl Edge {
    /// Samples the host. The thread's own CPU and allocation counters
    /// are read innermost — last at the window's start, first at its
    /// end — so the sampling itself stays outside the window.
    fn take<H: SimHost>(host: &H, nodes: usize, start: bool) -> Edge {
        let own = || {
            // Reading /proc allocates: keep that on the outer side of
            // the allocation sample.
            if start {
                let cpu = procfs::self_cpu_ns();
                (cpu, alloc::current_thread(), std::time::Instant::now())
            } else {
                let (wall, allocs) = (std::time::Instant::now(), alloc::current_thread());
                (procfs::self_cpu_ns(), allocs, wall)
            }
        };
        let at_end = (!start).then(own);
        let delivered = (0..nodes).map(|n| host.delivered_msgs(n)).collect();
        let net = host.net_totals();
        let srp = (0..nodes).map(|n| host.srp_stats(n)).collect();
        let (cpu_ns, allocs, wall) = at_end.unwrap_or_else(own);
        Edge { delivered, net, srp, cpu_ns, allocs, wall }
    }
}

/// SRP counters summed over the nodes, over the window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SrpWindow {
    /// Data packets first-transmitted.
    pub packets_sent: u64,
    /// Token visits (tokens processed).
    pub token_visits: u64,
    /// Data packets rebroadcast on request.
    pub retransmissions: u64,
    /// Retransmission requests placed on the token.
    pub retrans_requested: u64,
    /// Tokens re-sent to the successor.
    pub token_retransmits: u64,
    /// Membership (gather) episodes.
    pub gathers: u64,
}

/// What the measured window showed. Everything except `cpu_ns`,
/// `allocs` and `wall_ns` is a function of the spec, the seed and the
/// window length alone.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// Messages delivered in the window, per node.
    pub delivered: Vec<u64>,
    /// Frames handed to nodes in the window.
    pub frames: u64,
    /// Frames put on a medium in the window.
    pub frames_sent: u64,
    /// Wire bytes in the window, per network.
    pub wire_bytes: Vec<u64>,
    /// SRP counters over the window.
    pub srp: SrpWindow,
    /// Host thread CPU over the window, net of what the benchmark
    /// itself spent on the thread (building ops; in a recording pass,
    /// draining and checking deliveries).
    pub cpu_ns: u64,
    /// Host thread allocations over the window.
    pub allocs: AllocCount,
    /// Wall time of the window.
    pub wall_ns: u64,
}

impl WindowOutcome {
    /// Distinct application messages delivered at *every* node in the
    /// window (the slowest node's count).
    pub fn delivered_everywhere(&self) -> u64 {
        self.delivered.iter().copied().min().unwrap_or(0)
    }
}

/// Per-delivery observations of a recording pass.
#[derive(Debug)]
pub struct Recorder {
    oracles: Vec<NodeOracle>,
    /// Submit (open loop: due) → delivery, every node, window only.
    pub latency: Histogram,
    last_delivery: Vec<Option<u64>>,
    /// Longest gap between consecutive deliveries at one node, window
    /// only.
    pub gap_max_ns: u64,
    window: (u64, u64),
    /// CPU this recorder spent draining and checking (the benchmark's
    /// own work on the simulation thread).
    drain_cpu_ns: u64,
}

impl Recorder {
    /// A recorder for `spec`'s cluster.
    pub fn new(spec: &SimSpec) -> Self {
        let saturating = matches!(spec.load, SimLoad::Saturate { .. });
        Recorder {
            oracles: vec![NodeOracle::new(spec.nodes, saturating); spec.nodes],
            latency: Histogram::new(),
            last_delivery: vec![None; spec.nodes],
            gap_max_ns: 0,
            window: (u64::MAX, u64::MAX),
            drain_cpu_ns: 0,
        }
    }

    fn drain<H: SimHost>(&mut self, host: &mut H) {
        let cpu0 = procfs::self_cpu_ns();
        self.drain_into_oracles(host);
        self.drain_cpu_ns += procfs::self_cpu_ns().saturating_sub(cpu0);
    }

    fn drain_into_oracles<H: SimHost>(&mut self, host: &mut H) {
        let (from, to) = self.window;
        for node in 0..self.oracles.len() {
            let oracle = &mut self.oracles[node];
            let last = &mut self.last_delivery[node];
            let latency = &mut self.latency;
            let gap_max = &mut self.gap_max_ns;
            host.drain_deliveries(node, &mut |sender, ring_seq, data, at_ns| {
                let observed = oracle.observe(sender, ring_seq, data);
                if at_ns < from || at_ns >= to {
                    return;
                }
                match observed {
                    Observed::Op { due_ns } => latency.record(at_ns.saturating_sub(due_ns)),
                    Observed::Saturation { stamp_ns } => {
                        latency.record(at_ns.saturating_sub(stamp_ns));
                    }
                    Observed::Foreign => {}
                }
                // The first gap is measured from the window's start, so
                // a node that delivers nothing for a long stretch at
                // the start still shows it.
                let prev = last.unwrap_or(from).max(from);
                *gap_max = (*gap_max).max(at_ns - prev);
                *last = Some(at_ns);
            });
        }
    }
}

/// The inputs of one simulated run, as a function of spec and seed.
#[derive(Debug)]
pub struct Schedule {
    spec: SimSpec,
    window_ns: u64,
    arrivals: Rng,
    shape: Rng,
    payload: Rng,
    /// Due time of the next op to *build*.
    next_due_ns: u64,
    mean_gap_ns: f64,
    /// Ops built ahead of their due time, in due order.
    prebuilt: VecDeque<Prebuilt>,
    /// CPU and allocations the generator itself spent building ops on
    /// the simulation thread: subtracted from the window's figures.
    generator_cpu_ns: u64,
    generator_allocs: AllocCount,
    /// Next sequence number to issue, and ops accepted, per sender.
    next_seq: Vec<u64>,
    accepted: Vec<u64>,
    round_robin: usize,
    next_slice_ns: u64,
    /// Ops the product refused at submit.
    refused: u64,
    /// When the network was killed, once it has been.
    pub killed_at_ns: Option<u64>,
    healed: bool,
}

impl Schedule {
    /// The schedule of `spec` under `seed`, with a measured window of
    /// `window_ns` simulated nanoseconds after [`WARMUP_NS`].
    pub fn new(spec: &SimSpec, seed: u64, window_ns: u64) -> Self {
        let rate = match spec.load {
            SimLoad::Saturate { ops_per_s } | SimLoad::Open { ops_per_s } => ops_per_s,
        };
        let mut s = Schedule {
            spec: *spec,
            window_ns,
            arrivals: Rng::new(seed, 1),
            shape: Rng::new(seed, 2),
            payload: Rng::new(seed, 3),
            next_due_ns: 0,
            mean_gap_ns: 1e9 / rate,
            prebuilt: VecDeque::new(),
            generator_cpu_ns: 0,
            generator_allocs: AllocCount::default(),
            next_seq: vec![0; spec.nodes],
            accepted: vec![0; spec.nodes],
            round_robin: 0,
            next_slice_ns: SLICE_NS,
            refused: 0,
            killed_at_ns: None,
            healed: false,
        };
        s.next_due_ns = SETTLE_NS + s.arrivals.exponential(s.mean_gap_ns) as u64;
        s
    }

    fn window_end_ns(&self) -> u64 {
        WARMUP_NS + self.window_ns
    }

    /// Simulated instants of the kill and the repair.
    pub fn fault_times_ns(&self) -> Option<(u64, u64)> {
        self.spec
            .failover
            .then(|| (WARMUP_NS + self.window_ns / 3, WARMUP_NS + 2 * (self.window_ns / 3)))
    }

    /// Builds the next [`PREBUILD`] ops (fewer at the end of the
    /// window). Building — drawing sizes and bodies, hashing,
    /// allocating — is the generator's work, not the product's, and it
    /// happens on the simulation thread: its CPU and allocations are
    /// sampled around the batch and kept out of the window's figures.
    fn refill(&mut self) {
        let cpu0 = procfs::self_cpu_ns();
        let allocs0 = alloc::current_thread();
        while self.prebuilt.len() < PREBUILD && self.next_due_ns < self.window_end_ns() {
            let (sender, len) = match self.spec.load {
                SimLoad::Saturate { .. } => {
                    let sender = self.shape.below(self.spec.nodes as u64) as usize;
                    let span = (2 * self.spec.msg_size).saturating_sub(HEADER_LEN) as u64 + 1;
                    (sender, HEADER_LEN + self.shape.below(span) as usize)
                }
                SimLoad::Open { .. } => {
                    let sender = self.round_robin;
                    self.round_robin = (self.round_robin + 1) % self.spec.nodes;
                    (sender, self.spec.msg_size)
                }
            };
            let seq = self.next_seq[sender];
            self.next_seq[sender] += 1;
            let data = make_op(&mut self.payload, sender as u16, seq, self.next_due_ns, len);
            self.prebuilt.push_back(Prebuilt { due_ns: self.next_due_ns, sender, seq, data });
            self.next_due_ns += self.arrivals.exponential(self.mean_gap_ns).max(1.0) as u64;
        }
        self.generator_allocs += alloc::current_thread().since(allocs0);
        self.generator_cpu_ns += procfs::self_cpu_ns().saturating_sub(cpu0);
    }

    /// Due time of the next op, if any is left.
    fn next_op_ns(&mut self) -> u64 {
        if self.prebuilt.is_empty() {
            self.refill();
        }
        self.prebuilt.front().map_or(u64::MAX, |op| op.due_ns)
    }

    fn submit_due_op<H: SimHost>(&mut self, host: &mut H, rec: Option<&mut Recorder>) {
        let Some(op) = self.prebuilt.pop_front() else { return };
        if host.try_submit(op.sender, op.data) {
            self.accepted[op.sender] += 1;
        } else {
            self.refused += 1;
            if let Some(r) = rec {
                for o in &mut r.oracles {
                    o.forgive(op.sender as u16, op.seq);
                }
            }
        }
    }

    /// Runs the host to `until_ns`, feeding it every input that falls
    /// due on the way. Ops stop at the end of the window.
    fn advance<H: SimHost>(&mut self, host: &mut H, until_ns: u64, mut rec: Option<&mut Recorder>) {
        let (kill_ns, heal_ns) = self.fault_times_ns().unwrap_or((u64::MAX, u64::MAX));
        loop {
            let op_ns = self.next_op_ns();
            let kill = if self.killed_at_ns.is_none() { kill_ns } else { u64::MAX };
            let heal = if self.healed { u64::MAX } else { heal_ns };
            let slice = if rec.is_some() { self.next_slice_ns } else { u64::MAX };
            let next = op_ns.min(kill).min(heal).min(slice).min(until_ns);
            host.run_until(next);
            if next == kill {
                host.set_network_down(KILLED_NET, true);
                self.killed_at_ns = Some(next);
            } else if next == heal {
                host.set_network_down(KILLED_NET, false);
                for node in 0..self.spec.nodes {
                    host.reinstate(node, KILLED_NET);
                }
                self.healed = true;
            } else if next == op_ns {
                self.submit_due_op(host, rec.as_deref_mut());
            } else if next == slice {
                if let Some(r) = rec.as_deref_mut() {
                    r.drain(host);
                }
                self.next_slice_ns += SLICE_NS;
            } else {
                if let Some(r) = rec.as_deref_mut() {
                    r.drain(host);
                }
                return;
            }
        }
    }

    /// Set-up's tail: ring formed and idling for [`SETTLE_NS`], then
    /// pump on and the op stream started, then the warm-up run.
    pub fn warm_up<H: SimHost>(&mut self, host: &mut H, mut rec: Option<&mut Recorder>) {
        self.advance(host, SETTLE_NS, rec.as_deref_mut());
        if let SimLoad::Saturate { .. } = self.spec.load {
            host.enable_saturation(self.spec.msg_size);
        }
        self.advance(host, WARMUP_NS, rec);
    }

    /// The measured window.
    pub fn window<H: SimHost>(
        &mut self,
        host: &mut H,
        mut rec: Option<&mut Recorder>,
    ) -> WindowOutcome {
        let nodes = self.spec.nodes;
        // Have the first batch of the window built before it opens.
        let _ = self.next_op_ns();
        let (gen_cpu0, gen_allocs0) = (self.generator_cpu_ns, self.generator_allocs);
        let drain_cpu0 = rec.as_deref().map_or(0, |r| r.drain_cpu_ns);
        if let Some(r) = rec.as_deref_mut() {
            r.window = (WARMUP_NS, self.window_end_ns());
        }
        let start = Edge::take(host, nodes, true);
        self.advance(host, self.window_end_ns(), rec.as_deref_mut());
        let end = Edge::take(host, nodes, false);
        let drain_cpu = rec.as_deref().map_or(0, |r| r.drain_cpu_ns) - drain_cpu0;
        let sum = |f: fn(&SrpStats) -> u64| -> u64 {
            end.srp.iter().zip(&start.srp).map(|(e, s)| f(e) - f(s)).sum()
        };
        WindowOutcome {
            delivered: end.delivered.iter().zip(&start.delivered).map(|(e, s)| e - s).collect(),
            frames: end.net.frames_delivered - start.net.frames_delivered,
            frames_sent: end.net.frames_sent - start.net.frames_sent,
            wire_bytes: end
                .net
                .wire_bytes
                .iter()
                .zip(&start.net.wire_bytes)
                .map(|(e, s)| e - s)
                .collect(),
            srp: SrpWindow {
                packets_sent: sum(|s| s.packets_sent),
                token_visits: sum(|s| s.tokens_handled),
                retransmissions: sum(|s| s.retransmissions),
                retrans_requested: sum(|s| s.retrans_requested),
                token_retransmits: sum(|s| s.token_retransmits),
                gathers: sum(|s| s.gathers),
            },
            cpu_ns: (end.cpu_ns - start.cpu_ns)
                .saturating_sub(self.generator_cpu_ns - gen_cpu0)
                .saturating_sub(drain_cpu),
            allocs: end.allocs.since(start.allocs).since(self.generator_allocs.since(gen_allocs0)),
            wall_ns: end.wall.duration_since(start.wall).as_nanos() as u64,
        }
    }

    /// After the window: no new ops, [`DRAIN_NS`] more of simulated
    /// time, then the verdict on what was delivered.
    pub fn drain<H: SimHost>(&mut self, host: &mut H, rec: &mut Recorder) -> Verdict {
        let pump_floor: u64 =
            (0..self.spec.nodes).map(|n| host.delivered_msgs(n)).max().unwrap_or(0);
        // The deadline is DRAIN_NS; a run whose every message is
        // already everywhere stops at the first slice that shows it
        // (a function of simulated state only, so every host stops at
        // the same instant).
        let deadline = self.window_end_ns() + DRAIN_NS;
        loop {
            let until = (host.now_ns() + SLICE_NS).min(deadline);
            self.advance(host, until, Some(rec));
            let ops_everywhere = self.accepted.iter().enumerate().all(|(sender, accepted)| {
                rec.oracles.iter().all(|o| o.ops_from(sender) >= *accepted)
            });
            let pump_everywhere =
                (0..self.spec.nodes).all(|n| host.delivered_msgs(n) >= pump_floor);
            if until == deadline || (ops_everywhere && pump_everywhere) {
                break;
            }
        }
        // Ops accepted but not delivered at every node by the deadline.
        let mut undelivered = 0u64;
        for (sender, accepted) in self.accepted.iter().enumerate() {
            let everywhere = rec.oracles.iter().map(|o| o.ops_from(sender)).min().unwrap_or(0);
            undelivered += accepted.saturating_sub(everywhere);
        }
        // Pump messages delivered somewhere by the end of the window
        // must be delivered everywhere by the deadline.
        let pump_behind: u64 = (0..self.spec.nodes)
            .map(|n| pump_floor.saturating_sub(host.delivered_msgs(n)))
            .max()
            .unwrap_or(0);
        let check = oracle::cross_check(&rec.oracles);
        Verdict {
            attempted: self.accepted.iter().sum::<u64>()
                + self.refused
                + rec.oracles.iter().map(NodeOracle::pump_msgs).max().unwrap_or(0),
            refused: self.refused,
            failed: self.refused + undelivered + pump_behind,
            order_violations: check.order_violations,
            digest: check.digest,
        }
    }
}

/// The oracle's verdict on a recording pass, warm-up to drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Application messages that entered the run, warm-up included:
    /// every op the generator tried to submit, plus every message of
    /// the product's pump that some node delivered.
    pub attempted: u64,
    /// Ops refused at submit (flow control).
    pub refused: u64,
    /// Refused, or not delivered at every node by the deadline.
    pub failed: u64,
    /// See [`oracle::CrossCheck::order_violations`].
    pub order_violations: u64,
    /// See [`oracle::CrossCheck::digest`].
    pub digest: u64,
}
