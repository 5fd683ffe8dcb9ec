//! The one schedule executor, behind `cargo xtask chaos`, `cargo xtask
//! mc` and `cargo xtask soak`.
//!
//! The chaos fuzzer ([`super::run_with`]), the bounded model checker
//! (`crate::mc`) and the soak harness ([`super::soak::run`]) all
//! execute a [`ChaosSchedule`] the same way: build a seeded cluster,
//! arm every fault command, then advance it while applying runtime
//! K-flips, and at the end wait for convergence and run a probe round.
//! Keeping that core in one place means the drivers cannot drift — a
//! counterexample or soak repro replayed through `xtask chaos --replay`
//! runs the exact event sequence its harness saw.
//!
//! **Determinism contract:** the operation order here is byte-for-byte
//! the order the pre-extraction `run_with` used (cluster construction,
//! then per-command crash counting + scheduling in schedule order,
//! then the sorted K-flip stream, then the tick loop). The bench
//! digest gate and the chaos regression tests pin the resulting
//! executions; any reordering is a breaking change.

use bytes::Bytes;
use totem_sim::{FaultCommand, SimDuration, SimTime};
use totem_wire::{NetworkId, NodeId};

use super::{networks_for, ChaosSchedule, KFlip, CONVERGENCE_GRACE, TICK};
use crate::sim_cluster::{ClusterConfig, SimCluster};

/// One in-flight execution of a [`ChaosSchedule`]: the cluster with
/// every fault command armed, plus the traffic-loop bookkeeping.
pub(crate) struct Execution {
    /// The simulated cluster (faults scheduled, nothing run yet at
    /// construction).
    pub cluster: SimCluster,
    /// Cluster size, cached from the schedule.
    pub nodes: usize,
    /// Crash commands the schedule carries.
    pub crashes: u64,
    /// Per-sender submission counters (payloads embed them).
    pub counters: Vec<u64>,
    /// Messages accepted for submission so far.
    pub submitted: u64,
    kflips: Vec<KFlip>,
    next_flip: usize,
}

impl Execution {
    /// Builds the cluster, optionally enables transition tracing
    /// (`trace_capacity`, used by the model checker; `None` keeps the
    /// legacy chaos behavior), and arms every scheduled fault command.
    pub fn new(schedule: &ChaosSchedule, trace_capacity: Option<usize>) -> Self {
        let nodes = schedule.nodes;
        let mut cluster = SimCluster::new(
            ClusterConfig::new(nodes, schedule.style)
                .with_seed(schedule.seed)
                .with_start_seq(schedule.start_seq)
                .with_backend(schedule.backend),
        );
        if let Some(capacity) = trace_capacity {
            cluster.enable_trace(capacity);
        }
        let mut crashes = 0;
        for sc in &schedule.commands {
            if matches!(sc.cmd, FaultCommand::CrashNode { .. }) {
                crashes += 1;
            }
            cluster.schedule_fault(SimTime::from_nanos(sc.at_ns), sc.cmd.clone());
        }
        // The corruption plane is strictly additive: these arms come
        // after every legacy command, so a schedule with no
        // corruptions runs the exact pre-corruption event sequence.
        for c in &schedule.corruptions {
            cluster.schedule_fault(
                SimTime::from_nanos(c.at_ns),
                FaultCommand::CorruptState { node: c.node, target: c.target, salt: c.salt },
            );
        }

        // K-flips fire at tick granularity from inside the traffic
        // loop (the simulator's fault queue only carries
        // FaultCommands — a reconfiguration is an operator action, not
        // a fault).
        let mut kflips = schedule.kflips.clone();
        kflips.sort_by_key(|f| f.at_ns);

        Execution {
            cluster,
            nodes,
            crashes,
            counters: vec![0; nodes],
            submitted: 0,
            kflips,
            next_flip: 0,
        }
    }

    /// Applies every K-flip scheduled at or before `now_ns` that has
    /// not fired yet (flips on dead or out-of-range nodes are dropped),
    /// and returns how many the cluster accepted.
    pub fn apply_flips_until(&mut self, now_ns: u64) -> u64 {
        let mut applied = 0;
        while self.kflips.get(self.next_flip).is_some_and(|f| f.at_ns <= now_ns) {
            let f = &self.kflips[self.next_flip];
            let node = f.node.as_u16() as usize;
            if node < self.nodes && self.cluster.is_alive(node) && self.cluster.set_k(node, f.k) {
                applied += 1;
            }
            self.next_flip += 1;
        }
        applied
    }

    /// Offers `payload` from `sender`; an accepted submission advances
    /// the sender's counter and the submitted total.
    pub fn submit(&mut self, sender: usize, payload: Bytes) -> bool {
        let accepted = self.cluster.try_submit(sender, payload).is_ok();
        if accepted {
            self.counters[sender] += 1;
            self.submitted += 1;
        }
        accepted
    }

    /// The traffic window: one submission attempt per [`TICK`] from a
    /// rotating sender (skipping dead nodes; per-sender counters
    /// advance only on accepted submissions).
    pub fn run_traffic_window(&mut self, steps: u64) {
        for step in 0..steps {
            self.cluster.run_until(SimTime::from_nanos((step + 1) * TICK.as_nanos()));
            self.apply_flips_until((step + 1) * TICK.as_nanos());
            let sender = (step as usize) % self.nodes;
            if self.cluster.is_alive(sender) {
                let payload = Bytes::from(format!("s{sender}-{}", self.counters[sender]));
                self.submit(sender, payload);
            }
        }
    }

    /// Runs one tick past the later of the last scheduled command and
    /// the traffic window, applies any remaining K-flips (late flips in
    /// replayed files), and returns the settle instant in nanoseconds.
    pub fn settle(&mut self, schedule: &ChaosSchedule) -> u64 {
        let last_cmd = schedule
            .commands
            .iter()
            .map(|c| c.at_ns)
            .chain(schedule.corruptions.iter().map(|c| c.at_ns))
            .max()
            .unwrap_or(0);
        let settle = last_cmd.max(schedule.steps * TICK.as_nanos()) + TICK.as_nanos();
        self.cluster.run_until(SimTime::from_nanos(settle));
        self.apply_flips_until(u64::MAX);
        settle
    }

    /// Heals everything — every network, every per-node fault, every
    /// crashed node — so that re-convergence is always achievable and
    /// a convergence failure is a real liveness verdict, never an
    /// artifact of an unhealed fault.
    pub fn heal_all(&mut self, schedule: &ChaosSchedule) {
        for k in 0..networks_for(schedule.style) {
            let net = NetworkId::new(k as u8);
            self.cluster.fault_now(FaultCommand::NetworkDown { net, down: false });
            self.cluster.fault_now(FaultCommand::Partition { net, groups: Vec::new() });
            self.cluster.fault_now(FaultCommand::DuplicateNet { net, on: false });
            for n in 0..self.nodes {
                let node = NodeId::new(n as u16);
                self.cluster.fault_now(FaultCommand::SendFault { node, net, failed: false });
                self.cluster.fault_now(FaultCommand::RecvFault { node, net, failed: false });
            }
        }
        for n in 0..self.nodes {
            self.cluster.fault_now(FaultCommand::RestartNode { node: NodeId::new(n as u16) });
        }
    }

    /// Whether every node is alive and operational in one ring holding
    /// all of them.
    pub fn converged(&self) -> bool {
        let full: Vec<NodeId> = (0..self.nodes).map(|n| NodeId::new(n as u16)).collect();
        (0..self.nodes).all(|n| {
            self.cluster.is_alive(n)
                && self.cluster.srp_state(n) == totem_srp::SrpState::Operational
                && self.cluster.members(n).map(|mut m| {
                    m.sort();
                    m == full
                }) == Some(true)
        })
    }

    /// Runs from `now_ns` in 250 ms steps until [`Self::converged`]
    /// holds; returns the instant it did, or `None` once
    /// [`CONVERGENCE_GRACE`] has passed without it.
    pub fn await_convergence(&mut self, mut now_ns: u64) -> Option<u64> {
        let deadline = now_ns + CONVERGENCE_GRACE.as_nanos();
        while !self.converged() {
            if now_ns >= deadline {
                return None;
            }
            now_ns += SimDuration::from_millis(250).as_nanos();
            self.cluster.run_until(SimTime::from_nanos(now_ns));
        }
        Some(now_ns)
    }

    /// The probe round, from `now_ns` on a converged cluster: every
    /// node submits `{prefix}s{node}-{counter}` (retrying every 50 ms,
    /// up to 40 times), and every accepted probe must reach every node
    /// within 5 s. Returns one liveness failure per refused probe, then
    /// one per (node, probe) never delivered.
    pub fn probe_round(&mut self, mut now_ns: u64, prefix: &str) -> Vec<String> {
        let mut failures = Vec::new();
        let mut probes = Vec::new();
        for sender in 0..self.nodes {
            let payload = Bytes::from(format!("{prefix}s{sender}-{}", self.counters[sender]));
            let mut accepted = false;
            for _ in 0..40 {
                if self.submit(sender, payload.clone()) {
                    accepted = true;
                    break;
                }
                now_ns += SimDuration::from_millis(50).as_nanos();
                self.cluster.run_until(SimTime::from_nanos(now_ns));
            }
            if accepted {
                probes.push(payload);
            } else {
                failures.push(format!("node {sender} still refuses submissions"));
            }
        }
        let delivered = |cluster: &SimCluster, n: usize, probe: &Bytes| {
            cluster.delivered(n).iter().any(|d| d.data == *probe)
        };
        let deadline = now_ns + SimDuration::from_secs(5).as_nanos();
        while now_ns < deadline
            && !(0..self.nodes).all(|n| probes.iter().all(|p| delivered(&self.cluster, n, p)))
        {
            now_ns += SimDuration::from_millis(250).as_nanos();
            self.cluster.run_until(SimTime::from_nanos(now_ns));
        }
        for n in 0..self.nodes {
            for probe in probes.iter().filter(|p| !delivered(&self.cluster, n, p)) {
                failures.push(format!(
                    "probe {:?} never delivered at node {n}",
                    String::from_utf8_lossy(probe)
                ));
            }
        }
        failures
    }
}
