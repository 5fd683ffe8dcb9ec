//! Chaos schedule fuzzing for the simulated cluster.
//!
//! A [`ChaosSchedule`] is a seed-deterministic list of timed
//! [`FaultCommand`]s — crashes, restarts, partitions, network kills,
//! send/receive fault bursts — plus a traffic window. [`run`] executes
//! a schedule against a [`SimCluster`] while submitting application
//! traffic, heals everything at the end of the window, waits for the
//! cluster to re-converge, and hands the finished execution to the
//! [`oracle`] checks. Everything is deterministic: the same schedule
//! always produces the same execution, so a failing schedule **is** a
//! repro.
//!
//! When a schedule does violate the oracle, [`shrink`] minimizes it
//! with delta debugging: it repeatedly removes command chunks and
//! trims the traffic window, keeping each cut only if the same class
//! of violation still reproduces. The result serializes to a small
//! TOML file ([`ChaosSchedule::to_toml`]) that `cargo xtask chaos
//! --replay` can run back through [`replay`], which also runs the
//! long-horizon [`soak`] schedules: every harness executes a schedule
//! through the one executor in `exec`.

pub(crate) mod exec;
pub mod oracle;
pub mod par;
pub mod soak;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
pub use totem_rrp::ReplicationStyle;
pub use totem_sim::CorruptionTarget;
use totem_sim::{FaultCommand, SimDuration};
use totem_wire::{NetworkId, NodeId};

use crate::backend::BackendKind;
use crate::sim_cluster::{ClusterConfig, SimCluster};
use crate::toml;
use oracle::Violation;

/// Gap between two traffic submissions (one schedule "step").
pub const TICK: SimDuration = SimDuration::from_millis(5);

/// How long a harness waits for re-convergence at the end of a run
/// before declaring the execution unconverged.
const CONVERGENCE_GRACE: SimDuration = SimDuration::from_secs(30);

/// A fault command with the simulation time it fires at.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledCommand {
    /// Absolute simulation time of the command, in nanoseconds.
    pub at_ns: u64,
    /// The fault to inject or heal.
    pub cmd: FaultCommand,
}

/// A runtime replication-degree change ([`SimCluster::set_k`]) fired
/// at a simulated instant. Not a fault: K-flips reconfigure how many
/// networks carry each packet while the EVS oracle stays unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct KFlip {
    /// Absolute simulation time of the flip, in nanoseconds.
    pub at_ns: u64,
    /// The node whose operator changes K.
    pub node: NodeId,
    /// The new replication degree.
    pub k: usize,
}

/// A state-corruption injection fired at a simulated instant: one
/// node's in-memory protocol state is deterministically scrambled
/// (seeded by `salt`) while the node keeps running. Kept separate from
/// [`ScheduledCommand`] so legacy schedules — and their pinned per-seed
/// digests — stay bit-identical when no corruption is requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledCorruption {
    /// Absolute simulation time of the corruption, in nanoseconds.
    pub at_ns: u64,
    /// The node whose state is corrupted.
    pub node: NodeId,
    /// Which slice of protocol state to corrupt.
    pub target: CorruptionTarget,
    /// Deterministic entropy for the mutation.
    pub salt: u64,
}

/// A complete, replayable chaos scenario: cluster shape, traffic
/// window, and timed fault commands.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for both the schedule generator and the simulation RNG.
    pub seed: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Replication style under test.
    pub style: ReplicationStyle,
    /// Number of traffic ticks (one submission attempt per tick).
    pub steps: u64,
    /// Timed fault commands, sorted by time.
    pub commands: Vec<ScheduledCommand>,
    /// Runtime K changes, sorted by time (K-of-N schedules only).
    pub kflips: Vec<KFlip>,
    /// Timed state-corruption injections, sorted by time. Empty for
    /// every legacy schedule: the corruption plane is strictly
    /// additive, and [`generate`] never fills it (see
    /// [`generate_corrupting`]).
    pub corruptions: Vec<ScheduledCorruption>,
    /// Initial global sequence number of the bootstrapped ring (zero =
    /// the production default; near-`u64::MAX` values drive the run
    /// across the serial wrap boundary). Omitted from the TOML repro
    /// format when zero, so legacy repro files parse — and serialize —
    /// unchanged.
    pub start_seq: u64,
    /// Which broadcast engine runs under the schedule. Omitted from
    /// the TOML repro format when Totem (the default), so legacy repro
    /// files parse — and serialize — unchanged.
    pub backend: BackendKind,
    /// Which harness runs the schedule on [`replay`]. Omitted from the
    /// TOML repro format for [`Harness::Chaos`], so chaos and mc repro
    /// files parse — and serialize — unchanged.
    pub harness: Harness,
}

/// The harness a schedule was written by, and that [`replay`] runs it
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harness {
    /// [`run`]: one submission per [`TICK`], heal, probe, and the
    /// full-log EVS oracle (chaos and mc repros).
    Chaos,
    /// [`soak::run`]: diurnal KV traffic, the rolling oracle and the
    /// stabilization bound (`harness = "soak"`).
    Soak,
}

/// What [`replay`] observed, in the report type of the schedule's
/// harness.
#[derive(Debug)]
pub enum Replay {
    /// A [`Harness::Chaos`] schedule's report.
    Chaos(ChaosReport),
    /// A [`Harness::Soak`] schedule's report.
    Soak(soak::SoakReport),
}

/// Runs a schedule under the harness that wrote it: [`run`] for chaos
/// and mc repros, [`soak::run`] for soak repros. Repros written before
/// the `harness` key existed carry none and run as chaos.
pub fn replay(schedule: &ChaosSchedule) -> Replay {
    match schedule.harness {
        Harness::Chaos => Replay::Chaos(run(schedule)),
        Harness::Soak => Replay::Soak(soak::run(schedule)),
    }
}

impl ChaosSchedule {
    /// Retargets the schedule at `backend`.
    ///
    /// For [`BackendKind::RingPaxos`] this also moves any crash or
    /// restart of node 0 to node 1: the Ring Paxos coordinator is
    /// fixed at `members[0]` with no failover (a scope decision, see
    /// `backends::ring_paxos`), so killing it tests nothing but that
    /// documented gap — and an amnesiac coordinator re-sequencing
    /// in-flight values is exactly the divergence the fixed-coordinator
    /// assumption excludes from the safety argument.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        if backend == BackendKind::RingPaxos {
            for sc in &mut self.commands {
                match &mut sc.cmd {
                    FaultCommand::CrashNode { node } | FaultCommand::RestartNode { node }
                        if *node == NodeId::new(0) =>
                    {
                        *node = NodeId::new(1);
                    }
                    _ => {}
                }
            }
        }
        self
    }
}

/// What [`run`] observed: oracle verdicts plus workload statistics.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every oracle violation found (empty = the schedule passed).
    pub violations: Vec<Violation>,
    /// Messages accepted for submission during the traffic window.
    pub submitted: u64,
    /// Final delivery-log length per node.
    pub delivered: Vec<usize>,
    /// Total crash commands that took effect.
    pub crashes: u64,
}

impl ChaosReport {
    /// `true` when no oracle check was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn networks_for(style: ReplicationStyle) -> usize {
    ClusterConfig::new(2, style).networks
}

/// Generates a seed-deterministic schedule: a weighted mix of
/// crash/restart pairs, partition/heal pairs, network kills, and
/// send/receive fault bursts inside the first 80% of the traffic
/// window. Every injection is paired with a later heal, but the
/// pairing is not load-bearing: [`run_with`] unconditionally heals
/// everything once the window ends, so re-convergence is always
/// possible — and so the shrinker cannot "reproduce" a convergence
/// failure by merely deleting heal commands.
pub fn generate(seed: u64, style: ReplicationStyle, nodes: usize, steps: u64) -> ChaosSchedule {
    assert!(nodes >= 2, "chaos needs at least two nodes");
    assert!(steps >= 16, "chaos needs at least 16 traffic steps");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A0_5C4A_0C4A_05C4);
    let networks = networks_for(style);
    let tick = TICK.as_nanos();
    let window = steps * tick;
    // Faults start once the initial ring has traffic flowing and stop
    // early enough that paired heals mostly land inside the window.
    let fault_from = window / 10;
    let fault_until = window * 8 / 10;
    let events = (steps / 16).clamp(2, 24);

    let mut commands = Vec::new();
    for _ in 0..events {
        let at = rng.gen_range(fault_from..fault_until);
        let dur = rng.gen_range(10 * tick..window / 2 + 10 * tick);
        draw_fault_pair(&mut commands, &mut rng, at, dur, nodes, networks);
    }

    commands.sort_by_key(|c| c.at_ns);

    // K-flips ride along only under the K-of-N style, and their RNG
    // draws come after every fault draw, so the schedules of the fixed
    // styles stay bit-identical per seed (the bench digest gate pins
    // them).
    let mut kflips = Vec::new();
    if matches!(style, ReplicationStyle::KOfN { .. }) {
        for _ in 0..(events / 2).max(1) {
            let at = rng.gen_range(fault_from..fault_until);
            let node = NodeId::new(rng.gen_range(0..nodes as u64) as u16);
            let k = rng.gen_range(1..networks as u64 + 1) as usize;
            kflips.push(KFlip { at_ns: at, node, k });
        }
        kflips.sort_by_key(|f| f.at_ns);
    }

    ChaosSchedule {
        seed,
        nodes,
        style,
        steps,
        commands,
        kflips,
        corruptions: Vec::new(),
        start_seq: 0,
        backend: BackendKind::Totem,
        harness: Harness::Chaos,
    }
}

/// Draws one transient fault — a crash, a partition, a network kill, or
/// a send or receive fault burst, equally likely — and appends it at
/// `at` with its heal at `at + dur`. [`generate`] and [`soak::plan`]
/// both draw through here, so their per-seed schedules share one
/// draw order.
fn draw_fault_pair(
    commands: &mut Vec<ScheduledCommand>,
    rng: &mut SmallRng,
    at: u64,
    dur: u64,
    nodes: usize,
    networks: usize,
) {
    let node = NodeId::new(rng.gen_range(0..nodes as u64) as u16);
    let net = NetworkId::new(rng.gen_range(0..networks as u64) as u8);
    let (inject, heal) = match rng.gen_range(0..100) {
        0..=19 => (FaultCommand::CrashNode { node }, FaultCommand::RestartNode { node }),
        20..=39 => {
            let groups: Vec<u8> = (0..nodes).map(|_| rng.gen_range(0..2) as u8).collect();
            (
                FaultCommand::Partition { net, groups },
                FaultCommand::Partition { net, groups: Vec::new() },
            )
        }
        40..=59 => (
            FaultCommand::NetworkDown { net, down: true },
            FaultCommand::NetworkDown { net, down: false },
        ),
        60..=79 => (
            FaultCommand::SendFault { node, net, failed: true },
            FaultCommand::SendFault { node, net, failed: false },
        ),
        _ => (
            FaultCommand::RecvFault { node, net, failed: true },
            FaultCommand::RecvFault { node, net, failed: false },
        ),
    };
    commands.push(ScheduledCommand { at_ns: at, cmd: inject });
    commands.push(ScheduledCommand { at_ns: at + dur, cmd: heal });
}

/// Like [`generate`], plus `events` state-corruption injections inside
/// the fault window. The corruption stream draws from its **own** RNG
/// (a different mix of the seed), so the base schedule — commands and
/// K-flips — is bit-identical to what [`generate`] produces for the
/// same seed: turning corruption on never perturbs the faults it rides
/// along with, and the pinned per-seed digests of the plain chaos
/// suite stay valid.
pub fn generate_corrupting(
    seed: u64,
    style: ReplicationStyle,
    nodes: usize,
    steps: u64,
    events: u64,
) -> ChaosSchedule {
    let mut schedule = generate(seed, style, nodes, steps);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E1F_5AB1_0C0E_4ED5);
    let tick = TICK.as_nanos();
    let window = steps * tick;
    let fault_from = window / 10;
    let fault_until = window * 8 / 10;
    for i in 0..events {
        let at = rng.gen_range(fault_from..fault_until);
        let node = NodeId::new(rng.gen_range(0..nodes as u64) as u16);
        // Cycle the target so every variant appears once per five
        // events; the salt alone randomizes the mutation within it.
        let target = CorruptionTarget::ALL[(i % 5) as usize];
        let salt = rng.gen_range(0..u64::MAX);
        schedule.corruptions.push(ScheduledCorruption { at_ns: at, node, target, salt });
    }
    schedule.corruptions.sort_by_key(|c| c.at_ns);
    schedule
}

/// Whether the schedule injects any state corruption (via the
/// dedicated plane or a hand-authored `corrupt-state` command). Such
/// runs use the reconvergence oracle: fault-report amnesty plus EVS
/// safety re-armed after the final heal.
fn has_corruption(schedule: &ChaosSchedule) -> bool {
    !schedule.corruptions.is_empty()
        || schedule.commands.iter().any(|c| matches!(c.cmd, FaultCommand::CorruptState { .. }))
}

/// Which networks any command in the schedule targets (for the
/// fault-report soundness check), plus whether any crash is scheduled.
fn fault_targets(schedule: &ChaosSchedule) -> (Vec<bool>, bool) {
    let mut targeted = vec![false; networks_for(schedule.style)];
    let mut any_crash = false;
    for sc in &schedule.commands {
        match &sc.cmd {
            FaultCommand::SendFault { net, failed: true, .. }
            | FaultCommand::RecvFault { net, failed: true, .. }
            | FaultCommand::NetworkDown { net, down: true }
            | FaultCommand::DuplicateNet { net, on: true } => {
                targeted[net.index()] = true;
            }
            FaultCommand::Partition { net, groups } if !groups.is_empty() => {
                targeted[net.index()] = true;
            }
            FaultCommand::CrashNode { .. } => any_crash = true,
            _ => {}
        }
    }
    (targeted, any_crash)
}

/// Runs a schedule with the standard EVS safety oracle
/// ([`oracle::check_safety`]).
pub fn run(schedule: &ChaosSchedule) -> ChaosReport {
    run_with(schedule, oracle::check_safety)
}

/// Runs a schedule with a caller-chosen delivery oracle (used by the
/// shrinker demo to plug in the deliberately-too-strong
/// [`oracle::check_prefix_equality`]).
///
/// The execution: build an operational cluster, schedule every fault
/// command, submit one message per [`TICK`] from a rotating sender
/// (skipping dead nodes; per-sender counters advance only on accepted
/// submissions), run past the last command, heal every remaining
/// fault and restart every crashed node, wait up to 30 simulated
/// seconds for re-convergence, then send one probe message per node
/// and require every probe to reach every node. Convergence and probe
/// failures, fault-report soundness, and the delivery oracle all
/// contribute violations.
pub fn run_with(
    schedule: &ChaosSchedule,
    delivery_oracle: fn(&SimCluster, usize) -> Vec<Violation>,
) -> ChaosReport {
    let nodes = schedule.nodes;

    let mut exec = exec::Execution::new(schedule, None);
    exec.run_traffic_window(schedule.steps);
    let settle = exec.settle(schedule);
    exec.heal_all(schedule);

    // Reconvergence-oracle horizon: anything delivered before the final
    // heal may have happened under corrupted state (including benign
    // re-deliveries from a rewound watermark) and is exempt from the
    // re-armed EVS check; only the post-stabilization suffixes must
    // agree. Empty — and the full-log oracle — for corruption-free
    // schedules.
    let corrupting = has_corruption(schedule);
    let horizon: Vec<usize> = if corrupting {
        (0..nodes).map(|n| exec.cluster.delivered(n).len()).collect()
    } else {
        Vec::new()
    };

    let mut violations = Vec::new();
    match exec.await_convergence(settle) {
        Some(now) => violations.extend(
            exec.probe_round(now, "").into_iter().map(|detail| Violation::NotConverged { detail }),
        ),
        None => {
            let cluster = &exec.cluster;
            let states: Vec<String> = (0..nodes)
                .map(|n| {
                    format!(
                        "node {n}: alive={} state={:?} members={:?}",
                        cluster.is_alive(n),
                        cluster.srp_state(n),
                        cluster.members(n)
                    )
                })
                .collect();
            violations.push(Violation::NotConverged {
                detail: format!(
                    "no common full-membership operational ring {}s after final heal ({})",
                    CONVERGENCE_GRACE.as_nanos() / 1_000_000_000,
                    states.join("; ")
                ),
            });
        }
    }

    let cluster = &exec.cluster;
    let (targeted, any_crash) = fault_targets(schedule);
    // Corruption amnesty: a scrambled monitor counter can legitimately
    // produce a fault report for a network nothing ever targeted, just
    // as a crash can — suppress the soundness check wholesale.
    violations.extend(oracle::check_fault_reports(
        cluster,
        nodes,
        &targeted,
        any_crash || corrupting,
    ));
    if corrupting {
        violations.extend(oracle::check_suffix_safety(cluster, nodes, &horizon));
    } else {
        violations.extend(delivery_oracle(cluster, nodes));
    }

    let delivered = (0..nodes).map(|n| cluster.delivered(n).len()).collect();
    ChaosReport { violations, submitted: exec.submitted, delivered, crashes: exec.crashes }
}

/// Minimizes a violating schedule with delta debugging.
///
/// A candidate "still reproduces" when running it under the same
/// oracle yields at least one violation whose [`Violation::kind`]
/// appeared in the original run. The shrinker then:
///
/// 1. ddmin over the command list (drop chunks at increasing
///    granularity while the failure reproduces),
/// 2. halves the traffic window while the failure reproduces,
/// 3. runs one final ddmin pass at the reduced window.
///
/// Returns the smallest reproducing schedule found. If the input does
/// not violate the oracle at all, it is returned unchanged.
pub fn shrink(
    schedule: &ChaosSchedule,
    delivery_oracle: fn(&SimCluster, usize) -> Vec<Violation>,
) -> ChaosSchedule {
    let original = run_with(schedule, delivery_oracle);
    if original.passed() {
        return schedule.clone();
    }
    let target: std::collections::HashSet<&'static str> =
        original.violations.iter().map(Violation::kind).collect();
    let reproduces = |candidate: &ChaosSchedule| {
        run_with(candidate, delivery_oracle).violations.iter().any(|v| target.contains(v.kind()))
    };

    let mut best = schedule.clone();
    best.commands = ddmin(&best, &reproduces);

    // K-flips reconfigure replication, they do not inject faults; if
    // the violation reproduces without them, drop them all at once.
    if !best.kflips.is_empty() {
        let mut candidate = best.clone();
        candidate.kflips.clear();
        if reproduces(&candidate) {
            best = candidate;
        }
    }

    best.corruptions = ddmin_corruptions(&best, &reproduces);

    // Trim the traffic window.
    while best.steps >= 32 {
        let mut candidate = best.clone();
        candidate.steps /= 2;
        if reproduces(&candidate) {
            best = candidate;
        } else {
            break;
        }
    }

    best.commands = ddmin(&best, &reproduces);
    best
}

/// Classic ddmin over the command list: try dropping chunks at
/// granularity `n`, keeping any drop that still reproduces; refine the
/// granularity until chunks are single commands and nothing more can
/// go.
fn ddmin(
    schedule: &ChaosSchedule,
    reproduces: &dyn Fn(&ChaosSchedule) -> bool,
) -> Vec<ScheduledCommand> {
    let mut commands = schedule.commands.clone();
    let mut n = 2usize;
    while commands.len() >= 2 && n <= commands.len() {
        let chunk = commands.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < commands.len() {
            let end = (start + chunk).min(commands.len());
            let mut candidate_cmds = commands[..start].to_vec();
            candidate_cmds.extend_from_slice(&commands[end..]);
            if candidate_cmds.is_empty() {
                start = end;
                continue;
            }
            let mut candidate = schedule.clone();
            candidate.commands = candidate_cmds;
            if reproduces(&candidate) {
                commands = candidate.commands;
                reduced = true;
                // Re-scan from the top at the same granularity.
                start = 0;
                n = n.max(2).min(commands.len().max(2));
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(commands.len());
        }
    }
    commands
}

/// ddmin over the corruption stream. Unlike the command list, dropping
/// every corruption is a legal candidate — the faults alone may carry
/// the failure — so that wholesale cut is tried first.
fn ddmin_corruptions(
    schedule: &ChaosSchedule,
    reproduces: &dyn Fn(&ChaosSchedule) -> bool,
) -> Vec<ScheduledCorruption> {
    let mut items = schedule.corruptions.clone();
    if !items.is_empty() {
        let mut candidate = schedule.clone();
        candidate.corruptions = Vec::new();
        if reproduces(&candidate) {
            return Vec::new();
        }
    }
    let mut n = 2usize;
    while items.len() >= 2 && n <= items.len() {
        let chunk = items.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < items.len() {
            let end = (start + chunk).min(items.len());
            let mut kept = items[..start].to_vec();
            kept.extend_from_slice(&items[end..]);
            let mut candidate = schedule.clone();
            candidate.corruptions = kept;
            if reproduces(&candidate) {
                items = candidate.corruptions;
                reduced = true;
                start = 0;
                n = n.max(2).min(items.len().max(2));
            } else {
                start = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(items.len());
        }
    }
    items
}

// ---------------------------------------------------------------------------
// TOML repro format, read with the shared subset reader (`crate::toml`).
// ---------------------------------------------------------------------------

impl ChaosSchedule {
    /// Serializes the schedule as a small self-describing TOML
    /// document, suitable for `cargo xtask chaos --replay`.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("# Chaos repro schedule (totem_cluster::chaos). Replay with:\n");
        out.push_str("#   cargo xtask chaos --replay <this file>\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("style = \"{}\"\n", self.style.spelling()));
        out.push_str(&format!("steps = {}\n", self.steps));
        if self.start_seq != 0 {
            out.push_str(&format!("start_seq = {}\n", self.start_seq));
        }
        if self.backend != BackendKind::Totem {
            out.push_str(&format!("backend = \"{}\"\n", self.backend.name()));
        }
        if self.harness == Harness::Soak {
            out.push_str("harness = \"soak\"\n");
        }
        for sc in &self.commands {
            out.push_str("\n[[command]]\n");
            out.push_str(&format!("at_ns = {}\n", sc.at_ns));
            match &sc.cmd {
                FaultCommand::SendFault { node, net, failed } => {
                    out.push_str("kind = \"send-fault\"\n");
                    out.push_str(&format!("node = {}\n", node.as_u16()));
                    out.push_str(&format!("net = {}\n", net.as_u8()));
                    out.push_str(&format!("failed = {failed}\n"));
                }
                FaultCommand::RecvFault { node, net, failed } => {
                    out.push_str("kind = \"recv-fault\"\n");
                    out.push_str(&format!("node = {}\n", node.as_u16()));
                    out.push_str(&format!("net = {}\n", net.as_u8()));
                    out.push_str(&format!("failed = {failed}\n"));
                }
                FaultCommand::NetworkDown { net, down } => {
                    out.push_str("kind = \"net-down\"\n");
                    out.push_str(&format!("net = {}\n", net.as_u8()));
                    out.push_str(&format!("down = {down}\n"));
                }
                FaultCommand::Partition { net, groups } => {
                    out.push_str("kind = \"partition\"\n");
                    out.push_str(&format!("net = {}\n", net.as_u8()));
                    let labels: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
                    out.push_str(&format!("groups = [{}]\n", labels.join(", ")));
                }
                FaultCommand::CrashNode { node } => {
                    out.push_str("kind = \"crash\"\n");
                    out.push_str(&format!("node = {}\n", node.as_u16()));
                }
                FaultCommand::RestartNode { node } => {
                    out.push_str("kind = \"restart\"\n");
                    out.push_str(&format!("node = {}\n", node.as_u16()));
                }
                FaultCommand::DuplicateNet { net, on } => {
                    out.push_str("kind = \"dup-net\"\n");
                    out.push_str(&format!("net = {}\n", net.as_u8()));
                    out.push_str(&format!("on = {on}\n"));
                }
                FaultCommand::CorruptState { node, target, salt } => {
                    out.push_str("kind = \"corrupt-state\"\n");
                    out.push_str(&format!("node = {}\n", node.as_u16()));
                    out.push_str(&format!("target = \"{}\"\n", target.name()));
                    out.push_str(&format!("salt = {salt}\n"));
                }
            }
        }
        for f in &self.kflips {
            out.push_str("\n[[kflip]]\n");
            out.push_str(&format!("at_ns = {}\n", f.at_ns));
            out.push_str(&format!("node = {}\n", f.node.as_u16()));
            out.push_str(&format!("k = {}\n", f.k));
        }
        for c in &self.corruptions {
            out.push_str("\n[[corrupt]]\n");
            out.push_str(&format!("at_ns = {}\n", c.at_ns));
            out.push_str(&format!("node = {}\n", c.node.as_u16()));
            out.push_str(&format!("target = \"{}\"\n", c.target.name()));
            out.push_str(&format!("salt = {}\n", c.salt));
        }
        out
    }

    /// Parses a schedule previously written by [`Self::to_toml`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input: unknown
    /// keys or kinds, missing fields, or unparsable values. Every
    /// message names the line (and, for block fields, the block's
    /// header line and the field) where the problem is, so a
    /// hand-edited repro file points at its own mistake.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let doc = toml::parse(text)?;
        let top = &doc.top;
        top.only(
            &["seed", "nodes", "style", "steps", "start_seq", "backend", "harness"],
            "header",
        )?;
        let style = top.get::<&str>("style")?.parse().map_err(|e| top.error("style", e))?;
        let backend = match top.get_opt::<&str>("backend")? {
            Some(name) => name.parse().map_err(|e| top.error("backend", e))?,
            None => BackendKind::Totem,
        };
        let harness = match top.get_opt::<&str>("harness")? {
            None => Harness::Chaos,
            Some("soak") => Harness::Soak,
            Some(other) => return Err(top.error("harness", format!("unknown harness {other:?}"))),
        };
        let mut schedule = ChaosSchedule {
            seed: top.get("seed")?,
            nodes: top.get::<u64>("nodes")? as usize,
            style,
            steps: top.get("steps")?,
            commands: Vec::new(),
            kflips: Vec::new(),
            corruptions: Vec::new(),
            start_seq: top.get_opt("start_seq")?.unwrap_or(0),
            backend,
            harness,
        };
        for t in &doc.tables {
            match (t.array, t.name.as_str()) {
                (true, "command") => {
                    schedule
                        .commands
                        .push(ScheduledCommand { at_ns: t.get("at_ns")?, cmd: command(t)? });
                }
                (true, "kflip") => schedule.kflips.push(KFlip {
                    at_ns: t.get("at_ns")?,
                    node: node(t)?,
                    k: t.get::<u64>("k")? as usize,
                }),
                (true, "corrupt") => schedule.corruptions.push(ScheduledCorruption {
                    at_ns: t.get("at_ns")?,
                    node: node(t)?,
                    target: target(t)?,
                    salt: t.get("salt")?,
                }),
                _ => return Err(format!("line {}: unknown table `{}`", t.line, t.name)),
            }
        }
        Ok(schedule)
    }
}

/// The fault command of one `[[command]]` block.
fn command(t: &toml::Table) -> Result<FaultCommand, String> {
    let net = || t.get::<u64>("net").map(|n| NetworkId::new(n as u8));
    Ok(match t.get::<&str>("kind")? {
        "send-fault" => {
            FaultCommand::SendFault { node: node(t)?, net: net()?, failed: t.get("failed")? }
        }
        "recv-fault" => {
            FaultCommand::RecvFault { node: node(t)?, net: net()?, failed: t.get("failed")? }
        }
        "net-down" => FaultCommand::NetworkDown { net: net()?, down: t.get("down")? },
        "partition" => {
            let groups = t.get::<Vec<u64>>("groups")?.into_iter().map(|g| g as u8).collect();
            FaultCommand::Partition { net: net()?, groups }
        }
        "crash" => FaultCommand::CrashNode { node: node(t)? },
        "restart" => FaultCommand::RestartNode { node: node(t)? },
        "dup-net" => FaultCommand::DuplicateNet { net: net()?, on: t.get("on")? },
        "corrupt-state" => {
            FaultCommand::CorruptState { node: node(t)?, target: target(t)?, salt: t.get("salt")? }
        }
        other => return Err(t.error("kind", format!("unknown command kind {other:?}"))),
    })
}

fn node(t: &toml::Table) -> Result<NodeId, String> {
    t.get::<u64>("node").map(|n| NodeId::new(n as u16))
}

/// The `target` of a corruption block or command.
fn target(t: &toml::Table) -> Result<CorruptionTarget, String> {
    let name = t.get::<&str>("target")?;
    CorruptionTarget::parse(name)
        .ok_or_else(|| t.error("target", format!("unknown corruption target {name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let a = generate(7, ReplicationStyle::Active, 4, 100);
        let b = generate(7, ReplicationStyle::Active, 4, 100);
        let c = generate(8, ReplicationStyle::Active, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a.commands, c.commands);
        assert!(a.kflips.is_empty(), "fixed styles never schedule K flips");
    }

    /// CI windows, pinned digests and written repros all name schedules
    /// by seed, so the draws are a contract: one FNV-1a digest over the
    /// TOML of every generator's schedule for seeds 0–99 in six styles.
    /// A soak plan is digested without its `harness` key, which is file
    /// format, not a draw.
    #[test]
    fn per_seed_schedules_are_stable() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |text: String| {
            for b in text.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for style in ["single", "active", "passive", "ap:2", "k-of-n:2", "k-of-n:3"] {
            let style: ReplicationStyle = style.parse().unwrap();
            let soak_opts = soak::SoakOptions { style, ..soak::SoakOptions::default() };
            for seed in 0..100 {
                fold(generate(seed, style, 4, 200).to_toml());
                fold(generate_corrupting(seed, style, 4, 200, 3).to_toml());
                let plan = soak::plan(seed, &soak_opts);
                fold(ChaosSchedule { harness: Harness::Chaos, ..plan }.to_toml());
            }
        }
        assert_eq!(digest, 0x3148_bbab_a104_bb8a);
    }

    #[test]
    fn k_of_n_schedules_flip_k_and_pass_the_oracle() {
        let schedule = generate(2, ReplicationStyle::KOfN { copies: 2 }, 4, 64);
        assert!(!schedule.kflips.is_empty(), "k-of-n schedules should carry K flips");
        // The flip stream reuses the fault RNG, drawn afterwards: the
        // fault commands must match the fixed styles draw for draw.
        assert_eq!(schedule.commands, generate(2, ReplicationStyle::Active, 4, 64).commands);
        let report = run(&schedule);
        assert!(
            report.passed(),
            "k-of-n seed 2 violated the oracle:\n{}",
            report.violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
        );
        assert!(report.submitted > 0, "no traffic was accepted");
    }

    #[test]
    fn kflips_roundtrip_through_toml() {
        let schedule = generate(5, ReplicationStyle::KOfN { copies: 2 }, 4, 96);
        assert!(!schedule.kflips.is_empty());
        let parsed = ChaosSchedule::from_toml(&schedule.to_toml()).expect("roundtrip parse");
        assert_eq!(schedule, parsed);
    }

    #[test]
    fn backend_tag_roundtrips_through_toml_and_elides_totem() {
        let schedule = generate(5, ReplicationStyle::Active, 4, 96);
        // The default backend is elided so legacy repro files stay
        // byte-compatible in both directions.
        assert!(!schedule.to_toml().contains("backend"));
        let tagged =
            generate(5, ReplicationStyle::Active, 4, 96).with_backend(BackendKind::RingPaxos);
        let toml = tagged.to_toml();
        assert!(toml.contains("backend = \"ring-paxos\""), "{toml}");
        let parsed = ChaosSchedule::from_toml(&toml).expect("roundtrip parse");
        assert_eq!(tagged, parsed);
        assert_eq!(parsed.backend, BackendKind::RingPaxos);
    }

    #[test]
    fn with_backend_retargets_coordinator_crashes_for_ring_paxos() {
        // Find a seed whose schedule crashes node 0 so the retarget is
        // actually exercised.
        let (seed, schedule) = (0..100)
            .map(|seed| (seed, generate(seed, ReplicationStyle::Active, 4, 200)))
            .find(|(_, s)| {
                s.commands
                    .iter()
                    .any(|c| c.cmd == (FaultCommand::CrashNode { node: NodeId::new(0) }))
            })
            .expect("some seed must crash node 0");
        let retargeted = schedule.clone().with_backend(BackendKind::RingPaxos);
        assert_eq!(retargeted.backend, BackendKind::RingPaxos);
        for c in &retargeted.commands {
            assert_ne!(
                c.cmd,
                FaultCommand::CrashNode { node: NodeId::new(0) },
                "seed {seed}: the fixed coordinator must never be crashed"
            );
            assert_ne!(c.cmd, FaultCommand::RestartNode { node: NodeId::new(0) });
        }
        // Everything else is untouched.
        assert_eq!(retargeted.commands.len(), schedule.commands.len());
        // Totem keeps its schedule bit-identical.
        let same = schedule.clone().with_backend(BackendKind::Totem);
        assert_eq!(same.commands, schedule.commands);
    }

    #[test]
    fn generated_schedules_pair_crashes_with_restarts() {
        for seed in 0..20 {
            let s = generate(seed, ReplicationStyle::Active, 4, 200);
            for sc in &s.commands {
                if let FaultCommand::CrashNode { node } = sc.cmd {
                    assert!(
                        s.commands.iter().any(|other| other.at_ns > sc.at_ns
                            && other.cmd == (FaultCommand::RestartNode { node })),
                        "seed {seed}: crash of {node} has no later restart"
                    );
                }
            }
        }
    }

    #[test]
    fn corruption_plane_is_strictly_additive() {
        // Same seed: the corrupting generator's commands and K-flips
        // are bit-identical to the plain generator's (the corruption
        // stream draws from its own RNG).
        let plain = generate(7, ReplicationStyle::KOfN { copies: 2 }, 4, 100);
        let corrupting = generate_corrupting(7, ReplicationStyle::KOfN { copies: 2 }, 4, 100, 5);
        assert_eq!(plain.commands, corrupting.commands);
        assert_eq!(plain.kflips, corrupting.kflips);
        assert!(plain.corruptions.is_empty());
        assert_eq!(corrupting.corruptions.len(), 5);
        // Determinism: regenerating gives the same corruption stream.
        assert_eq!(
            corrupting,
            generate_corrupting(7, ReplicationStyle::KOfN { copies: 2 }, 4, 100, 5)
        );
        // Five events cycle through every corruption target once.
        let mut targets: Vec<&str> =
            corrupting.corruptions.iter().map(|c| c.target.name()).collect();
        targets.sort_unstable();
        assert_eq!(
            targets,
            vec!["membership", "monitor-counters", "rotation", "seq-counters", "token-gate"]
        );
    }

    #[test]
    fn corrupting_schedule_reconverges_and_roundtrips() {
        let schedule = generate_corrupting(3, ReplicationStyle::Active, 4, 128, 5);
        let parsed = ChaosSchedule::from_toml(&schedule.to_toml()).expect("roundtrip parse");
        assert_eq!(schedule, parsed);
        let report = run(&schedule);
        assert!(
            report.passed(),
            "corrupting seed 3 violated the reconvergence oracle:\n{}",
            report.violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
        );
        assert!(report.submitted > 0, "no traffic was accepted");
    }

    #[test]
    fn corrupt_state_command_roundtrips_through_toml() {
        let schedule = ChaosSchedule {
            seed: 11,
            nodes: 3,
            style: ReplicationStyle::Active,
            steps: 32,
            commands: vec![ScheduledCommand {
                at_ns: 250,
                cmd: FaultCommand::CorruptState {
                    node: NodeId::new(2),
                    target: CorruptionTarget::Membership,
                    salt: 0xDEAD_BEEF,
                },
            }],
            kflips: Vec::new(),
            corruptions: vec![ScheduledCorruption {
                at_ns: 500,
                node: NodeId::new(1),
                target: CorruptionTarget::TokenGate,
                salt: 42,
            }],
            start_seq: 0,
            backend: BackendKind::Totem,
            harness: Harness::Chaos,
        };
        let text = schedule.to_toml();
        assert!(text.contains("[[corrupt]]"), "missing corrupt block:\n{text}");
        assert!(text.contains("corrupt-state"), "missing corrupt-state command:\n{text}");
        let parsed = ChaosSchedule::from_toml(&text).expect("roundtrip parse");
        assert_eq!(schedule, parsed);
        // Unknown targets are rejected with context.
        let bad = text.replace("\"token-gate\"", "\"bit-rot\"");
        let err = ChaosSchedule::from_toml(&bad).unwrap_err();
        assert!(err.contains("bit-rot"), "got {err}");
    }

    #[test]
    fn corruption_ddmin_minimizes_to_the_load_bearing_event() {
        let mut schedule = generate(1, ReplicationStyle::Active, 4, 64);
        for i in 0..8u64 {
            schedule.corruptions.push(ScheduledCorruption {
                at_ns: 1_000_000 * (i + 1),
                node: NodeId::new((i % 4) as u16),
                target: CorruptionTarget::ALL[(i % 5) as usize],
                salt: 1000 + i,
            });
        }
        // Failure "reproduces" iff the salt-1003 event survives: ddmin
        // must strip the other seven decoys.
        let needs_1003 = |c: &ChaosSchedule| c.corruptions.iter().any(|x| x.salt == 1003);
        let kept = ddmin_corruptions(&schedule, &needs_1003);
        assert_eq!(kept.len(), 1, "kept {kept:?}");
        assert_eq!(kept[0].salt, 1003);
        // And when the corruptions are pure decoys, the wholesale cut
        // drops them all in one probe.
        let always = |_: &ChaosSchedule| true;
        assert!(ddmin_corruptions(&schedule, &always).is_empty());
    }

    #[test]
    fn toml_roundtrip_preserves_schedule() {
        let schedule = generate(3, ReplicationStyle::Passive, 5, 160);
        let text = schedule.to_toml();
        let parsed = ChaosSchedule::from_toml(&text).expect("roundtrip parse");
        assert_eq!(schedule, parsed);
    }

    #[test]
    fn toml_parse_rejects_malformed_input() {
        assert!(ChaosSchedule::from_toml("steps = 10").is_err());
        assert!(ChaosSchedule::from_toml("bogus = 1").is_err());
        let err = ChaosSchedule::from_toml(
            "seed = 1\nnodes = 3\nstyle = \"active\"\nsteps = 32\nharness = \"mc\"\n",
        )
        .unwrap_err();
        assert!(err.contains("line 5") && err.contains("`harness`"), "got {err}");
        let text = "seed = 1\nnodes = 3\nstyle = \"active\"\nsteps = 32\n\n\
                    [[command]]\nat_ns = 5\nkind = \"teleport\"\nnode = 1\n";
        let err = ChaosSchedule::from_toml(text).unwrap_err();
        assert!(err.contains("teleport"), "got {err}");
    }

    #[test]
    fn clean_schedule_passes_the_oracle() {
        let schedule = generate(1, ReplicationStyle::Active, 4, 64);
        let report = run(&schedule);
        assert!(
            report.passed(),
            "seed 1 violated the oracle:\n{}",
            report.violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
        );
        assert!(report.submitted > 0, "no traffic was accepted");
    }

    /// A schedule that splits the cluster in two (both networks
    /// partitioned the same way) with traffic flowing on each side,
    /// plus removable decoy fault bursts. EVS agreement holds across
    /// the heal, but full prefix equality cannot.
    fn prefix_demo_schedule() -> ChaosSchedule {
        let ms = |v: u64| SimDuration::from_millis(v).as_nanos();
        let groups = vec![0u8, 0, 1, 1];
        let mut commands = Vec::new();
        for k in 0..2u8 {
            commands.push(ScheduledCommand {
                at_ns: ms(200),
                cmd: FaultCommand::Partition { net: NetworkId::new(k), groups: groups.clone() },
            });
            commands.push(ScheduledCommand {
                at_ns: ms(1_200),
                cmd: FaultCommand::Partition { net: NetworkId::new(k), groups: Vec::new() },
            });
        }
        // Decoys: transient single-network send/recv faults that the
        // shrinker should strip from the repro.
        commands.push(ScheduledCommand {
            at_ns: ms(150),
            cmd: FaultCommand::SendFault {
                node: NodeId::new(1),
                net: NetworkId::new(0),
                failed: true,
            },
        });
        commands.push(ScheduledCommand {
            at_ns: ms(400),
            cmd: FaultCommand::SendFault {
                node: NodeId::new(1),
                net: NetworkId::new(0),
                failed: false,
            },
        });
        commands.push(ScheduledCommand {
            at_ns: ms(300),
            cmd: FaultCommand::RecvFault {
                node: NodeId::new(3),
                net: NetworkId::new(1),
                failed: true,
            },
        });
        commands.push(ScheduledCommand {
            at_ns: ms(500),
            cmd: FaultCommand::RecvFault {
                node: NodeId::new(3),
                net: NetworkId::new(1),
                failed: false,
            },
        });
        commands.sort_by_key(|c| c.at_ns);
        ChaosSchedule {
            seed: 42,
            nodes: 4,
            style: ReplicationStyle::Active,
            steps: 128,
            commands,
            kflips: Vec::new(),
            corruptions: Vec::new(),
            start_seq: 0,
            backend: BackendKind::Totem,
            harness: Harness::Chaos,
        }
    }

    #[test]
    fn prefix_equality_oracle_is_too_strong_but_evs_holds() {
        let schedule = prefix_demo_schedule();
        let strict = run_with(&schedule, oracle::check_prefix_equality);
        assert!(
            strict.violations.iter().any(|v| v.kind() == "prefix-equality"),
            "expected the too-strong oracle to fire, got {:?}",
            strict.violations
        );
        let evs = run(&schedule);
        assert!(
            evs.passed(),
            "real EVS oracle must hold on the same run:\n{}",
            evs.violations.iter().map(|v| format!("  - {v}")).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn shrinker_minimizes_a_prefix_equality_repro() {
        let schedule = prefix_demo_schedule();
        let shrunk = shrink(&schedule, oracle::check_prefix_equality);
        assert!(
            shrunk.commands.len() < schedule.commands.len(),
            "shrinker failed to drop the decoy commands: {} -> {}",
            schedule.commands.len(),
            shrunk.commands.len()
        );
        assert!(shrunk.steps <= schedule.steps);
        let report = run_with(&shrunk, oracle::check_prefix_equality);
        assert!(
            report.violations.iter().any(|v| v.kind() == "prefix-equality"),
            "shrunk schedule no longer reproduces: {:?}",
            report.violations
        );
        // And the minimized repro replays from its TOML form.
        let replay = ChaosSchedule::from_toml(&shrunk.to_toml()).expect("replay parse");
        assert_eq!(replay, shrunk);
    }

    #[test]
    fn shrink_returns_passing_schedules_unchanged() {
        let schedule = generate(1, ReplicationStyle::Active, 4, 64);
        let shrunk = shrink(&schedule, oracle::check_safety);
        assert_eq!(schedule, shrunk);
    }

    #[test]
    fn from_toml_errors_carry_line_and_field_context() {
        // Bad header value: names the line and the key.
        let err = ChaosSchedule::from_toml("seed = 1\nnodes = oops\n").unwrap_err();
        assert!(err.contains("line 2") && err.contains("`nodes`"), "got {err}");
        // Bad block field: names the block's header line and the field.
        let text = "seed = 1\nnodes = 3\nstyle = \"active\"\nsteps = 32\n\n\
                    [[command]]\nat_ns = nope\nkind = \"crash\"\nnode = 1\n";
        let err = ChaosSchedule::from_toml(text).unwrap_err();
        assert!(err.contains("[[command]] at line 6") && err.contains("`at_ns`"), "got {err}");
        // Missing block field: same context.
        let text = "seed = 1\nnodes = 3\nstyle = \"active\"\nsteps = 32\n\n\
                    [[kflip]]\nat_ns = 5\nnode = 1\n";
        let err = ChaosSchedule::from_toml(text).unwrap_err();
        assert!(err.contains("[[kflip]] at line 6") && err.contains("`k`"), "got {err}");
    }

    #[test]
    fn dup_net_roundtrips_through_toml() {
        let schedule = ChaosSchedule {
            seed: 9,
            nodes: 3,
            style: ReplicationStyle::Active,
            steps: 32,
            commands: vec![
                ScheduledCommand {
                    at_ns: 100,
                    cmd: FaultCommand::DuplicateNet { net: NetworkId::new(1), on: true },
                },
                ScheduledCommand {
                    at_ns: 900,
                    cmd: FaultCommand::DuplicateNet { net: NetworkId::new(1), on: false },
                },
            ],
            kflips: Vec::new(),
            corruptions: Vec::new(),
            start_seq: 0,
            backend: BackendKind::Totem,
            harness: Harness::Chaos,
        };
        let parsed = ChaosSchedule::from_toml(&schedule.to_toml()).expect("roundtrip parse");
        assert_eq!(schedule, parsed);
    }

    mod toml_roundtrip_props {
        use super::super::*;
        use proptest::prelude::*;

        fn arb_style() -> impl Strategy<Value = ReplicationStyle> {
            prop_oneof![
                Just(ReplicationStyle::Single),
                Just(ReplicationStyle::Active),
                Just(ReplicationStyle::Passive),
                (2u8..4).prop_map(|copies| ReplicationStyle::ActivePassive { copies }),
                (1u8..5).prop_map(|copies| ReplicationStyle::KOfN { copies }),
            ]
        }

        fn arb_cmd() -> impl Strategy<Value = FaultCommand> {
            prop_oneof![
                (0u16..8, 0u8..4, any::<bool>()).prop_map(|(n, k, failed)| {
                    FaultCommand::SendFault { node: NodeId::new(n), net: NetworkId::new(k), failed }
                }),
                (0u16..8, 0u8..4, any::<bool>()).prop_map(|(n, k, failed)| {
                    FaultCommand::RecvFault { node: NodeId::new(n), net: NetworkId::new(k), failed }
                }),
                (0u8..4, any::<bool>()).prop_map(|(k, down)| FaultCommand::NetworkDown {
                    net: NetworkId::new(k),
                    down,
                }),
                (0u8..4, proptest::collection::vec(0u8..3, 0..8)).prop_map(|(k, groups)| {
                    FaultCommand::Partition { net: NetworkId::new(k), groups }
                }),
                (0u16..8).prop_map(|n| FaultCommand::CrashNode { node: NodeId::new(n) }),
                (0u16..8).prop_map(|n| FaultCommand::RestartNode { node: NodeId::new(n) }),
                (0u8..4, any::<bool>())
                    .prop_map(|(k, on)| FaultCommand::DuplicateNet { net: NetworkId::new(k), on }),
                (0u16..8, 0usize..5, any::<u64>()).prop_map(|(n, t, salt)| {
                    FaultCommand::CorruptState {
                        node: NodeId::new(n),
                        target: CorruptionTarget::ALL[t],
                        salt,
                    }
                }),
            ]
        }

        fn arb_corruption() -> impl Strategy<Value = ScheduledCorruption> {
            (0u64..5_000_000_000, 0u16..8, 0usize..5, any::<u64>()).prop_map(
                |(at_ns, node, t, salt)| ScheduledCorruption {
                    at_ns,
                    node: NodeId::new(node),
                    target: CorruptionTarget::ALL[t],
                    salt,
                },
            )
        }

        fn arb_schedule() -> impl Strategy<Value = ChaosSchedule> {
            (
                any::<u64>(),
                2u64..8,
                arb_style(),
                16u64..512,
                proptest::collection::vec((0u64..5_000_000_000, arb_cmd()), 0..24),
                proptest::collection::vec((0u64..5_000_000_000, 0u16..8, 1u64..5), 0..8),
                proptest::collection::vec(arb_corruption(), 0..8),
                // Zero (the elided-from-TOML default) and near-wrap
                // starts both round-trip.
                prop_oneof![Just(0u64), any::<u64>()],
                // Both backends round-trip (Totem is elided from the
                // TOML form).
                prop_oneof![Just(BackendKind::Totem), Just(BackendKind::RingPaxos)],
                // Both harnesses round-trip (chaos is elided).
                prop_oneof![Just(Harness::Chaos), Just(Harness::Soak)],
            )
                .prop_map(
                    |(
                        seed,
                        nodes,
                        style,
                        steps,
                        commands,
                        kflips,
                        corruptions,
                        start_seq,
                        backend,
                        harness,
                    )| {
                        ChaosSchedule {
                            seed,
                            nodes: nodes as usize,
                            style,
                            steps,
                            commands: commands
                                .into_iter()
                                .map(|(at_ns, cmd)| ScheduledCommand { at_ns, cmd })
                                .collect(),
                            kflips: kflips
                                .into_iter()
                                .map(|(at_ns, node, k)| KFlip {
                                    at_ns,
                                    node: NodeId::new(node),
                                    k: k as usize,
                                })
                                .collect(),
                            corruptions,
                            start_seq,
                            backend,
                            harness,
                        }
                    },
                )
        }

        proptest! {
            /// Satellite of PR 6: `to_toml`/`from_toml` is the identity
            /// on arbitrary schedules — every command kind (including
            /// `dup-net`) and every `[[kflip]]` survives the trip.
            #[test]
            fn toml_roundtrips_arbitrary_schedules(schedule in arb_schedule()) {
                let text = schedule.to_toml();
                let parsed = ChaosSchedule::from_toml(&text)
                    .expect("generated schedule must parse back");
                prop_assert_eq!(schedule, parsed);
            }
        }
    }
}
