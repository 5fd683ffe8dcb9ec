//! Bounded exhaustive model checking of the SRP membership machine.
//!
//! [`explore`] drives the **existing** sans-io protocol stack — the
//! same [`SimCluster`] the tests and the chaos fuzzer use, via the
//! same shared executor ([`crate::chaos`]'s schedule core) — through
//! every fault interleaving expressible in a small action alphabet, up
//! to a configurable depth. There is no second implementation of the
//! protocol or of fault injection here: an explored path **is** a
//! [`ChaosSchedule`], so a violating path serializes to the exact TOML
//! format `cargo xtask chaos --replay` runs back, and shrinks with the
//! existing delta-debugging machinery.
//!
//! # The action alphabet
//!
//! Exploration alternates *quiet steps* (a fixed slice of simulated
//! time in which the cluster runs free: token rotation, timer firings,
//! message deliveries, retransmissions) with *instantaneous fault
//! injections* at step boundaries:
//!
//! * [`Action::Step`] — run one quiet step (`step_ms` of virtual
//!   time, with the chaos traffic workload submitting one message per
//!   [`crate::chaos::TICK`]); the bound `depth` counts these;
//! * [`Action::Crash`]/[`Action::Restart`] — fail-stop a processor /
//!   reboot it cold (fresh identity epoch, rejoins via Gather);
//! * [`Action::Partition`]/[`Action::Heal`] — split every network at
//!   a cut point / reconnect everything;
//! * [`Action::Drop`] — blackout one processor's reception on every
//!   network for one step (models a burst of message loss);
//! * [`Action::Dup`] — deliver every frame on one network twice for
//!   one step (models a duplicating medium).
//!
//! Budgets (`crashes`, `partitions`, `drops`, `dups`) bound how many
//! of each injection a path may carry, which keeps the state space
//! finite and focused: protocol bugs of the class the chaos fuzzer
//! found all needed only one or two coordinated faults.
//!
//! # State canonicalization and partial-order reduction
//!
//! Each explored state is re-executed from the initial state (the
//! deterministic simulator guarantees a path's prefix *is* its state),
//! then folded to a 64-bit canonical hash ([`SimCluster`]'s
//! `state_fingerprint`: per-node protocol state via the
//! `SrpNode`/`RrpLayer` fingerprint hooks, delivery logs, fault plane,
//! event-queue horizon) for visited-state pruning. Injections at the
//! same boundary commute — the simulator applies same-instant fault
//! commands back-to-back before any protocol event — so the explorer
//! only generates them in one canonical order (sorted by a fixed
//! per-action rank), a simple partial-order reduction. See DESIGN.md
//! §14 for the soundness argument and the hash-compaction caveats.
//!
//! # Checks
//!
//! Every explored state runs the caller's delivery oracle (default:
//! the full EVS safety oracle [`oracle::check_safety`]) plus per-state
//! invariants: membership/view sanity ([`oracle::check_view_sanity`])
//! and monotonicity of each node's ring-sequence horizon
//! across the parent→child transition. Spec coverage is recorded from
//! the simulator's transition trace: which `spec/protocol.toml`
//! `srp-membership` edges the bounded exploration exercised, and at
//! which depth each was first seen.

use std::collections::{BTreeMap, HashSet, VecDeque};

use totem_sim::{FaultCommand, SimTime};
use totem_wire::{Incarnation, NetworkId, NodeId};

use crate::chaos::oracle::{self, Violation};
use crate::chaos::{exec, ChaosSchedule, Harness, ReplicationStyle, ScheduledCommand, TICK};
use crate::sim_cluster::SimCluster;

/// Transition-trace capacity per execution; generous, and
/// [`McReport::transitions_dropped`] reports any overflow instead of
/// silently losing coverage.
const TRACE_CAPACITY: usize = 16_384;

/// The spec machine whose exercised edges [`McReport::edges`] records.
pub const TRACKED_MACHINE: &str = "srp-membership";

/// One explorer action: either a quiet step of virtual time or an
/// instantaneous fault injection at the current step boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run one quiet step (`step_ms` of simulated time with traffic).
    Step,
    /// Fail-stop this processor.
    Crash(u16),
    /// Reboot a crashed processor cold (fresh identity epoch).
    Restart(u16),
    /// Split every network: processors `< cut` on one side, the rest
    /// on the other.
    Partition(u16),
    /// Reconnect every network.
    Heal,
    /// Blackout this processor's reception on every network for one
    /// step.
    Drop(u16),
    /// Deliver every frame on this network twice for one step.
    Dup(u8),
}

impl Action {
    /// Canonical order of injections within one step boundary — the
    /// partial-order reduction only generates boundary groups sorted
    /// strictly by this rank. [`Action::Step`] has no rank: it closes
    /// the group.
    fn rank(self) -> Option<u32> {
        match self {
            Action::Step => None,
            Action::Crash(n) => Some(u32::from(n)),
            Action::Restart(n) => Some(0x1_0000 + u32::from(n)),
            Action::Partition(cut) => Some(0x2_0000 + u32::from(cut)),
            Action::Heal => Some(0x3_0000),
            Action::Drop(n) => Some(0x4_0000 + u32::from(n)),
            Action::Dup(k) => Some(0x5_0000 + u32::from(k)),
        }
    }
}

impl core::fmt::Display for Action {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Action::Step => write!(f, "step"),
            Action::Crash(n) => write!(f, "crash({n})"),
            Action::Restart(n) => write!(f, "restart({n})"),
            Action::Partition(cut) => write!(f, "partition(<{cut} | {cut}..)"),
            Action::Heal => write!(f, "heal"),
            Action::Drop(n) => write!(f, "drop({n})"),
            Action::Dup(k) => write!(f, "dup(net {k})"),
        }
    }
}

/// Explorer configuration. Start from [`McOptions::new`] and override
/// fields as needed.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Cluster size (≥ 2). The cluster runs the active replication
    /// style on two networks, matching the chaos fuzzer's default.
    pub nodes: usize,
    /// Exploration bound: the maximum number of quiet steps per path.
    pub depth: u64,
    /// How many crash injections one path may carry.
    pub crashes: usize,
    /// How many partition injections one path may carry.
    pub partitions: usize,
    /// How many one-step reception blackouts one path may carry.
    pub drops: usize,
    /// How many one-step duplication windows one path may carry.
    pub dups: usize,
    /// Virtual time per quiet step, in milliseconds. Must be a
    /// multiple of the 5 ms traffic tick and long enough for the
    /// membership timeouts (token loss 200 ms, consensus 250 ms) to
    /// fire within one step; the 400 ms default is calibrated to the
    /// LAN config.
    pub step_ms: u64,
    /// Simulation seed (the explored graph is seed-deterministic).
    pub seed: u64,
    /// Delivery oracle run at every explored state. Defaults to the
    /// full EVS safety oracle; the counterexample harness swaps in
    /// [`oracle::check_prefix_equality`] to prove the
    /// emission/shrink/replay pipeline end-to-end.
    pub oracle: fn(&SimCluster, usize) -> Vec<Violation>,
}

impl McOptions {
    /// Defaults: one crash, one partition, no drop/dup windows,
    /// 400 ms steps, seed 0, EVS safety oracle.
    pub fn new(nodes: usize, depth: u64) -> Self {
        McOptions {
            nodes,
            depth,
            crashes: 1,
            partitions: 1,
            drops: 0,
            dups: 0,
            step_ms: 400,
            seed: 0,
            oracle: oracle::check_safety,
        }
    }

    fn step_ns(&self) -> u64 {
        self.step_ms * 1_000_000
    }
}

/// A violating path, minimized and ready to replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The explorer path that first hit the violation.
    pub actions: Vec<Action>,
    /// Every violation the per-state checks reported there.
    pub violations: Vec<Violation>,
    /// The path as a chaos schedule, shrunk with the existing
    /// delta-debugging minimizer where the violation survives a full
    /// chaos run (mc-internal per-state invariants shrink to the
    /// original path). Serialize with [`ChaosSchedule::to_toml`] and
    /// replay with `cargo xtask chaos --replay`.
    pub schedule: ChaosSchedule,
}

/// What [`explore`] found.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// Distinct states visited (after hash pruning), root included.
    pub states: u64,
    /// Prefix executions run (every candidate child costs one).
    pub executions: u64,
    /// Candidate states pruned as already visited.
    pub pruned: u64,
    /// Order-independent digest of every visited state hash — the
    /// determinism regression tests pin this.
    pub digest: u64,
    /// Deepest quiet-step count reached.
    pub deepest: u64,
    /// Every [`TRACKED_MACHINE`] spec edge exercised, keyed
    /// `(from, event, to)`, with the quiet-step depth it was first
    /// seen at.
    pub edges: BTreeMap<(String, String, String), u64>,
    /// Transition-trace overflow across all executions (0 = full
    /// coverage data; anything else means the fixed trace capacity is too
    /// small for this configuration).
    pub transitions_dropped: u64,
    /// The first violating path found, if any (exploration stops on
    /// the first violation — it is the shallowest, BFS order).
    pub counterexample: Option<Counterexample>,
}

impl McReport {
    /// `true` when the bounded exploration finished with no violation.
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Per-node snapshot for the parent→child monotonicity checks.
#[derive(Debug, Clone, Copy)]
struct NodeSnap {
    incarnation: Incarnation,
    max_ring_seq: u64,
    ring_seq: Option<u64>,
}

/// One frontier entry of the breadth-first exploration.
struct StateRec {
    actions: Vec<Action>,
    quiets: u64,
    crashes_used: usize,
    partitions_used: usize,
    drops_used: usize,
    dups_used: usize,
    /// Which processors are crashed at the end of this path.
    crashed: Vec<bool>,
    /// Whether a partition is currently in force.
    partitioned: bool,
    /// Injections since the last [`Action::Step`] (the open boundary
    /// group) — constrains further same-boundary injections.
    group: Vec<Action>,
    snapshot: Vec<NodeSnap>,
}

/// FNV-1a, fixed here so visited-state hashes and the state-space
/// digest are stable across toolchains (the std `DefaultHasher` makes
/// no such promise, and the determinism regression tests pin digests).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl core::hash::Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Maps an explorer path to the chaos schedule that executes it: each
/// quiet step is `step_ms / 5ms` traffic ticks, each injection becomes
/// fault commands at its boundary instant (drop/dup windows add their
/// paired heal one boundary later).
pub fn schedule_of(actions: &[Action], opts: &McOptions) -> ChaosSchedule {
    let step_ns = opts.step_ns();
    let both_nets = [NetworkId::new(0), NetworkId::new(1)];
    let mut commands: Vec<ScheduledCommand> = Vec::new();
    let mut quiets = 0u64;
    for action in actions {
        let at_ns = quiets * step_ns;
        match *action {
            Action::Step => quiets += 1,
            Action::Crash(n) => commands.push(ScheduledCommand {
                at_ns,
                cmd: FaultCommand::CrashNode { node: NodeId::new(n) },
            }),
            Action::Restart(n) => commands.push(ScheduledCommand {
                at_ns,
                cmd: FaultCommand::RestartNode { node: NodeId::new(n) },
            }),
            Action::Partition(cut) => {
                let groups: Vec<u8> =
                    (0..opts.nodes).map(|i| u8::from(i >= cut as usize)).collect();
                for net in both_nets {
                    commands.push(ScheduledCommand {
                        at_ns,
                        cmd: FaultCommand::Partition { net, groups: groups.clone() },
                    });
                }
            }
            Action::Heal => {
                for net in both_nets {
                    commands.push(ScheduledCommand {
                        at_ns,
                        cmd: FaultCommand::Partition { net, groups: Vec::new() },
                    });
                }
            }
            Action::Drop(n) => {
                let node = NodeId::new(n);
                for net in both_nets {
                    commands.push(ScheduledCommand {
                        at_ns,
                        cmd: FaultCommand::RecvFault { node, net, failed: true },
                    });
                    commands.push(ScheduledCommand {
                        at_ns: at_ns + step_ns,
                        cmd: FaultCommand::RecvFault { node, net, failed: false },
                    });
                }
            }
            Action::Dup(k) => {
                let net = NetworkId::new(k);
                commands.push(ScheduledCommand {
                    at_ns,
                    cmd: FaultCommand::DuplicateNet { net, on: true },
                });
                commands.push(ScheduledCommand {
                    at_ns: at_ns + step_ns,
                    cmd: FaultCommand::DuplicateNet { net, on: false },
                });
            }
        }
    }
    // Stable by construction ordering within an instant: boundary
    // groups are generated rank-sorted and off-commands precede the
    // next boundary's injections in insertion order.
    commands.sort_by_key(|c| c.at_ns);
    ChaosSchedule {
        seed: opts.seed,
        nodes: opts.nodes,
        style: ReplicationStyle::Active,
        steps: quiets * (opts.step_ns() / TICK.as_nanos()),
        commands,
        kflips: Vec::new(),
        corruptions: Vec::new(),
        harness: Harness::Chaos,
    }
}

/// Re-executes a path from the initial state and returns the cluster
/// at its end (the deterministic simulator makes this exact).
fn run_prefix(actions: &[Action], opts: &McOptions) -> (SimCluster, ChaosSchedule) {
    let schedule = schedule_of(actions, opts);
    let mut exec = exec::Execution::new(&schedule, Some(TRACE_CAPACITY));
    exec.run_traffic_window(schedule.steps);
    // A zero-step prefix (injections before any quiet time) still has
    // to process its t=0 events: the actors' starts and the boundary's
    // fault commands.
    exec.cluster.run_until(SimTime::from_nanos(schedule.steps * TICK.as_nanos()));
    (exec.cluster, schedule)
}

fn snapshot(cluster: &SimCluster, nodes: usize) -> Vec<NodeSnap> {
    (0..nodes)
        .map(|n| NodeSnap {
            incarnation: cluster.incarnation(n),
            max_ring_seq: cluster.max_ring_seq(n),
            ring_seq: cluster.ring_id(n).map(|r| r.seq),
        })
        .collect()
}

/// The per-state invariants beyond the delivery oracle: view sanity
/// plus monotonicity of each node's ring-sequence horizon (and, within
/// one incarnation, of its current ring's sequence) across the
/// parent→child transition.
fn check_state(cluster: &SimCluster, opts: &McOptions, parent: &[NodeSnap]) -> Vec<Violation> {
    let mut violations = (opts.oracle)(cluster, opts.nodes);
    violations.extend(oracle::check_view_sanity(cluster, opts.nodes));
    for (n, snap) in parent.iter().enumerate() {
        let now = cluster.max_ring_seq(n);
        if now < snap.max_ring_seq {
            violations.push(Violation::StateInvariant {
                node: n,
                detail: format!(
                    "ring-sequence horizon went backwards: {} -> {now}",
                    snap.max_ring_seq
                ),
            });
        }
        if cluster.incarnation(n) == snap.incarnation {
            if let (Some(prev), Some(now)) = (snap.ring_seq, cluster.ring_id(n).map(|r| r.seq)) {
                if now < prev {
                    violations.push(Violation::StateInvariant {
                        node: n,
                        detail: format!(
                            "ring id sequence went backwards within one incarnation: \
                             {prev} -> {now}"
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Canonical state hash: the cluster fingerprint plus the scheduling
/// context (depth, spent budgets, open boundary group) — two paths
/// merge only when both the protocol state *and* the explorer's
/// remaining choices coincide, which keeps the pruning sound with
/// respect to the budgeted action alphabet.
fn hash_state(cluster: &SimCluster, rec: &StateRec) -> u64 {
    use core::hash::{Hash as _, Hasher as _};
    let mut h = Fnv64::new();
    cluster.state_fingerprint(&mut h);
    rec.quiets.hash(&mut h);
    rec.crashes_used.hash(&mut h);
    rec.partitions_used.hash(&mut h);
    rec.drops_used.hash(&mut h);
    rec.dups_used.hash(&mut h);
    for a in &rec.group {
        a.rank().hash(&mut h);
    }
    h.finish()
}

fn record_edges(cluster: &SimCluster, quiets: u64, report: &mut McReport) {
    if let Some(trace) = cluster.trace() {
        report.transitions_dropped += trace.transitions_dropped();
        for rec in trace.transitions() {
            let t = rec.transition;
            if t.machine == TRACKED_MACHINE {
                report
                    .edges
                    .entry((t.from.to_string(), t.event.to_string(), t.to.to_string()))
                    .or_insert(quiets);
            }
        }
    }
}

/// Every action applicable at `rec` under the budgets, the structural
/// guards, and the partial-order reduction (injections of one boundary
/// group only in strictly increasing [`Action::rank`] order, no
/// restart of a processor crashed in the same group, no heal in the
/// same group as its partition).
fn expansions(rec: &StateRec, opts: &McOptions) -> Vec<Action> {
    let mut actions = Vec::new();
    if rec.quiets < opts.depth {
        actions.push(Action::Step);
    } else {
        return actions; // at the bound: no more time, so no injections
    }
    let group_min = rec.group.iter().filter_map(|a| a.rank()).max();
    let admissible = |a: Action| group_min.is_none_or(|m| a.rank() > Some(m));

    if rec.crashes_used < opts.crashes {
        for n in 0..opts.nodes as u16 {
            let a = Action::Crash(n);
            if !rec.crashed[n as usize] && admissible(a) {
                actions.push(a);
            }
        }
    }
    for n in 0..opts.nodes as u16 {
        let a = Action::Restart(n);
        if rec.crashed[n as usize] && admissible(a) && !rec.group.contains(&Action::Crash(n)) {
            actions.push(a);
        }
    }
    if rec.partitions_used < opts.partitions && !rec.partitioned {
        for cut in 1..opts.nodes as u16 {
            let a = Action::Partition(cut);
            if admissible(a) {
                actions.push(a);
            }
        }
    }
    if rec.partitioned
        && admissible(Action::Heal)
        && !rec.group.iter().any(|a| matches!(a, Action::Partition(_)))
    {
        actions.push(Action::Heal);
    }
    if rec.drops_used < opts.drops {
        for n in 0..opts.nodes as u16 {
            let a = Action::Drop(n);
            if !rec.crashed[n as usize] && admissible(a) {
                actions.push(a);
            }
        }
    }
    if rec.dups_used < opts.dups {
        for k in 0..2u8 {
            let a = Action::Dup(k);
            if admissible(a) {
                actions.push(a);
            }
        }
    }
    actions
}

/// Applies `action` to the bookkeeping of `rec`, producing the child
/// record (cluster snapshot filled in by the caller after execution).
fn child_rec(rec: &StateRec, action: Action) -> StateRec {
    let mut actions = rec.actions.clone();
    actions.push(action);
    let mut child = StateRec {
        actions,
        quiets: rec.quiets,
        crashes_used: rec.crashes_used,
        partitions_used: rec.partitions_used,
        drops_used: rec.drops_used,
        dups_used: rec.dups_used,
        crashed: rec.crashed.clone(),
        partitioned: rec.partitioned,
        group: rec.group.clone(),
        snapshot: Vec::new(),
    };
    match action {
        Action::Step => {
            child.quiets += 1;
            child.group.clear();
        }
        Action::Crash(n) => {
            child.crashes_used += 1;
            child.crashed[n as usize] = true;
            child.group.push(action);
        }
        Action::Restart(n) => {
            child.crashed[n as usize] = false;
            child.group.push(action);
        }
        Action::Partition(_) => {
            child.partitions_used += 1;
            child.partitioned = true;
            child.group.push(action);
        }
        Action::Heal => {
            child.partitioned = false;
            child.group.push(action);
        }
        Action::Drop(_) => {
            child.drops_used += 1;
            child.group.push(action);
        }
        Action::Dup(_) => {
            child.dups_used += 1;
            child.group.push(action);
        }
    }
    child
}

/// Runs the bounded exhaustive exploration. Deterministic: the same
/// options always produce the same report (state count, digest, edge
/// set), which the regression tests pin.
///
/// Exploration stops at the first violating state (breadth-first, so
/// it is a shallowest one) and returns it as a shrunk, replayable
/// [`Counterexample`].
///
/// # Panics
///
/// Panics if `nodes < 2`, `depth == 0`, or `step_ms` is not a positive
/// multiple of the 5 ms traffic tick.
pub fn explore(opts: &McOptions) -> McReport {
    assert!(opts.nodes >= 2, "model checking needs at least two nodes");
    assert!(opts.depth >= 1, "depth must be at least one quiet step");
    assert!(
        opts.step_ms > 0 && opts.step_ns().is_multiple_of(TICK.as_nanos()),
        "step_ms must be a positive multiple of the 5 ms traffic tick"
    );

    let mut report = McReport::default();
    let mut visited: HashSet<u64> = HashSet::new();
    let mut queue: VecDeque<StateRec> = VecDeque::new();

    // Root: the freshly bootstrapped operational cluster after zero
    // quiet steps.
    let mut root = StateRec {
        actions: Vec::new(),
        quiets: 0,
        crashes_used: 0,
        partitions_used: 0,
        drops_used: 0,
        dups_used: 0,
        crashed: vec![false; opts.nodes],
        partitioned: false,
        group: Vec::new(),
        snapshot: Vec::new(),
    };
    let (cluster, schedule) = run_prefix(&root.actions, opts);
    report.executions += 1;
    root.snapshot = snapshot(&cluster, opts.nodes);
    let violations = check_state(&cluster, opts, &root.snapshot);
    if !violations.is_empty() {
        report.counterexample =
            Some(make_counterexample(root.actions.clone(), violations, schedule, opts));
        return report;
    }
    let hash = hash_state(&cluster, &root);
    visited.insert(hash);
    report.states += 1;
    report.digest = report.digest.wrapping_add(hash);
    record_edges(&cluster, 0, &mut report);
    queue.push_back(root);

    while let Some(rec) = queue.pop_front() {
        for action in expansions(&rec, opts) {
            let mut child = child_rec(&rec, action);
            let (cluster, schedule) = run_prefix(&child.actions, opts);
            report.executions += 1;
            let violations = check_state(&cluster, opts, &rec.snapshot);
            if !violations.is_empty() {
                report.counterexample =
                    Some(make_counterexample(child.actions, violations, schedule, opts));
                return report;
            }
            let hash = hash_state(&cluster, &child);
            if !visited.insert(hash) {
                report.pruned += 1;
                continue;
            }
            report.states += 1;
            report.digest = report.digest.wrapping_add(hash);
            report.deepest = report.deepest.max(child.quiets);
            record_edges(&cluster, child.quiets, &mut report);
            child.snapshot = snapshot(&cluster, opts.nodes);
            queue.push_back(child);
        }
    }
    report
}

/// Minimizes a violating path with the chaos shrinker when the
/// violation survives a full chaos run (safety violations do: the
/// delivery logs only grow through the heal/convergence tail). For
/// mc-internal per-state invariants the full run passes and the
/// shrinker returns the path unchanged — still a valid repro of the
/// path itself.
fn make_counterexample(
    actions: Vec<Action>,
    violations: Vec<Violation>,
    schedule: ChaosSchedule,
    opts: &McOptions,
) -> Counterexample {
    let schedule = crate::chaos::shrink(&schedule, opts.oracle);
    Counterexample { actions, violations, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_exploration_passes_and_is_deterministic() {
        let mut opts = McOptions::new(2, 2);
        opts.crashes = 1;
        opts.partitions = 0;
        let a = explore(&opts);
        let b = explore(&opts);
        assert!(a.passed(), "violation: {:?}", a.counterexample.map(|c| c.violations));
        assert!(a.states > 1, "explored only the root");
        assert_eq!(a.states, b.states);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn schedule_mapping_counts_steps_and_sorts_commands() {
        let opts = McOptions::new(3, 4);
        let actions =
            [Action::Crash(1), Action::Step, Action::Restart(1), Action::Step, Action::Step];
        let s = schedule_of(&actions, &opts);
        assert_eq!(s.steps, 3 * (400_000_000 / TICK.as_nanos()));
        assert_eq!(s.commands.len(), 2);
        assert_eq!(s.commands[0].at_ns, 0);
        assert_eq!(s.commands[1].at_ns, 400_000_000);
        assert!(s.commands.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // The mc path replays through the standard chaos runner.
        let report = crate::chaos::run(&s);
        assert!(report.passed(), "mc path failed chaos replay: {:?}", report.violations);
    }

    #[test]
    fn por_generates_boundary_groups_in_rank_order_only() {
        let mut opts = McOptions::new(3, 3);
        opts.crashes = 1;
        opts.partitions = 1;
        let rec = StateRec {
            actions: vec![Action::Partition(1)],
            quiets: 0,
            crashes_used: 0,
            partitions_used: 1,
            drops_used: 0,
            dups_used: 0,
            crashed: vec![false; 3],
            partitioned: true,
            group: vec![Action::Partition(1)],
            snapshot: Vec::new(),
        };
        let next = expansions(&rec, &opts);
        // Crashes rank below Partition, so the open group admits no
        // crash; Heal is blocked in the same group as its partition.
        assert!(next.iter().all(|a| !matches!(a, Action::Crash(_))), "got {next:?}");
        assert!(!next.contains(&Action::Heal), "got {next:?}");
        assert!(next.contains(&Action::Step));
    }
}
