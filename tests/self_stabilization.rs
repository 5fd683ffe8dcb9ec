//! Self-stabilization pins: arbitrary-state corruption faults against
//! a live cluster.
//!
//! One deterministic pin per [`CorruptionTarget`] variant proves that
//! a seeded corruption of that slice of a node's protocol state routes
//! into the Gather reformation path and reconverges — every correct
//! node back in an agreed regular membership, totally-ordered delivery
//! resumed — within a bounded number of token rotations (expressed
//! here as a simulated-time budget: 15 seconds is thousands of
//! rotations at the default timers, generous but finite).
//!
//! The remaining pins are regressions for the hardening this plane
//! flushed out: simultaneous corruption of several nodes (the gather
//! sanitizer must never let a node accuse or forget itself), repeated
//! corruption of the same node (the engine's stale-drop gate must
//! reset rather than wedge), and corruption under load (the rolling
//! EVS oracle must hold on the post-stabilization suffix).

use bytes::Bytes;
use totem_cluster::chaos::oracle::RollingOracle;
use totem_cluster::chaos::{soak, CorruptionTarget, ReplicationStyle};
use totem_cluster::{ClusterConfig, SimCluster};
use totem_sim::{FaultCommand, SimDuration, SimTime};
use totem_srp::SrpState;
use totem_wire::NodeId;

const NODES: usize = 4;

/// Reconvergence budget after a corruption fires. The token circulates
/// in well under 10ms on the simulated LAN, so this is thousands of
/// rotations — the pin is about *bounded*, not *tight*.
const STABILIZE: SimDuration = SimDuration::from_secs(15);

/// The reconvergence oracle's membership half: every node alive,
/// Operational, and agreeing on the full membership.
fn converged(cluster: &SimCluster) -> bool {
    let full: Vec<NodeId> = (0..NODES).map(|n| NodeId::new(n as u16)).collect();
    (0..NODES).all(|n| {
        cluster.is_alive(n)
            && cluster.srp_state(n) == SrpState::Operational
            && cluster.members(n).map(|mut m| {
                m.sort();
                m == full
            }) == Some(true)
    })
}

/// Walks simulated time forward in 50ms steps until the cluster
/// reconverges, panicking if `budget` runs out.
fn await_reconvergence(cluster: &mut SimCluster, mut now: SimTime, budget: SimDuration) -> SimTime {
    let deadline = now + budget;
    while !converged(cluster) {
        assert!(
            now < deadline,
            "cluster failed to reconverge within {}s of the corruption",
            budget.as_nanos() / 1_000_000_000
        );
        now += SimDuration::from_millis(50);
        cluster.run_until(now);
    }
    now
}

/// The reconvergence oracle's delivery half: after stabilization, one
/// probe from every node must reach every node, and the probes must
/// appear in the same relative order everywhere.
fn assert_delivery_resumed(cluster: &mut SimCluster, mut now: SimTime, round: &str) {
    let probes: Vec<Bytes> =
        (0..NODES).map(|n| Bytes::from(format!("probe-{round}-{n}"))).collect();
    for (n, probe) in probes.iter().enumerate() {
        let mut accepted = false;
        for _ in 0..100 {
            if cluster.try_submit(n, probe.clone()).is_ok() {
                accepted = true;
                break;
            }
            now += SimDuration::from_millis(50);
            cluster.run_until(now);
        }
        assert!(accepted, "node {n} refused the {round} probe after stabilization");
    }
    cluster.run_until(now + SimDuration::from_secs(5));
    let suffix = |node: usize| -> Vec<Bytes> {
        cluster
            .delivered(node)
            .iter()
            .filter(|d| probes.contains(&d.data))
            .map(|d| d.data.clone())
            .collect()
    };
    let reference = suffix(0);
    assert_eq!(reference.len(), NODES, "node 0 missed {round} probes: got {reference:?}");
    for n in 1..NODES {
        assert_eq!(suffix(n), reference, "node {n} disagrees on the {round} probe order");
    }
}

/// One deterministic corruption of `target` on node 1 at t=2s, against
/// a cluster that is demonstrably healthy beforehand.
fn corruption_pin(target: CorruptionTarget, salt: u64) {
    let mut cluster =
        SimCluster::new(ClusterConfig::new(NODES, ReplicationStyle::Active).with_seed(7));
    let at = SimTime::from_secs(2);
    cluster.schedule_fault(at, FaultCommand::CorruptState { node: NodeId::new(1), target, salt });

    let mut now = SimTime::from_millis(1_990);
    cluster.run_until(now);
    assert!(converged(&cluster), "cluster should be healthy before the corruption");

    // Keep traffic flowing across the corruption instant so the
    // damaged state is actually exercised, not just timed out.
    for i in 0..8 {
        let n = i % NODES;
        let _ = cluster.try_submit(n, Bytes::from(format!("load-{i}")));
        now += SimDuration::from_millis(5);
        cluster.run_until(now);
    }

    let now = await_reconvergence(&mut cluster, now, STABILIZE);
    assert_delivery_resumed(&mut cluster, now, target.name());
}

#[test]
fn seq_counter_corruption_reconverges() {
    // Pins the window-consistency hardening: a scrambled sequence cursor
    // set must be detected on token receipt and routed into Gather.
    corruption_pin(CorruptionTarget::SeqCounters, 0xA11CE);
}

#[test]
fn membership_corruption_reconverges() {
    // Pins the gather sanitizer: a corrupted proc set (phantom or
    // forgotten members) must reform to the true full membership.
    corruption_pin(CorruptionTarget::Membership, 0xB0B);
}

#[test]
fn rotation_corruption_reconverges() {
    // Pins the epoch hardening: a rewound/advanced rotation identity
    // must not let a stale commit token win.
    corruption_pin(CorruptionTarget::Rotation, 0xCAFE);
}

#[test]
fn monitor_counter_corruption_reconverges() {
    // Corrupted RRP monitor counters may blame healthy networks; the
    // ring itself must stay (or come back) correct regardless.
    corruption_pin(CorruptionTarget::MonitorCounters, 0xD00D);
}

#[test]
fn token_gate_corruption_reconverges() {
    // Pins the engine's stale-drop gate reset: a scrambled duplicate
    // filter must not wedge the node into dropping live tokens.
    corruption_pin(CorruptionTarget::TokenGate, 0xFEED);
}

#[test]
fn every_target_reconverges_under_distinct_salts() {
    // The salts above are arbitrary; prove the pins aren't
    // salt-shaped by re-running every target with another seed.
    for (i, target) in CorruptionTarget::ALL.iter().enumerate() {
        corruption_pin(*target, 0x5EED_0000 + i as u64);
    }
}

#[test]
fn simultaneous_corruption_of_two_nodes_reconverges() {
    // Regression for the gather sanitizer: with two nodes corrupted at
    // once, reformation rounds see conflicting accusations; no node
    // may ever accuse or forget itself, so the ring must still settle
    // on the true membership.
    let mut cluster =
        SimCluster::new(ClusterConfig::new(NODES, ReplicationStyle::Active).with_seed(11));
    let at = SimTime::from_secs(2);
    for (node, target) in
        [(0u16, CorruptionTarget::Membership), (2u16, CorruptionTarget::SeqCounters)]
    {
        cluster.schedule_fault(
            at,
            FaultCommand::CorruptState { node: NodeId::new(node), target, salt: 0x7777 },
        );
    }
    let now = SimTime::from_millis(1_990);
    cluster.run_until(now);
    assert!(converged(&cluster));
    let now = await_reconvergence(&mut cluster, now, STABILIZE);
    assert_delivery_resumed(&mut cluster, now, "dual");
}

#[test]
fn repeated_corruption_of_one_node_reconverges_every_time() {
    // Regression for the stale-drop gate: corrupt the same node's
    // token gate three times in a row; each incident must stabilize —
    // the consecutive-drop counter has to reset on recovery instead of
    // accumulating toward a permanent wedge.
    let mut cluster =
        SimCluster::new(ClusterConfig::new(NODES, ReplicationStyle::Active).with_seed(13));
    for round in 0..3u64 {
        let at = SimTime::from_secs(2 + round * 20);
        cluster.schedule_fault(
            at,
            FaultCommand::CorruptState {
                node: NodeId::new(3),
                target: CorruptionTarget::TokenGate,
                salt: 0x1000 + round,
            },
        );
    }
    for round in 0..3u64 {
        let now = SimTime::from_millis(2_000 + round * 20_000 + 100);
        cluster.run_until(now);
        let settled = await_reconvergence(&mut cluster, now, STABILIZE);
        assert_delivery_resumed(&mut cluster, settled, &format!("round{round}"));
    }
}

#[test]
fn corruption_under_load_keeps_the_post_stabilization_suffix_safe() {
    // The rolling EVS oracle, re-armed after stabilization, must hold
    // on everything delivered from that point on — the reconvergence
    // oracle's "resumes totally-ordered delivery" half, checked
    // message by message rather than via probes.
    let mut cluster =
        SimCluster::new(ClusterConfig::new(NODES, ReplicationStyle::Active).with_seed(17));
    cluster.schedule_fault(
        SimTime::from_secs(3),
        FaultCommand::CorruptState {
            node: NodeId::new(2),
            target: CorruptionTarget::SeqCounters,
            salt: 0x2222,
        },
    );
    let mut oracle = RollingOracle::new(NODES, 64);
    let mut sent = 0u32;
    for step in 0..1200u64 {
        let now = SimTime::from_millis(step * 10);
        cluster.run_until(now);
        let n = (step % NODES as u64) as usize;
        if cluster.try_submit(n, Bytes::from(format!("kv-{sent}"))).is_ok() {
            sent += 1;
        }
        if step == 350 {
            // Past the corruption: wait out stabilization, then exempt
            // the interval and re-arm. (Later steps whose timestamps
            // the stabilization wait already passed run as no-ops.)
            await_reconvergence(&mut cluster, now, STABILIZE);
            oracle.rearm(&mut cluster);
        } else if step > 350 && step % 100 == 0 {
            let violations = oracle.scan(&mut cluster);
            assert!(violations.is_empty(), "post-stabilization EVS violation: {violations:?}");
        }
    }
    let violations = oracle.scan(&mut cluster);
    assert!(violations.is_empty(), "post-stabilization EVS violation: {violations:?}");
    assert!(oracle.total_consumed() > 0, "the suffix oracle never saw a delivery");
}

#[test]
fn soak_engine_smoke_covers_corruption_and_reconvergence() {
    // End-to-end smoke of the shared soak engine at integration level:
    // a one-minute horizon with a guaranteed corruption must pass both
    // oracles, and its report must be bit-identical on a second run.
    let opts = soak::SoakOptions { seconds: 60, corrupt_pct: 100, ..soak::SoakOptions::default() };
    let report = soak::run(&soak::plan(5, &opts));
    assert!(report.passed(), "soak seed 5 violated:\n{}", report.violations.join("\n"));
    assert_eq!(report.schedule.corruptions.len(), 1);
    assert_eq!(report, soak::run(&soak::plan(5, &opts)));
}
