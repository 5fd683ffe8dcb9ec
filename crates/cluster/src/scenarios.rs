//! Deterministic transition-coverage scenarios for the conformance
//! gate (`cargo xtask conformance`).
//!
//! Every documented state-machine transition in `spec/protocol.toml`
//! must be *exercised* — not just present in the code — before a
//! change ships. [`run_all`] drives the protocol through a fixed set
//! of scenarios and reports every [`Transition`] observed:
//!
//! * **simulator scenarios** run whole clusters in `totem-sim` (fixed
//!   seeds, so runs are reproducible bit-for-bit) and read the
//!   transitions back out of the trace layer, exercising the full
//!   recording pipeline (`SrpNode`/`RrpLayer` →
//!   [`crate::TotemNode::take_transitions`] →
//!   [`totem_sim::Ctx::note_transition`] → [`totem_sim::TraceLog`]);
//! * **direct-drive scenarios** feed crafted packets and timer ticks
//!   straight into a state machine for the rare edges a healthy
//!   cluster almost never takes (commit-token loss, foreign traffic,
//!   an incomplete commit round, passive token-buffer expiry).

use bytes::Bytes;

use totem_rrp::{ReplicationStyle, RrpConfig, RrpLayer};
use totem_sim::{FaultCommand, SimDuration, SimTime};
use totem_srp::{SrpConfig, SrpEvent, SrpNode};
use totem_wire::{
    Chunk, CommitToken, DataPacket, JoinMessage, MembEntry, NetworkId, NodeId, Packet, RingId, Seq,
    Token, Transition,
};

use crate::sim_cluster::{ClusterConfig, SimCluster};

/// The transitions one named scenario exercised.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (stable; shown in the conformance report).
    pub name: &'static str,
    /// Every state-machine transition observed, in order.
    pub transitions: Vec<Transition>,
}

/// Runs every coverage scenario and returns the per-scenario reports.
///
/// The union of the reported transitions is the coverage set the
/// conformance gate checks `spec/protocol.toml` against.
pub fn run_all() -> Vec<ScenarioReport> {
    vec![
        cold_start_membership(),
        token_loss_reformation(),
        fault_and_reinstate("active-fault-reinstate", ReplicationStyle::Active),
        fault_and_reinstate("passive-fault-reinstate", ReplicationStyle::Passive),
        fault_and_reinstate(
            "active-passive-fault-reinstate",
            ReplicationStyle::ActivePassive { copies: 2 },
        ),
        crash_rejoin(),
        membership_edges(),
        passive_token_buffering(),
        style_switch(),
        ring_paxos_duty_cycle(),
    ]
}

// ----------------------------------------------------------------------
// Simulator scenarios
// ----------------------------------------------------------------------

/// Drains the transition records out of a finished simulation.
fn trace_transitions(cluster: &SimCluster) -> Vec<Transition> {
    cluster.trace().map(|log| log.transitions().map(|r| r.transition).collect()).unwrap_or_default()
}

/// Three nodes cold-start through the membership protocol: Gather →
/// consensus → commit rounds → recovery → Operational.
fn cold_start_membership() -> ScenarioReport {
    let mut cluster =
        SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).joining().with_seed(11));
    cluster.enable_trace(4096);
    cluster.run_until(SimTime::from_secs(2));
    ScenarioReport { name: "cold-start-membership", transitions: trace_transitions(&cluster) }
}

/// A running ring loses every network, declares token loss, and
/// reforms once the networks come back.
fn token_loss_reformation() -> ScenarioReport {
    let mut cluster =
        SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).with_seed(12));
    cluster.enable_trace(4096);
    for net in 0..2u8 {
        cluster.schedule_fault(
            SimTime::from_millis(100),
            FaultCommand::NetworkDown { net: NetworkId::new(net), down: true },
        );
        cluster.schedule_fault(
            SimTime::from_millis(700),
            FaultCommand::NetworkDown { net: NetworkId::new(net), down: false },
        );
    }
    cluster.run_until(SimTime::from_millis(2500));
    ScenarioReport { name: "token-loss-reformation", transitions: trace_transitions(&cluster) }
}

/// One network dies under a live workload; every node flags it, then
/// the operator repairs it and reinstates the network.
fn fault_and_reinstate(name: &'static str, style: ReplicationStyle) -> ScenarioReport {
    let nodes = 4usize;
    let mut cluster = SimCluster::new(ClusterConfig::new(nodes, style).with_seed(13));
    cluster.enable_trace(4096);
    cluster.schedule_fault(
        SimTime::from_millis(50),
        FaultCommand::NetworkDown { net: NetworkId::new(0), down: true },
    );
    // A steady workload keeps the reception monitors fed (the passive
    // styles detect faults by comparing per-network reception counts,
    // so detection latency scales with the message rate). Run until
    // every node has flagged the dead network, with a hard cap so a
    // regression cannot hang the gate.
    let all_flagged =
        |c: &SimCluster| (0..nodes).all(|n| c.faulty_networks(n).first().copied().unwrap_or(false));
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(6) {
        cluster.run_until(t);
        if all_flagged(&cluster) {
            break;
        }
        for node in 0..nodes {
            let _ = cluster.try_submit(node, Bytes::from_static(b"coverage-tick"));
        }
        t += SimDuration::from_millis(5);
    }
    // Repair the medium, then reinstate it wherever it was flagged.
    cluster.fault_now(FaultCommand::NetworkDown { net: NetworkId::new(0), down: false });
    for node in 0..nodes {
        if cluster.faulty_networks(node).first().copied().unwrap_or(false) {
            cluster.reinstate(node, NetworkId::new(0));
        }
    }
    let end = cluster.now() + SimDuration::from_millis(200);
    cluster.run_until(end);
    ScenarioReport { name, transitions: trace_transitions(&cluster) }
}

/// A node crashes out of a running ring and later reboots cold. The
/// survivors' consensus watchdog expires without hearing the corpse
/// (`Gather --PeerCrashTimeout--> Gather`) and reforms a smaller ring;
/// the reboot rejoins with a fresh identity epoch
/// (`Gather --CrashRejoin--> Gather`) and the full ring reassembles.
fn crash_rejoin() -> ScenarioReport {
    let mut cluster =
        SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).with_seed(14));
    cluster.enable_trace(8192);
    cluster.schedule_fault(
        SimTime::from_millis(100),
        FaultCommand::CrashNode { node: NodeId::new(2) },
    );
    cluster
        .schedule_fault(SimTime::from_secs(3), FaultCommand::RestartNode { node: NodeId::new(2) });
    cluster.run_until(SimTime::from_secs(6));
    ScenarioReport { name: "crash-rejoin", transitions: trace_transitions(&cluster) }
}

/// The replication degree K changes while the ring keeps running: the
/// operator raises and restores K by hand (`Steady --OperatorSetK-->`),
/// then a network fault drives the automatic policy — K steps down
/// when the fault is declared (`Steady --AutoDegrade-->`) and back up
/// when the repaired network is reinstated (`Steady --AutoRestore-->`).
fn style_switch() -> ScenarioReport {
    let nodes = 4usize;
    let mut cfg = ClusterConfig::new(nodes, ReplicationStyle::KOfN { copies: 2 })
        .with_networks(3)
        .with_seed(15);
    cfg.rrp.auto_degrade = true;
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_trace(4096);
    // Let the ring settle, then exercise the operator path on node 0:
    // K 2 -> 3 (full active) and back down to the K-of-N baseline.
    cluster.run_until(SimTime::from_millis(20));
    assert!(cluster.set_k(0, 3), "operator raise rejected");
    assert!(cluster.set_k(0, 2), "operator restore rejected");
    // Kill one network under a live workload; every node's divergence
    // monitors flag it and the auto-degrade policy drops K to 1.
    cluster.schedule_fault(
        SimTime::from_millis(50),
        FaultCommand::NetworkDown { net: NetworkId::new(0), down: true },
    );
    let all_degraded =
        |c: &SimCluster| (0..nodes).all(|n| c.faulty_networks(n).first().copied().unwrap_or(false));
    let mut t = SimTime::from_millis(20);
    while t < SimTime::from_secs(6) {
        cluster.run_until(t);
        if all_degraded(&cluster) {
            break;
        }
        for node in 0..nodes {
            let _ = cluster.try_submit(node, Bytes::from_static(b"coverage-tick"));
        }
        t += SimDuration::from_millis(5);
    }
    // Repair and reinstate: K climbs back to the baseline everywhere.
    cluster.fault_now(FaultCommand::NetworkDown { net: NetworkId::new(0), down: false });
    for node in 0..nodes {
        if cluster.faulty_networks(node).first().copied().unwrap_or(false) {
            cluster.reinstate(node, NetworkId::new(0));
        }
    }
    let end = cluster.now() + SimDuration::from_millis(200);
    cluster.run_until(end);
    ScenarioReport { name: "style-switch", transitions: trace_transitions(&cluster) }
}

// ----------------------------------------------------------------------
// Direct-drive scenarios
// ----------------------------------------------------------------------

/// The single packet a batch of SRP events asked the host to send.
fn only_packet(events: &[SrpEvent]) -> Packet {
    let mut pkts = events.iter().filter_map(|e| e.packet().cloned());
    let first = pkts.next().unwrap_or_else(|| unreachable!("scenario step produced no packet"));
    first.into_packet()
}

/// Unwraps a commit token out of a packet the scenarios just produced.
fn as_commit(pkt: Packet) -> CommitToken {
    if let Packet::Commit(ct) = pkt {
        ct
    } else {
        unreachable!("scenario step expected a commit token")
    }
}

/// A join broadcast from an outsider node.
fn join_from(sender: NodeId, ring_seq: u64) -> Packet {
    Packet::Join(JoinMessage { sender, ring_seq, proc_set: vec![sender], fail_set: Vec::new() })
}

/// Drives two fresh joining nodes through the join exchange until the
/// representative (node 0) reaches consensus and emits the round-0
/// commit token. Node 1 is left in Gather, awaiting that token.
fn pair_to_commit(cfg: &SrpConfig) -> (SrpNode, SrpNode, CommitToken) {
    let mut a = SrpNode::new_joining(NodeId::new(0), cfg.clone()).expect("valid SRP config");
    let mut b = SrpNode::new_joining(NodeId::new(1), cfg.clone()).expect("valid SRP config");
    let ja = only_packet(&a.start(0));
    let jb = only_packet(&b.start(0));
    // Each side learns of the other and re-advertises the merged set...
    let jb2 = only_packet(&b.handle_packet(0, ja.into()));
    let ja2 = only_packet(&a.handle_packet(0, jb.into()));
    // ...node 1 sees agreement and awaits the rep's commit token...
    b.handle_packet(0, ja2.into());
    // ...and node 0 (the rep) reaches consensus and builds it.
    let ct = as_commit(only_packet(&a.handle_packet(0, jb2.into())));
    (a, b, ct)
}

/// A node statically bootstrapped onto the two-member ring `{0, 1}`.
fn operational_node(cfg: &SrpConfig) -> SrpNode {
    let members = [NodeId::new(0), NodeId::new(1)];
    SrpNode::new_operational(NodeId::new(0), cfg.clone(), &members, 0).expect("valid bootstrap")
}

/// Walks the membership machine through every rare edge a healthy
/// simulated cluster almost never takes.
fn membership_edges() -> ScenarioReport {
    let cfg = SrpConfig::lan_defaults();
    let mut trs = Vec::new();

    // Commit --IncompleteRound--> Gather: the round-0 token returns to
    // the representative with node 1's received flag still unset.
    {
        let (mut a, _b, ct) = pair_to_commit(&cfg);
        a.handle_packet(0, Packet::Commit(ct).into());
        trs.extend(a.take_transitions());
    }

    // Commit --TokenLoss--> Gather: the commit token never returns.
    {
        let (mut a, _b, _ct) = pair_to_commit(&cfg);
        a.on_timer(cfg.token_loss_timeout + 1);
        trs.extend(a.take_transitions());
    }

    // Commit --JoinReceived--> Gather: an outsider's join arrives
    // while the commit token is in flight.
    {
        let (mut a, _b, _ct) = pair_to_commit(&cfg);
        a.handle_packet(0, join_from(NodeId::new(9), 7).into());
        trs.extend(a.take_transitions());
    }

    // Gather --CommitRound0--> Commit (node 1 adopts the token),
    // Commit --RoundComplete--> Recovery (the completed round returns
    // to the rep), then Recovery --JoinReceived--> Gather.
    {
        let (mut a, mut b, ct) = pair_to_commit(&cfg);
        let ct1 = as_commit(only_packet(&b.handle_packet(0, Packet::Commit(ct).into())));
        a.handle_packet(0, Packet::Commit(ct1).into());
        a.handle_packet(0, join_from(NodeId::new(9), 9).into());
        trs.extend(a.take_transitions());
        trs.extend(b.take_transitions());
    }

    // Recovery --TokenLoss--> Gather: the ring forms but the recovery
    // token never arrives.
    {
        let (mut a, mut b, ct) = pair_to_commit(&cfg);
        let ct1 = as_commit(only_packet(&b.handle_packet(0, Packet::Commit(ct).into())));
        a.handle_packet(0, Packet::Commit(ct1).into());
        a.on_timer(cfg.token_loss_timeout + 1);
        trs.extend(a.take_transitions());
    }

    // Operational --ForeignData--> Gather: traffic from a ring we have
    // never heard of (two healed partitions discovering each other).
    {
        let mut n = operational_node(&cfg);
        n.handle_packet(
            0,
            Packet::Data(DataPacket {
                ring: RingId::new(NodeId::new(9), 5),
                seq: Seq::new(1),
                sender: NodeId::new(9),
                chunks: Chunk::complete(0, Bytes::from_static(b"foreign")).into(),
            })
            .into(),
        );
        trs.extend(n.take_transitions());
    }

    // Operational --ForeignToken--> Gather: a token from a newer ring
    // we are not on.
    {
        let mut n = operational_node(&cfg);
        n.handle_packet(0, Packet::Token(Token::initial(RingId::new(NodeId::new(1), 5))).into());
        trs.extend(n.take_transitions());
    }

    // Operational --JoinReceived--> Gather: a joiner knocks.
    {
        let mut n = operational_node(&cfg);
        n.handle_packet(0, join_from(NodeId::new(9), 3).into());
        trs.extend(n.take_transitions());
    }

    // Operational --CommitRound0--> Commit: a newer ring's round-0
    // commit token that includes us (we missed its gather phase).
    {
        let mut n = operational_node(&cfg);
        let entry = |node: u16| MembEntry {
            node: NodeId::new(node),
            old_ring: RingId::new(NodeId::new(node), 0),
            my_aru: Seq::ZERO,
            high_delivered: Seq::ZERO,
            received_flag: false,
        };
        let ct = CommitToken {
            ring: RingId::new(NodeId::new(0), 2),
            round: 0,
            entries: vec![entry(0), entry(1)],
        };
        n.handle_packet(0, Packet::Commit(ct).into());
        trs.extend(n.take_transitions());
    }

    // Operational --TokenLoss--> Gather: the regular token vanishes.
    {
        let mut n = operational_node(&cfg);
        n.on_timer(cfg.token_loss_timeout + 1);
        trs.extend(n.take_transitions());
    }

    ScenarioReport { name: "membership-edges", transitions: trs }
}

/// Drives the passive token-buffering machine through all three of its
/// edges: buffer behind a gap, release when the gap closes, and
/// release on timer expiry.
fn passive_token_buffering() -> ScenarioReport {
    let mut layer =
        RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).expect("valid RRP config");
    let ring = RingId::new(NodeId::new(0), 1);
    let token_with_seq = |seq: u64| {
        let mut t = Token::initial(ring);
        t.seq = Seq::new(seq);
        Packet::Token(t)
    };
    // A token ahead of messages still missing: buffered.
    layer.on_packet(0, NetworkId::new(0), token_with_seq(3).into(), true);
    // The missing messages arrive: the gap closes, token released.
    layer.poll_release(1, false);
    // Buffer again, and this time let the release timer expire.
    layer.on_packet(2, NetworkId::new(1), token_with_seq(4).into(), true);
    if let Some(deadline) = layer.next_deadline() {
        layer.on_timer(deadline);
    }
    ScenarioReport { name: "passive-token-buffering", transitions: layer.take_transitions() }
}

/// Drives a raw three-node Ring Paxos ensemble through its whole duty
/// cycle: a pipelined burst (open → ring ack → last-acceptor decision
/// → drained), a coordinator retry after total Accept loss, and a
/// learner gap repaired end-to-end — with the repair request landing
/// once while the pipeline is idle and once while it is open.
fn ring_paxos_duty_cycle() -> ScenarioReport {
    use std::collections::VecDeque;

    use crate::backend::Broadcast;
    use crate::backends::RingPaxosNode;
    use crate::node::NodeOutput;
    use totem_wire::RingPaxosMsg;

    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let mut nodes: Vec<RingPaxosNode> =
        members.iter().map(|&id| RingPaxosNode::new(id, &members, 0, 0)).collect();

    /// Routes queued sends until the wire falls silent;
    /// `drop_decisions_to` models one learner missing every `Decision`
    /// multicast (the loss the gap-repair path exists for).
    fn route(
        nodes: &mut [RingPaxosNode],
        start: Vec<(usize, NodeOutput)>,
        now: u64,
        drop_decisions_to: Option<usize>,
    ) {
        let mut wire: VecDeque<(usize, NodeOutput)> = start.into();
        let mut guard = 0;
        while let Some((src, o)) = wire.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "ring-paxos scenario wire never drained");
            let NodeOutput::Send { dst, pkt, .. } = o else { continue };
            let targets: Vec<usize> = match dst {
                Some(d) => vec![d.as_u16() as usize],
                None => (0..nodes.len()).filter(|&i| i != src).collect(),
            };
            for t in targets {
                if drop_decisions_to == Some(t)
                    && matches!(pkt.packet(), Packet::RingPaxos(RingPaxosMsg::Decision { .. }))
                {
                    continue;
                }
                let mut out = Vec::new();
                nodes[t].on_packet_into(now, NetworkId::new(0), pkt.clone(), &mut out);
                wire.extend(out.into_iter().map(|x| (t, x)));
            }
        }
    }

    // Propose / Pipeline / RingForward / LastDecide / Drained: two
    // values from two proposers arrive back-to-back, so the second is
    // sequenced while the first instance is still circling the ring.
    let mut burst = Vec::new();
    {
        let mut out = Vec::new();
        nodes[1].submit_into(0, Bytes::from_static(b"rp-a"), &mut out).expect("empty queue");
        burst.extend(out.drain(..).map(|o| (1usize, o)));
        nodes[2].submit_into(0, Bytes::from_static(b"rp-b"), &mut out).expect("empty queue");
        burst.extend(out.drain(..).map(|o| (2usize, o)));
    }
    route(&mut nodes, burst, 0, None);

    // Retry: the coordinator's own Accept multicast is lost outright;
    // once the retransmit backoff expires its tick re-drives the ring
    // and the instance completes.
    {
        let mut lost = Vec::new();
        nodes[0].submit_into(1_000_000, Bytes::from_static(b"rp-c"), &mut lost).expect("queue");
        drop(lost);
        nodes[0].next_deadline().expect("an open instance arms the retry tick");
        let t = 42_000_000; // past the initial 40 ms retransmit backoff
        let mut out = Vec::new();
        nodes[0].on_timer_into(t, &mut out);
        route(&mut nodes, out.into_iter().map(|o| (0usize, o)).collect(), t, None);
    }

    // GapRepair + HoleFill while the pipeline is idle: node 1 misses a
    // Decision, waits out the grace period, and asks the coordinator.
    {
        let mut out = Vec::new();
        nodes[0].submit_into(60_000_000, Bytes::from_static(b"rp-d"), &mut out).expect("queue");
        route(&mut nodes, out.into_iter().map(|o| (0usize, o)).collect(), 60_000_000, Some(1));
        let mut learn = Vec::new();
        nodes[1].on_timer_into(80_000_000, &mut learn);
        route(&mut nodes, learn.into_iter().map(|o| (1usize, o)).collect(), 80_000_000, None);
    }

    // GapRepair + HoleFill while the pipeline is open: same loss, but
    // a further instance is in flight (its Accept withheld) when the
    // repair request lands.
    {
        let mut out = Vec::new();
        nodes[2].submit_into(90_000_000, Bytes::from_static(b"rp-e"), &mut out).expect("queue");
        route(&mut nodes, out.into_iter().map(|o| (2usize, o)).collect(), 90_000_000, Some(1));
        let mut held = Vec::new();
        nodes[0].submit_into(95_000_000, Bytes::from_static(b"rp-f"), &mut held).expect("queue");
        let mut learn = Vec::new();
        nodes[1].on_timer_into(110_000_000, &mut learn);
        route(&mut nodes, learn.into_iter().map(|o| (1usize, o)).collect(), 110_000_000, None);
        // Release the held Accept so the scenario ends quiesced.
        route(&mut nodes, held.into_iter().map(|o| (0usize, o)).collect(), 110_000_000, None);
    }

    let mut trs = Vec::new();
    for n in &mut nodes {
        trs.extend(n.take_transitions());
    }
    ScenarioReport { name: "ring-paxos-duty-cycle", transitions: trs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The full (machine, from, event, to) coverage the scenarios must
    /// deliver — kept in lockstep with `spec/protocol.toml`.
    const EXPECTED: &[(&str, &str, &str, &str)] = &[
        ("srp-membership", "Gather", "Restart", "Gather"),
        ("srp-membership", "Gather", "PeerCrashTimeout", "Gather"),
        ("srp-membership", "Gather", "CrashRejoin", "Gather"),
        ("srp-membership", "Gather", "ConsensusReached", "Commit"),
        ("srp-membership", "Gather", "CommitRound0", "Commit"),
        ("srp-membership", "Operational", "CommitRound0", "Commit"),
        ("srp-membership", "Operational", "TokenLoss", "Gather"),
        ("srp-membership", "Operational", "ForeignData", "Gather"),
        ("srp-membership", "Operational", "ForeignToken", "Gather"),
        ("srp-membership", "Operational", "JoinReceived", "Gather"),
        ("srp-membership", "Commit", "TokenLoss", "Gather"),
        ("srp-membership", "Commit", "JoinReceived", "Gather"),
        ("srp-membership", "Commit", "IncompleteRound", "Gather"),
        ("srp-membership", "Commit", "RoundComplete", "Recovery"),
        ("srp-membership", "Recovery", "TokenLoss", "Gather"),
        ("srp-membership", "Recovery", "JoinReceived", "Gather"),
        ("srp-membership", "Recovery", "RecoveryComplete", "Operational"),
        ("rrp-active-net", "Operative", "TokenTimeouts", "Faulty"),
        ("rrp-active-net", "Faulty", "Reinstate", "Operative"),
        ("rrp-passive-net", "Operative", "ReceptionLag", "Faulty"),
        ("rrp-passive-net", "Faulty", "Reinstate", "Operative"),
        ("rrp-active-passive-net", "Operative", "ReceptionLag", "Faulty"),
        ("rrp-active-passive-net", "Faulty", "Reinstate", "Operative"),
        ("rrp-passive-token", "Idle", "TokenBehindGap", "Buffered"),
        ("rrp-passive-token", "Buffered", "GapClosed", "Idle"),
        ("rrp-passive-token", "Buffered", "TimerExpiry", "Idle"),
        ("rrp-replication", "Steady", "OperatorSetK", "Steady"),
        ("rrp-replication", "Steady", "AutoDegrade", "Steady"),
        ("rrp-replication", "Steady", "AutoRestore", "Steady"),
        ("ring-paxos", "Idle", "Propose", "Open"),
        ("ring-paxos", "Open", "Pipeline", "Open"),
        ("ring-paxos", "Open", "Retry", "Open"),
        ("ring-paxos", "Open", "Drained", "Idle"),
        ("ring-paxos", "Idle", "HoleFill", "Idle"),
        ("ring-paxos", "Open", "HoleFill", "Open"),
        ("ring-paxos-ring", "Steady", "RingForward", "Steady"),
        ("ring-paxos-ring", "Steady", "LastDecide", "Steady"),
        ("ring-paxos-ring", "Steady", "GapRepair", "Steady"),
    ];

    #[test]
    fn scenarios_cover_every_documented_transition() {
        let reports = run_all();
        let covered: BTreeSet<(&str, &str, &str, &str)> = reports
            .iter()
            .flat_map(|r| r.transitions.iter())
            .map(|t| (t.machine, t.from, t.event, t.to))
            .collect();
        let missing: Vec<_> = EXPECTED.iter().filter(|want| !covered.contains(*want)).collect();
        assert!(missing.is_empty(), "transitions never exercised: {missing:?}");
    }

    #[test]
    fn membership_edges_are_deterministic() {
        let a = membership_edges();
        let b = membership_edges();
        assert_eq!(a.transitions, b.transitions);
        assert!(!a.transitions.is_empty());
    }
}
