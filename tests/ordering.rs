//! Cross-crate integration: total order, agreement and per-sender
//! FIFO over the full stack (SRP + RRP + simulator), for every
//! replication style.

use bytes::Bytes;
use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::SimTime;
use totem_wire::NodeId;

const STYLES: &[ReplicationStyle] = &[
    ReplicationStyle::Single,
    ReplicationStyle::Active,
    ReplicationStyle::Passive,
    ReplicationStyle::ActivePassive { copies: 2 },
];

fn orders(cluster: &SimCluster, nodes: usize) -> Vec<Vec<(NodeId, Bytes)>> {
    (0..nodes)
        .map(|n| cluster.delivered(n).iter().map(|d| (d.sender, d.data.clone())).collect())
        .collect()
}

fn assert_agreement(cluster: &SimCluster, nodes: usize, expect: usize) {
    let all = orders(cluster, nodes);
    for (n, o) in all.iter().enumerate() {
        assert_eq!(o.len(), expect, "node {n} delivered {} of {expect}", o.len());
        assert_eq!(o, &all[0], "node {n} disagrees on the total order");
    }
}

#[test]
fn every_style_reaches_identical_total_order() {
    for &style in STYLES {
        let mut cluster = SimCluster::new(ClusterConfig::new(4, style).with_seed(5));
        for round in 0..5 {
            for node in 0..4 {
                cluster.submit(node, Bytes::from(format!("{style}/{node}/{round}")));
            }
        }
        cluster.run_until(SimTime::from_secs(1));
        assert_agreement(&cluster, 4, 20);
    }
}

/// Submissions spread over simulated time, one round every 7 ms: every
/// node delivers all of them in one agreed order, and each sender's
/// messages in the order it sent them.
#[test]
fn per_sender_fifo_holds_under_interleaving() {
    // (nodes, style, seed, rounds, senders per round, first round)
    let inputs = [
        (3, ReplicationStyle::Passive, 6, 30, 1, SimTime::ZERO),
        (4, ReplicationStyle::Single, 11, 25, 4, SimTime::from_millis(50)),
    ];
    for (nodes, style, seed, rounds, burst, start) in inputs {
        let mut cluster = SimCluster::new(ClusterConfig::new(nodes, style).with_seed(seed));
        let mut t = start;
        for round in 0..rounds {
            cluster.run_until(t);
            for k in 0..burst {
                let i = round * burst + k;
                cluster.submit(i % nodes, Bytes::from(format!("{i:04}")));
            }
            t += totem_sim::SimDuration::from_millis(7);
        }
        cluster.run_until(SimTime::from_secs(1));
        assert_agreement(&cluster, nodes, rounds * burst);
        for sender in 0..nodes as u16 {
            let from: Vec<usize> = cluster
                .delivered(0)
                .iter()
                .filter(|d| d.sender == NodeId::new(sender))
                .map(|d| String::from_utf8_lossy(&d.data).parse().unwrap())
                .collect();
            assert!(
                from.windows(2).all(|w| w[0] < w[1]),
                "{style}: sender {sender} reordered: {from:?}"
            );
        }
    }
}

#[test]
fn large_fragmented_messages_survive_replication() {
    for &style in &[ReplicationStyle::Active, ReplicationStyle::Passive] {
        let mut cluster = SimCluster::new(ClusterConfig::new(3, style).with_seed(7));
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 249) as u8).collect();
        cluster.submit(1, Bytes::from(big.clone()));
        cluster.submit(2, Bytes::from_static(b"chaser"));
        cluster.run_until(SimTime::from_secs(1));
        assert_agreement(&cluster, 3, 2);
        let d = cluster.delivered(0).iter().find(|d| d.sender == NodeId::new(1)).unwrap();
        assert_eq!(&d.data[..], &big[..], "fragmented payload corrupted under {style}");
    }
}

#[test]
fn empty_and_tiny_messages_are_legal() {
    let mut cluster = SimCluster::new(ClusterConfig::new(2, ReplicationStyle::Active));
    cluster.submit(0, Bytes::new());
    cluster.submit(1, Bytes::from_static(b"x"));
    cluster.run_until(SimTime::from_millis(500));
    assert_agreement(&cluster, 2, 2);
    assert!(cluster.delivered(0).iter().any(|d| d.data.is_empty()));
}

#[test]
fn saturated_senders_share_the_window_fairly() {
    // Regression: window-based flow control must not let the members
    // visited early in each rotation starve the last one (the fair
    // per-member minimum share).
    let mut cluster = SimCluster::new(
        ClusterConfig::new(4, ReplicationStyle::Single).counters_only().with_seed(9),
    );
    cluster.enable_saturation(1000);
    cluster.run_until(SimTime::from_secs(1));
    let sent: Vec<u64> = (0..4).map(|n| cluster.srp_stats(n).packets_sent).collect();
    let min = *sent.iter().min().unwrap();
    let max = *sent.iter().max().unwrap();
    assert!(min > 0, "a sender was starved: {sent:?}");
    assert!(max - min <= max / 10, "senders should share the window within 10%: {sent:?}");
}

#[test]
fn sustained_saturation_preserves_agreement_for_all_styles() {
    for &style in STYLES {
        let mut cluster =
            SimCluster::new(ClusterConfig::new(3, style).counters_only().with_seed(8));
        cluster.enable_saturation(700);
        cluster.run_until(SimTime::from_millis(400));
        let per_node: Vec<u64> = (0..3).map(|n| cluster.node_counters(n).msgs).collect();
        // Counter-only mode: verify every node delivered a similar,
        // large number of messages (identical streams, minus edge lag).
        let min = *per_node.iter().min().unwrap();
        let max = *per_node.iter().max().unwrap();
        assert!(min > 500, "{style}: too few deliveries {per_node:?}");
        assert!(max - min < max / 5, "{style}: deliveries diverge too much {per_node:?}");
    }
}

#[test]
fn safe_delivery_guarantee_works_through_the_rrp() {
    // Safe delivery (deliver only once every member provably has the
    // message) composed with redundant networks.
    for &style in &[ReplicationStyle::Active, ReplicationStyle::Passive] {
        let mut cfg = ClusterConfig::new(3, style).with_seed(10);
        cfg.srp.guarantee = totem_srp::DeliveryGuarantee::Safe;
        let mut cluster = SimCluster::new(cfg);
        for i in 0..12 {
            cluster.submit(i % 3, Bytes::from(format!("safe/{style}/{i}")));
        }
        cluster.run_until(SimTime::from_secs(2));
        assert_agreement(&cluster, 3, 12);
    }
}
