//! Pins for the paper's §2 rule that a node frees a buffered message,
//! and delivers one safe, only once the token's `aru` has come around
//! twice at or past it. On a node's first token visit there is no
//! previous `aru`, so the rule must do neither. A node that discarded
//! on its first visit dropped what it had just broadcast before any
//! successor could lower `aru`; a member that lost that frame asked for
//! it on every rotation and nobody could serve it, so the member — and
//! under safe delivery the whole ring — stalled.
//!
//! Setup for every pin: four nodes, 2 % receive loss on every network,
//! saturating 1,000-byte traffic from t = 0, 1.5 simulated seconds.
//! The seeds are ones that stalled a node before the rule held.

use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::SimTime;
use totem_srp::DeliveryGuarantee;

const NODES: usize = 4;

fn run(style: ReplicationStyle, guarantee: DeliveryGuarantee, seed: u64) -> Vec<u64> {
    let mut cfg = ClusterConfig::new(NODES, style).counters_only().with_seed(seed);
    cfg.srp.guarantee = guarantee;
    for net in &mut cfg.sim.networks {
        *net = net.clone().with_rx_loss(0.02);
    }
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(1000);
    cluster.run_until(SimTime::from_millis(1500));
    (0..NODES).map(|n| cluster.node_counters(n).msgs).collect()
}

/// Every node delivers within 10 % of the busiest node.
fn assert_no_node_stalls(style: ReplicationStyle, guarantee: DeliveryGuarantee, seed: u64) {
    let counts = run(style, guarantee, seed);
    let max = *counts.iter().max().expect("nodes > 0");
    assert!(max > 1000, "{style} {guarantee:?} seed {seed}: ring stalled: {counts:?}");
    assert!(
        counts.iter().all(|&c| c * 10 >= max * 9),
        "{style} {guarantee:?} seed {seed}: a node stalled: {counts:?}"
    );
}

#[test]
fn unreplicated_agreed_survives_first_rotation_loss() {
    assert_no_node_stalls(ReplicationStyle::Single, DeliveryGuarantee::Agreed, 2);
}

#[test]
fn unreplicated_safe_survives_first_rotation_loss() {
    assert_no_node_stalls(ReplicationStyle::Single, DeliveryGuarantee::Safe, 2);
}

#[test]
fn passive_agreed_survives_first_rotation_loss() {
    assert_no_node_stalls(ReplicationStyle::Passive, DeliveryGuarantee::Agreed, 11);
}

#[test]
fn passive_safe_survives_first_rotation_loss() {
    assert_no_node_stalls(ReplicationStyle::Passive, DeliveryGuarantee::Safe, 11);
}

/// Active replication masks a single lost copy, so the lost frame is
/// never requested and this seed never stalled; the pin shows the rule
/// costs active nothing.
#[test]
fn active_safe_survives_first_rotation_loss() {
    assert_no_node_stalls(ReplicationStyle::Active, DeliveryGuarantee::Safe, 11);
}
