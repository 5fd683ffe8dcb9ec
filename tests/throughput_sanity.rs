//! Coarse performance-shape gates from the paper's §8, run as tests
//! with short windows: who wins must never silently flip. The full
//! figure regeneration lives in `crates/bench`.

use totem_bench::{measure, MeasureConfig};
use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::{SimDuration, SimTime};

fn quick(style: ReplicationStyle, size: usize) -> f64 {
    let cfg = MeasureConfig::new(style, size).with_window(SimDuration::from_millis(300));
    measure(&cfg).kbytes_per_sec
}

#[test]
fn passive_beats_unreplicated_beats_nothing_at_1kb() {
    let single = quick(ReplicationStyle::Single, 1000);
    let active = quick(ReplicationStyle::Active, 1000);
    let passive = quick(ReplicationStyle::Passive, 1000);
    assert!(passive > single * 1.05, "passive {passive:.0} must beat single {single:.0}");
    assert!(active <= single * 1.02, "active {active:.0} must not beat single {single:.0}");
    assert!(passive < single * 2.0, "passive must stay below 2x (CPU-bound)");
}

#[test]
fn headline_rate_band_holds() {
    // Paper §2: >9,000 1-Kbyte msgs/sec at ~90% of a 100 Mbit/s
    // Ethernet. Allow a generous band; the point is catching
    // regressions that change the regime (e.g. flow control collapse).
    let cfg = MeasureConfig::new(ReplicationStyle::Single, 1000)
        .with_window(SimDuration::from_millis(300));
    let t = measure(&cfg);
    assert!(
        (8_000.0..12_000.0).contains(&t.msgs_per_sec),
        "unreplicated 1KB rate out of band: {:.0}",
        t.msgs_per_sec
    );
    assert!(t.utilization[0] > 0.75, "utilization collapsed: {:.2}", t.utilization[0]);
}

#[test]
fn packing_peak_at_700_bytes_survives() {
    let b500 = quick(ReplicationStyle::Single, 500);
    let b700 = quick(ReplicationStyle::Single, 700);
    let b900 = quick(ReplicationStyle::Single, 900);
    assert!(b700 > b500 && b700 > b900, "packing peak lost: {b500:.0}/{b700:.0}/{b900:.0}");
}

#[test]
fn six_node_testbed_shows_the_same_ordering() {
    let cpu = totem_sim::CpuConfig::pentium_iii_900();
    let m = |style| {
        let cfg = MeasureConfig::new(style, 1000)
            .with_nodes(6)
            .with_cpu(cpu.clone())
            .with_window(SimDuration::from_millis(300));
        measure(&cfg).kbytes_per_sec
    };
    let single = m(ReplicationStyle::Single);
    let active = m(ReplicationStyle::Active);
    let passive = m(ReplicationStyle::Passive);
    assert!(
        passive > single && active <= single * 1.02,
        "6-node ordering broken: single={single:.0} active={active:.0} passive={passive:.0}"
    );
}

#[test]
fn one_saturated_sender_is_not_paced_by_the_silent_members() {
    // A member with nothing of its own to send must relay the token at
    // once while another member has messages queued: a single
    // saturated sender then keeps most of the all-senders rate instead
    // of paying an idle hold at each of the five silent members.
    // 6 nodes × 2 networks, 1,000-byte messages, one simulated second.
    let cfg = MeasureConfig::new(ReplicationStyle::Active, 1000).with_nodes(6);
    let all = measure(&cfg).msgs_per_sec;
    let one = measure(&cfg.with_senders(1)).msgs_per_sec;
    assert!(one >= 0.80 * all, "one sender {one:.0} fell below 0.80 x all senders {all:.0}");
    // Where every member sends, nobody was ever idle: the figure is
    // the one measured before pacing looked at the ring's backlog.
    assert_eq!(all, 9_547.5, "all-senders rate moved");
}

#[test]
fn an_idle_ring_is_paced_exactly_as_before() {
    // Nothing queued anywhere: every visit finds `backlog == 0` and
    // holds the token, so an idle ring circulates as slowly as it did
    // when each member judged idleness by itself.
    let mut cluster =
        SimCluster::new(ClusterConfig::new(3, ReplicationStyle::Active).counters_only());
    cluster.run_until(SimTime::from_secs(1));
    let (handled, held) = (0..3)
        .map(|n| cluster.srp_stats(n))
        .fold((0, 0), |(h, k), s| (h + s.tokens_handled, k + s.tokens_held));
    assert_eq!(handled, 3_381, "idle token visits per simulated second moved");
    assert_eq!(held, handled, "every idle visit must arm the hold");
}
