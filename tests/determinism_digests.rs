//! The determinism contract: four fixed-seed simulations, each folded
//! into one FNV-1a digest and pinned to a constant. A change that
//! moves one delivered byte, one delivery time, one configuration
//! change or one wire-level counter turns the matching pin red — in
//! any build, in any process.
//!
//! A pin moves only on purpose: a PR that changes protocol behaviour
//! re-baselines the constant once and says in EXPERIMENTS.md which
//! run moved and why.

use bytes::Bytes;
use totem_bench::{measure, MeasureConfig};
use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::{FaultCommand, SimDuration, SimTime};
use totem_wire::NetworkId;

/// Incremental FNV-1a 64-bit hash; tiny, dependency-free and stable
/// across builds, which is all a drift detector needs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Folds everything externally observable about a finished run into
/// one digest: per-node delivered messages (sender, seq, ring, full
/// payload bytes), delivery times, configuration changes, and the
/// wire-level [`totem_sim::SimStats`] via their `Debug` rendering.
fn digest_cluster(cluster: &SimCluster, nodes: usize) -> u64 {
    let mut h = Fnv::new();
    for node in 0..nodes {
        h.u64(node as u64);
        for d in cluster.delivered(node) {
            h.u64(d.sender.index() as u64);
            h.u64(d.seq.as_u64());
            h.str(&format!("{:?}", d.ring));
            h.u64(d.data.len() as u64);
            h.bytes(&d.data);
        }
        for &t in cluster.delivery_times(node) {
            h.u64(t);
        }
        h.str(&format!("{:?}", cluster.configs(node)));
    }
    h.str(&format!("{:?}", cluster.net_stats()));
    h.0
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name} digest moved: got {got:016x}, pinned {want:016x}");
}

/// Mixed-size submit scenario: five nodes, passive replication, a
/// deterministic payload schedule that exercises packing (tiny
/// messages), the fragmentation path (multi-frame messages), and idle
/// gaps.
#[test]
fn scenario_digest() {
    const NODES: usize = 5;
    let cfg = ClusterConfig::new(NODES, ReplicationStyle::Passive).counters_only().with_seed(7);
    let mut cluster = SimCluster::new(cfg);
    let mut payload = Vec::new();
    for step in 0u64..200 {
        cluster.run_until(SimTime::ZERO + SimDuration::from_micros(250 * step));
        // Sizes cycle through packing-relevant shapes, including one
        // above the unfragmented maximum.
        let size = match step % 5 {
            0 => 64,
            1 => 700,
            2 => totem_wire::frame::MAX_UNFRAGMENTED_MSG + 100,
            3 => 1,
            _ => 3000,
        };
        payload.clear();
        payload.extend((0..size).map(|i| (step as usize * 31 + i) as u8));
        let node = (step as usize) % NODES;
        let _ = cluster.try_submit(node, Bytes::from(payload.clone()));
    }
    cluster.run_until(SimTime::ZERO + SimDuration::from_millis(400));
    assert_digest("scenario", digest_cluster(&cluster, NODES), 0xfec6_e2a6_d7d3_6085);
}

/// Chaos-style replay: a fixed fault schedule (crash + restart, a
/// network outage, a partition that heals) under saturating traffic.
#[test]
fn chaos_digest() {
    const NODES: usize = 4;
    let cfg = ClusterConfig::new(NODES, ReplicationStyle::Active).counters_only().with_seed(99);
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(700);

    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    cluster.schedule_fault(at(50), FaultCommand::CrashNode { node: totem_wire::NodeId::new(2) });
    cluster.schedule_fault(at(120), FaultCommand::RestartNode { node: totem_wire::NodeId::new(2) });
    cluster
        .schedule_fault(at(200), FaultCommand::NetworkDown { net: NetworkId::new(1), down: true });
    cluster
        .schedule_fault(at(280), FaultCommand::NetworkDown { net: NetworkId::new(1), down: false });
    cluster.schedule_fault(
        at(350),
        FaultCommand::Partition { net: NetworkId::new(0), groups: vec![0, 0, 1, 1] },
    );
    cluster.schedule_fault(
        at(450),
        FaultCommand::Partition { net: NetworkId::new(0), groups: vec![] },
    );

    cluster.run_until(at(600));
    assert_digest("chaos", digest_cluster(&cluster, NODES), 0x1baf_cc1a_4736_8a95);
}

/// Active-passive (K=2 of N=3) replay: saturating traffic with one
/// network dead for part of the run, exercising the K-copy token gate
/// and the sliding send window under loss. Together with
/// [`scenario_digest`] (passive) and [`chaos_digest`] (active) this
/// pins the delivered-byte behaviour of all three legacy replication
/// styles.
#[test]
fn ap_digest() {
    const NODES: usize = 4;
    let cfg = ClusterConfig::new(NODES, ReplicationStyle::ActivePassive { copies: 2 })
        .counters_only()
        .with_seed(17);
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(700);

    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    cluster
        .schedule_fault(at(150), FaultCommand::NetworkDown { net: NetworkId::new(2), down: true });
    cluster
        .schedule_fault(at(300), FaultCommand::NetworkDown { net: NetworkId::new(2), down: false });

    cluster.run_until(at(500));
    assert_digest("ap", digest_cluster(&cluster, NODES), 0xe2ed_ca9d_ea92_13e0);
}

const NODE_COUNTS: [usize; 3] = [3, 5, 8];

/// Unloaded agreement latency: one message submitted at an otherwise
/// idle cluster, timed from submit to its delivery at the *slowest*
/// node, averaged over a few spaced probes. The sender must wait for
/// the token to come around before it may send.
fn unloaded_latency_us(nodes: usize) -> f64 {
    const PROBES: u64 = 5;
    let cfg = ClusterConfig::new(nodes, ReplicationStyle::Single).with_seed(7);
    let mut cluster = SimCluster::new(cfg);
    cluster.run_until(SimTime::from_millis(100));
    let mut total = 0u64;
    for k in 0..PROBES {
        let at = SimTime::from_millis(100 + 50 * k);
        cluster.run_until(at);
        cluster.submit(nodes - 1, Bytes::from(format!("probe-{k}")));
        let deadline = at + SimDuration::from_millis(49);
        let mut t = at;
        while !(0..nodes).all(|n| cluster.delivered(n).len() as u64 > k) {
            assert!(t < deadline, "probe {k} undelivered after 49 ms");
            t += SimDuration::from_millis(1);
            cluster.run_until(t);
        }
        let slowest =
            (0..nodes).map(|n| cluster.delivery_times(n)[k as usize]).max().expect("nodes > 0");
        total += slowest - at.as_nanos();
    }
    total as f64 / PROBES as f64 / 1000.0
}

/// The measurement grid on one network under the saturating workload,
/// sweeping node count × per-receiver loss × message size (12 cells of
/// rate and mean latency over a 300 ms window), plus the
/// unloaded-latency probe per node count. It is the one pin on
/// `totem_bench::measure`. Every figure is simulated time, so the
/// metric bits are exact.
#[test]
fn measure_grid_digest() {
    let mut h = Fnv::new();
    for nodes in NODE_COUNTS {
        for loss_pct in [0.0, 1.0] {
            for size in [64, 1024] {
                let cfg = MeasureConfig::new(ReplicationStyle::Single, size)
                    .with_nodes(nodes)
                    .with_loss(loss_pct)
                    .with_window(SimDuration::from_millis(300));
                let t = measure(&cfg);
                h.u64(t.msgs_per_sec.to_bits());
                h.u64(t.latency_mean_us.to_bits());
            }
        }
    }
    for nodes in NODE_COUNTS {
        h.u64(unloaded_latency_us(nodes).to_bits());
    }
    assert_digest("measure grid", h.0, 0xfbb3_6eb7_4231_af8f);
}
