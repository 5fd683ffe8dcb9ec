//! The core throughput measurement: a saturating workload on a
//! simulated cluster, exactly as the paper ran it ("every node sent as
//! many messages as the Totem flow control mechanism permitted").

use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::ReplicationStyle;
use totem_sim::{CpuConfig, SimDuration, SimTime};

/// One measurement's parameters.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Replication style under test.
    pub style: ReplicationStyle,
    /// Application message size in bytes.
    pub msg_size: usize,
    /// CPU model (the paper's two testbeds differ here).
    pub cpu: CpuConfig,
    /// Simulated warmup before counting starts.
    pub warmup: SimDuration,
    /// Simulated measurement window.
    pub window: SimDuration,
    /// Simulation seed.
    pub seed: u64,
    /// Network-count override; `None` keeps the style's default (e.g.
    /// K-of-N sweeps pin N while K varies).
    pub networks: Option<usize>,
    /// Per-receiver packet loss in percent, applied to every network.
    pub loss_pct: f64,
    /// How many nodes (the first `k`) run the saturating workload;
    /// `None` saturates every node, as the paper did. The rest submit
    /// nothing and only relay the token.
    pub senders: Option<usize>,
}

impl MeasureConfig {
    /// Paper-like defaults: 4 nodes, Pentium II CPU model, 200 ms
    /// warmup, 1 s measurement.
    pub fn new(style: ReplicationStyle, msg_size: usize) -> Self {
        MeasureConfig {
            nodes: 4,
            style,
            msg_size,
            cpu: CpuConfig::pentium_ii_450(),
            warmup: SimDuration::from_millis(200),
            window: SimDuration::from_secs(1),
            seed: 42,
            networks: None,
            loss_pct: 0.0,
            senders: None,
        }
    }

    /// Overrides the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the network count (the style's default otherwise).
    pub fn with_networks(mut self, networks: usize) -> Self {
        self.networks = Some(networks);
        self
    }

    /// Overrides the CPU model.
    pub fn with_cpu(mut self, cpu: CpuConfig) -> Self {
        self.cpu = cpu;
        self
    }

    /// Overrides the measurement window.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Adds per-receiver packet loss (percent) on every network.
    pub fn with_loss(mut self, loss_pct: f64) -> Self {
        self.loss_pct = loss_pct;
        self
    }

    /// Saturates only the first `senders` nodes (clamped to the
    /// cluster size) instead of all of them.
    pub fn with_senders(mut self, senders: usize) -> Self {
        self.senders = Some(senders);
        self
    }
}

/// A measured operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Total system send rate in messages per second (what Figures 6
    /// and 7 plot).
    pub msgs_per_sec: f64,
    /// Utilized application bandwidth in Kbytes per second (what
    /// Figures 8 and 9 plot).
    pub kbytes_per_sec: f64,
    /// Mean end-to-end delivery latency in microseconds.
    pub latency_mean_us: f64,
    /// Mean utilization of each network's raw bandwidth over the
    /// window, in `[0, 1]`.
    pub utilization: Vec<f64>,
}

/// Runs one saturating-workload measurement.
///
/// Every node (or the first [`MeasureConfig::senders`]) keeps its send
/// queue full of `msg_size`-byte messages; after `warmup`, deliveries
/// are counted for `window`. Because each node delivers every message
/// exactly once, per-node deliveries are averaged to obtain the
/// system-wide send rate.
pub fn measure(cfg: &MeasureConfig) -> Throughput {
    let mut cluster_cfg =
        ClusterConfig::new(cfg.nodes, cfg.style).counters_only().with_seed(cfg.seed);
    if let Some(networks) = cfg.networks {
        cluster_cfg = cluster_cfg.with_networks(networks);
    }
    cluster_cfg.sim = cluster_cfg.sim.with_cpu(cfg.cpu.clone());
    if cfg.loss_pct > 0.0 {
        for net in &mut cluster_cfg.sim.networks {
            *net = net.clone().with_rx_loss(cfg.loss_pct / 100.0);
        }
    }
    let mut cluster = SimCluster::new(cluster_cfg);
    for node in 0..cfg.senders.unwrap_or(cfg.nodes).min(cfg.nodes) {
        cluster.enable_saturation_on(node, cfg.msg_size);
    }

    cluster.run_until(SimTime::ZERO + cfg.warmup);
    let before = cluster.counters();
    let wire_before: Vec<u64> = cluster.net_stats().iter().map(|(_, s)| s.wire_bytes).collect();

    cluster.run_until(SimTime::ZERO + cfg.warmup + cfg.window);
    let after = cluster.counters();
    let wire_after: Vec<u64> = cluster.net_stats().iter().map(|(_, s)| s.wire_bytes).collect();

    let secs = cfg.window.as_secs_f64();
    let nodes = cfg.nodes as f64;
    let msgs = (after.msgs - before.msgs) as f64 / nodes;
    let bytes = (after.bytes - before.bytes) as f64 / nodes;
    let latency_mean_us = {
        let samples = after.latency_samples - before.latency_samples;
        if samples > 0 {
            ((after.latency_sum_ns - before.latency_sum_ns) / samples as u128) as f64 / 1000.0
        } else {
            0.0
        }
    };
    let bandwidth_bps = 100_000_000f64; // the model is 100 Mbit/s per network
    let utilization = wire_after
        .iter()
        .zip(&wire_before)
        .map(|(a, b)| ((a - b) as f64 * 8.0) / (secs * bandwidth_bps))
        .collect();

    Throughput {
        msgs_per_sec: msgs / secs,
        kbytes_per_sec: bytes / secs / 1000.0,
        latency_mean_us,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreplicated_baseline_produces_sane_numbers() {
        let cfg = MeasureConfig::new(ReplicationStyle::Single, 1000)
            .with_window(SimDuration::from_millis(300));
        let t = measure(&cfg);
        assert!(t.msgs_per_sec > 1000.0, "implausibly low: {}", t.msgs_per_sec);
        assert!(t.kbytes_per_sec > 1000.0);
        assert!(t.latency_mean_us > 0.0);
        assert_eq!(t.utilization.len(), 1);
        assert!(t.utilization[0] > 0.3, "network should be well utilized");
    }

    /// The unified engine's degeneracy, observed end to end on the
    /// saturating workload: on three networks, K=1 is the passive
    /// algorithm and K=3 the active one, to the exact message count.
    /// Prints the full K sweep (the EXPERIMENTS.md row).
    #[test]
    fn k_sweep_on_three_networks_matches_the_degenerate_styles() {
        let run = |style| {
            let cfg = MeasureConfig::new(style, 1000)
                .with_networks(3)
                .with_window(SimDuration::from_millis(300));
            measure(&cfg)
        };
        let mut sweep = Vec::new();
        for k in 1..=3u8 {
            let t = run(ReplicationStyle::KOfN { copies: k });
            println!(
                "K={k} of N=3: {:.0} msgs/sec, {:.0} KB/sec, {:.0} us",
                t.msgs_per_sec, t.kbytes_per_sec, t.latency_mean_us
            );
            sweep.push(t);
        }
        let passive = run(ReplicationStyle::Passive);
        let active = run(ReplicationStyle::Active);
        assert_eq!(sweep[0].msgs_per_sec, passive.msgs_per_sec, "K=1 must degenerate to passive");
        assert_eq!(sweep[2].msgs_per_sec, active.msgs_per_sec, "K=3 must degenerate to active");
        assert!(
            sweep[0].msgs_per_sec > sweep[2].msgs_per_sec,
            "fewer copies must buy throughput: K=1 {} vs K=3 {}",
            sweep[0].msgs_per_sec,
            sweep[2].msgs_per_sec
        );
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let cfg = MeasureConfig::new(ReplicationStyle::Active, 500)
            .with_window(SimDuration::from_millis(200));
        let a = measure(&cfg);
        let b = measure(&cfg);
        assert_eq!(a.msgs_per_sec, b.msgs_per_sec);
        assert_eq!(a.kbytes_per_sec, b.kbytes_per_sec);
    }
}
