//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! Not part of the paper's evaluation — these probe the knobs the
//! paper fixes by fiat:
//!
//! 1. the passive token timer (the paper chose 10 ms);
//! 2. active-passive K on four networks (the paper could not measure
//!    active-passive at all — it had only two networks);
//! 3. loss sensitivity: how each style degrades as per-receiver loss
//!    rises (the motivation for replication in the first place);
//! 4. delivery disruption during a network failure: the worst
//!    inter-delivery gap per style, quantifying the paper's claim
//!    that active replication masks loss without retransmission
//!    delay;
//! 5. throughput vs number of saturated senders: what a ring keeps
//!    when only some members have messages and the rest merely relay
//!    the token.
//!
//! Run with `cargo bench -p totem-bench --bench ablation`;
//! set `TOTEM_QUICK=1` for shorter windows.

use bytes::Bytes;
use totem_bench::{measure, MeasureConfig};
use totem_cluster::{ClusterConfig, SimCluster};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_sim::{FaultCommand, NetworkConfig, SimConfig, SimDuration, SimTime};
use totem_wire::NetworkId;

struct Point {
    msgs_per_sec: f64,
    latency_mean_us: f64,
}

/// Measures style/config under optional per-receiver loss.
fn run(
    style: ReplicationStyle,
    networks: usize,
    rx_loss: f64,
    passive_timeout_ms: Option<u64>,
    window: SimDuration,
) -> Point {
    let nodes = 4;
    let mut cfg = ClusterConfig::new(nodes, style).counters_only().with_seed(7);
    if cfg.networks != networks {
        cfg = cfg.with_networks(networks);
    }
    let mut rrp = RrpConfig::new(style, networks);
    if let Some(ms) = passive_timeout_ms {
        rrp.passive_token_timeout = ms * 1_000_000;
    }
    cfg.rrp = rrp;
    let net = NetworkConfig::ethernet_100mbit().with_rx_loss(rx_loss);
    cfg.sim = SimConfig::lan(nodes, networks).with_seed(7);
    cfg.sim.networks = vec![net; networks];
    let mut cluster = SimCluster::new(cfg);
    cluster.enable_saturation(1000);

    let warmup = SimDuration::from_millis(200);
    cluster.run_until(SimTime::ZERO + warmup);
    let before = cluster.counters();
    cluster.run_until(SimTime::ZERO + warmup + window);
    let after = cluster.counters();
    let secs = window.as_secs_f64();
    let msgs = (after.msgs - before.msgs) as f64 / nodes as f64 / secs;
    let lat = {
        let n = after.latency_samples - before.latency_samples;
        if n > 0 {
            ((after.latency_sum_ns - before.latency_sum_ns) / n as u128) as f64 / 1000.0
        } else {
            0.0
        }
    };
    Point { msgs_per_sec: msgs, latency_mean_us: lat }
}

fn main() {
    let quick = std::env::var_os("TOTEM_QUICK").is_some();
    let window = if quick { SimDuration::from_millis(200) } else { SimDuration::from_millis(800) };

    println!("== Ablation 1: passive token timer (paper fixed it at 10 ms) ==");
    println!("   4 nodes, 2 networks, 1 Kbyte messages, 2% per-receiver loss");
    println!("{:>12} | {:>12} | {:>14}", "timer (ms)", "msgs/sec", "mean lat (us)");
    for ms in [1u64, 2, 5, 10, 20, 50] {
        let p = run(ReplicationStyle::Passive, 2, 0.02, Some(ms), window);
        println!("{:>12} | {:>12.0} | {:>14.0}", ms, p.msgs_per_sec, p.latency_mean_us);
    }

    println!();
    println!("== Ablation 2: active-passive K on four networks ==");
    println!("   (the paper had only two networks and could not run this)");
    println!("{:>24} | {:>12} | {:>14}", "configuration", "msgs/sec", "mean lat (us)");
    let passive4 = run(ReplicationStyle::Passive, 4, 0.0, None, window);
    println!(
        "{:>24} | {:>12.0} | {:>14.0}",
        "passive (K=1)", passive4.msgs_per_sec, passive4.latency_mean_us
    );
    for k in [2u8, 3] {
        let p = run(ReplicationStyle::ActivePassive { copies: k }, 4, 0.0, None, window);
        println!(
            "{:>24} | {:>12.0} | {:>14.0}",
            format!("active-passive K={k}"),
            p.msgs_per_sec,
            p.latency_mean_us
        );
    }
    let active4 = run(ReplicationStyle::Active, 4, 0.0, None, window);
    println!(
        "{:>24} | {:>12.0} | {:>14.0}",
        "active (K=N)", active4.msgs_per_sec, active4.latency_mean_us
    );

    println!();
    println!("== Ablation 3: loss sensitivity (1 Kbyte messages) ==");
    println!("{:>10} | {:>14} | {:>14} | {:>14}", "rx loss", "single", "active", "passive");
    for loss in [0.0, 0.005, 0.02, 0.05] {
        let s = run(ReplicationStyle::Single, 1, loss, None, window);
        let a = run(ReplicationStyle::Active, 2, loss, None, window);
        let p = run(ReplicationStyle::Passive, 2, loss, None, window);
        println!(
            "{:>9.1}% | {:>7.0} msgs/s | {:>7.0} msgs/s | {:>7.0} msgs/s",
            loss * 100.0,
            s.msgs_per_sec,
            a.msgs_per_sec,
            p.msgs_per_sec
        );
    }
    println!();
    println!("expected: active masks loss (flat across the sweep); passive and");
    println!("single pay retransmission delays as loss grows.");

    println!();
    println!("== Ablation 4: delivery disruption during a network failure ==");
    println!("   steady 2 ms stream; network 0 dies at t=1 s; the worst");
    println!("   inter-delivery gap around the failure quantifies the blip");
    println!("{:>24} | {:>16} | {:>18}", "style", "max gap (ms)", "steady gap (ms)");
    for style in [ReplicationStyle::Active, ReplicationStyle::Passive] {
        let (blip, steady) = failover_blip(style);
        println!("{:>24} | {:>16.1} | {:>18.1}", style.to_string(), blip, steady);
    }
    println!();
    println!("expected: active rides through the failure at its steady cadence");
    println!("(loss masked, no retransmission delay — the §4/§5 claim); passive");
    println!("stalls for token-retransmission intervals until its monitors");
    println!("declare the network faulty and route around it.");

    println!();
    println!("== Ablation 5: throughput vs number of saturated senders ==");
    println!("   the first k members saturate, the rest only relay the token;");
    println!("   msgs/sec (share of the all-senders rate)");
    println!();
    println!("| nodes | msg bytes | style | k = 1 | k = 2 | k = n |");
    println!("|---:|---:|---|---:|---:|---:|");
    for nodes in [3usize, 4, 6] {
        for size in [100usize, 1000] {
            for style in
                [ReplicationStyle::Single, ReplicationStyle::Active, ReplicationStyle::Passive]
            {
                let rate = |senders| {
                    let cfg = MeasureConfig::new(style, size).with_nodes(nodes).with_window(window);
                    measure(&cfg.with_senders(senders)).msgs_per_sec
                };
                let all = rate(nodes);
                let cell = |k| {
                    let some = rate(k);
                    format!("{some:.0} ({:.2})", some / all)
                };
                println!("| {nodes} | {size} | {style} | {} | {} | {all:.0} |", cell(1), cell(2));
            }
        }
    }
    println!();
    println!("expected: a silent member costs a token hop, not an idle hold, so");
    println!("one sender keeps most of the all-senders rate at every ring size.");
}

/// Returns (max inter-delivery gap around the fault, steady-state gap
/// before it), in milliseconds, observed at node 2.
fn failover_blip(style: ReplicationStyle) -> (f64, f64) {
    let mut cluster = SimCluster::new(ClusterConfig::new(4, style).with_seed(17));
    cluster.schedule_fault(
        SimTime::from_secs(1),
        FaultCommand::NetworkDown { net: NetworkId::new(0), down: true },
    );
    let mut t = SimTime::ZERO;
    let mut i = 0u32;
    while t < SimTime::from_secs(3) {
        cluster.run_until(t);
        let _ = cluster.try_submit(0, Bytes::from(format!("s{i}")));
        i += 1;
        t += SimDuration::from_millis(2);
    }
    cluster.run_until(SimTime::from_secs(4));
    let times = cluster.delivery_times(2);
    let gap_in = |lo_ms: u64, hi_ms: u64| -> f64 {
        let lo = lo_ms * 1_000_000;
        let hi = hi_ms * 1_000_000;
        times
            .windows(2)
            .filter(|w| w[1] >= lo && w[0] <= hi)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0) as f64
            / 1e6
    };
    (gap_in(900, 2500), gap_in(200, 900))
}
