//! The `totem` subcommands.

use bytes::Bytes;

use totem_bench::{fig6, fig7, fig8, fig9, measure, run_figure, MeasureConfig};
use totem_cluster::{
    collect_deliveries, spawn_node, ClusterConfig, SimCluster, StartMode, TotemNode,
};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_sim::{FaultCommand, NetworkConfig, SimConfig, SimDuration, SimTime};
use totem_srp::SrpConfig;
use totem_transport::UdpTopology;
use totem_wire::{NetworkId, NodeId};

use crate::args::Flags;

/// Top-level usage text.
pub const USAGE: &str = "totem — the Totem redundant ring protocol, on a simulated testbed

usage:
  totem throughput [--nodes N] [--replication S] [--backend B] [--size BYTES]
                   [--window-ms MS]
        one saturating-workload measurement (msgs/sec, KB/sec, latency)
  totem compare    [--nodes N] [--size BYTES]
        all four replication styles side by side
  totem figures    [--quick]
        regenerate Figures 6-9 of the paper, with shape checks
  totem failover   [--replication S] [--nodes N]
        kill a network mid-run; show transparency + fault reports
  totem soak       [--seconds S] [--loss PCT] [--replication S] [--backend B]
                   [--seed X]
        randomized lossy run with safety verification (the
        self-stabilization soak is `cargo xtask soak`)
  totem scale      [--replication S] [--backend B] [--size BYTES] [--max-nodes N]
        ring-size sweep: throughput and latency as the ring grows
  totem udp        [--nodes N] [--networks M] [--replication S] [--msgs K]
                   [--size BYTES]
        real sockets: a loopback UDP cluster under the threaded
        runtime; verifies one agreed total order, prints msgs/sec

replication styles (--replication):
  single | active | passive | ap:K | k-of-n:K     (default: active)

atomic-broadcast backends (--backend, on throughput / scale / soak):
  totem | ring-paxos      (default: totem; ring-paxos is a fixed-
  coordinator, single-network backend — use --replication single
  for an apples-to-apples comparison)";

/// `totem throughput`.
pub fn throughput(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let nodes: usize = flags.get("nodes", 4)?;
    let size: usize = flags.get("size", 1000)?;
    let window_ms: u64 = flags.get("window-ms", 1000)?;
    let style = flags.style()?;
    let backend = flags.backend()?;

    let cfg = MeasureConfig::new(style, size)
        .with_nodes(nodes)
        .with_backend(backend)
        .with_window(SimDuration::from_millis(window_ms));
    let t = measure(&cfg);
    println!("{backend} / {style}, {nodes} nodes, {size}-byte messages, {window_ms} ms window:");
    println!("  send rate    {:>10.0} msgs/sec", t.msgs_per_sec);
    println!("  bandwidth    {:>10.0} Kbytes/sec", t.kbytes_per_sec);
    println!("  mean latency {:>10.0} µs", t.latency_mean_us);
    for (i, u) in t.utilization.iter().enumerate() {
        println!("  net{i} utilization {:>6.1}%", u * 100.0);
    }
    Ok(())
}

/// `totem compare`.
pub fn compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let nodes: usize = flags.get("nodes", 4)?;
    let size: usize = flags.get("size", 1000)?;
    println!("{:<36} {:>12} {:>14} {:>12}", "style", "msgs/sec", "Kbytes/sec", "latency µs");
    for style in [
        ReplicationStyle::Single,
        ReplicationStyle::Active,
        ReplicationStyle::Passive,
        ReplicationStyle::ActivePassive { copies: 2 },
    ] {
        let cfg = MeasureConfig::new(style, size)
            .with_nodes(nodes)
            .with_window(SimDuration::from_millis(600));
        let t = measure(&cfg);
        println!(
            "{:<36} {:>12.0} {:>14.0} {:>12.0}",
            style.to_string(),
            t.msgs_per_sec,
            t.kbytes_per_sec,
            t.latency_mean_us
        );
    }
    Ok(())
}

/// `totem figures`.
pub fn figures(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.has("quick") {
        std::env::set_var("TOTEM_QUICK", "1");
    }
    let mut all = true;
    for spec in [fig6(), fig7(), fig8(), fig9()] {
        all &= run_figure(&spec);
    }
    if all {
        println!("\nall figures reproduced: every shape check passed");
        Ok(())
    } else {
        Err("one or more shape checks failed".into())
    }
}

/// `totem failover`.
pub fn failover(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let nodes: usize = flags.get("nodes", 4)?;
    let style = flags.style()?;
    if style == ReplicationStyle::Single {
        return Err(
            "fail-over needs a replicated style (active, passive, ap:K, or k-of-n:K)".into()
        );
    }
    let mut cluster = SimCluster::new(ClusterConfig::new(nodes, style));
    let dies = SimTime::from_secs(1);
    cluster.schedule_fault(dies, FaultCommand::NetworkDown { net: NetworkId::new(0), down: true });
    println!("{style}, {nodes} nodes; network 0 dies at t=1.000s\n");

    let mut t = SimTime::ZERO;
    let mut sent = 0u32;
    while t < SimTime::from_secs(3) {
        cluster.run_until(t);
        for node in 0..nodes {
            cluster.submit(node, Bytes::from(format!("tick-{sent}-node-{node}")));
        }
        sent += nodes as u32;
        t += SimDuration::from_millis(50);
    }
    cluster.run_until(SimTime::from_secs(5));

    let reference: Vec<&[u8]> = cluster.delivered(0).iter().map(|d| &d.data[..]).collect();
    for n in 1..nodes {
        let order: Vec<&[u8]> = cluster.delivered(n).iter().map(|d| &d.data[..]).collect();
        if order != reference {
            return Err(format!("node {n} disagrees on the delivery order"));
        }
    }
    println!(
        "delivered {} / {} messages at every node, one agreed order, zero membership changes",
        reference.len(),
        sent
    );
    println!("\nfault reports (the operator's view):");
    for n in 0..nodes {
        for report in cluster.faults(n) {
            println!("  node {n} @ t+{:.3}s: {report}", report.at as f64 / 1e9);
        }
    }
    if reference.len() as u32 == sent {
        Ok(())
    } else {
        Err("messages were lost across the fail-over".into())
    }
}

/// `totem scale`.
pub fn scale(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let style = flags.style()?;
    let backend = flags.backend()?;
    let size: usize = flags.get("size", 1000)?;
    let max_nodes: usize = flags.get("max-nodes", 12)?;
    println!("{backend} / {style}, {size}-byte messages, ring-size sweep:");
    println!("{:>6} | {:>12} | {:>14}", "nodes", "msgs/sec", "mean lat (µs)");
    let mut nodes = 2;
    while nodes <= max_nodes {
        let cfg = MeasureConfig::new(style, size)
            .with_nodes(nodes)
            .with_backend(backend)
            .with_window(SimDuration::from_millis(400));
        let t = measure(&cfg);
        println!("{:>6} | {:>12.0} | {:>14.0}", nodes, t.msgs_per_sec, t.latency_mean_us);
        nodes += if nodes < 4 { 1 } else { 4 };
    }
    Ok(())
}

/// `totem udp` — the real-socket counterpart of `totem throughput`:
/// a loopback UDP cluster under the threaded runtime.
pub fn udp(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let nodes: usize = flags.get("nodes", 3)?;
    let networks: usize = flags.get("networks", 2)?;
    let msgs: u64 = flags.get("msgs", 300)?;
    let size: usize = flags.get("size", 256)?;
    let style = flags.style()?;
    if nodes < 2 {
        return Err("--nodes must be at least 2".into());
    }
    if networks == 0 {
        return Err("--networks must be at least 1".into());
    }

    let bound = UdpTopology::bind_ephemeral(nodes, networks)
        .map_err(|e| format!("binding loopback sockets: {e}"))?;
    println!(
        "{style}, {nodes} nodes x {networks} networks over loopback UDP; node 0 net 0 at {}",
        bound.topology().addr(NodeId::new(0), NetworkId::new(0))
    );

    let members: Vec<NodeId> = (0..nodes as u16).map(NodeId::new).collect();
    let handles: Vec<_> = bound
        .into_transports()
        .map_err(|e| format!("adopting sockets: {e}"))?
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let node = TotemNode::new_operational(
                NodeId::new(i as u16),
                &members,
                SrpConfig::default(),
                RrpConfig::new(style, networks),
                0,
            );
            let mode = if i == 0 { StartMode::Representative } else { StartMode::Member };
            spawn_node(node, transport, mode)
        })
        .collect();

    // Submit round-robin, then wait for every node to deliver all of
    // them in one agreed order. The wall clock lives inside
    // `collect_deliveries` (totem-cluster is a real-time crate; this
    // one must stay free of wall-clock reads for the sim lints).
    for i in 0..msgs {
        let mut payload = vec![0u8; size.max(16)];
        payload[..8].copy_from_slice(&i.to_be_bytes());
        handles[(i % nodes as u64) as usize].submit(Bytes::from(payload));
    }
    let (orders, elapsed) =
        collect_deliveries(&handles, msgs as usize, std::time::Duration::from_secs(60));
    for h in handles {
        h.shutdown();
    }
    for (i, o) in orders.iter().enumerate() {
        if (o.len() as u64) < msgs {
            return Err(format!("node {i} delivered {} of {msgs} before the deadline", o.len()));
        }
        if o != &orders[0] {
            return Err(format!("node {i} disagrees on the delivery order"));
        }
    }
    println!(
        "delivered {msgs} messages at every node in one agreed order: \
         {:.0} msgs/sec end-to-end ({:.1} ms total)",
        msgs as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}

/// `totem soak`: one seeded lossy run, checked for one agreed order
/// with no duplicates and nothing lost. The self-stabilization soak
/// (fault and corruption drip, rolling oracle) is `cargo xtask soak`.
pub fn soak(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let seconds: u64 = flags.get("seconds", 10)?;
    let loss_pct: f64 = flags.get("loss", 1.0)?;
    let seed: u64 = flags.get("seed", 42)?;
    let style = flags.style()?;
    let backend = flags.backend()?;
    let nodes = 4usize;

    let mut cfg = ClusterConfig::new(nodes, style).with_seed(seed).with_backend(backend);
    let networks = cfg.networks;
    let mut sim = SimConfig::lan(nodes, networks);
    sim.networks = vec![NetworkConfig::ethernet_100mbit().with_rx_loss(loss_pct / 100.0); networks];
    sim.seed = seed;
    cfg.sim = sim;
    let mut cluster = SimCluster::new(cfg);

    println!(
        "{backend} / {style}, {nodes} nodes, {loss_pct}% per-receiver loss, \
         seed {seed}, {seconds}s simulated"
    );
    let mut t = SimTime::ZERO;
    let mut submitted = 0u64;
    let end = SimTime::from_secs(seconds);
    while t < end {
        cluster.run_until(t);
        let node = (submitted % nodes as u64) as usize;
        if cluster.try_submit(node, Bytes::from(format!("soak-{submitted:08}"))).is_ok() {
            submitted += 1;
        }
        t += SimDuration::from_millis(5);
    }
    // Drain.
    cluster.run_until(end + SimDuration::from_secs(10));

    // Verify safety: identical orders, no duplicates.
    let reference: Vec<&[u8]> = cluster.delivered(0).iter().map(|d| &d.data[..]).collect();
    for n in 1..nodes {
        let order: Vec<&[u8]> = cluster.delivered(n).iter().map(|d| &d.data[..]).collect();
        if order != reference {
            return Err(format!("node {n} disagrees on the delivery order"));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for d in &reference {
        if !seen.insert(*d) {
            return Err("duplicate delivery detected".into());
        }
    }
    let retrans: u64 = (0..nodes).map(|n| cluster.srp_stats(n).retransmissions).sum();
    println!(
        "submitted {submitted}, delivered {} everywhere in one agreed order; {} retransmissions healed the loss",
        reference.len(),
        retrans
    );
    if reference.len() as u64 == submitted {
        println!("safety and liveness verified.");
        Ok(())
    } else {
        Err(format!("{} messages missing", submitted - reference.len() as u64))
    }
}
