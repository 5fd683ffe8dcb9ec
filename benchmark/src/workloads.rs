//! The six workloads. Names are fixed; later performance claims on
//! this repository cite them.
//!
//! Protocol constants are the product's defaults and are never
//! overridden here (`ClusterConfig::new` takes `SrpConfig::default()`,
//! `RrpConfig::new(style, nets)`, `SimConfig::lan` with
//! `CpuConfig::pentium_ii_450()`; the UDP workloads take
//! `RuntimeConfig::default()`), so a change to a default shows up as a
//! change in a metric.

use totem_rrp::ReplicationStyle;

/// How a simulated workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimLoad {
    /// Closed loop: the product's pump keeps every node's send queue
    /// topped up with `msg_size`-byte messages
    /// (`SimCluster::enable_saturation`), and a seeded Poisson stream of
    /// `ops_per_s` benchmark ops with sizes uniform in
    /// `[header, 2 × msg_size]` rides alongside, carrying the full
    /// oracle and making the run depend on `--seed`.
    Saturate {
        /// Rate of the seeded op stream, per simulated second.
        ops_per_s: f64,
    },
    /// Open loop: Poisson arrivals at `ops_per_s` per simulated second,
    /// senders round-robin, every op `msg_size` bytes, timed from its
    /// due time.
    Open {
        /// Offered rate, per simulated second.
        ops_per_s: f64,
    },
}

/// A workload on the simulated testbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// Nodes on the ring.
    pub nodes: usize,
    /// Replication style (all run 2 networks).
    pub style: ReplicationStyle,
    /// Application message size in bytes.
    pub msg_size: usize,
    /// Per-receiver loss probability on every network.
    pub rx_loss: f64,
    /// Load shape.
    pub load: SimLoad,
    /// Kill network 1 a third into the window and repair it (network
    /// back up, `reinstate` on every node) at two thirds.
    pub failover: bool,
    /// Simulated milliseconds of measured window per second of
    /// `--seconds`, sized on the reference machine so that the
    /// recording pass takes about a third of the wall budget. Fixed,
    /// not adaptive: the simulated-clock metrics must depend on the
    /// seed and `--seconds` only, never on how fast the host is.
    pub sim_ms_per_second: u64,
}

/// How a UDP workload offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UdpLoad {
    /// Closed loop from node 0 with this many ops in flight.
    Window(usize),
    /// Open loop from node 0 at this many ops per second, evenly
    /// spaced, each timed from its due time.
    Paced(f64),
}

/// A workload on real loopback sockets under the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpSpec {
    /// Nodes (each a driver thread plus one reader thread per network).
    pub nodes: usize,
    /// Redundant networks (UDP sockets per node).
    pub networks: usize,
    /// Replication style.
    pub style: ReplicationStyle,
    /// Application message size in bytes.
    pub msg_size: usize,
    /// Load shape.
    pub load: UdpLoad,
}

/// Where a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Deterministic simulator, simulated clock.
    Sim(SimSpec),
    /// Loopback UDP, wall clock.
    Udp(UdpSpec),
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The fixed name.
    pub name: &'static str,
    /// Why it exists (one line; `BENCHMARK.json` carries the same).
    pub why: &'static str,
    /// What runs.
    pub kind: Kind,
}

const UDP_CLUSTER: UdpSpec = UdpSpec {
    nodes: 3,
    networks: 2,
    style: ReplicationStyle::Active,
    msg_size: 256,
    load: UdpLoad::Window(256),
};

/// All six, in report order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "sim-sat-small",
        why: "Fig. 6 left edge: 100-byte messages pack ~12 per frame, so per-message work (srp packing/window/delivery, cluster glue, the pump) dominates host cost",
        kind: Kind::Sim(SimSpec {
            nodes: 4,
            style: ReplicationStyle::Passive,
            msg_size: 100,
            rx_loss: 0.0,
            load: SimLoad::Saturate { ops_per_s: 200.0 },
            failover: false,
            sim_ms_per_second: 3000,
        }),
    },
    Workload {
        name: "sim-sat-large",
        why: "Fig. 6/8 right edge: 10000-byte messages fragment 8 ways under active replication, so per-frame work (wire codec, rrp duplicate suppression, sim kernel) dominates",
        kind: Kind::Sim(SimSpec {
            nodes: 4,
            style: ReplicationStyle::Active,
            msg_size: 10_000,
            rx_loss: 0.0,
            load: SimLoad::Saturate { ops_per_s: 20.0 },
            failover: false,
            sim_ms_per_second: 3000,
        }),
    },
    Workload {
        name: "sim-lossy-passive",
        why: "2% receive loss under passive replication: rate is set by retransmission and the passive token timeout, so host-cost work predicts no change in simulated-clock metrics here",
        kind: Kind::Sim(SimSpec {
            nodes: 4,
            style: ReplicationStyle::Passive,
            msg_size: 1000,
            rx_loss: 0.02,
            load: SimLoad::Saturate { ops_per_s: 100.0 },
            failover: false,
            sim_ms_per_second: 12_000,
        }),
    },
    Workload {
        name: "sim-failover",
        why: "The paper's purpose: open loop at 4000 msgs/s on the 6-node Fig. 7 ring while network 1 is killed and later reinstated; token circulation and timers do the work",
        kind: Kind::Sim(SimSpec {
            nodes: 6,
            style: ReplicationStyle::Active,
            msg_size: 1000,
            rx_loss: 0.0,
            load: SimLoad::Open { ops_per_s: 4000.0 },
            failover: true,
            sim_ms_per_second: 3000,
        }),
    },
    Workload {
        name: "udp-sat",
        why: "Real sockets and driver threads, closed loop with 256 in flight: per-datagram host cost and thread wake-ups set the rate, so every host-cost layer should move throughput here",
        kind: Kind::Udp(UDP_CLUSTER),
    },
    Workload {
        name: "udp-paced",
        why: "Same cluster, open loop at 5000 msgs/s timed from due time: mostly idle, so batch window, idle-token hold and wake-ups set latency, not CPU",
        kind: Kind::Udp(UdpSpec { load: UdpLoad::Paced(5000.0), ..UDP_CLUSTER }),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
            assert!(ALL[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name), Some(w));
        }
        assert!(by_name("nope").is_none());
    }
}
