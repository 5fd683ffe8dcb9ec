//! Smoke test of the real-socket path: the same protocol stack the
//! simulator hosts, over UDP on 127.0.0.1 with two port-group
//! "networks" and the threaded runtime.
//!
//! Every cluster binds its ports through
//! [`UdpTopology::bind_ephemeral`], which owns each OS-assigned port
//! from the moment it is chosen — no probe-then-assume-free races
//! with whatever else runs on the host.

use std::time::{Duration, Instant};

use bytes::Bytes;
use totem_cluster::{spawn_node_with, PollMode, RuntimeConfig, RuntimeEvent, StartMode, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::SrpConfig;
use totem_transport::{CountingTransport, Transport, TransportCounters, UdpTopology, UdpTransport};
use totem_wire::NodeId;

fn spawn_cluster(
    style: ReplicationStyle,
    nodes: usize,
    networks: usize,
    config: RuntimeConfig,
) -> Vec<totem_cluster::RuntimeHandle> {
    spawn_cluster_over(style, nodes, networks, config, |transport| transport)
}

/// Like [`spawn_cluster`], with each node's sockets behind `wrap`.
fn spawn_cluster_over<T: Transport + 'static>(
    style: ReplicationStyle,
    nodes: usize,
    networks: usize,
    config: RuntimeConfig,
    mut wrap: impl FnMut(UdpTransport) -> T,
) -> Vec<totem_cluster::RuntimeHandle> {
    let bound = UdpTopology::bind_ephemeral(nodes, networks).expect("bind ephemeral cluster");
    let members: Vec<NodeId> = (0..nodes as u16).map(NodeId::new).collect();
    bound
        .into_transports()
        .expect("adopt sockets")
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let me = NodeId::new(i as u16);
            let node = TotemNode::new_operational(
                me,
                &members,
                SrpConfig::default(),
                RrpConfig::new(style, networks),
                0,
            );
            let mode = if i == 0 { StartMode::Representative } else { StartMode::Member };
            spawn_node_with(node, wrap(transport), mode, config)
        })
        .collect()
}

fn run_cluster(style: ReplicationStyle, networks: usize, config: RuntimeConfig) {
    let nodes = 3;
    let handles = spawn_cluster(style, nodes, networks, config);

    for (i, h) in handles.iter().enumerate() {
        h.submit(Bytes::from(format!("udp-{style}-{i}")));
    }

    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); nodes];
    let deadline = Instant::now() + Duration::from_secs(20);
    while orders.iter().any(|o| o.len() < nodes) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            while let Some(ev) = h.next_event(Duration::from_millis(20)) {
                if let RuntimeEvent::Delivered(d) = ev {
                    orders[i].push(d.data);
                }
            }
        }
    }
    for (i, o) in orders.iter().enumerate() {
        assert_eq!(o.len(), nodes, "node {i} delivered {} of {nodes} under {style}", o.len());
        assert_eq!(o, &orders[0], "node {i} disagrees under {style}");
    }
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn udp_active_replication_smoke() {
    run_cluster(ReplicationStyle::Active, 2, RuntimeConfig::default());
}

#[test]
fn udp_passive_replication_smoke() {
    run_cluster(ReplicationStyle::Passive, 2, RuntimeConfig::default());
}

#[test]
fn udp_single_network_smoke() {
    run_cluster(ReplicationStyle::Single, 1, RuntimeConfig::default());
}

/// Busy-poll mode: the driver spins briefly before blocking. Same
/// total order, lower wake-up latency, one hot core.
#[test]
fn udp_busy_poll_smoke() {
    let poll = PollMode::BusyPoll { spin_us: 100 };
    run_cluster(ReplicationStyle::Active, 2, RuntimeConfig { poll });
}

/// What batching is for: under load the driver crosses the transport
/// API far less than once per datagram. 4 nodes x 2 networks, node 0
/// keeps 256 messages in flight; every wake is one receive completion
/// and one send submission per network, whatever it carries, where a
/// call per datagram would count 1.000 (measured 0.09-0.12).
/// Wall-clock and allocation figures for the same shape are `udp-sat`
/// rows in `benchmark/`.
#[test]
fn udp_loaded_driver_batches_its_syscalls() {
    const NODES: usize = 4;
    const MSGS: usize = 2000;
    const IN_FLIGHT: usize = 256;

    let mut counters = Vec::new();
    let handles =
        spawn_cluster_over(ReplicationStyle::Active, NODES, 2, RuntimeConfig::default(), |t| {
            let counted = CountingTransport::new(t, NODES - 1);
            counters.push(counted.counters());
            counted
        });

    // An idle token hop is a call per datagram by nature, so the
    // count starts with the load and stops with the last delivery.
    let (syscalls0, datagrams0) = tally(&counters);
    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); NODES];
    let mut submitted = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while orders.iter().any(|o| o.len() < MSGS) && Instant::now() < deadline {
        while submitted < MSGS && submitted < orders[0].len() + IN_FLIGHT {
            handles[0].submit(Bytes::from(format!("{submitted:0256}")));
            submitted += 1;
        }
        let mut idle = true;
        for (order, h) in orders.iter_mut().zip(&handles) {
            while let Ok(ev) = h.events().try_recv() {
                idle = false;
                if let RuntimeEvent::Delivered(d) = ev {
                    order.push(d.data);
                }
            }
        }
        if idle {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let (syscalls, datagrams) = tally(&counters);

    for (i, o) in orders.iter().enumerate() {
        assert_eq!(o.len(), MSGS, "node {i} delivered {} of {MSGS}", o.len());
        assert_eq!(o, &orders[0], "node {i} disagrees on the order");
    }
    for h in handles {
        h.shutdown();
    }
    let per_datagram = (syscalls - syscalls0) as f64 / (datagrams - datagrams0) as f64;
    assert!(per_datagram <= 0.25, "{per_datagram:.3} logical syscalls per datagram");
}

fn tally(counters: &[std::sync::Arc<TransportCounters>]) -> (u64, u64) {
    counters.iter().fold((0, 0), |(s, d), c| (s + c.syscalls(), d + c.datagrams()))
}

/// Runtime reconfiguration over real sockets: start K-of-N at K=2,
/// step every node down to K=1 mid-run through
/// [`totem_cluster::RuntimeHandle::set_k`], and keep agreeing on a
/// total order across the switch.
#[test]
fn udp_set_k_reconfigures_a_live_cluster() {
    let nodes = 3;
    let handles =
        spawn_cluster(ReplicationStyle::KOfN { copies: 2 }, nodes, 2, RuntimeConfig::default());

    let collect =
        |handles: &[totem_cluster::RuntimeHandle], orders: &mut Vec<Vec<Bytes>>, want: usize| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while orders.iter().any(|o| o.len() < want) && Instant::now() < deadline {
                for (i, h) in handles.iter().enumerate() {
                    while let Some(ev) = h.next_event(Duration::from_millis(20)) {
                        if let RuntimeEvent::Delivered(d) = ev {
                            orders[i].push(d.data);
                        }
                    }
                }
            }
        };

    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); nodes];
    for (i, h) in handles.iter().enumerate() {
        h.submit(Bytes::from(format!("pre-switch-{i}")));
    }
    collect(&handles, &mut orders, nodes);

    // Operator command: every node drops to one copy per message.
    for h in &handles {
        h.set_k(1);
    }
    for (i, h) in handles.iter().enumerate() {
        h.submit(Bytes::from(format!("post-switch-{i}")));
    }
    collect(&handles, &mut orders, 2 * nodes);

    for (i, o) in orders.iter().enumerate() {
        assert_eq!(o.len(), 2 * nodes, "node {i} delivered {} of {}", o.len(), 2 * nodes);
        assert_eq!(o, &orders[0], "node {i} disagrees on the order across the K switch");
    }
    for h in handles {
        h.shutdown();
    }
}
