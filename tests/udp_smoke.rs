//! Smoke test of the real-socket path: the same protocol stack the
//! simulator hosts, over UDP on 127.0.0.1 with two port-group
//! "networks" and the threaded runtime.
//!
//! Hostile datagrams are injected here too, as segment trains from a
//! socket outside the ring (the same set `runtime_faults` feeds the
//! in-memory runtime).
//!
//! Every cluster binds its ports through
//! [`UdpTopology::bind_ephemeral`], which owns each OS-assigned port
//! from the moment it is chosen — no probe-then-assume-free races
//! with whatever else runs on the host.

mod hostile;

use std::time::{Duration, Instant};

use bytes::Bytes;
use hostile::{forged_far_ahead_frames, hostile_datagrams};
use totem_cluster::{spawn_node, RuntimeEvent, StartMode, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::SrpConfig;
use totem_transport::{
    CountingTransport, Destination, SendBatch, Transport, TransportCounters, UdpTopology,
    UdpTransport,
};
use totem_wire::{NetworkId, NodeId};

fn spawn_cluster(
    style: ReplicationStyle,
    nodes: usize,
    networks: usize,
) -> Vec<totem_cluster::RuntimeHandle> {
    spawn_cluster_over(style, nodes, networks, |transport| transport)
}

/// Like [`spawn_cluster`], with each node's sockets behind `wrap`.
fn spawn_cluster_over<T: Transport + 'static>(
    style: ReplicationStyle,
    nodes: usize,
    networks: usize,
    wrap: impl FnMut(UdpTransport) -> T,
) -> Vec<totem_cluster::RuntimeHandle> {
    let bound = UdpTopology::bind_ephemeral(nodes, networks).expect("bind ephemeral cluster");
    let transports = bound.into_transports().expect("adopt sockets");
    spawn_members(style, networks, transports, wrap)
}

/// A ring of one member per transport, in node order, each node's
/// sockets behind `wrap`; node 0 holds the first token.
fn spawn_members<T: Transport + 'static>(
    style: ReplicationStyle,
    networks: usize,
    transports: Vec<UdpTransport>,
    mut wrap: impl FnMut(UdpTransport) -> T,
) -> Vec<totem_cluster::RuntimeHandle> {
    let members: Vec<NodeId> = (0..transports.len() as u16).map(NodeId::new).collect();
    transports
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
            spawn_node(node, wrap(transport), mode)
        })
        .collect()
}

fn run_cluster(style: ReplicationStyle, networks: usize) {
    let nodes = 3;
    let handles = spawn_cluster(style, nodes, networks);

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
    run_cluster(ReplicationStyle::Active, 2);
}

#[test]
fn udp_passive_replication_smoke() {
    run_cluster(ReplicationStyle::Passive, 2);
}

#[test]
fn udp_single_network_smoke() {
    run_cluster(ReplicationStyle::Single, 1);
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
    let handles = spawn_cluster_over(ReplicationStyle::Active, NODES, 2, |t| {
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
    let handles = spawn_cluster(ReplicationStyle::KOfN { copies: 2 }, nodes, 2);

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

/// Hostile datagrams through real sockets, beside live traffic: a
/// fourth endpoint outside the ring sends undecodable datagrams and
/// data frames forged far ahead of the ring between live submissions,
/// each datagram in a run of equal copies handed to `send_batch`, so
/// that they leave as segment trains and land in the same receive
/// batches — and batch buffers — as live frames. Every node delivers
/// exactly the live messages in one total order; no node leaves the
/// ring or reports a network faulty.
#[test]
fn udp_hostile_trains_are_dropped_while_live_traffic_keeps_its_order() {
    const WAVES: usize = 3;
    const PER_WAVE: usize = 20;
    const COPIES: usize = 4;

    let hostile = hostile_datagrams();
    let forged = forged_far_ahead_frames();
    let mut transports =
        UdpTopology::bind_ephemeral(4, 2).expect("bind ephemeral").into_transports().unwrap();
    let attacker = transports.pop().expect("a fourth endpoint");
    let mut counters = Vec::new();
    let handles = spawn_members(ReplicationStyle::Active, 2, transports, |t| {
        let counted = CountingTransport::new(t, 3);
        counters.push(counted.counters());
        counted
    });

    let mut feed = hostile.iter().cycle();
    let mut forged_feed = forged.iter().cycle();
    let per_submit = hostile.len().div_ceil(WAVES * PER_WAVE);
    let mut run = SendBatch::new();
    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); handles.len()];
    let mut faults = Vec::new();
    let mut sent = 0;
    for wave in 0..WAVES {
        for i in 0..PER_WAVE {
            let n = wave * PER_WAVE + i;
            handles[n % 3].submit(Bytes::from(format!("live-{n:03}")));
            run.clear();
            for k in 0..per_submit {
                let net = NetworkId::new(((n + k) % 2) as u8);
                let datagram = feed.next().expect("cycle never ends");
                for _ in 0..COPIES {
                    run.push(net, Destination::Broadcast, datagram.clone());
                }
            }
            if i % 5 == 0 {
                // On both networks, as a replicated broadcast would
                // arrive.
                let (_, datagram) = forged_feed.next().expect("cycle never ends");
                for net in [NetworkId::new(0), NetworkId::new(1)] {
                    for _ in 0..COPIES {
                        run.push(net, Destination::Broadcast, datagram.clone());
                    }
                }
            }
            sent += attacker.send_batch(&mut run).expect("queued");
        }
        // Each wave must get through before the next starts, so hostile
        // trains sit between live frames in every socket.
        let want = (wave + 1) * PER_WAVE;
        let deadline = Instant::now() + Duration::from_secs(20);
        while orders.iter().any(|o| o.len() < want) && Instant::now() < deadline {
            for (order, h) in orders.iter_mut().zip(&handles) {
                while let Some(ev) = h.next_event(Duration::from_millis(10)) {
                    match ev {
                        RuntimeEvent::Delivered(d) => order.push(d.data),
                        RuntimeEvent::Fault(report) => faults.push(report),
                        RuntimeEvent::Config(_) | RuntimeEvent::Reinstated { .. } => {}
                    }
                }
            }
        }
    }

    let mut expected: Vec<Bytes> =
        (0..WAVES * PER_WAVE).map(|n| Bytes::from(format!("live-{n:03}"))).collect();
    for (node, order) in orders.iter().enumerate() {
        assert_eq!(order.len(), expected.len(), "node {node} stopped delivering");
        assert_eq!(order, &orders[0], "node {node} broke total order");
    }
    let mut delivered = orders[0].clone();
    delivered.sort();
    expected.sort();
    assert_eq!(delivered, expected, "exactly the live messages, once each");
    assert!(faults.is_empty(), "a network was reported faulty: {faults:?}");
    for (node, c) in counters.iter().enumerate() {
        let inbound = c.datagrams_in.load(std::sync::atomic::Ordering::Relaxed);
        assert!(inbound >= sent as u64, "node {node} read {inbound} datagrams of {sent} hostile");
    }
    for h in handles {
        let node = h.shutdown();
        assert_eq!(node.srp().stats().gathers, 0, "a hostile datagram reformed the ring");
        assert_eq!(node.srp().members().map(<[NodeId]>::len), Some(3));
    }
}
