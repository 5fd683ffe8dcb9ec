//! Real sockets: a three-node Totem RRP cluster over UDP on
//! 127.0.0.1, two "networks" (port groups), one driver thread per
//! node.
//!
//! This is the same protocol stack the simulator hosts, running under
//! the threaded real-time runtime — the deployment shape the paper's
//! testbed used (one socket per NIC per node).
//!
//! Run with: `cargo run --example udp_cluster`
//! Pick a style: `cargo run --example udp_cluster -- --replication k-of-n:1`
//! (accepted: `active`, `passive`, `ap:K`, `k-of-n:K`; default active)

use std::time::Duration;

use bytes::Bytes;
use totem_cluster::{spawn_node, RuntimeEvent, StartMode, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::SrpConfig;
use totem_transport::UdpTopology;
use totem_wire::NodeId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let style = match args.as_slice() {
        [] => ReplicationStyle::Active,
        [flag, raw] if flag == "--replication" => match raw.parse() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: udp_cluster [--replication active|passive|ap:K|k-of-n:K]");
            std::process::exit(2);
        }
    };
    let nodes = 3;
    let networks = 2;
    // OS-assigned ports, each owned from the moment it is chosen — no
    // guessed port regions, no collisions between repeated runs.
    let bound = UdpTopology::bind_ephemeral(nodes, networks).expect("bind UDP sockets");
    println!(
        "bound {nodes} nodes x {networks} networks ({style}); node 0 net 0 at {}",
        bound.topology().addr(NodeId::new(0), totem_wire::NetworkId::new(0))
    );

    let members: Vec<NodeId> = (0..nodes as u16).map(NodeId::new).collect();
    let handles: Vec<_> = bound
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
            spawn_node(node, transport, mode)
        })
        .collect();

    // Every node submits a message.
    for (i, h) in handles.iter().enumerate() {
        h.submit(Bytes::from(format!("udp hello from node {i}")));
    }

    // Collect deliveries: each node must deliver all three, in the
    // same total order.
    let mut orders: Vec<Vec<String>> = vec![Vec::new(); nodes];
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while orders.iter().any(|o| o.len() < nodes) && std::time::Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            while let Some(ev) = h.next_event(Duration::from_millis(50)) {
                if let RuntimeEvent::Delivered(d) = ev {
                    orders[i].push(String::from_utf8_lossy(&d.data).into_owned());
                }
            }
        }
    }

    for (i, order) in orders.iter().enumerate() {
        assert_eq!(order.len(), nodes, "node {i} delivered {} of {nodes}", order.len());
        assert_eq!(order, &orders[0], "node {i} disagrees on the order");
    }
    println!("all {nodes} nodes agreed on the total order over real UDP sockets:");
    for (i, msg) in orders[0].iter().enumerate() {
        println!("  {}. {msg}", i + 1);
    }

    for h in handles {
        h.shutdown();
    }
    println!("clean shutdown.");
}
