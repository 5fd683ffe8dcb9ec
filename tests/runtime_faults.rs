//! Fault handling on the threaded real-time runtime (in-memory
//! transport): a network dies under live traffic, every node reports
//! the fault, traffic continues, and the administrator reinstates the
//! repaired network through the runtime handle; and hostile datagrams
//! injected beside live traffic — undecodable ones, well-formed data
//! frames forged with sequence numbers far ahead of the ring, and
//! frames with the header of a packet the ring holds on a body the
//! decoder rejects — are dropped without disturbing order, liveness,
//! membership or, for the undecodable, a single counter.

use std::time::{Duration, Instant};

use bytes::Bytes;
use totem_cluster::{
    collect_deliveries, spawn_node, RuntimeEvent, RuntimeHandle, StartMode, TotemNode,
};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::SrpConfig;
use totem_transport::{Destination, InMemoryHub, InMemoryTransport, Transport};
use totem_wire::{
    Chunk, CodecError, DataPacket, JoinMessage, NetworkId, NodeId, Packet, RingId, Seq, Token,
    Writer, MAX_COUNTER,
};

fn spawn_cluster(n: usize) -> (Vec<RuntimeHandle>, Vec<InMemoryTransport>) {
    spawn_cluster_with(n, ReplicationStyle::Active)
}

fn spawn_cluster_with(
    n: usize,
    style: ReplicationStyle,
) -> (Vec<RuntimeHandle>, Vec<InMemoryTransport>) {
    // Keep one extra hub endpoint around just to retain a kill switch
    // for the networks (the hub state is shared).
    let mut transports = InMemoryHub::new(n + 1, 2);
    let admin = transports.split_off(n);
    let members: Vec<NodeId> = (0..n as u16).map(NodeId::new).collect();
    let handles = transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let me = NodeId::new(i as u16);
            let node = TotemNode::new_operational(
                me,
                &members,
                SrpConfig::default(),
                RrpConfig::new(style, 2),
                0,
            );
            let mode = if i == 0 { StartMode::Representative } else { StartMode::Member };
            spawn_node(node, t, mode)
        })
        .collect();
    (handles, admin)
}

fn await_delivery(h: &RuntimeHandle, needle: &[u8], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(RuntimeEvent::Delivered(d)) = h.next_event(Duration::from_millis(50)) {
            if d.data == needle {
                return true;
            }
        }
    }
    false
}

#[test]
fn live_network_death_is_reported_and_survived_then_reinstated() {
    let (handles, admin) = spawn_cluster(3);

    // Warm up: one round of traffic.
    handles[0].submit(Bytes::from_static(b"warmup"));
    assert!(await_delivery(&handles[2], b"warmup", Duration::from_secs(10)));

    // Kill network 0 for everyone.
    admin[0].set_network_down(NetworkId::new(0), true);

    // Traffic continues over network 1...
    handles[1].submit(Bytes::from_static(b"through the failure"));
    assert!(
        await_delivery(&handles[0], b"through the failure", Duration::from_secs(10)),
        "delivery must continue on the surviving network"
    );
    // ...and each node eventually raises a fault report.
    let mut reported = vec![false; 3];
    let deadline = Instant::now() + Duration::from_secs(10);
    while reported.iter().any(|r| !r) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            if let Some(RuntimeEvent::Fault(f)) = h.next_event(Duration::from_millis(20)) {
                assert_eq!(f.net, NetworkId::new(0));
                reported[i] = true;
            }
        }
    }
    assert_eq!(reported, vec![true; 3], "every node must report the fault");

    // Physical repair + administrative reinstatement on every node.
    admin[0].set_network_down(NetworkId::new(0), false);
    for h in &handles {
        h.reinstate(NetworkId::new(0));
    }
    let mut reinstated = vec![false; 3];
    let deadline = Instant::now() + Duration::from_secs(10);
    while reinstated.iter().any(|r| !r) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            if let Some(RuntimeEvent::Reinstated { net, .. }) =
                h.next_event(Duration::from_millis(20))
            {
                assert_eq!(net, NetworkId::new(0));
                reinstated[i] = true;
            }
        }
    }
    assert_eq!(reinstated, vec![true; 3], "every node must confirm the reinstatement");

    // Still totally ordered afterwards.
    handles[2].submit(Bytes::from_static(b"after repair"));
    assert!(await_delivery(&handles[1], b"after repair", Duration::from_secs(10)));

    for h in handles {
        h.shutdown();
    }
}

/// Datagrams no node may act on: seeded garbage, every strict prefix
/// of well-formed frames, and headers whose length fields promise far
/// more than the datagram holds.
fn hostile_datagrams() -> Vec<Bytes> {
    let mut out = vec![Bytes::new()];

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for len in 1..=48usize {
        let garbage: Vec<u8> = (0..len * 3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        out.push(Bytes::from(garbage));
    }

    let ring = RingId::new(NodeId::new(0), 0);
    let frames = [
        Packet::Data(DataPacket {
            ring,
            seq: Seq::new(1),
            sender: NodeId::new(1),
            chunks: vec![
                Chunk::complete(1, Bytes::from_static(b"forged payload")),
                Chunk::complete(2, Bytes::from_static(b"and another")),
            ]
            .into(),
        }),
        Packet::Token(Token::initial(ring)),
        Packet::Join(JoinMessage {
            sender: NodeId::new(2),
            ring_seq: 7,
            proc_set: vec![NodeId::new(0), NodeId::new(2)],
            fail_set: vec![NodeId::new(1)],
        }),
    ];
    for frame in frames {
        let whole = frame.encode_shared();
        out.extend((1..whole.len()).map(|cut| whole.slice(..cut)));
    }

    // A data frame announcing 0xFFFF chunks, and one whose only chunk
    // claims 0xFFFF bytes of which three are present.
    for (chunks, chunk_len) in [(0xFFFFu16, 3u16), (1, 0xFFFF)] {
        let mut w = Writer::new();
        w.u8(0x01);
        w.u16(0);
        w.u64(0);
        w.u64(1);
        w.u16(1);
        w.u16(chunks);
        w.u8(0);
        w.u8(0);
        w.u16(chunk_len);
        w.u32(1);
        w.u32(3);
        w.raw(b"abc");
        out.push(w.to_shared());
    }
    // A token whose retransmission list claims 4 Gi entries, and one
    // claiming a plausible count that is not there.
    for rtr in [u32::MAX, 40] {
        let mut token = Packet::Token(Token::initial(ring)).encode();
        let at = token.len() - 4;
        token[at..].copy_from_slice(&rtr.to_be_bytes());
        out.push(Bytes::from(token));
    }
    // A Ring Paxos proposal with a 4 GiB value, then one just past the
    // decoder's sanity bound.
    for len in [u32::MAX, (1 << 20) + 1] {
        let mut w = Writer::new();
        w.u8(0x05);
        w.u8(0x01);
        w.u16(1);
        w.u64(1);
        w.u64(1);
        w.u32(len);
        w.raw(b"short");
        out.push(w.to_shared());
    }
    out
}

/// Data frames on the live ring, "from" a member, whose sequence
/// numbers lie far beyond anything flow control lets a ring reach, each
/// with its sequence number: just past the receive window's span cap,
/// astronomically past it, and at or past the counter bound. Those
/// below [`MAX_COUNTER`] decode, so they reach the SRP — which must
/// refuse them outright rather than size its window by them or take the
/// phantom sequence number for a reason to reform the ring. The rest
/// the decoder refuses.
fn forged_far_ahead_frames() -> Vec<(u64, Bytes)> {
    [totem_srp::window::SPAN_CAP + 500, 1 << 40, u64::MAX >> 2, 1 << 62, u64::MAX]
        .into_iter()
        .map(|seq| {
            let frame = Packet::Data(DataPacket {
                ring: RingId::new(NodeId::new(0), 1),
                seq: Seq::new(seq),
                sender: NodeId::new(1),
                chunks: Chunk::complete(9, Bytes::from_static(b"from the future")).into(),
            });
            (seq, frame.encode_shared())
        })
        .collect()
}

/// Hostile datagrams through the *real* driver loop, on both of its
/// receive paths: none panics a driver, live traffic keeps being
/// delivered between and after them, in one total order.
#[test]
fn hostile_datagrams_are_dropped_while_live_traffic_keeps_its_order() {
    const WAVES: usize = 3;
    const PER_WAVE: usize = 20;

    let hostile = hostile_datagrams();
    for d in &hostile {
        assert!(Packet::decode(d).is_err(), "not hostile, a node would act on it: {d:?}");
    }

    let forged = forged_far_ahead_frames();
    for (seq, d) in &forged {
        let decoded = Packet::decode(d).map(|_| ());
        if *seq < MAX_COUNTER {
            assert_eq!(decoded, Ok(()), "a forged frame below the bound must get past the decoder");
        } else {
            let refused = CodecError::CounterOutOfRange { what: "data seq", value: *seq };
            assert_eq!(decoded, Err(refused));
        }
    }

    let (handles, attacker) = spawn_cluster(3);
    let attacker = &attacker[0];
    let mut feed = hostile.iter().cycle();
    let mut forged_feed = forged.iter().cycle();
    let per_submit = hostile.len().div_ceil(WAVES * PER_WAVE);

    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); handles.len()];
    for wave in 0..WAVES {
        for i in 0..PER_WAVE {
            let n = wave * PER_WAVE + i;
            handles[n % 3].submit(Bytes::from(format!("live-{n:03}")));
            for k in 0..per_submit {
                let net = NetworkId::new(((n + k) % 2) as u8);
                let datagram = feed.next().expect("cycle never ends").clone();
                attacker.send(net, Destination::Broadcast, datagram).unwrap();
            }
            if i % 5 == 0 {
                // On both networks, as a replicated broadcast
                // would arrive.
                let (_, datagram) = forged_feed.next().expect("cycle never ends");
                for net in [NetworkId::new(0), NetworkId::new(1)] {
                    attacker.send(net, Destination::Broadcast, datagram.clone()).unwrap();
                }
            }
        }
        // Each wave must get through before the next starts, so
        // hostile datagrams sit between live ones in every inbox.
        let (got, _) = collect_deliveries(&handles, PER_WAVE, Duration::from_secs(20));
        for (order, got) in orders.iter_mut().zip(got) {
            order.extend(got);
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

    // `shutdown` joins the driver and panics if it had panicked.
    // A far-ahead frame that got into a window would have shown
    // as a phantom `high_seen` at the next token and reformed the
    // ring; refused at the door, the ring never noticed.
    for h in handles {
        let node = h.shutdown();
        assert_eq!(node.srp().stats().gathers, 0, "a forged frame reformed the ring");
        assert_eq!(node.srp().members().map(<[NodeId]>::len), Some(3));
    }
}

/// A redundant copy is recognised by its header and never decoded —
/// which must not let a datagram with a good header and a body the
/// decoder rejects leave a trace anywhere. Forged copies of a frame
/// every node holds (right ring, held sequence number, a sender id of
/// their own so their footprint would be unmistakable), cut short or
/// overlong, are injected beside live traffic on both receive paths of
/// the real driver loop; afterwards no node's reception monitors have
/// heard of that sender, and fed once more to the stopped node one
/// leaves every counter where it was — while the same header on an
/// intact body is counted like any other copy.
#[test]
fn a_held_frames_header_on_a_corrupt_body_is_invisible_to_every_layer() {
    const FORGER: NodeId = NodeId::new(7);
    let held = |body: &'static [u8]| {
        Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(1),
            sender: FORGER,
            chunks: Chunk::complete(1, Bytes::from_static(body)).into(),
        })
        .encode_shared()
    };
    let intact = held(b"a copy the window has no use for");
    let mut overlong = intact.to_vec();
    overlong.push(0);
    let corrupt = [intact.slice(..intact.len() - 5), Bytes::from(overlong)];
    for d in &corrupt {
        assert!(Packet::decode(d).is_err(), "the body must be one the decoder rejects");
    }

    // Passive replication keeps a reception monitor per sender, so
    // a forged sender that was accounted for would show.
    let (handles, attacker) = spawn_cluster_with(3, ReplicationStyle::Passive);
    handles[0].submit(Bytes::from_static(b"sequence number one"));
    for h in &handles {
        assert!(await_delivery(h, b"sequence number one", Duration::from_secs(10)));
    }
    for round in 0..20 {
        for d in &corrupt {
            for net in [NetworkId::new(0), NetworkId::new(1)] {
                attacker[0].send(net, Destination::Broadcast, d.clone()).unwrap();
            }
        }
        handles[round % 3].submit(Bytes::from(format!("live-{round:02}")));
    }
    let (orders, _) = collect_deliveries(&handles, 20, Duration::from_secs(20));
    for (node, order) in orders.iter().enumerate() {
        assert_eq!(order.len(), 20, "node {node} stopped delivering");
        assert_eq!(order, &orders[0], "node {node} broke total order");
    }

    for h in handles {
        let mut node = h.shutdown();
        let heard_of_forger = |node: &TotemNode| {
            node.rrp().monitor_report().iter().any(|(kind, _)| {
                    matches!(kind, totem_rrp::MonitorKind::Messages { sender } if *sender == FORGER)
                })
        };
        assert!(!heard_of_forger(&node), "a rejected frame reached a monitor");
        assert_eq!(node.srp().stats().gathers, 0);

        // The driver has stopped, so the counters stand still.
        let counters =
            |node: &TotemNode| (node.rrp().stats().clone(), node.rrp().monitor_report().len());
        let before = counters(&node);
        let mut out = Vec::new();
        for d in &corrupt {
            node.on_datagram_into(u64::MAX / 2, NetworkId::new(1), d.clone(), &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(counters(&node), before, "a rejected frame was counted");
        // The same header on a body that decodes is a plain
        // redundant copy: dropped, and counted as one.
        node.on_datagram_into(u64::MAX / 2, NetworkId::new(1), intact.clone(), &mut out);
        assert!(out.is_empty());
        assert_eq!(node.rrp().stats().received[1], before.0.received[1] + 1);
        assert!(heard_of_forger(&node));
    }
}
