//! Criterion micro-benchmarks of the protocol building blocks:
//! codec round-trips, message packing, receive-window bookkeeping, the
//! per-packet costs of the RRP replication algorithms, and what a
//! whole node pays for a token hop and for a redundant copy.

use criterion::{
    criterion_group, criterion_main, BatchSize, Criterion, Throughput as CriterionThroughput,
};

use bytes::Bytes;
use totem_cluster::{NodeOutput, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig, RrpLayer};
use totem_srp::packing::Packer;
use totem_srp::window::ReceiveWindow;
use totem_srp::SrpConfig;
use totem_wire::frame::{MAX_PAYLOAD, MAX_UNFRAGMENTED_MSG};
use totem_wire::{Chunk, DataPacket, NetworkId, NodeId, Packet, RingId, Seq, Token};

fn data_packet(seq: u64, payload: usize) -> Packet {
    Packet::Data(DataPacket {
        ring: RingId::new(NodeId::new(0), 1),
        seq: Seq::new(seq),
        sender: NodeId::new(2),
        chunks: Chunk::complete(seq as u32, Bytes::from(vec![0xAB; payload])).into(),
    })
}

fn token_packet(rotation: u64, seq: u64) -> Token {
    let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
    t.rotation = totem_wire::Rotation::new(rotation);
    t.seq = Seq::new(seq);
    t.aru = Seq::new(seq);
    t
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    // 100 B is the paper's smallest sweep point; MAX_UNFRAGMENTED_MSG
    // encodes to exactly the 1424-byte frame payload boundary.
    for payload in [100usize, MAX_UNFRAGMENTED_MSG] {
        let pkt = data_packet(1, payload);
        let bytes = pkt.encode();
        g.throughput(CriterionThroughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("encode_data_{payload}B"), |b| b.iter(|| pkt.encode()));
        g.bench_function(format!("decode_data_{payload}B"), |b| {
            b.iter(|| Packet::decode(&bytes).unwrap());
        });
        // The receive path's entry: payloads slice the datagram the
        // transport already owns instead of being copied out of it.
        let owned = Bytes::from(bytes);
        g.bench_function(format!("decode_data_shared_{payload}B"), |b| {
            b.iter(|| Packet::decode_shared(&owned).unwrap());
        });
    }
    let tok = Packet::Token(token_packet(3, 500));
    let tok_bytes = tok.encode();
    g.bench_function("encode_token", |b| b.iter(|| tok.encode()));
    g.bench_function("decode_token", |b| b.iter(|| Packet::decode(&tok_bytes).unwrap()));
    let tok_owned = Bytes::from(tok_bytes);
    g.bench_function("decode_token_shared", |b| {
        b.iter(|| Packet::decode_shared(&tok_owned).unwrap());
    });
    g.finish();
}

fn bench_packer(c: &mut Criterion) {
    let mut g = c.benchmark_group("packer");
    for (name, size, count) in [
        ("small_100B", 100usize, 120usize),
        // 2 × (700 + chunk header) = 1424: two messages fill a frame
        // exactly (see `totem_wire::frame::chunks_per_frame`).
        ("frame_700B", 700, 40),
        // Largest message that still fits one frame unfragmented...
        ("boundary_fit_1frame", MAX_UNFRAGMENTED_MSG, 24),
        // ...one byte past the 1424-byte payload boundary: the packer
        // must fragment into two chunks across frames.
        ("boundary_split_2frames", MAX_UNFRAGMENTED_MSG + 1, 24),
        // A full frame payload with no room for the chunk header:
        // worst-case interior fragmentation.
        ("boundary_payload_1424B", MAX_PAYLOAD, 24),
        ("large_10KB", 10_000, 4),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    (
                        Packer::new(),
                        (0..count)
                            .map(|_| Bytes::from(vec![7u8; size]))
                            .collect::<std::collections::VecDeque<_>>(),
                    )
                },
                |(mut packer, mut queue)| {
                    std::iter::from_fn(|| packer.pack_next(&mut queue)).count()
                },
                BatchSize::SmallInput,
            );
        });
    }
    // The token visit's view: one packet per call, the chunk list
    // handed on (here: dropped) before the next is packed.
    g.bench_function("64x100B_next", |b| {
        b.iter_batched(
            || {
                let queue: std::collections::VecDeque<_> =
                    (0..64).map(|_| Bytes::from(vec![7u8; 100])).collect();
                (Packer::new(), queue)
            },
            |(mut packer, mut queue)| {
                let mut chunks = 0;
                while let Some(packet) = packer.pack_next(&mut queue) {
                    chunks += packet.len();
                }
                chunks
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("receive_window");
    g.bench_function("insert_deliver_1000_in_order", |b| {
        b.iter_batched(
            ReceiveWindow::new,
            |mut w| {
                for s in 1..=1000u64 {
                    let Packet::Data(d) = data_packet(s, 100) else { unreachable!() };
                    w.insert(d.into());
                }
                let mut delivered = 0;
                w.take_deliverable(Seq::new(1000), |_| delivered += 1);
                delivered
            },
            BatchSize::SmallInput,
        );
    });
    // The real access pattern: the window slides. Each step inserts
    // one frame, delivers it in place and discards the frame that has
    // fallen `window_size` = 60 behind, so 60 stay in flight.
    g.bench_function("sliding_60_steady_state", |b| {
        let frames: Vec<totem_wire::SharedPacket> = (1..=1060u64)
            .map(|s| {
                let Packet::Data(d) = data_packet(s, 100) else { unreachable!() };
                d.into()
            })
            .collect();
        b.iter_batched(
            || {
                let mut w = ReceiveWindow::new();
                for f in frames.iter().take(60) {
                    w.insert(f.clone());
                }
                w.take_deliverable(Seq::new(60), |_| {});
                w
            },
            |mut w| {
                let mut delivered = 0u64;
                for (f, s) in frames.iter().skip(60).zip(61u64..) {
                    w.insert(f.clone());
                    w.take_deliverable(Seq::new(s), |_| delivered += 1);
                    w.discard_up_to(Seq::new(s - 60));
                }
                delivered
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("insert_1000_reversed_gaps", |b| {
        b.iter_batched(
            ReceiveWindow::new,
            |mut w| {
                for s in (1..=1000u64).rev() {
                    let Packet::Data(d) = data_packet(s, 100) else { unreachable!() };
                    w.insert(d.into());
                }
                w.my_aru()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_rrp(c: &mut Criterion) {
    let mut g = c.benchmark_group("rrp_layer");
    g.bench_function("active_token_two_copies", |b| {
        b.iter_batched(
            || RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, 2)).expect("valid config"),
            |mut layer| {
                for r in 0..100u64 {
                    let t = token_packet(r, r);
                    layer.on_packet(
                        r * 1000,
                        NetworkId::new(0),
                        Packet::Token(t.clone()).into(),
                        false,
                    );
                    layer.on_packet(
                        r * 1000 + 1,
                        NetworkId::new(1),
                        Packet::Token(t).into(),
                        false,
                    );
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("passive_message_monitor", |b| {
        b.iter_batched(
            || RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).expect("valid config"),
            |mut layer| {
                for i in 0..100u64 {
                    let pkt = data_packet(i, 100);
                    layer.on_packet(i, NetworkId::new((i % 2) as u8), pkt.into(), false);
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("routes_round_robin", |b| {
        let mut layer =
            RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).expect("valid config");
        let mut routes = Vec::new();
        b.iter(|| layer.routes_for_message_into(&mut routes));
    });
    g.finish();
}

/// Two nodes on an otherwise idle active-replication ring of two
/// networks, fed the way the threaded driver feeds them: raw datagrams
/// in, encoded frames out.
struct IdleRing {
    nodes: Vec<TotemNode>,
    now: u64,
    /// The token copies in flight to `holder`'s successor.
    copies: Vec<(NetworkId, Bytes)>,
    holder: usize,
    out: Vec<NodeOutput>,
}

impl IdleRing {
    fn new() -> Self {
        let members = [NodeId::new(0), NodeId::new(1)];
        let nodes = members
            .iter()
            .map(|&me| {
                TotemNode::new_operational(
                    me,
                    &members,
                    SrpConfig::default(),
                    RrpConfig::new(ReplicationStyle::Active, 2),
                    0,
                )
            })
            .collect();
        let mut ring = IdleRing { nodes, now: 0, copies: Vec::new(), holder: 0, out: Vec::new() };
        let boot = ring.nodes[0].bootstrap_token(0);
        ring.out.extend(boot);
        ring.release();
        ring
    }

    /// Ends the holder's idle hold and puts the forwarded token's
    /// copies on the wire.
    fn release(&mut self) {
        let node = &mut self.nodes[self.holder];
        if let Some(deadline) = node.next_deadline() {
            self.now = self.now.max(deadline);
        }
        node.on_timer_into(self.now, &mut self.out);
        self.copies.clear();
        for o in self.out.drain(..) {
            if let NodeOutput::Send { net, pkt, .. } = o {
                self.copies.push((net, pkt.encoded().clone()));
            }
        }
    }

    /// One idle token visit at the next node: both copies in, the
    /// hold, the timer release, the forwarded token encoded.
    fn hop(&mut self) -> usize {
        self.holder = 1 - self.holder;
        for (net, datagram) in self.copies.drain(..) {
            self.now += 1_000;
            self.nodes[self.holder].on_datagram_into(self.now, net, datagram, &mut self.out);
        }
        self.release();
        self.copies.len()
    }
}

fn bench_token_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("token_hop");
    let mut ring = IdleRing::new();
    g.bench_function("active_2net_idle", |b| b.iter(|| ring.hop()));
    g.finish();
}

/// What a node pays for a copy it has no use for — the second half of
/// everything active replication delivers.
fn bench_redundant_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("redundant_copy");
    let mut ring = IdleRing::new();
    // The token node 1 is about to pass up, arriving once more after.
    let (net, token) = ring.copies[1].clone();
    ring.hop();
    g.bench_function("token", |b| {
        b.iter(|| {
            ring.nodes[1].on_datagram_into(ring.now, net, token.clone(), &mut ring.out);
            ring.out.len()
        });
    });
    // A data frame, then its copy on the other network, again and
    // again.
    let frame = data_packet(1, 100).encode_shared();
    ring.nodes[1].on_datagram_into(ring.now, NetworkId::new(0), frame.clone(), &mut ring.out);
    g.bench_function("data", |b| {
        b.iter(|| {
            let net = NetworkId::new(1);
            ring.nodes[1].on_datagram_into(ring.now, net, frame.clone(), &mut ring.out);
            ring.out.len()
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_packer,
    bench_window,
    bench_rrp,
    bench_token_hop,
    bench_redundant_copy
);
criterion_main!(benches);
