//! Differential pin tests for the unified replication engine.
//!
//! A deterministic harness drives an [`RrpLayer`] with a seeded
//! schedule of data packets, token rotations, commit tokens, timer
//! firings, route queries and reinstatements — with per-network loss —
//! and folds every observable output (events, routes, stats, faulty
//! flags, counters, recorded transitions) into one FNV-1a digest.
//!
//! The `FIXTURES` table was recorded from the pre-refactor per-style
//! state machines (`active.rs` / `passive.rs` / `active_passive.rs`);
//! the tests assert the unified engine reproduces those traces bit for
//! bit for the three legacy configurations. If an intentional protocol
//! change ever invalidates them, regenerate with
//! `cargo test -p totem-rrp --test differential -- --ignored --nocapture`.

use bytes::Bytes;
use totem_rrp::{ReplicationStyle, RrpConfig, RrpEvent, RrpLayer};
use totem_wire::{Chunk, CommitToken, DataPacket, NetworkId, NodeId, Packet, RingId, Seq, Token};

/// The three legacy configurations under differential pinning.
fn legacy_configs() -> [RrpConfig; 3] {
    [
        RrpConfig::new(ReplicationStyle::Active, 2),
        RrpConfig::new(ReplicationStyle::Passive, 2),
        RrpConfig::new(ReplicationStyle::ActivePassive { copies: 2 }, 3),
    ]
}

/// Digests recorded from the legacy implementation, indexed
/// `[config][seed]` (configs in `legacy_configs` order, seeds `0..8`).
const FIXTURES: [[u64; 8]; 3] = [
    [
        0xd4efe8fa5ef80b10,
        0x9b05a225a014997f,
        0x8537e1028b1a41e9,
        0xb8757434ccf9e4fe,
        0x89022a677718d85c,
        0x0864dab9a7ece3dc,
        0xbffe40b9842c1a56,
        0x1b7c44c0d48510a3,
    ],
    [
        0x45559be9e7dcb2a4,
        0x5a72575763fb4973,
        0x2da21c4e49666ffe,
        0xd9a2e87c75057476,
        0xb23b6e0553dc0cfb,
        0x25f60215b88847e7,
        0xc060a16523934bd6,
        0x17187741587a7a74,
    ],
    [
        0x94696286d912a5af,
        0xfd93dfed47e67b13,
        0x6a9ff9c899725d3f,
        0xd6803afd71dcd916,
        0xce6600e2bfc06e70,
        0x4d6fc2e9bb3d42a8,
        0x7bbeb8f0c7f171ab,
        0x099c8baa4d145185,
    ],
];

// ---------------------------------------------------------------------
// Deterministic helpers (no external RNG: the schedule itself is the
// fixture, so it must never change behind the digests' back)
// ---------------------------------------------------------------------

/// FNV-1a, the same construction the bench gate uses for its digests.
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
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }
}

/// splitmix64: tiny, stable, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678_9ABC_DEF1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn data_packet(seq: u64, sender: u16, fill: u8) -> Packet {
    Packet::Data(DataPacket {
        ring: RingId::new(NodeId::new(0), 1),
        seq: Seq::new(seq),
        sender: NodeId::new(sender),
        chunks: Chunk::complete(0, Bytes::from(vec![fill; 16])).into(),
    })
}

fn token_packet(rotation: u64, seq: u64) -> Packet {
    let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
    t.rotation = totem_wire::Rotation::new(rotation);
    t.seq = Seq::new(seq);
    Packet::Token(t)
}

fn commit_packet(ring_seq: u64) -> Packet {
    Packet::Commit(CommitToken {
        ring: RingId::new(NodeId::new(0), ring_seq),
        round: 0,
        entries: vec![],
    })
}

fn hash_events(h: &mut Fnv, tag: &str, events: &[RrpEvent]) {
    for ev in events {
        h.str(tag);
        h.str(&format!("{ev:?}"));
    }
}

/// Runs the seeded schedule against a fresh layer and digests every
/// observable output.
fn trace_digest(cfg: &RrpConfig, seed: u64) -> u64 {
    let mut l = RrpLayer::new(cfg.clone()).unwrap();
    let mut rng = Rng::new(seed);
    let mut h = Fnv::new();
    let nets = cfg.networks as u64;
    let mut data_seq = 1u64;
    let mut rotation = 0u64;
    let mut tok_seq = 1u64;

    for step in 0..600u64 {
        let now = step * 250_000; // 0.25 ms per step

        // Fire every timer that has come due (bounded: a broken
        // deadline must fail the test, not hang it).
        for _ in 0..16 {
            match l.next_deadline() {
                Some(d) if d <= now => hash_events(&mut h, "timer", &l.on_timer(d)),
                _ => break,
            }
        }

        match rng.below(100) {
            // A data packet from one of four senders, delivered on
            // each network with 70% probability (independent loss).
            0..=34 => {
                let sender = rng.below(4) as u16;
                let pkt = data_packet(data_seq, sender, (data_seq % 251) as u8);
                data_seq += 1;
                for net in 0..nets {
                    if rng.below(100) < 70 {
                        let missing = rng.below(4) == 0;
                        let ev = l.on_packet(
                            now,
                            NetworkId::new(net as u8),
                            pkt.clone().into(),
                            missing,
                        );
                        hash_events(&mut h, "data", &ev);
                    }
                }
            }
            // A token rotation: the same instance offered on each
            // network with 75% probability, gap state drawn per copy.
            35..=69 => {
                let pkt = token_packet(rotation, tok_seq);
                rotation += 1;
                tok_seq += rng.below(3);
                for net in 0..nets {
                    if rng.below(100) < 75 {
                        let missing = rng.below(3) == 0;
                        let ev = l.on_packet(
                            now,
                            NetworkId::new(net as u8),
                            pkt.clone().into(),
                            missing,
                        );
                        hash_events(&mut h, "token", &ev);
                    }
                }
            }
            // The SRP filled (or reported) a gap.
            70..=76 => {
                let missing = rng.below(2) == 0;
                hash_events(&mut h, "release", &l.poll_release(now, missing));
            }
            // A commit token (travels the token path, passes up).
            77..=82 => {
                let pkt = commit_packet(2 + rng.below(3));
                for net in 0..nets {
                    if rng.below(100) < 70 {
                        let ev =
                            l.on_packet(now, NetworkId::new(net as u8), pkt.clone().into(), false);
                        hash_events(&mut h, "commit", &ev);
                    }
                }
            }
            // Route queries: every class, hashed in order.
            83..=92 => {
                type RouteQuery = fn(&mut RrpLayer, &mut Vec<NetworkId>);
                let queries: [(&str, RouteQuery); 4] = [
                    ("rm", RrpLayer::routes_for_message_into),
                    ("rt", RrpLayer::routes_for_token_into),
                    ("rr", RrpLayer::routes_for_retransmission_into),
                    ("rb", RrpLayer::routes_for_membership_into),
                ];
                let mut routes = Vec::new();
                for (tag, query) in queries {
                    query(&mut l, &mut routes);
                    h.str(tag);
                    for n in &routes {
                        h.u64(n.index() as u64);
                    }
                }
            }
            // Administrative repair of a random network.
            _ => {
                let net = NetworkId::new(rng.below(nets) as u8);
                if l.reinstate(now, net) {
                    h.str("reinstated");
                    h.u64(net.index() as u64);
                }
            }
        }
    }

    // Final observable state.
    h.str(&format!("{:?}", l.stats()));
    h.str(&format!("{:?}", l.faulty()));
    h.str(&format!("{:?}", l.problem_counters()));
    let mut monitors: Vec<String> =
        l.monitor_report().iter().map(|(k, c)| format!("{k:?}:{c:?}")).collect();
    monitors.sort(); // HashMap iteration order is not part of the trace
    h.str(&format!("{monitors:?}"));
    h.str(&format!("{:?}", l.take_transitions()));
    h.0
}

#[test]
fn legacy_traces_are_reproduced() {
    for (ci, cfg) in legacy_configs().iter().enumerate() {
        for seed in 0..8u64 {
            assert_eq!(
                trace_digest(cfg, seed),
                FIXTURES[ci][seed as usize],
                "trace diverged from the recorded legacy fixture (config {ci}, seed {seed})"
            );
        }
    }
}

proptest::proptest! {
    /// Event-trace equivalence against the recorded legacy fixtures
    /// under seeded loss schedules.
    #[test]
    fn traces_match_recorded_fixtures(ci in 0usize..3, seed in 0u64..8) {
        let cfg = &legacy_configs()[ci];
        proptest::prop_assert_eq!(trace_digest(cfg, seed), FIXTURES[ci][seed as usize]);
    }
}

/// Regenerates the fixture table (run with `--ignored --nocapture`).
#[test]
#[ignore]
fn print_fixture_table() {
    for cfg in legacy_configs().iter() {
        println!("    [");
        for seed in 0..8u64 {
            println!("        0x{:016x},", trace_digest(cfg, seed));
        }
        println!("    ],");
    }
}
