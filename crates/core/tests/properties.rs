//! Property-based tests on the redundant ring layer: the paper's
//! requirements as invariants over arbitrary interleavings.

use proptest::prelude::*;
use totem_rrp::{ReplicationStyle, RrpConfig, RrpEvent, RrpLayer};
use totem_wire::{NetworkId, NodeId, Packet, RingId, Seq, Token};

fn token(rotation: u64, seq: u64) -> Token {
    let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
    t.rotation = totem_wire::Rotation::new(rotation);
    t.seq = Seq::new(seq);
    t
}

fn deliveries(events: &[RrpEvent]) -> usize {
    events.iter().filter(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())).count()
}

proptest! {
    /// Active replication, arbitrary interleaving of token copies over
    /// N lossless networks and rotations: every token instance is
    /// delivered to the SRP exactly once, and never before all N
    /// copies arrived (no timer runs in this test).
    #[test]
    fn active_delivers_each_token_instance_exactly_once(
        networks in 2usize..5,
        rotations in 1u64..20,
        // Per rotation, a permutation choice for copy arrival order.
        perm_seed in any::<u64>(),
    ) {
        let mut layer = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, networks)).expect("valid config");
        let mut seed = perm_seed;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut now = 0u64;
        for r in 0..rotations {
            let t = token(r, r * 3);
            // Random arrival order of the N copies.
            let mut order: Vec<usize> = (0..networks).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (rng() % (i as u64 + 1)) as usize);
            }
            let mut total = 0;
            for (k, &net) in order.iter().enumerate() {
                now += 1;
                let ev = layer.on_packet(now, NetworkId::new(net as u8), Packet::Token(t.clone()).into(), false);
                let d = deliveries(&ev);
                if k + 1 < networks {
                    prop_assert_eq!(d, 0, "delivered before all copies arrived");
                }
                total += d;
            }
            prop_assert_eq!(total, 1, "rotation {} delivered {} times", r, total);
        }
    }

    /// Active replication: data packets always pass straight up, one
    /// event per reception, never a fault on lossless networks.
    #[test]
    fn active_passes_every_message_reception_up(
        networks in 2usize..5,
        packets in proptest::collection::vec((0u64..100, 0u8..4), 1..200),
    ) {
        let mut layer = RrpLayer::new(RrpConfig::new(ReplicationStyle::Active, networks)).expect("valid config");
        for (i, (seq, net)) in packets.iter().enumerate() {
            let net = NetworkId::new(net % networks as u8);
            let pkt = Packet::Data(totem_wire::DataPacket {
                ring: RingId::new(NodeId::new(0), 1),
                seq: Seq::new(*seq),
                sender: NodeId::new((seq % 4) as u16),
                chunks: Default::default(),
            });
            let ev = layer.on_packet(i as u64, net, pkt.into(), false);
            prop_assert_eq!(ev.len(), 1);
            prop_assert!(matches!(&ev[0], RrpEvent::Deliver(p, n) if p.data().is_some() && *n == net));
        }
    }

    /// Passive replication: any interleaving of balanced per-sender
    /// traffic (each sender's stream strictly alternating networks, as
    /// the sending rule guarantees) never declares a fault (P5), and
    /// round-robin routing is balanced within one packet.
    #[test]
    fn passive_monitors_tolerate_any_balanced_interleaving(
        lanes in proptest::collection::vec(0usize..4, 1..400),
    ) {
        let networks = 2usize;
        let mut layer = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, networks)).expect("valid config");
        // Each "lane" is a sender whose own packets alternate networks.
        let mut next_net = [0u8; 4];
        for (i, &lane) in lanes.iter().enumerate() {
            let net = NetworkId::new(next_net[lane]);
            next_net[lane] = (next_net[lane] + 1) % networks as u8;
            let pkt = Packet::Data(totem_wire::DataPacket {
                ring: RingId::new(NodeId::new(0), 1),
                seq: Seq::new(i as u64 + 1),
                sender: NodeId::new(lane as u16),
                chunks: Default::default(),
            });
            let ev = layer.on_packet(i as u64, net, pkt.into(), false);
            prop_assert!(
                ev.iter().all(|e| !matches!(e, RrpEvent::Fault(_))),
                "balanced traffic must never trip a monitor"
            );
        }
        // Routing stays balanced: over 2k routes the two networks
        // differ by at most one.
        let mut counts = [0u32; 2];
        let mut routes = Vec::new();
        for _ in 0..2000 {
            layer.routes_for_message_into(&mut routes);
            for net in &routes {
                counts[net.index()] += 1;
            }
        }
        prop_assert!(counts[0].abs_diff(counts[1]) <= 1, "routing imbalance: {counts:?}");
    }

    /// Passive replication never delivers a token while messages are
    /// missing, except through the explicit timer/release paths (P1):
    /// feeding tokens with `any_missing = true` yields no token
    /// delivery, and the buffered token is recovered exactly once via
    /// `poll_release`.
    #[test]
    fn passive_gates_tokens_behind_gaps(
        seqs in proptest::collection::vec(1u64..1000, 1..30),
    ) {
        let mut layer = RrpLayer::new(RrpConfig::new(ReplicationStyle::Passive, 2)).expect("valid config");
        let mut now = 0;
        let mut best: Option<(u64, u64)> = None;
        for (i, &s) in seqs.iter().enumerate() {
            now += 1;
            let t = token(i as u64, s);
            best = best.max(Some((i as u64, s)));
            let ev = layer.on_packet(now, NetworkId::new((i % 2) as u8), Packet::Token(t).into(), true);
            prop_assert_eq!(deliveries(&ev), 0, "token leaked past a gap");
        }
        let ev = layer.poll_release(now + 1, false);
        prop_assert_eq!(deliveries(&ev), 1);
        // The newest token is the one released.
        if let Some(RrpEvent::Deliver(p, _)) =
            ev.iter().find(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class()))
        {
            if let Packet::Token(t) = p.packet() {
                prop_assert_eq!((t.rotation.as_u64(), t.seq.as_u64()), best.unwrap());
            }
        }
        // Nothing more to release.
        prop_assert_eq!(layer.poll_release(now + 2, false).len(), 0);
    }

    /// Active-passive: a token instance is delivered exactly once as
    /// soon as K distinct copies arrive, for any arrival interleaving.
    #[test]
    fn active_passive_k_copy_gate(
        networks in 3usize..6,
        k_off in 0usize..2,
        perm_seed in any::<u64>(),
        rotations in 1u64..12,
    ) {
        let k = (2 + k_off).min(networks - 1);
        let mut layer =
            RrpLayer::new(RrpConfig::new(ReplicationStyle::ActivePassive { copies: k as u8 }, networks)).expect("valid config");
        let mut seed = perm_seed | 1;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut now = 0u64;
        for r in 0..rotations {
            let t = token(r, r);
            let mut order: Vec<usize> = (0..networks).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (rng() % (i as u64 + 1)) as usize);
            }
            let mut seen = 0;
            let mut total = 0;
            for &net in &order {
                now += 1;
                let ev = layer.on_packet(now, NetworkId::new(net as u8), Packet::Token(t.clone()).into(), false);
                seen += 1;
                let d = deliveries(&ev);
                if seen < k {
                    prop_assert_eq!(d, 0, "delivered with only {} of {} copies", seen, k);
                } else if seen == k {
                    prop_assert_eq!(d, 1, "not delivered at the K-th copy");
                } else {
                    prop_assert_eq!(d, 0, "delivered again after the K-th copy");
                }
                total += d;
            }
            prop_assert_eq!(total, 1);
        }
    }
}
