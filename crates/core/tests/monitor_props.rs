//! Property tests for the fault-detection arms of the layer: the
//! passive reception-count monitor (paper §6 Figure 5, Requirements
//! P4/P5) and active replication's problem counters with decay (§5
//! Figure 2, Requirements A5/A6).
//!
//! The invariant pair under test, for both styles:
//!
//! * **sporadic** loss — rarer than the forgiveness mechanism's rate —
//!   must never accumulate into a false alarm, over any loss pattern;
//! * **sustained** loss (a dead network) must always be flagged, and
//!   flagged exactly once, regardless of the traffic that preceded it.

use proptest::prelude::*;
use totem_rrp::monitor::MonitorModule;
use totem_rrp::{PerNet, ReplicationStyle, RrpConfig, RrpEvent, RrpLayer};
use totem_wire::{NetworkId, NodeId, Packet, RingId, Seq, Token};

fn token(rotation: u64, seq: u64) -> Token {
    let mut t = Token::initial(RingId::new(NodeId::new(0), 1));
    t.rotation = totem_wire::Rotation::new(rotation);
    t.seq = Seq::new(seq);
    t
}

fn fault_count(events: &[RrpEvent]) -> usize {
    events.iter().filter(|e| matches!(e, RrpEvent::Fault(_))).count()
}

proptest! {
    /// P4/P5: message-driven compensation forgives sporadic loss. With
    /// forgiveness at one credit per `comp_every = 10` receptions
    /// (~19% of traffic here) and a loss rate of ~1/8 (~6% divergence
    /// growth), no loss pattern drawn at that rate may ever flag the
    /// lossy network.
    #[test]
    fn sporadic_reception_loss_never_faults(
        drops in proptest::collection::vec(0u8..8, 50..400),
    ) {
        let mut m = MonitorModule::new(2, 25, 10);
        let faulty: PerNet<bool> = PerNet::filled(2, false);
        for &d in &drops {
            prop_assert!(
                m.record(NetworkId::new(0), &faulty).is_empty(),
                "net0 (lossless) must never be suspect"
            );
            if d != 0 {
                prop_assert!(
                    m.record(NetworkId::new(1), &faulty).is_empty(),
                    "sporadic loss accumulated into a false alarm"
                );
            }
        }
    }

    /// P5's flip side: a dead network can never be masked by the
    /// compensation. Whatever balanced traffic came before, once net1
    /// goes silent the divergence grows at (comp_every - 1) per
    /// comp_every receptions and must cross any finite threshold —
    /// within threshold * comp_every / (comp_every - 1) receptions,
    /// and the flag fires on net1 only.
    #[test]
    fn dead_network_always_crosses_the_threshold(
        warmup in 0usize..200,
        threshold in 5u64..40,
    ) {
        let comp_every = 10u64;
        let mut m = MonitorModule::new(2, threshold, comp_every);
        let faulty: PerNet<bool> = PerNet::filled(2, false);
        for _ in 0..warmup {
            prop_assert!(m.record(NetworkId::new(0), &faulty).is_empty());
            prop_assert!(m.record(NetworkId::new(1), &faulty).is_empty());
        }
        // net1 dies: only net0 receives from here on.
        let bound = (threshold as usize + 2) * comp_every as usize / (comp_every as usize - 1) + 2;
        let mut flagged_at = None;
        for i in 0..bound {
            let suspects = m.record(NetworkId::new(0), &faulty);
            if !suspects.is_empty() {
                prop_assert!(suspects.iter().all(|(n, _)| *n == NetworkId::new(1)));
                flagged_at = Some(i);
                break;
            }
        }
        prop_assert!(
            flagged_at.is_some(),
            "dead network not flagged within {bound} receptions (threshold {threshold})"
        );
    }

    /// A5/A6: active replication's problem-counter decay forgives
    /// token-copy losses spaced at least one decay interval apart.
    /// For any such loss pattern the lossy network's counter never
    /// exceeds 1, so no fault is ever declared.
    #[test]
    fn active_decay_forgives_spaced_token_losses(
        drops in proptest::collection::vec(any::<bool>(), 20..120),
    ) {
        let cfg = RrpConfig::new(ReplicationStyle::Active, 2);
        let mut layer = RrpLayer::new(cfg.clone()).expect("valid config");
        // Each round is one token rotation, spaced so that a decay
        // interval elapses between consecutive rounds: a loss in every
        // round is still "sporadic" relative to the decay clock.
        let round_len = cfg.problem_decay_interval + cfg.active_token_timeout + 2;
        for (i, &drop_net1) in drops.iter().enumerate() {
            let now = i as u64 * round_len;
            let t = token(i as u64, i as u64);
            let ev = layer.on_packet(now, NetworkId::new(0), Packet::Token(t.clone()).into(), false);
            prop_assert_eq!(fault_count(&ev), 0);
            if !drop_net1 {
                let ev = layer.on_packet(now + 1, NetworkId::new(1), Packet::Token(t).into(), false);
                prop_assert_eq!(fault_count(&ev), 0);
            }
            // Fires the token timer (penalizing net1 on a loss) and,
            // with this spacing, exactly one counter decay.
            let ev = layer.on_timer(now + round_len - 1);
            prop_assert_eq!(fault_count(&ev), 0, "sporadic token loss must never fault");
            prop_assert!(layer.problem_counters().iter().all(|&c| c <= 1));
            prop_assert!(layer.faulty().iter().all(|&f| !f));
        }
    }

    /// A5: sustained token-copy loss — faster than the decay — always
    /// faults the dead network, exactly once, at exactly the problem
    /// threshold, for any length of healthy warmup traffic.
    #[test]
    fn active_sustained_loss_always_faults(
        warmup in 0u64..30,
        extra in 1u64..20,
    ) {
        let cfg = RrpConfig::new(ReplicationStyle::Active, 2);
        let mut layer = RrpLayer::new(cfg.clone()).expect("valid config");
        let round_len = cfg.active_token_timeout + 2; // far below the decay interval
        let mut now = 0;
        let mut rotation = 0;
        for _ in 0..warmup {
            let t = token(rotation, rotation);
            layer.on_packet(now, NetworkId::new(0), Packet::Token(t.clone()).into(), false);
            layer.on_packet(now + 1, NetworkId::new(1), Packet::Token(t).into(), false);
            now += round_len;
            rotation += 1;
        }
        prop_assert!(layer.faulty().iter().all(|&f| !f));
        // net1 dies; every rotation now times out.
        let mut faults = 0;
        let mut faulted_after = None;
        for dead_round in 0..u64::from(cfg.problem_threshold) + extra {
            let t = token(rotation, rotation);
            layer.on_packet(now, NetworkId::new(0), Packet::Token(t).into(), false);
            let ev = layer.on_timer(now + cfg.active_token_timeout);
            let n = fault_count(&ev);
            if n > 0 {
                faults += n;
                faulted_after.get_or_insert(dead_round + 1);
            }
            now += round_len;
            rotation += 1;
        }
        prop_assert_eq!(faults, 1, "a dead network is reported exactly once");
        prop_assert_eq!(faulted_after, Some(u64::from(cfg.problem_threshold)));
        // Pinned as a literal too: the default is the paper's threshold
        // of ten, so a changed default turns this red.
        prop_assert_eq!(faulted_after, Some(10), "the 10th timed-out visit reports");
        prop_assert_eq!(layer.faulty(), vec![false, true]);
    }
}
