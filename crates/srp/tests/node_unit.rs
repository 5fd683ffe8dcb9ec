//! Direct single-node tests of the SRP state machine's §2 mechanics:
//! token acceptance/duplication rules, the token-retransmission rule,
//! idle-ring token pacing, aru arithmetic and stale-traffic filtering —
//! asserted on the node's explicit outputs, no harness in between.

use bytes::Bytes;
use totem_srp::{SrpConfig, SrpEvent, SrpNode};
use totem_wire::{Chunk, DataPacket, NodeId, Packet, RingId, Seq, Token};

fn members(n: u16) -> Vec<NodeId> {
    (0..n).map(NodeId::new).collect()
}

fn node(me: u16, n: u16) -> SrpNode {
    SrpNode::new_operational(NodeId::new(me), SrpConfig::default(), &members(n), 0).unwrap()
}

fn ring() -> RingId {
    RingId::new(NodeId::new(0), 1)
}

fn token(rotation: u64, seq: u64, aru: u64) -> Token {
    let mut t = Token::initial(ring());
    t.rotation = totem_wire::Rotation::new(rotation);
    t.seq = Seq::new(seq);
    t.aru = Seq::new(aru);
    t
}

fn data(seq: u64, sender: u16, body: &'static [u8]) -> DataPacket {
    DataPacket {
        ring: ring(),
        seq: Seq::new(seq),
        sender: NodeId::new(sender),
        chunks: Chunk::complete(seq as u32, Bytes::from_static(body)).into(),
    }
}

fn sent_token(events: &[SrpEvent]) -> Option<(&NodeId, &Token)> {
    events.iter().find_map(|e| match e {
        SrpEvent::ToSuccessor(succ, pkt) => match pkt.packet() {
            Packet::Token(t) => Some((succ, t)),
            _ => None,
        },
        _ => None,
    })
}

#[test]
fn fresh_token_is_forwarded_to_ring_successor() {
    // Node 1 of {0,1,2}: successor is node 2.
    let mut n = node(1, 3);
    n.submit(0, Bytes::from_static(b"hi")).unwrap();
    let events = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    let (succ, t) = sent_token(&events).expect("token forwarded");
    assert_eq!(*succ, NodeId::new(2));
    assert_eq!(t.seq, Seq::new(1), "one packet was broadcast");
}

#[test]
fn last_member_wraps_token_to_representative() {
    let mut n = node(2, 3);
    n.submit(0, Bytes::from_static(b"x")).unwrap();
    let events = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    let (succ, _) = sent_token(&events).expect("token forwarded");
    assert_eq!(*succ, NodeId::new(0));
}

#[test]
fn duplicate_token_instance_is_ignored() {
    let mut n = node(1, 3);
    n.submit(0, Bytes::from_static(b"hi")).unwrap();
    let first = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    assert!(sent_token(&first).is_some());
    // The identical (retransmitted) token instance: no processing.
    let second = n.handle_packet(10, Packet::Token(token(0, 0, 0)).into());
    assert!(second.is_empty(), "retransmitted token must be ignored: {second:?}");
    assert_eq!(n.stats().tokens_handled, 1);
}

#[test]
fn idle_ring_rotation_counter_distinguishes_new_tokens() {
    // Same seq on consecutive rotations: the rotation counter (paper
    // §2 footnote 1) marks the second as fresh.
    let mut n = node(1, 3);
    let e1 = n.handle_packet(0, Packet::Token(token(1, 0, 0)).into());
    // An idle visit is held, not forwarded immediately...
    assert!(sent_token(&e1).is_none());
    // ...until the pacing timer releases it.
    let deadline = n.next_deadline().expect("hold armed");
    let e2 = n.on_timer(deadline);
    assert!(sent_token(&e2).is_some(), "held token released by the pacing timer");
    // The next rotation's token (identical seq, bumped rotation) is
    // recognized as FRESH, not as a duplicate.
    let _ = n.handle_packet(1_000_000, Packet::Token(token(2, 0, 0)).into());
    assert_eq!(n.stats().tokens_handled, 2);
    // Whereas an exact copy of it is a duplicate.
    let e4 = n.handle_packet(1_000_001, Packet::Token(token(2, 0, 0)).into());
    assert!(e4.is_empty());
    assert_eq!(n.stats().tokens_handled, 2);
}

#[test]
fn submit_releases_held_token_with_the_message_aboard() {
    let mut n = node(1, 3);
    let held = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    assert!(sent_token(&held).is_none(), "idle token is held");
    let events = n.submit(50_000, Bytes::from_static(b"now")).unwrap();
    let (_, t) = sent_token(&events).expect("submit releases the token");
    assert_eq!(t.seq, Seq::new(1), "the fresh message got a sequence number");
    assert_eq!(t.aru, Seq::new(1), "aru must track the new seq on an all-caught-up ring");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SrpEvent::Broadcast(p) if p.data().is_some_and(|d| d.seq == Seq::new(1)))),
        "the message itself was broadcast"
    );
}

#[test]
fn token_reporting_a_backlog_elsewhere_is_not_held() {
    // Nothing of our own to send, but another member reports queued
    // messages: the ring is not idle, so the token moves on at once.
    let mut n = node(1, 3);
    let mut t = token(0, 0, 0);
    t.backlog = 7;
    let events = n.handle_packet(0, Packet::Token(t).into());
    let (succ, t) = sent_token(&events).expect("forwarded in the same call");
    assert_eq!(*succ, NodeId::new(2));
    assert_eq!(t.backlog, 7, "an empty queue adds nothing to the sum");
    assert_eq!(n.stats().tokens_held, 0);
    // Only the retransmit and loss timers are armed: no hold deadline
    // sits 200 µs out.
    let cfg = SrpConfig::default();
    assert_eq!(n.next_deadline(), Some(cfg.token_retransmit_interval));
}

#[test]
fn token_reporting_no_backlog_is_held_on_an_idle_ring() {
    let mut n = node(1, 3);
    let held = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    assert!(sent_token(&held).is_none(), "idle ring: the token is held");
    assert_eq!(n.stats().tokens_held, 1);
    assert_eq!(n.next_deadline(), Some(SrpConfig::default().idle_token_hold));
}

/// A message that fills a packet by itself, so the queue drains by
/// exactly one message per packet sent.
fn full_frame_message() -> Bytes {
    Bytes::from(vec![0u8; totem_wire::frame::MAX_UNFRAGMENTED_MSG])
}

#[test]
fn backlog_share_is_replaced_on_every_visit_and_saturates() {
    // Another member's share rides on the token. This node leaves 5,
    // 5, 3, then 0 messages queued after its visits (the per-visit cap
    // is 20 packets).
    let mut n = node(1, 3);
    let mut seq = 0;
    let mut visit = |n: &mut SrpNode, rotation: u64, submit: usize, carried: u32| {
        for _ in 0..submit {
            n.submit(rotation, full_frame_message()).unwrap();
        }
        let mut t = token(rotation, seq, seq);
        t.backlog = carried;
        let events = n.handle_packet(rotation, Packet::Token(t).into());
        let (_, t) = sent_token(&events).expect("a visit with a backlog aboard forwards");
        seq = t.seq.as_u64();
        (n.send_queue_len(), t.backlog)
    };
    assert_eq!(visit(&mut n, 0, 25, 7), (5, 12));
    assert_eq!(visit(&mut n, 1, 20, 12), (5, 12), "the previous 5 is replaced, not added to");
    // The token comes back carrying less than this node's previous
    // share (a damaged field, or a ring that restarted the sum): the
    // subtraction stops at zero and the node's own 3 is what is left.
    assert_eq!(visit(&mut n, 2, 18, 2), (3, 3), "a stale share saturates, it does not wrap");
    assert_eq!(visit(&mut n, 3, 0, 10), (0, 7), "an emptied queue withdraws its share");
}

#[test]
fn token_retransmission_until_evidence_of_receipt() {
    let mut n = node(1, 3);
    n.submit(0, Bytes::from_static(b"m")).unwrap();
    let events = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    assert!(sent_token(&events).is_some());
    // No evidence: the retransmit timer resends the same token.
    let retx_at = n.next_deadline().expect("retx armed");
    let events = n.on_timer(retx_at);
    let (_, t) = sent_token(&events).expect("token retransmitted");
    assert_eq!(t.seq, Seq::new(1));
    assert_eq!(n.stats().token_retransmits, 1);
    // Evidence arrives: a higher sequence number broadcast by someone
    // downstream. Retransmissions stop.
    n.handle_packet(retx_at + 1, Packet::Data(data(2, 2, b"downstream")).into());
    let next = n.next_deadline().expect("token-loss still armed");
    let events = n.on_timer(next);
    assert!(sent_token(&events).is_none(), "no further token retransmission");
    assert_eq!(n.stats().token_retransmits, 1);
}

#[test]
fn token_from_a_stale_ring_is_ignored() {
    let mut n = node(1, 3);
    let mut t = token(0, 7, 7);
    t.ring = RingId::new(NodeId::new(0), 0); // an older ring
    assert!(n.handle_packet(0, Packet::Token(t).into()).is_empty());
    assert_eq!(n.stats().tokens_handled, 0);
}

#[test]
fn data_from_a_stale_ring_is_ignored() {
    let mut n = node(1, 3);
    let mut d = data(1, 0, b"old");
    d.ring = RingId::new(NodeId::new(0), 0);
    let events = n.handle_packet(0, Packet::Data(d).into());
    assert!(events.iter().all(|e| !matches!(e, SrpEvent::Deliver(_))));
}

#[test]
fn aru_is_lowered_by_a_lagging_node_and_raised_when_it_catches_up() {
    let mut n = node(1, 3);
    // The ring has 4 packets; this node has none of them.
    let events = n.handle_packet(0, Packet::Token(token(0, 4, 4)).into());
    let (_, t) = sent_token(&events).expect("forwarded");
    assert_eq!(t.aru, Seq::ZERO, "lagging node lowers aru to its own watermark");
    assert_eq!(t.aru_id, Some(NodeId::new(1)));
    assert_eq!(t.rtr.len(), 4, "all four missing packets requested");

    // The packets arrive (retransmitted); next visit restores aru.
    for s in 1..=4 {
        n.handle_packet(s, Packet::Data(data(s, 0, b"fill")).into());
    }
    let mut back = token(1, 4, 0);
    back.aru_id = Some(NodeId::new(1));
    let mut events = n.handle_packet(100, Packet::Token(back).into());
    if sent_token(&events).is_none() {
        // The caught-up visit is idle: the token is held; release it.
        events = n.on_timer(n.next_deadline().expect("hold armed"));
    }
    let (_, t) = sent_token(&events).expect("forwarded");
    assert_eq!(t.aru, Seq::new(4), "caught-up node releases the aru");
    assert_eq!(t.aru_id, None);
}

#[test]
fn retransmission_requests_are_served_from_the_buffer() {
    let mut n = node(1, 3);
    for s in 1..=3 {
        n.handle_packet(s, Packet::Data(data(s, 0, b"keep")).into());
    }
    let mut t = token(0, 3, 3);
    t.rtr = vec![Seq::new(2)];
    let events = n.handle_packet(10, Packet::Token(t).into());
    let served = events.iter().any(
        |e| matches!(e, SrpEvent::Rebroadcast(p) if p.data().is_some_and(|d| d.seq == Seq::new(2))),
    );
    assert!(served, "requested packet must be rebroadcast");
    let (_, t) = sent_token(&events).expect("forwarded");
    assert!(t.rtr.is_empty(), "served request removed from the token");
    assert_eq!(n.stats().retransmissions, 1);
}

/// Paper §2: a packet is freed only once the token's `aru` has come
/// around twice at or past it. On its first visit a sender has seen one
/// `aru` — the one it just raised over its own broadcast — so it frees
/// nothing, and a successor that lost the packet can still have it.
#[test]
fn first_visit_frees_nothing_so_a_lost_broadcast_is_served() {
    let mut n = node(1, 3);
    n.submit(0, Bytes::from_static(b"hi")).unwrap();
    let events = n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    let (_, t) = sent_token(&events).expect("forwarded");
    assert_eq!((t.seq, t.aru), (Seq::new(1), Seq::new(1)), "broadcast seq 1, raised aru");

    // Node 2 lost seq 1: it lowered aru and asked for it.
    let mut back = token(1, 1, 0);
    back.aru_id = Some(NodeId::new(2));
    back.rtr = vec![Seq::new(1)];
    let events = n.handle_packet(10, Packet::Token(back).into());
    let served = events.iter().any(
        |e| matches!(e, SrpEvent::Rebroadcast(p) if p.data().is_some_and(|d| d.seq == Seq::new(1))),
    );
    assert!(served, "the first visit's broadcast must still be buffered");
}

#[test]
fn unservable_requests_stay_on_the_token() {
    let mut n = node(1, 3);
    let mut t = token(0, 9, 0);
    t.rtr = vec![Seq::new(7)];
    t.aru_id = Some(NodeId::new(2));
    let events = n.handle_packet(0, Packet::Token(t).into());
    let (_, t) = sent_token(&events).expect("forwarded");
    assert!(t.rtr.contains(&Seq::new(7)), "unserved request rides on");
}

#[test]
fn own_messages_are_delivered_locally_in_order() {
    let mut n = node(0, 2);
    n.submit(0, Bytes::from_static(b"a")).unwrap();
    n.submit(0, Bytes::from_static(b"b")).unwrap();
    let events = n.bootstrap_token(0);
    let delivered: Vec<&[u8]> = events
        .iter()
        .filter_map(|e| match e {
            SrpEvent::Deliver(d) => Some(&d.data[..]),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![b"a".as_slice(), b"b".as_slice()]);
}

#[test]
fn token_loss_timer_starts_the_membership_protocol() {
    let mut n = node(1, 3);
    n.handle_packet(0, Packet::Token(token(0, 0, 0)).into());
    // Let hold + retransmissions pass; eventually the loss timer fires.
    let mut now = 0;
    for _ in 0..64 {
        let Some(d) = n.next_deadline() else { break };
        now = now.max(d);
        let events = n.on_timer(now);
        if events
            .iter()
            .any(|e| matches!(e, SrpEvent::Broadcast(p) if matches!(p.packet(), Packet::Join(_))))
        {
            assert_eq!(n.state(), totem_srp::SrpState::Gather);
            assert_eq!(n.stats().gathers, 1);
            return;
        }
    }
    panic!("token loss never triggered the membership protocol");
}

#[test]
fn next_deadline_is_always_armed_while_operational() {
    let n = node(1, 3);
    assert!(n.next_deadline().is_some(), "token-loss timer must be armed from birth");
}
