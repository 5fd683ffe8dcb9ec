//! `TotemNode::on_datagram_into` is `SharedPacket::from_datagram`
//! followed by `on_packet_into`, observably.
//!
//! The datagram entry drops the copies replication delivers by design
//! — the token copy that only completes the gate, the data frame the
//! window already holds — before decoding them, and accounts for them
//! from their fixed header. That must be invisible: twin nodes, one
//! fed raw datagrams and one fed the decoded packets, are driven
//! through the same random script (fresh, duplicate, reordered,
//! foreign-ring, zero and far-ahead data frames; new, old and
//! duplicate tokens; joins; malformed datagrams; timers; submissions)
//! from each protocol state and under each replication style, and
//! after every step their outputs, state fingerprints, counters,
//! monitors, deadlines and conformance transitions are equal.
//!
//! The datagram entry also decodes into the packet cells the node
//! recycled (frames its window discarded, tokens it retired), so an
//! Operational script opens with a fixed prefix that makes it do so —
//! and then meets a malformed datagram with a spare cell at hand —
//! and each case checks that it did.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hasher};

use bytes::Bytes;
use proptest::prelude::*;
use totem_cluster::{NodeOutput, TotemNode};
use totem_rrp::{ReplicationStyle, RrpConfig};
use totem_srp::{SrpConfig, SrpState};
use totem_wire::{
    Chunk, DataPacket, JoinMessage, NetworkId, NodeId, Packet, RingId, Rotation, Seq, SharedPacket,
    Token,
};

const PEER: NodeId = NodeId::new(0);
const SUBJECT: NodeId = NodeId::new(1);

/// One generated script step; `interpret` gives the numbers meaning
/// against the twins' current state.
type Step = (u8, u16, u16, u8);

/// The twins (same identity, same inputs, different entry points) and
/// the one real peer they form a ring with.
struct Twins {
    /// Fed raw datagrams.
    fast: TotemNode,
    /// Fed what `from_datagram` makes of them.
    plain: TotemNode,
    peer: TotemNode,
    networks: usize,
    now: u64,
    /// Every datagram the twins were fed, for replays.
    history: Vec<Bytes>,
    /// The next unused data sequence number on the twins' ring, the
    /// highest used one, and the newest token rotation seen.
    next_seq: u64,
    high_seq: u64,
    rotation: u64,
    /// The ring the last commit token named.
    forming: Option<RingId>,
    /// Malformed datagrams fed while the datagram twin held a recycled
    /// cell to decode into.
    malformed_with_spare: u64,
}

/// The frames among `out` that reach node `to`.
fn sends(out: Vec<NodeOutput>, to: NodeId) -> impl Iterator<Item = (NetworkId, SharedPacket)> {
    out.into_iter().filter_map(move |o| match o {
        NodeOutput::Send { net, dst, pkt } if dst.is_none_or(|d| d == to) => Some((net, pkt)),
        _ => None,
    })
}

fn fingerprint(n: &TotemNode) -> u64 {
    let mut h = DefaultHasher::new();
    n.fingerprint(&mut h);
    h.finish()
}

fn monitors(n: &TotemNode) -> Vec<String> {
    n.rrp().monitor_report().iter().map(|m| format!("{m:?}")).collect()
}

impl Twins {
    fn new(style: ReplicationStyle, networks: usize) -> Self {
        let node =
            |me| TotemNode::new_joining(me, SrpConfig::default(), RrpConfig::new(style, networks));
        Twins {
            fast: node(SUBJECT),
            plain: node(SUBJECT),
            peer: node(PEER),
            networks,
            now: 0,
            history: Vec::new(),
            next_seq: 1,
            high_seq: 0,
            rotation: 0,
            forming: None,
            malformed_with_spare: 0,
        }
    }

    /// The twins must be indistinguishable; returns their outputs.
    fn agree(&mut self, fast: Vec<NodeOutput>, plain: Vec<NodeOutput>) -> Vec<NodeOutput> {
        assert_eq!(fast, plain, "outputs");
        assert_eq!(self.fast.state(), self.plain.state(), "state");
        assert_eq!(fingerprint(&self.fast), fingerprint(&self.plain), "fingerprint");
        assert_eq!(self.fast.srp().stats(), self.plain.srp().stats(), "srp stats");
        assert_eq!(self.fast.rrp().stats(), self.plain.rrp().stats(), "rrp stats");
        assert_eq!(self.fast.rrp().faulty(), self.plain.rrp().faulty(), "faulty set");
        assert_eq!(
            self.fast.rrp().problem_counters(),
            self.plain.rrp().problem_counters(),
            "problem counters"
        );
        assert_eq!(monitors(&self.fast), monitors(&self.plain), "reception monitors");
        assert_eq!(self.fast.next_deadline(), self.plain.next_deadline(), "deadline");
        assert_eq!(self.fast.take_transitions(), self.plain.take_transitions(), "transitions");
        // Keep the script's idea of the ring in step with what the
        // twins themselves put on it.
        for o in &fast {
            if let NodeOutput::Send { pkt, .. } = o {
                self.observe(pkt.packet());
            }
        }
        fast
    }

    /// Tracks the ring's sequence numbers, rotation and identity from a
    /// packet that really travelled on it.
    fn observe(&mut self, pkt: &Packet) {
        match pkt {
            Packet::Data(d) => {
                self.high_seq = self.high_seq.max(d.seq.as_u64());
                self.next_seq = self.next_seq.max(d.seq.as_u64() + 1);
            }
            Packet::Token(t) => {
                self.rotation = self.rotation.max(t.rotation.as_u64());
                self.high_seq = self.high_seq.max(t.seq.as_u64());
            }
            Packet::Commit(c) => self.forming = Some(c.ring),
            Packet::Join(_) | Packet::RingPaxos(_) => {}
        }
    }

    /// One datagram into both twins, each through its own entry point.
    fn feed(&mut self, net: NetworkId, datagram: Bytes) -> Vec<NodeOutput> {
        self.now += 10_000;
        self.history.push(datagram.clone());
        let cells = |n: &TotemNode| (n.srp().cells().len(), n.srp().cells().reused());
        let before = cells(&self.fast);
        let mut fast = Vec::new();
        self.fast.on_datagram_into(self.now, net, datagram.clone(), &mut fast);
        let mut plain = Vec::new();
        match SharedPacket::from_datagram(datagram) {
            Ok(pkt) => self.plain.on_packet_into(self.now, net, pkt, &mut plain),
            Err(_) => {
                // Refused before any cell is touched.
                assert_eq!(cells(&self.fast), before, "a malformed datagram took a cell");
                self.malformed_with_spare += u64::from(before.0 > 0);
            }
        }
        self.agree(fast, plain)
    }

    /// Fires the twins' next timer.
    fn fire(&mut self) -> Vec<NodeOutput> {
        let Some(deadline) = self.plain.next_deadline() else { return Vec::new() };
        self.now = self.now.max(deadline);
        let (fast, plain) = (self.fast.on_timer(self.now), self.plain.on_timer(self.now));
        self.agree(fast, plain)
    }

    fn submit(&mut self, payload: Bytes) -> Vec<NodeOutput> {
        let fast = self.fast.submit(self.now, payload.clone()).unwrap_or_default();
        let plain = self.plain.submit(self.now, payload).unwrap_or_default();
        self.agree(fast, plain)
    }

    /// Brings the twins to `target` on a ring they formed with the peer
    /// through the membership protocol, so that they hold a ring in
    /// every case: Operational is that ring; Gather is what follows
    /// once the peer has gone silent and the token-loss timer fired;
    /// Recovery is the middle of forming the next ring with the peer
    /// after that, the old one still held.
    fn bring_up(&mut self, target: SrpState) {
        let (fast, plain) = (self.fast.start(0), self.plain.start(0));
        let started = self.agree(fast, plain);
        let mut to_peer: VecDeque<(NetworkId, SharedPacket)> = sends(started, PEER).collect();
        let mut to_twins: VecDeque<(NetworkId, SharedPacket)> =
            sends(self.peer.start(0), SUBJECT).collect();
        self.exchange(SrpState::Operational, &mut to_twins, &mut to_peer);
        if target == SrpState::Operational {
            return;
        }
        // The peer falls silent; what it still had in flight is lost.
        to_twins.clear();
        for _ in 0..64 {
            if self.plain.state() == SrpState::Gather {
                break;
            }
            to_peer.extend(sends(self.fire(), PEER));
        }
        assert_eq!(self.plain.state(), SrpState::Gather, "the token-loss timer never fired");
        if target == SrpState::Recovery {
            self.exchange(SrpState::Recovery, &mut to_twins, &mut to_peer);
        }
    }

    /// Runs twins and peer against each other — the twins' sends to the
    /// peer, the peer's to both twins, the earliest timer when the wire
    /// is quiet — until the twins are in `until`.
    fn exchange(
        &mut self,
        until: SrpState,
        to_twins: &mut VecDeque<(NetworkId, SharedPacket)>,
        to_peer: &mut VecDeque<(NetworkId, SharedPacket)>,
    ) {
        for _ in 0..10_000 {
            if self.plain.state() == until {
                return;
            }
            if let Some((net, pkt)) = to_twins.pop_front() {
                self.observe(pkt.packet());
                let out = self.feed(net, pkt.encoded().clone());
                to_peer.extend(sends(out, PEER));
            } else if let Some((net, pkt)) = to_peer.pop_front() {
                self.now += 10_000;
                to_twins.extend(sends(self.peer.on_packet(self.now, net, pkt), SUBJECT));
            } else {
                let peer_due = self.peer.next_deadline().unwrap_or(u64::MAX);
                if self.plain.next_deadline().is_some_and(|d| d <= peer_due) {
                    to_peer.extend(sends(self.fire(), PEER));
                } else {
                    self.now = self.now.max(peer_due);
                    to_twins.extend(sends(self.peer.on_timer(self.now), SUBJECT));
                }
            }
        }
        panic!("the twins never reached {until:?}");
    }

    /// The ring script traffic is addressed to: the ring being formed
    /// while in Recovery (mostly), the twins' own ring otherwise.
    fn ring(&self, pick: u16) -> RingId {
        let own = self.plain.srp().ring_id().unwrap_or(RingId::new(PEER, 1));
        match self.forming {
            Some(forming)
                if self.plain.state() == SrpState::Recovery && !pick.is_multiple_of(4) =>
            {
                forming
            }
            _ => own,
        }
    }

    fn data(&self, ring: RingId, seq: u64, sender: NodeId, fill: u16) -> Bytes {
        Packet::Data(DataPacket {
            ring,
            seq: Seq::new(seq),
            sender,
            chunks: Chunk::complete(seq as u32, Bytes::from(vec![fill as u8; 24])).into(),
        })
        .encode_shared()
    }

    fn token(&self, ring: RingId, rotation: u64, seq: u64, x: u16, y: u16) -> Bytes {
        let aru = seq.saturating_sub(u64::from(y % 3));
        Packet::Token(Token {
            ring,
            rotation: Rotation::new(rotation),
            seq: Seq::new(seq),
            aru: Seq::new(aru),
            aru_id: (aru != seq).then_some(PEER),
            fcc: u32::from(x % 8),
            backlog: u32::from(y % 4),
            // Now and then ask for something the twins may hold.
            rtr: if x.is_multiple_of(5) {
                vec![Seq::new(1 + u64::from(y) % self.next_seq)]
            } else {
                vec![]
            },
        })
        .encode_shared()
    }

    fn interpret(&mut self, (kind, x, y, net): Step) {
        let net = NetworkId::new(net % self.networks as u8);
        let ring = self.ring(x);
        let datagram = match kind % 12 {
            // In order, as the ring produces them.
            0 | 1 => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.high_seq = self.high_seq.max(seq);
                self.data(ring, seq, PEER, y)
            }
            // Ahead of a gap; a later in-order frame collides with it.
            2 => {
                let seq = self.next_seq + 1 + u64::from(x % 3);
                self.high_seq = self.high_seq.max(seq);
                self.data(ring, seq, PEER, y)
            }
            // A copy of anything seen before, on any network: the
            // second copy of a frame or a token, a retransmission.
            3 | 4 if !self.history.is_empty() => {
                self.history[usize::from(x) % self.history.len()].clone()
            }
            // The next token, covering everything sent so far.
            3..=5 => {
                self.rotation += 1;
                self.token(ring, self.rotation, self.high_seq, x, y)
            }
            // A token from the past.
            6 => {
                let rotation = self.rotation.saturating_sub(1 + u64::from(x % 2));
                self.token(ring, rotation, self.high_seq.saturating_sub(u64::from(y % 3)), x, y)
            }
            // Another ring's traffic, newer or older, from a member or
            // a stranger.
            7 => {
                let other = RingId::new(ring.rep, (ring.seq + u64::from(x % 3)).saturating_sub(1));
                let sender = if y % 2 == 0 { PEER } else { NodeId::new(7) };
                if x % 2 == 0 {
                    self.data(other, 1 + u64::from(y % 4), sender, y)
                } else {
                    self.token(other, u64::from(y % 4), u64::from(x % 4), x, y)
                }
            }
            // Sequence numbers no ring produces, and membership gossip.
            8 => match x % 3 {
                0 => self.data(ring, 0, PEER, y),
                1 => self.data(ring, self.next_seq + 65_536 + u64::from(y), PEER, y),
                _ => Packet::Join(JoinMessage {
                    sender: if y % 2 == 0 { PEER } else { NodeId::new(7) },
                    ring_seq: ring.seq + u64::from(y % 2),
                    proc_set: vec![PEER, SUBJECT],
                    fail_set: vec![],
                })
                .encode_shared(),
            },
            // A frame the decoder rejects, with a perfectly good header
            // in front: cut short, damaged, or overlong.
            9 => {
                let base = match self.history.len() {
                    0 => self.data(ring, self.next_seq, PEER, y),
                    n => self.history[usize::from(x) % n].clone(),
                };
                let mut bytes = base.to_vec();
                match y % 3 {
                    0 => bytes.truncate(bytes.len().saturating_sub(1 + usize::from(x % 9))),
                    1 => {
                        let at = bytes.len() / 2 + usize::from(x) % (bytes.len() / 2).max(1);
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= 1 << (y % 8);
                        }
                    }
                    _ => bytes.push(y as u8),
                }
                Bytes::from(bytes)
            }
            10 => {
                self.fire();
                return;
            }
            _ => {
                self.submit(Bytes::from(vec![x as u8; 1 + usize::from(y % 64)]));
                return;
            }
        };
        self.feed(net, datagram);
    }
}

fn styles() -> [(ReplicationStyle, usize); 4] {
    [
        (ReplicationStyle::Single, 1),
        (ReplicationStyle::Active, 2),
        (ReplicationStyle::Passive, 2),
        (ReplicationStyle::KOfN { copies: 2 }, 3),
    ]
}

/// Opens an Operational script: four rounds of a fresh frame and the
/// token that covers it (its `aru` up to its `seq`), the token on every
/// network, then a truncated copy of the first datagram. By the third
/// token the datagram twin decodes into the token cell it retired, the
/// frames its window discarded are refilled by the next ones, and the
/// malformed datagram finds a recycled cell waiting.
fn recycle(twins: &mut Twins) {
    /// Whether the datagram twin handed out a recycled cell for `step`.
    fn step(twins: &mut Twins, step: Step) -> bool {
        let before = twins.fast.srp().cells().reused();
        twins.interpret(step);
        twins.fast.srp().cells().reused() > before
    }
    // Frames, tokens decoded into recycled cells.
    let mut reused = (0, 0);
    for _ in 0..4 {
        reused.0 += u32::from(step(twins, (0, 0, 0, 0)));
        reused.1 += u32::from(step(twins, (5, 1, 0, 0)));
        for net in 1..twins.networks as u8 {
            step(twins, (3, twins.history.len() as u16 - 1, 0, net));
        }
    }
    assert!(reused.0 > 0 && reused.1 > 0, "(frames, tokens) in recycled cells: {reused:?}");
    twins.interpret((9, 0, 0, 0));
    assert!(twins.malformed_with_spare > 0, "no malformed datagram met a spare cell");
}

fn run(target: SrpState, script: &[Step]) {
    for (style, networks) in styles() {
        let mut twins = Twins::new(style, networks);
        twins.bring_up(target);
        if target == SrpState::Operational {
            recycle(&mut twins);
        }
        for &step in script {
            twins.interpret(step);
        }
    }
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()), 80..240)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn datagram_entry_matches_decode_then_packet_entry_when_operational(script in script()) {
        run(SrpState::Operational, &script);
    }

    #[test]
    fn datagram_entry_matches_decode_then_packet_entry_in_gather(script in script()) {
        run(SrpState::Gather, &script);
    }

    #[test]
    fn datagram_entry_matches_decode_then_packet_entry_in_recovery(script in script()) {
        run(SrpState::Recovery, &script);
    }
}

/// The script reaches what it is for: from an Operational ring under
/// active replication it sends copies down the header-only paths (the
/// twins' reception counters run ahead of what was decoded for them)
/// and leaves the ring standing often enough to keep doing so.
#[test]
fn the_script_exercises_the_redundant_copy_paths() {
    let mut twins = Twins::new(ReplicationStyle::Active, 2);
    twins.bring_up(SrpState::Operational);
    let before: u64 = twins.plain.rrp().stats().received.iter().sum();
    for i in 0..6u16 {
        twins.interpret((0, 0, i, 0)); // fresh frame on net 0
        twins.interpret((3, twins.history.len() as u16 - 1, 0, 1)); // its copy on net 1
        twins.interpret((5, 1, 0, 0)); // a token on net 0
        twins.interpret((4, twins.history.len() as u16 - 1, 0, 1)); // its copy on net 1
    }
    let received: u64 = twins.plain.rrp().stats().received.iter().sum();
    assert_eq!(received - before, 24);
    assert_eq!(twins.plain.state(), SrpState::Operational);
    assert_eq!(twins.plain.srp().stats().tokens_handled, twins.fast.srp().stats().tokens_handled);
    assert!(twins.plain.srp().stats().tokens_handled >= 6);
}
