//! Property-based tests on the SRP's core data structures: the
//! receive window's contiguity/gap invariants under arbitrary arrival
//! orders, the ring-buffer window against the ordered-map window it
//! replaced, and packer/reassembler round-trips over arbitrary
//! message mixes.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use totem_srp::packing::{Packer, Reassembler};
use totem_srp::window::ReceiveWindow;
use totem_wire::frame::MAX_PAYLOAD;
use totem_wire::{
    Chunk, Chunks, DataPacket, NodeId, Packet, RingId, Seq, SharedPacket, MAX_COUNTER,
};

fn pkt(seq: u64) -> DataPacket {
    DataPacket {
        ring: RingId::new(NodeId::new(0), 1),
        seq: Seq::new(seq),
        sender: NodeId::new(0),
        chunks: Default::default(),
    }
}

fn seq_of(p: &SharedPacket) -> u64 {
    p.data().map_or(0, |d| d.seq.as_u64())
}

/// Delivers up to `up_to`, returning the delivered sequence numbers.
fn take(w: &mut ReceiveWindow, up_to: Seq) -> Vec<u64> {
    let mut out = Vec::new();
    w.take_deliverable(up_to, |p| out.push(seq_of(p)));
    out
}

/// The ordered-map receive window the ring buffer replaced, kept
/// verbatim as the reference model for
/// `ring_window_matches_the_map_model`.
#[derive(Default)]
struct MapWindow {
    packets: BTreeMap<u64, SharedPacket>,
    my_aru: Seq,
    high_seen: Seq,
    delivered_up_to: Seq,
    duplicates: u64,
}

impl MapWindow {
    fn insert(&mut self, pkt: SharedPacket) -> bool {
        let Some(d) = pkt.data() else { return false };
        let seq = d.seq;
        let s = seq.as_u64();
        if s == 0 {
            return false;
        }
        if seq <= self.my_aru || self.packets.contains_key(&s) {
            self.duplicates += 1;
            return false;
        }
        self.note_seq(seq);
        self.packets.insert(s, pkt);
        while self.packets.contains_key(&self.my_aru.next().as_u64()) {
            self.my_aru = self.my_aru.next();
        }
        true
    }

    fn note_seq(&mut self, seq: Seq) {
        self.high_seen = self.high_seen.max(seq);
    }

    fn missing(&self, limit: usize) -> Vec<Seq> {
        self.my_aru
            .missing_until(self.high_seen)
            .filter(|s| !self.packets.contains_key(&s.as_u64()))
            .take(limit)
            .collect()
    }

    fn get(&self, seq: Seq) -> Option<&SharedPacket> {
        self.packets.get(&seq.as_u64())
    }

    fn take_deliverable(&mut self, up_to: Seq) -> Vec<u64> {
        let hi = up_to.min(self.my_aru);
        let mut out = Vec::new();
        for s in self.delivered_up_to.missing_until(hi) {
            let Some(pkt) = self.packets.get(&s.as_u64()) else { break };
            out.push(seq_of(pkt));
            self.delivered_up_to = s;
        }
        out
    }

    /// Returns the sequence numbers discarded, in order.
    fn discard_up_to(&mut self, floor: Seq) -> Vec<u64> {
        let floor = floor.min(self.delivered_up_to);
        let gone: Vec<u64> =
            self.packets.keys().copied().filter(|&s| Seq::new(s) <= floor).collect();
        self.packets.retain(|s, _| Seq::new(*s) > floor);
        gone
    }

    fn range(&self, lo: Seq, hi: Seq) -> Vec<u64> {
        lo.missing_until(hi).filter_map(|s| self.get(s)).map(seq_of).collect()
    }

    fn is_consistent(&self) -> bool {
        if self.delivered_up_to > self.my_aru
            || self.my_aru > self.high_seen
            || self.high_seen.as_u64() >= MAX_COUNTER
        {
            return false;
        }
        let mut walk = self.delivered_up_to.missing_until(self.my_aru);
        walk.by_ref().take(65_536).all(|s| self.packets.contains_key(&s.as_u64()))
            && walk.next().is_none()
    }

    fn corrupt<R: rand::Rng>(&mut self, rng: &mut R) {
        let jump = rng.gen_range(1..64);
        match rng.gen_range(0..4) {
            0 => (0..jump).for_each(|_| self.my_aru = self.my_aru.next()),
            1 => self.my_aru = Seq::new(self.my_aru.as_u64().wrapping_sub(jump)),
            2 => (0..jump * 16).for_each(|_| self.high_seen = self.high_seen.next()),
            _ => {
                self.delivered_up_to = Seq::new(self.delivered_up_to.as_u64().wrapping_sub(jump));
            }
        }
    }
}

/// One step of the differential test. Positions are distances along
/// the sequence line from a moving anchor, so the same script slides
/// with the window.
#[derive(Debug, Clone)]
enum WindowOp {
    /// Insert `my_aru + 1`: the in-order arrival.
    InsertNext,
    /// Insert `anchor + d`: reordered, duplicate and stale arrivals.
    InsertNear(u64),
    /// Insert sequence number zero (always rejected).
    InsertZero,
    /// Insert far ahead of `my_aru`, still below the span cap.
    InsertFar(u64),
    /// `note_seq(anchor + d)`.
    Note(u64),
    /// `take_deliverable(anchor + d)`.
    Take(u64),
    /// `discard_up_to(anchor + d)`.
    Discard(u64),
    /// `range(anchor + lo, anchor + lo + len)`.
    Range(u64, u64),
    /// `corrupt` with an RNG seeded alike on both sides.
    Corrupt(u64),
}

fn window_op() -> impl Strategy<Value = WindowOp> {
    prop_oneof![
        Just(WindowOp::InsertNext),
        Just(WindowOp::InsertNext),
        (0u64..40).prop_map(WindowOp::InsertNear),
        (0u64..40).prop_map(WindowOp::InsertNear),
        Just(WindowOp::InsertZero),
        (1_000u64..30_000).prop_map(WindowOp::InsertFar),
        (0u64..40).prop_map(WindowOp::Note),
        (0u64..40).prop_map(WindowOp::Take),
        (0u64..40).prop_map(WindowOp::Take),
        (0u64..40).prop_map(WindowOp::Discard),
        (0u64..40, 0u64..40).prop_map(|(lo, len)| WindowOp::Range(lo, len)),
        any::<u64>().prop_map(WindowOp::Corrupt),
    ]
}

/// `n` sequence numbers after `s`, counted from zero when `s` is a
/// cursor that corruption dragged below zero: every position a peer
/// or the token can name lies below [`MAX_COUNTER`].
fn ahead(s: Seq, n: u64) -> Seq {
    let base = if s.as_u64() < MAX_COUNTER { s.as_u64() } else { 0 };
    Seq::new(base + n)
}

proptest! {
    /// The ring-buffer window and the ordered-map window it replaced
    /// agree on every observable after every step of an arbitrary
    /// script, cursor corruption included.
    #[test]
    fn ring_window_matches_the_map_model(
        ops in proptest::collection::vec(window_op(), 1..120),
    ) {
        let mut ring = ReceiveWindow::new();
        let mut model = MapWindow::default();
        // Every sequence number either window has been asked about.
        let mut touched: Vec<Seq> = Vec::new();
        for op in ops {
            // The anchor trails the delivery cursor a little, so the
            // script reaches stale, current and future ground alike.
            let cursor = ahead(model.delivered_up_to, 0);
            let anchor = Seq::new(cursor.as_u64() - cursor.as_u64().min(8));
            match op {
                WindowOp::InsertNext | WindowOp::InsertNear(_) | WindowOp::InsertZero
                | WindowOp::InsertFar(_) => {
                    let seq = match op {
                        WindowOp::InsertNext => ahead(model.my_aru, 1),
                        WindowOp::InsertNear(d) => ahead(anchor, d),
                        WindowOp::InsertFar(d) => ahead(model.my_aru, d),
                        _ => Seq::ZERO,
                    };
                    touched.push(seq);
                    let p: SharedPacket = pkt(seq.as_u64()).into();
                    prop_assert_eq!(ring.insert(p.clone()), model.insert(p), "insert {}", seq);
                }
                WindowOp::Note(d) => {
                    ring.note_seq(ahead(anchor, d));
                    model.note_seq(ahead(anchor, d));
                }
                WindowOp::Take(d) => {
                    let up_to = ahead(anchor, d);
                    prop_assert_eq!(take(&mut ring, up_to), model.take_deliverable(up_to));
                }
                WindowOp::Discard(d) => {
                    let mut gone = Vec::new();
                    ring.discard_up_to(ahead(anchor, d), |p| gone.push(seq_of(&p)));
                    prop_assert_eq!(gone, model.discard_up_to(ahead(anchor, d)));
                }
                WindowOp::Range(lo, len) => {
                    let (lo, hi) = (ahead(anchor, lo), ahead(anchor, lo + len));
                    let got: Vec<u64> = ring.range(lo, hi).map(seq_of).collect();
                    prop_assert_eq!(got, model.range(lo, hi));
                }
                WindowOp::Corrupt(seed) => {
                    ring.corrupt(&mut SmallRng::seed_from_u64(seed));
                    model.corrupt(&mut SmallRng::seed_from_u64(seed));
                }
            }
            prop_assert_eq!(ring.my_aru(), model.my_aru);
            prop_assert_eq!(ring.high_seen(), model.high_seen);
            prop_assert_eq!(ring.delivered_up_to(), model.delivered_up_to);
            prop_assert_eq!(ring.buffered(), model.packets.len());
            prop_assert_eq!(ring.duplicates(), model.duplicates);
            prop_assert_eq!(ring.refused(), 0);
            prop_assert_eq!(ring.any_missing(), model.high_seen > model.my_aru);
            for limit in [1, 7, 64] {
                prop_assert_eq!(ring.missing(limit), model.missing(limit));
            }
            prop_assert_eq!(ring.is_consistent(), model.is_consistent());
            let near = (0..60).map(|d| ahead(anchor, d));
            for s in near.chain(touched.iter().copied()).chain([Seq::ZERO]) {
                prop_assert_eq!(ring.get(s).map(seq_of), model.get(s).map(seq_of), "get {}", s);
            }
        }
    }

    /// Whatever the arrival order (with duplicates), the window's
    /// `my_aru` is exactly the longest contiguous prefix of the set of
    /// distinct sequence numbers received, and `missing()` enumerates
    /// exactly the holes below `high_seen`.
    #[test]
    fn window_aru_and_missing_are_exact(
        seqs in proptest::collection::vec(1u64..60, 1..120),
    ) {
        let mut w = ReceiveWindow::new();
        for &s in &seqs {
            w.insert(pkt(s).into());
        }
        let distinct: std::collections::BTreeSet<u64> = seqs.iter().copied().collect();
        let mut expect_aru = 0u64;
        while distinct.contains(&(expect_aru + 1)) {
            expect_aru += 1;
        }
        prop_assert_eq!(w.my_aru().as_u64(), expect_aru);

        let high = *distinct.iter().max().unwrap();
        prop_assert_eq!(w.high_seen().as_u64(), high);

        let expect_missing: Vec<u64> =
            (expect_aru + 1..=high).filter(|s| !distinct.contains(s)).collect();
        let got: Vec<u64> = w.missing(usize::MAX).iter().map(|s| s.as_u64()).collect();
        prop_assert_eq!(got, expect_missing);
        prop_assert_eq!(w.any_missing(), high > expect_aru);
    }

    /// Deliveries come out exactly once, in sequence order, regardless
    /// of arrival order and of how delivery is interleaved with
    /// insertion.
    #[test]
    fn window_delivers_each_seq_once_in_order(
        seqs in proptest::collection::vec(1u64..50, 1..100),
        deliver_every in 1usize..8,
    ) {
        let mut w = ReceiveWindow::new();
        let mut delivered: Vec<u64> = Vec::new();
        for (i, &s) in seqs.iter().enumerate() {
            w.insert(pkt(s).into());
            if i % deliver_every == 0 {
                let up_to = w.my_aru();
                delivered.extend(take(&mut w, up_to));
            }
        }
        let up_to = w.my_aru();
        delivered.extend(take(&mut w, up_to));
        // Strictly increasing by one from 1.
        for (i, s) in delivered.iter().enumerate() {
            prop_assert_eq!(*s, i as u64 + 1);
        }
        prop_assert_eq!(delivered.len() as u64, w.my_aru().as_u64());
    }

    /// GC never discards anything undelivered or above the floor, and
    /// retransmission lookups still work for everything kept.
    #[test]
    fn window_gc_keeps_everything_requestable(
        count in 1u64..60,
        deliver_to in 0u64..60,
        floor in 0u64..60,
    ) {
        let mut w = ReceiveWindow::new();
        for s in 1..=count {
            w.insert(pkt(s).into());
        }
        let deliver_to = deliver_to.min(count);
        take(&mut w, Seq::new(deliver_to));
        w.discard_up_to(Seq::new(floor), drop);
        let effective_floor = floor.min(deliver_to);
        for s in 1..=count {
            let kept = w.get(Seq::new(s)).is_some();
            prop_assert_eq!(kept, s > effective_floor, "seq {} (floor {})", s, effective_floor);
        }
    }

    /// Packer → Reassembler is the identity on arbitrary message
    /// mixes, every packet respects MAX_PAYLOAD, and message ids are
    /// consumed in order — whether the fragments arrive as the views
    /// the packer cut (a host that shares frame handles) or decoded
    /// from a datagram each (a wire round-trip).
    #[test]
    fn packer_reassembler_roundtrip(
        sizes in proptest::collection::vec(0usize..5000, 1..40),
        budget in 1usize..10,
        over_the_wire in any::<bool>(),
    ) {
        let mut queue: std::collections::VecDeque<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Bytes::from(vec![(i % 251) as u8; n]))
            .collect();
        let original: Vec<Bytes> = queue.iter().cloned().collect();
        let mut packer = Packer::new();
        let mut reasm = Reassembler::new();
        let sender = NodeId::new(3);
        let mut out: Vec<Bytes> = Vec::new();
        // Pack in small bursts to exercise suspended fragmentation.
        loop {
            let pkts: Vec<Chunks> =
                std::iter::from_fn(|| packer.pack_next(&mut queue)).take(budget).collect();
            if pkts.is_empty() {
                prop_assert!(!packer.mid_fragment());
                break;
            }
            for chunks in pkts {
                let payload: usize = chunks.iter().map(Chunk::wire_len).sum();
                prop_assert!(payload <= MAX_PAYLOAD, "packet overflows: {payload}");
                let chunks = if over_the_wire {
                    let wire = Packet::Data(DataPacket { chunks, ..pkt(1) }).encode_shared();
                    let Ok(Packet::Data(d)) = Packet::decode_shared(&wire) else {
                        panic!("a packed data packet decodes");
                    };
                    d.chunks
                } else {
                    chunks
                };
                for c in &chunks {
                    if let Some(msg) = reasm.push(sender, c) {
                        out.push(msg);
                    }
                }
            }
        }
        prop_assert_eq!(reasm.pending(), 0);
        if !over_the_wire {
            // Views in, the submitted buffers out: nothing was copied.
            for (msg, sent) in out.iter().zip(&original) {
                prop_assert_eq!(msg.as_ptr(), sent.as_ptr());
            }
        }
        prop_assert_eq!(out, original);
    }
}
