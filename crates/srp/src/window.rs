//! The receive window: buffered packets, the contiguity watermark
//! (`my_aru`), gap tracking and duplicate suppression.
//!
//! Duplicate suppression by sequence number is also what satisfies the
//! redundant ring protocol's Requirement A1: copies of the same packet
//! arriving over different networks are indistinguishable from
//! retransmissions and are dropped here.
//!
//! The window stores [`SharedPacket`] handles, so buffering a packet a
//! node sent or received — and serving it back out for
//! retransmission, delivery or membership recovery — never deep-copies
//! the frame: every hand-off is a refcount bump on the one shared
//! packet with its encode-once wire bytes.
//!
//! The handles sit in a ring buffer anchored at the discard floor, so
//! the per-frame operations — insert, the duplicate probe every
//! redundant copy pays, lookup, in-place delivery — are index
//! arithmetic on [`Seq::gap_from`] and allocate nothing once the ring
//! has grown to the flow-control window (DESIGN.md §12, "SRP steady
//! state").

use std::collections::VecDeque;

use totem_wire::{Seq, SharedPacket, MAX_COUNTER};

/// How far ahead of the discard floor the window reaches, in sequence
/// numbers. Flow control keeps a live ring orders of magnitude below
/// this, so a frame beyond it is forged or corrupt and is refused
/// rather than allowed to size the ring; a contiguity walk longer than
/// this fails [`ReceiveWindow::is_consistent`] for the same reason.
pub const SPAN_CAP: u64 = 65_536;

/// Buffered packets of one ring, ordered by sequence number.
///
/// # Example
///
/// ```
/// # use totem_srp::window::ReceiveWindow;
/// # use totem_wire::{DataPacket, NodeId, RingId, Seq, SharedPacket};
/// # fn pkt(seq: u64) -> SharedPacket {
/// #     DataPacket { ring: RingId::new(NodeId::new(0), 1), seq: Seq::new(seq),
/// #                  sender: NodeId::new(0), chunks: Default::default() }.into()
/// # }
/// let mut w = ReceiveWindow::new();
/// w.insert(pkt(1));
/// w.insert(pkt(3)); // a gap at 2
/// assert_eq!(w.my_aru(), Seq::new(1));
/// assert!(w.any_missing());
/// assert_eq!(w.missing(10), vec![Seq::new(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReceiveWindow {
    /// Ring of buffered packets: slot `i` belongs to the sequence
    /// number `i + 1` steps after `floor` (`seq.gap_from(floor) - 1`).
    slots: VecDeque<Option<SharedPacket>>,
    /// Everything at or below this has been discarded (or predates the
    /// window); the ring's anchor.
    floor: Seq,
    /// Highest sequence number such that all packets `1..=my_aru` are
    /// present.
    my_aru: Seq,
    /// Highest sequence number observed anywhere (packets received or
    /// token fields).
    high_seen: Seq,
    /// Delivery cursor: packets `<= delivered_up_to` have been handed
    /// to the application.
    delivered_up_to: Seq,
    /// Count of duplicate receptions suppressed (statistics; exercised
    /// heavily under active replication).
    duplicates: u64,
    /// Count of data frames refused for lying more than [`SPAN_CAP`]
    /// ahead of the floor.
    refused: u64,
}

impl ReceiveWindow {
    /// An empty window for a fresh ring (sequence numbers start at 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ring slot of `seq`, if it lies above the floor. The
    /// reserved zero owns no slot.
    fn slot_of(&self, seq: Seq) -> Option<usize> {
        if seq == Seq::ZERO {
            return None;
        }
        usize::try_from(seq.gap_from(self.floor)).ok()?.checked_sub(1)
    }

    /// Inserts a received packet (which must be a data frame; other
    /// packet classes are rejected). Returns `true` if the packet was
    /// new, `false` if it was a duplicate (already present or already
    /// beneath the contiguity watermark) or was refused: sequence
    /// number zero, or more than [`SPAN_CAP`] ahead of the discard
    /// floor — the latter is not buffered, leaves `high_seen` alone
    /// and is counted in [`ReceiveWindow::refused`].
    pub fn insert(&mut self, pkt: SharedPacket) -> bool {
        let Some(d) = pkt.data() else {
            return false; // only data frames carry window sequence numbers
        };
        let seq = d.seq;
        if seq == Seq::ZERO {
            return false; // sequence numbers start at 1
        }
        if seq <= self.my_aru {
            self.duplicates += 1;
            return false;
        }
        // The floor trails `my_aru` unless a transient fault dragged
        // the cursor back below it. Re-anchor under the cursor then:
        // the ground in between reads as what it is — discarded,
        // buffered nowhere — and a retransmission of it is buffered
        // again instead of bouncing off the floor.
        let anchor = self.floor.min(self.my_aru);
        let lowered = self.floor.gap_from(anchor);
        if seq.gap_from(anchor).max(lowered) > SPAN_CAP {
            self.refused += 1;
            return false;
        }
        for _ in 0..lowered {
            self.slots.push_front(None);
        }
        self.floor = anchor;
        let Some(slot) = self.slot_of(seq) else { return false };
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let Some(entry) = self.slots.get_mut(slot) else { return false };
        if entry.is_some() {
            self.duplicates += 1;
            return false;
        }
        *entry = Some(pkt);
        self.note_seq(seq);
        // Advance the contiguity watermark.
        while self.get(self.my_aru.next()).is_some() {
            self.my_aru = self.my_aru.next();
        }
        true
    }

    /// The duplicate probe on a sequence number alone, for a data frame
    /// that has not been decoded: `true` — and the duplicate counted as
    /// [`ReceiveWindow::insert`] counts it — when a frame numbered
    /// `seq` is one this window already holds or has moved past, to
    /// which `insert` could only answer "not new". Everything else
    /// answers `false` and changes nothing: a frame that would be new,
    /// and the cases `insert` treats specially (sequence number zero,
    /// a frame beyond [`SPAN_CAP`], a cursor that a transient fault
    /// dragged below the floor), which stay `insert`'s to decide.
    pub fn suppress_duplicate(&mut self, seq: Seq) -> bool {
        if seq == Seq::ZERO || self.my_aru < self.floor {
            return false;
        }
        if seq > self.my_aru && self.get(seq).is_none() {
            return false;
        }
        self.duplicates += 1;
        true
    }

    /// Records that sequence number `seq` exists on the ring (learned
    /// from a token or another packet's header).
    pub fn note_seq(&mut self, seq: Seq) {
        self.high_seen = self.high_seen.max(seq);
    }

    /// The contiguity watermark: all of `1..=my_aru` are present.
    pub fn my_aru(&self) -> Seq {
        self.my_aru
    }

    /// Highest sequence number known to exist.
    pub fn high_seen(&self) -> Seq {
        self.high_seen
    }

    /// The delivery cursor.
    pub fn delivered_up_to(&self) -> Seq {
        self.delivered_up_to
    }

    /// Whether any packet known to exist has not been received — the
    /// predicate the passive replication algorithm queries before
    /// releasing a buffered token (paper Figure 4,
    /// `anyMessagesMissing`).
    pub fn any_missing(&self) -> bool {
        self.high_seen > self.my_aru
    }

    /// The missing sequence numbers in `(my_aru, high_seen]`, capped
    /// at `limit` (these become retransmission requests on the token).
    pub fn missing(&self, limit: usize) -> Vec<Seq> {
        let mut out = Vec::new();
        for s in self.my_aru.missing_until(self.high_seen) {
            if self.get(s).is_none() {
                out.push(s);
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// A buffered packet by sequence number (for answering
    /// retransmission requests; cloning the returned handle is a
    /// refcount bump).
    pub fn get(&self, seq: Seq) -> Option<&SharedPacket> {
        self.slots.get(self.slot_of(seq)?)?.as_ref()
    }

    /// Hands `deliver` every packet that may now be delivered —
    /// everything in `(delivered_up_to, min(up_to, my_aru)]`, in
    /// sequence order — straight out of the ring: no list is built and
    /// no handle cloned. Advances the delivery cursor; the packets
    /// stay buffered for retransmission until
    /// [`ReceiveWindow::discard_up_to`].
    pub fn take_deliverable(&mut self, up_to: Seq, mut deliver: impl FnMut(&SharedPacket)) {
        let hi = up_to.min(self.my_aru);
        let mut delivered_to = self.delivered_up_to;
        for s in self.delivered_up_to.missing_until(hi) {
            // Contiguity below `my_aru` is an invariant; if it is ever
            // violated, stop at the gap rather than skip past it.
            let Some(pkt) = self.get(s) else { break };
            deliver(pkt);
            delivered_to = s;
        }
        self.delivered_up_to = delivered_to;
    }

    /// Discards buffered packets at or below `floor`, handing each to
    /// `discarded` in sequence order (the node recycles their cells).
    /// The caller must guarantee no ring member can still request them
    /// (the token's rotation-minimum `aru`) and that they have been
    /// delivered locally.
    pub fn discard_up_to(&mut self, floor: Seq, discarded: impl FnMut(SharedPacket)) {
        let floor = floor.min(self.delivered_up_to);
        let gone = usize::try_from(floor.gap_from(self.floor)).unwrap_or(usize::MAX);
        if gone > 0 {
            // The floor only ever moves forward here.
            self.slots.drain(..gone.min(self.slots.len())).flatten().for_each(discarded);
            self.floor = floor;
        }
    }

    /// Number of buffered packets.
    pub fn buffered(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Duplicates suppressed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Data frames refused for lying more than [`SPAN_CAP`] ahead of
    /// the discard floor.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Iterates over buffered packets with `seq` in `(lo, hi]`, in
    /// order (used by membership recovery to retransmit old-ring
    /// packets).
    pub fn range(&self, lo: Seq, hi: Seq) -> impl Iterator<Item = &SharedPacket> {
        lo.missing_until(hi).filter_map(move |s| self.get(s))
    }

    /// Whether the window's internal invariants hold: the cursors are
    /// ordered and bounded (`delivered_up_to ≤ my_aru ≤ high_seen <`
    /// [`MAX_COUNTER`], so a cursor a fault dragged below zero fails)
    /// and every sequence number in `(delivered_up_to, my_aru]` is
    /// buffered (the contiguity guarantee behind `my_aru`). A window
    /// whose counters were corrupted by a transient fault fails this
    /// check; token processing routes the node into membership
    /// reformation, which rebuilds the window from scratch.
    ///
    /// The walk is capped: a backlog deeper than [`SPAN_CAP`] is
    /// itself impossible under flow control, so it reports
    /// inconsistency.
    pub fn is_consistent(&self) -> bool {
        if self.delivered_up_to > self.my_aru
            || self.my_aru > self.high_seen
            || self.high_seen.as_u64() >= MAX_COUNTER
        {
            return false;
        }
        let mut walked = 0u64;
        for s in self.delivered_up_to.missing_until(self.my_aru) {
            if self.get(s).is_none() {
                return false;
            }
            walked += 1;
            if walked > SPAN_CAP {
                return false;
            }
        }
        true
    }

    /// Deterministically corrupts the window's counters (fault
    /// injection for self-stabilization testing; see
    /// `totem_sim::CorruptionTarget::SeqCounters`). Exactly one of the
    /// cursor mutations below is applied, chosen by `rng`:
    ///
    /// * `my_aru` jumps forward past sequence numbers that were never
    ///   received (breaking the contiguity invariant),
    /// * `my_aru` falls backward (re-opening delivered ground),
    /// * `high_seen` jumps forward past the ring's real horizon
    ///   (phantom messages that can never be retransmitted),
    /// * `delivered_up_to` falls backward (re-delivering old ground).
    pub fn corrupt<R: rand::Rng>(&mut self, rng: &mut R) {
        let jump = rng.gen_range(1..64);
        match rng.gen_range(0..4) {
            0 => {
                for _ in 0..jump {
                    self.my_aru = self.my_aru.next();
                }
            }
            1 => self.my_aru = Seq::new(self.my_aru.as_u64().wrapping_sub(jump)),
            2 => {
                for _ in 0..(jump * 16) {
                    self.high_seen = self.high_seen.next();
                }
            }
            _ => {
                self.delivered_up_to = Seq::new(self.delivered_up_to.as_u64().wrapping_sub(jump));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_wire::{DataPacket, NodeId, RingId};

    fn pkt(seq: u64) -> SharedPacket {
        DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(seq),
            sender: NodeId::new(0),
            chunks: Default::default(),
        }
        .into()
    }

    fn seq_of(p: &SharedPacket) -> u64 {
        p.data().map(|d| d.seq.as_u64()).unwrap_or(0)
    }

    /// Delivers up to `up_to`, returning the delivered sequence numbers.
    fn take(w: &mut ReceiveWindow, up_to: u64) -> Vec<u64> {
        let mut out = Vec::new();
        w.take_deliverable(Seq::new(up_to), |p| out.push(seq_of(p)));
        out
    }

    #[test]
    fn contiguous_inserts_advance_aru() {
        let mut w = ReceiveWindow::new();
        for s in 1..=5 {
            assert!(w.insert(pkt(s)));
        }
        assert_eq!(w.my_aru(), Seq::new(5));
        assert!(!w.any_missing());
    }

    #[test]
    fn gap_freezes_aru_and_reports_missing() {
        let mut w = ReceiveWindow::new();
        w.insert(pkt(1));
        w.insert(pkt(3));
        w.insert(pkt(5));
        assert_eq!(w.my_aru(), Seq::new(1));
        assert!(w.any_missing());
        assert_eq!(w.missing(10), vec![Seq::new(2), Seq::new(4)]);
        // Filling the first gap advances through the second packet.
        w.insert(pkt(2));
        assert_eq!(w.my_aru(), Seq::new(3));
        assert_eq!(w.missing(10), vec![Seq::new(4)]);
    }

    #[test]
    fn missing_respects_limit() {
        let mut w = ReceiveWindow::new();
        w.note_seq(Seq::new(100));
        assert_eq!(w.missing(3).len(), 3);
    }

    #[test]
    fn duplicates_are_suppressed_and_counted() {
        let mut w = ReceiveWindow::new();
        assert!(w.insert(pkt(1)));
        assert!(!w.insert(pkt(1)));
        take(&mut w, 1);
        w.discard_up_to(Seq::new(1), drop);
        // Even after GC, a stale retransmission below the watermark is
        // recognized as duplicate.
        assert!(!w.insert(pkt(1)));
        assert_eq!(w.duplicates(), 2);
    }

    #[test]
    fn non_data_packets_are_rejected_without_effect() {
        use totem_wire::{Packet, Token};
        let mut w = ReceiveWindow::new();
        let tok = SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        assert!(!w.insert(tok));
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.duplicates(), 0);
    }

    #[test]
    fn token_knowledge_creates_missing_without_packets() {
        let mut w = ReceiveWindow::new();
        w.note_seq(Seq::new(4));
        assert!(w.any_missing());
        assert_eq!(w.missing(10), vec![Seq::new(1), Seq::new(2), Seq::new(3), Seq::new(4)]);
    }

    #[test]
    fn deliverable_respects_cursor_and_cap() {
        let mut w = ReceiveWindow::new();
        for s in 1..=5 {
            w.insert(pkt(s));
        }
        assert_eq!(take(&mut w, 3), vec![1, 2, 3]);
        // Second call returns only new ground.
        assert_eq!(take(&mut w, 10), vec![4, 5]); // capped by my_aru = 5
        assert!(take(&mut w, 10).is_empty());
    }

    #[test]
    fn deliverable_handles_share_the_buffered_packet() {
        let mut w = ReceiveWindow::new();
        w.insert(pkt(1));
        let mut seen = std::ptr::null();
        w.take_deliverable(Seq::new(1), |p| seen = p.encoded().as_ref().as_ptr());
        // The delivered packet is the buffered one, in place: same
        // allocation, and it stays buffered for retransmission.
        assert_eq!(
            seen,
            w.get(Seq::new(1)).map(|p| p.encoded().as_ref().as_ptr()).unwrap_or(std::ptr::null())
        );
    }

    #[test]
    fn discard_never_outruns_delivery() {
        let mut w = ReceiveWindow::new();
        for s in 1..=5 {
            w.insert(pkt(s));
        }
        take(&mut w, 2);
        w.discard_up_to(Seq::new(5), drop); // clamped to delivered cursor (2)
        assert!(w.get(Seq::new(2)).is_none());
        assert!(w.get(Seq::new(3)).is_some());
    }

    #[test]
    fn range_iterates_half_open_interval() {
        let mut w = ReceiveWindow::new();
        for s in 1..=6 {
            w.insert(pkt(s));
        }
        let seqs: Vec<u64> = w.range(Seq::new(2), Seq::new(5)).map(seq_of).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }

    #[test]
    fn seq_zero_is_rejected() {
        let mut w = ReceiveWindow::new();
        assert!(!w.insert(pkt(0)));
        assert_eq!(w.my_aru(), Seq::ZERO);
    }

    // ---- what the ring adds ----

    #[test]
    fn a_frame_beyond_the_span_cap_is_refused_without_growth() {
        let mut w = ReceiveWindow::new();
        let far = SPAN_CAP + 1;
        assert!(!w.insert(pkt(far)), "one past the cap is refused");
        assert_eq!(w.refused(), 1);
        assert_eq!((w.buffered(), w.slots.len()), (0, 0), "nothing stored, ring not sized");
        assert_eq!(w.high_seen(), Seq::ZERO, "a refused frame teaches nothing");
        assert!(!w.any_missing());
        assert_eq!(w.duplicates(), 0);
        // The window still works, and the cap moves with the floor.
        assert!(w.insert(pkt(1)));
        take(&mut w, 1);
        w.discard_up_to(Seq::new(1), drop);
        assert!(w.insert(pkt(far)), "exactly the cap ahead of the new floor");
        assert_eq!(w.slots.len() as u64, SPAN_CAP);
    }

    #[test]
    fn discard_pops_the_front_and_keeps_slots_aligned() {
        let mut w = ReceiveWindow::new();
        for s in [1, 2, 3, 5] {
            w.insert(pkt(s));
        }
        take(&mut w, 3);
        w.discard_up_to(Seq::new(2), drop);
        assert_eq!(w.buffered(), 2);
        assert_eq!(w.get(Seq::new(3)).map(seq_of), Some(3));
        assert_eq!(w.get(Seq::new(5)).map(seq_of), Some(5));
        assert!(w.get(Seq::new(4)).is_none());
        // A floor that does not move forward is a no-op.
        w.discard_up_to(Seq::new(1), drop);
        assert_eq!(w.buffered(), 2);
        assert!(w.insert(pkt(4)));
        assert_eq!(w.my_aru(), Seq::new(5));
    }

    #[test]
    fn a_cursor_dragged_below_the_floor_is_inconsistent_not_fatal() {
        use rand::SeedableRng;
        let floor = Seq::new(190);
        let mut dragged = 0;
        for seed in 0..64 {
            let mut w = ReceiveWindow::new();
            for s in 1..=200 {
                w.insert(pkt(s));
            }
            take(&mut w, 200);
            w.discard_up_to(floor, drop);
            w.corrupt(&mut rand::rngs::SmallRng::seed_from_u64(seed));
            if w.my_aru() < floor || w.delivered_up_to() < floor {
                dragged += 1;
                // Discarded ground now lies inside the cursors' reach.
                assert!(!w.is_consistent(), "seed {seed}");
                // It is missing, not lost: a retransmission of it is
                // buffered again instead of bouncing off the floor.
                if w.my_aru() < floor {
                    let again = w.my_aru().next();
                    assert!(w.insert(pkt(again.as_u64())), "seed {seed}");
                    assert_eq!(w.get(again).map(seq_of), Some(again.as_u64()));
                }
            }
            // Every operation runs over the damaged state.
            for s in [1, 150, 189, 190, 191, 201, 260, 1000] {
                w.insert(pkt(s));
            }
            take(&mut w, 1000);
            w.discard_up_to(Seq::new(195), drop);
            let _ = (w.missing(8), w.range(Seq::new(100), Seq::new(300)).count());
            let _ = (w.get(Seq::new(150)), w.any_missing(), w.is_consistent());
        }
        assert!(dragged >= 8, "only {dragged} of 64 seeds dragged a cursor below the floor");
    }

    #[test]
    fn a_cursor_dragged_below_zero_is_inconsistent() {
        use rand::SeedableRng;
        let mut dragged = 0;
        for seed in 0..64 {
            let mut w = ReceiveWindow::new();
            for s in 1..=3 {
                w.insert(pkt(s));
            }
            take(&mut w, 3);
            w.corrupt(&mut rand::rngs::SmallRng::seed_from_u64(seed));
            if w.my_aru().as_u64() >= MAX_COUNTER || w.delivered_up_to().as_u64() >= MAX_COUNTER {
                dragged += 1;
                assert!(!w.is_consistent(), "seed {seed}");
                if w.my_aru().as_u64() >= MAX_COUNTER {
                    // Every frame a peer can send lies below it.
                    assert!(!w.insert(pkt(4)), "seed {seed}");
                }
            }
        }
        assert!(dragged >= 8, "only {dragged} of 64 seeds dragged a cursor below zero");
        // The bound is a clause of its own: a horizon at it is corrupt
        // even with every cursor below it in order.
        for (high, legal) in [(MAX_COUNTER - 1, true), (MAX_COUNTER, false)] {
            let mut w = ReceiveWindow::new();
            w.note_seq(Seq::new(high));
            assert_eq!(w.is_consistent(), legal, "high_seen {high}");
        }
    }
}
