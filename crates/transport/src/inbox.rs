//! Single-writer inbox arenas: compact linear datagram buffers.
//!
//! Each UDP socket has one [`InboxArena`] — a long-lived linear
//! scratch buffer the receiving thread copies every datagram into,
//! back to back, recording only the end offset of each frame. When the
//! socket runs dry (or the arena hits its frame/byte caps) the writer
//! [`seal`](InboxArena::seal)s the filled prefix into an immutable
//! [`SealedBatch`]. The driver carves the batch into per-frame
//! [`Bytes`] with zero-copy slices of the batch's buffer, and the
//! zero-copy decoder (`totem_wire::Packet::decode_shared`) slices
//! payloads out of those — so socket → batch → decoded packet →
//! delivered payload share one buffer.
//!
//! **Batch buffers are lent, not given.** The arena keeps a handle on
//! every buffer it sealed, most recent last, up to a bound. A seal
//! writes the batch — the datagrams, followed by their end offsets
//! when there is more than one — into the most recently sealed buffer
//! that no carved frame still holds ([`Bytes::is_unique`], checked on
//! every seal) and that the retention bound lets it fill; only when
//! none qualifies does it allocate a buffer of exactly the batch's
//! size. So a steady ring, whose frames are dropped a rotation or two
//! after they arrive, receives without allocating, and a frame held
//! for longer keeps its buffer to itself: the arena never writes into
//! a buffer anything still reads.
//!
//! **Retention bound.** A batch of `n` bytes is written only into a
//! buffer of at most [`RETENTION_FACTOR`]` × n` bytes. A payload the
//! application holds on to therefore pins at most the datagrams that
//! arrived in the same batch, in a buffer at most twice their size —
//! never a 16–256 KiB arena, and never a large batch's buffer reused
//! for a lone token. The scratch buffer itself is never handed out, so
//! it grows to the traffic's high-water mark once and is reused for
//! the life of the transport. The design follows the single-writer
//! message inboxes in citybound's `kay` actor system (one linear
//! buffer per writer → reader pair, messages appended back to back and
//! consumed as slices).

use bytes::Bytes;

use totem_wire::NetworkId;

/// Soft cap on datagrams per sealed batch (keeps one socket's backlog
/// from monopolizing the driver).
pub const MAX_BATCH_FRAMES: usize = 64;

/// Soft cap on arena bytes per sealed batch.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// A batch of `n` bytes is sealed into a buffer of at most
/// `RETENTION_FACTOR × n` bytes: what a frame held past its batch's
/// life can keep alive.
pub const RETENTION_FACTOR: usize = 2;

/// Most sealed buffers an arena keeps for reuse: one per frame a full
/// batch holds, so that as many frames as one batch carries can each
/// pin a lone-frame batch while the next seal still finds a free
/// buffer. Past it the least recently sealed is let go (and freed
/// once its frames are).
const LENT_MAX: usize = MAX_BATCH_FRAMES;

/// A linear, single-writer datagram arena.
#[derive(Debug)]
pub struct InboxArena {
    net: NetworkId,
    /// Long-lived scratch: the datagrams of the batch being filled.
    arena: Vec<u8>,
    /// End offset of frame `i` within the arena (frame `i` spans
    /// `bounds[i-1]..bounds[i]`, with an implicit leading 0).
    bounds: Vec<u32>,
    /// The buffers earlier batches were sealed into, the most recently
    /// sealed last; a later seal overwrites one no frame holds.
    lent: Vec<Bytes>,
}

impl InboxArena {
    /// An empty arena for datagrams received on `net`.
    pub fn new(net: NetworkId) -> Self {
        InboxArena {
            net,
            arena: Vec::with_capacity(MAX_BATCH_BYTES / 16),
            bounds: Vec::with_capacity(MAX_BATCH_FRAMES),
            lent: Vec::with_capacity(LENT_MAX),
        }
    }

    /// Appends one datagram (one linear copy out of the socket
    /// scratch buffer, no allocation unless the arena must grow).
    pub fn push(&mut self, datagram: &[u8]) {
        self.arena.extend_from_slice(datagram);
        // Arena offsets fit u32 by construction: MAX_BATCH_BYTES plus
        // one max-size datagram is far below u32::MAX.
        self.bounds.push(self.arena.len() as u32);
    }

    /// Number of buffered datagrams.
    pub fn frames(&self) -> usize {
        self.bounds.len()
    }

    /// Buffered payload bytes.
    pub fn bytes(&self) -> usize {
        self.arena.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// True when the arena should be sealed before the next push.
    pub fn full(&self) -> bool {
        self.frames() >= MAX_BATCH_FRAMES || self.bytes() >= MAX_BATCH_BYTES
    }

    /// Copies the buffered datagrams into an immutable
    /// [`SealedBatch`] and empties the arena, keeping its capacity for
    /// the next batch. The batch goes into a buffer an earlier seal
    /// lent out and every frame has since released, within the
    /// [`RETENTION_FACTOR`] bound — or, when there is none, into one
    /// allocation of exactly its size, whatever the frame count.
    /// Returns `None` when nothing is buffered.
    pub fn seal(&mut self) -> Option<SealedBatch> {
        let frames = self.bounds.len();
        if frames == 0 {
            return None;
        }
        // A lone datagram is its own batch; several carry their end
        // offsets behind them, in the same buffer.
        if frames > 1 {
            for end in &self.bounds {
                self.arena.extend_from_slice(&end.to_le_bytes());
            }
        }
        let len = self.arena.len();
        let free = |buf: &Bytes| {
            (len..=len * RETENTION_FACTOR).contains(&buf.buffer_len()) && buf.is_unique()
        };
        let reused = self.lent.iter().rposition(free).map(|at| self.lent.remove(at));
        if reused.is_none() && self.lent.len() == LENT_MAX {
            self.lent.remove(0);
        }
        let data = reused
            .and_then(|mut buf| buf.try_overwrite(&self.arena).then_some(buf))
            .unwrap_or_else(|| Bytes::copy_from_slice(&self.arena));
        self.lent.push(data.clone());
        self.arena.clear();
        self.bounds.clear();
        Some(SealedBatch { net: self.net, data, frames })
    }
}

/// Width of one end offset in a [`SealedBatch`]'s trailer.
const OFFSET_LEN: usize = size_of::<u32>();

/// An immutable batch of datagrams sharing one buffer: their combined
/// size, plus four bytes per datagram when it holds more than one, in
/// a buffer at most [`RETENTION_FACTOR`] times that.
#[derive(Debug, Clone)]
pub struct SealedBatch {
    net: NetworkId,
    /// The datagrams back to back; when `frames > 1`, followed by
    /// `frames` little-endian `u32` end offsets (frame `i` spans
    /// `end[i-1]..end[i]`, with an implicit leading 0).
    data: Bytes,
    frames: usize,
}

impl SealedBatch {
    /// The network every datagram in this batch arrived on.
    pub fn net(&self) -> NetworkId {
        self.net
    }

    /// Number of datagrams in the batch.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Iterates the datagrams in arrival order as zero-copy slices of
    /// the shared batch allocation.
    pub fn iter(&self) -> impl Iterator<Item = Bytes> + '_ {
        let lone = self.frames == 1;
        let payload = self.data.len() - if lone { 0 } else { self.frames * OFFSET_LEN };
        // A lone frame ends where the batch does; otherwise the ends
        // are read off the trailer.
        let ends = self.data[payload..]
            .chunks_exact(OFFSET_LEN)
            .map(|e| u32::from_le_bytes([e[0], e[1], e[2], e[3]]) as usize)
            .chain(lone.then_some(payload));
        let mut start = 0usize;
        ends.map(move |end| {
            let frame = self.data.slice(start..end);
            start = end;
            frame
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_carves_frames_back_in_arrival_order() {
        let mut a = InboxArena::new(NetworkId::new(1));
        a.push(b"alpha");
        a.push(b"");
        a.push(b"bravo");
        assert_eq!(a.frames(), 3);
        assert_eq!(a.bytes(), 10);
        let sealed = a.seal().expect("non-empty");
        assert!(a.is_empty(), "seal empties the arena");
        assert_eq!(sealed.net(), NetworkId::new(1));
        let frames: Vec<Vec<u8>> = sealed.iter().map(|b| b.to_vec()).collect();
        assert_eq!(frames, vec![b"alpha".to_vec(), Vec::new(), b"bravo".to_vec()]);
    }

    #[test]
    fn empty_arena_seals_to_none() {
        let mut a = InboxArena::new(NetworkId::new(0));
        assert!(a.seal().is_none());
    }

    #[test]
    fn full_trips_on_frame_cap() {
        let mut a = InboxArena::new(NetworkId::new(0));
        for _ in 0..MAX_BATCH_FRAMES {
            a.push(b"x");
        }
        assert!(a.full());
    }

    #[test]
    fn carved_frames_share_the_arena_allocation() {
        let mut a = InboxArena::new(NetworkId::new(0));
        a.push(b"one");
        a.push(b"two");
        let sealed = a.seal().expect("non-empty");
        let frames: Vec<Bytes> = sealed.iter().collect();
        // Zero-copy carving: both frames window the same backing
        // buffer, so their contents sit at adjacent offsets.
        assert_eq!(frames[0].as_ref(), b"one");
        assert_eq!(frames[1].as_ref(), b"two");
        assert_eq!(&sealed.data[..6], b"onetwo");
        assert_eq!(frames[0].as_ptr(), sealed.data.as_ptr());
        assert_eq!(frames[1].as_ptr(), sealed.data.as_ptr().wrapping_add(3));
    }

    #[test]
    fn seal_keeps_the_scratch_buffer_and_sizes_the_batch_exactly() {
        let mut a = InboxArena::new(NetworkId::new(0));
        let scratch = a.arena.as_ptr();
        let cap = a.arena.capacity();
        for round in 1..=3usize {
            for _ in 0..round {
                a.push(&[7u8; 100]);
            }
            let sealed = a.seal().expect("non-empty");
            let offsets = if round > 1 { round * OFFSET_LEN } else { 0 };
            assert_eq!(sealed.data.len(), round * 100 + offsets, "batch holds its own bytes only");
            assert_eq!(sealed.frames(), round);
            assert!(sealed.iter().all(|frame| frame.as_ref() == [7u8; 100]));
            assert_eq!((a.arena.as_ptr(), a.arena.capacity()), (scratch, cap));
        }
    }

    /// Seals `frames` datagrams of `size` bytes, each filled with `fill`.
    fn seal_of(a: &mut InboxArena, frames: usize, size: usize, fill: u8) -> SealedBatch {
        for _ in 0..frames {
            a.push(&vec![fill; size]);
        }
        a.seal().expect("non-empty")
    }

    #[test]
    fn a_held_frame_keeps_its_bytes_and_its_buffer_across_later_seals() {
        let mut a = InboxArena::new(NetworkId::new(0));
        let held = seal_of(&mut a, 2, 100, 0xAA).iter().next().expect("two frames");
        let pinned = held.as_ptr();
        // Every later batch the same size, sealed while the one before
        // is still held: two buffers would do, were `held` released.
        let mut previous = seal_of(&mut a, 2, 100, 0);
        for round in 1..=256usize {
            let batch = seal_of(&mut a, 2, 100, round as u8);
            assert_ne!(batch.data.as_ptr(), pinned, "round {round} overwrote a held frame");
            assert!(batch.iter().all(|f| f.as_ref() == [round as u8; 100]));
            let before = std::mem::replace(&mut previous, batch);
            assert_ne!(before.data.as_ptr(), previous.data.as_ptr(), "round {round}");
            assert_eq!(held.as_ref(), [0xAA; 100], "round {round}");
        }
        drop(held);
        // The last batch holds one of the other two buffers; of the
        // rest, the most recently sealed is the other one, and once
        // that is taken, the buffer `held` pinned.
        let next = seal_of(&mut a, 2, 100, 1);
        assert_ne!(next.data.as_ptr(), pinned);
        let after = seal_of(&mut a, 2, 100, 2);
        assert_eq!(after.data.as_ptr(), pinned, "released, the buffer is sealed into again");
        assert_eq!(a.lent.len(), 3);
    }

    #[test]
    fn no_batch_sits_in_a_buffer_past_the_retention_bound() {
        let mut a = InboxArena::new(NetworkId::new(0));
        let mut held: Vec<SealedBatch> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let (mut reused, mut seen) = (0, Vec::new());
        for round in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Lone tokens, lone frames and runs of every length, of
            // sizes from a token's to a full frame's.
            let frames = [1, 1, 2, 5, 17, MAX_BATCH_FRAMES][(x % 6) as usize];
            let size = 40 + (x >> 8) as usize % 1_400;
            let batch = seal_of(&mut a, frames, size, round as u8);
            let (len, buffer) = (batch.data.len(), batch.data.buffer_len());
            assert!(
                len <= buffer && buffer <= RETENTION_FACTOR * len,
                "a {len}-byte batch sealed into a {buffer}-byte buffer"
            );
            assert!(a.lent.len() <= LENT_MAX);
            let at = batch.data.as_ptr();
            reused += usize::from(seen.contains(&at));
            seen.push(at);
            // Some batches are held a while, the rest dropped at once.
            if x & 3 == 0 {
                held.push(batch);
            }
            if held.len() > 8 {
                held.remove(0);
            }
        }
        assert!(reused > 1_000, "only {reused} of 2000 batches reused a buffer");
    }

    #[test]
    fn a_lone_token_is_not_sealed_into_a_full_batchs_buffer() {
        let mut a = InboxArena::new(NetworkId::new(0));
        drop(seal_of(&mut a, MAX_BATCH_FRAMES, 1_000, 1));
        let token = seal_of(&mut a, 1, 64, 2);
        assert_eq!(token.data.buffer_len(), 64, "an exact-size buffer of its own");
    }
}
