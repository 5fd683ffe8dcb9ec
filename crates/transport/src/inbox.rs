//! Single-writer inbox arenas: compact linear datagram buffers.
//!
//! Each UDP socket has one [`InboxArena`] — a long-lived linear
//! scratch buffer the receiving thread copies every datagram into,
//! back to back, recording only the end offset of each frame. When the
//! socket runs dry (or the arena hits its frame/byte caps) the writer
//! [`seal`](InboxArena::seal)s the filled prefix into an immutable,
//! *exact-size* [`SealedBatch`]. The driver carves the batch into
//! per-frame [`Bytes`] with zero-copy slices of the batch allocation,
//! and the zero-copy decoder (`totem_wire::Packet::decode_shared`)
//! slices payloads out of those — so socket → batch → decoded packet
//! → delivered payload share one allocation.
//!
//! A batch costs one allocation of exactly its own size — the
//! datagrams, followed by their end offsets when there is more than
//! one — however many frames it carries; every carved frame is a
//! refcount bump. Because the batch is sized to its contents rather
//! than to the arena, a payload the application holds on to pins at
//! most the datagrams that arrived in the same batch — never a
//! 16–256 KiB arena. The scratch buffer itself is never handed out, so
//! it grows to the traffic's high-water mark once and is reused for
//! the life of the transport. The design
//! follows the single-writer message inboxes in citybound's `kay`
//! actor system (one linear buffer per writer → reader pair, messages
//! appended back to back and consumed as slices).

use bytes::Bytes;

use totem_wire::NetworkId;

/// Soft cap on datagrams per sealed batch (keeps one socket's backlog
/// from monopolizing the driver).
pub const MAX_BATCH_FRAMES: usize = 64;

/// Soft cap on arena bytes per sealed batch.
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// A linear, single-writer datagram arena.
#[derive(Debug)]
pub struct InboxArena {
    net: NetworkId,
    /// Long-lived scratch: the datagrams of the batch being filled.
    arena: Vec<u8>,
    /// End offset of frame `i` within the arena (frame `i` spans
    /// `bounds[i-1]..bounds[i]`, with an implicit leading 0).
    bounds: Vec<u32>,
}

impl InboxArena {
    /// An empty arena for datagrams received on `net`.
    pub fn new(net: NetworkId) -> Self {
        InboxArena {
            net,
            arena: Vec::with_capacity(MAX_BATCH_BYTES / 16),
            bounds: Vec::with_capacity(MAX_BATCH_FRAMES),
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

    /// Copies the buffered datagrams into an immutable, exact-size
    /// [`SealedBatch`] — one allocation, whatever the frame count —
    /// and empties the arena, keeping its capacity for the next batch.
    /// Returns `None` when nothing is buffered.
    pub fn seal(&mut self) -> Option<SealedBatch> {
        let frames = self.bounds.len();
        if frames == 0 {
            return None;
        }
        // A lone datagram is its own batch; several carry their end
        // offsets behind them, in the same allocation.
        if frames > 1 {
            for end in &self.bounds {
                self.arena.extend_from_slice(&end.to_le_bytes());
            }
        }
        let batch =
            SealedBatch { net: self.net, data: Bytes::copy_from_slice(&self.arena), frames };
        self.arena.clear();
        self.bounds.clear();
        Some(batch)
    }
}

/// Width of one end offset in a [`SealedBatch`]'s trailer.
const OFFSET_LEN: usize = size_of::<u32>();

/// An immutable batch of datagrams sharing one allocation of exactly
/// their combined size (plus four bytes per datagram when it holds
/// more than one).
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
}
