//! Message packing and fragmentation (paper §8).
//!
//! Totem fills each 1424-byte frame payload with as many whole
//! application messages as fit (each costing a 12-byte chunk
//! sub-header) and fragments messages that exceed a frame. Packing is
//! what produces the paper's characteristic throughput peaks at 700
//! and 1400 bytes.
//!
//! [`Packer`] turns a queue of application payloads into chunk lists,
//! one packet's list per call; [`Reassembler`] is its inverse, fed
//! chunks in global delivery order.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use totem_wire::frame::{MAX_PAYLOAD, MAX_UNFRAGMENTED_MSG};
use totem_wire::{Chunk, ChunkKind, Chunks, NodeId, MAX_DECODE_LEN};

/// Builds packed packets from a sender's message queue.
///
/// # Example
///
/// Two 700-byte messages fill one 1424-byte frame exactly — the
/// packing effect behind the paper's throughput peak at 700 bytes:
///
/// ```
/// # use totem_srp::packing::Packer;
/// # use std::collections::VecDeque;
/// # use bytes::Bytes;
/// let mut queue: VecDeque<Bytes> =
///     [Bytes::from(vec![0u8; 700]), Bytes::from(vec![1u8; 700])].into();
/// let mut packer = Packer::new();
/// let packet = packer.pack_next(&mut queue).expect("two messages queued");
/// assert_eq!(packet.len(), 2);
/// assert!(packer.pack_next(&mut queue).is_none());
/// ```
#[derive(Debug, Default)]
pub struct Packer {
    next_msg_id: u32,
    /// A message mid-fragmentation: `(msg_id, payload, offset)`.
    in_progress: Option<(u32, Bytes, usize)>,
}

impl Packer {
    /// Creates a packer with message ids starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a fragmented message is only partially packed (the
    /// packer must be drained before the queue order can change).
    pub fn mid_fragment(&self) -> bool {
        self.in_progress.is_some()
    }

    /// Packs the next packet's chunks from `queue`, or `None` when
    /// there is nothing left to send. The returned list is non-empty
    /// and fits within [`MAX_PAYLOAD`] including sub-headers; a lone
    /// chunk is held inline and a longer list is allocated at exactly
    /// its final length (the queue is scanned for what fits before
    /// anything is popped). Messages are consumed from the queue
    /// front; a message longer than [`MAX_UNFRAGMENTED_MSG`] is split
    /// into fragments that span several packets (and so several
    /// calls).
    pub fn pack_next(&mut self, queue: &mut VecDeque<Bytes>) -> Option<Chunks> {
        let mut remaining = MAX_PAYLOAD;

        // Resume an in-progress fragmentation first: its next
        // fragment always opens the packet.
        let mut resumed = None;
        if let Some((msg_id, payload, offset)) = self.in_progress.take() {
            let room = remaining - totem_wire::CHUNK_HEADER_LEN;
            let left = payload.len() - offset;
            let take = left.min(room);
            let kind = if take == left { ChunkKind::FragEnd } else { ChunkKind::FragCont };
            let chunk = Chunk {
                kind,
                msg_id,
                orig_len: payload.len() as u32,
                data: payload.slice(offset..offset + take),
            };
            if take < left {
                self.in_progress = Some((msg_id, payload, offset + take));
                // A continuation fragment fills the whole packet.
                return Some(chunk.into());
            }
            remaining -= totem_wire::CHUNK_HEADER_LEN + take;
            resumed = Some(chunk);
        }

        // How many whole messages from the queue front share this
        // packet. An oversized message closes the run (it fragments
        // from the start of a packet so fragments stay frame-aligned);
        // so does the first one that no longer fits (it opens the
        // next packet).
        let mut whole = 0;
        for len in queue.iter().map(Bytes::len) {
            let need = len + totem_wire::CHUNK_HEADER_LEN;
            if len > MAX_UNFRAGMENTED_MSG || need > remaining {
                break;
            }
            remaining -= need;
            whole += 1;
        }

        if whole == 0 && resumed.is_none() {
            // The packet is still empty: start fragmenting an
            // oversized queue head, if that is what stopped the scan.
            if queue.front().is_some_and(|m| m.len() > MAX_UNFRAGMENTED_MSG) {
                let payload = queue.pop_front()?;
                let msg_id = self.bump_id();
                let chunk = Chunk {
                    kind: ChunkKind::FragStart,
                    msg_id,
                    orig_len: payload.len() as u32,
                    data: payload.slice(0..MAX_UNFRAGMENTED_MSG),
                };
                self.in_progress = Some((msg_id, payload, MAX_UNFRAGMENTED_MSG));
                return Some(chunk.into());
            }
            return None; // nothing left to send
        }

        // `Drain` knows its length, so a list of several is sized
        // exactly up front.
        let fresh = queue.drain(..whole).map(|payload| Chunk::complete(self.bump_id(), payload));
        Some(resumed.into_iter().chain(fresh).collect())
    }

    fn bump_id(&mut self) -> u32 {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        id
    }
}

/// Reassembles application messages from chunks delivered in global
/// sequence order.
///
/// The packer cuts a message's fragments as adjacent views of the one
/// buffer it was submitted in, and a host that shares frame handles
/// (the simulator) hands every receiver those same views. A partial
/// message therefore stays a view for as long as each fragment
/// continues it, and is delivered as it is: no allocation, no copy.
/// The first fragment that does not continue it — one decoded from a
/// datagram of its own — turns it into a copy.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// Partial messages keyed by `(sender, msg_id)`. Only probed,
    /// inserted into, removed from and cleared — never iterated — so
    /// its hash order cannot reach delivery.
    partial: HashMap<(NodeId, u32), Partial>,
}

/// A message whose fragments have arrived up to some point.
#[derive(Debug)]
enum Partial {
    /// Every fragment so far continues one view of the sender's buffer.
    View(Bytes),
    /// A fragment did not continue the view: the bytes are copied.
    Copy(Vec<u8>),
}

impl Partial {
    /// Appends a fragment of a message `orig_len` bytes long.
    fn extend(&mut self, data: &Bytes, orig_len: u32) {
        match self {
            Partial::View(view) => {
                if !view.try_unsplit(data) {
                    // `orig_len` comes off the wire: reserve no more
                    // than the codec would ever accept up front; a
                    // longer message grows its buffer as its fragments
                    // arrive.
                    let mut buf = Vec::with_capacity((orig_len as usize).min(MAX_DECODE_LEN));
                    buf.extend_from_slice(view);
                    buf.extend_from_slice(data);
                    *self = Partial::Copy(buf);
                }
            }
            Partial::Copy(buf) => buf.extend_from_slice(data),
        }
    }

    fn len(&self) -> usize {
        match self {
            Partial::View(view) => view.len(),
            Partial::Copy(buf) => buf.len(),
        }
    }

    fn into_bytes(self) -> Bytes {
        match self {
            Partial::View(view) => view,
            Partial::Copy(buf) => Bytes::from(buf),
        }
    }
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one chunk (in delivery order); returns the complete
    /// application payload when the chunk finishes a message.
    ///
    /// Chunks of kind [`ChunkKind::Recovery`] are protocol-internal
    /// and must be unwrapped by the caller before reassembly; passing
    /// one here returns `None`.
    pub fn push(&mut self, sender: NodeId, chunk: &Chunk) -> Option<Bytes> {
        match chunk.kind {
            ChunkKind::Complete => Some(chunk.data.clone()),
            ChunkKind::FragStart => {
                self.partial.insert((sender, chunk.msg_id), Partial::View(chunk.data.clone()));
                None
            }
            ChunkKind::FragCont => {
                if let Some(partial) = self.partial.get_mut(&(sender, chunk.msg_id)) {
                    partial.extend(&chunk.data, chunk.orig_len);
                }
                None
            }
            ChunkKind::FragEnd => {
                let mut partial = self.partial.remove(&(sender, chunk.msg_id))?;
                partial.extend(&chunk.data, chunk.orig_len);
                if partial.len() != chunk.orig_len as usize {
                    // A fragment went missing in a configuration change;
                    // drop the torn message rather than deliver garbage.
                    return None;
                }
                Some(partial.into_bytes())
            }
            ChunkKind::Recovery => None,
        }
    }

    /// Number of incomplete messages currently buffered.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Drops all partial state (used at configuration changes for
    /// senders that did not survive).
    pub fn clear(&mut self) {
        self.partial.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_wire::frame::CHUNK_HEADER_LEN;

    fn q(sizes: &[usize]) -> VecDeque<Bytes> {
        sizes.iter().map(|&n| Bytes::from(vec![n as u8; n])).collect()
    }

    /// Up to `max_packets` packets, one `pack_next` at a time.
    fn pack(p: &mut Packer, queue: &mut VecDeque<Bytes>, max_packets: usize) -> Vec<Chunks> {
        std::iter::from_fn(|| p.pack_next(queue)).take(max_packets).collect()
    }

    fn payload_len(chunks: &[Chunk]) -> usize {
        chunks.iter().map(Chunk::wire_len).sum()
    }

    #[test]
    fn two_700_byte_messages_share_a_packet_exactly() {
        let mut p = Packer::new();
        let mut queue = q(&[700, 700]);
        let pkts = pack(&mut p, &mut queue, 10);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].len(), 2);
        assert_eq!(payload_len(&pkts[0]), MAX_PAYLOAD);
        assert!(queue.is_empty());
    }

    #[test]
    fn small_messages_pack_many_per_packet() {
        let mut p = Packer::new();
        let mut queue = q(&[100; 24]);
        let pkts = pack(&mut p, &mut queue, 10);
        // 12 per packet: 12 × (100+12) = 1344 ≤ 1424, 13 would overflow.
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].len(), 12);
        assert_eq!(pkts[1].len(), 12);
    }

    #[test]
    fn chunk_lists_are_allocated_at_their_final_length() {
        let mut p = Packer::new();
        let mut queue = q(&[100; 13]);
        queue.extend(q(&[1500, 100, 700, 700, 1000, 3000]));
        let pkts = pack(&mut p, &mut queue, 100);
        // Lone chunks: the 13th 100-byte message, a fragment, a
        // 1000-byte message.
        assert!(pkts.iter().filter(|c| c.len() == 1).count() >= 3);
        for chunks in pkts {
            let list = if chunks.len() == 1 { 0 } else { chunks.len() };
            assert_eq!(chunks.heap_capacity(), list, "{} chunks", chunks.len());
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn oversized_message_fragments_across_packets() {
        let len = 3000;
        let mut p = Packer::new();
        let mut queue = q(&[len]);
        let pkts = pack(&mut p, &mut queue, 10);
        // 3000 = 1412 + 1412 + 176 → 3 packets.
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0][0].kind, ChunkKind::FragStart);
        assert_eq!(pkts[1][0].kind, ChunkKind::FragCont);
        assert_eq!(pkts[2][0].kind, ChunkKind::FragEnd);
        assert_eq!(pkts.iter().flat_map(|c| c.iter().map(|ch| ch.data.len())).sum::<usize>(), len);
        assert!(!p.mid_fragment());
    }

    #[test]
    fn final_fragment_shares_packet_with_next_message() {
        let mut p = Packer::new();
        let mut queue = q(&[1500, 100]);
        let pkts = pack(&mut p, &mut queue, 10);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[1][0].kind, ChunkKind::FragEnd);
        assert_eq!(pkts[1][1].kind, ChunkKind::Complete);
        assert_eq!(pkts[1][1].data.len(), 100);
    }

    #[test]
    fn packet_budget_suspends_and_resumes_fragmentation() {
        let mut p = Packer::new();
        let mut queue = q(&[5000]);
        let first = pack(&mut p, &mut queue, 2);
        assert_eq!(first.len(), 2);
        assert!(p.mid_fragment());
        let rest = pack(&mut p, &mut queue, 10);
        assert!(!p.mid_fragment());
        let total: usize =
            first.iter().chain(rest.iter()).flat_map(|c| c.iter().map(|ch| ch.data.len())).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn every_packet_respects_max_payload() {
        let mut p = Packer::new();
        let mut queue = q(&[1, 50, 700, 1412, 1413, 4000, 9, 100, 100, 100]);
        let pkts = pack(&mut p, &mut queue, 100);
        for pkt in &pkts {
            assert!(payload_len(pkt) <= MAX_PAYLOAD, "packet overflows: {}", payload_len(pkt));
            assert!(!pkt.is_empty());
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn roundtrip_through_reassembler() {
        // The last message is longer than the reassembler reserves up
        // front; its buffer grows past the reservation.
        let sizes = [1usize, 50, 700, 700, 1412, 1413, 4000, 9, 100, MAX_DECODE_LEN + 5000];
        let mut p = Packer::new();
        let mut queue = q(&sizes);
        let original: Vec<Bytes> = queue.iter().cloned().collect();
        let pkts = pack(&mut p, &mut queue, 1000);

        let mut r = Reassembler::new();
        let sender = NodeId::new(0);
        let mut out = Vec::new();
        for chunks in &pkts {
            for c in chunks {
                if let Some(msg) = r.push(sender, c) {
                    out.push(msg);
                }
            }
        }
        assert_eq!(out, original);
        assert_eq!(r.pending(), 0);
    }

    /// The chunks of one fragmented message, in order.
    fn fragments(len: usize) -> (Bytes, Vec<Chunk>) {
        let payload: Bytes = (0..len).map(|i| (i % 251) as u8).collect();
        let mut queue = VecDeque::from([payload.clone()]);
        let chunks =
            pack(&mut Packer::new(), &mut queue, 100).iter().flat_map(|c| c.to_vec()).collect();
        (payload, chunks)
    }

    fn reassemble(r: &mut Reassembler, chunks: &[Chunk]) -> Vec<Bytes> {
        chunks.iter().filter_map(|c| r.push(NodeId::new(2), c)).collect()
    }

    #[test]
    fn a_message_cut_from_one_buffer_comes_back_as_that_buffer() {
        let (payload, chunks) = fragments(10_000);
        assert_eq!(chunks.len(), 8);
        let mut r = Reassembler::new();
        let out = reassemble(&mut r, &chunks);
        assert_eq!(out, std::slice::from_ref(&payload));
        assert_eq!(out[0].as_ptr(), payload.as_ptr(), "delivered as a view, not a copy");
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn non_adjacent_fragments_fall_back_to_a_byte_identical_copy() {
        let (payload, mut chunks) = fragments(10_000);
        // Each fragment in a buffer of its own, as off the wire; the
        // first stays a view of the payload.
        for c in &mut chunks[1..] {
            c.data = Bytes::copy_from_slice(&c.data);
        }
        let mut r = Reassembler::new();
        let out = reassemble(&mut r, &chunks);
        assert_eq!(out, std::slice::from_ref(&payload));
        assert_ne!(out[0].as_ptr(), payload.as_ptr());
        // A view that breaks off midway copies from there on.
        let (payload, mut chunks) = fragments(10_000);
        chunks[5].data = Bytes::copy_from_slice(&chunks[5].data);
        assert_eq!(reassemble(&mut r, &chunks), [payload]);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn a_torn_message_is_dropped_whether_view_or_copy() {
        let (_, chunks) = fragments(10_000);
        let mut r = Reassembler::new();
        // A continuation lost across a configuration change.
        let torn: Vec<Chunk> =
            chunks.iter().enumerate().filter(|&(i, _)| i != 3).map(|(_, c)| c.clone()).collect();
        assert!(reassemble(&mut r, &torn).is_empty());
        let mut copied = torn;
        for c in &mut copied {
            c.data = Bytes::copy_from_slice(&c.data);
        }
        assert!(reassemble(&mut r, &copied).is_empty());
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_drops_torn_message_missing_start() {
        let mut r = Reassembler::new();
        let sender = NodeId::new(1);
        // FragEnd without a FragStart (lost across a config change).
        let end = Chunk {
            kind: ChunkKind::FragEnd,
            msg_id: 7,
            orig_len: 100,
            data: Bytes::from(vec![0u8; 40]),
        };
        assert_eq!(r.push(sender, &end), None);
    }

    #[test]
    fn reassembler_separates_senders() {
        let mut r = Reassembler::new();
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let start = |data: &'static [u8]| Chunk {
            kind: ChunkKind::FragStart,
            msg_id: 0,
            orig_len: (data.len() * 2) as u32,
            data: Bytes::from_static(data),
        };
        let end = |data: &'static [u8]| Chunk {
            kind: ChunkKind::FragEnd,
            msg_id: 0,
            orig_len: (data.len() * 2) as u32,
            data: Bytes::from_static(data),
        };
        assert_eq!(r.push(a, &start(b"aa")), None);
        assert_eq!(r.push(b, &start(b"bb")), None);
        assert_eq!(r.push(a, &end(b"AA")).unwrap(), Bytes::from_static(b"aaAA"));
        assert_eq!(r.push(b, &end(b"BB")).unwrap(), Bytes::from_static(b"bbBB"));
    }

    #[test]
    fn boundary_sizes_match_frame_math() {
        // MAX_UNFRAGMENTED_MSG fits in one packet alone; one byte more
        // fragments.
        let mut p = Packer::new();
        let mut queue = q(&[MAX_UNFRAGMENTED_MSG]);
        let pkts = pack(&mut p, &mut queue, 10);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0][0].kind, ChunkKind::Complete);
        assert_eq!(payload_len(&pkts[0]), MAX_PAYLOAD);

        let mut queue = q(&[MAX_UNFRAGMENTED_MSG + 1]);
        let pkts = pack(&mut p, &mut queue, 10);
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0][0].kind, ChunkKind::FragStart);
        let _ = CHUNK_HEADER_LEN;
    }
}
