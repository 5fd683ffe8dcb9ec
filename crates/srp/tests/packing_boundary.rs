//! Property-based tests pinning the fragmentation/packing behaviour at
//! the 1424-byte Ethernet payload boundary (paper §8).
//!
//! The generic packer round-trip in `properties.rs` samples message
//! sizes broadly; these strategies concentrate on the interesting
//! region — exactly at, just below, and just above the frame payload
//! (1424) and the largest unfragmented message (1424 − 12 = 1412) —
//! and push every packet through the real wire codec, so the test
//! covers pack → encode → decode → reassemble end to end.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;
use totem_srp::packing::{Packer, Reassembler};
use totem_wire::frame::{MAX_PAYLOAD, MAX_UNFRAGMENTED_MSG};
use totem_wire::{Chunk, ChunkKind, Chunks, DataPacket, NodeId, Packet, RingId, Seq};

/// Message sizes clustered on the boundary: every size in
/// `[1412 − 16, 1424 + 16]` (covering both edges) plus a few far-away
/// anchors so mixed queues exercise packing around a fragmented head.
fn boundary_size() -> impl Strategy<Value = usize> {
    // The vendored proptest's `prop_oneof!` has no weight syntax;
    // repeating the boundary arm biases the union towards it.
    prop_oneof![
        (MAX_UNFRAGMENTED_MSG - 16)..=(MAX_PAYLOAD + 16),
        (MAX_UNFRAGMENTED_MSG - 16)..=(MAX_PAYLOAD + 16),
        (MAX_UNFRAGMENTED_MSG - 16)..=(MAX_PAYLOAD + 16),
        Just(1usize),
        Just(700usize),
        Just(2 * MAX_PAYLOAD + 3),
    ]
}

fn queue_of(sizes: &[usize]) -> VecDeque<Bytes> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| Bytes::from(vec![(i as u8).wrapping_add(n as u8); n]))
        .collect()
}

/// Packs `sizes`, sends every packet through the wire codec, and
/// reassembles the decoded chunks.
fn roundtrip(sizes: &[usize]) -> (Vec<Bytes>, Vec<Bytes>, Vec<Chunks>) {
    let mut queue = queue_of(sizes);
    let original: Vec<Bytes> = queue.iter().cloned().collect();
    let mut packer = Packer::new();
    let packed: Vec<Chunks> = std::iter::from_fn(|| packer.pack_next(&mut queue)).collect();
    assert!(queue.is_empty(), "packing until `None` must drain the queue");

    let sender = NodeId::new(3);
    let mut reassembler = Reassembler::new();
    let mut out = Vec::new();
    let mut decoded_packets = Vec::new();
    for (seq, chunks) in packed.iter().enumerate() {
        let pkt = Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(seq as u64 + 1),
            sender,
            chunks: chunks.clone(),
        });
        let bytes = pkt.encode();
        let Ok(Packet::Data(d)) = Packet::decode(&bytes) else {
            panic!("packed data packet must decode as data");
        };
        for c in &d.chunks {
            if let Some(msg) = reassembler.push(sender, c) {
                out.push(msg);
            }
        }
        decoded_packets.push(d.chunks);
    }
    assert_eq!(reassembler.pending(), 0, "no partial messages may remain");
    (original, out, decoded_packets)
}

proptest! {
    /// Any mix of boundary-straddling sizes survives
    /// pack → encode → decode → reassemble byte for byte, in order,
    /// and no packet ever exceeds the 1424-byte frame payload.
    #[test]
    fn boundary_mixes_roundtrip_through_the_codec(
        sizes in proptest::collection::vec(boundary_size(), 1..12),
    ) {
        let (original, out, packets) = roundtrip(&sizes);
        prop_assert_eq!(out, original);
        for chunks in &packets {
            let payload: usize = chunks.iter().map(Chunk::wire_len).sum();
            prop_assert!(
                payload <= MAX_PAYLOAD,
                "packet payload {payload} exceeds MAX_PAYLOAD"
            );
            prop_assert!(!chunks.is_empty());
        }
    }

    /// Fragmentation starts exactly above `MAX_UNFRAGMENTED_MSG`
    /// (1412): a message of any size up to it ships as one `Complete`
    /// chunk, one byte more ships as `FragStart … FragEnd` whose data
    /// concatenates back to the original length.
    #[test]
    fn fragmentation_threshold_is_exact(delta in 0usize..=24) {
        // At or below the boundary: a single unfragmented chunk.
        let below = MAX_UNFRAGMENTED_MSG - delta;
        let (_, _, packets) = roundtrip(&[below]);
        prop_assert_eq!(packets.len(), 1);
        prop_assert_eq!(packets[0][0].kind, ChunkKind::Complete);
        prop_assert_eq!(packets[0][0].data.len(), below);

        // Above it: a FragStart filling the first frame, a FragEnd
        // carrying the remainder.
        let above = MAX_UNFRAGMENTED_MSG + 1 + delta;
        let (_, _, packets) = roundtrip(&[above]);
        prop_assert_eq!(packets.len(), 2);
        prop_assert_eq!(packets[0][0].kind, ChunkKind::FragStart);
        prop_assert_eq!(packets[0][0].data.len(), MAX_UNFRAGMENTED_MSG);
        prop_assert_eq!(packets[1][0].kind, ChunkKind::FragEnd);
        prop_assert_eq!(packets[1][0].data.len(), 1 + delta);
    }

    /// A message of exactly one frame payload (1424 bytes) does not
    /// fit unfragmented — its chunk header leaves only 1412 bytes of
    /// room — and its fragments still round-trip.
    #[test]
    fn exact_frame_payload_message_fragments(extra in 0usize..=1) {
        let size = MAX_PAYLOAD + extra;
        let (original, out, packets) = roundtrip(&[size]);
        prop_assert_eq!(out, original);
        prop_assert_eq!(packets.len(), 2);
        prop_assert_eq!(packets[0][0].kind, ChunkKind::FragStart);
        let total: usize = packets.iter().flatten().map(|c| c.data.len()).sum();
        prop_assert_eq!(total, size);
    }
}
