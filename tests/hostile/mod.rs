//! Datagrams a node must drop without acting on them, shared by the
//! runtime tests that inject them beside live traffic — over the
//! in-memory transport (`runtime_faults`) and over real sockets
//! (`udp_smoke`).

use bytes::Bytes;
use totem_wire::{Chunk, DataPacket, JoinMessage, NodeId, Packet, RingId, Seq, Token, Writer};

/// Datagrams no node may act on: seeded garbage, every strict prefix
/// of well-formed frames, and headers whose length fields promise far
/// more than the datagram holds.
pub fn hostile_datagrams() -> Vec<Bytes> {
    let mut out = vec![Bytes::new()];

    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for len in 1..=48usize {
        let garbage: Vec<u8> = (0..len * 3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        out.push(Bytes::from(garbage));
    }

    let ring = RingId::new(NodeId::new(0), 0);
    let frames = [
        Packet::Data(DataPacket {
            ring,
            seq: Seq::new(1),
            sender: NodeId::new(1),
            chunks: vec![
                Chunk::complete(1, Bytes::from_static(b"forged payload")),
                Chunk::complete(2, Bytes::from_static(b"and another")),
            ]
            .into(),
        }),
        Packet::Token(Token::initial(ring)),
        Packet::Join(JoinMessage {
            sender: NodeId::new(2),
            ring_seq: 7,
            proc_set: vec![NodeId::new(0), NodeId::new(2)],
            fail_set: vec![NodeId::new(1)],
        }),
    ];
    for frame in frames {
        let whole = frame.encode_shared();
        out.extend((1..whole.len()).map(|cut| whole.slice(..cut)));
    }

    // A data frame announcing 0xFFFF chunks, and one whose only chunk
    // claims 0xFFFF bytes of which three are present.
    for (chunks, chunk_len) in [(0xFFFFu16, 3u16), (1, 0xFFFF)] {
        let mut w = Writer::new();
        w.u8(0x01);
        w.u16(0);
        w.u64(0);
        w.u64(1);
        w.u16(1);
        w.u16(chunks);
        w.u8(0);
        w.u8(0);
        w.u16(chunk_len);
        w.u32(1);
        w.u32(3);
        w.raw(b"abc");
        out.push(w.to_shared());
    }
    // A token whose retransmission list claims 4 Gi entries, and one
    // claiming a plausible count that is not there.
    for rtr in [u32::MAX, 40] {
        let mut token = Packet::Token(Token::initial(ring)).encode();
        let at = token.len() - 4;
        token[at..].copy_from_slice(&rtr.to_be_bytes());
        out.push(Bytes::from(token));
    }
    // A Ring Paxos proposal with a 4 GiB value, then one just past the
    // decoder's sanity bound.
    for len in [u32::MAX, (1 << 20) + 1] {
        let mut w = Writer::new();
        w.u8(0x05);
        w.u8(0x01);
        w.u16(1);
        w.u64(1);
        w.u64(1);
        w.u32(len);
        w.raw(b"short");
        out.push(w.to_shared());
    }
    out
}

/// Data frames on the live ring, "from" a member, whose sequence
/// numbers lie far beyond anything flow control lets a ring reach, each
/// with its sequence number: just past the receive window's span cap,
/// astronomically past it, and at or past the counter bound. Those
/// below [`MAX_COUNTER`] decode, so they reach the SRP — which must
/// refuse them outright rather than size its window by them or take the
/// phantom sequence number for a reason to reform the ring. The rest
/// the decoder refuses.
pub fn forged_far_ahead_frames() -> Vec<(u64, Bytes)> {
    [totem_srp::window::SPAN_CAP + 500, 1 << 40, u64::MAX >> 2, 1 << 62, u64::MAX]
        .into_iter()
        .map(|seq| {
            let frame = Packet::Data(DataPacket {
                ring: RingId::new(NodeId::new(0), 1),
                seq: Seq::new(seq),
                sender: NodeId::new(1),
                chunks: Chunk::complete(9, Bytes::from_static(b"from the future")).into(),
            });
            (seq, frame.encode_shared())
        })
        .collect()
}
