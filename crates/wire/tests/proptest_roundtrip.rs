//! Property-based tests: every structurally valid packet round-trips
//! through the codec, the decoder never panics on arbitrary bytes, a
//! sequence number or rotation at or above the counter bound is
//! refused, and the decoder's three entries — borrowing, zero-copy, and
//! the header-only validation — are indistinguishable in what they
//! accept and report.

use bytes::Bytes;
use proptest::prelude::*;
use totem_wire::{
    Ballot, Chunk, ChunkKind, CodecError, CommitToken, DataPacket, InstanceId, JoinMessage,
    MembEntry, NodeId, Packet, Proposal, RingId, RingPaxosMsg, Rotation, Seq, Token, WireHeader,
    MAX_COUNTER,
};

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u16..64).prop_map(NodeId::new)
}

fn arb_ring() -> impl Strategy<Value = RingId> {
    (arb_node(), 0u64..1_000_000).prop_map(|(rep, seq)| RingId::new(rep, seq))
}

fn arb_seq() -> impl Strategy<Value = Seq> {
    (0u64..MAX_COUNTER).prop_map(Seq::new)
}

fn arb_chunk_kind() -> impl Strategy<Value = ChunkKind> {
    prop_oneof![
        Just(ChunkKind::Complete),
        Just(ChunkKind::FragStart),
        Just(ChunkKind::FragCont),
        Just(ChunkKind::FragEnd),
        Just(ChunkKind::Recovery),
    ]
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    (arb_chunk_kind(), any::<u32>(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..1424))
        .prop_map(|(kind, msg_id, orig_len, data)| Chunk {
            kind,
            msg_id,
            orig_len,
            data: Bytes::from(data),
        })
}

fn arb_data_packet() -> impl Strategy<Value = DataPacket> {
    (arb_ring(), arb_seq(), arb_node(), proptest::collection::vec(arb_chunk(), 0..6)).prop_map(
        |(ring, seq, sender, chunks)| DataPacket { ring, seq, sender, chunks: chunks.into() },
    )
}

fn arb_token() -> impl Strategy<Value = Token> {
    (
        arb_ring(),
        any::<u32>(),
        arb_seq(),
        arb_seq(),
        proptest::option::of(arb_node()),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(arb_seq(), 0..20),
    )
        .prop_map(|(ring, rotation, seq, aru, aru_id, fcc, backlog, rtr)| Token {
            ring,
            rotation: Rotation::new(rotation as u64),
            seq,
            aru,
            aru_id,
            fcc,
            backlog,
            rtr,
        })
}

fn arb_join() -> impl Strategy<Value = JoinMessage> {
    (
        arb_node(),
        0u64..1_000_000,
        proptest::collection::vec(arb_node(), 0..16),
        proptest::collection::vec(arb_node(), 0..16),
    )
        .prop_map(|(sender, ring_seq, proc_set, fail_set)| JoinMessage {
            sender,
            ring_seq,
            proc_set,
            fail_set,
        })
}

fn arb_memb_entry() -> impl Strategy<Value = MembEntry> {
    (arb_node(), arb_ring(), arb_seq(), arb_seq(), any::<bool>()).prop_map(
        |(node, old_ring, my_aru, high_delivered, received_flag)| MembEntry {
            node,
            old_ring,
            my_aru,
            high_delivered,
            received_flag,
        },
    )
}

fn arb_commit() -> impl Strategy<Value = CommitToken> {
    (arb_ring(), 0u8..2, proptest::collection::vec(arb_memb_entry(), 0..16))
        .prop_map(|(ring, round, entries)| CommitToken { ring, round, entries })
}

fn arb_proposal() -> impl Strategy<Value = Proposal> {
    (arb_node(), any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..1400))
        .prop_map(|(sender, inc, req, payload)| Proposal {
            sender,
            inc,
            req,
            payload: Bytes::from(payload),
        })
}

fn arb_ring_paxos() -> impl Strategy<Value = RingPaxosMsg> {
    let iid = || any::<u64>().prop_map(InstanceId::new);
    let ballot = || any::<u64>().prop_map(Ballot::new);
    prop_oneof![
        arb_proposal().prop_map(RingPaxosMsg::Propose),
        (iid(), ballot(), arb_proposal()).prop_map(|(iid, ballot, value)| RingPaxosMsg::Accept {
            iid,
            ballot,
            value
        }),
        (iid(), ballot(), arb_node()).prop_map(|(iid, ballot, from)| RingPaxosMsg::RingAck {
            iid,
            ballot,
            from
        }),
        (iid(), any::<bool>(), arb_proposal())
            .prop_map(|(iid, nop, value)| RingPaxosMsg::Decision { iid, nop, value }),
        (arb_node(), iid()).prop_map(|(from, iid)| RingPaxosMsg::LearnReq { from, iid }),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        arb_data_packet().prop_map(Packet::Data),
        arb_token().prop_map(Packet::Token),
        arb_join().prop_map(Packet::Join),
        arb_commit().prop_map(Packet::Commit),
        arb_ring_paxos().prop_map(Packet::RingPaxos),
    ]
}

/// A counter value either side of [`MAX_COUNTER`], edges included.
fn arb_counter() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..MAX_COUNTER,
        MAX_COUNTER..=u64::MAX,
        Just(MAX_COUNTER - 1),
        Just(MAX_COUNTER),
        Just(u64::MAX),
    ]
}

/// A valid packet with one of its sequence-number or rotation fields —
/// data `seq`; token `seq`, `aru`, `rotation` or an `rtr` entry; a
/// commit entry's `my_aru` or `high_delivered` — set to `v`, and the
/// name the decoder reports for that field.
fn arb_packet_with_counter(v: u64) -> impl Strategy<Value = (Packet, &'static str)> {
    let token = move |what: &'static str, set: fn(&mut Token, u64)| {
        arb_token().prop_map(move |mut t| {
            set(&mut t, v);
            (Packet::Token(t), what)
        })
    };
    let entry = move |what: &'static str, set: fn(&mut MembEntry, u64)| {
        (arb_commit(), arb_memb_entry()).prop_map(move |(mut c, mut e)| {
            set(&mut e, v);
            c.entries.push(e);
            (Packet::Commit(c), what)
        })
    };
    prop_oneof![
        arb_data_packet().prop_map(move |mut d| {
            d.seq = Seq::new(v);
            (Packet::Data(d), "data seq")
        }),
        token("token seq", |t, v| t.seq = Seq::new(v)),
        token("token aru", |t, v| t.aru = Seq::new(v)),
        token("token rotation", |t, v| t.rotation = Rotation::new(v)),
        token("token rtr", |t, v| t.rtr.push(Seq::new(v))),
        entry("commit entry aru", |e, v| e.my_aru = Seq::new(v)),
        entry("commit entry high_delivered", |e, v| e.high_delivered = Seq::new(v)),
    ]
}

/// Every decode entry on the same bytes: same packet or same error,
/// and the non-allocating header validation accepts exactly when they
/// do, reporting that packet's header or that error.
fn decoders_agree(bytes: &[u8]) -> Result<Packet, CodecError> {
    let borrowed = Packet::decode(bytes);
    let shared = Packet::decode_shared(&Bytes::copy_from_slice(bytes));
    assert_eq!(borrowed, shared, "decode and decode_shared disagree on {bytes:02x?}");
    let header = borrowed.as_ref().map(WireHeader::of).map_err(Clone::clone);
    assert_eq!(WireHeader::parse(bytes), header, "header and decode disagree on {bytes:02x?}");
    borrowed
}

proptest! {
    #[test]
    fn packet_roundtrip(pkt in arb_packet()) {
        let bytes = pkt.encode();
        let decoded = Packet::decode(&bytes).expect("valid packet must decode");
        prop_assert_eq!(decoded, pkt);
    }

    // Every counter field decodes through one bounded read: below
    // `MAX_COUNTER` the packet round-trips, at or above it every entry
    // — the header peek included — refuses it with the typed error.
    #[test]
    fn counters_decode_only_below_the_bound(
        case in arb_counter().prop_flat_map(|v| (Just(v), arb_packet_with_counter(v))),
    ) {
        let (v, (pkt, what)) = case;
        let expected = if v < MAX_COUNTER {
            Ok(pkt.clone())
        } else {
            Err(CodecError::CounterOutOfRange { what, value: v })
        };
        prop_assert_eq!(decoders_agree(&pkt.encode()), expected);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Packet::decode(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_packets(
        pkt in arb_packet(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = pkt.encode();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
            let _ = Packet::decode(&bytes);
        }
    }

    #[test]
    fn decoder_never_panics_on_truncated_packets(
        pkt in arb_packet(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = pkt.encode();
        let len = cut.index(bytes.len() + 1);
        let _ = Packet::decode(&bytes[..len]);
    }

    #[test]
    fn decoder_never_panics_on_heavily_corrupted_packets(
        pkt in arb_packet(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..16),
    ) {
        let mut bytes = pkt.encode();
        if !bytes.is_empty() {
            for (idx, bit) in flips {
                let i = idx.index(bytes.len());
                bytes[i] ^= 1 << bit;
            }
            let _ = Packet::decode(&bytes);
        }
    }

    #[test]
    fn decoder_never_panics_on_trailing_garbage(
        pkt in arb_packet(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = pkt.encode();
        bytes.extend_from_slice(&garbage);
        let _ = Packet::decode(&bytes);
    }

    // The zero-copy entry is the borrowing one with different payload
    // ownership, and the header validation is the same decoder keeping
    // nothing, nothing else: on valid frames of every kind and on each
    // hostile mutation above, all return the same packet (or its
    // header) or the same error.
    #[test]
    fn borrowing_and_zero_copy_decode_agree(
        pkt in arb_packet(),
        cut in any::<prop::sample::Index>(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..16),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let valid = pkt.encode();
        prop_assert_eq!(decoders_agree(&valid), Ok(pkt));

        let _ = decoders_agree(&valid[..cut.index(valid.len() + 1)]);

        let mut flipped = valid.clone();
        for (idx, bit) in flips {
            let i = idx.index(flipped.len());
            flipped[i] ^= 1 << bit;
        }
        let _ = decoders_agree(&flipped);

        let mut trailing = valid;
        trailing.extend_from_slice(&garbage);
        prop_assert!(decoders_agree(&trailing).is_err());
    }

    #[test]
    fn borrowing_and_zero_copy_decode_agree_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decoders_agree(&bytes);
    }

    // Whatever the decoder accepts — even from corrupted input — must
    // be a fixed point: re-encoding and re-decoding yields the same
    // packet. Without this, a mutated-but-accepted packet could mean
    // different things to the node that forwards it and the node that
    // receives the forward.
    #[test]
    fn accepted_decodes_are_reencode_stable(
        pkt in arb_packet(),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = pkt.encode();
        if !bytes.is_empty() {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
            if let Ok(decoded) = Packet::decode(&bytes) {
                let reencoded = decoded.encode();
                let redecoded = Packet::decode(&reencoded)
                    .expect("re-encoding an accepted packet must decode");
                prop_assert_eq!(redecoded, decoded);
            }
        }
    }

    #[test]
    fn control_packet_encoded_len_is_exact(t in arb_token(), j in arb_join(), c in arb_commit()) {
        prop_assert_eq!(Packet::Token(t.clone()).encode().len(), t.encoded_len() + 1);
        prop_assert_eq!(Packet::Join(j.clone()).encode().len(), j.encoded_len() + 1);
        prop_assert_eq!(Packet::Commit(c.clone()).encode().len(), c.encoded_len() + 1);
    }
}
