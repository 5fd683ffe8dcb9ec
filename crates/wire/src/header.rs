//! The fixed header of a datagram, validated without decoding it.
//!
//! Under active replication every receiver is handed N copies of every
//! message and every token and uses one (paper §5, Figure 2). Whether a
//! copy is the redundant one can be read off its first few fields —
//! kind, ring, sequence number or rotation, sender — so a host that
//! wants to drop it before paying for a decode asks for the
//! [`WireHeader`] first.
//!
//! [`WireHeader::parse`] is not a second parser: it runs the one
//! decoder ([`Packet::decode_from`]) over a [`Reader`] that checks
//! every field, length and tag but keeps no byte string or list, so it
//! accepts exactly the datagrams [`Packet::decode`] accepts, rejects
//! the rest with the same error, and allocates nothing either way.

use crate::codec::{CodecError, Reader};
use crate::ids::{NodeId, RingId, Rotation, Seq};
use crate::packet::Packet;

/// What a valid datagram is, and the fields that identify it among its
/// copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireHeader {
    /// A broadcast data frame.
    Data {
        /// The ring the frame belongs to.
        ring: RingId,
        /// Its global sequence number on that ring.
        seq: Seq,
        /// The node that broadcast it.
        sender: NodeId,
    },
    /// A regular token.
    Token {
        /// The ring the token circulates on.
        ring: RingId,
        /// Its rotation counter.
        rotation: Rotation,
        /// The sequence number it carries.
        seq: Seq,
    },
    /// A membership join message.
    Join {
        /// The node that broadcast it.
        sender: NodeId,
        /// The highest ring sequence number the sender knows of.
        ring_seq: u64,
    },
    /// A commit token.
    Commit {
        /// The ring being formed.
        ring: RingId,
        /// Which rotation the token is on.
        round: u8,
    },
    /// A Ring Paxos backend message.
    RingPaxos,
}

impl WireHeader {
    /// Validates `datagram` exactly as [`Packet::decode`] does — the
    /// whole of it, trailing bytes included — and returns its header.
    /// Allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns the [`CodecError`] [`Packet::decode`] returns for the
    /// same bytes.
    pub fn parse(datagram: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::validating(datagram);
        let skeleton = Packet::decode_from(&mut r)?;
        r.finish()?;
        Ok(WireHeader::of(&skeleton))
    }

    /// The header of a decoded packet.
    pub fn of(pkt: &Packet) -> Self {
        match pkt {
            Packet::Data(d) => WireHeader::Data { ring: d.ring, seq: d.seq, sender: d.sender },
            Packet::Token(t) => {
                WireHeader::Token { ring: t.ring, rotation: t.rotation, seq: t.seq }
            }
            Packet::Join(j) => WireHeader::Join { sender: j.sender, ring_seq: j.ring_seq },
            Packet::Commit(c) => WireHeader::Commit { ring: c.ring, round: c.round },
            Packet::RingPaxos(_) => WireHeader::RingPaxos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Chunk, DataPacket};
    use crate::token::Token;
    use bytes::Bytes;

    #[test]
    fn header_of_a_data_frame_matches_its_decode() {
        let pkt = Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(1), 4),
            seq: Seq::new(17),
            sender: NodeId::new(2),
            chunks: Chunk::complete(9, Bytes::from_static(b"hello")).into(),
        });
        let wire = pkt.encode();
        assert_eq!(WireHeader::parse(&wire), Ok(WireHeader::of(&pkt)));
        assert_eq!(
            WireHeader::parse(&wire),
            Ok(WireHeader::Data {
                ring: RingId::new(NodeId::new(1), 4),
                seq: Seq::new(17),
                sender: NodeId::new(2)
            })
        );
    }

    #[test]
    fn a_valid_header_on_a_corrupt_body_is_rejected_like_decode() {
        let mut token = Token::initial(RingId::new(NodeId::new(0), 1));
        token.rtr = vec![Seq::new(3), Seq::new(5)];
        let wire = Packet::Token(token).encode();
        for cut in 0..wire.len() {
            assert_eq!(
                WireHeader::parse(&wire[..cut]).err(),
                Packet::decode(&wire[..cut]).err(),
                "prefix of length {cut}"
            );
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(WireHeader::parse(&trailing), Err(CodecError::TrailingBytes { remaining: 1 }));
    }
}
