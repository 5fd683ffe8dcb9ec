//! The regular token of the Totem single-ring protocol.
//!
//! The token is unicast from each node to its successor on the
//! logical ring. Holding it grants the right to broadcast; its fields
//! carry the global sequence number, the all-received-up-to watermark
//! used for agreed/safe delivery, the retransmission request list,
//! and the flow control state (paper §2; Amir et al., TOCS '95).

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Reader, Writer};
use crate::ids::{NodeId, RingId, Rotation, Seq};

/// Hard cap on how many retransmission requests ride on one token;
/// anything beyond this waits for the next rotation. Keeps the token
/// within a single Ethernet frame.
pub const MAX_RTR: usize = 100;

/// The regular (operational) token.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// The ring configuration this token circulates on.
    pub ring: RingId,
    /// Rotation counter, incremented by the ring leader every time the
    /// token completes a rotation. The paper (§2, footnote 1) adds it
    /// so an idle ring's retransmitted token is not mistaken for a
    /// fresh one.
    pub rotation: Rotation,
    /// Sequence number of the last packet broadcast on the ring.
    pub seq: Seq,
    /// All-received-up-to: the highest sequence number such that every
    /// node on the ring is known to have received all packets up to it.
    pub aru: Seq,
    /// The node that last lowered `aru` (used to detect when the
    /// lowering node has caught up; `None` when `aru == seq`).
    pub aru_id: Option<NodeId>,
    /// Flow control count: packets broadcast by all nodes during the
    /// last token rotation.
    pub fcc: u32,
    /// Rolling sum of the members' send-queue backlogs: each member's
    /// queue length as of its last visit (a visit replaces the
    /// member's previous share). Zero means no member reports a queued
    /// message — the ring is idle.
    pub backlog: u32,
    /// Retransmission request list: sequence numbers some node is
    /// missing. A token holder that has a requested packet rebroadcasts
    /// it and removes the request.
    pub rtr: Vec<Seq>,
}

impl Clone for Token {
    fn clone(&self) -> Self {
        Token { rtr: self.rtr.clone(), ..*self }
    }

    /// Overwrites `self` in place, so `rtr` keeps its capacity: a token
    /// cell rewritten at every hop allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let rtr = std::mem::take(&mut self.rtr);
        *self = Token { rtr, ..*source };
        self.rtr.clone_from(&source.rtr);
    }
}

impl Token {
    /// The token a freshly formed ring starts with: sequence zero,
    /// nothing outstanding.
    pub fn initial(ring: RingId) -> Self {
        Token {
            ring,
            rotation: Rotation::ZERO,
            seq: Seq::ZERO,
            aru: Seq::ZERO,
            aru_id: None,
            fcc: 0,
            backlog: 0,
            rtr: Vec::new(),
        }
    }

    /// A key identifying this token instance for duplicate detection:
    /// a retransmitted token has the same `(seq, rotation)` pair, a
    /// fresh one never does (the leader bumps `rotation` each full
    /// rotation even when `seq` is unchanged — paper §2, footnote 1).
    pub fn instance_key(&self) -> (u64, u64) {
        (self.seq.as_u64(), self.rotation.as_u64())
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.ring.rep.as_u16());
        w.u64(self.ring.seq);
        w.u64(self.rotation.as_u64());
        w.u64(self.seq.as_u64());
        w.u64(self.aru.as_u64());
        match self.aru_id {
            Some(id) => {
                w.bool(true);
                w.u16(id.as_u16());
            }
            None => w.bool(false),
        }
        w.u32(self.fcc);
        w.u32(self.backlog);
        w.u32(self.rtr.len() as u32);
        for s in &self.rtr {
            w.u64(s.as_u64());
        }
    }

    /// Decodes a token whose `rtr` is read into `rtr` (a recycled list,
    /// or an empty `Vec`).
    pub(crate) fn decode(r: &mut Reader<'_>, rtr: Vec<Seq>) -> Result<Self, CodecError> {
        let ring = RingId::new(NodeId::new(r.u16()?), r.u64()?);
        let rotation = r.counter("token rotation")?;
        let seq = r.counter("token seq")?;
        let aru = r.counter("token aru")?;
        let aru_id = if r.bool()? { Some(NodeId::new(r.u16()?)) } else { None };
        let fcc = r.u32()?;
        let backlog = r.u32()?;
        let n = r.seq_len("rtr list")?;
        if n > MAX_RTR {
            return Err(CodecError::BadLength { what: "rtr list", len: n });
        }
        let rtr = r.list(rtr, n, MAX_RTR, |r| r.counter("token rtr"))?;
        Ok(Token { ring, rotation, seq, aru, aru_id, fcc, backlog, rtr })
    }

    /// Encoded size in bytes, used for simulator bandwidth accounting.
    pub fn encoded_len(&self) -> usize {
        // ring(10) + rotation(8) + seq(8) + aru(8) + aru_id(1 or 3)
        // + fcc(4) + backlog(4) + rtr count(4) + 8/entry
        2 + 8
            + 8
            + 8
            + 8
            + if self.aru_id.is_some() { 3 } else { 1 }
            + 4
            + 4
            + 4
            + 8 * self.rtr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn sample() -> Token {
        Token {
            ring: RingId::new(NodeId::new(1), 12),
            rotation: Rotation::new(99),
            seq: Seq::new(1000),
            aru: Seq::new(990),
            aru_id: Some(NodeId::new(3)),
            fcc: 40,
            backlog: 7,
            rtr: vec![Seq::new(991), Seq::new(995)],
        }
    }

    #[test]
    fn roundtrip() {
        let pkt = Packet::Token(sample());
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn roundtrip_without_aru_id() {
        let mut t = sample();
        t.aru_id = None;
        t.rtr.clear();
        let pkt = Packet::Token(t);
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for t in [sample(), Token::initial(RingId::new(NodeId::new(0), 1))] {
            let bytes = Packet::Token(t.clone()).encode();
            // +1 for the packet tag byte.
            assert_eq!(bytes.len(), t.encoded_len() + 1);
        }
    }

    #[test]
    fn initial_token_is_quiescent() {
        let t = Token::initial(RingId::new(NodeId::new(2), 5));
        assert_eq!(t.seq, Seq::ZERO);
        assert_eq!(t.aru, Seq::ZERO);
        assert!(t.rtr.is_empty());
        assert_eq!(t.instance_key(), (0, 0));
    }

    #[test]
    fn instance_key_distinguishes_rotations_on_idle_ring() {
        let mut a = Token::initial(RingId::new(NodeId::new(0), 1));
        let b = a.clone();
        a.rotation = a.rotation.next(); // leader bumped the rotation counter
        assert_ne!(a.instance_key(), b.instance_key());
        assert_eq!(a.seq, b.seq);
    }

    #[test]
    fn clone_from_copies_every_field_and_keeps_rtr_capacity() {
        let mut cell = Token::initial(RingId::new(NodeId::new(0), 1));
        cell.rtr.reserve(MAX_RTR);
        let (buf, cap) = (cell.rtr.as_ptr(), cell.rtr.capacity());
        cell.clone_from(&sample());
        assert_eq!(cell, sample());
        assert_eq!((cell.rtr.as_ptr(), cell.rtr.capacity()), (buf, cap));
        assert_eq!(sample().clone(), sample());
    }

    #[test]
    fn oversized_rtr_list_is_rejected() {
        let mut t = sample();
        t.rtr = (0..200).map(Seq::new).collect();
        let bytes = Packet::Token(t).encode();
        assert!(matches!(Packet::decode(&bytes), Err(CodecError::BadLength { .. })));
    }
}
