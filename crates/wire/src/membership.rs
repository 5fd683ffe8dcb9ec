//! Membership-protocol messages of the Totem single-ring protocol.
//!
//! When a node's token-loss timer fires it shifts to the *Gather*
//! state and broadcasts [`JoinMessage`]s advertising the set of
//! processors it can hear (`proc_set`) and the set it has given up on
//! (`fail_set`). Once consensus is reached, the representative of the
//! candidate ring circulates a [`CommitToken`]; after two full
//! rotations the members enter *Recovery*, exchange the messages of
//! their old rings, and install the new ring (Amir et al., TOCS '95;
//! summarized in paper §2).

use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Reader, Writer};
use crate::ids::{NodeId, RingId, Seq};

/// Upper bound on the membership size a decoder will accept.
pub const MAX_MEMBERS: usize = 4096;

/// A broadcast join message sent while in the Gather state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinMessage {
    /// The sender of the join message.
    pub sender: NodeId,
    /// The highest ring sequence number the sender has participated
    /// in or heard of; the new ring's sequence number must exceed it.
    pub ring_seq: u64,
    /// Processors the sender proposes as members (it has heard from
    /// them recently).
    pub proc_set: Vec<NodeId>,
    /// Processors the sender has decided have failed.
    pub fail_set: Vec<NodeId>,
}

impl JoinMessage {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.sender.as_u16());
        w.u64(self.ring_seq);
        w.u32(self.proc_set.len() as u32);
        for n in &self.proc_set {
            w.u16(n.as_u16());
        }
        w.u32(self.fail_set.len() as u32);
        for n in &self.fail_set {
            w.u16(n.as_u16());
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let sender = NodeId::new(r.u16()?);
        let ring_seq = r.u64()?;
        let np = r.seq_len("proc set")?;
        if np > MAX_MEMBERS {
            return Err(CodecError::BadLength { what: "proc set", len: np });
        }
        let proc_set = r.list(np, MAX_MEMBERS, |r| r.u16().map(NodeId::new))?;
        let nf = r.seq_len("fail set")?;
        if nf > MAX_MEMBERS {
            return Err(CodecError::BadLength { what: "fail set", len: nf });
        }
        let fail_set = r.list(nf, MAX_MEMBERS, |r| r.u16().map(NodeId::new))?;
        Ok(JoinMessage { sender, ring_seq, proc_set, fail_set })
    }

    /// Encoded size in bytes, used for simulator bandwidth accounting.
    pub fn encoded_len(&self) -> usize {
        2 + 8 + 4 + 2 * self.proc_set.len() + 4 + 2 * self.fail_set.len()
    }
}

/// Per-member state carried on the commit token: what each member
/// knows about its **old** ring, used to plan recovery retransmissions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembEntry {
    /// The member this entry describes.
    pub node: NodeId,
    /// The ring the member was operating on before the configuration
    /// change.
    pub old_ring: RingId,
    /// The member's all-received-up-to watermark on that old ring.
    pub my_aru: Seq,
    /// The highest sequence number the member has *delivered* on the
    /// old ring.
    pub high_delivered: Seq,
    /// Whether the member has already received every old-ring message
    /// it needs (set during the second rotation).
    pub received_flag: bool,
}

impl MembEntry {
    fn encode(&self, w: &mut Writer) {
        w.u16(self.node.as_u16());
        w.u16(self.old_ring.rep.as_u16());
        w.u64(self.old_ring.seq);
        w.u64(self.my_aru.as_u64());
        w.u64(self.high_delivered.as_u64());
        w.bool(self.received_flag);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MembEntry {
            node: NodeId::new(r.u16()?),
            old_ring: RingId::new(NodeId::new(r.u16()?), r.u64()?),
            my_aru: r.counter("commit entry aru")?,
            high_delivered: r.counter("commit entry high_delivered")?,
            received_flag: r.bool()?,
        })
    }

    const ENCODED_LEN: usize = 2 + 2 + 8 + 8 + 8 + 1;
}

/// The commit token circulated (unicast, in ring order of the
/// candidate membership) while forming a new ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitToken {
    /// The identity of the ring being formed.
    pub ring: RingId,
    /// Which rotation the token is on (0 = collecting old-ring state,
    /// 1 = confirming; after the second rotation members enter
    /// Recovery).
    pub round: u8,
    /// One entry per member, in ring order.
    pub entries: Vec<MembEntry>,
}

impl CommitToken {
    /// The membership of the candidate ring, in ring order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.ring.rep.as_u16());
        w.u64(self.ring.seq);
        w.u8(self.round);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            e.encode(w);
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let ring = RingId::new(NodeId::new(r.u16()?), r.u64()?);
        let round = r.u8()?;
        let n = r.seq_len("commit entries")?;
        if n > MAX_MEMBERS {
            return Err(CodecError::BadLength { what: "commit entries", len: n });
        }
        let entries = r.list(n, MAX_MEMBERS, MembEntry::decode)?;
        Ok(CommitToken { ring, round, entries })
    }

    /// Encoded size in bytes, used for simulator bandwidth accounting.
    pub fn encoded_len(&self) -> usize {
        2 + 8 + 1 + 4 + MembEntry::ENCODED_LEN * self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn sample_join() -> JoinMessage {
        JoinMessage {
            sender: NodeId::new(3),
            ring_seq: 8,
            proc_set: vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)],
            fail_set: vec![NodeId::new(2)],
        }
    }

    fn sample_commit() -> CommitToken {
        CommitToken {
            ring: RingId::new(NodeId::new(0), 9),
            round: 1,
            entries: vec![
                MembEntry {
                    node: NodeId::new(0),
                    old_ring: RingId::new(NodeId::new(0), 8),
                    my_aru: Seq::new(55),
                    high_delivered: Seq::new(50),
                    received_flag: false,
                },
                MembEntry {
                    node: NodeId::new(1),
                    old_ring: RingId::new(NodeId::new(0), 8),
                    my_aru: Seq::new(60),
                    high_delivered: Seq::new(50),
                    received_flag: true,
                },
            ],
        }
    }

    #[test]
    fn join_roundtrip() {
        let pkt = Packet::Join(sample_join());
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn commit_roundtrip() {
        let pkt = Packet::Commit(sample_commit());
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn join_encoded_len_matches() {
        let j = sample_join();
        assert_eq!(Packet::Join(j.clone()).encode().len(), j.encoded_len() + 1);
    }

    #[test]
    fn commit_encoded_len_matches() {
        let c = sample_commit();
        assert_eq!(Packet::Commit(c.clone()).encode().len(), c.encoded_len() + 1);
    }

    #[test]
    fn commit_members_in_ring_order() {
        let c = sample_commit();
        let members: Vec<NodeId> = c.members().collect();
        assert_eq!(members, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn empty_sets_roundtrip() {
        let j =
            JoinMessage { sender: NodeId::new(0), ring_seq: 0, proc_set: vec![], fail_set: vec![] };
        let pkt = Packet::Join(j);
        assert_eq!(Packet::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn oversized_member_count_is_rejected() {
        let mut bytes = Vec::new();
        bytes.push(0x03); // join tag
        bytes.extend_from_slice(&0u16.to_be_bytes());
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&(MAX_MEMBERS as u32 + 1).to_be_bytes());
        assert!(matches!(Packet::decode(&bytes), Err(CodecError::BadLength { .. })));
    }
}
