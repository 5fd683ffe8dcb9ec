//! Top-level packet type and the broadcast data packet.
//!
//! Everything Totem puts on a wire is a [`Packet`]:
//!
//! * [`Packet::Data`] — a broadcast frame carrying one or more packed
//!   application-message chunks, stamped with a global sequence
//!   number.
//! * [`Packet::Token`] — the unicast regular token
//!   (see [`crate::token::Token`]).
//! * [`Packet::Join`] — a broadcast membership join message
//!   (see [`crate::membership::JoinMessage`]).
//! * [`Packet::Commit`] — the unicast commit token circulated while
//!   forming a new ring (see [`crate::membership::CommitToken`]).

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Reader, Writer};
use crate::frame::CHUNK_HEADER_LEN;
use crate::ids::{NodeId, RingId, Seq};
use crate::membership::{CommitToken, JoinMessage};
use crate::ring_paxos::RingPaxosMsg;
use crate::token::Token;

const TAG_DATA: u8 = 0x01;
const TAG_TOKEN: u8 = 0x02;
const TAG_JOIN: u8 = 0x03;
const TAG_COMMIT: u8 = 0x04;
const TAG_RING_PAXOS: u8 = 0x05;

/// What a [`Chunk`] inside a data packet contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChunkKind {
    /// A complete application message.
    Complete,
    /// The first fragment of a message longer than one frame.
    FragStart,
    /// A middle fragment.
    FragCont,
    /// The final fragment; delivery of the reassembled message becomes
    /// possible once all fragments are in order.
    FragEnd,
    /// An encapsulated data packet from an *old* ring, retransmitted
    /// during membership recovery. The chunk data is the encoded
    /// old-ring [`DataPacket`].
    Recovery,
}

impl ChunkKind {
    fn tag(self) -> u8 {
        match self {
            ChunkKind::Complete => 0,
            ChunkKind::FragStart => 1,
            ChunkKind::FragCont => 2,
            ChunkKind::FragEnd => 3,
            ChunkKind::Recovery => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => ChunkKind::Complete,
            1 => ChunkKind::FragStart,
            2 => ChunkKind::FragCont,
            3 => ChunkKind::FragEnd,
            4 => ChunkKind::Recovery,
            _ => return Err(CodecError::UnknownTag { what: "chunk kind", tag }),
        })
    }
}

/// One packed unit inside a [`DataPacket`]: a whole small message, a
/// fragment of a large one, or an encapsulated recovery packet.
///
/// On the wire each chunk costs [`CHUNK_HEADER_LEN`] bytes of
/// sub-header in addition to its payload; [`Chunk::wire_len`] accounts
/// for both.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chunk {
    /// What the chunk contains.
    pub kind: ChunkKind,
    /// Sender-local message identifier; fragments of the same message
    /// share it and are reassembled in sequence order.
    pub msg_id: u32,
    /// Total length of the original application message (equal to
    /// `data.len()` for [`ChunkKind::Complete`]).
    pub orig_len: u32,
    /// The chunk payload.
    pub data: Bytes,
}

impl Chunk {
    /// Creates a chunk holding a complete application message.
    pub fn complete(msg_id: u32, data: Bytes) -> Self {
        let orig_len = data.len() as u32;
        Chunk { kind: ChunkKind::Complete, msg_id, orig_len, data }
    }

    /// Bytes this chunk occupies inside a frame payload, including its
    /// sub-header.
    pub fn wire_len(&self) -> usize {
        CHUNK_HEADER_LEN + self.data.len()
    }

    fn encode(&self, w: &mut Writer) {
        w.u8(self.kind.tag());
        w.u8(0); // reserved flags byte, keeps the header at 12 bytes
        w.u16(self.data.len() as u16);
        w.u32(self.msg_id);
        w.u32(self.orig_len);
        w.raw(&self.data);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = ChunkKind::from_tag(r.u8()?)?;
        let _reserved = r.u8()?;
        let len = r.u16()? as usize;
        let msg_id = r.u32()?;
        let orig_len = r.u32()?;
        let data = r.raw_bytes(len)?;
        Ok(Chunk { kind, msg_id, orig_len, data })
    }
}

/// The chunk list of a [`DataPacket`]: a lone chunk — every fragment,
/// and every message over half a frame — is held inline, so such a
/// packet costs no list allocation; any other count is a `Vec`.
///
/// It reads as a `[Chunk]` slice; equality and `Debug` are the
/// slice's, so how a list was built never shows.
#[derive(Clone, Serialize, Deserialize)]
pub struct Chunks(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    One(Chunk),
    Many(Vec<Chunk>),
}

impl Chunks {
    /// Capacity of the heap-allocated list behind `self`: zero when
    /// nothing was allocated (a lone inline chunk, or no chunks).
    pub fn heap_capacity(&self) -> usize {
        match &self.0 {
            Repr::One(_) => 0,
            Repr::Many(v) => v.capacity(),
        }
    }
}

impl Default for Chunks {
    fn default() -> Self {
        Chunks(Repr::Many(Vec::new()))
    }
}

impl core::ops::Deref for Chunks {
    type Target = [Chunk];

    fn deref(&self) -> &[Chunk] {
        match &self.0 {
            Repr::One(c) => core::slice::from_ref(c),
            Repr::Many(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a Chunks {
    type Item = &'a Chunk;
    type IntoIter = core::slice::Iter<'a, Chunk>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Chunk> for Chunks {
    fn from(c: Chunk) -> Self {
        Chunks(Repr::One(c))
    }
}

impl From<Vec<Chunk>> for Chunks {
    fn from(v: Vec<Chunk>) -> Self {
        Chunks(Repr::Many(v))
    }
}

impl FromIterator<Chunk> for Chunks {
    /// A lone chunk is kept inline; a longer list is allocated once,
    /// at its final length when the iterator's lower bound is exact.
    fn from_iter<I: IntoIterator<Item = Chunk>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else { return Chunks::default() };
        let Some(second) = iter.next() else { return first.into() };
        let mut v = Vec::with_capacity(iter.size_hint().0.saturating_add(2));
        v.extend([first, second]);
        v.extend(iter);
        v.into()
    }
}

impl PartialEq for Chunks {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Chunks {}

impl core::fmt::Debug for Chunks {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A broadcast data frame: the unit of sequencing, retransmission and
/// ordering on the ring.
///
/// Each data packet carries exactly one global sequence number; the
/// message packer places several small application messages (or one
/// fragment of a large one) into a packet, so retransmission and
/// ordering always operate on whole packets, as in the Totem SRP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataPacket {
    /// The ring configuration this packet belongs to.
    pub ring: RingId,
    /// The packet's global sequence number on that ring.
    pub seq: Seq,
    /// The node that broadcast the packet.
    pub sender: NodeId,
    /// Packed application-message chunks.
    pub chunks: Chunks,
}

impl DataPacket {
    /// Payload bytes this packet occupies inside a frame (all chunks
    /// with their sub-headers).
    pub fn payload_len(&self) -> usize {
        self.chunks.iter().map(Chunk::wire_len).sum()
    }

    /// Sum of application-payload bytes carried (excluding all
    /// headers) — what the paper's "bandwidth (Kbytes/sec)" figures
    /// count.
    pub fn app_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.data.len()).sum()
    }
}

/// Any packet the Totem stack sends or receives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Packet {
    /// Broadcast data frame.
    Data(DataPacket),
    /// Unicast regular token.
    Token(Token),
    /// Broadcast membership join message.
    Join(JoinMessage),
    /// Unicast commit token.
    Commit(CommitToken),
    /// A Ring Paxos backend message (backend-tagged envelope; see
    /// [`crate::ring_paxos`]). Totem nodes never send or accept these.
    RingPaxos(RingPaxosMsg),
}

impl Packet {
    /// Returns `true` for token-class packets (regular and commit
    /// tokens), which the redundant-ring layer gates, and `false` for
    /// message-class packets, which it passes straight up (paper §5:
    /// "identical copies of messages are destroyed by the Totem SRP").
    pub fn is_token_class(&self) -> bool {
        matches!(self, Packet::Token(_) | Packet::Commit(_))
    }

    /// Encodes the packet to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_payload_len() + 16);
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encodes the packet into an existing writer (appended), so a
    /// pooled writer can serve many frames without reallocating.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            Packet::Data(d) => {
                w.u8(TAG_DATA);
                w.u16(d.ring.rep.as_u16());
                w.u64(d.ring.seq);
                w.u64(d.seq.as_u64());
                w.u16(d.sender.as_u16());
                w.u16(d.chunks.len() as u16);
                for c in &d.chunks {
                    c.encode(w);
                }
            }
            Packet::Token(t) => {
                w.u8(TAG_TOKEN);
                t.encode(w);
            }
            Packet::Join(j) => {
                w.u8(TAG_JOIN);
                j.encode(w);
            }
            Packet::Commit(c) => {
                w.u8(TAG_COMMIT);
                c.encode(w);
            }
            Packet::RingPaxos(m) => {
                w.u8(TAG_RING_PAXOS);
                m.encode(w);
            }
        }
    }

    /// Encodes the packet into a cheaply cloneable [`Bytes`] using a
    /// thread-local pooled [`Writer`], so the steady-state cost per
    /// frame is one shared allocation plus one copy — no per-call
    /// staging buffer. This is what [`crate::SharedPacket::encoded`]
    /// caches.
    pub fn encode_shared(&self) -> Bytes {
        thread_local! {
            static POOL: core::cell::RefCell<Writer> = core::cell::RefCell::new(Writer::new());
        }
        POOL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut w) => {
                w.clear();
                self.encode_into(&mut w);
                w.to_shared()
            }
            // Unreachable re-entrancy guard (encode never calls back
            // into the pool); fall back to a one-shot writer rather
            // than panicking in a protocol crate.
            Err(_) => {
                let mut w = Writer::with_capacity(self.wire_payload_len() + 16);
                self.encode_into(&mut w);
                w.to_shared()
            }
        })
    }

    /// Decodes a packet, requiring the buffer to contain exactly one
    /// packet. Payload bytes are copied out of the borrowed `buf`; see
    /// [`Packet::decode_shared`] for the zero-copy form.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, unknown tags,
    /// implausible lengths, or trailing bytes.
    ///
    /// # Example
    ///
    /// ```
    /// # use totem_wire::*;
    /// # fn main() -> Result<(), CodecError> {
    /// let join = JoinMessage {
    ///     sender: NodeId::new(2),
    ///     ring_seq: 5,
    ///     proc_set: vec![NodeId::new(0), NodeId::new(2)],
    ///     fail_set: vec![],
    /// };
    /// let bytes = Packet::Join(join.clone()).encode();
    /// assert_eq!(Packet::decode(&bytes)?, Packet::Join(join));
    /// # Ok(())
    /// # }
    /// ```
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        Self::decode_whole(Reader::new(buf))
    }

    /// Decodes a packet from an owning buffer without copying payload
    /// bytes: data-chunk payloads and Ring Paxos values of the result
    /// are `slice()`s of `buf`, so the packet shares — and keeps
    /// alive — `buf`'s allocation. Accepts, rejects and yields exactly
    /// what [`Packet::decode`] does on the same bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, unknown tags,
    /// implausible lengths, or trailing bytes.
    pub fn decode_shared(buf: &Bytes) -> Result<Self, CodecError> {
        Self::decode_whole(Reader::over(buf))
    }

    /// Exactly one packet, nothing after it.
    fn decode_whole(mut r: Reader<'_>) -> Result<Self, CodecError> {
        let pkt = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(pkt)
    }

    /// Decodes a packet from a reader, leaving any following bytes
    /// unconsumed (used for recovery chunks that embed packets).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, unknown tags or
    /// implausible lengths.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            TAG_DATA => {
                let ring = RingId::new(NodeId::new(r.u16()?), r.u64()?);
                let seq = Seq::new(r.u64()?);
                let sender = NodeId::new(r.u16()?);
                let n = r.u16()? as usize;
                // A lone chunk is held inline; a validating reader
                // keeps no chunks, so its list stays empty.
                let chunks = if n == 1 && r.keeps_payloads() {
                    Chunk::decode(r)?.into()
                } else {
                    r.list(n, 64, Chunk::decode)?.into()
                };
                Ok(Packet::Data(DataPacket { ring, seq, sender, chunks }))
            }
            TAG_TOKEN => Ok(Packet::Token(Token::decode(r)?)),
            TAG_JOIN => Ok(Packet::Join(JoinMessage::decode(r)?)),
            TAG_COMMIT => Ok(Packet::Commit(CommitToken::decode(r)?)),
            TAG_RING_PAXOS => Ok(Packet::RingPaxos(RingPaxosMsg::decode(r)?)),
            tag => Err(CodecError::UnknownTag { what: "packet", tag }),
        }
    }

    /// Payload bytes the packet contributes to a frame, used by the
    /// simulator's bandwidth accounting (the fixed per-frame header
    /// overhead is added separately via
    /// [`crate::frame::wire_frame_len`]).
    pub fn wire_payload_len(&self) -> usize {
        match self {
            Packet::Data(d) => d.payload_len(),
            // Control packets are small; model them as their encoded
            // size (they ride in their own frames).
            Packet::Token(t) => t.encoded_len(),
            Packet::Join(j) => j.encoded_len(),
            Packet::Commit(c) => c.encoded_len(),
            Packet::RingPaxos(m) => m.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data_packet() -> DataPacket {
        DataPacket {
            ring: RingId::new(NodeId::new(0), 3),
            seq: Seq::new(17),
            sender: NodeId::new(2),
            chunks: vec![
                Chunk::complete(9, Bytes::from_static(b"hello")),
                Chunk {
                    kind: ChunkKind::FragStart,
                    msg_id: 10,
                    orig_len: 5000,
                    data: Bytes::from(vec![0xAA; 1400]),
                },
            ]
            .into(),
        }
    }

    #[test]
    fn data_packet_roundtrip() {
        let pkt = Packet::Data(sample_data_packet());
        let bytes = pkt.encode();
        assert_eq!(Packet::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn token_class_predicate() {
        assert!(!Packet::Data(sample_data_packet()).is_token_class());
        let join =
            JoinMessage { sender: NodeId::new(0), ring_seq: 0, proc_set: vec![], fail_set: vec![] };
        assert!(!Packet::Join(join).is_token_class());
        let token = Token::initial(RingId::new(NodeId::new(0), 1));
        assert!(Packet::Token(token).is_token_class());
    }

    #[test]
    fn payload_len_counts_chunk_headers() {
        let d = sample_data_packet();
        assert_eq!(d.payload_len(), (12 + 5) + (12 + 1400));
        assert_eq!(d.app_bytes(), 5 + 1400);
    }

    #[test]
    fn decode_rejects_unknown_packet_tag() {
        assert!(matches!(
            Packet::decode(&[0xFF]),
            Err(CodecError::UnknownTag { what: "packet", tag: 0xFF })
        ));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = Packet::Data(sample_data_packet()).encode();
        bytes.push(0);
        assert!(matches!(Packet::decode(&bytes), Err(CodecError::TrailingBytes { remaining: 1 })));
    }

    #[test]
    fn decode_rejects_truncation_at_every_prefix() {
        let bytes = Packet::Data(sample_data_packet()).encode();
        for cut in 0..bytes.len() {
            assert!(
                Packet::decode(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn a_lone_chunk_compares_and_prints_alike_inline_or_listed() {
        let c = Chunk::complete(4, Bytes::from_static(b"lone"));
        let inline = Chunks::from(c.clone());
        let listed = Chunks::from(vec![c.clone()]);
        assert_eq!(inline, listed);
        assert_eq!(format!("{inline:?}"), format!("{listed:?}"));
        assert_eq!(format!("{inline:#?}"), format!("{:#?}", vec![c.clone()]));
        assert_eq!(inline.heap_capacity(), 0);
        assert_eq!(Chunks::from_iter([c.clone()]).heap_capacity(), 0);
        assert_ne!(inline, Chunks::from(vec![c.clone(), c]));
        assert_eq!(Chunks::default(), Chunks::from(Vec::new()));
    }

    #[test]
    fn chunk_wire_len_matches_header_plus_data() {
        let c = Chunk::complete(1, Bytes::from_static(b"abcd"));
        assert_eq!(c.wire_len(), CHUNK_HEADER_LEN + 4);
    }

    #[test]
    fn recovery_chunk_embeds_a_packet() {
        let inner = Packet::Data(sample_data_packet());
        let chunk = Chunk {
            kind: ChunkKind::Recovery,
            msg_id: 0,
            orig_len: 0,
            data: Bytes::from(inner.encode()),
        };
        let outer = Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(1), 4),
            seq: Seq::new(1),
            sender: NodeId::new(1),
            chunks: chunk.into(),
        });
        let decoded = Packet::decode(&outer.encode()).unwrap();
        if let Packet::Data(d) = decoded {
            assert_eq!(Packet::decode(&d.chunks[0].data).unwrap(), inner);
        } else {
            panic!("expected data packet");
        }
    }
}
