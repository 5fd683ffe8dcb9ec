//! A cheaply cloneable, encode-once packet handle.
//!
//! The data plane's hot path fans one frame out to many receivers
//! (every receiver on every redundant network) and keeps further
//! copies in the sender's retransmission window. Deep-cloning the
//! [`Packet`] for each of those — and re-encoding it for every
//! transmission — made the simulator allocation-bound at
//! O(nodes × networks) allocations per broadcast.
//!
//! [`SharedPacket`] fixes both costs structurally:
//!
//! * **Share-everywhere** — the packet lives behind an [`Arc`], so
//!   every fan-out copy, window entry and retransmission is a
//!   refcount bump.
//! * **Encode-once** — the wire encoding is computed lazily, at most
//!   once per packet, through a [`OnceLock`]`<Bytes>`, via the pooled
//!   writer in [`Packet::encode_shared`]. Retransmissions,
//!   recovery encapsulation and every redundant network's copy reuse
//!   the same immutable buffer. A packet that arrived off the wire
//!   can seed the cache with the bytes it was decoded from
//!   ([`SharedPacket::from_wire`]), making its re-encoding free.
//!
//! The handle is immutable to everyone it is shared with: protocol
//! state machines construct a [`Packet`], seal it into a
//! `SharedPacket`, and from then on only read it. Mutation requires
//! [`SharedPacket::into_packet`], which clones only when the handle is
//! actually shared — or, for the one packet that is rewritten at every
//! hop, [`SharedPacket::token_mut`], which updates a unique handle in
//! place. A shared token handle (the simulator hands one to every
//! holder) is not cloned either: the visit rewrites the node's own
//! retired token cell, and only a node with no unique spare (a
//! singleton ring, whose spare is the arriving handle) allocates.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::ids::NetworkId;
use crate::packet::{DataPacket, Packet};
use crate::token::Token;

/// The shared interior: the decoded packet plus its lazily computed
/// wire encoding.
#[derive(Debug)]
struct PacketCell {
    pkt: Packet,
    encoded: OnceLock<Bytes>,
}

/// A reference-counted [`Packet`] with a cached wire encoding.
///
/// Cloning is a refcount bump; [`SharedPacket::encoded`] encodes at
/// most once. See the module docs for the ownership model.
///
/// # Example
///
/// ```
/// # use totem_wire::*;
/// let token = Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1)));
/// let shared = SharedPacket::new(token.clone());
/// let copy = shared.clone(); // refcount bump, no deep clone
/// assert_eq!(*copy.encoded(), *shared.encoded()); // encoded once, shared
/// assert_eq!(copy.into_packet(), token);
/// ```
#[derive(Clone, Debug)]
pub struct SharedPacket {
    cell: Arc<PacketCell>,
}

impl SharedPacket {
    /// Seals `pkt` into a shared handle (no encoding happens yet).
    pub fn new(pkt: Packet) -> Self {
        SharedPacket { cell: Arc::new(PacketCell { pkt, encoded: OnceLock::new() }) }
    }

    /// Seals a packet that was just decoded from `wire`, seeding the
    /// encoding cache with the bytes it came from so re-encoding it
    /// (retransmission, recovery encapsulation) never runs the
    /// encoder.
    pub fn from_wire(pkt: Packet, wire: Bytes) -> Self {
        let encoded = OnceLock::new();
        // A freshly created lock with no other handles: set cannot
        // race, and an Err would only mean a value is already cached,
        // which is harmless.
        let _ = encoded.set(wire);
        SharedPacket { cell: Arc::new(PacketCell { pkt, encoded }) }
    }

    /// Decodes a raw datagram and seals it with its own bytes seeding
    /// the encoding cache — the one-call receive path for transports
    /// that hand out [`Bytes`] frames (re-encoding a relayed frame is
    /// then free). Decoding is zero-copy ([`Packet::decode_shared`]):
    /// the packet's payloads, its cached encoding and `wire` are all
    /// views of one allocation.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`CodecError`](crate::CodecError) for a
    /// malformed datagram.
    pub fn from_datagram(wire: Bytes) -> Result<Self, crate::CodecError> {
        let pkt = Packet::decode_shared(&wire)?;
        Ok(SharedPacket::from_wire(pkt, wire))
    }

    /// The decoded packet.
    pub fn packet(&self) -> &Packet {
        &self.cell.pkt
    }

    /// The packet's wire encoding, computed at most once per packet
    /// and shared by every clone of this handle.
    pub fn encoded(&self) -> &Bytes {
        self.cell.encoded.get_or_init(|| self.cell.pkt.encode_shared())
    }

    /// Extracts the packet, cloning only if the handle is shared.
    pub fn into_packet(self) -> Packet {
        match Arc::try_unwrap(self.cell) {
            Ok(cell) => cell.pkt,
            Err(arc) => arc.pkt.clone(),
        }
    }

    /// The data packet inside, if this is a data frame.
    pub fn data(&self) -> Option<&DataPacket> {
        match &self.cell.pkt {
            Packet::Data(d) => Some(d),
            Packet::Token(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
        }
    }

    /// Extracts an owned regular token, if this is a token frame
    /// (cloning only if the handle is shared).
    pub fn into_token(self) -> Option<Token> {
        match self.into_packet() {
            Packet::Token(t) => Some(t),
            Packet::Data(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
        }
    }

    /// The regular token inside, if this is a token frame.
    pub fn token(&self) -> Option<&Token> {
        match &self.cell.pkt {
            Packet::Token(t) => Some(t),
            Packet::Data(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
        }
    }

    /// Mutable access to the regular token inside, for updating it in
    /// place between two hops; `None` (and the handle untouched) for
    /// any other packet class.
    ///
    /// The handle is made unique first. That is free when it already
    /// is — the receive path, where one handle carries the token from
    /// the datagram it was decoded from to the frame it is forwarded
    /// in. When it is shared (the simulator, where the sender's
    /// retransmission copy and every network's copy are the same
    /// handle), the token is copied into `spare` — the node's own
    /// retired token — if this is the only handle on that one
    /// ([`Token::clone_from`] keeps its `rtr` capacity), and into a
    /// fresh handle otherwise. Either way the cached encoding describes
    /// another token, so it is dropped.
    pub fn token_mut(&mut self, spare: Option<SharedPacket>) -> Option<&mut Token> {
        self.token()?;
        if Arc::get_mut(&mut self.cell).is_none() {
            let rewritten = spare.and_then(|mut spare| {
                let cell = Arc::get_mut(&mut spare.cell)?;
                let (Packet::Token(dst), Packet::Token(src)) = (&mut cell.pkt, &self.cell.pkt)
                else {
                    return None;
                };
                dst.clone_from(src);
                Some(spare)
            });
            *self = rewritten.unwrap_or_else(|| SharedPacket::new(self.cell.pkt.clone()));
        }
        let cell = Arc::get_mut(&mut self.cell)?;
        cell.encoded = OnceLock::new();
        match &mut cell.pkt {
            Packet::Token(t) => Some(t),
            Packet::Data(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
        }
    }
}

impl std::ops::Deref for SharedPacket {
    type Target = Packet;
    fn deref(&self) -> &Packet {
        &self.cell.pkt
    }
}

impl From<Packet> for SharedPacket {
    fn from(pkt: Packet) -> Self {
        SharedPacket::new(pkt)
    }
}

impl From<DataPacket> for SharedPacket {
    fn from(d: DataPacket) -> Self {
        SharedPacket::new(Packet::Data(d))
    }
}

impl PartialEq for SharedPacket {
    fn eq(&self, other: &SharedPacket) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell) || self.cell.pkt == other.cell.pkt
    }
}
impl Eq for SharedPacket {}

impl PartialEq<Packet> for SharedPacket {
    fn eq(&self, other: &Packet) -> bool {
        self.cell.pkt == *other
    }
}

/// A frame travelling on (or delivered from) one specific network:
/// the unit the redundant-ring layer reasons about.
pub type NetFrame = (NetworkId, SharedPacket);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InstanceId, NodeId, RingId, Seq};
    use crate::packet::{Chunk, ChunkKind};
    use crate::ring_paxos::{Proposal, RingPaxosMsg};
    use crate::token::MAX_RTR;

    fn data(seq: u64) -> Packet {
        Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(seq),
            sender: NodeId::new(2),
            chunks: Chunk::complete(1, Bytes::from_static(b"payload")).into(),
        })
    }

    #[test]
    fn encoded_is_cached_and_identical_across_clones() {
        let shared = SharedPacket::new(data(7));
        let copy = shared.clone();
        let a = shared.encoded().clone();
        let b = copy.encoded().clone();
        assert_eq!(a, b);
        // Same underlying buffer: both views start at the same address.
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
        // And it matches the one-shot encoder.
        assert_eq!(a.as_ref(), shared.packet().encode().as_slice());
    }

    #[test]
    fn from_wire_seeds_the_cache() {
        let pkt = data(9);
        let wire = Bytes::from(pkt.encode());
        let shared = SharedPacket::from_wire(pkt, wire.clone());
        assert_eq!(shared.encoded().as_ref().as_ptr(), wire.as_ref().as_ptr());
    }

    /// `inner` is a view into `outer`'s allocation, not a copy.
    fn aliases(outer: &Bytes, inner: &Bytes) -> bool {
        let (lo, hi) = (outer.as_ptr() as usize, outer.as_ptr() as usize + outer.len());
        let at = inner.as_ptr() as usize;
        lo <= at && at + inner.len() <= hi
    }

    #[test]
    fn from_datagram_payloads_alias_the_datagram() {
        let old_ring = DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(4),
            sender: NodeId::new(1),
            chunks: vec![
                Chunk::complete(1, Bytes::from_static(b"carried over")),
                Chunk::complete(2, Bytes::from_static(b"from the old ring")),
            ]
            .into(),
        };
        let recovery = Chunk {
            kind: ChunkKind::Recovery,
            msg_id: 0,
            orig_len: 0,
            data: Packet::Data(old_ring.clone()).encode_shared(),
        };
        let outer = Packet::Data(DataPacket {
            ring: RingId::new(NodeId::new(0), 2),
            seq: Seq::new(1),
            sender: NodeId::new(0),
            chunks: vec![Chunk::complete(7, Bytes::from_static(b"fresh")), recovery].into(),
        });
        let wire = outer.encode_shared();

        let shared = SharedPacket::from_datagram(wire.clone()).unwrap();
        assert_eq!(shared, outer);
        assert_eq!(shared.encoded().as_ptr(), wire.as_ptr());
        let chunks = &shared.data().unwrap().chunks;
        assert!(chunks.iter().all(|c| aliases(&wire, &c.data)));

        // Decapsulating the recovery chunk (what the SRP recovery path
        // does) stays inside the same datagram.
        let Ok(Packet::Data(inner)) = Packet::decode_shared(&chunks[1].data) else {
            panic!("recovery chunk carries a data packet");
        };
        assert_eq!(inner, old_ring);
        assert!(inner.chunks.iter().all(|c| aliases(&wire, &c.data)));

        // The borrowing entry still hands out independent copies.
        let Ok(Packet::Data(copied)) = Packet::decode(&wire) else { panic!("data packet") };
        assert!(copied.chunks.iter().all(|c| !aliases(&wire, &c.data)));
    }

    #[test]
    fn from_datagram_ring_paxos_values_alias_the_datagram() {
        let value = Proposal {
            sender: NodeId::new(3),
            inc: 1,
            req: 9,
            payload: Bytes::from_static(b"decided value"),
        };
        let wire = Packet::RingPaxos(RingPaxosMsg::Decision {
            iid: InstanceId::new(5),
            nop: false,
            value,
        })
        .encode_shared();
        let shared = SharedPacket::from_datagram(wire.clone()).unwrap();
        let Packet::RingPaxos(RingPaxosMsg::Decision { value, .. }) = shared.packet() else {
            panic!("decision");
        };
        assert_eq!(value.payload.as_ref(), b"decided value");
        assert!(aliases(&wire, &value.payload));
    }

    #[test]
    fn into_packet_avoids_clone_when_unique() {
        let shared = SharedPacket::new(data(1));
        assert_eq!(shared.into_packet(), data(1));
        let shared = SharedPacket::new(data(2));
        let _held = shared.clone();
        assert_eq!(shared.into_packet(), data(2)); // clones, still correct
    }

    #[test]
    fn token_mut_updates_a_unique_handle_in_place_and_drops_its_encoding() {
        let wire = Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))).encode_shared();
        let mut shared = SharedPacket::from_datagram(wire.clone()).unwrap();
        let cell = Arc::as_ptr(&shared.cell);
        shared.token_mut(None).unwrap().seq = Seq::new(9);
        assert_eq!(Arc::as_ptr(&shared.cell), cell, "a unique handle is reused");
        assert_eq!(shared.token().unwrap().seq, Seq::new(9));
        // The encoding is recomputed from the updated token.
        assert_ne!(*shared.encoded(), wire);
        assert_eq!(shared.encoded().as_ref(), shared.packet().encode().as_slice());
    }

    #[test]
    fn token_mut_leaves_other_holders_of_a_shared_handle_alone() {
        let original =
            SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        let sent = original.encoded().clone();
        let mut mine = original.clone();
        mine.token_mut(None).unwrap().seq = Seq::new(9);
        assert_eq!(original.token().unwrap().seq, Seq::ZERO);
        assert_eq!(*original.encoded(), sent);
        assert_eq!(mine.token().unwrap().seq, Seq::new(9));
        assert!(SharedPacket::new(data(1)).token_mut(None).is_none());
    }

    #[test]
    fn token_mut_rewrites_a_unique_spare_instead_of_cloning() {
        let ring = RingId::new(NodeId::new(0), 1);
        let mut arrived = Token::initial(ring);
        arrived.seq = Seq::new(40);
        arrived.rtr = vec![Seq::new(38)];
        let original = SharedPacket::new(Packet::Token(arrived.clone()));
        let sent = original.encoded().clone();

        // The node's retired token: unique, encoded, with rtr room.
        let mut old = Token::initial(ring);
        old.rtr.reserve(MAX_RTR);
        let rtr_buf = old.rtr.as_ptr();
        let spare = SharedPacket::new(Packet::Token(old));
        spare.encoded();
        let spare_cell = Arc::as_ptr(&spare.cell);

        let mut mine = original.clone();
        mine.token_mut(Some(spare)).unwrap().aru = Seq::new(39);
        assert_eq!(Arc::as_ptr(&mine.cell), spare_cell, "the spare cell is reused");
        assert_eq!(mine.token().unwrap().rtr.as_ptr(), rtr_buf, "rtr keeps its buffer");
        assert_eq!(mine.token().unwrap().seq, Seq::new(40));
        assert_eq!(mine.token().unwrap().rtr, [Seq::new(38)]);
        assert_eq!(mine.encoded().as_ref(), mine.packet().encode().as_slice());
        // The other holders still see the token as it arrived.
        assert_eq!(*original.token().unwrap(), arrived);
        assert_eq!(*original.encoded(), sent);

        // A spare someone else still holds is not written to, and
        // neither is one that is no token: the fallback is a fresh
        // handle around a clone.
        let held = SharedPacket::new(Packet::Token(Token::initial(ring)));
        for spare in [held.clone(), SharedPacket::new(data(1))] {
            let mut mine = original.clone();
            mine.token_mut(Some(spare)).unwrap().aru = Seq::new(39);
            assert!(!Arc::ptr_eq(&mine.cell, &held.cell));
            assert!(!Arc::ptr_eq(&mine.cell, &original.cell));
            assert_eq!(mine.token().unwrap().seq, Seq::new(40));
            assert_eq!(mine.token().unwrap().aru, Seq::new(39));
        }
        assert_eq!(*held.token().unwrap(), Token::initial(ring));
        assert_eq!(*original.token().unwrap(), arrived);
    }

    #[test]
    fn accessors_discriminate_packet_classes() {
        let d = SharedPacket::new(data(3));
        assert!(d.data().is_some());
        assert!(d.clone().into_token().is_none());
        let t = SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        assert!(t.data().is_none());
        assert!(t.is_token_class()); // Deref to Packet
        assert!(t.into_token().is_some());
    }

    #[test]
    fn equality_compares_contents() {
        assert_eq!(SharedPacket::new(data(4)), SharedPacket::new(data(4)));
        assert_ne!(SharedPacket::new(data(4)), SharedPacket::new(data(5)));
        assert_eq!(SharedPacket::new(data(4)), data(4));
    }
}
