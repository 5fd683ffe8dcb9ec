//! A cheaply cloneable, encode-once packet handle, and the free list
//! its cells are recycled through.
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
//! holder) is not cloned either: the visit rewrites a token cell the
//! node recycled.
//!
//! **Recycled cells.** A node hands the cells it has finished with —
//! the frames its window discards, the token it no longer
//! retransmits — to its [`CellPool`], a free list bounded by the
//! caller. A cell goes in only when no other handle holds it, and
//! keeps no payload there: its chunk views and cached encoding are
//! dropped, so it pins no datagram, while its lists keep their
//! capacity. Decoding a datagram ([`CellPool::decode`]), sealing a
//! data packet ([`CellPool::data`]) and rewriting a shared token
//! ([`SharedPacket::token_mut`]) fill a recycled cell before they
//! allocate one. A cell keeps one more thing: the buffer it was last
//! sent in, when its own node encoded it, which the next packet the
//! node originates or forwards in that cell is encoded into when
//! nobody else still holds it ([`SharedPacket::encode_into_spare`]).
//! Bytes that arrived off the wire are never kept: they belong to the
//! transport's receive batch. The pool is not protocol state; which
//! cell a packet lives in never shows.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::codec::CodecError;
use crate::ids::NetworkId;
use crate::packet::{Chunk, DataPacket, Lists, Packet};
use crate::token::Token;

/// The shared interior: the decoded packet plus its lazily computed
/// wire encoding.
struct PacketCell {
    pkt: Packet,
    encoded: OnceLock<Bytes>,
    /// Whether `encoded` holds the bytes the packet was decoded from
    /// rather than an encoding this node made: a buffer the transport
    /// lent, which a recycled cell must not keep.
    received: bool,
    /// The buffer a recycled cell was last sent in, kept for its next
    /// encoding to overwrite ([`SharedPacket::encode_into_spare`]).
    spare_wire: Option<Bytes>,
}

/// The packet and its encoding only: the spare buffer is recycling
/// state, so a packet prints the same whichever cell it lives in.
impl std::fmt::Debug for PacketCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketCell")
            .field("pkt", &self.pkt)
            .field("encoded", &self.encoded)
            .finish()
    }
}

impl PacketCell {
    /// A cell for `pkt`; an `encoded` filled already holds the bytes
    /// it was decoded from.
    fn new(pkt: Packet, encoded: OnceLock<Bytes>) -> Arc<Self> {
        let received = encoded.get().is_some();
        Arc::new(PacketCell { pkt, encoded, received, spare_wire: None })
    }
}

/// Puts `pkt` into `spare` — a recycled cell, which keeps its spare
/// wire buffer — or, without one, into a fresh cell.
fn seal_in(spare: Option<Arc<PacketCell>>, pkt: Packet, encoded: OnceLock<Bytes>) -> SharedPacket {
    if let Some(mut arc) = spare {
        if let Some(cell) = Arc::get_mut(&mut arc) {
            cell.pkt = pkt;
            cell.received = encoded.get().is_some();
            cell.encoded = encoded;
            return SharedPacket { cell: arc };
        }
    }
    SharedPacket { cell: PacketCell::new(pkt, encoded) }
}

/// Decodes `wire` into `spare` (its lists refilled) or a fresh cell,
/// seeding the encoding cache with `wire`. On a malformed datagram the
/// spare comes back with the error, emptied.
fn decode_in(
    mut spare: Option<Arc<PacketCell>>,
    wire: Bytes,
) -> Result<SharedPacket, (CodecError, Option<Arc<PacketCell>>)> {
    let lists = spare
        .as_mut()
        .and_then(Arc::get_mut)
        .map_or_else(Lists::default, |cell| cell.pkt.take_lists());
    match Packet::decode_shared_reusing(&wire, lists) {
        Ok(pkt) => Ok(seal_in(spare, pkt, OnceLock::from(wire))),
        Err(e) => Err((e, spare)),
    }
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
        SharedPacket { cell: PacketCell::new(pkt, OnceLock::new()) }
    }

    /// Seals a packet that was just decoded from `wire`, seeding the
    /// encoding cache with the bytes it came from so re-encoding it
    /// (retransmission, recovery encapsulation) never runs the
    /// encoder.
    pub fn from_wire(pkt: Packet, wire: Bytes) -> Self {
        SharedPacket { cell: PacketCell::new(pkt, OnceLock::from(wire)) }
    }

    /// Decodes a raw datagram and seals it with its own bytes seeding
    /// the encoding cache — the one-call receive path for transports
    /// that hand out [`Bytes`] frames (re-encoding a relayed frame is
    /// then free). Decoding is zero-copy ([`Packet::decode_shared`]):
    /// the packet's payloads, its cached encoding and `wire` are all
    /// views of one allocation. [`CellPool::decode`] is the same
    /// decode into a recycled cell.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`CodecError`] for a malformed datagram.
    pub fn from_datagram(wire: Bytes) -> Result<Self, CodecError> {
        decode_in(None, wire).map_err(|(e, _)| e)
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

    /// Encodes the packet now, into the buffer its recycled cell was
    /// last sent in, when this is the only handle on the cell, nothing
    /// is cached yet, no other handle still reads that buffer (the
    /// transport is done with it) and it has room — so a token
    /// forwarded, or a data frame originated, in a recycled cell
    /// allocates nothing for its wire bytes. Otherwise nothing changes
    /// but that the spare buffer is let go, and
    /// [`SharedPacket::encoded`] encodes on first use as ever.
    pub fn encode_into_spare(&mut self) {
        let Some(cell) = Arc::get_mut(&mut self.cell) else { return };
        let Some(mut wire) = cell.spare_wire.take() else { return };
        if cell.encoded.get().is_none()
            && cell.pkt.with_encoding(|w| wire.try_overwrite(w.as_slice()))
        {
            cell.encoded = OnceLock::from(wire);
        }
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
    /// handle), the token is copied into a token cell recycled in
    /// `cells` ([`Token::clone_from`] keeps its `rtr` capacity), and
    /// into a fresh cell when there is none. Either way the cached
    /// encoding describes another token, so it is dropped.
    pub fn token_mut(&mut self, cells: &mut CellPool) -> Option<&mut Token> {
        self.token()?;
        if Arc::get_mut(&mut self.cell).is_none() {
            let copy = cells.take(true).and_then(|mut spare| {
                let (Some(PacketCell { pkt: Packet::Token(dst), .. }), Packet::Token(src)) =
                    (Arc::get_mut(&mut spare), &self.cell.pkt)
                else {
                    return None;
                };
                dst.clone_from(src);
                Some(spare)
            });
            *self = match copy {
                Some(cell) => SharedPacket { cell },
                None => SharedPacket::new(self.cell.pkt.clone()),
            };
        }
        let cell = Arc::get_mut(&mut self.cell)?;
        cell.encoded = OnceLock::new();
        cell.received = false;
        match &mut cell.pkt {
            Packet::Token(t) => Some(t),
            Packet::Data(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => None,
        }
    }
}

/// A bounded free list of the packet cells one node has finished with
/// (see the [module docs](self)): data cells, and one token cell — a
/// node decodes or rewrites one token per visit and retires one, so a
/// second would only wait. Every cell in it is one no other handle
/// shares; there are at most `bound` of them, and what does not fit is
/// dropped.
///
/// # Example
///
/// ```
/// # use totem_wire::*;
/// # use bytes::Bytes;
/// let frame = |seq| {
///     Packet::Data(DataPacket {
///         ring: RingId::new(NodeId::new(0), 1),
///         seq: Seq::new(seq),
///         sender: NodeId::new(1),
///         chunks: vec![Chunk::complete(1, Bytes::from_static(b"ab")); 3].into(),
///     })
///     .encode_shared()
/// };
/// let mut cells = CellPool::new(4);
/// let first = cells.decode(frame(1))?;
/// cells.recycle(first); // nobody else holds it: kept, payload dropped
/// assert_eq!(cells.len(), 1);
/// let second = cells.decode(frame(2))?; // refills that cell
/// assert_eq!((cells.len(), cells.reused()), (0, 1));
/// assert_eq!(second.data().map(|d| d.seq), Some(Seq::new(2)));
/// # Ok::<(), CodecError>(())
/// ```
#[derive(Debug, Default)]
pub struct CellPool {
    /// Recycled data cells, the most recent last.
    data: Vec<Arc<PacketCell>>,
    token: Option<Arc<PacketCell>>,
    bound: usize,
    reused: u64,
}

impl CellPool {
    /// An empty pool that keeps at most `bound` cells.
    pub fn new(bound: usize) -> Self {
        CellPool { bound, ..CellPool::default() }
    }

    /// Cells held now.
    pub fn len(&self) -> usize {
        self.data.len() + usize::from(self.token.is_some())
    }

    /// Whether no cell is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most cells the pool keeps.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// How many times a cell was handed out again.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Keeps `pkt`'s cell for reuse if it is a data frame or a token,
    /// no other handle holds it, and the pool has room (for a token:
    /// holds no token cell yet); drops the handle otherwise. A kept
    /// cell gives up its chunk views and its cached encoding — which it
    /// keeps as the buffer its next packet is written into when this
    /// node encoded it and no other handle still reads it. Bytes that
    /// arrived off the wire are the transport's, and are let go.
    pub fn recycle(&mut self, pkt: SharedPacket) {
        let mut arc = pkt.cell;
        if self.len() >= self.bound {
            return;
        }
        let Some(cell) = Arc::get_mut(&mut arc) else { return };
        let token = match &mut cell.pkt {
            Packet::Data(d) => {
                d.chunks = d.chunks.take_list().into();
                false
            }
            Packet::Token(_) if self.token.is_none() => true,
            Packet::Token(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => return,
        };
        let own = !cell.received;
        if let Some(wire) = cell.encoded.take().filter(|w| own && w.is_unique()) {
            cell.spare_wire = Some(wire);
        }
        if token {
            self.token = Some(arc);
        } else {
            self.data.push(arc);
        }
    }

    /// Takes the recycled token cell (`token`) or the most recently
    /// recycled data cell (otherwise).
    fn take(&mut self, token: bool) -> Option<Arc<PacketCell>> {
        let cell = if token { self.token.take() } else { self.data.pop() };
        self.reused += u64::from(cell.is_some());
        cell
    }

    /// Puts back a cell [`CellPool::take`] handed out.
    fn put_back(&mut self, cell: Arc<PacketCell>) {
        match cell.pkt {
            Packet::Token(_) => self.token = Some(cell),
            Packet::Data(_) | Packet::Join(_) | Packet::Commit(_) | Packet::RingPaxos(_) => {
                self.data.push(cell);
            }
        }
    }

    /// [`SharedPacket::from_datagram`], into a recycled cell of the
    /// datagram's class when there is one: its lists are refilled, so
    /// a token or a data frame whose list fits decodes without
    /// allocating. A malformed datagram leaves the cell in the pool.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`CodecError`] for a malformed datagram.
    pub fn decode(&mut self, wire: Bytes) -> Result<SharedPacket, CodecError> {
        let spare = Packet::recycled_class(&wire).and_then(|token| self.take(token));
        decode_in(spare, wire).map_err(|(e, spare)| {
            if let Some(cell) = spare {
                self.put_back(cell);
            }
            e
        })
    }

    /// Seals the data packet `build` makes into a recycled data cell
    /// when there is one. `build` gets that cell's chunk list, empty
    /// with its capacity kept (an empty `Vec` without one), to fill —
    /// see [`crate::Chunks::refill`]. When `build` declines, the cell
    /// goes back to the pool.
    pub fn data(
        &mut self,
        build: impl FnOnce(Vec<Chunk>) -> Option<DataPacket>,
    ) -> Option<SharedPacket> {
        let mut spare = self.take(false);
        let list = spare
            .as_mut()
            .and_then(Arc::get_mut)
            .map_or_else(Vec::new, |cell| cell.pkt.take_lists().chunks);
        match build(list) {
            Some(d) => Some(seal_in(spare, Packet::Data(d), OnceLock::new())),
            None => {
                if let Some(cell) = spare {
                    self.put_back(cell);
                }
                None
            }
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
    use crate::membership::JoinMessage;
    use crate::packet::ChunkKind;
    use crate::ring_paxos::{Proposal, RingPaxosMsg};
    use crate::token::MAX_RTR;

    fn data_chunk() -> Chunk {
        Chunk::complete(1, Bytes::from_static(b"payload"))
    }

    fn data_packet(seq: u64) -> DataPacket {
        DataPacket {
            ring: RingId::new(NodeId::new(0), 1),
            seq: Seq::new(seq),
            sender: NodeId::new(2),
            chunks: data_chunk().into(),
        }
    }

    fn data(seq: u64) -> Packet {
        Packet::Data(data_packet(seq))
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
        shared.token_mut(&mut CellPool::new(4)).unwrap().seq = Seq::new(9);
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
        mine.token_mut(&mut CellPool::default()).unwrap().seq = Seq::new(9);
        assert_eq!(original.token().unwrap().seq, Seq::ZERO);
        assert_eq!(*original.encoded(), sent);
        assert_eq!(mine.token().unwrap().seq, Seq::new(9));
        assert!(SharedPacket::new(data(1)).token_mut(&mut CellPool::default()).is_none());
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
        let retired = SharedPacket::new(Packet::Token(old));
        retired.encoded();
        let retired_cell = Arc::as_ptr(&retired.cell);
        let mut cells = CellPool::new(4);
        cells.recycle(SharedPacket::new(data(1)));
        cells.recycle(retired);

        let mut mine = original.clone();
        mine.token_mut(&mut cells).unwrap().aru = Seq::new(39);
        assert_eq!(Arc::as_ptr(&mine.cell), retired_cell, "the token cell is reused");
        assert_eq!((cells.len(), cells.reused()), (1, 1), "the data cell stays");
        assert_eq!(mine.token().unwrap().rtr.as_ptr(), rtr_buf, "rtr keeps its buffer");
        assert_eq!(mine.token().unwrap().seq, Seq::new(40));
        assert_eq!(mine.token().unwrap().rtr, [Seq::new(38)]);
        assert_eq!(mine.encoded().as_ref(), mine.packet().encode().as_slice());
        // The other holders still see the token as it arrived.
        assert_eq!(*original.token().unwrap(), arrived);
        assert_eq!(*original.encoded(), sent);

        // Without a token cell to rewrite, the fallback is a fresh
        // handle around a clone.
        let mut mine = original.clone();
        mine.token_mut(&mut cells).unwrap().aru = Seq::new(39);
        assert!(!Arc::ptr_eq(&mine.cell, &original.cell));
        assert_eq!(mine.token().unwrap().aru, Seq::new(39));
        assert_eq!(*original.token().unwrap(), arrived);
    }

    #[test]
    fn a_recycled_cell_keeps_no_payload_and_pins_no_datagram() {
        let wire = Packet::Data(DataPacket {
            chunks: vec![Chunk::complete(1, Bytes::from_static(b"ab")); 3].into(),
            ..data_packet(1)
        })
        .encode_shared();
        let mut cells = CellPool::new(2);
        let pkt = cells.decode(wire.clone()).unwrap();
        let held = pkt.clone();
        cells.recycle(pkt);
        assert!(cells.is_empty(), "a cell another handle holds is not kept");
        assert!(!wire.is_unique());
        drop(held);

        let pkt = cells.decode(wire.clone()).unwrap();
        let list = pkt.data().unwrap().chunks.as_ptr();
        cells.recycle(pkt);
        assert_eq!(cells.len(), 1);
        assert!(wire.is_unique(), "neither its chunks nor its encoding view the datagram");
        let again = cells.decode(wire.clone()).unwrap();
        assert_eq!(again.data().unwrap().chunks.as_ptr(), list, "the list is refilled");
        assert_eq!(again, SharedPacket::from_datagram(wire.clone()).unwrap());
        assert_eq!(again.encoded().as_ptr(), wire.as_ptr());
    }

    #[test]
    fn a_malformed_datagram_leaves_the_cell_in_the_pool() {
        let mut cells = CellPool::new(2);
        cells.recycle(SharedPacket::new(data(1)));
        let wire = Packet::Data(DataPacket { seq: Seq::new(2), ..data_packet(1) }).encode_shared();
        let cut = wire.slice(..wire.len() - 1);
        assert_eq!(cells.decode(cut.clone()), Err(SharedPacket::from_datagram(cut).unwrap_err()));
        assert_eq!((cells.len(), cells.reused()), (1, 1));
        assert_eq!(cells.decode(wire.clone()).unwrap(), Packet::decode(&wire).unwrap());
        assert!(cells.is_empty());
    }

    #[test]
    fn the_pool_keeps_at_most_its_bound_and_only_data_and_tokens() {
        let mut cells = CellPool::new(2);
        for seq in 1..5 {
            cells.recycle(SharedPacket::new(data(seq)));
        }
        assert_eq!(cells.len(), 2);
        let mut cells = CellPool::new(2);
        let join = JoinMessage {
            sender: NodeId::new(0),
            ring_seq: 1,
            proc_set: vec![NodeId::new(0)],
            fail_set: vec![],
        };
        cells.recycle(SharedPacket::new(Packet::Join(join)));
        assert!(cells.is_empty());
        // One token cell is all a node needs.
        let token =
            || SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        cells.recycle(token());
        cells.recycle(token());
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn data_fills_a_recycled_list() {
        let mut cells = CellPool::new(2);
        let three = SharedPacket::new(Packet::Data(DataPacket {
            chunks: vec![Chunk::complete(1, Bytes::from_static(b"ab")); 3].into(),
            ..data_packet(1)
        }));
        let list = three.data().unwrap().chunks.as_ptr();
        cells.recycle(three);
        let two = cells
            .data(|spare| {
                assert!(spare.is_empty() && spare.capacity() >= 3);
                let chunks = crate::Chunks::refill(spare, vec![data_chunk(); 2]);
                Some(DataPacket { chunks, ..data_packet(2) })
            })
            .unwrap();
        assert_eq!(two.data().unwrap().chunks.as_ptr(), list);
        assert_eq!(two.data().unwrap().chunks.len(), 2);
        // A builder that declines hands the cell back.
        cells.recycle(two);
        assert!(cells.data(|_| None).is_none());
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn a_recycled_token_is_encoded_into_the_buffer_it_was_sent_in() {
        let ring = RingId::new(NodeId::new(0), 1);
        let sent = SharedPacket::new(Packet::Token(Token::initial(ring)));
        let wire = sent.encoded().as_ptr();
        let mut cells = CellPool::new(2);
        cells.recycle(sent);
        let arriving = SharedPacket::new(Packet::Token(Token::initial(ring)));
        let mut next = arriving.clone();
        next.token_mut(&mut cells).unwrap().seq = Seq::new(3);
        next.encode_into_spare();
        assert_eq!(next.encoded().as_ptr(), wire, "the old buffer, rewritten");
        assert_eq!(next.encoded().as_ref(), next.packet().encode().as_slice());

        // A buffer some other handle still reads is left alone.
        let sent = SharedPacket::new(Packet::Token(Token::initial(ring)));
        let in_flight = sent.encoded().clone();
        cells.recycle(sent);
        let mut next = arriving.clone();
        next.token_mut(&mut cells).unwrap().seq = Seq::new(4);
        next.encode_into_spare();
        assert_ne!(next.encoded().as_ptr(), in_flight.as_ptr());
        assert_eq!(next.encoded().as_ref(), next.packet().encode().as_slice());
        assert_eq!(in_flight, Packet::Token(Token::initial(ring)).encode_shared());
    }

    #[test]
    fn a_recycled_data_cell_is_encoded_into_the_buffer_it_was_sent_in() {
        let mut cells = CellPool::new(2);
        let build = |seq: u64, chunks: usize| {
            move |spare: Vec<Chunk>| {
                let chunks = crate::Chunks::refill(spare, vec![data_chunk(); chunks]);
                Some(DataPacket { chunks, ..data_packet(seq) })
            }
        };
        let mut sent = cells.data(build(1, 3)).unwrap();
        sent.encode_into_spare();
        let wire = sent.encoded().as_ptr();
        cells.recycle(sent);

        // Smaller: it fits the old buffer.
        let mut next = cells.data(build(2, 2)).unwrap();
        next.encode_into_spare();
        assert_eq!(next.encoded().as_ptr(), wire, "the old buffer, rewritten");
        assert_eq!(next.encoded().as_ref(), next.packet().encode().as_slice());
        cells.recycle(next);

        // Larger than the buffer: let go, and encoded afresh.
        let mut big = cells.data(build(3, 5)).unwrap();
        big.encode_into_spare();
        assert_ne!(big.encoded().as_ptr(), wire);
        assert_eq!(big.encoded().as_ref(), big.packet().encode().as_slice());
    }

    #[test]
    fn a_recycled_cell_keeps_no_received_buffer() {
        let mut cells = CellPool::new(4);
        let data = Packet::Data(data_packet(1)).encode_shared();
        let token = Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))).encode_shared();
        for wire in [data, token] {
            // The decoded packet holds the only handles on each buffer,
            // so it is unique once the cell drops its chunk views.
            let pkt = cells.decode(wire).unwrap();
            cells.recycle(pkt);
        }
        assert_eq!(cells.len(), 2);
        let spares = cells.data.iter().chain(&cells.token).filter(|c| c.spare_wire.is_some());
        assert_eq!(spares.count(), 0, "a received buffer became a spare");

        // Rewritten, a token is this node's again: its encoding is kept.
        let arriving =
            SharedPacket::new(Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1))));
        let mut token = arriving.clone();
        token.token_mut(&mut cells).unwrap().seq = Seq::new(5);
        token.encoded();
        cells.recycle(token);
        assert!(cells.token.as_ref().is_some_and(|c| c.spare_wire.is_some()));
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
