//! Wire formats for the Totem single-ring and redundant-ring protocols.
//!
//! This crate defines everything that crosses a network in the Totem
//! protocol stack:
//!
//! * [`ids`] — strongly typed identifiers ([`NodeId`], [`NetworkId`],
//!   [`RingId`], [`Seq`]) and protocol counters ([`Rotation`],
//!   [`Incarnation`]). [`Seq`] and [`Rotation`] restart at zero on
//!   every ring, are plainly ordered, and decode only below
//!   [`MAX_COUNTER`].
//! * [`packet`] — the top-level [`Packet`] enum and the broadcast
//!   [`DataPacket`] carrying packed/fragmented application messages.
//! * [`token`] — the unicast regular [`Token`] that schedules
//!   transmission, carries the global sequence number, the
//!   all-received-up-to watermark, retransmission requests and flow
//!   control information.
//! * [`membership`] — the [`JoinMessage`] and [`CommitToken`] used by
//!   the Totem SRP membership protocol.
//! * [`shared`] — the [`SharedPacket`] encode-once/share-everywhere
//!   handle the data plane fans out instead of deep-cloning packets.
//! * [`header`] — the [`WireHeader`] of a datagram, validated by the
//!   one decoder without allocating, so a redundant copy can be
//!   recognised before it is decoded.
//! * [`codec`] — a small, dependency-free binary codec
//!   (big-endian, length-prefixed) with a fuzz-friendly decoder.
//! * [`frame`] — the Ethernet framing model from the paper
//!   (1518-byte frames, 94 bytes of header overhead, 1424-byte
//!   payload) used by the message packer and the simulator's
//!   bandwidth accounting.
//!
//! The encoding is deliberately explicit rather than derived: the
//! Totem papers reason about exact header sizes (the throughput peaks
//! at 700 and 1400 bytes in the evaluation exist *because* two
//! 712-byte chunks fill a 1424-byte frame exactly), so the byte layout
//! is part of the system being reproduced.
//!
//! # Example
//!
//! ```
//! # use totem_wire::*;
//! # fn main() -> Result<(), CodecError> {
//! let token = Token {
//!     ring: RingId::new(NodeId::new(0), 7),
//!     rotation: Rotation::new(42),
//!     seq: Seq::new(100),
//!     aru: Seq::new(98),
//!     aru_id: Some(NodeId::new(3)),
//!     fcc: 12,
//!     backlog: 3,
//!     rtr: vec![Seq::new(99)],
//! };
//! let bytes = Packet::Token(token.clone()).encode();
//! assert_eq!(Packet::decode(&bytes)?, Packet::Token(token));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod header;
pub mod ids;
pub mod membership;
pub mod packet;
pub mod ring_paxos;
pub mod shared;
pub mod token;
pub mod transition;

pub use codec::{CodecError, Reader, Writer, MAX_DECODE_LEN};
pub use frame::{
    chunk_capacity, wire_frame_len, CHUNK_HEADER_LEN, ETHERNET_MTU, HEADER_OVERHEAD, MAX_PAYLOAD,
};
pub use header::WireHeader;
pub use ids::{
    Ballot, Incarnation, InstanceId, NetworkId, NodeId, RingId, Rotation, Seq, MAX_COUNTER,
};
pub use membership::{CommitToken, JoinMessage, MembEntry};
pub use packet::{Chunk, ChunkKind, Chunks, DataPacket, Packet};
pub use ring_paxos::{Proposal, RingPaxosMsg};
pub use shared::{NetFrame, SharedPacket};
pub use token::Token;
pub use transition::{Transition, TRANSITION_BUFFER_CAP};
