//! The Totem Single Ring Protocol (SRP).
//!
//! A from-scratch implementation of the group communication substrate
//! the redundant ring protocol builds on (Amir, Moser, Melliar-Smith,
//! Agarwal, Ciarfella — ACM TOCS 1995; summarized in §2 of the RRP
//! paper):
//!
//! * a **logical token-passing ring** over broadcast-capable networks:
//!   a node may broadcast only while holding the unicast token, which
//!   eliminates medium contention and lets Totem drive an Ethernet far
//!   past its usual saturation point;
//! * **global total order**: the token carries the sequence number of
//!   the last packet broadcast; each sender stamps consecutive numbers,
//!   and every node delivers in sequence order;
//! * **reliable delivery** via retransmission requests that ride on
//!   the token, answered by whichever token holder has a copy;
//! * **flow control** via the token's `fcc` field, and **idle pacing**
//!   via its `backlog` field (a token is held only on an idle ring);
//! * **fault detection**: token-loss timeouts trigger the
//!   membership protocol (Gather → Commit → Recovery), which reforms
//!   the ring and delivers transitional and regular configuration
//!   changes in the style of extended virtual synchrony;
//! * **message packing and fragmentation** against the 1424-byte
//!   Ethernet payload model, which produces the paper's throughput
//!   peaks at 700 and 1400 bytes.
//!
//! The implementation is a sans-io state machine: [`SrpNode`] consumes
//! packets and timer ticks, and emits [`SrpEvent`]s (packets to send,
//! deliveries, configuration changes). It does not know how many
//! redundant networks exist — that is the job of the `totem-rrp`
//! layer, which maps the abstract send actions onto networks.
//!
//! # Example: a two-node ring driven by hand
//!
//! ```
//! use totem_srp::{SrpConfig, SrpNode, SrpEvent};
//! use totem_wire::NodeId;
//!
//! let members: Vec<NodeId> = (0..2).map(NodeId::new).collect();
//! let cfg = SrpConfig::default();
//! let mut a = SrpNode::new_operational(NodeId::new(0), cfg.clone(), &members, 0).unwrap();
//! let mut b = SrpNode::new_operational(NodeId::new(1), cfg, &members, 0).unwrap();
//!
//! a.submit(0, bytes::Bytes::from_static(b"hello ring")).unwrap();
//!
//! // Hand node 0 the initial token and shuttle packets by hand.
//! let mut outputs = a.bootstrap_token(0);
//! let mut delivered = Vec::new();
//! for _ in 0..8 {
//!     let mut next = Vec::new();
//!     for ev in outputs.drain(..) {
//!         match ev {
//!             SrpEvent::Broadcast(pkt) | SrpEvent::Rebroadcast(pkt) => {
//!                 next.extend(b.handle_packet(0, pkt))
//!             }
//!             SrpEvent::ToSuccessor(succ, pkt) => {
//!                 let n = if succ == NodeId::new(0) { &mut a } else { &mut b };
//!                 next.extend(n.handle_packet(0, pkt));
//!             }
//!             SrpEvent::Deliver(d) => delivered.push(d),
//!             SrpEvent::Config(_) => {}
//!         }
//!     }
//!     outputs = next;
//! }
//! // Both members deliver exactly once — the sender included, since
//! // Totem delivers a node's own messages in the same total order.
//! assert_eq!(delivered.len(), 2);
//! assert_eq!(&delivered[0].data[..], b"hello ring");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corrupt;
pub mod events;
pub mod member;
pub mod node;
pub mod packing;
pub mod window;

pub use config::{DeliveryGuarantee, SrpConfig};
pub use events::{ConfigChange, ConfigKind, Delivered, SrpEvent};
pub use node::{Nanos, NodeInitError, SrpNode, SrpState, SubmitError};
