//! The Totem Redundant Ring Protocol (RRP).
//!
//! This crate is the primary contribution of *"The Totem Redundant
//! Ring Protocol"* (Koch, Moser, Melliar-Smith, ICDCS 2002): a thin
//! layer between the Totem single ring protocol and **N redundant
//! local-area networks** that makes partial or total failure of up to
//! N−1 networks transparent to the application, while a purely local
//! monitor raises fault reports for the operator.
//!
//! All replicated styles are one parameterized **K-of-N engine** —
//! a send window of K consecutive non-faulty networks, a stage-one
//! health monitor, and a stage-two wait-for-K-copies token gate —
//! instantiated at a different replication degree (paper §4–§7):
//!
//! * [`ReplicationStyle::Active`] — K=N: every message and token on
//!   all N networks (§5, Figure 2). Loss on up to N−1 networks is
//!   masked with no retransmission delay; bandwidth cost is N×.
//! * [`ReplicationStyle::Passive`] — K=1: each message and token on
//!   exactly one network, round-robin (§6, Figures 4 and 5). The
//!   networks' aggregate bandwidth becomes usable; a loss costs a
//!   retransmission.
//! * [`ReplicationStyle::ActivePassive`] — 1<K<N copies, round-robin
//!   (§7): a two-stage receive pipeline of the passive monitor
//!   followed by the active wait-for-K-copies gate.
//! * [`ReplicationStyle::KOfN`] — the engine over the full
//!   `1 <= K <= N` range, with K runtime-reconfigurable via
//!   [`RrpLayer::set_k`] and an optional automatic degradation policy
//!   ([`RrpConfig::auto_degrade`]).
//!
//! plus [`ReplicationStyle::Single`], the unreplicated baseline the
//! paper's evaluation compares against.
//!
//! The layer is sans-io: [`RrpLayer`] decides **routes** for outgoing
//! packets ([`RrpLayer::routes_for_message_into`],
//! [`RrpLayer::routes_for_token_into`]), **gates** incoming packets
//! ([`RrpLayer::on_packet`]), and reports network faults
//! ([`RrpEvent::Fault`]). Composition with the SRP lives in
//! `totem-cluster`.
//!
//! # Example: active replication masks a dead network
//!
//! ```
//! use totem_rrp::{ReplicationStyle, RrpConfig, RrpEvent, RrpLayer};
//! use totem_wire::{NetworkId, NodeId, Packet, RingId, Token};
//!
//! # fn main() -> Result<(), totem_rrp::RrpConfigError> {
//! let cfg = RrpConfig::new(ReplicationStyle::Active, 2);
//! let mut rrp = RrpLayer::new(cfg)?;
//!
//! // Outgoing packets go to both networks.
//! let mut routes = Vec::new();
//! rrp.routes_for_token_into(&mut routes);
//! assert_eq!(routes.len(), 2);
//!
//! // A token is handed to the SRP only once BOTH copies arrived...
//! let t = Packet::Token(Token::initial(RingId::new(NodeId::new(0), 1)));
//! let up = rrp.on_packet(1_000, NetworkId::new(0), t.clone().into(), false);
//! assert!(up.is_empty(), "first copy alone is not delivered");
//! let up = rrp.on_packet(2_000, NetworkId::new(1), t.into(), false);
//! assert!(matches!(up.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod engine;
pub mod fault;
pub mod layer;
pub mod monitor;
pub mod pernet;

pub use config::{ReplicationStyle, RrpConfig, RrpConfigError};
pub use fault::{FaultReason, FaultReport, MonitorKind};
pub use layer::{RrpEvent, RrpLayer, RrpStats};
pub use pernet::PerNet;
