//! Transports for the Totem stack: N redundant channels per node.
//!
//! The protocol crates are sans-io; this crate supplies the io for the
//! real-time runtime in `totem-cluster`:
//!
//! * [`UdpTransport`] — one UDP socket per redundant network, as in
//!   the paper's deployment (each workstation had one NIC per
//!   network). Broadcast is emulated by unicast fan-out to every peer,
//!   which keeps the example runnable on a loopback interface without
//!   multicast configuration.
//! * [`InMemoryTransport`] — a process-local hub for tests and
//!   examples that do not want sockets at all.
//!
//! Both implement [`Transport`]. Beyond the single-shot
//! [`Transport::send`]/[`Transport::recv_timeout`] pair, the trait
//! offers a batched fast path — [`Transport::send_batch`] submits a
//! whole [`SendBatch`] at once and [`Transport::recv_batch`] drains
//! everything queued into a [`RecvBatch`] — with default
//! implementations that loop over the single-shot methods, so every
//! transport is batch-callable and batch-aware transports (the UDP
//! one: [`inbox`] arenas filled by the receiving thread itself, runs
//! handed to one transmitter thread per network) amortize their
//! per-datagram costs.
//!
//! Unsafe code is denied crate-wide; the single audited exception is
//! the socket shim in `sys` — the `ppoll(2)` the UDP transport waits
//! in, and the `sendmsg(2)`/`recvmsg(2)`/`setsockopt(2)` it sends and
//! receives segment trains with — which is therefore part of the
//! default build. The crate builds on Linux only.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod counted;
pub mod inbox;
pub mod memory;
mod sys;
pub mod udp;

pub use batch::{RecvBatch, SendBatch, SendFrame};
pub use counted::{CountingTransport, TransportCounters};
pub use memory::{InMemoryHub, InMemoryTransport};
pub use udp::{BoundTopology, UdpTopology, UdpTransport};

use std::io;
use std::time::Duration;

use bytes::Bytes;

use totem_wire::{NetworkId, NodeId};

/// Where a packet should go on one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// All peers on the network (data packets and join messages).
    Broadcast,
    /// A single peer (tokens).
    Node(NodeId),
}

/// A set of N redundant channels belonging to one node.
///
/// Sending never blocks on peers; receiving is a single multiplexed
/// queue across all networks.
pub trait Transport: Send {
    /// Number of redundant networks.
    fn networks(&self) -> usize;

    /// Sends `payload` on `net` to `dst`.
    ///
    /// The payload is a refcounted [`Bytes`] handle so implementations
    /// that fan one datagram out to many local queues (broadcast on
    /// the in-memory hub) share a single buffer instead of copying it
    /// per receiver.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying channel. Transient
    /// send failures should be treated as packet loss (the protocol
    /// retransmits); callers should not retry in a loop.
    fn send(&self, net: NetworkId, dst: Destination, payload: Bytes) -> io::Result<()>;

    /// Waits up to `timeout` for the next datagram on any network.
    /// Returns `None` on timeout or if the transport has shut down.
    fn recv_timeout(&self, timeout: Duration) -> Option<(NetworkId, Bytes)>;

    /// Submits every pending frame of `batch`, advancing its cursor
    /// past what was sent, and returns how many frames went out: a
    /// transient failure mid-batch reports the partial count (`Ok(n)`,
    /// unsent tail left pending) and only a failure on the *first*
    /// pending frame surfaces as an error.
    ///
    /// The default implementation loops over [`Transport::send`];
    /// batch-aware transports override it to amortize per-submission
    /// work across the whole batch.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error only when no frame of this
    /// call could be submitted.
    fn send_batch(&self, batch: &mut SendBatch) -> io::Result<usize> {
        let mut sent = 0;
        while let Some(frame) = batch.pending().first() {
            match self.send(frame.net, frame.dst, frame.payload.clone()) {
                Ok(()) => {
                    batch.advance(1);
                    sent += 1;
                }
                Err(e) if sent == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(sent)
    }

    /// Waits up to `timeout` for traffic, then appends everything
    /// immediately available (across all networks, up to the batch's
    /// frame cap) to `out`. Returns how many datagrams were appended;
    /// `0` means timeout or shutdown.
    ///
    /// The default implementation performs one blocking
    /// [`Transport::recv_timeout`] followed by zero-timeout drains.
    fn recv_batch(&self, out: &mut RecvBatch, timeout: Duration) -> usize {
        let mut got = 0;
        let mut wait = timeout;
        while out.space() > 0 {
            match self.recv_timeout(wait) {
                Some((net, payload)) => {
                    out.push(net, payload);
                    got += 1;
                    wait = Duration::ZERO;
                }
                None => break,
            }
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_is_plain_data() {
        let d = Destination::Node(NodeId::new(3));
        assert_eq!(d, Destination::Node(NodeId::new(3)));
        assert_ne!(d, Destination::Broadcast);
    }

    #[test]
    fn default_send_batch_loops_over_send() {
        let hub = InMemoryHub::new(3, 2);
        let mut batch = SendBatch::new();
        batch.push(NetworkId::new(0), Destination::Broadcast, Bytes::from_static(b"b0"));
        batch.push(NetworkId::new(1), Destination::Node(NodeId::new(2)), Bytes::from_static(b"u1"));
        let sent = hub[0].send_batch(&mut batch).expect("both frames send");
        assert_eq!(sent, 2);
        assert!(batch.is_empty());
        // Broadcast landed on node 1 and 2, unicast only on node 2.
        assert_eq!(hub[1].recv_timeout(Duration::from_millis(100)).unwrap().1.as_ref(), b"b0");
        let mut got: Vec<Vec<u8>> = (0..2)
            .filter_map(|_| hub[2].recv_timeout(Duration::from_millis(100)))
            .map(|(_, b)| b.to_vec())
            .collect();
        got.sort();
        assert_eq!(got, vec![b"b0".to_vec(), b"u1".to_vec()]);
    }

    #[test]
    fn default_send_batch_errors_only_when_nothing_was_sent() {
        let hub = InMemoryHub::new(2, 1);
        // First frame bad: hard error, nothing sent.
        let mut batch = SendBatch::new();
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(9)), Bytes::from_static(b"x"));
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(1)), Bytes::from_static(b"y"));
        let err = hub[0].send_batch(&mut batch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(batch.remaining(), 2, "nothing consumed on a leading error");

        // Bad frame mid-batch: partial success, tail stays pending.
        let mut batch = SendBatch::new();
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(1)), Bytes::from_static(b"a"));
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(9)), Bytes::from_static(b"b"));
        batch.push(NetworkId::new(0), Destination::Node(NodeId::new(1)), Bytes::from_static(b"c"));
        let sent = hub[0].send_batch(&mut batch).expect("partial success is Ok");
        assert_eq!(sent, 1);
        assert_eq!(batch.remaining(), 2, "failed frame and tail stay pending");
    }

    #[test]
    fn default_recv_batch_drains_whatever_is_queued() {
        let hub = InMemoryHub::new(2, 2);
        for i in 0..5u8 {
            hub[0]
                .send(
                    NetworkId::new(i % 2),
                    Destination::Node(NodeId::new(1)),
                    Bytes::copy_from_slice(&[i]),
                )
                .unwrap();
        }
        let mut out = RecvBatch::new();
        let n = hub[1].recv_batch(&mut out, Duration::from_millis(200));
        assert_eq!(n, 5);
        let nets: Vec<u8> = out.iter().map(|(net, _)| net.as_u8()).collect();
        assert_eq!(nets, vec![0, 1, 0, 1, 0], "arrival order preserved");
        out.clear();
        assert_eq!(hub[1].recv_batch(&mut out, Duration::from_millis(10)), 0);
    }

    #[test]
    fn default_recv_batch_respects_the_frame_cap() {
        let hub = InMemoryHub::new(2, 1);
        for i in 0..4u8 {
            hub[0]
                .send(
                    NetworkId::new(0),
                    Destination::Node(NodeId::new(1)),
                    Bytes::copy_from_slice(&[i]),
                )
                .unwrap();
        }
        let mut out = RecvBatch::with_max(3);
        assert_eq!(hub[1].recv_batch(&mut out, Duration::from_millis(100)), 3);
        assert_eq!(hub[1].recv_batch(&mut out, Duration::from_millis(100)), 0, "batch full");
        out.clear();
        assert_eq!(hub[1].recv_batch(&mut out, Duration::from_millis(100)), 1, "tail arrives next");
    }
}
