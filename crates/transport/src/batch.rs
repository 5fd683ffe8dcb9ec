//! Reusable submission and completion batches for the batched
//! transport fast path.
//!
//! The driver loop accumulates every frame produced by one wake into a
//! [`SendBatch`] and hands the whole batch to
//! [`Transport::send_batch`](crate::Transport::send_batch) once, so a
//! batch-aware transport can amortize its per-submission cost (the UDP
//! transport hands each network's run to that network's thread in one
//! queue operation). Symmetrically, a [`RecvBatch`] carries every
//! datagram one wake drained out of the transport. Both types keep
//! their allocations across `clear()`, so a driver in steady state
//! reuses the same two buffers forever.

use bytes::Bytes;

use totem_wire::NetworkId;

use crate::Destination;

/// One outgoing datagram in a [`SendBatch`].
#[derive(Debug, Clone)]
pub struct SendFrame {
    /// Which redundant network to send on.
    pub net: NetworkId,
    /// Broadcast or unicast.
    pub dst: Destination,
    /// The encoded frame (refcounted; fan-out shares the buffer).
    pub payload: Bytes,
}

/// An ordered batch of outgoing frames with a submission cursor.
///
/// [`Transport::send_batch`](crate::Transport::send_batch) consumes
/// frames from the front and advances the cursor past everything it
/// submitted, so partial success (a full socket buffer mid-batch)
/// leaves the unsent tail in place for a retry: the call reports how
/// many frames it submitted.
#[derive(Debug, Default)]
pub struct SendBatch {
    frames: Vec<SendFrame>,
    cursor: usize,
}

impl SendBatch {
    /// An empty batch.
    pub fn new() -> Self {
        SendBatch::default()
    }

    /// Appends a frame to the batch.
    pub fn push(&mut self, net: NetworkId, dst: Destination, payload: Bytes) {
        self.frames.push(SendFrame { net, dst, payload });
    }

    /// Frames not yet submitted (everything at or past the cursor).
    pub fn pending(&self) -> &[SendFrame] {
        &self.frames[self.cursor..]
    }

    /// Number of frames not yet submitted.
    pub fn remaining(&self) -> usize {
        self.frames.len() - self.cursor
    }

    /// True when every frame has been submitted (or none was pushed).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Total frames pushed since the last [`SendBatch::clear`],
    /// submitted or not.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Marks the next `n` pending frames as submitted.
    ///
    /// Transport implementations call this as they make progress;
    /// `n` is clamped to the pending count.
    pub fn advance(&mut self, n: usize) {
        self.cursor = (self.cursor + n).min(self.frames.len());
    }

    /// Drops all frames (submitted or not) and rewinds the cursor,
    /// keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.cursor = 0;
    }

    /// Stable-groups the *pending* frames by network, so a batch-aware
    /// transport sees one contiguous run per network (one submission
    /// each) instead of one run per frame when a producer
    /// interleaves networks (the redundant-ring layer emits each
    /// frame's copies net-by-net).
    ///
    /// Per-network FIFO order is preserved — that is the only order
    /// the protocol depends on; copies on different networks travel on
    /// different sockets and carry no relative ordering.
    pub fn group_by_net(&mut self) {
        // Vec::sort_by_key is stable, so same-net frames keep their
        // relative order.
        self.frames[self.cursor..].sort_by_key(|f| f.net);
    }
}

/// A batch of received datagrams, appended by
/// [`Transport::recv_batch`](crate::Transport::recv_batch) and drained
/// by the driver loop.
///
/// `max` bounds how many frames one call may append so a saturated
/// socket cannot starve the driver's timer handling; the default of
/// [`RecvBatch::DEFAULT_MAX`] is one full inbox arena.
#[derive(Debug)]
pub struct RecvBatch {
    frames: Vec<(NetworkId, Bytes)>,
    max: usize,
}

impl RecvBatch {
    /// Default per-call frame cap.
    pub const DEFAULT_MAX: usize = 64;

    /// An empty batch with the default cap.
    pub fn new() -> Self {
        RecvBatch::with_max(Self::DEFAULT_MAX)
    }

    /// An empty batch capped at `max` frames per fill.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max(max: usize) -> Self {
        assert!(max > 0, "recv batch cap must be positive");
        RecvBatch { frames: Vec::with_capacity(max), max }
    }

    /// The per-fill frame cap.
    pub fn max(&self) -> usize {
        self.max
    }

    /// Room left before the cap.
    pub fn space(&self) -> usize {
        self.max.saturating_sub(self.frames.len())
    }

    /// Appends one received datagram. Transports must respect
    /// [`RecvBatch::space`]; pushing past the cap is allowed (a sealed
    /// arena batch is carved in whole) but stops the fill loop.
    pub fn push(&mut self, net: NetworkId, payload: Bytes) {
        self.frames.push((net, payload));
    }

    /// Number of buffered datagrams.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no datagrams are buffered.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Iterates the buffered datagrams in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &(NetworkId, Bytes)> {
        self.frames.iter()
    }

    /// Drains the buffered datagrams in arrival order, keeping the
    /// allocation for the next fill.
    pub fn drain(&mut self) -> impl Iterator<Item = (NetworkId, Bytes)> + '_ {
        self.frames.drain(..)
    }

    /// Drops everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.frames.clear();
    }
}

impl Default for RecvBatch {
    fn default() -> Self {
        RecvBatch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_net_is_stable_within_a_network() {
        let mut b = SendBatch::new();
        // Interleaved nets, as the redundant-ring layer emits them.
        for i in 0..6u8 {
            b.push(NetworkId::new(i % 2), Destination::Broadcast, Bytes::copy_from_slice(&[i]));
        }
        // Already-submitted frames are left alone.
        b.advance(2);
        b.group_by_net();
        let pending: Vec<(u8, u8)> =
            b.pending().iter().map(|f| (f.net.as_u8(), f.payload[0])).collect();
        assert_eq!(
            pending,
            vec![(0, 2), (0, 4), (1, 3), (1, 5)],
            "one contiguous run per net, per-net FIFO preserved"
        );
    }

    #[test]
    fn send_batch_cursor_tracks_partial_progress() {
        let mut b = SendBatch::new();
        for i in 0..4u8 {
            b.push(NetworkId::new(0), Destination::Broadcast, Bytes::copy_from_slice(&[i]));
        }
        assert_eq!(b.remaining(), 4);
        b.advance(3);
        assert_eq!(b.remaining(), 1);
        assert_eq!(b.pending()[0].payload.as_ref(), &[3]);
        b.advance(5); // clamped
        assert!(b.is_empty());
        b.clear();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn recv_batch_caps_and_drains_in_order() {
        let mut b = RecvBatch::with_max(2);
        assert_eq!(b.space(), 2);
        b.push(NetworkId::new(0), Bytes::from_static(b"a"));
        b.push(NetworkId::new(1), Bytes::from_static(b"b"));
        assert_eq!(b.space(), 0);
        let got: Vec<u8> = b.drain().map(|(n, _)| n.as_u8()).collect();
        assert_eq!(got, vec![0, 1]);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cap_is_rejected() {
        let _ = RecvBatch::with_max(0);
    }
}
