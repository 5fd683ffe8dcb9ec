//! Allocation-regression gate for the transport inbox arenas.
//!
//! The batched receive path's contract is no allocation at all in
//! steady state, and never one per datagram: the receiving thread
//! copies every datagram into one long-lived linear arena per socket,
//! seals the filled prefix into a buffer an earlier batch was sealed
//! into and every frame has released (one exact-size allocation when
//! none is free within the retention bound), and carves frames off as
//! zero-copy slices — a segment train read whole included, which
//! splits into one arena frame per segment. The send
//! path's is none at all on the submitting thread: a run handed to a
//! network thread is refcount bumps into a queue that has already
//! grown, and the network thread cuts it into trains whose iovecs live
//! on its stack. These tests pin both with a counting global allocator
//! (scoped to the test's own thread, see `common`) — if a per-datagram
//! `Bytes` allocation, a per-batch buffer, a per-frame queue node, a
//! per-frame address list, a per-train iovec vector or a per-batch
//! arena replacement sneaks back in, the assertions fail.

mod common;

use std::time::Duration;

use bytes::Bytes;
use common::snapshot;
use totem_transport::inbox::{InboxArena, MAX_BATCH_FRAMES, RETENTION_FACTOR};
use totem_transport::udp::for_each_train;
use totem_transport::{Destination, RecvBatch, SendBatch, Transport, UdpTopology};
use totem_wire::{NetworkId, NodeId};

/// Steady-state cost of the arena cycle (push × frames, seal, carve
/// every frame): once the frames of earlier batches are dropped, a
/// batch of any size from one datagram to a full arena allocates
/// nothing — it is sealed into a buffer an earlier batch released. An
/// idle ring seals one-frame batches, so the lone frame matters as
/// much as the full arena. While an earlier batch is still held, a
/// batch costs at most one allocation, of its own size, and never sits
/// in a buffer past the retention bound.
#[test]
fn arena_batch_cycle_allocates_o1_not_per_frame() {
    const LEN: usize = 512;
    let mut arena = InboxArena::new(NetworkId::new(0));
    // One cycle of `frames` datagrams of `LEN` bytes `fill`:
    // (allocations, bytes, the batch's own size, the size of the buffer
    // it was sealed into, the batch).
    let mut cycle = |frames: usize, fill: u8| {
        let datagram = [fill; LEN];
        let (a0, b0) = snapshot();
        for _ in 0..frames {
            arena.push(&datagram);
        }
        let sealed = arena.seal().expect("non-empty");
        let carved: usize = sealed.iter().map(|frame| frame.len()).sum();
        let (a1, b1) = snapshot();
        assert_eq!(carved, frames * LEN);
        let own = frames * LEN + if frames > 1 { frames * 4 } else { 0 };
        let buffer = sealed.iter().next().expect("a frame").buffer_len();
        (a1 - a0, b1 - b0, own, buffer, sealed)
    };

    // Warm up: one batch of every size, each dropped at once.
    for frames in 1..=MAX_BATCH_FRAMES {
        cycle(frames, 0xAB);
    }
    // Dropped: every size again, each into a released buffer.
    for frames in 1..=MAX_BATCH_FRAMES {
        let (allocs, _, own, buffer, _) = cycle(frames, 0xAB);
        assert_eq!(allocs, 0, "a batch of {frames} frames allocated {allocs} times");
        assert!(buffer <= RETENTION_FACTOR * own, "{own} bytes in a {buffer}-byte buffer");
    }
    // Held: each batch sealed while the one before it is still held.
    let mut held = cycle(MAX_BATCH_FRAMES, 0).4;
    for frames in (1..=MAX_BATCH_FRAMES).rev() {
        let (allocs, bytes, own, buffer, sealed) = cycle(frames, frames as u8);
        assert!(allocs <= 1, "a batch of {frames} frames allocated {allocs} times");
        // Its own size, the refcount header of the shared allocation
        // and its padding.
        assert!(bytes <= (own + 16 + 8) as u64, "a {own}-byte batch allocated {bytes} bytes");
        assert!(buffer <= RETENTION_FACTOR * own, "{own} bytes in a {buffer}-byte buffer");
        let was = if frames == MAX_BATCH_FRAMES { 0 } else { frames as u8 + 1 };
        assert!(held.iter().all(|f| f.as_ref() == [was; LEN]), "a held frame was overwritten");
        held = sealed;
    }
}

/// Carving is zero-copy: frames of a sealed batch alias the arena
/// allocation instead of owning copies, so carving allocates nothing.
#[test]
fn carving_a_sealed_batch_allocates_nothing() {
    let mut arena = InboxArena::new(NetworkId::new(1));
    for i in 0..32u8 {
        arena.push(&[i; 256]);
    }
    let sealed = arena.seal().expect("non-empty");

    let (a0, _) = snapshot();
    let mut total = 0usize;
    for frame in sealed.iter() {
        total += frame.len();
    }
    assert_eq!(snapshot().0 - a0, 0, "carving must not allocate");
    assert_eq!(total, 32 * 256);
}

/// The same contract through real sockets: `UdpTransport::recv_batch`
/// reads k datagrams off a socket into one sealed batch — at most one
/// allocation per socket, whatever k is — and once a batch of that
/// size has been received and dropped before, a fill allocates
/// nothing.
#[test]
fn udp_recv_batch_allocates_once_per_sealed_batch() {
    let mut ts = UdpTopology::bind_ephemeral(2, 2).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0xCDu8; 300]);
    let mut out = RecvBatch::new();
    // k = 1 is the idle ring's token; the first pass is the warm-up
    // that grows the arenas and seals a buffer for each batch size.
    let shapes = [MAX_BATCH_FRAMES / 2, 1, 7, MAX_BATCH_FRAMES / 2];
    for (round, k) in shapes.into_iter().chain(shapes).enumerate() {
        for _ in 0..k {
            for net in 0..2 {
                // A lone frame on an idle network is sent by this
                // thread: it is in b's socket when `send` returns.
                a.send(NetworkId::new(net), Destination::Broadcast, payload.clone()).unwrap();
            }
        }
        let (a0, _) = snapshot();
        let got = b.recv_batch(&mut out, Duration::from_secs(2));
        let allocs = snapshot().0 - a0;
        assert_eq!(got, 2 * k, "one fill takes both sockets' datagrams");
        out.clear();
        if round >= shapes.len() {
            assert_eq!(allocs, 0, "a fill of 2 x {k} datagrams allocated {allocs} times");
        } else if round > 0 {
            assert!(allocs <= 2, "a fill of 2 x {k} datagrams allocated {allocs} times");
        }
    }
}

/// The same contract when the datagrams arrive as segment trains: a
/// 40-frame run per network goes through `send_batch` to the network
/// threads, which send it to the peer as one train each; the fill
/// splits every train back into its frames. A fill of whole trains
/// allocates nothing once one has been received and dropped; one that
/// caught a train in part (a kernel that splits trains itself) costs
/// at most one allocation per socket that had traffic.
#[test]
fn udp_recv_batch_of_a_train_allocates_once_per_socket() {
    let mut ts = UdpTopology::bind_ephemeral(2, 2).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0x5Au8; 300]);
    let mut run = SendBatch::new();
    let mut out = RecvBatch::new();
    // The first round is the warm-up: arenas and the fill grow, and
    // each socket seals a train's buffer.
    for round in 0..4 {
        run.clear();
        for net in 0..2 {
            for _ in 0..40 {
                run.push(NetworkId::new(net), Destination::Broadcast, payload.clone());
            }
        }
        assert_eq!(a.send_batch(&mut run).expect("queued"), 80);
        let mut got = 0;
        while got < 80 {
            let (a0, _) = snapshot();
            let n = b.recv_batch(&mut out, Duration::from_secs(2));
            let allocs = snapshot().0 - a0;
            assert!(n > 0, "round {round}: {got} of 80 frames arrived");
            let per_socket = |net: u8| out.iter().filter(|(n, _)| n.as_u8() == net).count();
            let (sockets, whole) = (0..2)
                .map(per_socket)
                .filter(|&k| k > 0)
                .fold((0, true), |(sockets, whole), k| (sockets + 1, whole && k == 40));
            if round > 0 {
                let most = if whole { 0 } else { sockets };
                assert!(
                    allocs <= most,
                    "a fill of {n} frames from {sockets} sockets allocated {allocs} times"
                );
            }
            got += n;
            out.clear();
        }
        assert_eq!(got, 80, "round {round}: nothing more than was sent");
    }
}

/// A fill carves a sealed batch whole once any room is left, so it can
/// run past the cap by one batch less one frame. The fill's own vector
/// is sized for that from the start, and the batch goes into the buffer
/// the previous one released: a fill left with one slot that takes a
/// full batch allocates nothing, however the kernel split the traffic
/// into earlier fills.
#[test]
fn a_full_batch_into_the_last_slot_allocates_nothing() {
    let mut ts = UdpTopology::bind_ephemeral(2, 1).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0x3Cu8; 200]);
    // The first round is the warm-up: the arena grows, and the batch
    // is sealed into a buffer of its size.
    for round in 0..2 {
        // A lone frame on an idle network is sent by this thread, so
        // all of them are in b's socket before the fill starts.
        for _ in 0..MAX_BATCH_FRAMES {
            a.send(NetworkId::new(0), Destination::Broadcast, payload.clone()).unwrap();
        }
        let mut out = RecvBatch::new();
        for _ in 1..out.max() {
            out.push(NetworkId::new(0), payload.clone());
        }
        let (a0, _) = snapshot();
        let got = b.recv_batch(&mut out, Duration::from_secs(2));
        let allocs = snapshot().0 - a0;
        assert_eq!(got, MAX_BATCH_FRAMES, "one fill takes the whole batch");
        if round > 0 {
            assert_eq!(allocs, 0, "a full batch into the last slot allocated {allocs} times");
        }
    }
}

/// Cutting a batch into trains and building their iovecs allocates
/// nothing: the iovecs live on the cutter's stack, and a train borrows
/// the frames it carries.
#[test]
fn cutting_trains_allocates_nothing() {
    let frame = |len: usize| Bytes::from(vec![0x77u8; len]);
    let token = (Destination::Node(NodeId::new(1)), frame(40));
    let frames: Vec<(Destination, Bytes)> =
        std::iter::repeat_with(|| (Destination::Broadcast, frame(300)))
            .take(40)
            .chain([token])
            .chain(std::iter::repeat_with(|| (Destination::Broadcast, frame(120))).take(70))
            .chain(std::iter::repeat_with(|| (Destination::Broadcast, frame(1_400))).take(50))
            .collect();
    let (mut trains, mut segments) = (0, 0);
    let (a0, _) = snapshot();
    assert!(for_each_train(&frames, |_, train| {
        trains += 1;
        segments += train.len();
        true
    }));
    assert_eq!(snapshot().0 - a0, 0, "cutting must not allocate");
    assert_eq!(segments, frames.len());
    // 40 data frames; the token; 64 + 6 frames; 46 + 4 frames.
    assert_eq!(trains, 6);
}

/// Queueing a run for a network thread allocates nothing on the
/// submitting thread once the queue has grown: frames go in as
/// `(Destination, Bytes)` — a refcount bump each — and destinations
/// are resolved on the sending thread, against the shared peer table.
#[test]
fn queueing_a_run_allocates_nothing_per_frame() {
    let mut ts = UdpTopology::bind_ephemeral(3, 1).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0xEFu8; 300]);
    let mut run = SendBatch::new();
    let mut arrived = RecvBatch::new();
    // The first rounds are the warm-up: the queue's two buffers (the
    // one being filled and the one the network thread sends from,
    // which trade places) each reach 40 frames.
    for round in 0..8 {
        run.clear();
        for i in 0..40u16 {
            let dst =
                if i % 8 == 7 { Destination::Node(NodeId::new(1)) } else { Destination::Broadcast };
            run.push(NetworkId::new(0), dst, payload.clone());
        }
        let (a0, _) = snapshot();
        assert_eq!(a.send_batch(&mut run).expect("queued"), 40);
        let allocs = snapshot().0 - a0;
        if round >= 3 {
            assert_eq!(allocs, 0, "queueing a 40-frame run must not allocate");
        }
        // The next round starts when node 1 has all of this one: the
        // network thread is through its buffer.
        let mut got = 0;
        while got < 40 {
            let n = b.recv_batch(&mut arrived, Duration::from_secs(2));
            assert!(n > 0, "round {round}: {got} of 40 frames arrived");
            got += n;
            arrived.clear();
        }
    }
}
