//! Allocation-regression gate for the transport inbox arenas.
//!
//! The batched receive path's contract is one exact-size allocation
//! per *batch*, none per datagram: the receiving thread copies every
//! datagram into one long-lived linear arena per socket, seals the
//! filled prefix into an immutable batch of exactly its own size, and
//! carves frames off as zero-copy slices — a segment train read whole
//! included, which splits into one arena frame per segment. The send
//! path's is none at all on the submitting thread: a run handed to a
//! network thread is refcount bumps into a queue that has already
//! grown, and the network thread cuts it into trains whose iovecs live
//! on its stack. These tests pin both with a counting global allocator
//! (scoped to the test's own thread, see `common`) — if a per-datagram
//! `Bytes` allocation, a per-frame queue node, a per-frame address
//! list, a per-train iovec vector or a per-batch arena replacement
//! sneaks back in, the assertions fail.

mod common;

use std::time::Duration;

use bytes::Bytes;
use common::snapshot;
use totem_transport::inbox::{InboxArena, MAX_BATCH_FRAMES};
use totem_transport::udp::for_each_train;
use totem_transport::{Destination, RecvBatch, SendBatch, Transport, UdpTopology};
use totem_wire::{NetworkId, NodeId};

/// Steady-state cost of the arena cycle: each batch (push × frames,
/// seal, carve every frame) costs at most one allocation — the
/// batch's bytes with their offsets behind them, sized to the batch —
/// however many datagrams it carries and however large the arena has
/// grown. An idle ring seals one-frame batches, so the lone frame
/// matters as much as the full arena.
#[test]
fn arena_batch_cycle_allocates_o1_not_per_frame() {
    let datagram = [0xABu8; 512];
    let mut arena = InboxArena::new(NetworkId::new(0));

    // Warm up: one full batch grows the arena to its high-water mark.
    for _ in 0..MAX_BATCH_FRAMES {
        arena.push(&datagram);
    }
    assert_eq!(arena.seal().expect("non-empty").frames(), MAX_BATCH_FRAMES);

    // Measured: every batch size from one datagram to a full arena.
    for frames in 1..=MAX_BATCH_FRAMES {
        let (a0, b0) = snapshot();
        for _ in 0..frames {
            arena.push(&datagram);
        }
        let sealed = arena.seal().expect("non-empty");
        let carved: usize = sealed.iter().map(|frame| frame.len()).sum();
        let (a1, b1) = snapshot();
        assert_eq!(carved, frames * datagram.len());

        assert!(a1 - a0 <= 1, "a batch of {frames} frames allocated {} times", a1 - a0);
        // Exactly its own bytes plus one u32 offset per frame, the
        // refcount header of the shared allocation and its padding.
        let own = (frames * (datagram.len() + 4) + 16 + 8) as u64;
        assert!(
            b1 - b0 <= own,
            "a batch of {frames} frames allocated {} bytes, its own size is {own}",
            b1 - b0
        );
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
/// reads k datagrams off a socket into one sealed batch, so a fill
/// costs one allocation per socket that had traffic, whatever k is.
#[test]
fn udp_recv_batch_allocates_once_per_sealed_batch() {
    let mut ts = UdpTopology::bind_ephemeral(2, 2).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0xCDu8; 300]);
    let mut out = RecvBatch::new();
    // k = 1 is the idle ring's token; the first round is the warm-up
    // that grows the arenas and the batch.
    for (round, k) in [MAX_BATCH_FRAMES / 2, 1, 7, MAX_BATCH_FRAMES / 2].into_iter().enumerate() {
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
        if round > 0 {
            assert!(allocs <= 2, "a fill of 2 x {k} datagrams allocated {allocs} times");
        }
    }
}

/// The same contract when the datagrams arrive as segment trains: a
/// 40-frame run per network goes through `send_batch` to the network
/// threads, which send it to the peer as one train each; the fill
/// splits every train back into its frames and costs at most one
/// allocation per socket that had traffic.
#[test]
fn udp_recv_batch_of_a_train_allocates_once_per_socket() {
    let mut ts = UdpTopology::bind_ephemeral(2, 2).expect("bind").into_transports().unwrap();
    let b = ts.remove(1);
    let a = ts.remove(0);
    let payload = Bytes::from(vec![0x5Au8; 300]);
    let mut run = SendBatch::new();
    let mut out = RecvBatch::new();
    // The first round is the warm-up: arenas and the fill grow.
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
            let sockets = (0..2).filter(|net| out.iter().any(|(n, _)| n.as_u8() == *net)).count();
            if round > 0 {
                assert!(
                    allocs <= sockets as u64,
                    "a fill of {n} frames from {sockets} sockets allocated {allocs} times"
                );
            }
            got += n;
            out.clear();
        }
        assert_eq!(got, 80, "round {round}: nothing more than was sent");
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
