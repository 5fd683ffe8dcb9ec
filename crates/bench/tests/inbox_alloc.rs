//! Allocation-regression gate for the transport inbox arenas.
//!
//! The batched receive path's contract is one exact-size allocation
//! per *batch*, none per datagram: a reader thread copies every
//! datagram into one long-lived linear arena, seals the filled prefix
//! into an immutable batch of exactly its own size (one channel
//! send), and the driver carves frames off as zero-copy slices. These
//! tests pin that with a counting global allocator (scoped to the
//! test's own thread, see `common`) — if a per-datagram `Bytes`
//! allocation, a per-frame queue node or a per-batch arena
//! replacement sneaks back in, the assertions fail.

mod common;

use common::snapshot;
use totem_transport::inbox::{InboxArena, MAX_BATCH_FRAMES};
use totem_wire::NetworkId;

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
