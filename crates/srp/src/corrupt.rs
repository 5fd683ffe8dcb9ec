//! Seeded state-corruption entry points for self-stabilization
//! testing.
//!
//! The fault model of the paper stops at processor crashes and network
//! faults; ROADMAP item 5 extends it to *arbitrary-state* faults in
//! the spirit of self-stabilizing total-order broadcast: a node's
//! in-memory protocol state is deterministically mutated mid-run, and
//! the test harness then proves the cluster reconverges.
//!
//! Every mutation goes through a public `corrupt_*` method on
//! [`SrpNode`] — no `unsafe`, no field pokes from outside the crate —
//! and draws its wrong bits from a caller-seeded RNG so a replay
//! reproduces the exact same corruption. The mutations are bounded
//! (small counter jumps, single-member set edits) so that detection
//! walks stay bounded too; the *protocol* hardening that routes the
//! resulting inconsistencies into the Gather reformation path lives in
//! [`crate::node`] and [`crate::member`].

use rand::Rng;

use totem_wire::{NodeId, Rotation, Seq};

use crate::node::{SrpNode, StateImpl};

/// A phantom processor id guaranteed to be outside any simulated
/// cluster (the harnesses top out far below this).
fn phantom_node<R: Rng>(rng: &mut R) -> NodeId {
    NodeId::new(0x4000 + rng.gen_range(0..64) as u16)
}

impl SrpNode {
    /// Corrupts the receive-window sequence counters (`my_aru`,
    /// `high_seen`, `delivered_up_to`) of whichever window is live in
    /// the current state: the ring window when one exists, the
    /// forming ring's window in Recovery. No-op for a node that has
    /// never been on a ring and is not recovering.
    pub fn corrupt_seq_counters<R: Rng>(&mut self, rng: &mut R) {
        if let StateImpl::Recovery(rec) = &mut self.state {
            rec.new.window.corrupt(rng);
            return;
        }
        if let Some(ring) = self.ring.as_mut() {
            ring.window.corrupt(rng);
        }
    }

    /// Corrupts the membership view: the ring member list in
    /// Operational/Commit/Recovery (dropping a peer or inserting a
    /// phantom processor), or the Gather `proc_set`/`fail_set`
    /// (self-accusation, phantom processor, or total amnesia).
    pub fn corrupt_membership<R: Rng>(&mut self, rng: &mut R) {
        let me = self.me;
        match &mut self.state {
            StateImpl::Gather(g) => match rng.gen_range(0..3) {
                0 => {
                    // Accuse ourselves of failure: without the gather
                    // sanitize hardening this wedges every consensus
                    // around this node.
                    g.fail_set.insert(me);
                }
                1 => {
                    g.proc_set.insert(phantom_node(rng));
                }
                _ => {
                    // Amnesia: forget everything learned this round.
                    g.proc_set.clear();
                    g.fail_set.clear();
                    g.joins.clear();
                }
            },
            StateImpl::Commit(c) => {
                corrupt_members(&mut c.members, me, rng);
            }
            StateImpl::Recovery(rec) => {
                corrupt_members(&mut rec.new.members, me, rng);
            }
            StateImpl::Operational(_) => {
                if let Some(ring) = self.ring.as_mut() {
                    corrupt_members(&mut ring.members, me, rng);
                }
            }
        }
    }

    /// Corrupts rotation/epoch bookkeeping: the token-freshness key
    /// (`last_key`) jumps forward so every real token looks stale, or
    /// the ring-sequence horizon (`max_ring_seq`) or identity `epoch`
    /// jumps forward so membership proposals and commit-token gating
    /// are built on inflated history.
    pub fn corrupt_rotation<R: Rng>(&mut self, rng: &mut R) {
        let jump = rng.gen_range(1..1024);
        match rng.gen_range(0..3) {
            0 => {
                let key = Some((Rotation::new(jump.wrapping_mul(7919)), Seq::new(jump)));
                match &mut self.state {
                    StateImpl::Operational(tok) => tok.last_key = key,
                    StateImpl::Recovery(rec) => rec.token.last_key = key,
                    // No token context to corrupt; jump the horizon
                    // instead so the draw is never silently wasted.
                    StateImpl::Gather(_) | StateImpl::Commit(_) => self.max_ring_seq += jump,
                }
            }
            1 => self.max_ring_seq += jump,
            _ => self.epoch += jump,
        }
    }
}

/// Mutates a sorted ring member list: removes one peer (never `me`,
/// never the last member) or inserts a phantom processor, preserving
/// the sorted/deduped invariant.
fn corrupt_members<R: Rng>(members: &mut Vec<NodeId>, me: NodeId, rng: &mut R) {
    let peers: Vec<usize> =
        members.iter().enumerate().filter(|(_, &m)| m != me).map(|(i, _)| i).collect();
    if rng.gen_bool(0.5) || peers.is_empty() {
        let p = phantom_node(rng);
        if let Err(pos) = members.binary_search(&p) {
            members.insert(pos, p);
        }
    } else if let Some(&victim) = peers.get(rng.gen_range(0..peers.len() as u64) as usize) {
        members.remove(victim);
    }
}
