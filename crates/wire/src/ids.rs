//! Strongly typed identifiers used throughout the Totem stack.
//!
//! Newtypes keep node indices, network indices, ring identities and
//! sequence numbers from being confused with one another (and with
//! plain integers) at compile time.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a processor (a node on the ring).
///
/// Totem orders nodes by their identifier when electing the ring
/// representative, so `NodeId` is totally ordered.
///
/// # Example
///
/// ```
/// # use totem_wire::NodeId;
/// let a = NodeId::new(0);
/// let b = NodeId::new(3);
/// assert!(a < b);
/// assert_eq!(b.as_u16(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node identifier from its raw index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// Returns the raw index.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Returns the raw index widened to `usize`, convenient for
    /// indexing per-node tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

/// Identifier of one of the `N` redundant networks.
///
/// The paper names the networks `n'`, `n''`, ...; here they are
/// `NetworkId(0)`, `NetworkId(1)`, ...
///
/// # Example
///
/// ```
/// # use totem_wire::NetworkId;
/// let primary = NetworkId::new(0);
/// assert_eq!(primary.index(), 0);
/// assert_eq!(primary.to_string(), "net0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetworkId(u8);

impl NetworkId {
    /// Creates a network identifier from its raw index.
    pub const fn new(raw: u8) -> Self {
        NetworkId(raw)
    }

    /// Returns the raw index.
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// Returns the raw index widened to `usize`, convenient for
    /// indexing per-network tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetworkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

impl From<u8> for NetworkId {
    fn from(raw: u8) -> Self {
        NetworkId(raw)
    }
}

/// Identity of a ring configuration.
///
/// A ring is identified by its representative (the lowest
/// [`NodeId`] in the membership) and a monotonically increasing ring
/// sequence number chosen by the membership protocol. Every data
/// packet and token carries the `RingId` it belongs to so that stale
/// traffic from a previous configuration can be discarded.
///
/// # Example
///
/// ```
/// # use totem_wire::{NodeId, RingId};
/// let old = RingId::new(NodeId::new(0), 4);
/// let new = old.successor(NodeId::new(1));
/// assert!(new.seq > old.seq);
/// assert_eq!(new.rep, NodeId::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RingId {
    /// The ring representative: the smallest node identifier in the
    /// membership.
    pub rep: NodeId,
    /// The ring sequence number. Totem increments this by a step
    /// large enough that every node's next proposal is fresh; we use
    /// a simple monotone counter managed by the membership protocol.
    pub seq: u64,
}

impl RingId {
    /// Creates a ring identity.
    pub const fn new(rep: NodeId, seq: u64) -> Self {
        RingId { rep, seq }
    }

    /// Returns the identity of a successor ring led by `rep`, with a
    /// strictly larger ring sequence number.
    pub fn successor(self, rep: NodeId) -> Self {
        RingId { rep, seq: self.seq + 1 }
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ring({}, {})", self.rep, self.seq)
    }
}

/// Exclusive upper bound of every decoded [`Seq`] and [`Rotation`].
///
/// Each ring starts its counters at zero, and a ring would need 2^62
/// packets or rotations — millennia at line rate — to reach this, so
/// the codec treats a counter at or above it as malformed input and
/// the receive window treats one as corrupt state.
pub const MAX_COUNTER: u64 = 1 << 62;

/// A global message (packet) sequence number on a ring.
///
/// The token carries the sequence number of the last packet broadcast
/// on the ring; each node increments it for every packet it sends
/// while holding the token, which imposes the total order.
///
/// Every installed ring starts at the reserved [`Seq::ZERO`] ("no
/// packet broadcast yet") and stays below [`MAX_COUNTER`], so `Seq` is
/// a plain ordered counter.
///
/// # Example
///
/// ```
/// # use totem_wire::Seq;
/// let s = Seq::ZERO.next();
/// assert_eq!(s, Seq::new(1));
/// assert!(s > Seq::ZERO);
/// assert_eq!(s.gap_from(Seq::ZERO), 1);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Seq(u64);

impl Seq {
    /// The zero sequence number: "no packet broadcast yet".
    pub const ZERO: Seq = Seq(0);

    /// Creates a sequence number from its raw value.
    pub const fn new(raw: u64) -> Self {
        Seq(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next sequence number, which is never the reserved
    /// [`Seq::ZERO`]. Saturates rather than overflows, so even a
    /// corrupted counter cannot panic.
    pub const fn next(self) -> Seq {
        Seq(self.0.saturating_add(1))
    }

    /// Returns how many sequence numbers lie strictly after `earlier`
    /// up to and including `self` (zero if `self` is at or before
    /// `earlier`).
    pub const fn gap_from(self, earlier: Seq) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Iterates over all sequence numbers in `(self, until]`, i.e. the
    /// numbers a node is missing when its high watermark is `self`
    /// and the ring has reached `until`.
    pub fn missing_until(self, until: Seq) -> impl Iterator<Item = Seq> {
        (self.0..until.0).map(|s| Seq(s + 1))
    }
}

impl fmt::Display for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for Seq {
    fn from(raw: u64) -> Self {
        Seq(raw)
    }
}

/// The token's rotation counter (paper §2, footnote 1).
///
/// Incremented by the ring leader every time the token completes a
/// rotation, so an idle ring's retransmitted token (same [`Seq`]) is
/// never mistaken for a fresh one. Like [`Seq`] it restarts on every
/// installed ring and stays below [`MAX_COUNTER`]; unlike [`Seq`] it
/// has no reserved value: `Rotation::ZERO` is the first rotation of a
/// fresh ring.
///
/// # Example
///
/// ```
/// # use totem_wire::Rotation;
/// let r = Rotation::ZERO.next();
/// assert_eq!(r, Rotation::new(1));
/// assert!(r > Rotation::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Rotation(u64);

impl fmt::Debug for Rotation {
    /// Transparent: prints the raw counter, exactly as the `u64` field
    /// it replaced did. Recorded differential fixtures digest `Debug`
    /// output of token-bearing events, so the representation is pinned.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Rotation {
    /// The first rotation of a freshly formed ring.
    pub const ZERO: Rotation = Rotation(0);

    /// Creates a rotation counter from its raw value.
    pub const fn new(raw: u64) -> Self {
        Rotation(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next rotation. Saturates rather than overflows, like
    /// [`Seq::next`].
    pub const fn next(self) -> Rotation {
        Rotation(self.0.saturating_add(1))
    }
}

impl fmt::Display for Rotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rot{}", self.0)
    }
}

impl From<u64> for Rotation {
    fn from(raw: u64) -> Self {
        Rotation(raw)
    }
}

/// A Ring Paxos consensus-instance number.
///
/// The coordinator assigns one instance per proposal and learners
/// deliver strictly in instance order, so this is the Ring Paxos
/// analogue of [`Seq`], with a reserved [`InstanceId::ZERO`] sentinel
/// meaning "no instance opened yet". It lives in a circular space
/// compared with RFC 1982 serial methods and implements **no**
/// `Ord`/`PartialOrd`: a raw `<` across the wrap boundary would be a
/// protocol bug.
///
/// # Example
///
/// ```
/// # use totem_wire::InstanceId;
/// let first = InstanceId::ZERO.next();
/// assert_eq!(first, InstanceId::new(1));
/// // Wrap skips the reserved zero and serial order survives it.
/// let wrapped = InstanceId::new(u64::MAX).next();
/// assert_eq!(wrapped, InstanceId::new(1));
/// assert!(wrapped.follows(InstanceId::new(u64::MAX)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct InstanceId(u64);

impl InstanceId {
    /// The reserved sentinel: "no instance opened yet".
    pub const ZERO: InstanceId = InstanceId(0);

    /// Half the instance space; the serial comparison horizon.
    const HALF: u64 = 1 << 63;

    /// Creates an instance number from its raw value.
    pub const fn new(raw: u64) -> Self {
        InstanceId(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next instance, wrapping past `u64::MAX` and skipping the
    /// reserved [`InstanceId::ZERO`] sentinel.
    pub fn next(self) -> InstanceId {
        match self.0.wrapping_add(1) {
            0 => InstanceId(1),
            n => InstanceId(n),
        }
    }

    /// Serial-number (RFC 1982) "strictly after", wrap-safe.
    pub fn follows(self, other: InstanceId) -> bool {
        self.0 != other.0 && self.0.wrapping_sub(other.0) < Self::HALF
    }

    /// Serial-number "at or after": [`InstanceId::follows`] or equal.
    pub fn at_or_after(self, other: InstanceId) -> bool {
        self.0 == other.0 || self.follows(other)
    }

    /// The serially later of `self` and `other`.
    pub fn serial_max(self, other: InstanceId) -> InstanceId {
        if self.follows(other) {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u64> for InstanceId {
    fn from(raw: u64) -> Self {
        InstanceId(raw)
    }
}

/// A Ring Paxos ballot (round) number.
///
/// Carried by `Accept` and `RingAck` messages so acceptors can gate
/// stale coordinator traffic; here it tracks the coordinator's
/// incarnation, so it advances once per coordinator reboot. It lives
/// in the same circular space as [`InstanceId`]: RFC 1982 serial
/// comparison, **no** `Ord`/`PartialOrd`, and no reserved values
/// (ballot zero is the original coordinator's first round).
///
/// # Example
///
/// ```
/// # use totem_wire::Ballot;
/// assert_eq!(Ballot::ZERO.next(), Ballot::new(1));
/// assert!(Ballot::ZERO.follows(Ballot::new(u64::MAX)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Ballot(u64);

impl Ballot {
    /// The original coordinator's first ballot.
    pub const ZERO: Ballot = Ballot(0);

    /// Half the ballot space; the serial comparison horizon.
    const HALF: u64 = 1 << 63;

    /// Creates a ballot from its raw value.
    pub const fn new(raw: u64) -> Self {
        Ballot(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next ballot, wrapping past `u64::MAX` (no reserved values).
    pub const fn next(self) -> Ballot {
        Ballot(self.0.wrapping_add(1))
    }

    /// Serial-number (RFC 1982) "strictly after", wrap-safe.
    pub fn follows(self, other: Ballot) -> bool {
        self.0 != other.0 && self.0.wrapping_sub(other.0) < Self::HALF
    }

    /// Serial-number "at or after": [`Ballot::follows`] or equal.
    pub fn at_or_after(self, other: Ballot) -> bool {
        self.0 == other.0 || self.follows(other)
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u64> for Ballot {
    fn from(raw: u64) -> Self {
        Ballot(raw)
    }
}

/// A processor's reboot count (its identity epoch generation).
///
/// Incremented once per cold reboot and never reset, so it is a
/// genuinely **monotone** counter, not a serial one: a processor would
/// need to reboot every nanosecond for half a million years to wrap
/// it. It therefore derives a real `Ord` — raw comparison is correct —
/// and [`Incarnation::next`] saturates rather than wraps, so even the
/// theoretical overflow cannot reorder incarnations.
///
/// # Example
///
/// ```
/// # use totem_wire::Incarnation;
/// let original = Incarnation::ZERO;
/// let rebooted = original.next();
/// assert!(rebooted > original);
/// assert_eq!(rebooted.as_u64(), 1);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Incarnation(u64);

impl Incarnation {
    /// The original incarnation (never rebooted).
    pub const ZERO: Incarnation = Incarnation(0);

    /// Creates an incarnation from its raw reboot count.
    pub const fn new(raw: u64) -> Self {
        Incarnation(raw)
    }

    /// Returns the raw reboot count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next incarnation. Saturating: monotonicity is the whole
    /// point of this counter, so it must never wrap back to zero.
    pub const fn next(self) -> Incarnation {
        Incarnation(self.0.saturating_add(1))
    }
}

impl fmt::Display for Incarnation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inc{}", self.0)
    }
}

impl From<u64> for Incarnation {
    fn from(raw: u64) -> Self {
        Incarnation(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_orders_by_raw_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5).index(), 5);
        assert_eq!(NodeId::from(7).as_u16(), 7);
    }

    #[test]
    fn network_id_display_and_index() {
        assert_eq!(NetworkId::new(2).to_string(), "net2");
        assert_eq!(NetworkId::from(3).index(), 3);
    }

    #[test]
    fn ring_successor_increments_seq_and_replaces_rep() {
        let r = RingId::new(NodeId::new(4), 10);
        let s = r.successor(NodeId::new(2));
        assert_eq!(s.seq, 11);
        assert_eq!(s.rep, NodeId::new(2));
        assert!(s > r || s.rep < r.rep); // ordering is lexicographic on (rep, seq)
    }

    #[test]
    fn seq_next_and_gap() {
        let s = Seq::new(10);
        assert_eq!(s.next(), Seq::new(11));
        assert_eq!(Seq::new(15).gap_from(s), 5);
        assert_eq!(s.gap_from(Seq::new(15)), 0);
    }

    #[test]
    fn seq_missing_until_enumerates_open_closed_interval() {
        let missing: Vec<Seq> = Seq::new(3).missing_until(Seq::new(6)).collect();
        assert_eq!(missing, vec![Seq::new(4), Seq::new(5), Seq::new(6)]);
        assert_eq!(Seq::new(6).missing_until(Seq::new(6)).count(), 0);
    }

    #[test]
    fn seq_zero_is_default() {
        assert_eq!(Seq::default(), Seq::ZERO);
    }

    #[test]
    fn counters_order_plainly_and_saturate() {
        assert!(Seq::new(3) < Seq::new(4));
        assert_eq!(Seq::new(3).max(Seq::new(9)), Seq::new(9));
        assert_eq!(Seq::new(u64::MAX).next(), Seq::new(u64::MAX));
        assert_eq!(Seq::new(u64::MAX).missing_until(Seq::new(u64::MAX)).count(), 0);
        assert_eq!(Rotation::ZERO.next(), Rotation::new(1));
        assert!(Rotation::new(1) < Rotation::new(2));
        assert_eq!(Rotation::new(u64::MAX).next(), Rotation::new(u64::MAX));
        assert_eq!(Rotation::new(9).to_string(), "rot9");
        assert_eq!(Rotation::from(4).as_u64(), 4);
    }

    #[test]
    fn instance_id_is_serial_with_a_reserved_zero() {
        assert_eq!(InstanceId::ZERO.next(), InstanceId::new(1));
        assert_eq!(InstanceId::new(u64::MAX).next(), InstanceId::new(1));
        assert!(InstanceId::new(1).follows(InstanceId::new(u64::MAX)));
        assert!(!InstanceId::new(u64::MAX).follows(InstanceId::new(1)));
        assert!(InstanceId::new(4).at_or_after(InstanceId::new(4)));
        assert_eq!(
            InstanceId::new(u64::MAX).serial_max(InstanceId::new(2)),
            InstanceId::new(2),
            "serial max must respect the wrap"
        );
        assert_eq!(InstanceId::from(6).as_u64(), 6);
        assert_eq!(InstanceId::new(9).to_string(), "i9");
        assert_eq!(InstanceId::default(), InstanceId::ZERO);
    }

    #[test]
    fn ballot_is_serial_with_no_reserved_values() {
        assert_eq!(Ballot::ZERO.next(), Ballot::new(1));
        assert_eq!(Ballot::new(u64::MAX).next(), Ballot::ZERO);
        assert!(Ballot::ZERO.follows(Ballot::new(u64::MAX)));
        assert!(Ballot::new(3).at_or_after(Ballot::new(3)));
        assert!(!Ballot::new(3).at_or_after(Ballot::new(4)));
        assert_eq!(Ballot::from(5).as_u64(), 5);
        assert_eq!(Ballot::new(7).to_string(), "b7");
    }

    #[test]
    fn incarnation_is_monotone_and_saturates() {
        assert!(Incarnation::ZERO.next() > Incarnation::ZERO);
        assert_eq!(Incarnation::new(u64::MAX).next(), Incarnation::new(u64::MAX));
        assert_eq!(Incarnation::from(3).as_u64(), 3);
        assert_eq!(Incarnation::new(2).to_string(), "inc2");
    }

    #[test]
    fn ring_id_display_mentions_rep_and_seq() {
        let r = RingId::new(NodeId::new(1), 9);
        assert_eq!(r.to_string(), "ring(n1, 9)");
    }
}
